from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from monogal import cli
from monogal.cli import main
from monogal.groups import parse_perm_script
from monogal.monodromy import SolutionRegistry, TrackFailureRate, decode_solutions, encode_solutions
from monogal.problems import (
    fivepoint_fabricate,
    p3p_conic_solve,
    p3p_fabricate,
    p3p_system,
    ransac_trials,
    twisted_pair,
)
from monogal.slp import residual


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_blas_threads(threads, *argv) -> str:
    # A fresh interpreter with the given number of BLAS threads, so tests can
    # show that written files do not depend on it. Returns stdout.
    return run_python(threads, "-m", "monogal.cli", *argv)


CUBIC_SOURCE = "params z1, z2; unknowns x; eqs x^3 + z1*x + z2;"


def write_cubic(tmp_path):
    src = tmp_path / "cubic.txt"
    src.write_text(CUBIC_SOURCE)
    start = tmp_path / "start.json"
    doc = encode_solutions(np.array([0.0, -8.0]), [np.array([2.0])], [0.0])
    start.write_text(json.dumps(doc))
    return str(src), str(start)


# ------------------------------------------------------------
# fabricate
# ------------------------------------------------------------


def test_fabricate_p3p(capsys):
    code, out, _ = run_cli(capsys, "fabricate", "p3p", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("residual: ")
    assert float(lines[-1].split(": ")[1]) <= 1e-8
    z, sols, res = decode_solutions("\n".join(lines[:-1]))
    assert z.shape == (6,)
    assert len(sols) == 1 and sols[0].shape == (3,)
    assert res[0] <= 1e-8


def test_fabricate_unknown_problem(capsys):
    code, _, err = run_cli(capsys, "fabricate", "nosuch")
    assert code == 2
    assert "unknown problem" in err


# ------------------------------------------------------------
# monodromy
# ------------------------------------------------------------


def test_monodromy_p3p_full_report(capsys):
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "3")
    assert code == 0
    assert "solutions: 8" in out
    assert "stopped: stabilization" in out
    assert "order: 192" in out
    assert "blocks: 4 x 2" in out
    assert "even: true" in out
    assert "galois width: 3" in out


def test_monodromy_p3p_output_files(capsys, tmp_path):
    sols_path = tmp_path / "sols.json"
    group_path = tmp_path / "group.txt"
    code, _, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "3",
                         "--out-solutions", str(sols_path), "--out-group", str(group_path))
    assert code == 0
    z, sols, res = decode_solutions(sols_path.read_text())
    assert len(sols) == 8
    assert max(res) <= 1e-8
    for x in sols:
        assert residual(p3p_system(), z, x) <= 1e-8
    perms = parse_perm_script(group_path.read_text())
    assert perms
    assert all(p.degree == 8 for p in perms)
    assert sols_path.read_text().endswith("\n")
    assert group_path.read_text().endswith("\n")


def test_monodromy_p3p_golden_stdout(capsys):
    # Captured before the tracker's linear solve moved from scipy's wrappers
    # to direct LAPACK calls; any change to a tracked bit can move these counts.
    # loops and paths were re-captured when reverse correspondences began to
    # be derived and stabilization began to count fresh edges, and again when
    # one path per σ-orbit began to be tracked.
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "1")
    assert code == 0
    assert out == (
        "solutions: 8\n"
        "loops: 47\n"
        "paths: 70\n"
        "failures: 0\n"
        "stopped: stabilization\n"
        "order: 192\n"
        "blocks: 4 x 2\n"
        "even: true\n"
        "galois width: 3\n"
    )


@pytest.mark.parametrize("seed", ["1682239577", "1875860591", "14181"])
def test_monodromy_p3p_nearly_coplanar_seeds_now_solve(capsys, seed):
    # Without the fabricator's coplanarity guard these seeds drew instances
    # with four solutions near infinity, and the run exited 4.
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", seed)
    assert code == 0
    assert "solutions: 8" in out


@pytest.mark.parametrize("seed", ["632356043", "1676864797"])
def test_monodromy_p3p_no_early_stop_at_six_solutions(capsys, seed):
    # Counting stabilization in loops let short mop-up loops use up the
    # budget: these seeds stopped after two fresh edges with 6 solutions and
    # order 48.
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", seed)
    assert code == 0
    assert "solutions: 8" in out
    assert "order: 192" in out


# The p3p digests were re-captured when one path per σ-orbit began to be
# tracked and the fiber to be lifted through σ.
SOLUTIONS_FILE_DIGESTS = [
    (["p3p", "--seed", "1"], "611f6ce5aebf6f13b18ffdbe2834650afea31f04e84b972f3be9b6e4867bee4b"),
    (["p3p", "--seed", "2"], "178af3bb3efc9f6f121b32f36f336a06e735fd77bc7e6f6741480271f1ee110b"),
    (["p3p", "--seed", "3"], "8dbc7fd560a59f1783d5a062ba8d9bdda36797e94858ae5a74ecc95bf1a3af30"),
    (["fivepoint", "--seed", "1", "--equivalencer", "translation"],
     "98f03518da0eab73fdb3018b060a2dd1e2ffd5876bf4b9899d45e9bffcf11179"),
]


# The one-thread cases keep the ids they had before the thread count became
# a parameter.
@pytest.mark.parametrize("argv, digest, threads", [
    pytest.param(argv, digest, threads, id=f"argv{i}-{digest}" + ("" if threads == 1 else f"-{threads}threads"))
    for threads in (1, 2) for i, (argv, digest) in enumerate(SOLUTIONS_FILE_DIGESTS)
])
def test_monodromy_solutions_file_digest(tmp_path, argv, digest, threads):
    # Captured while every reverse correspondence was still tracked: deriving
    # them must not move a bit of the solutions found. The bits are the same
    # at any BLAS thread count.
    sols_path = tmp_path / "sols.json"
    run_cli_blas_threads(threads, "monodromy", *argv, "--out-solutions", str(sols_path))
    assert hashlib.sha256(sols_path.read_bytes()).hexdigest() == digest


def test_monodromy_runs_without_scipy():
    # scipy is a test dependency only: the package must run with it blocked.
    out = run_python(1, "-c", (
        "import sys; sys.modules['scipy'] = None\n"
        "import monogal.cli\n"
        "sys.exit(monogal.cli.main(['monodromy', 'p3p', '--seed', '1']))"
    ))
    assert "order: 192\n" in out


# A σ run starts with the seed and its image, so it meets a target of 1 or 2
# before it tracks a path; the sign view of that run has one class.
@pytest.mark.parametrize("view, target_count, solutions, blocks", [
    (None, "1", 2, "not transitive"),
    (None, "2", 2, "not transitive"),
    ("sign", "1", 1, "none"),
])
def test_monodromy_out_group_without_permutations_reads_back(capsys, tmp_path, view, target_count,
                                                             solutions, blocks):
    # These runs close no cycle; the script holds the identity on the fiber,
    # so group reports what monodromy reported.
    group_path = tmp_path / "group.txt"
    view_args = [] if view is None else ["--equivalencer", view]
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "1", "--target-count", target_count,
                           *view_args, "--out-group", str(group_path))
    assert code == 0
    assert f"{'solutions' if view is None else 'classes'}: {solutions}" in out
    assert group_path.read_text() == f"p0:= PermList([{', '.join(str(i + 1) for i in range(solutions))}]);\nG:=Group(p0);\n"
    code, group_out, _ = run_cli(capsys, "group", str(group_path))
    assert code == 0
    for key in ("order", "even", "galois width"):
        line = next(l for l in out.splitlines() if l.startswith(f"{key}: "))
        assert line in group_out.splitlines()
    assert f"blocks: {blocks}" in group_out.splitlines()


def test_monodromy_stdout_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "3")
    _, second, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "3")
    assert first == second


def test_monodromy_verbose_reports_graph(capsys):
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "3", "--verbose")
    assert code == 0
    assert "nodes: 5" in out
    assert "edges: " in out


def test_monodromy_file_system(capsys, tmp_path):
    src, start = write_cubic(tmp_path)
    code, out, _ = run_cli(capsys, "monodromy", src, "--start", start, "--seed", "1")
    assert code == 0
    assert "solutions: 3" in out
    assert "order: 6" in out


def test_monodromy_unknown_system(capsys):
    code, _, err = run_cli(capsys, "monodromy", "nosuch")
    assert code == 2
    assert "unknown problem or missing file" in err


def test_monodromy_file_requires_start(capsys, tmp_path):
    src, _ = write_cubic(tmp_path)
    code, _, err = run_cli(capsys, "monodromy", src)
    assert code == 2
    assert "--start" in err


def test_monodromy_unparsable_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a system")
    code, _, err = run_cli(capsys, "monodromy", str(bad), "--start", "x.json")
    assert code == 2
    assert "cannot parse" in err


def test_monodromy_start_without_solutions(capsys, tmp_path):
    src, _ = write_cubic(tmp_path)
    start = tmp_path / "empty.json"
    start.write_text(json.dumps(encode_solutions(np.array([0.0, -8.0]), [], [])))
    code, _, err = run_cli(capsys, "monodromy", src, "--start", str(start))
    assert code == 2
    assert "no solutions" in err


def test_monodromy_rejects_nan_start(capsys, tmp_path):
    src, _ = write_cubic(tmp_path)
    start = tmp_path / "nan.json"
    doc = encode_solutions(np.array([0.0, -8.0]), [np.array([complex("nan")])], [0.0])
    start.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "monodromy", src, "--start", str(start))
    assert code == 2
    assert "seed residual nan exceeds 1e-8" in err


def test_monodromy_unknown_equivalencer(capsys):
    code, _, err = run_cli(capsys, "monodromy", "p3p", "--equivalencer", "nosuch")
    assert code == 2
    assert "unknown equivalencer" in err


@pytest.mark.parametrize("system, name", [("fivepoint", "sign"), ("p3p", "translation")])
def test_monodromy_equivalencer_of_another_problem_exits_2(capsys, system, name):
    code, _, err = run_cli(capsys, "monodromy", system, "--equivalencer", name)
    assert code == 2
    assert "unknown equivalencer" in err


def test_monodromy_p3p_sign_classes(capsys):
    # Solved modulo σ = -λ, P3P has 4 classes, and S4 acts on them.
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "1", "--equivalencer", "sign")
    assert code == 0
    for line in ("classes: 4", "order: 24", "blocks: none", "galois width: 3"):
        assert line in out.splitlines()


def test_monodromy_p3p_closes_the_base_fiber_under_the_deck_map(capsys):
    # Every loop of this run kept one solution of each ±λ pair: it used to
    # stop by stabilization at 4 solutions, order 24 and "even: false".
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "52593329")
    assert code == 0
    assert "solutions: 8" in out.splitlines()
    assert "even: true" in out.splitlines()


def test_monodromy_rank_failure(capsys, tmp_path):
    src = tmp_path / "quad.txt"
    src.write_text("params z; unknowns x; eqs x^2 - z;")
    start = tmp_path / "start.json"
    # x = 0 at z = 0 is a double root: the unknown Jacobian vanishes there.
    start.write_text(json.dumps(encode_solutions(np.array([0.0]), [np.array([0.0])], [0.0])))
    code, _, err = run_cli(capsys, "monodromy", str(src), "--start", str(start))
    assert code == 3
    assert "rank failure" in err


def test_monodromy_tracking_collapse(capsys, monkeypatch):
    def explode(graph, opts):
        raise TrackFailureRate("12 of 20 paths failed")

    monkeypatch.setattr(cli, "run", explode)
    code, _, err = run_cli(capsys, "monodromy", "p3p", "--seed", "3")
    assert code == 4
    assert "tracking collapse" in err


# ------------------------------------------------------------
# track
# ------------------------------------------------------------


@pytest.fixture()
def p3p_track_files(tmp_path):
    rng = np.random.default_rng(5)
    inst0, _ = p3p_fabricate(rng)
    inst1, _ = p3p_fabricate(rng)
    z0 = inst0.as_params()
    starts = [s.as_vector() for s in p3p_conic_solve(inst0)]
    res = [residual(p3p_system(), z0, x) for x in starts]
    sf = tmp_path / "starts.json"
    tf = tmp_path / "target.json"
    sf.write_text(json.dumps(encode_solutions(z0, starts, res)))
    tf.write_text(json.dumps(encode_solutions(inst1.as_params(), [], [])))
    return sf, tf, z0, starts, res


def test_track_p3p(capsys, tmp_path, p3p_track_files):
    sf, tf, _, _, _ = p3p_track_files
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "track", "p3p", str(sf), str(tf), "--out", str(out_path), "--seed", "9")
    assert code == 0
    assert "tracked: 8/8" in out
    assert "solutions: 8" in out
    z1, sols, res = decode_solutions(out_path.read_text())
    assert len(sols) == 8
    assert max(res) <= 1e-8
    for x in sols:
        assert residual(p3p_system(), z1, x) <= 1e-8


def test_track_p3p_one_start_per_sign_class(capsys, tmp_path, p3p_track_files):
    # Doubling the endpoints through σ = -λ gives back the whole fiber.
    sf, tf, z0, starts, _ = p3p_track_files
    classes = SolutionRegistry(deck_map=np.negative)
    for x in starts:
        classes.register(x)
    reps = classes.vectors()
    assert len(reps) == 4
    sf.write_text(json.dumps(encode_solutions(z0, reps, [0.0] * len(reps))))
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "track", "p3p", str(sf), str(tf), "--out", str(out_path), "--seed", "9")
    assert code == 0
    assert out.startswith("tracked: 4/4\nsolutions: 8\n")
    z1, sols, _ = decode_solutions(out_path.read_text())
    assert all(residual(p3p_system(), z1, x) <= 1e-8 for x in sols)


def test_track_skips_invalid_start(capsys, tmp_path, p3p_track_files):
    sf, tf, z0, starts, res = p3p_track_files
    corrupted = starts + [np.array([9.0, 9.0, 9.0])]
    sf.write_text(json.dumps(encode_solutions(z0, corrupted, res + [1.0])))
    code, out, _ = run_cli(capsys, "track", "p3p", str(sf), str(tf), "--seed", "9")
    assert code == 1
    assert "tracked: 8/9" in out
    assert "solutions: 8" in out


@pytest.mark.parametrize("threads", [1, 2])
def test_track_fivepoint_golden(tmp_path, threads):
    # Captured while the CLI doubled five-point endpoints through a special
    # case for that problem name; doubling through the problem's declared
    # deck map must not move a bit, and neither may the BLAS thread count.
    for name, seed in (("start.json", "1"), ("target.json", "2")):
        out = run_cli_blas_threads(threads, "fabricate", "fivepoint", "--seed", seed)
        (tmp_path / name).write_text(out[:out.rindex("residual:")])
    out_path = tmp_path / "out.json"
    out = run_cli_blas_threads(threads, "track", "fivepoint", str(tmp_path / "start.json"),
                               str(tmp_path / "target.json"), "--seed", "9", "--out", str(out_path))
    assert out.startswith("tracked: 1/1\nsolutions: 2\n")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "57b2f55389951ea1bce4aae36fdad3e3c803f25e2e2300fb30b6cc74944a60b0"
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == \
        "d10cddd579ef951b4fb59dbdf7f745a517ed842550922a4873d96c0f6a5caee4"


def test_track_deck_pair_in_start_file_is_not_duplicated(capsys, tmp_path):
    # x and its twisted pair both track, and doubling each through the deck
    # map gives the other again: two solutions, not four.
    rng = np.random.default_rng(1)
    inst, sol = fivepoint_fabricate(rng)
    target, _ = fivepoint_fabricate(rng)
    pair = [sol.as_vector(), twisted_pair(sol).as_vector()]
    sf, tf = tmp_path / "start.json", tmp_path / "target.json"
    sf.write_text(json.dumps(encode_solutions(inst.as_params(), pair, [0.0, 0.0])))
    tf.write_text(json.dumps(encode_solutions(target.as_params(), [], [])))
    code, out, _ = run_cli(capsys, "track", "fivepoint", str(sf), str(tf), "--seed", "9")
    assert code == 0
    assert out.startswith("tracked: 2/2\nsolutions: 2\n")


def test_track_start_rejected_by_tracker_is_a_failed_start(capsys, tmp_path):
    # Residual 1e-5: under the old relative screen, 1e-6 * (1 + 1000), but
    # over track's absolute 1e-6, which raised a ValueError traceback.
    src = tmp_path / "sqrt.txt"
    src.write_text("params a; unknowns x; eqs x^2 - a;")
    sf, tf = tmp_path / "start.json", tmp_path / "target.json"
    sf.write_text(json.dumps(encode_solutions(np.array([1e6 - 1e-5]), [np.array([1000.0])], [1e-5])))
    tf.write_text(json.dumps(encode_solutions(np.array([2e6]), [], [])))
    code, out, _ = run_cli(capsys, "track", str(src), str(sf), str(tf))
    assert code == 1
    assert out.startswith("tracked: 0/1\nsolutions: 0\n")


def test_track_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "track", "p3p", str(tmp_path / "no.json"), str(tmp_path / "no2.json"))
    assert code == 2
    assert "cannot read" in err


def test_track_unknown_system(capsys):
    code, _, err = run_cli(capsys, "track", "nosuch", "a.json", "b.json")
    assert code == 2
    assert "unknown problem or missing file" in err


# ------------------------------------------------------------
# group
# ------------------------------------------------------------


S3_SCRIPT = "p0:= PermList([2, 1, 3]);\np1:= PermList([2, 3, 1]);\nG:=Group(p0,p1);\n"


def test_group_full_report(capsys, tmp_path):
    script = tmp_path / "s3.txt"
    script.write_text(S3_SCRIPT)
    code, out, _ = run_cli(capsys, "group", str(script))
    assert code == 0
    assert "order: 6" in out
    assert "blocks: none" in out
    assert "even: false" in out
    assert "galois width: 3" in out


def test_group_single_flag(capsys, tmp_path):
    script = tmp_path / "s3.txt"
    script.write_text(S3_SCRIPT)
    code, out, _ = run_cli(capsys, "group", str(script), "--order")
    assert code == 0
    assert out == "order: 6\n"


def test_group_blocks_listing(capsys, tmp_path):
    # C4 = <(1 2 3 4)> has the antipodal pairing {1,3}, {2,4}.
    script = tmp_path / "c4.txt"
    script.write_text("p0:= PermList([2, 3, 4, 1]);\nG:=Group(p0);\n")
    code, out, _ = run_cli(capsys, "group", str(script), "--blocks")
    assert code == 0
    assert json.loads(out.split("blocks: ")[1]) == [[1, 3], [2, 4]]


def test_group_unsupported_width(capsys, tmp_path):
    # PSL(2,5) acting on 6 points: primitive, non-solvable, not Sym or Alt.
    script = tmp_path / "psl25.txt"
    script.write_text("p0:= PermList([2, 3, 4, 5, 1, 6]);\np1:= PermList([6, 5, 3, 4, 2, 1]);\nG:=Group(p0,p1);\n")
    code, out, _ = run_cli(capsys, "group", str(script))
    assert code == 5
    assert "order: 60" in out
    assert "galois width: unsupported (order 60, degree 6)" in out


def test_group_mixed_degrees(capsys, tmp_path):
    script = tmp_path / "mixed.txt"
    script.write_text("p0:= PermList([2, 1]);\np1:= PermList([2, 3, 1]);\n")
    code, _, err = run_cli(capsys, "group", str(script))
    assert code == 2
    assert "mixed permutation degrees" in err


def test_group_empty_script(capsys, tmp_path):
    script = tmp_path / "empty.txt"
    script.write_text("\n")
    code, _, err = run_cli(capsys, "group", str(script))
    assert code == 2
    assert "no permutations" in err


def test_group_generators_are_the_group_line_names(capsys, tmp_path):
    # p0 alone generates a group of order 2; S3_SCRIPT's two PermLists, order 6.
    script = tmp_path / "named.txt"
    script.write_text(S3_SCRIPT.replace("Group(p0,p1)", "Group(p0)"))
    code, out, _ = run_cli(capsys, "group", str(script), "--order")
    assert code == 0
    assert out == "order: 2\n"


def test_group_without_group_line_uses_every_permlist(capsys, tmp_path):
    script = tmp_path / "nogroup.txt"
    script.write_text(S3_SCRIPT.replace("G:=Group(p0,p1);\n", ""))
    code, out, _ = run_cli(capsys, "group", str(script), "--order")
    assert code == 0
    assert out == "order: 6\n"


def test_group_line_naming_undefined_permutation_exits_2(capsys, tmp_path):
    script = tmp_path / "undefined.txt"
    script.write_text(S3_SCRIPT.replace("Group(p0,p1)", "Group(p0, p9)"))
    code, out, err = run_cli(capsys, "group", str(script))
    assert code == 2
    assert out == ""
    assert "cannot parse" in err and "'p9'" in err


def test_group_unreadable_script(capsys, tmp_path):
    code, _, err = run_cli(capsys, "group", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "cannot parse" in err


# Four perm scripts in the shapes of the benchmark's `groups` workload:
# random even elements of C2 wr S10 (five-point) and C2 wr S4 (P3P) with
# relabelled points, two of them generating proper subgroups (order 1843200,
# and an intransitive order 48). The recorded stdout pins every line the
# group analysis prints, whatever chain or recursion order computes it.
DATA = Path(__file__).resolve().parent / "data"
GROUP_GOLDEN = json.loads((DATA / "group_stdout.json").read_text())


@pytest.mark.parametrize("flag", ["", "--order", "--blocks", "--even", "--width"])
@pytest.mark.parametrize("script", sorted(GROUP_GOLDEN))
def test_group_stdout_matches_golden(capsys, script, flag):
    code, out, _ = run_cli(capsys, "group", str(DATA / script), *([flag] if flag else []))
    assert code == 0
    assert out == GROUP_GOLDEN[script][flag]


# ------------------------------------------------------------
# ransac-trials
# ------------------------------------------------------------


def test_ransac_trials_single(capsys):
    code, out, _ = run_cli(capsys, "ransac-trials", "--n", "10", "--k", "3",
                           "--p-inlier", "0.5", "--s", "0.95")
    assert code == 0
    assert out == "35\n"


def test_ransac_trials_tiny_success_probability(capsys):
    # P = C(100, 6) / C(100000, 6) ~ 8.6e-19, so 1 - P rounds to 1: the
    # count used to divide by log(1 - P) = 0 and print a traceback.
    code, out, _ = run_cli(capsys, "ransac-trials", "--n", "100000", "--k", "6",
                           "--p-inlier", "0.001", "--s", "0.99")
    assert code == 0
    assert out == f"{ransac_trials(100000, 6, 0.001, 0.99)}\n"


def test_ransac_trials_table(capsys):
    code, out, _ = run_cli(capsys, "ransac-trials", "--table", "8", "12",
                           "--p-inlier", "0.5", "--s", "0.95")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k=3,k=4,k=5,k=6"
    assert len(lines) == 6
    row8 = lines[1].split(",")
    # floor(0.5 * 8) = 4: k in {5, 6} has no inlier sample, cells stay empty.
    assert row8[0] == "8"
    assert row8[1] and row8[2]
    assert row8[3] == "" and row8[4] == ""
    row12 = lines[5].split(",")
    assert all(row12[1:])
    trials = [int(v) for v in row12[1:]]
    assert trials == sorted(trials)


def test_ransac_trials_table_out_file(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "ransac-trials", "--table", "10", "11",
                           "--p-inlier", "0.5", "--s", "0.95", "--out", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.splitlines()[0] == "n,k=3,k=4,k=5,k=6"


def test_ransac_trials_requires_n_and_k(capsys):
    code, _, err = run_cli(capsys, "ransac-trials", "--p-inlier", "0.5", "--s", "0.95")
    assert code == 2
    assert "--n and --k" in err


def test_ransac_trials_bad_confidence(capsys):
    code, _, err = run_cli(capsys, "ransac-trials", "--n", "10", "--k", "3",
                           "--p-inlier", "0.5", "--s", "1.0")
    assert code == 2
    assert "confidence" in err


def test_ransac_trials_bad_table_range(capsys):
    code, _, err = run_cli(capsys, "ransac-trials", "--table", "5", "3",
                           "--p-inlier", "0.5", "--s", "0.95")
    assert code == 2
    assert "bad table range" in err


# ------------------------------------------------------------
# input checks shared by monodromy and track; written residuals
# ------------------------------------------------------------


@pytest.mark.parametrize("flag, value, bound", [
    pytest.param("--stabilization", "-1", ">= 0", id="--stabilization"),
    pytest.param("--target-count", "0", ">= 1", id="--target-count"),
])
def test_monodromy_invalid_run_option_exits_2(capsys, flag, value, bound):
    code, out, err = run_cli(capsys, "monodromy", "p3p", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"must be {bound}" in err


def test_track_mis_shaped_start_solution_exits_2(capsys, tmp_path, p3p_track_files):
    sf, tf, z0, starts, res = p3p_track_files
    sf.write_text(json.dumps(encode_solutions(z0, [starts[0][:2]], [0.0])))
    code, out, err = run_cli(capsys, "track", "p3p", str(sf), str(tf))
    assert code == 2
    assert out == ""
    assert err.startswith("error: start solutions do not fit the system")


def test_track_mis_shaped_target_exits_2(capsys, tmp_path, p3p_track_files):
    sf, tf, _, _, _ = p3p_track_files
    tf.write_text(json.dumps(encode_solutions(np.ones(5), [], [])))
    code, _, err = run_cli(capsys, "track", "p3p", str(sf), str(tf))
    assert code == 2
    assert err.startswith("error: target solutions do not fit the system")


def test_monodromy_mis_shaped_start_exits_2(capsys, tmp_path):
    src, _ = write_cubic(tmp_path)
    start = tmp_path / "bad.json"
    start.write_text(json.dumps(encode_solutions(np.array([0.0, -8.0]), [np.array([2.0, 1.0])], [0.0])))
    code, _, err = run_cli(capsys, "monodromy", src, "--start", str(start))
    assert code == 2
    assert err.startswith("error: start solutions do not fit the system")


def test_track_shares_the_file_loader(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("params z; unknowns x; eqs x^ - z;")
    code, _, err = run_cli(capsys, "track", str(bad), "a.json", "b.json")
    assert code == 2
    assert "cannot parse" in err


def test_monodromy_residuals_are_measured_on_the_original_system(capsys, tmp_path):
    # Two equations in one unknown: monodromy squares the system up, but the
    # written residuals refer to the equations as given.
    src = tmp_path / "over.txt"
    src.write_text("params a; unknowns x; eqs x^2 - a; x^3 - a*x;")
    start = tmp_path / "start.json"
    start.write_text(json.dumps(encode_solutions(np.array([4.0]), [np.array([2.0])], [0.0])))
    sols_path = tmp_path / "sols.json"
    code, out, _ = run_cli(capsys, "monodromy", str(src), "--start", str(start), "--seed", "1",
                           "--out-solutions", str(sols_path))
    assert code == 0
    assert "solutions: 2" in out
    original = cli.parse_system(src.read_text())
    z, sols, res = decode_solutions(sols_path.read_text())
    assert res == [residual(original, z, x) for x in sols]


# ------------------------------------------------------------
# parser: --seed where randomness is drawn, --verbose where it is read
# ------------------------------------------------------------


COMMAND_ARGS = {
    "fabricate": ["p3p"],
    "monodromy": ["p3p"],
    "track": ["p3p", "a.json", "b.json"],
    "group": ["x.g"],
    "ransac-trials": ["--p-inlier", "0.5", "--s", "0.9"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("flag, takers", [(["--seed", "3"], {"fabricate", "monodromy", "track"}),
                                          (["--verbose"], {"monodromy"})])
def test_seed_and_verbose_only_on_the_commands_that_read_them(capsys, command, flag, takers):
    argv = [command, *COMMAND_ARGS[command], *flag]
    if command in takers:
        cli._parser().parse_args(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
