from __future__ import annotations

import json

import numpy as np
import pytest

from monogal import cli
from monogal.cli import main
from monogal.groups import parse_perm_script
from monogal.monodromy import TrackFailureRate, decode_solutions, encode_solutions
from monogal.problems import p3p_conic_solve, p3p_fabricate, p3p_system
from monogal.slp import residual


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, out, _ = run_cli(capsys, "monodromy", "p3p", "--seed", "1")
    assert code == 0
    assert out == (
        "solutions: 8\n"
        "loops: 60\n"
        "paths: 232\n"
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


def test_monodromy_unknown_equivalencer(capsys):
    code, _, err = run_cli(capsys, "monodromy", "p3p", "--equivalencer", "nosuch")
    assert code == 2
    assert "unknown equivalencer" in err


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


def test_track_skips_invalid_start(capsys, tmp_path, p3p_track_files):
    sf, tf, z0, starts, res = p3p_track_files
    corrupted = starts + [np.array([9.0, 9.0, 9.0])]
    sf.write_text(json.dumps(encode_solutions(z0, corrupted, res + [1.0])))
    code, out, _ = run_cli(capsys, "track", "p3p", str(sf), str(tf), "--seed", "9")
    assert code == 1
    assert "tracked: 8/9" in out
    assert "solutions: 8" in out


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


def test_group_unreadable_script(capsys, tmp_path):
    code, _, err = run_cli(capsys, "group", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "cannot parse" in err


# ------------------------------------------------------------
# ransac-trials
# ------------------------------------------------------------


def test_ransac_trials_single(capsys):
    code, out, _ = run_cli(capsys, "ransac-trials", "--n", "10", "--k", "3",
                           "--p-inlier", "0.5", "--s", "0.95")
    assert code == 0
    assert out == "35\n"


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


@pytest.mark.parametrize("flag", ["--stabilization", "--target-count"])
def test_monodromy_invalid_run_option_exits_2(capsys, flag):
    code, out, err = run_cli(capsys, "monodromy", "p3p", flag, "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be >= 1" in err


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
