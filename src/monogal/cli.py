"""Command-line interface.

Commands: fabricate, monodromy, track, group, ransac-trials. The commands
that draw random numbers (fabricate, monodromy, track) take --seed, and all
their randomness flows from one generator seeded by it, so identical seeds
and flags reproduce identical bytes on stdout and in written files, at any
BLAS thread count for systems of up to 96 unknowns (see monogal.linalg).
`monodromy --equivalencer NAME` reports the same run on the orbits of the
problem's deck map; NAME must be the problem's `classes` (translation, sign).

Exit codes: 0 success (monodromy too, when it prints failures), 1 a failed
start or path in track or a fabricate residual above 1e-8, 2 bad input
(unknown problem, parse error, unreadable or mis-shaped solutions JSON,
invalid option or probability), 3 rank failure, 4 tracking collapse (most
paths of one loop failed), 5 unsupported group (analysis output written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import groups as groupmod
from .monodromy import (
    MonodromyResult,
    RunOptions,
    SolutionRegistry,
    TrackFailureRate,
    _deck_pairs,
    build_graph,
    decode_solutions,
    encode_solutions,
    export_perm_script,
    run,
)
from .problems import PROBLEMS, InvalidProbability, NoInlierSample, ransac_trials
from .slp import GateSystem, ParseError, RankDeficient, parse_system, residual, square_up
from .tracker import PathSegment, refine, track

EXIT_OK = 0
EXIT_PATH_FAILURES = 1
EXIT_BAD_INPUT = 2
EXIT_RANK = 3
EXIT_TRACKING = 4
EXIT_GROUP = 5


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        Path(path).write_text(text)


def _residuals(sysm: GateSystem, z: np.ndarray, sols) -> list[float]:
    return [residual(sysm, z, np.asarray(x)) for x in sols]


# ------------------------------------------------------------
# fabricate
# ------------------------------------------------------------


def cmd_fabricate(args) -> int:
    problem = PROBLEMS.get(args.problem)
    if problem is None:
        _err(f"unknown problem {args.problem!r}")
        return EXIT_BAD_INPUT
    rng = np.random.default_rng(args.seed)
    z, x = problem.fabricate(rng)
    sysm = problem.build_system()
    res = residual(sysm, z, x)
    print(json.dumps(encode_solutions(z, [x], [res]), indent=2))
    print(f"residual: {res:.15e}")
    return EXIT_OK if res <= 1e-8 else EXIT_PATH_FAILURES


# ------------------------------------------------------------
# monodromy
# ------------------------------------------------------------


def _load_system(name: str):
    """Returns (system, problem-or-None) for a built-in problem or a system
    source file, or an exit code."""
    problem = PROBLEMS.get(name)
    if problem is not None:
        return problem.build_system(), problem
    path = Path(name)
    if not path.is_file():
        _err(f"unknown problem or missing file {name!r}")
        return EXIT_BAD_INPUT
    try:
        return parse_system(path.read_text()), None
    except ParseError as exc:
        _err(f"cannot parse {name}: {exc}")
        return EXIT_BAD_INPUT


def _read_solutions(path: str, sysm: GateSystem, what: str):
    """Returns (parameters, solutions) from a solutions JSON whose vectors
    fit sysm, or an exit code."""
    try:
        z, sols, _ = decode_solutions(Path(path).read_text())
    except (OSError, KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        _err(f"cannot read {what}: {exc}")
        return EXIT_BAD_INPUT
    if z.shape != (sysm.num_parameters,) or any(x.shape != (sysm.num_unknowns,) for x in sols):
        _err(f"{what} do not fit the system: it has {sysm.num_parameters} parameters "
             f"and {sysm.num_unknowns} unknowns")
        return EXIT_BAD_INPUT
    return z, sols


def _load_system_and_seed(args, rng):
    """Returns (system, z0, x0, problem-or-None) or an exit code."""
    loaded = _load_system(args.system)
    if isinstance(loaded, int):
        return loaded
    sysm, problem = loaded
    if problem is not None:
        z0, x0 = problem.fabricate(rng)
        return sysm, z0, x0, problem
    if getattr(args, "start", None) is None:
        _err("file-based systems require --start with a solutions JSON")
        return EXIT_BAD_INPUT
    read = _read_solutions(args.start, sysm, "start solutions")
    if isinstance(read, int):
        return read
    z0, sols = read
    if not sols:
        _err("start solutions JSON contains no solutions")
        return EXIT_BAD_INPUT
    return sysm, z0, sols[0], None


def cmd_monodromy(args) -> int:
    try:
        opts = RunOptions(stabilization_limit=args.stabilization, target_count=args.target_count)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT
    rng = np.random.default_rng(args.seed)
    loaded = _load_system_and_seed(args, rng)
    if isinstance(loaded, int):
        return loaded
    sysm, z0, x0, problem = loaded

    classes = args.equivalencer is not None
    if classes and (problem is None or args.equivalencer != problem.classes):
        _err(f"unknown equivalencer {args.equivalencer!r}")
        return EXIT_BAD_INPUT
    deck_map = None if problem is None else problem.deck_map

    original = sysm
    try:
        if sysm.num_outputs > sysm.num_unknowns:
            sysm = square_up(sysm, z0, x0, rng)
        graph = build_graph(sysm, z0, x0, args.nodes, rng, deck_map=deck_map)
    except RankDeficient as exc:
        _err(f"rank failure: {exc}")
        return EXIT_RANK
    except ValueError as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT
    if args.verbose:
        print(f"nodes: {len(graph.nodes)}")
        print(f"edges: {len(graph.edges)}")

    try:
        result = run(graph, opts)
    except TrackFailureRate as exc:
        _err(f"tracking collapse: {exc}")
        return EXIT_TRACKING

    solutions, perms = result.solutions, result.permutations
    if classes:
        # The view on σ-orbits: representative c is full id 2c.
        solutions = solutions[::2]
        perms = [groupmod.Permutation([g(2 * c) // 2 for c in range(len(solutions))]) for g in perms]
    print(f"{'classes' if classes else 'solutions'}: {len(solutions)}")
    print(f"loops: {result.loops_run}")
    print(f"paths: {result.paths_tracked}")
    print(f"failures: {result.failures}")
    print(f"stopped: {result.stopped_by.value}")

    if args.out_solutions is not None:
        doc = encode_solutions(z0, solutions, _residuals(original, z0, solutions))
        Path(args.out_solutions).write_text(json.dumps(doc, indent=2) + "\n")
    if args.out_group is not None:
        # A run that closed no cycle still writes a readable script: the
        # identity generates its trivial group.
        script = perms or [groupmod.Permutation.identity(len(solutions))]
        Path(args.out_group).write_text(export_perm_script(script) + "\n")

    return _report_group(groupmod.PermGroup(len(solutions), perms), summary_blocks=True)


def _report_group(G: groupmod.PermGroup, summary_blocks: bool,
                  show=("order", "blocks", "even", "width")) -> int:
    if "order" in show:
        print(f"order: {G.order()}")
    if "blocks" in show:
        try:
            blocks = groupmod.minimal_nontrivial_blocks(G)
        except groupmod.NotTransitive:
            print("blocks: not transitive")
        else:
            if blocks is None:
                print("blocks: none")
            elif summary_blocks:
                print(f"blocks: {blocks.num_cells} x {blocks.block_size}")
            else:
                cells = [[p + 1 for p in cell] for cell in blocks.cells]
                print(f"blocks: {json.dumps(cells)}")
    if "even" in show:
        print(f"even: {'true' if groupmod.is_even_subgroup(G) else 'false'}")
    if "width" in show:
        try:
            print(f"galois width: {groupmod.galois_width(G)}")
        except groupmod.UnsupportedGroup as exc:
            print(f"galois width: unsupported (order {exc.order}, degree {exc.degree})")
            return EXIT_GROUP
    return EXIT_OK


# ------------------------------------------------------------
# track
# ------------------------------------------------------------


def cmd_track(args) -> int:
    rng = np.random.default_rng(args.seed)
    loaded = _load_system(args.system)
    if isinstance(loaded, int):
        return loaded
    sysm, problem = loaded
    read = _read_solutions(args.starts, sysm, "start solutions")
    if isinstance(read, int):
        return read
    z_start, starts = read
    read = _read_solutions(args.target, sysm, "target solutions")
    if isinstance(read, int):
        return read
    z_target = read[0]
    if not starts:
        _err("no start solutions given")
        return EXIT_BAD_INPUT

    full = sysm
    if sysm.num_outputs > sysm.num_unknowns:
        # Square up at the first start that solves the full system to
        # track's bar (absolute residual 1e-6); track itself checks each
        # start against the squared-up system.
        x_square = next((x for x in starts if residual(sysm, z_start, x) <= 1e-6), None)
        if x_square is None:
            _err("no start solution satisfies the system; cannot square up")
            return EXIT_PATH_FAILURES
        try:
            sysm = square_up(sysm, z_start, x_square, rng)
        except RankDeficient as exc:
            _err(f"rank failure: {exc}")
            return EXIT_RANK

    g0, g1 = np.exp(2j * np.pi * rng.random(2))
    seg = PathSegment(z_start, z_target, complex(g0), complex(g1))
    endpoints = []
    failures = 0
    for x in starts:
        try:
            result = track(sysm, seg, x)
        except ValueError:
            # Not a solution at the segment start: a failed start.
            failures += 1
            continue
        if result.success:
            endpoints.append(result.endpoint)
        else:
            failures += 1

    if problem is not None and problem.deck_map is not None:
        # One endpoint per σ-orbit, so a start file holding a deck pair does
        # not yield it twice, each followed by its σ-image; both are polished
        # against the full system, which the squared-up one leaves them short of.
        orbits = SolutionRegistry(problem.deck_map)
        for x in endpoints:
            orbits.register(x)
        endpoints = _deck_pairs(full, z_target, problem.deck_map, orbits.vectors())
        endpoints[::2] = [refine(full, z_target, x, iters=3).x for x in endpoints[::2]]

    res_list = _residuals(full, z_target, endpoints)
    print(f"tracked: {len(starts) - failures}/{len(starts)}")
    print(f"solutions: {len(endpoints)}")
    if res_list:
        print(f"max residual: {max(res_list):.15e}")
    doc = encode_solutions(z_target, endpoints, res_list)
    _write_or_print(json.dumps(doc, indent=2) + ("" if args.out is None else "\n"), args.out)
    return EXIT_OK if failures == 0 else EXIT_PATH_FAILURES


# ------------------------------------------------------------
# group
# ------------------------------------------------------------


def cmd_group(args) -> int:
    try:
        perms = groupmod.parse_perm_script(Path(args.script).read_text())
    except (OSError, ValueError) as exc:
        _err(f"cannot parse perm script: {exc}")
        return EXIT_BAD_INPUT
    if not perms:
        _err("perm script defines no permutations")
        return EXIT_BAD_INPUT
    degrees = {p.degree for p in perms}
    if len(degrees) != 1:
        _err(f"mixed permutation degrees: {sorted(degrees)}")
        return EXIT_BAD_INPUT
    G = groupmod.PermGroup(degrees.pop(), perms)
    selected = [name for name, on in (("order", args.order), ("blocks", args.blocks),
                                      ("even", args.even), ("width", args.width)) if on]
    if not selected:
        selected = ["order", "blocks", "even", "width"]
    return _report_group(G, summary_blocks=False, show=tuple(selected))


# ------------------------------------------------------------
# ransac-trials
# ------------------------------------------------------------


def cmd_ransac_trials(args) -> int:
    try:
        if args.table is not None:
            n_min, n_max = args.table
            if n_min < 1 or n_max < n_min:
                _err(f"bad table range [{n_min}, {n_max}]")
                return EXIT_BAD_INPUT
            ks = (3, 4, 5, 6)
            lines = ["n," + ",".join(f"k={k}" for k in ks)]
            for n in range(n_min, n_max + 1):
                cells = []
                for k in ks:
                    try:
                        cells.append(str(ransac_trials(n, k, args.p_inlier, args.s)))
                    except NoInlierSample:
                        cells.append("")
                lines.append(f"{n}," + ",".join(cells))
            _write_or_print("\n".join(lines) + ("\n" if args.out is not None else ""), args.out)
            return EXIT_OK
        if args.n is None or args.k is None:
            _err("--n and --k are required without --table")
            return EXIT_BAD_INPUT
        print(ransac_trials(args.n, args.k, args.p_inlier, args.s))
        return EXIT_OK
    except (InvalidProbability, NoInlierSample, ValueError) as exc:
        _err(str(exc))
        return EXIT_BAD_INPUT


# ------------------------------------------------------------
# parser
# ------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")

    p = argparse.ArgumentParser(prog="monogal", description="Monodromy solving and Galois-group analysis of parametric polynomial systems.")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fabricate", parents=[seeded], help="fabricate a problem-solution pair")
    f.add_argument("problem", help="built-in problem (p3p, fivepoint)")
    f.set_defaults(func=cmd_fabricate)

    m = sub.add_parser("monodromy", parents=[seeded], help="discover the solution set and monodromy group")
    m.add_argument("system", help="built-in problem or system source file")
    m.add_argument("--start", help="solutions JSON seeding a file-based system")
    m.add_argument("--nodes", type=int, default=5, help="graph nodes (default 5)")
    m.add_argument("--stabilization", type=int, default=4,
                   help="stop when nothing is pending and this many fresh random edges "
                        "found no new solution; 0 stops once every solution crossed every "
                        "edge (default 4)")
    m.add_argument("--target-count", type=int, default=None,
                   help="stop at this many solutions, counting both members of each deck pair")
    m.add_argument("--equivalencer", default=None,
                   help="report the run on the deck map's orbits: translation (fivepoint), sign (p3p)")
    m.add_argument("--out-solutions", default=None, help="write solutions JSON here")
    m.add_argument("--out-group", default=None, help="write perm script here")
    m.add_argument("--verbose", action="store_true", help="print the graph's node and edge counts")
    m.set_defaults(func=cmd_monodromy)

    t = sub.add_parser("track", parents=[seeded], help="track start solutions to a target instance")
    t.add_argument("system", help="built-in problem or system source file")
    t.add_argument("starts", help="solutions JSON at the start parameters")
    t.add_argument("target", help="solutions JSON holding the target parameters")
    t.add_argument("--out", default=None, help="write endpoint JSON here")
    t.set_defaults(func=cmd_track)

    g = sub.add_parser("group", help="analyze a perm-script group")
    g.add_argument("script", help="perm-script file")
    g.add_argument("--order", action="store_true")
    g.add_argument("--blocks", action="store_true")
    g.add_argument("--width", action="store_true")
    g.add_argument("--even", action="store_true")
    g.set_defaults(func=cmd_group)

    r = sub.add_parser("ransac-trials", help="RanSaC trial-count formula")
    r.add_argument("--n", type=int, default=None, help="total correspondences")
    r.add_argument("--k", type=int, default=None, help="sample size")
    r.add_argument("--p-inlier", type=float, required=True, help="inlier fraction in (0,1]")
    r.add_argument("--s", type=float, required=True, help="success confidence in (0,1)")
    r.add_argument("--table", nargs=2, type=int, metavar=("N_MIN", "N_MAX"), default=None,
                   help="emit a CSV over n for k in {3,4,5,6}")
    r.add_argument("--out", default=None, help="write the CSV here")
    r.set_defaults(func=cmd_ransac_trials)
    return p


# Built once: construction costs about a millisecond, a sizable share of a
# `group` call.
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
