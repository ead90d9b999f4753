"""Workload inputs, the in-process CLI call, and the correctness checks.

Every input is drawn from the workload seed, so one seed always gives the
same instances. The program only ever sees the generated inputs: CLI
arguments for the two tracking workloads, perm-script files for `groups`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("fivepoint", "p3p", "groups")

FIVEPOINT_ORDER = 2**9 * math.factorial(10)
P3P_ORDER = 192

# (name, cells of two points, generator count range, order, Galois width)
# for the two group shapes of the `groups` workload: the even part of
# C2 wr S10 (the five-point group) and of C2 wr S4 (the P3P group).
GROUP_SHAPES = (
    ("fivepoint", 10, (170, 187), FIVEPOINT_ORDER, 10),
    ("p3p", 4, (90, 101), P3P_ORDER, 3),
)


@dataclass
class Outcome:
    """One CLI invocation: exit code, wall time and the `key: value` lines
    of its stdout."""

    code: int
    seconds: float
    fields: dict[str, str]


@dataclass
class Instance:
    """One timed unit of a workload: one or more CLI invocations."""

    label: str
    runs: list[tuple[list[str], dict]]  # (argv, expectation) per invocation


def run_cli(cli, argv: list[str]) -> Outcome:
    """Runs `monogal <argv>` in this process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    fields = {}
    for line in out.getvalue().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return Outcome(int(code), seconds, fields)


# ------------------------------------------------------------
# Inputs
# ------------------------------------------------------------


def _instance_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _wreath_element(rng: np.random.Generator, cells: int) -> list[int]:
    """A uniform element of the even part of C2 wr S_cells on 2*cells points.

    Point 2*i + b is side b of cell i; the element permutes the cells by a
    uniform permutation and flips an even number of them.
    """
    sigma = rng.permutation(cells)
    flips = rng.integers(0, 2, cells)
    if flips.sum() % 2:
        flips[int(rng.integers(cells))] ^= 1
    images = [0] * (2 * cells)
    for i in range(cells):
        for b in (0, 1):
            images[2 * i + b] = 2 * int(sigma[i]) + (b ^ int(flips[i]))
    return images


def group_script(rng: np.random.Generator, cells: int, count: int) -> tuple[str, list[list[int]]]:
    """A perm script of `count` random wreath elements with points relabelled.

    Returns the script text and the expected block cells (1-based, sorted).
    """
    d = 2 * cells
    relabel = rng.permutation(d)  # construction point p is script point relabel[p]
    inverse = np.argsort(relabel)
    lines = []
    for k in range(count):
        g = _wreath_element(rng, cells)
        images = [int(relabel[g[int(inverse[q])]]) + 1 for q in range(d)]
        lines.append(f"p{k}:= PermList([{', '.join(map(str, images))}]);")
    lines.append(f"G:=Group({', '.join(f'p{k}' for k in range(count))});")
    pairs = sorted(sorted((int(relabel[2 * i]) + 1, int(relabel[2 * i + 1]) + 1)) for i in range(cells))
    return "\n".join(lines) + "\n", pairs


def instances(workload: str, seed: int, workdir: Path | None = None):
    """Endless stream of the workload's instances, drawn from `seed`.

    The `groups` workload writes its scripts into `workdir`. One `groups`
    instance is a five-point-shaped script followed by a P3P-shaped one:
    the two differ 60-fold in cost, so timing them apart would give a
    two-peaked distribution whose median jumps between the peaks.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    k = 0
    while True:
        if workload == "groups":
            runs = []
            for name, cells, (lo, hi), order, width in GROUP_SHAPES:
                text, pairs = group_script(rng, cells, int(rng.integers(lo, hi)))
                path = workdir / f"{name}-{k}.g"
                path.write_text(text)
                runs.append((["group", str(path)],
                             {"order": order, "pairs": pairs, "width": width}))
            yield Instance(f"scripts {k}", runs)
        else:
            s = _instance_seed(rng)
            argv = ["monodromy", workload, "--seed", str(s), *TRACKED[workload][0]]
            yield Instance(f"seed {s}", [(argv, {})])
        k += 1


# ------------------------------------------------------------
# Correctness
# ------------------------------------------------------------


# Per tracking workload: extra CLI flags, the output every run must print,
# and the output of a run that found the whole monodromy group. The
# five-point problem is solved up to translation classes: its 20 solutions
# pair up into 10 classes, on which the group acts as S10. That tracks
# 230-290 paths where the plain run tracks 500-620, so a run holds enough
# instances for a steady median.
TRACKED = {
    "fivepoint": (["--equivalencer", "translation"], {"classes": "10"},
                  {"order": str(math.factorial(10)), "blocks": "none", "even": "false",
                   "galois width": "10"}),
    "p3p": ([], {"solutions": "8", "even": "true"},
            {"order": str(P3P_ORDER), "blocks": "4 x 2", "galois width": "3"}),
}


def check(workload: str, outcome: Outcome, expect: dict) -> tuple[list[str], bool]:
    """(reasons the output is wrong, whether it reports the full group).

    Monodromy stops on a heuristic rule, so a run can end with a proper
    subgroup of the monodromy group (about 1 P3P instance in 30 finds order
    64, not 192). That is an incomplete result, counted by the full-group
    fraction; its block system and width are those of the subgroup, so they
    are checked only when the order is the full one. On `groups` the
    generators are given, so every field is exact and always checked.
    """
    f = outcome.fields
    problems = [] if outcome.code == 0 else [f"exit {outcome.code}"]
    if workload == "groups":
        full = f.get("order") == str(expect["order"])
        wanted = {"order": str(expect["order"]), "even": "true",
                  "galois width": str(expect["width"])}
        try:
            cells = sorted(sorted(c) for c in json.loads(f.get("blocks", "null")))
        except (TypeError, ValueError):
            cells = None
        if cells != expect["pairs"]:
            problems.append(f"blocks {f.get('blocks')!r}")
    else:
        _, wanted, whole = TRACKED[workload]
        full = f.get("order") == whole["order"]
        if full:
            wanted = {**wanted, **whole}
    for key, value in wanted.items():
        if f.get(key) != value:
            problems.append(f"{key} {f.get(key)!r}, expected {value!r}")
    return problems, full


def counts(outcome: Outcome) -> dict[str, int]:
    """The path counters the monodromy command prints (0 when absent)."""
    return {key: int(outcome.fields.get(key, "0")) for key in ("paths", "failures")}


# ------------------------------------------------------------
# Set-up
# ------------------------------------------------------------


def prepare(workload: str, seed: int) -> None:
    """The cold work a CLI invocation does before its first path.

    Imports the CLI; for the tracking workloads also builds the system,
    fabricates a seed instance, squares the system up when it is
    overdetermined, and compiles the evaluators (a zero-step refine).
    """
    from monogal import cli
    from monogal.slp import square_up
    from monogal.tracker import refine

    problem = cli.PROBLEMS.get(workload)
    if problem is None:
        return
    rng = np.random.default_rng(seed)
    sysm = problem.build_system()
    z0, x0 = problem.fabricate(rng)
    if sysm.num_outputs > sysm.num_unknowns:
        sysm = square_up(sysm, z0, x0, rng)
    refine(sysm, z0, x0, iters=0)
