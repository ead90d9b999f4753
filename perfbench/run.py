"""monogal benchmark: one workload per invocation, closed loop, one process.

    python3 perfbench/run.py --workload fivepoint --seed 1 --seconds 36 --trace 0

Runs CLI invocations in this process, one after another, for about
`--seconds` of instance time, then prints a report and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"} with the
metrics BENCHMARK.json names.

`--trace 0` reports the end-to-end metrics, measured untraced. `--trace 1`
reports the per-layer metrics: it traces a cold set-up, then runs a list of
instances untraced and the same list traced twice, and fails if the
deterministic counts of the two traced passes differ.

`--workload all` runs every workload in turn, each in its own process.

Exit status: 0 when every output is correct, 1 when some output is wrong,
2 when there are no monogal sources to run.
"""

from __future__ import annotations

import os

# One BLAS thread: the program's matrices are tiny, and extra threads only
# add scheduling noise on a shared machine. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import HostSpeed
from workloads import WORKLOADS, check, counts, instances, prepare, run_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5


def _import_program():
    """Imports monogal from this checkout's sources, never from elsewhere."""
    if not (SRC / "monogal" / "cli.py").is_file():
        print(f"error: no monogal sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import monogal.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "monogal":
        print(f"error: imported monogal from {cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": os.getloadavg(),
    }


def setup_time(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter doing only the workload's set-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which would quantize the measured time.
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


class Loop:
    """Runs instances, checks their outputs and keeps the tallies."""

    def __init__(self, cli, workload: str):
        self.cli, self.workload = cli, workload
        self.invocations = 0
        self.exit_failures = 0
        self.full_groups = 0
        self.paths = 0
        self.path_failures = 0
        self.wrong: list[str] = []
        self.orders: dict[str, int] = {}

    def run(self, inst) -> float:
        """Runs one instance; returns its wall time (sum over its invocations)."""
        seconds = 0.0
        for argv, expect in inst.runs:
            out = run_cli(self.cli, argv)
            seconds += out.seconds
            self.invocations += 1
            self.exit_failures += out.code != 0
            c = counts(out)
            self.paths += c["paths"]
            self.path_failures += c["failures"]
            order = out.fields.get("order", "?")
            self.orders[order] = self.orders.get(order, 0) + 1
            problems, full = check(self.workload, out, expect)
            self.full_groups += full
            if problems:
                self.wrong.append(f"{inst.label} ({' '.join(argv[:2])}): {'; '.join(problems)}")
        return seconds

    def run_for(self, stream, budget: float, between=None) -> tuple[list, list[float], float]:
        """Runs instances until the loop time is nearest to budget.

        It stops when less than half a median instance is left, so a
        workload of long instances (a five-point run takes 12-24 s) neither
        loses its last instance nor overshoots by a whole one. At least one
        instance runs. `between(elapsed)` is called before each instance;
        its time is not charged to the budget. Returns (instances, their
        times, elapsed loop time)."""
        done, times = [], []
        elapsed = 0.0
        while True:
            if between is not None:
                between(elapsed)
            t0 = time.perf_counter()
            inst = next(stream)
            times.append(self.run(inst))
            done.append(inst)
            elapsed += time.perf_counter() - t0
            if elapsed + statistics.median(times) / 2 > budget:
                return done, times, elapsed


def _as_metrics(values: dict, kind: str) -> dict:
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in SPEC[kind]}


def measure(cli, workload: str, seed: int, seconds: float, workdir: Path) -> tuple[Loop, dict]:
    host = HostSpeed()
    setups: list[float] = []

    def between(elapsed: float) -> None:
        host.keep_up(elapsed)
        # Spread the set-up probes over the run too, so they see the same
        # machine as the instances do rather than one moment of it.
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_time(workload, seed + len(setups)))

    prepare(workload, seed)  # warm this process the way set-up warms a CLI run
    loop = Loop(cli, workload)
    _, times, elapsed = loop.run_for(instances(workload, seed, workdir), seconds, between)
    host.keep_up(elapsed)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(workload, seed + len(setups)))
    raw = {
        "instance_s": statistics.median(times),
        "instances_per_s": len(times) / elapsed,
        "setup_s": statistics.median(setups),
    }
    k = host.factor()
    print(f"instances: {len(times)}, instance_s max {max(times):.6g}, setup_s runs "
          f"{[round(s, 4) for s in setups]}, reference samples {len(host.samples)}")
    print(f"host speed factor: {k:.6g}; uncorrected: " + ", ".join(f"{n} {v:.6g}" for n, v in raw.items()))
    values = {
        "instance_s": raw["instance_s"] * k,
        "instances_per_s": raw["instances_per_s"] / k,
        "setup_s": raw["setup_s"] * k,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "full_group_frac": loop.full_groups / loop.invocations,
    }
    return loop, _as_metrics(values, "end_to_end")


def measure_traced(cli, workload: str, seed: int, seconds: float, workdir: Path) -> tuple[Loop, dict]:
    from layers import DETERMINISTIC, Tracer, deterministic_counts, layer_metrics

    t_start = time.perf_counter()
    tracer = Tracer()
    with tracer:
        prepare(workload, seed)
    setup_snap = tracer.snapshot()
    loop = Loop(cli, workload)
    budget = (seconds - (time.perf_counter() - t_start)) / 3.0
    insts, untraced, _ = loop.run_for(instances(workload, seed, workdir), budget)

    passes = []
    for _ in range(2):
        snaps, times = [], []
        with tracer:
            for inst in insts:
                times.append(loop.run(inst))
                snaps.append(tracer.snapshot())
        passes.append((snaps, times))

    for inst, a, b in zip(insts, passes[0][0], passes[1][0]):
        ca, cb = deterministic_counts(a), deterministic_counts(b)
        if ca != cb:
            loop.wrong.append(f"{inst.label}: traced counts differ between passes: "
                              f"{dict(zip(DETERMINISTIC, ca))} vs {dict(zip(DETERMINISTIC, cb))}")

    values = layer_metrics(passes[0][0] + passes[1][0])
    # Code generation runs once per system and process, so it is read off the
    # traced cold set-up, where a CLI invocation pays it.
    values["compile.build_s"] = layer_metrics([setup_snap])["compile.build_s"]
    values["trace.overhead_frac"] = sum(passes[0][1]) / sum(untraced) - 1.0
    print(f"instances: {len(insts)} untraced, then the same {len(insts)} traced twice")
    if tracer.missing:
        print(f"not traced, absent from the program: {', '.join(tracer.missing)}")
    return loop, _as_metrics(values, "per_layer")


def run_all(args) -> int:
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="monogal benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cli = _import_program()
    print(f"machine: {json.dumps(machine())}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        measure_fn = measure_traced if args.trace else measure
        loop, metrics = measure_fn(cli, args.workload, args.seed, args.seconds, Path(tmp))

    w = args.workload
    for name, m in metrics.items():
        print(f"{w} {name}: {m['value']:.6g} {m['unit']}")
    if w == "groups":
        fail_frac = loop.exit_failures / loop.invocations
    else:
        fail_frac = loop.path_failures / max(loop.paths, 1)
    print(f"{w} fail_frac: {fail_frac:.6g} ratio ({loop.path_failures} of {loop.paths} paths, "
          f"{loop.exit_failures} of {loop.invocations} exits non-zero)")
    print(f"{w} wrong_frac: {len(loop.wrong) / loop.invocations:.6g} ratio "
          f"({len(loop.wrong)} of {loop.invocations})")
    print(f"orders: {json.dumps(loop.orders)}")
    for line in loop.wrong:
        print(f"wrong: {line}")
    correct = not loop.wrong
    print(json.dumps({"correct": correct, "attempted": loop.invocations,
                      "failed": loop.exit_failures, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
