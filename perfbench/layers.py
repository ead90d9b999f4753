"""Per-layer tracing from outside the program.

The tracer replaces, for the length of a `with` block, the names through
which one monogal module calls the next, at the place where the caller
looks them up: `monogal.cli.run`, `monogal.monodromy.track`,
`monogal.tracker.lu_solve`, the `CompiledSystem` methods, `PermGroup.order`
and so on. Nothing in the program changes, and nothing is traced outside the
block, so untraced timings pay no cost.

Two kinds of wrapper keep the trace bounded:

- a span (cli, problems, monodromy, tracker and groups boundaries) records
  calls, busy time and self time. A call made while a span of the same
  layer is open is not a boundary and passes straight through, so the
  recursive group analysis yields one span per top-level call.
- a leaf (evaluators, linear solve, interpreter residual, code generation)
  adds its call count and time to its own totals and to the covered time of
  the innermost open span. Only the outermost leaf call counts: a squared-up
  `CompiledSystem` delegates to its parent's, which would otherwise count
  every evaluation twice.

Self time of a span is its duration minus the time its child spans and
leaves cover.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

# Counts that must repeat exactly when the same instance is traced twice.
DETERMINISTIC = (
    "monodromy.paths",
    "monodromy.loops",
    "linalg.lu_solve_calls",
    "compile.value_and_jac_calls",
    "groups.gens_kept",
)

FAIL_STATUSES = ("MinStepReached", "MaxStepsReached", "CorrectorDiverged", "SingularEndpoint")

class Tracer:
    """Installs the wrappers; collects one snapshot of totals per instance."""

    def __init__(self):
        import monogal.cli as cli
        import monogal.groups as groups
        import monogal.monodromy as monodromy
        import monogal.problems as problems
        import monogal.tracker as tracker

        try:
            from monogal._compile import CompiledSystem
        except ImportError:  # the evaluators may move; trace what remains
            CompiledSystem = None

        self._stack: list[list] = []  # open spans: [name, layer, covered seconds]
        self._in_leaf = False
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.calls_in: Counter = Counter()  # (leaf, innermost span) -> calls
        self.counts: Counter = Counter()  # facts read off results

        self._problems = problems.PROBLEMS
        self._targets = [
            (cli, "main", self._span("cli.main")),
            (cli, "build_graph", self._span("monodromy.build_graph")),
            (cli, "run", self._span("monodromy.run", self._after_run)),
            (cli, "square_up", self._span("slp.square_up")),
            (cli, "residual", self._leaf("slp.residual")),
            (monodromy, "residual", self._leaf("slp.residual")),
            (problems, "residual", self._leaf("slp.residual")),
            (monodromy, "track", self._span("tracker.track", self._after_track)),
            (tracker, "lu_solve", self._leaf("linalg.lu_solve")),
            (CompiledSystem, "__init__", self._leaf("compile.build")),
            (CompiledSystem, "value_and_jac", self._leaf("compile.value_and_jac")),
            (CompiledSystem, "param_dir", self._leaf("compile.param_dir")),
            (CompiledSystem, "residual", self._leaf("compile.residual")),
            (groups, "parse_perm_script", self._span("groups.parse")),
            (groups.PermGroup, "order", self._span("groups.order", self._after_order)),
            (groups, "minimal_nontrivial_blocks", self._span("groups.blocks")),
            (groups, "is_even_subgroup", self._span("groups.even")),
            (groups, "galois_width", self._span("groups.width")),
        ]
        self.missing = [f"{getattr(owner, '__name__', 'CompiledSystem')}.{attr}"
                        for owner, attr, _ in self._targets
                        if owner is None or attr not in vars(owner)]
        self._saved: list | None = None

    # -------------------------------------------------- wrappers

    def _span(self, name: str, after=None):
        layer = name.partition(".")[0]
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                if self._in_leaf or (stack and stack[-1][1] == layer):
                    return fn(*args, **kwargs)
                frame = [name, layer, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    self.calls[name] += 1
                    self.busy[name] += dt
                    self.self_s[name] += dt - frame[2]
                    if stack:
                        stack[-1][2] += dt
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _leaf(self, name: str):
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                if self._in_leaf:
                    return fn(*args, **kwargs)
                self._in_leaf = True
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self._in_leaf = False
                    self.calls[name] += 1
                    self.busy[name] += dt
                    if stack:
                        stack[-1][2] += dt
                        self.calls_in[(name, stack[-1][0])] += 1
            return wrapper
        return make

    def _after_run(self, args, result) -> None:
        graph = args[0]
        c = self.counts
        c["loops"] += result.loops_run
        c["paths"] += result.paths_tracked
        c["perms"] += len(result.permutations)
        # Every registry entry except the seed solution was discovered by a path.
        c["new_solutions"] += sum(len(node.registry) for node in graph.nodes) - 1

    def _after_track(self, args, result) -> None:
        self.counts["steps"] += result.steps_taken
        if not result.success:
            self.counts[f"fail_{result.status.value}"] += 1

    def _after_order(self, args, result) -> None:
        group = args[0]
        self.counts["gens_in"] += len(group.generators)
        self.counts["gens_kept"] += len(group.reduced_generators())

    # -------------------------------------------------- install / collect

    def __enter__(self) -> "Tracer":
        self._saved = []
        for owner, attr, make in self._targets:
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        fab, build = self._span("problems.fabricate"), self._span("problems.build")
        for key, problem in list(self._problems.items()):
            self._saved.append((self._problems, key, problem))
            self._problems[key] = dataclasses.replace(
                problem, fabricate=fab(problem.fabricate), build_system=build(problem.build_system))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved = None

    def snapshot(self) -> dict:
        """Totals since the last snapshot, as plain data; resets them."""
        snap = {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_s),
            "calls_in": {f"{a}@{b}": n for (a, b), n in self.calls_in.items()},
            "counts": dict(self.counts),
        }
        for d in (self.calls, self.busy, self.self_s, self.calls_in, self.counts):
            d.clear()
        return snap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _merge(snaps: list[dict]) -> dict:
    merged: dict = {}
    for snap in snaps:
        for kind, values in snap.items():
            acc = merged.setdefault(kind, {})
            for key, v in values.items():
                acc[key] = acc.get(key, 0) + v
    return merged


def layer_metrics(snaps: list[dict]) -> dict[str, float]:
    """Per-layer metrics over traced instances, without the overhead.

    Times and counts are means per instance; per-call and per-path figures
    are ratios of the totals.
    """
    total = _merge(snaps)
    calls, busy, self_s = total.get("calls", {}), total.get("busy", {}), total.get("self", {})
    counts, calls_in = total.get("counts", {}), total.get("calls_in", {})
    n = max(len(snaps), 1)
    paths = calls.get("tracker.track", 0)
    steps = counts.get("steps", 0)
    track_s = busy.get("tracker.track", 0.0)
    run_s = busy.get("monodromy.run", 0.0)
    m = {
        "cli.instance_s": busy.get("cli.main", 0.0) / n,
        "cli.self_s": self_s.get("cli.main", 0.0) / n,
        "problems.fabricate_s": busy.get("problems.fabricate", 0.0) / n,
        "monodromy.build_graph_s": busy.get("monodromy.build_graph", 0.0) / n,
        "monodromy.run_s": run_s / n,
        "monodromy.loops": counts.get("loops", 0) / n,
        "monodromy.paths": counts.get("paths", 0) / n,
        "monodromy.loop_ms": 1e3 * _ratio(run_s, counts.get("loops", 0)),
        "monodromy.perms": counts.get("perms", 0) / n,
        "monodromy.discovery_frac": _ratio(counts.get("new_solutions", 0), counts.get("paths", 0)),
        "monodromy.self_s": self_s.get("monodromy.run", 0.0) / n,
        "tracker.track_s": track_s / n,
        "tracker.path_ms": 1e3 * _ratio(track_s, paths),
        "tracker.paths_per_s": _ratio(paths, track_s),
        "tracker.steps_per_path": _ratio(steps, paths),
        "tracker.self_s": self_s.get("tracker.track", 0.0) / n,
        "tracker.step_us": 1e6 * _ratio(self_s.get("tracker.track", 0.0), steps),
        "compile.build_s": busy.get("compile.build", 0.0) / n,
        "linalg.solves_per_path": _ratio(calls_in.get("linalg.lu_solve@tracker.track", 0), paths),
        "slp.residual_calls": calls.get("slp.residual", 0) / n,
        "slp.residual_s": busy.get("slp.residual", 0.0) / n,
        "slp.square_up_s": busy.get("slp.square_up", 0.0) / n,
        "groups.gens_in": counts.get("gens_in", 0) / n,
        "groups.gens_kept": counts.get("gens_kept", 0) / n,
    }
    for status in FAIL_STATUSES:
        m[f"tracker.fail_{status}"] = counts.get(f"fail_{status}", 0) / n
    for leaf in ("compile.value_and_jac", "compile.param_dir", "compile.residual", "linalg.lu_solve"):
        m[f"{leaf}_calls"] = calls.get(leaf, 0) / n
        m[f"{leaf}_us"] = 1e6 * _ratio(busy.get(leaf, 0.0), calls.get(leaf, 0))
    for part in ("parse", "order", "blocks", "even", "width"):
        m[f"groups.{part}_s"] = busy.get(f"groups.{part}", 0.0) / n
    return m


def deterministic_counts(snap: dict) -> tuple:
    """The DETERMINISTIC counts of one traced instance."""
    m = layer_metrics([snap])
    return tuple(m[name] for name in DETERMINISTIC)
