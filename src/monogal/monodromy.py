"""Graph-of-homotopies monodromy engine.

A handful of generic parameter instances become graph nodes; each edge
carries a segment homotopy with its own random unit-modulus gamma pair.
Tracking known solutions across edges populates per-node registries and
per-edge correspondence tables. An edge whose correspondence is a
consistent bijection between two full fibers is usable; a spanning tree of
the usable edges from the base node turns each other usable edge into one
fundamental cycle, and each cycle into one permutation of the discovered
fiber. The monodromy action factors through the graph's fundamental group,
which these cycles generate, so at most |E|-|V|+1 permutations generate the
group of every closed walk from the base node over the usable edges.

A problem's deck map σ enters through build_graph: every registry holds one
representative per σ-orbit, one path per orbit is tracked, and run lifts
the fiber and the group through σ (see _track_batch).

Paths run at the tracker's fixed settings and every registry merges
vectors within one fixed relative tolerance, 1e-6; only the stopping rule
(RunOptions) is configurable.
"""

from __future__ import annotations

import enum
import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .groups import Permutation
from .linalg import numerical_rank
from .slp import EvaluationSingular, GateSystem, RankDeficient, jacobian_unknowns, residual
from .tracker import PathSegment, refine, track

__all__ = [
    "SolutionRegistry",
    "BasePoint",
    "HomotopyEdge",
    "HomotopyGraph",
    "RunOptions",
    "StopReason",
    "MonodromyResult",
    "TrackFailureRate",
    "MixedDegree",
    "build_graph",
    "run",
    "export_perm_script",
    "encode_solutions",
    "decode_solutions",
]

# Relative max-norm distance at which two registry keys are one solution.
_DEDUP_TOLERANCE = 1e-6
# Fresh edges without a new solution that a run below its graph's declared
# degree needs before it stops by stabilization.
_BELOW_DEGREE_FRESH_EDGES = 16


def _same_solution(a: np.ndarray, b: np.ndarray) -> bool:
    scale = 1.0 + max(float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) <= _DEDUP_TOLERANCE * scale


class TrackFailureRate(ArithmeticError):
    """Over half the paths in one loop failed; tolerances or base points are bad."""


class MixedDegree(ValueError):
    """Permutations of different degrees cannot share one script."""


class SolutionRegistry:
    """Ordered store of solution vectors with stable ids and near-duplicate merging.

    Two vectors are the same solution when they differ by at most
    _DEDUP_TOLERANCE (1e-6) in the max-norm, normalized by (1 + the larger
    max-norm of the two). With a deck map σ, x also matches every entry that
    σ(x) matches, so the registry holds one representative, the first seen,
    per orbit {x, σ(x)}. Ids follow assignment order and are never reused.
    """

    def __init__(self, deck_map: Callable[[np.ndarray], np.ndarray] | None = None):
        self.deck_map = deck_map
        self._solutions: list[np.ndarray] = []

    def register(self, x: np.ndarray) -> tuple[int, bool]:
        """Returns (id, is_new). Matching an existing entry keeps the old entry."""
        x = np.asarray(x, dtype=complex).ravel()
        match = self.find(x)
        if match is not None:
            return match, False
        self._solutions.append(x.copy())
        return len(self._solutions) - 1, True

    def find(self, x: np.ndarray) -> int | None:
        """Id of the entry matching x (or σ(x)), or None."""
        found = self.match(x)
        return None if found is None else found[0]

    def match(self, x: np.ndarray) -> tuple[int, int] | None:
        """(id, f) of the entry that σ^f(x) matches, x itself first, or None."""
        x = np.asarray(x, dtype=complex).ravel()
        keys = [x] if self.deck_map is None else [x, self.deck_map(x)]
        for idx, stored in enumerate(self._solutions):
            for flip, key in enumerate(keys):
                if _same_solution(stored, key):
                    return idx, flip
        return None

    def __len__(self) -> int:
        return len(self._solutions)

    def __getitem__(self, idx: int) -> np.ndarray:
        return self._solutions[idx]

    def vectors(self) -> list[np.ndarray]:
        return list(self._solutions)


@dataclass
class BasePoint:
    """A generic parameter instance with the solutions known at it."""

    node_id: int
    z: np.ndarray
    registry: SolutionRegistry


@dataclass
class HomotopyEdge:
    """Segment homotopy between two nodes with correspondence bookkeeping.

    forward_map sends from-node full ids to to-node full ids, backward_map
    the reverse. Registries only append, so the source registry ids, one per
    σ-orbit, that one direction sent (tracked, derived or failed, and never
    retried) are those below its count, sent_forward or sent_backward.
    The backward segment is the forward curve run in reverse, so an id that
    the opposite map already reaches is derived from that map's inverse
    instead of tracked. Derivation waits for an audit: the first derivable
    id, in either direction, is tracked and must land where the inverse
    says, which sets audited. Unless a path jumped, the two maps are mutually
    inverse wherever both are defined. An audit that lands elsewhere deletes
    the opposite entry it contradicts, so a disputed edge never becomes a
    bijection and feeds no permutation.
    """

    edge_id: int
    from_node: int
    to_node: int
    gamma_pair: tuple[complex, complex]
    forward_map: dict[int, int] = field(default_factory=dict)
    backward_map: dict[int, int] = field(default_factory=dict)
    sent_forward: int = 0
    sent_backward: int = 0
    audited: bool = False


@dataclass
class HomotopyGraph:
    system: GateSystem
    nodes: list[BasePoint]
    edges: list[HomotopyEdge]
    rng: np.random.Generator
    deck_map: Callable[[np.ndarray], np.ndarray] | None = None
    degree: int | None = None


class StopReason(enum.Enum):
    Stabilization = "stabilization"
    TargetCount = "target_count"


@dataclass(frozen=True)
class RunOptions:
    """Stopping configuration for the monodromy loop.

    stabilization_limit counts fresh random edges, not loops: a run stops by
    stabilization once nothing is pending and this many fresh edges were
    added and fully explored since the last new solution. A limit of 0
    stops the first time every solution crossed every edge.
    """

    stabilization_limit: int = 4
    target_count: int | None = None

    def __post_init__(self):
        if self.stabilization_limit < 0:
            raise ValueError(f"stabilization_limit must be >= 0, got {self.stabilization_limit}")
        if self.target_count is not None and self.target_count < 1:
            raise ValueError(f"target_count must be >= 1, got {self.target_count}")


@dataclass
class MonodromyResult:
    solutions: list[np.ndarray]
    permutations: list[Permutation]
    loops_run: int
    paths_tracked: int
    failures: int
    stopped_by: StopReason


def _segment_min_distance(g0: complex, g1: complex) -> float:
    # Distance from the segment [g0, g1] in C to the origin.
    d = g1 - g0
    dd = (d * d.conjugate()).real
    if dd == 0.0:
        return abs(g0)
    s = min(1.0, max(0.0, (-(d.conjugate() * g0)).real / dd))
    return abs(g0 + s * d)


def _sample_gamma_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    # Reject pairs whose homotopy denominator (1-t)*g0 + t*g1 gets near zero.
    while True:
        g0, g1 = np.exp(2j * np.pi * rng.random(2))
        if _segment_min_distance(complex(g0), complex(g1)) >= 0.1:
            return complex(g0), complex(g1)


def build_graph(sys: GateSystem, z0: np.ndarray, x0: np.ndarray, n_nodes: int,
                rng: np.random.Generator,
                deck_map: Callable[[np.ndarray], np.ndarray] | None = None,
                degree: int | None = None) -> HomotopyGraph:
    """Complete graph over n_nodes generic instances, seeded with (z0, x0).

    Args:
        sys: square system (outputs == unknowns).
        z0: parameter vector of the seed instance.
        x0: a solution of sys at z0, residual at most 1e-8.
        n_nodes: number of base points, at least 2.
        rng: drives the fresh parameter draws and gamma pairs.
        deck_map: the problem's deck symmetry σ on solution vectors, if any:
            every registry then merges x with σ(x).
        degree: the problem's known solution count, if any: while the base
            fiber holds fewer, run stops by stabilization only after
            _BELOW_DEGREE_FRESH_EDGES (16) fresh edges found nothing new.

    Raises:
        ValueError: fewer than 2 nodes, wrong shapes, or a seed residual above 1e-8 or at a pole.
        RankDeficient: the Jacobian in the unknowns is singular at (z0, x0).
    """
    if n_nodes < 2:
        raise ValueError(f"at least 2 nodes required, got {n_nodes}")
    n_out = len(sys.outputs)
    n_unk = len(sys.unknown_names)
    if n_out != n_unk:
        raise ValueError(f"system must be square, got {n_out} equations in {n_unk} unknowns")
    z0 = np.asarray(z0, dtype=complex).ravel()
    x0 = np.asarray(x0, dtype=complex).ravel()
    if len(z0) != len(sys.parameter_names) or len(x0) != n_unk:
        raise ValueError("parameter or unknown vector has the wrong length")
    try:
        res = residual(sys, z0, x0)
    except EvaluationSingular as exc:
        raise ValueError(f"seed solution sits on a pole ({exc})") from None
    if not res <= 1e-8:  # also rejects NaN
        raise ValueError(f"seed residual {res:.3e} exceeds 1e-8")
    jac = jacobian_unknowns(sys, z0, x0)
    if numerical_rank(jac) < n_unk:
        raise RankDeficient(f"Jacobian rank below {n_unk} at the seed solution")

    nodes = [BasePoint(0, z0, SolutionRegistry(deck_map))]
    nodes[0].registry.register(x0)
    for k in range(1, n_nodes):
        z = rng.standard_normal(len(z0)) + 1j * rng.standard_normal(len(z0))
        nodes.append(BasePoint(k, z, SolutionRegistry(deck_map)))
    edges = []
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            edges.append(HomotopyEdge(len(edges), a, b, _sample_gamma_pair(rng)))
    return HomotopyGraph(sys, nodes, edges, rng, deck_map, degree)


def _pending(graph: HomotopyGraph, edge: HomotopyEdge, forward: bool) -> range:
    # Registry ids at the direction's source that have not crossed it yet.
    if forward:
        return range(edge.sent_forward, len(graph.nodes[edge.from_node].registry))
    return range(edge.sent_backward, len(graph.nodes[edge.to_node].registry))


def _add_random_edge(graph: HomotopyGraph) -> None:
    # Fresh gammas between a populated node and any other node.
    populated = [n.node_id for n in graph.nodes if len(n.registry) > 0]
    a = int(populated[int(graph.rng.integers(len(populated)))])
    others = [n.node_id for n in graph.nodes if n.node_id != a]
    b = int(others[int(graph.rng.integers(len(others)))])
    lo, hi = min(a, b), max(a, b)
    graph.edges.append(HomotopyEdge(len(graph.edges), lo, hi, _sample_gamma_pair(graph.rng)))


def _inverse(mapping: dict[int, int]) -> dict[int, int]:
    # Inverse of an edge map, leaving out targets that two ids reach.
    hits = Counter(mapping.values())
    return {b: a for a, b in mapping.items() if hits[b] == 1}


def _fiber_size(graph: HomotopyGraph, node_id: int) -> int:
    # Full ids known at a node: each representative and, with σ, its image.
    return len(graph.nodes[node_id].registry) * (1 if graph.deck_map is None else 2)


def _track_batch(graph: HomotopyGraph, edge: HomotopyEdge, forward: bool) -> tuple[int, int, int]:
    """Sends the direction's pending ids across it and counts them as sent.

    The maps hold full ids. Without σ they are registry ids; with σ,
    representative c is 2c and σ of it 2c+1, and a path from c that lands on
    σ^f of representative j records 2c -> 2j+f and, as σ commutes with
    monodromy, 2c+1 -> 2j+1-f.

    An id that the opposite direction maps back to takes its correspondence
    from that map's inverse once the edge is audited. Until then the first
    such id is tracked as the audit, those whose inverse entry was lifted
    (odd) first, so the audit also tests σ: landing on the inverse's id
    audits the edge, a failed path leaves the next candidate as the audit,
    and landing on another id means a path jumped, so that id counts as a
    failure, gets no correspondence, the opposite map loses the entry that
    predicted it, and the rest of the batch is tracked.

    A successful track is registered as it is: track reports Success only
    after its endpoint polish measured a residual of at most 1e-7 at dst.z.

    Returns (paths tracked, failures, newly registered)."""
    src, dst = graph.nodes[edge.from_node], graph.nodes[edge.to_node]
    g0, g1 = edge.gamma_pair
    corr, opposite = edge.forward_map, edge.backward_map
    pending = _pending(graph, edge, forward)
    if forward:
        edge.sent_forward = pending.stop
    else:
        edge.sent_backward = pending.stop
        src, dst, g0, g1 = dst, src, g1, g0
        corr, opposite = opposite, corr
    width = 1 if graph.deck_map is None else 2
    inverse = _inverse(opposite)
    order = sorted(pending, key=lambda sid: (width == 1 or inverse.get(2 * sid, 0) % 2 == 0, sid))
    seg = PathSegment(src.z, dst.z, g0, g1)
    paths = 0
    failures = 0
    new_count = 0
    for sid in order:
        known = inverse.get(width * sid)
        if known is not None and edge.audited:
            corr.update({width * sid + k: known ^ k for k in range(width)})
            continue
        paths += 1
        result = track(graph.system, seg, src.registry[sid])
        if not result.success:
            failures += 1
            continue
        found = dst.registry.match(result.endpoint)
        if found is None:
            found = dst.registry.register(result.endpoint)[0], 0
            new_count += 1
        dst_id = width * found[0] + found[1]
        if known is not None:
            if dst_id != known:
                # This path or the one behind the inverse jumped. Neither
                # map keeps the disputed pair, and nothing is derived on
                # this edge until a later audit agrees.
                failures += 1
                del opposite[known]
                inverse = {}
                continue
            edge.audited = True
        corr.update({width * sid + k: dst_id ^ k for k in range(width)})
    return paths, failures, new_count


def _edge_bijection(graph: HomotopyGraph, edge: HomotopyEdge, n: int) -> Permutation | None:
    # The edge's correspondence, from-node ids to to-node ids, when the edge
    # is usable: both nodes know n full ids, one map is a bijection and the
    # other map contradicts it nowhere.
    if _fiber_size(graph, edge.from_node) != n or _fiber_size(graph, edge.to_node) != n:
        return None
    for table, other in ((edge.forward_map, edge.backward_map), (edge.backward_map, edge.forward_map)):
        if len(table) == n and set(table.values()) == set(range(n)) \
                and all(table[b] == a for a, b in other.items()):
            perm = Permutation([table[i] for i in range(n)])
            return perm if table is edge.forward_map else perm.inverse()
    return None


def _extract_permutations(graph: HomotopyGraph) -> list[Permutation]:
    """One permutation per fundamental cycle of the usable edges.

    A breadth-first spanning tree from node 0 runs over the usable edges
    (see _edge_bijection) in edge-id order and labels each node it reaches
    with the tree path's correspondence from the base fiber. Every usable
    non-tree edge u -> v in that component then closes one cycle: base id i
    goes to u along the tree, across the edge, and back from v along the
    tree. That gives at most |E|-|V|+1 permutations, in edge-id order.
    """
    n = _fiber_size(graph, 0)
    usable = []
    adjacency: dict[int, list] = {node.node_id: [] for node in graph.nodes}  # (edge, neighbour, map)
    for edge in graph.edges:
        perm = _edge_bijection(graph, edge, n)
        if perm is not None:
            usable.append((edge, perm))
            adjacency[edge.from_node].append((edge, edge.to_node, perm))
            adjacency[edge.to_node].append((edge, edge.from_node, perm.inverse()))
    label = {0: Permutation.identity(n)}
    tree: set[int] = set()
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for edge, v, perm in adjacency[u]:
            if v not in label:
                label[v] = label[u] * perm
                tree.add(edge.edge_id)
                queue.append(v)
    return [label[edge.from_node] * perm * label[edge.to_node].inverse()
            for edge, perm in usable if edge.from_node in label and edge.edge_id not in tree]


def _deck_pairs(sys: GateSystem, z: np.ndarray, deck_map: Callable[[np.ndarray], np.ndarray],
                reps: Iterable[np.ndarray]) -> list[np.ndarray]:
    # Each x of reps, one per σ-orbit, then σ(x) polished by refine at z on
    # the tracked square system, as σ amplifies a tracked endpoint's error.
    # Unless the image solves sys to track's 1e-7 bar and is σ(x) by the
    # registry's rule one way round (an ill-conditioned x or image fails the
    # other), σ is no deck map of sys: ValueError.
    pairs = []
    for x in reps:
        y = deck_map(x)
        image, res = refine(sys, z, y, iters=3)
        if not (res <= 1e-7 and (_same_solution(image, y) or _same_solution(deck_map(image), x))):
            raise ValueError(f"polished σ(x) is not a solution matching σ(x) (residual {res:.3e})")
        pairs += [x, image]
    return pairs


def run(graph: HomotopyGraph, opts: RunOptions | None = None) -> MonodromyResult:
    """Tracks solutions around the graph until a stopping criterion fires.

    Each loop sends every pending solution across the edge direction with the
    most pending work (ties: lowest edge id, forward first). A solution whose
    correspondence the opposite direction already fixes is derived instead
    of tracked once the edge passed its audit (see HomotopyEdge). It still
    counts as pending, so the loops are those that tracking everything would
    run, and paths_tracked counts only tracked paths, audits included. When
    nothing is pending, a fresh random-gamma edge keeps the exploration
    going; the run stops by stabilization when nothing is pending and
    opts.stabilization_limit fresh edges have been added since the last new
    solution, or at least _BELOW_DEGREE_FRESH_EDGES (16) while the base
    fiber is smaller than the graph's declared degree. With σ, the target
    count and the result count full solutions: each representative is
    followed by σ of it, polished by refine at the base parameters, and the
    permutations act on these ids.

    Raises:
        TrackFailureRate: more than half the ids that one multi-id loop sent
            (tracked or derived) failed.
        ValueError: a polished σ-image is not σ of its solution (_deck_pairs).
    """
    if opts is None:
        opts = RunOptions()
    base = graph.nodes[0].registry
    loops = 0
    paths = 0
    failures = 0
    fresh_edges = 0
    stopped_by = None
    while True:
        if opts.target_count is not None and _fiber_size(graph, 0) >= opts.target_count:
            stopped_by = StopReason.TargetCount
            break
        directions = [(len(_pending(graph, e, f)), e, f) for e in graph.edges for f in (True, False)]
        n_pending, edge, forward = max(directions, key=lambda d: (d[0], -d[1].edge_id, d[2]))
        if not n_pending:
            limit = opts.stabilization_limit
            if graph.degree is not None and _fiber_size(graph, 0) < graph.degree:
                limit = max(limit, _BELOW_DEGREE_FRESH_EDGES)
            if fresh_edges >= limit:
                stopped_by = StopReason.Stabilization
                break
            _add_random_edge(graph)
            fresh_edges += 1
            continue
        n_paths, n_fail, n_new = _track_batch(graph, edge, forward)
        loops += 1
        paths += n_paths
        failures += n_fail
        # One id failing alone is an unlucky gamma draw, not evidence of bad
        # tolerances; fresh edges absorb it. Majority failure on a real batch
        # is systemic and aborts. The batch is every id the loop resolves,
        # derived ones included.
        if n_pending > 1 and 2 * n_fail > n_pending:
            raise TrackFailureRate(f"{n_fail} of {n_pending} paths failed on edge {edge.edge_id}")
        if n_new > 0:
            fresh_edges = 0
    perms = _extract_permutations(graph)
    solutions = base.vectors()
    if graph.deck_map is not None:
        solutions = _deck_pairs(graph.system, graph.nodes[0].z, graph.deck_map, solutions)
    return MonodromyResult(solutions, perms, loops, paths, failures, stopped_by)


def export_perm_script(perms: Sequence[Permutation]) -> str:
    """Writes the perm-script form: PermList lines (1-based) plus a Group line.

    Raises:
        MixedDegree: the permutations do not share one degree.
    """
    degrees = {p.degree for p in perms}
    if len(degrees) > 1:
        raise MixedDegree(f"mixed permutation degrees: {sorted(degrees)}")
    lines = []
    for k, p in enumerate(perms):
        images = ", ".join(str(v + 1) for v in p.images)
        lines.append(f"p{k}:= PermList([{images}]);")
    names = ", ".join(f"p{k}" for k in range(len(perms)))
    lines.append(f"G:=Group({names});")
    return "\n".join(lines)


def _c2pair(v: complex) -> list[float]:
    return [float(v.real), float(v.imag)]


def encode_solutions(parameters: np.ndarray, solutions: Iterable[np.ndarray],
                     residuals: Iterable[float]) -> dict:
    """JSON-ready dict: {"parameters": [[re,im],...], "solutions": [[[re,im],...],...],
    "residuals": [r,...]}."""
    return {
        "parameters": [_c2pair(complex(v)) for v in np.asarray(parameters).ravel()],
        "solutions": [[_c2pair(complex(v)) for v in np.asarray(x).ravel()] for x in solutions],
        "residuals": [float(r) for r in residuals],
    }


def decode_solutions(obj: dict | str) -> tuple[np.ndarray, list[np.ndarray], list[float]]:
    """Inverse of encode_solutions; accepts the dict or its JSON text."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    params = np.array([complex(re, im) for re, im in obj["parameters"]], dtype=complex)
    sols = [np.array([complex(re, im) for re, im in x], dtype=complex) for x in obj["solutions"]]
    res = [float(r) for r in obj.get("residuals", [])]
    return params, sols, res
