from __future__ import annotations

import json

import numpy as np
import pytest

from monogal import monodromy
from monogal.groups import PermGroup, Permutation
from monogal.monodromy import (
    MixedDegree,
    RunOptions,
    SolutionRegistry,
    StopReason,
    build_graph,
    decode_solutions,
    encode_solutions,
    export_perm_script,
    run,
)
from monogal.problems import PROBLEMS, p3p_conic_solve, p3p_fabricate
from monogal.slp import RankDeficient, SystemBuilder
from monogal.tracker import TrackResult, TrackStatus


def cubic_system():
    b = SystemBuilder(parameters=("z1", "z2"), unknowns=("x",))
    x = b.unknown("x")
    return b.finish([x ** 3 + b.param("z1") * x + b.param("z2")])


CUBIC_SEED = (np.array([0.0, -8.0]), np.array([2.0]))  # x^3 = 8


def cubic_run(seed=2, **opts):
    # Seed 2 is a known-good draw: the sampled loops reach all three roots.
    # Some seeds (0 among them) happen to produce only trivial loops and the
    # run stalls at one solution; that is expected heuristic behavior.
    z0, x0 = CUBIC_SEED
    rng = np.random.default_rng(seed)
    graph = build_graph(cubic_system(), z0, x0, 4, rng)
    return graph, run(graph, RunOptions(**opts) if opts else None)


# ------------------------------------------------------------
# registry
# ------------------------------------------------------------


def test_registry_assigns_stable_ids():
    reg = SolutionRegistry()
    i0, new0 = reg.register(np.array([1.0, 2.0]))
    i1, new1 = reg.register(np.array([3.0, 4.0]))
    again, new2 = reg.register(np.array([1.0, 2.0]))
    assert (i0, new0) == (0, True)
    assert (i1, new1) == (1, True)
    assert (again, new2) == (0, False)
    assert len(reg) == 2
    assert np.array_equal(reg[1], [3.0, 4.0])


def test_registry_tolerance_is_relative():
    reg = SolutionRegistry()
    reg.register(np.array([1e6 + 0j]))
    # Absolute gap 0.5 but relative ~5e-7: same solution.
    sid, is_new = reg.register(np.array([1e6 + 0.5 + 0j]))
    assert sid == 0 and not is_new
    sid, is_new = reg.register(np.array([1e6 + 100.0 + 0j]))
    assert sid == 1 and is_new


def test_registry_near_duplicates():
    reg = SolutionRegistry()
    reg.register(np.array([1.0, -1.0]))
    assert reg.register(np.array([1.0 + 1e-9, -1.0]))[0] == 0
    assert reg.register(np.array([1.0 + 1e-3, -1.0]))[0] == 1


def test_registry_deck_map_classes():
    reg = SolutionRegistry(deck_map=lambda x: x * np.array([1.0, -1.0]))
    a, _ = reg.register(np.array([1.0, 5.0]))
    b, is_new = reg.register(np.array([1.0, -5.0]))  # the deck image of the first
    assert a == b == 0 and not is_new
    assert reg.find(np.array([1.0, -5.0])) == 0
    # The registry reports which member of the pair matched: x or σ(x).
    assert reg.match(np.array([1.0, 5.0])) == (0, 0)
    assert reg.match(np.array([1.0, -5.0])) == (0, 1)
    assert reg.match(np.array([7.0, 5.0])) is None
    assert reg.register(np.array([2.0, 5.0]))[0] == 1
    # The stored representative is the first-seen full vector.
    assert np.array_equal(reg[0], [1.0, 5.0])


def test_registry_find():
    reg = SolutionRegistry()
    reg.register(np.array([2.0 + 1j]))
    assert reg.find(np.array([2.0 + 1j])) == 0
    assert reg.find(np.array([7.0])) is None


def test_registry_vectors_snapshot():
    reg = SolutionRegistry()
    reg.register(np.array([1.0]))
    vecs = reg.vectors()
    reg.register(np.array([2.0]))
    assert len(vecs) == 1


# ------------------------------------------------------------
# graph construction
# ------------------------------------------------------------


def test_build_graph_complete():
    z0, x0 = CUBIC_SEED
    graph = build_graph(cubic_system(), z0, x0, 4, np.random.default_rng(0))
    assert len(graph.nodes) == 4
    assert len(graph.edges) == 6  # complete graph
    assert len(graph.nodes[0].registry) == 1
    assert all(len(n.registry) == 0 for n in graph.nodes[1:])
    edge_pairs = {(e.from_node, e.to_node) for e in graph.edges}
    assert edge_pairs == {(a, b) for a in range(4) for b in range(a + 1, 4)}


def test_build_graph_gamma_segments_away_from_origin():
    z0, x0 = CUBIC_SEED
    graph = build_graph(cubic_system(), z0, x0, 6, np.random.default_rng(1))
    for e in graph.edges:
        g0, g1 = e.gamma_pair
        assert abs(abs(g0) - 1.0) < 1e-12 and abs(abs(g1) - 1.0) < 1e-12
        # Sample the segment: never close to zero.
        for t in np.linspace(0.0, 1.0, 21):
            assert abs((1 - t) * g0 + t * g1) >= 0.1 - 1e-12


def test_build_graph_validation():
    z0, x0 = CUBIC_SEED
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        build_graph(cubic_system(), z0, x0, 1, rng)
    with pytest.raises(ValueError, match="square"):
        b = SystemBuilder(parameters=("z",), unknowns=("x",))
        over = b.finish([b.unknown("x") - b.param("z"), b.unknown("x") ** 2])
        build_graph(over, [1.0], [1.0], 3, rng)
    with pytest.raises(ValueError, match="wrong length"):
        build_graph(cubic_system(), [1.0], x0, 3, rng)
    with pytest.raises(ValueError, match="residual"):
        build_graph(cubic_system(), z0, [1.0], 3, rng)
    with pytest.raises(ValueError, match="seed residual nan"):
        build_graph(cubic_system(), z0, [complex("nan")], 3, rng)


def test_build_graph_rank_deficient_seed():
    # x = 0 is a triple root of x^3 = 0: the Jacobian vanishes there.
    with pytest.raises(RankDeficient):
        build_graph(cubic_system(), [0.0, 0.0], [0.0], 3, np.random.default_rng(0))


# ------------------------------------------------------------
# the monodromy loop
# ------------------------------------------------------------


def test_run_discovers_all_cubic_solutions():
    _, result = cubic_run()
    assert len(result.solutions) == 3
    assert result.stopped_by is StopReason.Stabilization
    assert result.failures == 0
    assert result.paths_tracked > 0
    assert result.loops_run > 0
    # Every discovered vector solves the cubic.
    for x in result.solutions:
        assert abs(x[0] ** 3 - 8.0) < 1e-8


def test_run_permutations_generate_transitive_group():
    _, result = cubic_run()
    perms = result.permutations
    assert perms
    assert all(p.degree == 3 for p in perms)
    g = PermGroup(3, perms)
    assert g.order() == 6  # generic cubic: full S3


def test_run_correspondences_are_inverse_bijections():
    graph, result = cubic_run()
    assert result.failures == 0
    for edge in graph.edges:
        for src, dst in edge.forward_map.items():
            if dst in edge.backward_map:
                assert edge.backward_map[dst] == src
        for src, dst in edge.backward_map.items():
            if dst in edge.forward_map:
                assert edge.forward_map[dst] == src


def test_run_saturation_mode():
    # A stabilization limit of 0 stops the first time nothing is pending.
    graph, result = cubic_run(stabilization_limit=0)
    assert result.stopped_by is StopReason.Stabilization
    assert len(result.solutions) == 3
    # Saturated: every direction of every edge sent everything known.
    for edge in graph.edges:
        n_from = len(graph.nodes[edge.from_node].registry)
        n_to = len(graph.nodes[edge.to_node].registry)
        assert (edge.sent_forward, edge.sent_backward) == (n_from, n_to)


def test_run_target_count_stops_immediately_when_met():
    _, result = cubic_run(target_count=1)
    assert result.stopped_by is StopReason.TargetCount
    assert result.loops_run == 0  # the seed already meets the target
    assert len(result.solutions) == 1


def test_run_target_count_three():
    _, result = cubic_run(target_count=3)
    assert result.stopped_by is StopReason.TargetCount
    assert len(result.solutions) == 3


def test_run_stabilization_limit_bounds_loops():
    _, quick = cubic_run(stabilization_limit=1)
    _, slow = cubic_run(stabilization_limit=30)
    assert quick.loops_run < slow.loops_run


def test_run_options_validation():
    with pytest.raises(ValueError):
        RunOptions(stabilization_limit=-1)
    with pytest.raises(ValueError):
        RunOptions(target_count=0)


def test_run_is_deterministic():
    _, a = cubic_run(seed=42)
    _, b = cubic_run(seed=42)
    assert len(a.solutions) == len(b.solutions)
    for xa, xb in zip(a.solutions, b.solutions):
        assert np.array_equal(xa, xb)
    assert [p.images for p in a.permutations] == [p.images for p in b.permutations]
    assert (a.loops_run, a.paths_tracked, a.failures) == (b.loops_run, b.paths_tracked, b.failures)


def test_run_seeds_differ():
    _, a = cubic_run(seed=1)
    _, b = cubic_run(seed=2)
    # Same solution set, different exploration path.
    assert len(a.solutions) == len(b.solutions) == 3
    assert (a.loops_run, a.paths_tracked) != (b.loops_run, b.paths_tracked)


@pytest.mark.parametrize("limit", [1, 2, 4])
def test_run_stops_after_limit_fresh_edges_without_new_solution(monkeypatch, limit):
    events = []
    track_batch = monodromy._track_batch
    add_edge = monodromy._add_random_edge

    def logged_batch(*args):
        out = track_batch(*args)
        events.append(("batch", out[2]))
        return out

    def logged_edge(graph):
        add_edge(graph)
        events.append(("edge", 0))

    monkeypatch.setattr(monodromy, "_track_batch", logged_batch)
    monkeypatch.setattr(monodromy, "_add_random_edge", logged_edge)
    graph, result = cubic_run(stabilization_limit=limit)
    assert result.stopped_by is StopReason.Stabilization
    assert len(result.solutions) == 3
    # Nothing is pending at the stop ...
    assert all(not monodromy._pending(graph, e, f) for e in graph.edges for f in (True, False))
    # ... and exactly `limit` fresh edges came after the last new solution.
    last_new = max(k for k, (kind, n_new) in enumerate(events) if kind == "batch" and n_new > 0)
    assert [kind for kind, _ in events[last_new:]].count("edge") == limit
    assert events[-1][0] == "batch"
    assert len(graph.edges) == 6 + sum(kind == "edge" for kind, _ in events)


def test_run_tracks_fewer_paths_than_ids_it_resolves(monkeypatch):
    calls = []
    real_track = monodromy.track

    def counted(*args):
        calls.append(1)
        return real_track(*args)

    monkeypatch.setattr(monodromy, "track", counted)
    graph, result = cubic_run()
    resolved = sum(e.sent_forward + e.sent_backward for e in graph.edges)
    assert len(calls) == result.paths_tracked
    assert result.paths_tracked < resolved
    assert all(e.audited for e in graph.edges)


def fake_track(endpoints):
    # Stands in for monodromy.track: successive calls end at the given
    # vectors; None means a failed path.
    queue = list(endpoints)

    def track(sys, seg, x):
        x_end = queue.pop(0)
        if x_end is None:
            return TrackResult(TrackStatus.MinStepReached, np.asarray(x), 0, 0.0)
        return TrackResult(TrackStatus.Success, np.asarray(x_end, dtype=complex), 1, 1.0)
    return track


def two_node_cubic():
    z0, x0 = CUBIC_SEED
    return build_graph(cubic_system(), z0, x0, 2, np.random.default_rng(3))


def test_audit_landing_on_another_id_counts_a_failure(monkeypatch):
    graph = two_node_cubic()
    edge = graph.edges[0]
    node0, node1 = graph.nodes
    other_root = 2.0 * np.exp(2j * np.pi / 3)
    node0.registry.register(np.array([other_root]))  # id 1 at node 0
    node1.registry.register(np.array([1.0 + 1j]))
    node1.registry.register(np.array([-1.0 + 1j]))
    edge.forward_map.update({0: 0, 1: 1})
    edge.sent_forward = 2
    # Node 1's id 0 should return to node 0's id 0 but its audit lands on id
    # 1; id 1 is then tracked too (no derivation) and lands where it should.
    monkeypatch.setattr(monodromy, "track", fake_track([[other_root], [other_root]]))
    paths, failures, new = monodromy._track_batch(graph, edge, False)
    assert (paths, failures, new) == (2, 1, 0)
    assert edge.backward_map == {1: 1}
    assert edge.sent_backward == 2
    assert not edge.audited
    # The forward entry that predicted the disputed landing is gone, so
    # neither map can become a bijection and the edge feeds no permutation.
    assert edge.forward_map == {1: 1}
    assert monodromy._edge_bijection(graph, edge, 2) is None


def quartic_system():
    # Even in x, so σ(x) = -x sends roots to roots.
    b = SystemBuilder(parameters=("z1", "z2"), unknowns=("x",))
    x = b.unknown("x")
    return b.finish([x ** 4 + b.param("z1") * x ** 2 + b.param("z2")])


def test_audit_landing_away_from_a_lifted_entry_counts_a_failure(monkeypatch):
    # x^4 = 16 with σ = -x: node 0 holds representatives 2 (full ids 0, 1)
    # and 2i (full ids 2, 3). Forward, 2 went to node 1's representative 0
    # and 2i to σ of its representative 1, so the lifted entry 3 -> 2 says
    # -2i returns to node 1's full id 2.
    graph = build_graph(quartic_system(), np.array([0.0, -16.0]), np.array([2.0]), 2,
                        np.random.default_rng(3), deck_map=np.negative)
    edge = graph.edges[0]
    node0, node1 = graph.nodes
    node0.registry.register(np.array([2j]))
    node1.registry.register(np.array([1.0 + 1j]))
    node1.registry.register(np.array([3.0]))
    edge.forward_map.update({0: 0, 1: 1, 2: 3, 3: 2})
    edge.sent_forward = 2
    # Node 1's representative 1 is the audit, ahead of representative 0,
    # because its inverse entry is the lifted one. It lands on 2i, not on
    # -2i: σ did not commute, so representative 0 is tracked too.
    monkeypatch.setattr(monodromy, "track", fake_track([[2j], [2.0]]))
    paths, failures, new = monodromy._track_batch(graph, edge, False)
    assert (paths, failures, new) == (2, 1, 0)
    assert edge.sent_backward == 2
    assert not edge.audited
    assert edge.backward_map == {0: 0, 1: 1}
    assert edge.forward_map == {0: 0, 1: 1, 2: 3}
    assert monodromy._edge_bijection(graph, edge, 4) is None
    assert monodromy._extract_permutations(graph) == []


def test_lifted_p3p_group_matches_a_run_that_tracks_every_path():
    # Same instance and graph draws; one run tracks one path per σ-orbit and
    # lifts, the other tracks every path.
    problem = PROBLEMS["p3p"]
    results = []
    for deck_map in (problem.deck_map, None):
        rng = np.random.default_rng(1)
        z0, x0 = problem.fabricate(rng)
        results.append(run(build_graph(problem.build_system(), z0, x0, 5, rng, deck_map=deck_map)))
    lifted, full = results
    assert len(lifted.solutions) == len(full.solutions) == 8
    assert lifted.paths_tracked < full.paths_tracked
    # Solution k of the lifted run is solution to_full[k] of the full run.
    to_full = [int(np.argmin([np.abs(x - y).max() for y in full.solutions])) for x in lifted.solutions]
    assert sorted(to_full) == list(range(8))
    for x, k in zip(lifted.solutions, to_full):
        assert np.abs(x - full.solutions[k]).max() <= 1e-6
    from_full = [to_full.index(k) for k in range(8)]
    groups = PermGroup(8, lifted.permutations), PermGroup(8, full.permutations)
    assert groups[0].order() == groups[1].order() == 192
    for g in lifted.permutations:
        assert groups[1].contains(Permutation([to_full[g(from_full[k])] for k in range(8)]))
    for g in full.permutations:
        assert groups[0].contains(Permutation([from_full[g(to_full[k])] for k in range(8)]))


def test_deck_pairs_rejects_a_map_that_is_not_a_deck_map():
    # Negating two of the three P3P depths leaves the fiber: the polished
    # image is no solution or another one, never σ of the representative.
    problem = PROBLEMS["p3p"]
    inst, _ = p3p_fabricate(np.random.default_rng(1))
    z, sysm = inst.as_params(), problem.build_system()
    classes = SolutionRegistry(problem.deck_map)
    for s in p3p_conic_solve(inst):
        classes.register(s.as_vector())
    reps = classes.vectors()
    lifted = monodromy._deck_pairs(sysm, z, problem.deck_map, reps)
    assert len(lifted) == 8 and all(np.abs(y + x).max() <= 1e-12 for x, y in zip(lifted[::2], lifted[1::2]))
    assert all(np.array_equal(x, rep) for x, rep in zip(lifted[::2], reps))
    for x in reps:
        with pytest.raises(ValueError, match="not a solution"):
            monodromy._deck_pairs(sysm, z, lambda y: y * np.array([-1.0, -1.0, 1.0]), [x])


def test_inverse_leaves_out_targets_two_ids_reach():
    assert monodromy._inverse({0: 5, 1: 5, 2: 6}) == {6: 2}


def test_failed_audit_passes_the_audit_to_the_next_candidate(monkeypatch):
    graph = two_node_cubic()
    edge = graph.edges[0]
    node0, node1 = graph.nodes
    roots = [2.0 * np.exp(2j * np.pi * k / 3) for k in range(3)]
    for r in roots[1:]:
        node0.registry.register(np.array([r]))
    for v in (1.0 + 1j, -1.0 + 1j, 3.0):
        node1.registry.register(np.array([v]))
    edge.forward_map.update({1: 1, 2: 2})
    # Node 1's id 0 is not derivable and is tracked; id 1 is the first audit
    # and its path fails; id 2 becomes the audit and agrees.
    monkeypatch.setattr(monodromy, "track", fake_track([[roots[0]], None, [roots[2]]]))
    paths, failures, new = monodromy._track_batch(graph, edge, False)
    assert (paths, failures, new) == (3, 1, 0)
    assert edge.sent_backward == 3
    assert edge.audited
    assert edge.backward_map == {0: 0, 2: 2}


def test_derived_ids_count_toward_the_failure_rate(monkeypatch):
    # Four ids leave node 1: two are derived from the audited forward map and
    # the two tracked ones fail. Two failures in four is no majority.
    graph = two_node_cubic()
    edge = graph.edges[0]
    node0, node1 = graph.nodes
    node0.registry.register(np.array([2.0 * np.exp(2j * np.pi / 3)]))
    for v in (1.0 + 1j, -1.0 + 1j, 3.0, -3.0):
        node1.registry.register(np.array([v]))
    edge.forward_map.update({0: 0, 1: 1})
    edge.sent_forward = 2
    edge.audited = True
    monkeypatch.setattr(monodromy, "track", fake_track([None, None]))
    result = run(graph, RunOptions(stabilization_limit=0))
    assert result.stopped_by is StopReason.Stabilization
    assert (result.loops_run, result.paths_tracked, result.failures) == (1, 2, 2)
    assert edge.backward_map == {0: 0, 1: 1}


# ------------------------------------------------------------
# permutation extraction
# ------------------------------------------------------------


def closure(degree, gens):
    # Every element of the group the generators generate, by brute force.
    seen = {Permutation.identity(degree)}
    frontier = list(seen)
    while frontier:
        frontier = [q for q in dict.fromkeys(p * g for p in frontier for g in gens) if q not in seen]
        seen.update(frontier)
    return seen


def simple_cycle_permutations(degree, steps):
    # Reference: the permutation of every simple cycle through node 0, in
    # both orientations, over (from, to, images) steps. Walking one edge out
    # and back also counts; it adds only the identity.
    adjacency = {}
    for a, b, images in steps:
        perm = Permutation(images)
        adjacency.setdefault(a, []).append((b, perm))
        adjacency.setdefault(b, []).append((a, perm.inverse()))
    found = []

    def visit(node, visited, path, length):
        for nbr, perm in adjacency[node]:
            if nbr == 0 and length >= 1:
                found.append(path * perm)
            elif nbr not in visited:
                visit(nbr, visited | {nbr}, path * perm, length + 1)

    visit(0, {0}, Permutation.identity(degree), 0)
    return found


def untracked_graph(sizes):
    # Four nodes whose registries hold the given numbers of ids; the edge
    # maps are left for the test to fill in by hand.
    z0, x0 = CUBIC_SEED
    graph = build_graph(cubic_system(), z0, x0, 4, np.random.default_rng(5))
    for node, size in zip(graph.nodes, sizes):
        while len(node.registry) < size:
            node.registry.register(np.array([node.node_id + 1j * (len(node.registry) + 1)]))
    return graph


def hand_built_graph():
    # Nodes 0-2 hold all three ids, node 3 only two.
    graph = untracked_graph((3, 3, 3, 2))
    gamma = graph.edges[0].gamma_pair
    for a, b in ((0, 1), (1, 2), (0, 2)):  # parallel edges 6, 7, 8
        graph.edges.append(monodromy.HomotopyEdge(len(graph.edges), a, b, gamma))
    maps = {
        0: ({0: 1, 1: 0, 2: 2}, {}),                    # 0-1 bijection
        1: ({0: 2}, {2: 0, 0: 1, 1: 2}),                # 0-2 bijection backwards, consistent
        2: ({0: 0, 1: 1}, {0: 0, 1: 1}),                # 0-3 short registry
        3: ({0: 2, 1: 1, 2: 0}, {2: 0, 1: 1, 0: 2}),    # 1-2 mutually inverse
        4: ({0: 0, 1: 1}, {}),                          # 1-3 short registry
        5: ({}, {0: 0, 1: 1}),                          # 2-3 short registry
        6: ({0: 0, 1: 2, 2: 1}, {2: 1}),                # 0-1 parallel, consistent
        7: ({0: 1, 1: 0}, {}),                          # 1-2 parallel, partial
        8: ({0: 0, 1: 2, 2: 1}, {0: 0, 1: 1}),          # 0-2 parallel, disputed at id 1
    }
    for edge in graph.edges:
        edge.forward_map, edge.backward_map = (dict(m) for m in maps[edge.edge_id])
    # (from, to, forward images) of the usable edges 0, 1, 3 and 6; their
    # cycles generate the cyclic group of order 3.
    usable = [(0, 1, (1, 0, 2)), (0, 2, (2, 0, 1)), (1, 2, (2, 1, 0)), (0, 1, (0, 2, 1))]
    return graph, usable


def test_extraction_takes_one_generator_per_fundamental_cycle():
    graph, usable = hand_built_graph()
    usable_ids = [e.edge_id for e in graph.edges if monodromy._edge_bijection(graph, e, 3) is not None]
    assert usable_ids == [0, 1, 3, 6]
    perms = monodromy._extract_permutations(graph)
    # Four usable edges on three nodes: a spanning tree of two, two cycles.
    assert len(perms) == 2
    reference = closure(3, simple_cycle_permutations(3, usable))
    assert len(reference) == 3
    assert closure(3, perms) == reference
    # Taken at face value, the disputed edge's forward map would close
    # cycles outside the group.
    assert len(closure(3, simple_cycle_permutations(3, usable + [(0, 2, (0, 2, 1))]))) == 6


def test_extraction_follows_tree_paths_out_from_the_base():
    # The square 0-1-2-3-0: node 2 sits two tree edges from the base, and
    # the maps on the way there do not commute.
    graph = untracked_graph((3, 3, 3, 3))
    square = {0: (1, 0, 2), 2: (0, 1, 2), 3: (0, 2, 1), 5: (1, 0, 2)}  # edges 0-1, 0-3, 1-2, 2-3
    for edge in graph.edges:
        edge.forward_map = dict(enumerate(square.get(edge.edge_id, ())))
    perms = monodromy._extract_permutations(graph)
    assert len(perms) == 1
    steps = [(e.from_node, e.to_node, square[e.edge_id]) for e in graph.edges if e.edge_id in square]
    assert closure(3, perms) == closure(3, simple_cycle_permutations(3, steps))
    assert perms == [Permutation((2, 1, 0))]


def test_p3p_eight_nodes_generators_stay_within_the_cycle_rank(monkeypatch):
    from monogal import cli

    runs = []
    real_run = cli.run

    def recorded(graph, *args):
        result = real_run(graph, *args)
        runs.append((graph, result))
        return result

    monkeypatch.setattr(cli, "run", recorded)
    assert cli.main(["monodromy", "p3p", "--seed", "1", "--nodes", "8"]) == 0
    (graph, result), = runs
    assert PermGroup(8, result.permutations).order() == 192
    assert len(result.permutations) <= len(graph.edges) - len(graph.nodes) + 1


# ------------------------------------------------------------
# perm-script export
# ------------------------------------------------------------


def test_export_identity_example_exact():
    text = export_perm_script([Permutation.identity(3)])
    assert text == "p0:= PermList([1, 2, 3]);\nG:=Group(p0);"


def test_export_two_permutations_exact():
    perms = [Permutation([1, 2, 0]), Permutation([1, 0, 2])]
    text = export_perm_script(perms)
    assert text == (
        "p0:= PermList([2, 3, 1]);\n"
        "p1:= PermList([2, 1, 3]);\n"
        "G:=Group(p0, p1);"
    )


def test_export_mixed_degree():
    with pytest.raises(MixedDegree):
        export_perm_script([Permutation([1, 0]), Permutation([1, 0, 2])])


def test_export_parse_round_trip():
    rng = np.random.default_rng(7)
    perms = []
    for _ in range(5):
        images = rng.permutation(12)
        perms.append(Permutation([int(v) for v in images]))
    from monogal.groups import parse_perm_script

    again = parse_perm_script(export_perm_script(perms))
    assert [p.images for p in again] == [p.images for p in perms]


# ------------------------------------------------------------
# solutions JSON
# ------------------------------------------------------------


def test_encode_decode_round_trip():
    rng = np.random.default_rng(8)
    params = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    sols = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    res = [1e-12, 3.5e-11, 0.0]
    doc = encode_solutions(params, sols, res)
    assert set(doc) == {"parameters", "solutions", "residuals"}
    # Through actual JSON text: binary64 round-trips exactly.
    z, xs, rs = decode_solutions(json.dumps(doc))
    assert np.array_equal(z, params)
    assert len(xs) == 3
    for x, s in zip(xs, sols):
        assert np.array_equal(x, s)
    assert rs == res


def test_decode_accepts_dict_and_defaults_residuals():
    z, xs, rs = decode_solutions({"parameters": [[1.0, 0.0]], "solutions": [[[2.0, -1.0]]]})
    assert z[0] == 1.0
    assert xs[0][0] == 2.0 - 1.0j
    assert rs == []


def test_decode_rejects_malformed():
    with pytest.raises(KeyError):
        decode_solutions({"solutions": []})
    with pytest.raises((TypeError, ValueError)):
        decode_solutions({"parameters": [[1.0]], "solutions": []})
