"""Property tests for the exact group code, the perm-script codec and the
system printer and compressor."""

from __future__ import annotations

import operator

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monogal.groups import (
    NotTransitive,
    PermGroup,
    Permutation,
    UnsupportedGroup,
    block_action,
    galois_width,
    is_even_subgroup,
    is_solvable,
    minimal_nontrivial_blocks,
    orbits,
    parse_perm_script,
)
from monogal.monodromy import export_perm_script
from monogal.slp import EvaluationSingular, SystemBuilder, compress, evaluate, parse_system, to_source


@st.composite
def generator_sets(draw, max_degree=6, max_gens=4):
    """A degree in 1..max_degree and up to max_gens permutations of it."""
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=max_gens))
    return degree, [Permutation(g) for g in gens]


def closure(degree, gens):
    # Breadth-first closure of the identity under right multiplication by
    # the generators; in a finite group that is the whole generated group.
    seen = {Permutation.identity(degree)}
    frontier = list(seen)
    while frontier:
        frontier = [p * g for p in frontier for g in gens]
        frontier = [q for q in dict.fromkeys(frontier) if q not in seen]
        seen.update(frontier)
    return seen


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.data())
def test_order_matches_brute_force_closure(case, data):
    degree, gens = case
    group, elements = PermGroup(degree, gens), closure(degree, gens)
    assert group.order() == len(elements)
    members = sorted(p.images for p in elements)
    probes = data.draw(st.lists(st.permutations(range(degree)) | st.sampled_from(members), max_size=4))
    for images in probes:
        assert group.contains(Permutation(images)) == (Permutation(images) in elements)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_perm_script_round_trips(case):
    _, perms = case
    again = parse_perm_script(export_perm_script(perms))
    assert [p.images for p in again] == [p.images for p in perms]


@st.composite
def block_preserving_sets(draw):
    """Up to four permutations of 4 or 6 points that permute the cells of
    one partition into equal cells, so the group is often imprimitive."""
    degree = draw(st.sampled_from([4, 6]))
    size = draw(st.sampled_from([b for b in (2, 3) if degree % b == 0]))
    cells = degree // size
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        sigma = draw(st.permutations(range(cells)))
        images = []
        for c in range(cells):
            tau = draw(st.permutations(range(size)))
            images += [sigma[c] * size + t for t in tau]
        gens.append(Permutation(images))
    return degree, gens


@st.composite
def padded_generator_sets(draw):
    """A generator set and the same set with redundant products of its
    generators shuffled in among them."""
    degree, gens = draw(st.one_of(generator_sets(), block_preserving_sets()))
    words = draw(st.lists(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=4),
                          max_size=4)) if gens else []
    products = []
    for word in words:
        p = Permutation.identity(degree)
        for i in word:
            p = p * gens[i]
        products.append(p)
    return degree, gens, draw(st.permutations(gens + products))


def _outcome(f, group):
    try:
        return f(group)
    except (NotTransitive, UnsupportedGroup) as exc:
        return type(exc).__name__


def _analysis(group):
    return (group.order(), orbits(group), _outcome(minimal_nontrivial_blocks, group),
            is_even_subgroup(group), is_solvable(group), _outcome(galois_width, group))


@settings(max_examples=150, deadline=None)
@given(padded_generator_sets())
def test_analysis_depends_on_the_group_not_its_generator_list(case):
    degree, gens, padded = case
    group, same = PermGroup(degree, gens), PermGroup(degree, padded)
    assert _analysis(same) == _analysis(group)
    blocks = _outcome(minimal_nontrivial_blocks, same)
    if blocks not in (None, "NotTransitive"):
        image, kernel = block_action(same, blocks)
        assert image.order() * kernel.order() == same.order()


@st.composite
def nested_block_sets(draw):
    """Two to four elements of S2 wr S2 wr S2 on 8 points, relabelled: each
    preserves the pairs 4q+2r+{0,1} and the quadruples 4q+{0..3} of the
    construction, so a transitive group has nested block systems."""
    relabel = draw(st.permutations(range(8)))
    swap = st.permutations(range(2))
    gens = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        top = draw(swap)
        images = [0] * 8
        for q in range(2):
            mid = draw(swap)
            for r in range(2):
                low = draw(swap)
                for s in range(2):
                    images[relabel[4 * q + 2 * r + s]] = relabel[4 * top[q] + 2 * mid[r] + low[s]]
        gens.append(Permutation(images))
    return gens


def set_partitions(n):
    """Every partition of range(n) into cells, each cell sorted and the
    cells ordered by their smallest point."""
    parts = [[]]
    for p in range(n):
        parts = [cells[:i] + [cells[i] + [p]] + cells[i + 1:] for cells in parts for i in range(len(cells))] \
            + [cells + [[p]] for cells in parts]
    return [tuple(map(tuple, cells)) for cells in parts]


PARTITIONS_8 = set_partitions(8)


def _preserved(cells, gens):
    cell_of = {p: i for i, cell in enumerate(cells) for p in cell}
    return all(len({cell_of[g(p)] for p in cell}) == 1 for g in gens for cell in cells)


def _refines(finer, coarser):
    return all(any(set(a) <= set(b) for b in coarser) for a in finer)


@settings(max_examples=60, deadline=None)
@given(nested_block_sets())
def test_minimal_nontrivial_blocks_has_no_finer_invariant_partition(gens):
    assert len(PARTITIONS_8) == 4140  # Bell(8)
    group = PermGroup(8, gens)
    assume(len(orbits(group)) == 1)
    invariant = [cells for cells in PARTITIONS_8 if 1 < len(cells) < 8 and _preserved(cells, gens)]
    blocks = minimal_nontrivial_blocks(group)
    if blocks is None:
        assert invariant == []
        return
    assert blocks.cells in invariant
    assert not any(cells != blocks.cells and _refines(cells, blocks.cells) for cells in invariant)


LEAVES = ("a", "b", "x", "y", 0.0, 1.0, -2.5, 1j, 0.5 - 2j, 1e400)
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@st.composite
def small_systems(draw):
    """A builder over parameters a, b and unknowns x, y, and one to three
    expression trees of depth at most 3 on it; the first always combines a
    subtree with the constant 1e400."""
    b = SystemBuilder(parameters=("a", "b"), unknowns=("x", "y"))

    def expr(depth):
        if depth == 0 or draw(st.booleans()):
            leaf = draw(st.sampled_from(LEAVES))
            if leaf in ("a", "b"):
                return b.param(leaf)
            return b.unknown(leaf) if leaf in ("x", "y") else b.const(leaf)
        op = draw(st.sampled_from((*BINARY, "neg", "^")))
        left = expr(depth - 1)
        if op == "neg":
            return -left
        if op == "^":
            return left ** draw(st.integers(min_value=2, max_value=3))
        return BINARY[op](left, expr(depth - 1))

    outputs = [BINARY[draw(st.sampled_from(list(BINARY)))](expr(2), b.const(1e400))]
    outputs += [expr(3) for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    return b, outputs


POINTS = [(np.array([0.3 - 1.1j, -0.7 + 0.2j]), np.array([1.4 + 0.5j, -0.2 - 0.9j])),
          (np.array([-1.6 + 0.4j, 0.8 + 1.3j]), np.array([0.6 - 0.3j, 2.1 + 0.7j]))]


def _values(system, z, x):
    try:
        return evaluate(system, z, x)
    except EvaluationSingular:
        return None


def _close(u, v, tol):
    # Real and imaginary parts apart, so that infinities and NaNs compare
    # part by part.
    return all(np.allclose(part(u), part(v), rtol=tol, atol=tol, equal_nan=True) for part in (np.real, np.imag))


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_printed_system_evaluates_like_the_original(case):
    b, outputs = case
    system = b.finish(outputs)
    again = parse_system(to_source(system))
    for z, x in POINTS:
        want, got = _values(system, z, x), _values(again, z, x)
        assert (want is None) == (got is None)
        if want is not None:
            assert _close(got, want, 1e-12)


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_compress_keeps_finite_values(case):
    # Identity elimination (x*1 -> x, x*0 -> 0, x-x -> 0) is exact on finite
    # values only: IEEE complex arithmetic on an infinity yields NaN parts,
    # which the eliminated operation would have produced. So each output is
    # compared where the original evaluates to a finite value.
    b, outputs = case
    for out in outputs:
        system = b.finish([out])
        small = compress(system)
        for z, x in POINTS:
            want = _values(system, z, x)
            if want is not None and np.isfinite(want).all():
                got = _values(small, z, x)
                assert got is not None and _close(got, want, 1e-9)
