"""Property tests for the exact group code and the perm-script codec."""

from __future__ import annotations

from hypothesis import given, settings
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


@st.composite
def generator_sets(draw, max_degree=6, max_gens=4):
    """A degree in 1..max_degree and up to max_gens permutations of it."""
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=max_gens))
    return degree, [Permutation(g) for g in gens]


def closure_size(degree, gens):
    # Breadth-first closure of the identity under right multiplication by
    # the generators; in a finite group that is the whole generated group.
    seen = {Permutation.identity(degree)}
    frontier = list(seen)
    while frontier:
        frontier = [p * g for p in frontier for g in gens]
        frontier = [q for q in dict.fromkeys(frontier) if q not in seen]
        seen.update(frontier)
    return len(seen)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_order_matches_brute_force_closure(case):
    degree, gens = case
    assert PermGroup(degree, gens).order() == closure_size(degree, gens)


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
