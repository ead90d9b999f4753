"""Property tests for the exact group code and the perm-script codec."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from monogal.groups import PermGroup, Permutation, parse_perm_script
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
