from __future__ import annotations

import math

import numpy as np
import pytest

from monogal.groups import (
    BlockSystem,
    InvalidBlocks,
    NotTransitive,
    PermGroup,
    Permutation,
    UnsupportedGroup,
    block_action,
    galois_width,
    is_even_subgroup,
    is_natural_sym_or_alt,
    is_solvable,
    minimal_blocks,
    minimal_nontrivial_blocks,
    orbits,
    parse_perm_script,
)


def cycle(degree, points):
    """Permutation moving points[k] -> points[k+1] cyclically."""
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return Permutation(images)


def sym(n):
    return PermGroup(n, [cycle(n, list(range(n))), cycle(n, [0, 1])])


def alt(n):
    # (0 1 2) together with an n-cycle (n odd) or (1 .. n-1)-cycle (n even).
    if n % 2 == 1:
        return PermGroup(n, [cycle(n, [0, 1, 2]), cycle(n, list(range(n)))])
    return PermGroup(n, [cycle(n, [0, 1, 2]), cycle(n, list(range(1, n)))])


def dihedral4():
    return PermGroup(4, [cycle(4, [0, 1, 2, 3]), Permutation([0, 3, 2, 1])])


def klein4():
    return PermGroup(4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])


def frobenius20():
    # x -> x+1 and x -> 2x on Z/5.
    return PermGroup(5, [cycle(5, [0, 1, 2, 3, 4]), Permutation([0, 2, 4, 1, 3])])


def psl25():
    # Projective line over F5, points (0, 1, 2, 3, 4, inf): x -> x+1 and
    # x -> -1/x. Primitive, non-solvable, order 60, and not a natural Alt/Sym.
    s = Permutation([1, 2, 3, 4, 0, 5])
    t = Permutation([5, 4, 2, 3, 1, 0])
    return PermGroup(6, [s, t])


# Twenty-degree generators produced by a five-point monodromy run.
FIVEPOINT_GENERATORS = [
    [18, 5, 15, 10, 3, 11, 8, 9, 19, 6, 20, 13, 14, 1, 17, 7, 4, 16, 12, 2],
    [5, 3, 6, 1, 2, 16, 11, 4, 17, 9, 18, 14, 12, 8, 13, 15, 19, 20, 7, 10],
    [1, 6, 11, 2, 5, 3, 16, 14, 10, 4, 7, 8, 13, 9, 15, 12, 18, 17, 19, 20],
    [18, 11, 8, 16, 2, 13, 10, 5, 1, 7, 15, 9, 12, 6, 17, 4, 3, 14, 19, 20],
    [16, 7, 17, 19, 1, 13, 14, 5, 9, 3, 11, 10, 15, 18, 4, 20, 6, 8, 12, 2],
    [1, 11, 3, 2, 16, 6, 10, 8, 5, 7, 13, 9, 4, 14, 15, 12, 18, 17, 19, 20],
    [3, 6, 5, 20, 16, 18, 10, 17, 1, 7, 15, 8, 4, 13, 14, 19, 2, 12, 9, 11],
    [6, 9, 10, 2, 19, 1, 5, 15, 16, 13, 4, 11, 20, 7, 8, 12, 18, 17, 14, 3],
    [5, 3, 6, 1, 2, 16, 11, 4, 17, 9, 18, 14, 12, 8, 13, 15, 19, 20, 7, 10],
    [9, 16, 18, 7, 15, 13, 8, 5, 3, 6, 14, 4, 1, 17, 11, 10, 19, 20, 12, 2],
    [15, 9, 14, 18, 8, 7, 16, 10, 12, 4, 2, 11, 6, 3, 1, 17, 13, 5, 20, 19],
    [15, 13, 2, 11, 8, 18, 3, 17, 4, 14, 16, 5, 6, 12, 1, 9, 19, 20, 10, 7],
    [15, 14, 12, 4, 19, 18, 13, 17, 7, 5, 10, 3, 20, 2, 1, 16, 8, 6, 9, 11],
    [6, 11, 2, 5, 1, 14, 10, 3, 4, 7, 16, 9, 15, 12, 8, 13, 18, 17, 19, 20],
    [4, 20, 17, 2, 5, 7, 11, 10, 1, 9, 15, 19, 13, 18, 16, 12, 3, 14, 6, 8],
    [1, 17, 9, 7, 2, 8, 3, 6, 19, 14, 20, 18, 12, 11, 15, 10, 16, 4, 5, 13],
    [20, 7, 8, 5, 2, 1, 3, 15, 4, 14, 16, 10, 12, 6, 19, 13, 9, 11, 17, 18],
    [15, 14, 6, 19, 18, 13, 2, 5, 4, 12, 16, 3, 17, 8, 1, 20, 11, 9, 10, 7],
    [2, 16, 20, 9, 18, 3, 6, 14, 7, 8, 10, 4, 17, 19, 12, 11, 5, 13, 15, 1],
]


def fivepoint_group():
    return PermGroup(20, [Permutation([v - 1 for v in images]) for images in FIVEPOINT_GENERATORS])


# ------------------------------------------------------------
# permutations
# ------------------------------------------------------------


def test_permutation_composition_order():
    p = Permutation([1, 0, 2])  # swap 0,1
    q = Permutation([0, 2, 1])  # swap 1,2
    # (p * q)(x) = q(p(x)): p first.
    assert (p * q).images == (2, 0, 1)
    assert (q * p).images == (1, 2, 0)


def test_permutation_inverse_and_identity():
    p = Permutation([2, 0, 3, 1])
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert Permutation.identity(4).images == (0, 1, 2, 3)
    assert p(0) == 2 and p(3) == 1


def test_permutation_parity():
    assert not Permutation([1, 0, 2]).is_even()  # transposition
    assert Permutation([1, 2, 0]).is_even()  # 3-cycle
    assert Permutation.identity(5).is_even()
    assert Permutation([1, 0, 3, 2]).is_even()  # product of two transpositions


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])


def test_permutation_moved_points_and_equality():
    p = Permutation([0, 2, 1, 3])
    assert p.moved_points() == [1, 2]
    assert p == Permutation([0, 2, 1, 3])
    assert p != Permutation([0, 1, 2, 3])
    assert len({p, Permutation([0, 2, 1, 3])}) == 1


def test_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation([1, 0]) * Permutation([1, 0, 2])
    with pytest.raises(ValueError):
        PermGroup(3, [Permutation([1, 0])])


# ------------------------------------------------------------
# order and membership
# ------------------------------------------------------------


def test_order_symmetric_groups():
    for n in (2, 3, 4, 6, 10):
        assert sym(n).order() == math.factorial(n)


def test_order_standard_groups():
    assert alt(5).order() == 60
    assert dihedral4().order() == 8
    assert klein4().order() == 4
    assert frobenius20().order() == 20
    assert PermGroup(5, []).order() == 1
    assert psl25().order() == 60


def test_order_invariant_under_generator_presentation():
    rng = np.random.default_rng(0)
    base = sym(6)
    gens = list(base.generators)
    # More generators, shuffled, conjugated: same group order.
    big = gens + [gens[0] * gens[1], gens[1] * gens[0] * gens[1]]
    rng.shuffle(big)
    assert PermGroup(6, big).order() == 720
    c = Permutation([3, 0, 4, 1, 5, 2])
    conj = [c.inverse() * g * c for g in gens]
    assert PermGroup(6, conj).order() == 720


def test_contains():
    g = alt(4)
    assert g.contains(Permutation([1, 2, 0, 3]))
    assert g.contains(Permutation([1, 0, 3, 2]))
    assert not g.contains(Permutation([1, 0, 2, 3]))  # odd
    assert not g.contains(Permutation([1, 0]))  # wrong degree
    assert g.contains(Permutation.identity(4))


def test_reduced_generators():
    a = cycle(4, [0, 1, 2, 3])
    b = cycle(4, [0, 1])
    group = PermGroup(4, [Permutation.identity(4), a, b, a * b, b * a])
    reduced = group.reduced_generators()
    assert len(reduced) == 2
    assert PermGroup(4, reduced).order() == 24


def test_lagrange_for_subgroup_orders():
    g = sym(5)
    for sub in (alt(5), frobenius20(), PermGroup(5, [cycle(5, [0, 1])])):
        assert g.order() % sub.order() == 0


# ------------------------------------------------------------
# orbits and blocks
# ------------------------------------------------------------


def test_orbits_partition():
    g = PermGroup(5, [Permutation([1, 0, 2, 3, 4]), Permutation([0, 1, 3, 4, 2])])
    assert orbits(g) == [(0, 1), (2, 3, 4)]
    assert orbits(sym(4)) == [(0, 1, 2, 3)]
    assert orbits(PermGroup(3, [])) == [(0,), (1,), (2,)]


def test_minimal_blocks_dihedral():
    blocks = minimal_blocks(dihedral4(), (0, 2))
    assert blocks is not None
    assert blocks.cells == ((0, 2), (1, 3))
    # Merging adjacent vertices forces everything together.
    assert minimal_blocks(dihedral4(), (0, 1)) is None


def test_minimal_blocks_validation():
    with pytest.raises(NotTransitive):
        minimal_blocks(PermGroup(4, [Permutation([1, 0, 2, 3])]), (0, 1))
    with pytest.raises(ValueError):
        minimal_blocks(dihedral4(), (0, 0))
    with pytest.raises(ValueError):
        minimal_blocks(dihedral4(), (0, 7))


def test_minimal_nontrivial_blocks():
    assert minimal_nontrivial_blocks(dihedral4()).cells == ((0, 2), (1, 3))
    assert minimal_nontrivial_blocks(PermGroup(4, [cycle(4, [0, 1, 2, 3])])).cells == ((0, 2), (1, 3))
    assert minimal_nontrivial_blocks(alt(5)) is None  # primitive
    assert minimal_nontrivial_blocks(sym(6)) is None
    with pytest.raises(NotTransitive):
        minimal_nontrivial_blocks(PermGroup(4, [Permutation([1, 0, 2, 3])]))


def test_minimal_nontrivial_blocks_prefers_the_finer_system():
    # Nested systems: the blocks {0,1,2,3} | {4,5,6,7} are unions of the
    # blocks {0,3} | {1,2} | {4,7} | {5,6}, and (0,1) has a smaller first
    # cell than (0,3), so ranking by the first cell alone picked the coarse one.
    g = PermGroup(8, [cycle(8, [0, 3]), Permutation([1, 0, 3, 2, 5, 4, 7, 6]),
                      Permutation([4, 5, 6, 7, 0, 1, 2, 3])])
    assert g.order() == 64 and len(orbits(g)) == 1
    assert minimal_nontrivial_blocks(g).cells == ((0, 3), (1, 2), (4, 7), (5, 6))


def test_block_system_validation():
    with pytest.raises(ValueError):
        BlockSystem(((0, 1), (2,)))  # unequal sizes
    with pytest.raises(ValueError):
        BlockSystem(((0, 1), (1, 2)))  # not a partition
    bs = BlockSystem(((0, 1), (2, 3)))
    assert bs.degree == 4 and bs.block_size == 2 and bs.num_cells == 2


def test_block_action_dihedral():
    g = dihedral4()
    image, kernel = block_action(g, BlockSystem(((0, 2), (1, 3))))
    assert image.order() == 2
    assert kernel.order() == 4
    assert image.order() * kernel.order() == g.order()
    # Kernel elements preserve each cell.
    for k in kernel.generators:
        for cell in ((0, 2), (1, 3)):
            assert {k(p) for p in cell} == set(cell)


def test_block_action_klein():
    image, kernel = block_action(klein4(), BlockSystem(((0, 1), (2, 3))))
    assert image.order() == 2
    assert kernel.order() == 2
    assert image.order() * kernel.order() == 4


def test_block_action_invalid_partition():
    with pytest.raises(InvalidBlocks):
        block_action(sym(4), BlockSystem(((0, 1), (2, 3))))
    with pytest.raises(InvalidBlocks):
        block_action(sym(4), BlockSystem(((0, 1, 2),)))


# ------------------------------------------------------------
# classification helpers
# ------------------------------------------------------------


def test_natural_sym_alt_recognition():
    assert is_natural_sym_or_alt(sym(5)) == ("Sym", 5)
    assert is_natural_sym_or_alt(alt(5)) == ("Alt", 5)
    assert is_natural_sym_or_alt(alt(6)) == ("Alt", 6)
    assert is_natural_sym_or_alt(dihedral4()) is None
    assert is_natural_sym_or_alt(PermGroup(4, [cycle(4, [0, 1, 2, 3])])) is None
    assert is_natural_sym_or_alt(psl25()) is None
    assert is_natural_sym_or_alt(PermGroup(3, [])) is None


def test_natural_sym_on_support():
    # S3 living on points {1, 3, 4} of a degree-6 domain.
    g = PermGroup(6, [Permutation([0, 3, 2, 4, 1, 5]), Permutation([0, 3, 2, 1, 4, 5])])
    assert is_natural_sym_or_alt(g) == ("Sym", 3)


def test_is_solvable():
    assert is_solvable(sym(4))
    assert is_solvable(dihedral4())
    assert is_solvable(frobenius20())
    assert is_solvable(PermGroup(3, []))
    assert not is_solvable(alt(5))
    assert not is_solvable(sym(5))
    assert not is_solvable(psl25())


def test_is_even_subgroup():
    assert is_even_subgroup(alt(4))
    assert is_even_subgroup(klein4())
    assert not is_even_subgroup(sym(4))
    assert is_even_subgroup(PermGroup(4, []))


# ------------------------------------------------------------
# galois width
# ------------------------------------------------------------


def test_width_trivial_group():
    assert galois_width(PermGroup(1, [])) == 1
    assert galois_width(PermGroup(7, [])) == 1


def test_width_natural_symmetric():
    for n in (3, 5, 6, 7, 10):
        assert galois_width(sym(n)) == n
    assert galois_width(sym(4)) == 3  # the degree-4 exception


def test_width_natural_alternating():
    assert galois_width(alt(4)) == 3
    assert galois_width(alt(5)) == 5
    assert galois_width(alt(6)) == 6


def test_width_prime_cycles():
    for p in (2, 3, 5, 7, 11, 13):
        assert galois_width(PermGroup(p, [cycle(p, list(range(p)))])) == p


def test_width_solvable_groups():
    assert galois_width(PermGroup(6, [cycle(6, list(range(6)))])) == 3  # C6
    assert galois_width(PermGroup(4, [cycle(4, [0, 1, 2, 3])])) == 2  # C4
    assert galois_width(dihedral4()) == 2
    assert galois_width(klein4()) == 2
    assert galois_width(frobenius20()) == 5


def test_width_intransitive():
    # S3 on {0,1,2} and C2 on {3,4}: max over the orbit restrictions.
    g = PermGroup(
        5,
        [Permutation([1, 2, 0, 3, 4]), Permutation([1, 0, 2, 3, 4]), Permutation([0, 1, 2, 4, 3])],
    )
    assert galois_width(g) == 3


def test_width_unsupported_group():
    with pytest.raises(UnsupportedGroup) as info:
        galois_width(psl25())
    assert info.value.order == 60
    assert info.value.degree == 6
    assert "order 60" in str(info.value)
    assert "degree 6" in str(info.value)


def test_fivepoint_group_structure():
    g = fivepoint_group()
    assert g.order() == 1857945600  # 2^9 * 10!
    assert is_even_subgroup(g)
    blocks = minimal_nontrivial_blocks(g)
    expected = ((0, 14), (1, 11), (2, 13), (3, 15), (4, 12), (5, 7), (6, 9), (8, 10), (16, 17), (18, 19))
    assert blocks.cells == expected
    image, kernel = block_action(g, blocks)
    assert image.order() == math.factorial(10)
    assert kernel.order() == 2 ** 9
    assert image.order() * kernel.order() == g.order()
    assert galois_width(g) == 10


def test_width_wreath_like_product():
    # C2 acting inside each of three pairs plus S3 permuting the pairs: the
    # kernel/image split gives max(2, 3) = 3.
    swap0 = Permutation([1, 0, 2, 3, 4, 5])
    pair_cycle = Permutation([2, 3, 4, 5, 0, 1])
    pair_swap = Permutation([2, 3, 0, 1, 4, 5])
    g = PermGroup(6, [swap0, pair_cycle, pair_swap])
    assert galois_width(g) == 3


# ------------------------------------------------------------
# perm-script parsing
# ------------------------------------------------------------


def test_parse_perm_script_basic():
    text = "p0:= PermList([2, 3, 1]);\np1:= PermList([2, 1, 3]);\nG:=Group(p0, p1);"
    perms = parse_perm_script(text)
    assert len(perms) == 2
    assert perms[0].images == (1, 2, 0)
    assert perms[1].images == (1, 0, 2)


def test_parse_perm_script_skips_blank_lines():
    text = "\np0:= PermList([1, 2]);\n\nG:=Group(p0);\n\n"
    perms = parse_perm_script(text)
    assert len(perms) == 1
    assert perms[0].is_identity()


def test_parse_perm_script_flexible_whitespace():
    perms = parse_perm_script("  q7 :=  PermList([3,1,2])  ; ")
    assert perms[0].images == (2, 0, 1)


def test_parse_perm_script_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_perm_script("p0:= PermList([1, 1]);")  # not a bijection
    with pytest.raises(ValueError, match="line 2"):
        parse_perm_script("p0:= PermList([1]);\nwhat is this")
    with pytest.raises(ValueError, match="line 1"):
        parse_perm_script("p0:= PermList([]);")
    with pytest.raises(ValueError, match="line 1"):
        parse_perm_script("p0:= PermList([1, x]);")
    with pytest.raises(ValueError):
        parse_perm_script("p0:= PermList([0, 1]);")  # 0 is not a 1-based image


def test_parse_perm_script_round_trips_fivepoint_listing():
    lines = [f"p{k}:= PermList([{', '.join(str(v) for v in images)}]);" for k, images in enumerate(FIVEPOINT_GENERATORS)]
    lines.append("G:=Group(" + ", ".join(f"p{k}" for k in range(len(FIVEPOINT_GENERATORS))) + ");")
    perms = parse_perm_script("\n".join(lines))
    assert len(perms) == 19
    assert PermGroup(20, perms).order() == 1857945600


def test_parse_perm_script_generators_are_the_group_line_names():
    text = (
        "a:= PermList([2, 1, 3]);\n"
        "b:= PermList([2, 3, 1]);\n"
        "unused:= PermList([1, 3, 2]);\n"
        "G:=Group(b, a);"
    )
    assert [p.images for p in parse_perm_script(text)] == [(1, 2, 0), (1, 0, 2)]


def test_parse_perm_script_without_group_line_keeps_every_permlist():
    perms = parse_perm_script("a:= PermList([2, 1, 3]);\nb:= PermList([1, 3, 2]);")
    assert [p.images for p in perms] == [(1, 0, 2), (0, 2, 1)]


def test_parse_perm_script_empty_group_line_has_no_generators():
    assert parse_perm_script("p0:= PermList([2, 1]);\nG:=Group();") == []


def test_parse_perm_script_group_line_errors():
    with pytest.raises(ValueError, match="line 2: .*undefined.*'p1'"):
        parse_perm_script("p0:= PermList([2, 1]);\nG:=Group(p0, p1);")
    with pytest.raises(ValueError, match="line 1: .*undefined"):
        parse_perm_script("G:=Group(p0);\np0:= PermList([2, 1]);")  # named before defined
    with pytest.raises(ValueError, match="line 3: second Group line"):
        parse_perm_script("p0:= PermList([2, 1]);\nG:=Group(p0);\nH:=Group(p0);")
