"""Permutation-group analysis of monodromy output.

Permutations act on solution indices, 0-based internally (1-based only in
the perm-script text format). Each group carries one lazily, incrementally
built deterministic stabilizer chain (base points, transversals, strong
generators) that backs exact order computation, membership and the reduced
generator list every analysis reads; block-action kernels come from a chain
seeded with the cell positions. Transversals store inverse coset
representatives, so sifting never inverts; `orbits` is the one orbit search.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Permutation",
    "PermGroup",
    "BlockSystem",
    "NotTransitive",
    "InvalidBlocks",
    "UnsupportedGroup",
    "orbits",
    "minimal_blocks",
    "minimal_nontrivial_blocks",
    "block_action",
    "is_natural_sym_or_alt",
    "is_solvable",
    "galois_width",
    "is_even_subgroup",
    "parse_perm_script",
]


class NotTransitive(ValueError):
    """The operation requires a transitive group."""


class InvalidBlocks(ValueError):
    """The partition is not preserved by the group."""


class UnsupportedGroup(ValueError):
    """Primitive, non-solvable, non-natural-Sym/Alt group: width not computed."""

    def __init__(self, order: int, degree: int):
        super().__init__(f"cannot compute Galois width: primitive non-solvable group of order {order}, degree {degree}")
        self.order = order
        self.degree = degree


# ============================================================
# Permutations
# ============================================================


class Permutation:
    """A bijection on {0, ..., d-1}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        t = tuple(int(v) for v in images)
        if sorted(t) != list(range(len(t))):
            raise ValueError(f"not a bijection on 0..{len(t) - 1}: {t}")
        self.images = t

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(x) = q(p(x)): apply self first, then other.
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(_mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inv(self.images))

    def is_identity(self) -> bool:
        return all(v == idx for idx, v in enumerate(self.images))

    def is_even(self) -> bool:
        seen = [False] * len(self.images)
        cycles = 0
        for start in range(len(self.images)):
            if not seen[start]:
                cycles += 1
                p = start
                while not seen[p]:
                    seen[p] = True
                    p = self.images[p]
        return (len(self.images) - cycles) % 2 == 0

    def moved_points(self) -> list[int]:
        return [idx for idx, v in enumerate(self.images) if v != idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


# Raw-tuple helpers: the one composition and the one inversion.


def _mul(a: tuple, b: tuple) -> tuple:
    # Apply a first, then b.
    return tuple(b[v] for v in a)


def _inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for src, dst in enumerate(a):
        out[dst] = src
    return tuple(out)


def _smallest_moved(a: tuple) -> int:
    for idx, v in enumerate(a):
        if v != idx:
            return idx
    raise ValueError("identity permutation has no moved point")


# ============================================================
# Deterministic stabilizer chain (Schreier-Sims)
# ============================================================


class _Chain:
    """Base, per-level strong generators, per-level transversals.

    The one constructor: `_Chain(degree, base, gens)` seeds the base points
    and adds the generators in order. Built incrementally: `add` sifts one
    element in and re-closes the chain, so every level's strong generators
    generate the stabilizer of the base points before it.

    transversals[i] maps each point p of the orbit of base[i] to the inverse
    of its coset representative, the element that sends p back to base[i].
    """

    __slots__ = ("degree", "base", "levels", "transversals")

    def __init__(self, degree: int, base: Sequence[int] = (), gens: Iterable[tuple] = ()):
        ident = tuple(range(degree))
        self.degree = degree
        self.base = list(base)
        # levels[i]: strong generators fixing base[:i]
        self.levels: list[list[tuple]] = [[] for _ in self.base]
        self.transversals: list[dict[int, tuple]] = [{b: ident} for b in self.base]
        for g in gens:
            self.add(g)

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def strip(self, g: tuple, lo: int = 0) -> tuple[tuple, int]:
        """Sifts g through levels >= lo; returns (residue, level reached)."""
        for lvl in range(lo, len(self.base)):
            p = g[self.base[lvl]]
            back = self.transversals[lvl].get(p)
            if back is None:
                return g, lvl
            g = _mul(g, back)
        return g, len(self.base)

    def contains(self, g: tuple) -> bool:
        return self.strip(g)[0] == tuple(range(self.degree))

    def add(self, g: tuple) -> bool:
        """Extends the group by g; False when g was already a member."""
        residue, j = self.strip(g)
        if residue == tuple(range(self.degree)):
            return False
        self._extend(residue, 0, j)
        self._close(j)
        return True

    def _extend(self, residue: tuple, lo: int, hi: int) -> None:
        # residue fixes base[:hi]; it joins levels lo..hi, opening a new
        # level when it fixes every base point.
        if hi == len(self.base):
            self.base.append(_smallest_moved(residue))
            self.levels.append([])
            self.transversals.append({})
        for lvl in range(lo, hi + 1):
            self.levels[lvl].append(residue)
            self.transversals[lvl] = _orbit_transversal(self.levels[lvl], self.base[lvl], self.degree)

    def _close(self, i: int) -> None:
        # Levels above i are complete. A Schreier generator of level i that
        # does not sift through them extends the chain, and the check
        # resumes at the level its residue fell out of.
        while i >= 0:
            found = self._schreier_residue(i)
            if found is None:
                i -= 1
            else:
                residue, j = found
                self._extend(residue, i + 1, j)
                i = j

    def _schreier_residue(self, i: int) -> tuple[tuple, int] | None:
        ident = tuple(range(self.degree))
        trans = self.transversals[i]
        for p in sorted(trans):
            up = _inv(trans[p])
            for g in self.levels[i]:
                sch = _mul(_mul(up, g), trans[g[p]])
                if sch != ident:
                    residue, j = self.strip(sch, i + 1)
                    if residue != ident:
                        return residue, j
        return None


def _orbit_transversal(gens: list[tuple], beta: int, degree: int) -> dict[int, tuple]:
    # Breadth-first over the orbit of beta. The representative of q = g[p]
    # is rep[p] * g, so the stored inverse is g^-1 * back[p].
    back = {beta: tuple(range(degree))}
    queue = [beta]
    moves = [(g, _inv(g)) for g in gens]
    while queue:
        p = queue.pop(0)
        for g, ginv in moves:
            q = g[p]
            if q not in back:
                back[q] = _mul(ginv, back[p])
                queue.append(q)
    return back


# ============================================================
# Permutation groups
# ============================================================


class PermGroup:
    """Group generated by permutations of a common degree.

    One stabilizer chain is built lazily, on the first call that needs it,
    by adding the generators in order; a generator the chain already
    contains is left out of reduced_generators(). Every analysis function
    reads the group through that reduced list, never the raw generators.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        self.degree = int(degree)
        gens = tuple(generators)
        for g in gens:
            if g.degree != self.degree:
                raise ValueError(f"generator degree {g.degree} != group degree {self.degree}")
        self.generators = gens
        self._chain: _Chain | None = None
        self._reduced: list[Permutation] = []

    def _ensure_chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self.degree)
            self._reduced = [g for g in self.generators if self._chain.add(g.images)]
        return self._chain

    def reduced_generators(self) -> list[Permutation]:
        """A sub-list of the generators that still generates the group."""
        self._ensure_chain()
        return list(self._reduced)

    def order(self) -> int:
        return self._ensure_chain().order()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self._ensure_chain().contains(p.images)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"


def orbits(group: PermGroup) -> list[tuple[int, ...]]:
    """Orbit partition of {0..d-1}; cells sorted, ordered by minimal element."""
    gens = [g.images for g in group.reduced_generators()]
    remaining = set(range(group.degree))
    cells = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        queue = [start]
        while queue:
            p = queue.pop(0)
            for g in gens:
                q = g[p]
                if q not in orbit:
                    orbit.add(q)
                    queue.append(q)
        cells.append(tuple(sorted(orbit)))
        remaining -= orbit
    return cells


@dataclass(frozen=True)
class BlockSystem:
    """Partition of {0..d-1} into equal-size cells permuted by the group."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = {len(c) for c in self.cells}
        if len(sizes) != 1:
            raise ValueError("block cells must have equal size")
        pts = sorted(p for c in self.cells for p in c)
        if pts != list(range(len(pts))):
            raise ValueError("block cells must partition 0..d-1")

    @property
    def degree(self) -> int:
        return sum(len(c) for c in self.cells)

    @property
    def block_size(self) -> int:
        return len(self.cells[0])

    @property
    def num_cells(self) -> int:
        return len(self.cells)


def _check_transitive(group: PermGroup) -> None:
    count = len(orbits(group))
    if count > 1:
        raise NotTransitive(f"group has {count} orbits")


def minimal_blocks(group: PermGroup, pair: tuple[int, int]) -> BlockSystem | None:
    """Minimal block system with the two given points co-celled.

    Union-find refinement: start from the merged pair and close under the
    generators until the partition is group-invariant. Returns None when the
    closure is the trivial single cell of all points.

    Raises:
        NotTransitive: the group is not transitive.
    """
    _check_transitive(group)
    a, b = pair
    d = group.degree
    if not (0 <= a < d and 0 <= b < d) or a == b:
        raise ValueError(f"bad point pair {pair}")
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> int:
        rx, ry = find(x), find(y)
        if rx == ry:
            return rx
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return ry  # the absorbed representative

    gens = [g.images for g in group.reduced_generators()]
    queue = [union(a, b)]
    while queue:
        c = queue.pop()
        r = find(c)
        for g in gens:
            x, y = g[c], g[r]
            if find(x) != find(y):
                queue.append(union(x, y))
    cells_by_root: dict[int, list[int]] = {}
    for p in range(d):
        cells_by_root.setdefault(find(p), []).append(p)
    if len(cells_by_root) == 1:
        return None
    cells = sorted((tuple(sorted(c)) for c in cells_by_root.values()), key=lambda c: c[0])
    return BlockSystem(tuple(cells))


def minimal_nontrivial_blocks(group: PermGroup) -> BlockSystem | None:
    """Scans pairs (0, j); returns a minimal nontrivial block system if any.

    Each pair's system has the smallest block holding 0 and j. The candidate
    with the smallest blocks holds the smallest nontrivial block containing
    0, so no nontrivial block system strictly refines it; ties go to the
    lexicographically smallest first cell (deterministic). Returns None for
    a primitive group.
    """
    _check_transitive(group)
    systems = [minimal_blocks(group, (0, j)) for j in range(1, group.degree)]
    return min((s for s in systems if s is not None), key=lambda s: (s.block_size, s.cells[0]), default=None)


def block_action(group: PermGroup, blocks: BlockSystem) -> tuple[PermGroup, PermGroup]:
    """Induced action on cells plus its kernel on points.

    Each generator is paired with its induced cell permutation on a combined
    domain (cells first, then points) and a stabilizer chain is built with
    every cell position seeded into the base. Strong generators below the
    cell levels act trivially on every cell, so their point parts generate
    the kernel. |image| * |kernel| = |G|.

    Raises:
        InvalidBlocks: the partition is not preserved by some generator.
    """
    d = group.degree
    if blocks.degree != d:
        raise InvalidBlocks(f"block system degree {blocks.degree} != group degree {d}")
    k = blocks.num_cells
    cell_of = [0] * d
    for idx, cell in enumerate(blocks.cells):
        for p in cell:
            cell_of[p] = idx

    image_gens = []
    pair_gens = []
    for g in group.reduced_generators():
        cell_img = [-1] * k
        for idx, cell in enumerate(blocks.cells):
            targets = {cell_of[g(p)] for p in cell}
            if len(targets) != 1:
                raise InvalidBlocks(f"generator splits cell {cell}")
            cell_img[idx] = targets.pop()
        if sorted(cell_img) != list(range(k)):
            raise InvalidBlocks("induced cell map is not a bijection")
        image_gens.append(Permutation(cell_img))
        pair_gens.append(tuple(cell_img) + tuple(k + g(p) for p in range(d)))

    chain = _Chain(k + d, range(k), pair_gens)
    kernel_gens = []
    seen = set()
    for g in chain.levels[k] if len(chain.levels) > k else []:
        point_part = tuple(v - k for v in g[k:])
        if point_part not in seen:
            seen.add(point_part)
            kernel_gens.append(Permutation(point_part))
    image = PermGroup(k, image_gens)
    kernel = PermGroup(d, kernel_gens)
    return image, kernel


def is_natural_sym_or_alt(group: PermGroup) -> tuple[str, int] | None:
    """("Sym", n) or ("Alt", n) when the group is the full symmetric or
    alternating group on its n-point support, a single orbit; None otherwise."""
    moving = [orbit for orbit in orbits(group) if len(orbit) > 1]
    if len(moving) != 1:
        return None
    n = len(moving[0])
    size = group.order()
    if size == math.factorial(n):
        return ("Sym", n)
    if size * 2 == math.factorial(n) and all(g.is_even() for g in group.reduced_generators()):
        return ("Alt", n)
    return None


def _normal_closure(group: PermGroup, elements: list[Permutation]) -> PermGroup:
    """Smallest normal subgroup of `group` containing the elements."""
    chain = _Chain(group.degree)
    gens = [e.images for e in elements if chain.add(e.images)]
    conj_by = [(g.images, _inv(g.images)) for g in group.reduced_generators()]
    queue = list(gens)
    while queue:
        n = queue.pop(0)
        for g, ginv in conj_by:
            c = _mul(_mul(ginv, n), g)
            if chain.add(c):
                gens.append(c)
                queue.append(c)
    result = PermGroup(group.degree, [Permutation(t) for t in gens])
    result._chain = chain
    result._reduced = list(result.generators)
    return result


def _derived_subgroup(group: PermGroup) -> PermGroup:
    gens = group.reduced_generators()
    comms = []
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            comms.append(a.inverse() * b.inverse() * a * b)
    return _normal_closure(group, comms)


def is_solvable(group: PermGroup) -> bool:
    """True iff the derived series reaches the trivial group."""
    current = group
    size = current.order()
    while size > 1:
        derived = _derived_subgroup(current)
        dsize = derived.order()
        if dsize == size:
            return False
        current, size = derived, dsize
    return True


def is_even_subgroup(group: PermGroup) -> bool:
    """True iff the group lies in the alternating group."""
    return all(g.is_even() for g in group.reduced_generators())


def _largest_prime_factor(n: int, degree: int) -> int:
    # Prime factors of |G| for G <= S_d never exceed d.
    largest = 1
    for p in range(2, degree + 1):
        while n % p == 0:
            n //= p
            largest = p
    if n != 1:
        raise ValueError(f"leftover factor {n} exceeds the degree bound")
    return largest


def _restrict_to_orbit(group: PermGroup, orbit: tuple[int, ...]) -> PermGroup:
    index = {p: i for i, p in enumerate(orbit)}
    gens = [Permutation(tuple(index[g(p)] for p in orbit)) for g in group.reduced_generators()]
    return PermGroup(len(orbit), gens)


def galois_width(group: PermGroup) -> int:
    """Minimax of subgroup indices over unrefinable subgroup chains.

    Recursion: trivial group -> 1; intransitive -> max over orbit images;
    natural Sym(n)/Alt(n) -> n, except 3 when n = 4; solvable -> largest
    prime factor of the order; transitive imprimitive -> max of the widths
    of the kernel and image of a minimal nontrivial block action.

    Raises:
        UnsupportedGroup: primitive non-solvable group that is not a natural
            symmetric/alternating group (carries order and degree).
    """
    size = group.order()
    if size == 1:
        return 1
    orbs = orbits(group)
    if len(orbs) > 1:
        return max(galois_width(_restrict_to_orbit(group, orbit)) for orbit in orbs)
    natural = is_natural_sym_or_alt(group)
    if natural is not None:
        n = natural[1]
        return 3 if n == 4 else n
    if is_solvable(group):
        return _largest_prime_factor(size, group.degree)
    blocks = minimal_nontrivial_blocks(group)
    if blocks is not None:
        image, kernel = block_action(group, blocks)
        return max(galois_width(kernel), galois_width(image))
    raise UnsupportedGroup(size, group.degree)


# ============================================================
# Perm-script parsing
# ============================================================

_PERMLIST_RE = re.compile(r"^\s*(\w+)\s*:=\s*PermList\(\[([^\]]*)\]\)\s*;\s*$")
_GROUP_RE = re.compile(r"^\s*\w+\s*:=\s*Group\((.*)\)\s*;\s*$")


def parse_perm_script(text: str) -> list[Permutation]:
    """Parses PermList lines (1-based images) into 0-based Permutations.

    The generators are the permutations that the Group line names, in its
    order, each defined by a PermList line above it. Without a Group line
    they are every PermList in file order.

    Raises:
        ValueError: unrecognized line, a non-bijective image list, a second
            Group line, or a Group line naming an undefined permutation.
    """
    perms = []
    named: dict[str, Permutation] = {}
    generators: list[Permutation] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        m = _PERMLIST_RE.match(line)
        if m:
            body = m.group(2).strip()
            if not body:
                raise ValueError(f"line {lineno}: empty image list")
            try:
                images = [int(tok) for tok in body.split(",")]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad image list: {exc}") from None
            if sorted(images) != list(range(1, len(images) + 1)):
                raise ValueError(f"line {lineno}: image list is not a bijection on 1..{len(images)}")
            perm = Permutation([v - 1 for v in images])
            perms.append(perm)
            named[m.group(1)] = perm
            continue
        m = _GROUP_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unrecognized perm-script line")
        if generators is not None:
            raise ValueError(f"line {lineno}: second Group line")
        names = [tok.strip() for tok in m.group(1).split(",")] if m.group(1).strip() else []
        undefined = [name for name in names if name not in named]
        if undefined:
            raise ValueError(f"line {lineno}: Group names undefined permutation(s) "
                             + ", ".join(map(repr, undefined)))
        generators = [named[name] for name in names]
    return perms if generators is None else generators
