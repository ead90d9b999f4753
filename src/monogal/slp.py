"""Straight-line-program representation of parametric systems.

A system of polynomial/rational equations in named unknowns and parameters is
stored as an expression DAG ("gate system"): a flat arena of nodes where every
child id precedes its parents, plus a list of output root ids. The module
provides a text parser for a small system-source grammar, DAG compression
(constant folding, identity elimination, CSE), squaring-up of overdetermined
systems by random complex linear combinations, and the one symbolic
forward-mode differentiation of the DAG (_differentiate), which yields
df/dx or (df/dz) @ v as nodes of a hash-consed arena.

Evaluation is generated code: _compile emits one straight-line Python
function per system from one differentiation arena. It returns after the
stage its caller needs: the values, then df/dx, then (df/dz) @ v. The
public evaluate, jacobian_unknowns, jacobian_parameters and residual call
it and return numpy arrays; the evaluator itself returns the values and the
direction derivative as lists. A squared-up system is evaluated as its
coefficient matrix times its parent's outputs.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GateSystem",
    "SystemBuilder",
    "Expr",
    "EvaluationSingular",
    "RankDeficient",
    "ParseError",
    "UndeclaredIdentifier",
    "DuplicateIdentifier",
    "parse_system",
    "to_source",
    "evaluate",
    "jacobian_unknowns",
    "jacobian_parameters",
    "compress",
    "square_up",
    "residual",
]

# Node tags. A node is a tuple whose first entry is one of these:
#   ("const", complex)   ("unk", index)   ("par", index)
#   ("add", a, b) ("sub", a, b) ("mul", a, b) ("div", a, b)
#   ("neg", a)    ("pow", a, k)  with integer k >= 0
# Derivative arenas built by _differentiate() may also hold ("dir", index),
# the index-th entry of a parameter direction v.
_LEAF_TAGS = ("const", "unk", "par")
_BINARY_TAGS = ("add", "sub", "mul", "div")

# Relative threshold below which a denominator counts as a pole.
_DIV_EPS = 1e-14


class EvaluationSingular(ArithmeticError):
    """A division denominator was (nearly) zero at the evaluation point."""


class RankDeficient(ValueError):
    """A Jacobian rank precondition failed (non-minimal problem or bad seed)."""


class ParseError(ValueError):
    """System-source syntax error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UndeclaredIdentifier(ParseError):
    pass


class DuplicateIdentifier(ParseError):
    pass


# ============================================================
# Gate systems
# ============================================================


def _reachable(nodes: Sequence[tuple], roots: Iterable[int]) -> tuple[int, ...]:
    """Ids of the nodes reachable from roots, ascending (valid evaluation order)."""
    seen = set(roots)
    # Children precede parents, so one reverse sweep closes the set.
    for nid in range(len(nodes) - 1, -1, -1):
        if nid in seen:
            node = nodes[nid]
            tag = node[0]
            if tag in _BINARY_TAGS:
                seen.add(node[1])
                seen.add(node[2])
            elif tag == "neg" or tag == "pow":
                seen.add(node[1])
    return tuple(sorted(seen))


class GateSystem:
    """Immutable expression-DAG system.

    Attributes:
        parameter_names: ordered parameter identifiers.
        unknown_names: ordered unknown identifiers.
        outputs: node ids of the output roots, in order.
        nodes: the shared arena; children ids always precede parents.
        squareup_coeffs: coefficient matrix retained by square_up, or None.
        squareup_parent: the original (pre-square-up) system, or None.
    """

    __slots__ = (
        "parameter_names",
        "unknown_names",
        "outputs",
        "nodes",
        "squareup_coeffs",
        "squareup_parent",
        "_cache",
    )

    def __init__(
        self,
        parameter_names: Sequence[str],
        unknown_names: Sequence[str],
        outputs: Sequence[int],
        nodes: Sequence[tuple],
        squareup_coeffs: np.ndarray | None = None,
        squareup_parent: "GateSystem | None" = None,
    ):
        self.parameter_names = tuple(parameter_names)
        self.unknown_names = tuple(unknown_names)
        self.outputs = tuple(outputs)
        self.nodes = tuple(nodes)
        self.squareup_coeffs = squareup_coeffs
        self.squareup_parent = squareup_parent
        self._cache: dict = {}
        self._validate()

    @property
    def num_parameters(self) -> int:
        return len(self.parameter_names)

    @property
    def num_unknowns(self) -> int:
        return len(self.unknown_names)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def _validate(self) -> None:
        if not self.parameter_names or not self.unknown_names or not self.outputs:
            raise ValueError("a gate system needs at least one parameter, unknown, and output")
        n = len(self.nodes)
        for nid, node in enumerate(self.nodes):
            tag = node[0]
            if tag == "const":
                complex(node[1])
            elif tag == "unk":
                if not 0 <= node[1] < len(self.unknown_names):
                    raise ValueError(f"unknown index {node[1]} out of range at node {nid}")
            elif tag == "par":
                if not 0 <= node[1] < len(self.parameter_names):
                    raise ValueError(f"parameter index {node[1]} out of range at node {nid}")
            elif tag in _BINARY_TAGS:
                if not (0 <= node[1] < nid and 0 <= node[2] < nid):
                    raise ValueError(f"child id out of order at node {nid}")
            elif tag == "neg":
                if not 0 <= node[1] < nid:
                    raise ValueError(f"child id out of order at node {nid}")
            elif tag == "pow":
                if not 0 <= node[1] < nid:
                    raise ValueError(f"child id out of order at node {nid}")
                if not isinstance(node[2], int) or node[2] < 0:
                    raise ValueError(f"pow exponent must be an integer >= 0 at node {nid}")
            else:
                raise ValueError(f"unknown node tag {tag!r} at node {nid}")
        for out in self.outputs:
            if not 0 <= out < n:
                raise ValueError(f"output id {out} out of range")

    def reachable(self) -> tuple[int, ...]:
        """Ids of nodes reachable from the outputs, ascending (valid evaluation order)."""
        cached = self._cache.get("reachable")
        if cached is None:
            cached = _reachable(self.nodes, self.outputs)
            self._cache["reachable"] = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"GateSystem({self.num_parameters} params, {self.num_unknowns} unknowns, "
            f"{self.num_outputs} outputs, {len(self.nodes)} nodes)"
        )


class Expr:
    """Operator-overloaded handle used while building a system."""

    __slots__ = ("builder", "nid")

    def __init__(self, builder: "SystemBuilder", nid: int):
        self.builder = builder
        self.nid = nid

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.builder is not self.builder:
                raise ValueError("expressions belong to different builders")
            return other
        return self.builder.const(other)

    def __add__(self, other):
        o = self._coerce(other)
        return Expr(self.builder, self.builder._emit(("add", self.nid, o.nid)))

    def __radd__(self, other):
        return self._coerce(other).__add__(self)

    def __sub__(self, other):
        o = self._coerce(other)
        return Expr(self.builder, self.builder._emit(("sub", self.nid, o.nid)))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        return Expr(self.builder, self.builder._emit(("mul", self.nid, o.nid)))

    def __rmul__(self, other):
        return self._coerce(other).__mul__(self)

    def __truediv__(self, other):
        o = self._coerce(other)
        return Expr(self.builder, self.builder._emit(("div", self.nid, o.nid)))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return Expr(self.builder, self.builder._emit(("neg", self.nid)))

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be an integer >= 0")
        return Expr(self.builder, self.builder._emit(("pow", self.nid, exponent)))


class SystemBuilder:
    """Constructs a GateSystem node by node.

    Leaf nodes (constants, unknowns, parameters) are deduplicated; operation
    nodes are appended verbatim, so the builder never simplifies. Use
    compress() afterwards for folding and CSE.
    """

    def __init__(self, parameters: Sequence[str], unknowns: Sequence[str]):
        self._params = list(parameters)
        self._unknowns = list(unknowns)
        self._nodes: list[tuple] = []
        self._leaf_ids: dict[tuple, int] = {}

    def _emit(self, node: tuple) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _leaf(self, node: tuple) -> Expr:
        nid = self._leaf_ids.get(node)
        if nid is None:
            nid = self._emit(node)
            self._leaf_ids[node] = nid
        return Expr(self, nid)

    def const(self, value) -> Expr:
        return self._leaf(("const", complex(value)))

    def unknown(self, name_or_index) -> Expr:
        idx = name_or_index if isinstance(name_or_index, int) else self._unknowns.index(name_or_index)
        if not 0 <= idx < len(self._unknowns):
            raise ValueError(f"unknown index {idx} out of range")
        return self._leaf(("unk", idx))

    def param(self, name_or_index) -> Expr:
        idx = name_or_index if isinstance(name_or_index, int) else self._params.index(name_or_index)
        if not 0 <= idx < len(self._params):
            raise ValueError(f"parameter index {idx} out of range")
        return self._leaf(("par", idx))

    def finish(self, outputs: Sequence[Expr]) -> GateSystem:
        return GateSystem(
            self._params,
            self._unknowns,
            [e.nid for e in outputs],
            self._nodes,
        )


# ============================================================
# Evaluation (through the generated code in _compile)
# ============================================================


def _check_dims(sys: GateSystem, z, x) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if z.shape != (sys.num_parameters,):
        raise ValueError(f"expected {sys.num_parameters} parameters, got shape {z.shape}")
    if x.shape != (sys.num_unknowns,):
        raise ValueError(f"expected {sys.num_unknowns} unknowns, got shape {x.shape}")
    return z, x


def _compiled(sys: GateSystem):
    from ._compile import compiled_for

    return compiled_for(sys)


def evaluate(sys: GateSystem, z, x) -> np.ndarray:
    """Evaluates all outputs at parameters z and unknowns x.

    Raises:
        EvaluationSingular: a division denominator is (nearly) zero.
    """
    z, x = _check_dims(sys, z, x)
    return np.array(_compiled(sys).value(z, x), dtype=complex)


def jacobian_unknowns(sys: GateSystem, z, x) -> np.ndarray:
    """Partial derivatives of each output w.r.t. each unknown at (z, x)."""
    z, x = _check_dims(sys, z, x)
    return _compiled(sys).value_and_jac(z, x)[1]


def jacobian_parameters(sys: GateSystem, z, x) -> np.ndarray:
    """Partial derivatives of each output w.r.t. each parameter at (z, x)."""
    z, x = _check_dims(sys, z, x)
    comp = _compiled(sys)
    units = np.eye(sys.num_parameters, dtype=complex)
    return np.stack([comp.value_and_jac(z, x, e)[2] for e in units], axis=1)


def residual(sys: GateSystem, z, x) -> float:
    """Max absolute output value at (z, x)."""
    z, x = _check_dims(sys, z, x)
    return _compiled(sys).residual(z, x)


# ============================================================
# Normalization, symbolic differentiation, compression
# ============================================================


class _Normalizer:
    """Arena builder that hash-conses nodes and applies local simplifications.

    Used by compress() and by _differentiate(). Folding keeps the same
    complex arithmetic as evaluation, so simplified systems agree with the
    originals to rounding.
    """

    def __init__(self):
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}

    def _intern(self, node: tuple) -> int:
        nid = self._ids.get(node)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(node)
            self._ids[node] = nid
        return nid

    def const(self, value: complex) -> int:
        return self._intern(("const", complex(value)))

    def leaf(self, node: tuple) -> int:
        return self._intern(node)

    def _const_val(self, nid: int):
        node = self.nodes[nid]
        return node[1] if node[0] == "const" else None

    def add(self, a: int, b: int) -> int:
        va, vb = self._const_val(a), self._const_val(b)
        if va is not None and vb is not None:
            return self.const(va + vb)
        if va == 0:
            return b
        if vb == 0:
            return a
        if a > b:
            a, b = b, a  # commutative: canonical order helps CSE
        return self._intern(("add", a, b))

    def sub(self, a: int, b: int) -> int:
        va, vb = self._const_val(a), self._const_val(b)
        if va is not None and vb is not None:
            return self.const(va - vb)
        if vb == 0:
            return a
        if a == b:
            return self.const(0.0)
        if va == 0:
            return self.neg(b)
        return self._intern(("sub", a, b))

    def mul(self, a: int, b: int) -> int:
        va, vb = self._const_val(a), self._const_val(b)
        if va is not None and vb is not None:
            return self.const(va * vb)
        if va == 0 or vb == 0:
            return self.const(0.0)
        if va == 1:
            return b
        if vb == 1:
            return a
        if a > b:
            a, b = b, a
        return self._intern(("mul", a, b))

    def div(self, a: int, b: int) -> int:
        va, vb = self._const_val(a), self._const_val(b)
        if va is not None and vb is not None and abs(vb) >= _DIV_EPS * (1.0 + abs(va)):
            return self.const(va / vb)
        if vb == 1:
            return a
        return self._intern(("div", a, b))

    def neg(self, a: int) -> int:
        va = self._const_val(a)
        if va is not None:
            return self.const(-va)
        node = self.nodes[a]
        if node[0] == "neg":
            return node[1]
        return self._intern(("neg", a))

    def pow(self, a: int, k: int) -> int:
        if k == 0:
            return self.const(1.0)
        if k == 1:
            return a
        va = self._const_val(a)
        if va is not None:
            return self.const(va**k)
        return self._intern(("pow", a, k))

    def rebuild(self, node: tuple, mapping: Callable[[int], int]) -> int:
        tag = node[0]
        if tag in _LEAF_TAGS:
            return self.leaf(node)
        if tag == "add":
            return self.add(mapping(node[1]), mapping(node[2]))
        if tag == "sub":
            return self.sub(mapping(node[1]), mapping(node[2]))
        if tag == "mul":
            return self.mul(mapping(node[1]), mapping(node[2]))
        if tag == "div":
            return self.div(mapping(node[1]), mapping(node[2]))
        if tag == "neg":
            return self.neg(mapping(node[1]))
        return self.pow(mapping(node[1]), node[2])


class _Derivatives(NamedTuple):
    """What _differentiate returns."""

    nodes: list[tuple]  # one hash-consed arena of values and derivatives
    values: list[int]  # arena id of each output's value
    derivatives: list[list[int | None]]  # per output, per column; None is zero
    poles: list[int]  # arena ids of the divisions of the system itself


def _differentiate(sys: GateSystem, seeds: dict[tuple, list[tuple | None]]) -> _Derivatives:
    """Symbolic forward-mode differentiation of the outputs of sys.

    seeds maps a leaf node to its derivative, one leaf per column (None is a
    structural zero); leaves missing from seeds have derivative zero. Seeding
    each ("unk", j) with const 1 in column j gives df/dx; seeding each
    ("par", i) with the direction leaf ("dir", i) in one column gives
    (df/dz) @ v.

    The derivative of a/b divides by b as well. Only the divisions listed in
    poles are the system's own, so only they decide whether (z, x) is a pole.
    """
    n_cols = len(next(iter(seeds.values())))
    zero: list[int | None] = [None] * n_cols
    norm = _Normalizer()
    mapping: dict[int, int] = {}
    ders: dict[int, list[int | None]] = {}
    for nid in sys.reachable():
        node = sys.nodes[nid]
        tag = node[0]
        mapping[nid] = norm.rebuild(node, mapping.__getitem__)
        if tag in _LEAF_TAGS:
            seed = seeds.get(node)
            ders[nid] = zero if seed is None else [None if d is None else norm.leaf(d) for d in seed]
        elif tag == "add":
            ders[nid] = [
                b if a is None else a if b is None else norm.add(a, b)
                for a, b in zip(ders[node[1]], ders[node[2]])
            ]
        elif tag == "sub":
            ders[nid] = [
                a if b is None else (norm.neg(b) if a is None else norm.sub(a, b))
                for a, b in zip(ders[node[1]], ders[node[2]])
            ]
        elif tag == "mul":
            ma, mb = mapping[node[1]], mapping[node[2]]
            d = []
            for da, db in zip(ders[node[1]], ders[node[2]]):
                if da is None and db is None:
                    d.append(None)
                elif da is None:
                    d.append(norm.mul(ma, db))
                elif db is None:
                    d.append(norm.mul(da, mb))
                else:
                    d.append(norm.add(norm.mul(da, mb), norm.mul(ma, db)))
            ders[nid] = d
        elif tag == "div":
            mb, q = mapping[node[2]], mapping[nid]
            d = []
            for da, db in zip(ders[node[1]], ders[node[2]]):
                if da is None and db is None:
                    d.append(None)
                elif db is None:
                    d.append(norm.div(da, mb))
                elif da is None:
                    d.append(norm.div(norm.neg(norm.mul(q, db)), mb))
                else:
                    d.append(norm.div(norm.sub(da, norm.mul(q, db)), mb))
            ders[nid] = d
        elif tag == "neg":
            ders[nid] = [None if da is None else norm.neg(da) for da in ders[node[1]]]
        else:  # pow
            a, k = node[1], node[2]
            if k == 0:
                ders[nid] = zero
            elif k == 1:
                ders[nid] = ders[a]
            else:
                factor = norm.mul(norm.const(float(k)), norm.pow(mapping[a], k - 1))
                ders[nid] = [None if da is None else norm.mul(factor, da) for da in ders[a]]
    poles = [mapping[nid] for nid in sys.reachable()
             if sys.nodes[nid][0] == "div" and norm.nodes[mapping[nid]][0] == "div"]
    return _Derivatives(norm.nodes, [mapping[o] for o in sys.outputs], [ders[o] for o in sys.outputs], poles)


def compress(sys: GateSystem) -> GateSystem:
    """Removes superfluous operations from the DAG.

    Applies constant folding, identity elimination (x+0, x*1, x*0, x^1, x^0),
    and common-subexpression sharing. Where the original evaluates to a
    finite value the result agrees with it up to rounding (eliminating x*1,
    x*0 or x-x can drop a NaN that an infinite x would have produced), and
    its reachable node count never exceeds the original's.
    Division nodes whose folded denominator would be (nearly) zero are kept
    so the evaluation-time error is preserved.
    """
    norm = _Normalizer()
    mapping: dict[int, int] = {}
    for nid in sys.reachable():
        mapping[nid] = norm.rebuild(sys.nodes[nid], mapping.__getitem__)
    return GateSystem(
        sys.parameter_names,
        sys.unknown_names,
        [mapping[o] for o in sys.outputs],
        norm.nodes,
        squareup_coeffs=sys.squareup_coeffs,
        squareup_parent=sys.squareup_parent,
    )


# ============================================================
# Square-up
# ============================================================


def square_up(sys: GateSystem, z, x, rng: np.random.Generator) -> GateSystem:
    """Replaces an overdetermined system by num_unknowns random combinations.

    Each new output is a random complex linear combination of the original
    outputs with unit-modulus coefficients (uniform phase). Any exact common
    zero of the original outputs remains a zero. The coefficient matrix is
    retained on the result (squareup_coeffs / squareup_parent) so residuals
    of the original outputs can still be checked.

    Args:
        sys: system with num_outputs >= num_unknowns.
        z: seed parameter vector.
        x: seed solution with full-rank Jacobian at (z, x).
        rng: source of the combination coefficients.

    Raises:
        RankDeficient: the seed pair fails the rank precondition.
    """
    from . import linalg

    z, x = _check_dims(sys, z, x)
    m, n = sys.num_outputs, sys.num_unknowns
    if m < n:
        raise RankDeficient(f"cannot square up {m} outputs to {n} unknowns")
    jac = jacobian_unknowns(sys, z, x)
    rank = linalg.numerical_rank(jac)
    if rank < n:
        raise RankDeficient(f"Jacobian rank {rank} < {n} unknowns at the seed pair")
    if m == n:
        return sys

    for _ in range(100):
        coeffs = np.exp(2j * np.pi * rng.random((n, m)))
        if linalg.numerical_rank(coeffs @ jac) == n:
            break
    else:  # pragma: no cover - unit-modulus draws are full rank a.s.
        raise RankDeficient("failed to draw a full-rank combination matrix")

    nodes = list(sys.nodes)

    def emit(node: tuple) -> int:
        nodes.append(node)
        return len(nodes) - 1

    new_outputs = []
    for i in range(n):
        acc = None
        for j, out in enumerate(sys.outputs):
            term = emit(("mul", emit(("const", complex(coeffs[i, j]))), out))
            acc = term if acc is None else emit(("add", acc, term))
        new_outputs.append(acc)
    return GateSystem(
        sys.parameter_names,
        sys.unknown_names,
        new_outputs,
        nodes,
        squareup_coeffs=coeffs,
        squareup_parent=sys,
    )


# ============================================================
# System-source parser
# ============================================================

# Grammar:
#   file     := decl* eqsdecl
#   decl     := ("params" | "unknowns") ident ("," ident)* ";"
#   eqsdecl  := "eqs" expr (";" expr)* ";"
#   expr     := term (("+"|"-") term)*
#   term     := factor (("*"|"/") factor)*
#   factor   := base ("^" uint)?
#   base     := ident | number | "(" expr ")" | "-" base
# Identifiers are case-sensitive; "i" is the imaginary unit.

_SYMBOLS = "+-*/^();,"


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "ident" | "number" | one of _SYMBOLS | "eof"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.params: list[str] = []
        self.unknowns: list[str] = []
        self.seen: dict[str, str] = {}

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def parse(self) -> GateSystem:
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text in ("params", "unknowns"):
                self.next()
                self._decl(tok.text)
            else:
                break
        tok = self.peek()
        if not (tok.kind == "ident" and tok.text == "eqs"):
            raise ParseError(f"expected 'eqs', found {tok.text or 'end of input'!r}", tok.line, tok.col)
        self.next()
        builder = SystemBuilder(self.params, self.unknowns)
        outputs = [self._expr(builder)]
        self.expect(";")
        while self.peek().kind != "eof":
            outputs.append(self._expr(builder))
            self.expect(";")
        return builder.finish(outputs)

    def _decl(self, which: str) -> None:
        target = self.params if which == "params" else self.unknowns
        while True:
            tok = self.expect("ident")
            name = tok.text
            if name == "i":
                raise DuplicateIdentifier("'i' is reserved for the imaginary unit", tok.line, tok.col)
            if name in self.seen:
                raise DuplicateIdentifier(f"identifier {name!r} already declared", tok.line, tok.col)
            self.seen[name] = which
            target.append(name)
            if self.peek().kind == ",":
                self.next()
                continue
            self.expect(";")
            return

    def _expr(self, b: SystemBuilder) -> Expr:
        left = self._term(b)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            right = self._term(b)
            left = left + right if op == "+" else left - right
        return left

    def _term(self, b: SystemBuilder) -> Expr:
        left = self._factor(b)
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            right = self._factor(b)
            left = left * right if op == "*" else left / right
        return left

    def _factor(self, b: SystemBuilder) -> Expr:
        base = self._base(b)
        if self.peek().kind == "^":
            self.next()
            tok = self.expect("number")
            if not tok.text.isdigit():
                raise ParseError(f"exponent must be a non-negative integer, found {tok.text!r}", tok.line, tok.col)
            base = base ** int(tok.text)
        return base

    def _base(self, b: SystemBuilder) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return -self._base(b)
        if tok.kind == "(":
            self.next()
            inner = self._expr(b)
            self.expect(")")
            return inner
        if tok.kind == "number":
            self.next()
            return b.const(float(tok.text))
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name == "i":
                return b.const(1j)
            kind = self.seen.get(name)
            if kind == "params":
                return b.param(self.params.index(name))
            if kind == "unknowns":
                return b.unknown(self.unknowns.index(name))
            raise UndeclaredIdentifier(f"undeclared identifier {name!r}", tok.line, tok.col)
        raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse_system(text: str) -> GateSystem:
    """Parses system source text into a GateSystem.

    Raises:
        ParseError: syntax error (with line/column), undeclared identifier,
            or duplicate identifier.
    """
    return _Parser(text).parse()


# ============================================================
# Printer (inverse of the parser, up to formatting)
# ============================================================

# Precedence levels for printing: 1 add/sub, 2 mul/div, 3 pow, 4 neg, 5 atoms.
# Unary minus lives inside 'base' in the grammar, so it binds tighter than ^.


def _fmt_real(v: float) -> str:
    if math.isinf(v):
        return "1e400" if v > 0 else "-1e400"  # overflows back to +-inf
    if v == int(v) and abs(v) < 1e16 and "e" not in repr(v):
        return str(int(v)) + ".0"
    return repr(v)


def _fmt_const(value: complex) -> tuple[str, int]:
    re, im = value.real, value.imag
    # The grammar has no NaN, and c*i with infinite c evaluates to a NaN
    # real part, so neither can be written.
    if cmath.isnan(value) or math.isinf(im):
        raise ValueError(f"constant {value!r} has no source form")
    if im == 0.0:
        if re < 0:
            return f"-{_fmt_real(-re)}", 4
        return _fmt_real(re), 5
    if re == 0.0:
        if im == 1.0:
            return "i", 5
        if im < 0:
            return f"-{_fmt_real(-im)}*i", 2
        return f"{_fmt_real(im)}*i", 2
    sign = "+" if im >= 0 else "-"
    mag = abs(im)
    im_part = "i" if mag == 1.0 else f"{_fmt_real(mag)}*i"
    return f"({_fmt_real(re)} {sign} {im_part})", 5


def to_source(sys: GateSystem) -> str:
    """Prints a system back to grammar-conforming source text.

    parse_system(to_source(sys)) evaluates identically to sys (the DAG shape
    of each output expression is preserved; shared nodes are duplicated in
    the text). An infinite constant prints as 1e400 or -1e400, which parse
    back to it.

    Raises:
        ValueError: a constant with a NaN or an infinite imaginary part,
            which the grammar cannot write.
    """
    nodes = sys.nodes

    def render(nid: int, ctx: int) -> str:
        node = nodes[nid]
        tag = node[0]
        if tag == "const":
            text, level = _fmt_const(node[1])
        elif tag == "unk":
            text, level = sys.unknown_names[node[1]], 5
        elif tag == "par":
            text, level = sys.parameter_names[node[1]], 5
        elif tag == "add":
            text, level = f"{render(node[1], 1)} + {render(node[2], 2)}", 1
        elif tag == "sub":
            text, level = f"{render(node[1], 1)} - {render(node[2], 2)}", 1
        elif tag == "mul":
            text, level = f"{render(node[1], 2)} * {render(node[2], 3)}", 2
        elif tag == "div":
            text, level = f"{render(node[1], 2)} / {render(node[2], 3)}", 2
        elif tag == "neg":
            text, level = f"-{render(node[1], 4)}", 4
        else:  # pow
            text, level = f"{render(node[1], 5)}^{node[2]}", 3
        if level < ctx:
            return f"({text})"
        return text

    lines = []
    if sys.parameter_names:
        lines.append("params " + ", ".join(sys.parameter_names) + ";")
    if sys.unknown_names:
        lines.append("unknowns " + ", ".join(sys.unknown_names) + ";")
    lines.append("eqs")
    for out in sys.outputs:
        lines.append("  " + render(out, 1) + ";")
    return "\n".join(lines) + "\n"
