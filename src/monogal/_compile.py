"""Per-system compiled evaluator (internal).

Path tracking evaluates systems tens of thousands of times, so this module
generates straight-line Python functions per system, all from one arena of
the one symbolic forward-mode differentiation in slp (_differentiate),
seeded with the n unit columns of the unknowns and one direction column.

The evaluator runs in stages and returns after the one its caller needs:
the values (with every pole check), then the Jacobian in the unknowns, then
the parameter-direction derivative (df/dz) @ v when v is given. It works on
Python lists of complexes, as the tracker does: z, x and v come in as lists
(numpy arrays are converted with tolist()), the values and the direction
derivative go out as lists, and only the Jacobian, which goes to the linear
solve, is a numpy array, built from one flat list. A squared-up system is
its parent's evaluator composed with the retained coefficient matrix. The
public slp evaluation functions call this evaluator.

A square system of at most _FUSED_MAX_UNKNOWNS unknowns that is not squared
up also gets the tracker's two stage kernels, fused, in place of the
evaluator and the linear solve:

- tangent(z, x, v) evaluates the divisions (for their pole checks), J and
  d = (df/dz) @ v, but no value f, and returns the k that solves J k = -d;
- correct(z, x, tol, step) evaluates the values and their largest modulus
  res, and returns (res, x - J^-1 f) when res > tol and step, else (res,
  None).

Both solve by Gaussian elimination with partial pivoting, unrolled on local
Python complexes, with no numpy array and no gufunc call. An exactly zero
or a non-finite pivot, or a non-finite solution, raises SingularMatrix, as
linalg.lu_solve does; every pole check of the evaluator stays.
"""

from __future__ import annotations

import math
from cmath import isfinite

import numpy as np

from .linalg import SingularMatrix
from .slp import _DIV_EPS, EvaluationSingular, GateSystem, _differentiate, _reachable

__all__ = ["CompiledSystem", "compiled_for"]

# The largest square system that gets fused kernels. The unrolled
# elimination took 0.7, 1.8, 3.9, 5-6, 11 and 12-18 us at n = 1..6, against
# 5-7, 7-8, 7-8, 6-9, 8-10 and 8-11 us for building J as an array, lu_solve
# and tolist (best of 7 x 20,000 calls, Python 3.11, numpy 2.4, one OpenBLAS
# thread), so it wins up to 4 unknowns; its code grows as n^3 lines.
_FUSED_MAX_UNKNOWNS = 4

_INF, _NAN = float("inf"), float("nan")
# repr() of a non-finite complex constant names inf, nan, infj or nanj.
_PREAMBLE = {
    "np": np, "EvaluationSingular": EvaluationSingular, "SingularMatrix": SingularMatrix,
    "hypot": math.hypot, "isfinite": isfinite,
    "inf": _INF, "nan": _NAN, "infj": complex(0.0, _INF), "nanj": complex(0.0, _NAN),
}


def _emit_node_line(lines: list[str], nid: int, node: tuple, pole_check: bool) -> None:
    tag = node[0]
    if tag == "const":
        lines.append(f"    v{nid} = {node[1]!r}")
    elif tag == "unk":
        lines.append(f"    v{nid} = x[{node[1]}]")
    elif tag == "par":
        lines.append(f"    v{nid} = z[{node[1]}]")
    elif tag == "dir":
        lines.append(f"    v{nid} = v[{node[1]}]")
    elif tag == "add":
        lines.append(f"    v{nid} = v{node[1]} + v{node[2]}")
    elif tag == "sub":
        lines.append(f"    v{nid} = v{node[1]} - v{node[2]}")
    elif tag == "mul":
        lines.append(f"    v{nid} = v{node[1]} * v{node[2]}")
    elif tag == "div":
        if pole_check:
            # The zero test catches a NaN numerator, which fails the
            # relative test. hypot, not abs: abs raises OverflowError on a
            # finite complex whose modulus overflows, hypot returns inf.
            den, num = f"v{node[2]}", f"v{node[1]}"
            lines.append(
                f"    if {den} == 0 or hypot({den}.real, {den}.imag) < "
                f"{_DIV_EPS!r} * (1.0 + hypot({num}.real, {num}.imag)): "
                f"raise EvaluationSingular('denominator ~0 in node {nid}')"
            )
        lines.append(f"    v{nid} = v{node[1]} / v{node[2]}")
    elif tag == "neg":
        lines.append(f"    v{nid} = -v{node[1]}")
    else:  # pow
        lines.append(f"    v{nid} = v{node[1]} ** {node[2]}")


def _emit_solve(lines: list[str], a: list[list[str]], b: list[str], out: list[str]) -> None:
    """Lines that set the names out to the solution of a @ out = b.

    Gaussian elimination with partial pivoting, unrolled on locals a<i><j>
    and b<i> (n <= 9). The pivot is the first row of largest |re| + |im| in
    its column, LAPACK's izamax rule, which cannot overflow as abs can.
    """
    n = len(b)
    for i in range(n):
        lines.append(f"    {', '.join([f'a{i}{j}' for j in range(n)] + [f'b{i}'])} = "
                     f"{', '.join(a[i] + [b[i]])}")
    for k in range(n):
        lines.append(f"    m = abs(a{k}{k}.real) + abs(a{k}{k}.imag)")
        if k + 1 < n:
            lines.append(f"    p = {k}")
        for i in range(k + 1, n):
            lines.append(f"    t = abs(a{i}{k}.real) + abs(a{i}{k}.imag)")
            lines.append(f"    if t > m: m = t; p = {i}")
        # Fails on a zero pivot, which a zero column gives, and on NaN or inf.
        lines.append(f"    if not 0.0 < m < inf: raise SingularMatrix('zero or non-finite pivot')")
        row = [f"a{k}{j}" for j in range(k, n)] + [f"b{k}"]
        for i in range(k + 1, n):
            other = [f"a{i}{j}" for j in range(k, n)] + [f"b{i}"]
            lines.append(f"    {'if' if i == k + 1 else 'elif'} p == {i}: "
                         f"{', '.join(row + other)} = {', '.join(other + row)}")
        for i in range(k + 1, n):
            lines.append(f"    l = a{i}{k} / a{k}{k}")
            lines.extend(f"    a{i}{j} -= l * a{k}{j}" for j in range(k + 1, n))
            lines.append(f"    b{i} -= l * b{k}")
    for i in reversed(range(n)):
        num = " - ".join([f"b{i}"] + [f"a{i}{j} * {out[j]}" for j in range(i + 1, n)])
        lines.append(f"    {out[i]} = ({num}) / a{i}{i}")
    lines.append(f"    if not ({' and '.join(f'isfinite({o})' for o in out)}): "
                 f"raise SingularMatrix('non-finite solution')")


class _Kernels:
    """Writes the generated functions of one system from its arena."""

    def __init__(self, sys: GateSystem):
        n_unk, n_out = sys.num_unknowns, sys.num_outputs
        one = ("const", complex(1.0))
        seeds = {("unk", j): [one if col == j else None for col in range(n_unk + 1)] for j in range(n_unk)}
        seeds.update({("par", i): [None] * n_unk + [("dir", i)] for i in range(sys.num_parameters)})
        arena = _differentiate(sys, seeds)
        self.nodes, self.poles = arena.nodes, set(arena.poles)
        self.n_unk, self.n_out = n_unk, n_out
        self.values = [f"v{o}" for o in arena.values]
        self.value_roots = arena.values + arena.poles
        # Entries no derivative reaches are 0j, the zero np.zeros would give.
        self.jac = [["0j"] * n_unk for _ in range(n_out)]
        self.dir = ["0j"] * n_out
        self.jac_roots, self.dir_roots = [], []
        for row, cols in enumerate(arena.derivatives):
            for col, did in enumerate(cols[:n_unk]):
                if did is not None:
                    self.jac[row][col] = f"v{did}"
                    self.jac_roots.append(did)
            if cols[n_unk] is not None:
                self.dir[row] = f"v{cols[n_unk]}"
                self.dir_roots.append(cols[n_unk])

    def emit(self, lines: list[str], roots: list[int], done: set[int]) -> None:
        """Appends the lines of the nodes that roots reach and done does not
        hold, in evaluation order, and adds them to done. Only the system's
        own divisions check for a pole."""
        for nid in _reachable(self.nodes, roots):
            if nid not in done:
                done.add(nid)
                _emit_node_line(lines, nid, self.nodes[nid], nid in self.poles)

    def evaluator(self) -> list[str]:
        """_eval(z, x, v, jac) -> (f, J, d) on lists: f and d are lists, J an
        array; J is None unless jac, d is None unless v is given too. Each
        stage emits only the nodes that no earlier stage did."""
        lines, done = ["def _eval(z, x, v, jac):"], set()
        self.emit(lines, self.value_roots, done)
        lines.append(f"    f = [{', '.join(self.values)}]")
        lines.append("    if not jac: return f, None, None")
        self.emit(lines, self.jac_roots, done)
        flat = [e for row in self.jac for e in row]
        lines.append(f"    J = np.array([{', '.join(flat)}], dtype=complex).reshape({self.n_out}, {self.n_unk})")
        lines.append("    if v is None: return f, J, None")
        self.emit(lines, self.dir_roots, done)
        lines.append(f"    d = [{', '.join(self.dir)}]")
        lines.append("    return f, J, d")
        return lines

    def tangent(self) -> list[str]:
        """_tangent(z, x, v) -> k with J k = -(df/dz) @ v, a list. It emits
        the divisions, for their pole checks, J and d, but no value f."""
        lines, done = ["def _tangent(z, x, v):"], set()
        for roots in (sorted(self.poles), self.jac_roots, self.dir_roots):
            self.emit(lines, roots, done)
        k = [f"k{i}" for i in range(self.n_unk)]
        _emit_solve(lines, self.jac, [f"-{e}" for e in self.dir], k)
        lines.append(f"    return [{', '.join(k)}]")
        return lines

    def correct(self) -> list[str]:
        """_correct(z, x, tol, step) -> (res, x_new): res = max|f| (NaN when
        any |f_i| is NaN); x_new is the Newton iterate when res > tol and
        step, else None."""
        lines, done = ["def _correct(z, x, tol, step):"], set()
        self.emit(lines, self.value_roots, done)
        mods = [f"hypot({e}.real, {e}.imag)" for e in self.values]
        if len(mods) == 1:
            lines.append(f"    res = {mods[0]}")
        else:
            rs = [f"r{i}" for i in range(len(mods))]
            lines.append(f"    {', '.join(rs)} = {', '.join(mods)}")
            # max() keeps a NaN only in first place; the sum is NaN wherever.
            lines.append(f"    res = {' + '.join(rs)}")
            lines.append(f"    if res == res: res = max({', '.join(rs)})")
        lines.append("    if res <= tol or not step: return res, None")
        self.emit(lines, self.jac_roots, done)
        s = [f"s{i}" for i in range(self.n_unk)]
        _emit_solve(lines, self.jac, [f"-{e}" for e in self.values], s)
        lines.append(f"    return res, [{', '.join(f'x[{i}] + {e}' for i, e in enumerate(s))}]")
        return lines


def _generate(sys: GateSystem, fused: bool) -> dict:
    """The generated functions of sys by name: _eval, and _tangent and
    _correct when fused."""
    kernels = _Kernels(sys)
    sources = [kernels.evaluator()]
    if fused:
        sources += [kernels.tangent(), kernels.correct()]
    namespace = dict(_PREAMBLE)
    exec(compile("\n".join(line for src in sources for line in src), "<monogal:_eval>", "exec"), namespace)
    return namespace


class CompiledSystem:
    """Fast evaluator for one GateSystem; build once, call many times.

    tangent and correct are the fused stage kernels (see the module
    docstring), or None for a system that is not square, is squared up or
    has more than _FUSED_MAX_UNKNOWNS unknowns; the tracker then builds the
    same pair on value_and_jac, residual and lu_solve.
    """

    def __init__(self, sys: GateSystem):
        self.sys = sys
        self.tangent = self.correct = None
        parent = sys.squareup_parent
        if parent is not None and sys.squareup_coeffs is not None:
            self._base = compiled_for(parent)
            self._coeffs = np.asarray(sys.squareup_coeffs, dtype=complex)
        else:
            self._base = None
            fused = sys.num_outputs == sys.num_unknowns <= _FUSED_MAX_UNKNOWNS
            fns = _generate(sys, fused)
            self._fn = fns["_eval"]
            if fused:
                self.tangent, self.correct = fns["_tangent"], fns["_correct"]

    def _eval(self, z, x, v, jac: bool) -> tuple:
        if self._base is None:
            # Inline, not a helper: this runs four times per tracker step.
            if isinstance(z, np.ndarray):
                z = z.tolist()
            if isinstance(x, np.ndarray):
                x = x.tolist()
            if isinstance(v, np.ndarray):
                v = v.tolist()
            return self._fn(z, x, v, jac)
        f, J, d = self._base._eval(z, x, v, jac)
        c = self._coeffs
        return ((c @ np.array(f)).tolist(), None if J is None else c @ J,
                None if d is None else (c @ np.array(d)).tolist())

    def value(self, z, x) -> list:
        return self._eval(z, x, None, False)[0]

    def value_and_jac(self, z, x, v=None) -> tuple:
        """(f, J, d): the values, the Jacobian in the unknowns (an array), and
        (df/dz) @ v, which is None when v is None."""
        return self._eval(z, x, v, True)

    def residual(self, z, x) -> float:
        # np.abs, not abs: the two differ in the last bit, and this residual
        # is the one the CLI prints.
        return float(np.abs(self.value(z, x)).max())


def compiled_for(sys: GateSystem) -> CompiledSystem:
    comp = sys._cache.get("compiled")
    if comp is None:
        comp = CompiledSystem(sys)
        sys._cache["compiled"] = comp
    return comp
