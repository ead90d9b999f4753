"""Per-system compiled evaluator (internal).

Path tracking evaluates systems tens of thousands of times, so this module
generates one straight-line Python function per system. It runs in stages
and returns after the one its caller needs: the values (with every pole
check), then the Jacobian in the unknowns, then the parameter-direction
derivative (df/dz) @ v when v is given. All three read one arena from the
one symbolic forward-mode differentiation in slp (_differentiate), seeded
with the n unit columns of the unknowns and one direction column. A
squared-up system is its parent's evaluator composed with the retained
coefficient matrix. The public slp evaluation functions call this evaluator.

The evaluator works on Python lists of complexes, as the tracker does: z, x
and v come in as lists (numpy arrays are converted with tolist()), the
values and the direction derivative go out as lists, and only the Jacobian,
which goes to the linear solve, is a numpy array, built from one flat list.
The entries are the Python complexes the arrays used to be filled with, so
no bit moves.
"""

from __future__ import annotations

import math

import numpy as np

from .slp import _DIV_EPS, EvaluationSingular, GateSystem, _differentiate, _reachable

__all__ = ["CompiledSystem", "compiled_for"]

_INF, _NAN = float("inf"), float("nan")
# repr() of a non-finite complex constant names inf, nan, infj or nanj.
_PREAMBLE = {
    "np": np, "EvaluationSingular": EvaluationSingular, "hypot": math.hypot,
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


def _generate(sys: GateSystem):
    """Emits _eval(z, x, v, jac) -> (f, J, d) on lists: f and d are lists, J
    an array; J is None unless jac, d is None unless v is given too. Each
    stage emits only the nodes that no earlier stage did, and only the
    system's own divisions check for a pole."""
    n_unk, n_out = sys.num_unknowns, sys.num_outputs
    one = ("const", complex(1.0))
    seeds = {("unk", j): [one if col == j else None for col in range(n_unk + 1)] for j in range(n_unk)}
    seeds.update({("par", i): [None] * n_unk + [("dir", i)] for i in range(sys.num_parameters)})
    arena = _differentiate(sys, seeds)
    j_entries = [(row, col, did) for row, cols in enumerate(arena.derivatives)
                 for col, did in enumerate(cols[:n_unk]) if did is not None]
    d_entries = [(row, cols[n_unk]) for row, cols in enumerate(arena.derivatives) if cols[n_unk] is not None]
    poles = set(arena.poles)
    emitted: set[int] = set()
    lines = ["def _eval(z, x, v, jac):"]

    def emit(roots):
        for nid in _reachable(arena.nodes, roots):
            if nid not in emitted:
                emitted.add(nid)
                _emit_node_line(lines, nid, arena.nodes[nid], nid in poles)

    emit(arena.values + arena.poles)
    lines.append(f"    f = [{', '.join(f'v{o}' for o in arena.values)}]")
    lines.append("    if not jac: return f, None, None")
    emit([did for _, _, did in j_entries])
    # Entries no derivative reaches are 0j, the zero np.zeros would give.
    flat = ["0j"] * (n_out * n_unk)
    for row, col, did in j_entries:
        flat[row * n_unk + col] = f"v{did}"
    lines.append(f"    J = np.array([{', '.join(flat)}], dtype=complex).reshape({n_out}, {n_unk})")
    lines.append("    if v is None: return f, J, None")
    emit([did for _, did in d_entries])
    d_items = ["0j"] * n_out
    for row, did in d_entries:
        d_items[row] = f"v{did}"
    lines.append(f"    d = [{', '.join(d_items)}]")
    lines.append("    return f, J, d")
    namespace = dict(_PREAMBLE)
    exec(compile("\n".join(lines), "<monogal:_eval>", "exec"), namespace)
    return namespace["_eval"]


class CompiledSystem:
    """Fast evaluator for one GateSystem; build once, call many times."""

    def __init__(self, sys: GateSystem):
        self.sys = sys
        parent = sys.squareup_parent
        if parent is not None and sys.squareup_coeffs is not None:
            self._base = compiled_for(parent)
            self._coeffs = np.asarray(sys.squareup_coeffs, dtype=complex)
        else:
            self._base = None
            self._fn = _generate(sys)

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
