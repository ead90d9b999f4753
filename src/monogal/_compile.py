"""Per-system compiled evaluators (internal).

Path tracking evaluates systems tens of thousands of times, so this module
generates straight-line Python once per system: a value function, a combined
value-plus-Jacobian function (partials w.r.t. unknowns) and a directional
parameter derivative (df/dz) @ v. The derivatives come from the one symbolic
forward-mode differentiation in slp (_differentiate); this module only
emits code for the arenas it returns. Squared-up systems reuse their
parent's compiled functions composed with the retained coefficient matrix.
The public slp evaluation functions call these evaluators.
"""

from __future__ import annotations

import numpy as np

from .slp import _DIV_EPS, EvaluationSingular, GateSystem, _differentiate, _reachable

__all__ = ["CompiledSystem", "compiled_for"]

_INF, _NAN = float("inf"), float("nan")
# repr() of a non-finite complex constant names inf, nan, infj or nanj.
_PREAMBLE = {
    "np": np, "EvaluationSingular": EvaluationSingular, "abs": abs,
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
            # relative test.
            lines.append(
                f"    if v{node[2]} == 0 or abs(v{node[2]}) < {_DIV_EPS!r} * (1.0 + abs(v{node[1]})): "
                f"raise EvaluationSingular('denominator ~0 in node {nid}')"
            )
        lines.append(f"    v{nid} = v{node[1]} / v{node[2]}")
    elif tag == "neg":
        lines.append(f"    v{nid} = -v{node[1]}")
    else:  # pow
        lines.append(f"    v{nid} = v{node[1]} ** {node[2]}")


def _compile_src(name: str, lines: list[str]):
    namespace = dict(_PREAMBLE)
    exec(compile("\n".join(lines), f"<monogal:{name}>", "exec"), namespace)
    return namespace[name]


def _body(header: str, nodes, roots, poles) -> list[str]:
    """The header line plus one line per node reachable from roots or poles;
    only the divisions in poles check for a vanishing denominator."""
    poles = set(poles)
    lines = [header]
    for nid in _reachable(nodes, [*roots, *poles]):
        _emit_node_line(lines, nid, nodes[nid], nid in poles)
    return lines


def _gen_value(sys: GateSystem):
    poles = [nid for nid in sys.reachable() if sys.nodes[nid][0] == "div"]
    lines = _body("def _value(z, x):", sys.nodes, sys.outputs, poles)
    outs = ", ".join(f"v{o}" for o in sys.outputs)
    lines.append(f"    return np.array([{outs}], dtype=complex)")
    return _compile_src("_value", lines)


def _gen_value_and_jac(sys: GateSystem):
    """Emits one straight-line function returning (outputs, Jacobian)."""
    n_unk = sys.num_unknowns
    one = ("const", complex(1.0))
    seeds = {("unk", j): [one if col == j else None for col in range(n_unk)] for j in range(n_unk)}
    d = _differentiate(sys, seeds)
    entries = [(row, col, did) for row, cols in enumerate(d.derivatives)
               for col, did in enumerate(cols) if did is not None]
    lines = _body("def _vj(z, x):", d.nodes, d.values + [did for _, _, did in entries], d.poles)
    outs = ", ".join(f"v{o}" for o in d.values)
    lines.append(f"    f = np.array([{outs}], dtype=complex)")
    lines.append(f"    J = np.zeros(({sys.num_outputs}, {n_unk}), dtype=complex)")
    for row, col, did in entries:
        lines.append(f"    J[{row}, {col}] = v{did}")
    lines.append("    return f, J")
    return _compile_src("_vj", lines)


def _gen_param_dir(sys: GateSystem):
    """Emits the directional derivative (df/dz) @ v."""
    seeds = {("par", i): [("dir", i)] for i in range(sys.num_parameters)}
    d = _differentiate(sys, seeds)
    entries = [(row, cols[0]) for row, cols in enumerate(d.derivatives) if cols[0] is not None]
    lines = _body("def _pdir(z, x, v):", d.nodes, [did for _, did in entries], d.poles)
    lines.append(f"    out = np.zeros({sys.num_outputs}, dtype=complex)")
    for row, did in entries:
        lines.append(f"    out[{row}] = v{did}")
    lines.append("    return out")
    return _compile_src("_pdir", lines)


class CompiledSystem:
    """Fast evaluators for one GateSystem; build once, call many times."""

    def __init__(self, sys: GateSystem):
        self.sys = sys
        parent = sys.squareup_parent
        if parent is not None and sys.squareup_coeffs is not None:
            self._base = compiled_for(parent)
            self._coeffs = np.asarray(sys.squareup_coeffs, dtype=complex)
        else:
            self._base = None
            self._value_fn = _gen_value(sys)
            self._vj_fn = _gen_value_and_jac(sys)
            self._pdir_fn = _gen_param_dir(sys)

    def value(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        if self._base is not None:
            return self._coeffs @ self._base.value(z, x)
        return self._value_fn(z.tolist(), x.tolist())

    def value_and_jac(self, z: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._base is not None:
            f, jac = self._base.value_and_jac(z, x)
            return self._coeffs @ f, self._coeffs @ jac
        return self._vj_fn(z.tolist(), x.tolist())

    def param_dir(self, z: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self._base is not None:
            return self._coeffs @ self._base.param_dir(z, x, v)
        return self._pdir_fn(z.tolist(), x.tolist(), list(v))

    def residual(self, z: np.ndarray, x: np.ndarray) -> float:
        return float(np.abs(self.value(z, x)).max())


def compiled_for(sys: GateSystem) -> CompiledSystem:
    comp = sys._cache.get("compiled")
    if comp is None:
        comp = CompiledSystem(sys)
        sys._cache["compiled"] = comp
    return comp
