"""Per-system compiled evaluators (internal).

The public slp operations interpret the DAG directly, which is the semantic
reference. Path tracking evaluates systems tens of thousands of times, so
this module generates straight-line Python once per system: a value function,
a combined value-plus-Jacobian function (partials w.r.t. unknowns, obtained
by symbolic forward-mode differentiation of the DAG), and a directional
parameter derivative (df/dz) @ v. Squared-up systems reuse their parent's
compiled functions composed with the retained coefficient matrix.
"""

from __future__ import annotations

import numpy as np

from .slp import EvaluationSingular, GateSystem, _Normalizer

__all__ = ["CompiledSystem", "compiled_for"]

_PREAMBLE = {"np": np, "EvaluationSingular": EvaluationSingular, "abs": abs}


def _emit_node_line(lines: list[str], nid: int, node: tuple) -> None:
    tag = node[0]
    if tag == "const":
        lines.append(f"    v{nid} = {node[1]!r}")
    elif tag == "unk":
        lines.append(f"    v{nid} = x[{node[1]}]")
    elif tag == "par":
        lines.append(f"    v{nid} = z[{node[1]}]")
    elif tag == "add":
        lines.append(f"    v{nid} = v{node[1]} + v{node[2]}")
    elif tag == "sub":
        lines.append(f"    v{nid} = v{node[1]} - v{node[2]}")
    elif tag == "mul":
        lines.append(f"    v{nid} = v{node[1]} * v{node[2]}")
    elif tag == "div":
        lines.append(
            f"    if abs(v{node[2]}) < 1e-14 * (1.0 + abs(v{node[1]})): "
            f"raise EvaluationSingular('denominator ~0 in node {nid}')"
        )
        lines.append(f"    v{nid} = v{node[1]} / v{node[2]}")
    elif tag == "neg":
        lines.append(f"    v{nid} = -v{node[1]}")
    else:  # pow
        lines.append(f"    v{nid} = v{node[1]} ** {node[2]}")


def _compile_src(name: str, src: str):
    namespace = dict(_PREAMBLE)
    exec(compile(src, f"<monogal:{name}>", "exec"), namespace)
    return namespace[name]


def _gen_value(sys: GateSystem):
    lines = ["def _value(z, x):"]
    for nid in sys.reachable():
        _emit_node_line(lines, nid, sys.nodes[nid])
    outs = ", ".join(f"v{o}" for o in sys.outputs)
    lines.append(f"    return np.array([{outs}], dtype=complex)")
    return _compile_src("_value", "\n".join(lines))


def _reachable_of(nodes: list[tuple], roots: list[int]) -> list[int]:
    seen = set(roots)
    for nid in range(len(nodes) - 1, -1, -1):
        if nid in seen:
            node = nodes[nid]
            tag = node[0]
            if tag in ("add", "sub", "mul", "div"):
                seen.add(node[1])
                seen.add(node[2])
            elif tag == "neg" or tag == "pow":
                seen.add(node[1])
    return sorted(seen)


def _gen_value_and_jac(sys: GateSystem):
    """Symbolically differentiates the DAG w.r.t. every unknown, then emits
    one straight-line function returning (outputs, Jacobian)."""
    n_unk = sys.num_unknowns
    norm = _Normalizer()
    mapping: dict[int, int] = {}
    ders: dict[int, list] = {}
    one = None
    for nid in sys.reachable():
        node = sys.nodes[nid]
        tag = node[0]
        mapping[nid] = norm.rebuild(node, mapping.__getitem__)
        if tag == "const" or tag == "par":
            ders[nid] = [None] * n_unk
        elif tag == "unk":
            if one is None:
                one = norm.const(1.0)
            d = [None] * n_unk
            d[node[1]] = one
            ders[nid] = d
        elif tag == "add":
            da, db = ders[node[1]], ders[node[2]]
            ders[nid] = [
                b if a is None else a if b is None else norm.add(a, b)
                for a, b in zip(da, db)
            ]
        elif tag == "sub":
            da, db = ders[node[1]], ders[node[2]]
            ders[nid] = [
                a if b is None else (norm.neg(b) if a is None else norm.sub(a, b))
                for a, b in zip(da, db)
            ]
        elif tag == "mul":
            a, b = node[1], node[2]
            ma, mb = mapping[a], mapping[b]
            d = []
            for da, db in zip(ders[a], ders[b]):
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
            a, b = node[1], node[2]
            mb = mapping[b]
            q = mapping[nid]
            d = []
            for da, db in zip(ders[a], ders[b]):
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
                ders[nid] = [None] * n_unk
            elif k == 1:
                ders[nid] = list(ders[a])
            else:
                factor = norm.mul(norm.const(float(k)), norm.pow(mapping[a], k - 1))
                ders[nid] = [
                    None if da is None else norm.mul(factor, da) for da in ders[a]
                ]

    f_ids = [mapping[o] for o in sys.outputs]
    jac_entries = [(row, col, ders[o][col]) for row, o in enumerate(sys.outputs) for col in range(n_unk) if ders[o][col] is not None]
    roots = f_ids + [did for _, _, did in jac_entries]
    lines = ["def _vj(z, x):"]
    for nid in _reachable_of(norm.nodes, roots):
        _emit_node_line(lines, nid, norm.nodes[nid])
    outs = ", ".join(f"v{o}" for o in f_ids)
    lines.append(f"    f = np.array([{outs}], dtype=complex)")
    lines.append(f"    J = np.zeros(({sys.num_outputs}, {n_unk}), dtype=complex)")
    for row, col, did in jac_entries:
        lines.append(f"    J[{row}, {col}] = v{did}")
    lines.append("    return f, J")
    return _compile_src("_vj", "\n".join(lines))


def _gen_param_dir(sys: GateSystem):
    """Dual-number codegen for the directional derivative (df/dz) @ v."""
    lines = ["def _pdir(z, x, v):"]
    dep: dict[int, bool] = {}
    for nid in sys.reachable():
        node = sys.nodes[nid]
        tag = node[0]
        _emit_node_line(lines, nid, node)
        if tag == "par":
            dep[nid] = True
            lines.append(f"    d{nid} = v[{node[1]}]")
        elif tag in ("const", "unk"):
            dep[nid] = False
        elif tag in ("add", "sub"):
            a, b = node[1], node[2]
            dep[nid] = dep[a] or dep[b]
            op = "+" if tag == "add" else "-"
            if dep[a] and dep[b]:
                lines.append(f"    d{nid} = d{a} {op} d{b}")
            elif dep[a]:
                lines.append(f"    d{nid} = d{a}")
            elif dep[b]:
                lines.append(f"    d{nid} = d{b}" if tag == "add" else f"    d{nid} = -d{b}")
        elif tag == "mul":
            a, b = node[1], node[2]
            dep[nid] = dep[a] or dep[b]
            if dep[a] and dep[b]:
                lines.append(f"    d{nid} = d{a} * v{b} + v{a} * d{b}")
            elif dep[a]:
                lines.append(f"    d{nid} = d{a} * v{b}")
            elif dep[b]:
                lines.append(f"    d{nid} = v{a} * d{b}")
        elif tag == "div":
            a, b = node[1], node[2]
            dep[nid] = dep[a] or dep[b]
            if dep[a] and dep[b]:
                lines.append(f"    d{nid} = (d{a} - v{nid} * d{b}) / v{b}")
            elif dep[a]:
                lines.append(f"    d{nid} = d{a} / v{b}")
            elif dep[b]:
                lines.append(f"    d{nid} = -v{nid} * d{b} / v{b}")
        elif tag == "neg":
            a = node[1]
            dep[nid] = dep[a]
            if dep[a]:
                lines.append(f"    d{nid} = -d{a}")
        else:  # pow
            a, k = node[1], node[2]
            dep[nid] = dep[a] and k != 0
            if dep[nid]:
                if k == 1:
                    lines.append(f"    d{nid} = d{a}")
                else:
                    lines.append(f"    d{nid} = {k} * v{a} ** {k - 1} * d{a}")
    lines.append(f"    out = np.zeros({sys.num_outputs}, dtype=complex)")
    for row, o in enumerate(sys.outputs):
        if dep[o]:
            lines.append(f"    out[{row}] = d{o}")
    lines.append("    return out")
    return _compile_src("_pdir", "\n".join(lines))


class CompiledSystem:
    """Fast evaluators for one GateSystem; build once, call many times."""

    def __init__(self, sys: GateSystem):
        self.sys = sys
        parent = sys.squareup_parent
        if parent is not None and sys.squareup_coeffs is not None:
            base = compiled_for(parent)
            coeffs = np.asarray(sys.squareup_coeffs, dtype=complex)
            self._base = base
            self._coeffs = coeffs
            self._value_fn = None
            self._vj_fn = None
            self._pdir_fn = None
        else:
            self._base = None
            self._coeffs = None
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
