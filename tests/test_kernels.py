"""The fused kernels of small square systems: the unrolled elimination they
solve with, and tangent and correct against the evaluator plus lu_solve."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monogal import _compile
from monogal._compile import _PREAMBLE, _emit_solve, compiled_for
from monogal.linalg import SingularMatrix, lu_solve
from monogal.problems import fivepoint_fabricate, fivepoint_system, p3p_system
from monogal.slp import EvaluationSingular, parse_system, square_up

RATIONAL_SOURCE = """params a, b;
unknowns x, y;
eqs x^3 + a*x*y - 2*b + i; -(x - y)/(a + 3) + y^2/(x - b) - x/y;
"""


def solver(n):
    """The kernels' elimination as a function solve(a, b) of nested lists."""
    lines = ["def solve(a, b):"]
    out = [f"x{i}" for i in range(n)]
    _emit_solve(lines, [[f"a[{i}][{j}]" for j in range(n)] for i in range(n)], [f"b[{i}]" for i in range(n)], out)
    lines.append(f"    return [{', '.join(out)}]")
    namespace = dict(_PREAMBLE)
    exec("\n".join(lines), namespace)
    return namespace["solve"]


SOLVERS = {n: solver(n) for n in range(1, 5)}

# Well scaled as well as well conditioned: LAPACK's reciprocal of a
# subnormal pivot overflows, where the elimination's quotients do not.
unit = st.floats(-1.0, 1.0).filter(lambda r: r == 0.0 or abs(r) >= 1e-3)
entries = st.builds(complex, unit, unit)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 4))
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=complex).reshape(n, n)
    b = np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=complex)
    return a, b


@settings(max_examples=300, deadline=None)
@given(systems())
def test_elimination_matches_lu_solve(ab):
    a, b = ab
    assume(np.linalg.cond(a) < 1e3)
    want = lu_solve(a, b)
    got = np.array(SOLVERS[len(b)](a.tolist(), b.tolist()))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_elimination_pivots_by_the_largest_entry():
    # Without a row swap the first multiplier would be 1e20 and the 1 in
    # the first row would be lost; partial pivoting gives x = (1, 1).
    got = SOLVERS[2]([[1e-20 + 0j, 1 + 0j], [1 + 0j, 1 + 0j]], [1 + 0j, 2 + 0j])
    assert got == pytest.approx([1.0, 1.0], rel=1e-15)


def test_elimination_zero_column_is_singular():
    rng = np.random.default_rng(1)
    for n in range(1, 5):
        for col in range(n):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a[:, col] = 0
            with pytest.raises(SingularMatrix):
                SOLVERS[n](a.tolist(), [1 + 0j] * n)


def test_elimination_dependent_rows_are_singular():
    # Row r2 = 2 * row r1. Real entries keep each multiplier exact (a complex
    # quotient a / (2a) can miss 1/2 in the last bit), so the eliminated
    # row is exactly zero.
    rng = np.random.default_rng(2)
    for n in range(2, 5):
        for r1 in range(n):
            for r2 in range(n):
                if r1 == r2:
                    continue
                a = rng.standard_normal((n, n)).astype(complex)
                a[r2] = 2 * a[r1]
                with pytest.raises(SingularMatrix):
                    SOLVERS[n](a.tolist(), rng.standard_normal(n).astype(complex).tolist())


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, float("-inf")), complex(1, float("nan"))])
def test_elimination_non_finite_entries_are_singular(bad):
    rng = np.random.default_rng(3)
    for n in range(1, 5):
        for pos in range(n * n + n):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if pos < n * n:
                a[pos // n, pos % n] = bad
            else:
                b[pos - n * n] = bad
            with pytest.raises(SingularMatrix):
                SOLVERS[n](a.tolist(), b.tolist())


def test_elimination_overflow_is_singular_not_an_error():
    # |re| + |im| picks the pivot: abs() of these entries raises OverflowError.
    big = complex(1.5e308, 1.5e308)
    with pytest.raises(SingularMatrix):
        SOLVERS[2]([[big, big], [1 + 0j, 1e-300 + 0j]], [big, 1 + 0j])


# ------------------------------------------------------------
# tangent and correct
# ------------------------------------------------------------


def points(sysm, n=50, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        def c(k):
            return (rng.standard_normal(k) + 1j * rng.standard_normal(k)).tolist()
        yield c(sysm.num_parameters), c(sysm.num_unknowns), c(sysm.num_parameters)


def close(got, want, rel):
    want = np.asarray(want)
    return np.abs(np.asarray(got) - want).max() <= rel * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("make", [p3p_system, lambda: parse_system(RATIONAL_SOURCE)], ids=["p3p", "rational"])
def test_tangent_and_correct_match_the_evaluator_and_lu_solve(make):
    comp = compiled_for(make())
    for z, x, v in points(comp.sys):
        f, jac, d = comp.value_and_jac(z, x, v)
        if np.linalg.cond(jac) > 1e6:
            continue
        k = comp.tangent(z, x, v)
        assert close(k, lu_solve(jac, [-e for e in d]), 1e-9)
        res, x_new = comp.correct(z, x, 0.0, True)
        assert res == pytest.approx(float(np.abs(f).max()), rel=1e-15)
        assert close(x_new, np.add(x, lu_solve(jac, [-e for e in f])), 1e-9)
        # No iterate once accepted, or when no step is asked for.
        assert comp.correct(z, x, math.inf, True) == (res, None)
        assert comp.correct(z, x, 0.0, False) == (res, None)


def test_correct_residual_is_nan_wherever_the_nan_sits():
    comp = compiled_for(p3p_system())
    z, x, _ = next(points(comp.sys))
    for i in range(3):
        xi = list(x)
        xi[i] = complex("nan")
        res, x_new = comp.correct(z, xi, math.inf, False)
        assert math.isnan(res) and x_new is None


def test_fused_kernels_keep_the_pole_check():
    comp = compiled_for(parse_system(RATIONAL_SOURCE))
    z, x, v = [1.0 + 0j, 2.0 + 0j], [2.0 + 0j, 1.0 + 0j], [1j, 1.0 + 0j]  # x - b = 0
    with pytest.raises(EvaluationSingular):
        comp.value_and_jac(z, x, v)
    with pytest.raises(EvaluationSingular):
        comp.tangent(z, x, v)
    with pytest.raises(EvaluationSingular):
        comp.correct(z, x, 1e-8, True)


def test_tangent_evaluates_no_output_value():
    # J k = -d never reads f; every division stays, for its pole check.
    for sysm in (p3p_system(), parse_system(RATIONAL_SOURCE)):
        kernels = _compile._Kernels(sysm)
        source = "\n".join(kernels.tangent())
        assert not any(f"    {value} = " in source for value in kernels.values)
        assert all(f"    v{nid} = " in source for nid in kernels.poles)


def test_only_small_unsquared_square_systems_are_fused():
    assert compiled_for(p3p_system()).correct is not None
    assert compiled_for(parse_system("params z; unknowns x; eqs x^3 - z;")).tangent is not None
    five = compiled_for(fivepoint_system())
    assert five.tangent is None and five.correct is None  # 15 x 11
    inst, sol = fivepoint_fabricate(np.random.default_rng(0))
    squared = compiled_for(square_up(fivepoint_system(), inst.as_params(), sol.as_vector(), np.random.default_rng(0)))
    assert squared.tangent is None and squared.correct is None
    n = _compile._FUSED_MAX_UNKNOWNS + 1
    names = ", ".join(f"x{i}" for i in range(n))
    eqs = " ".join(f"x{i}^2 - z;" for i in range(n))
    assert compiled_for(parse_system(f"params z; unknowns {names}; eqs {eqs}")).tangent is None
