from __future__ import annotations

import numpy as np
import pytest

from monogal.slp import (
    DuplicateIdentifier,
    EvaluationSingular,
    ParseError,
    RankDeficient,
    SystemBuilder,
    UndeclaredIdentifier,
    compress,
    evaluate,
    jacobian_parameters,
    jacobian_unknowns,
    parse_system,
    residual,
    square_up,
    to_source,
)


def quadratic_system():
    # x^2 - z: the simplest branched double cover.
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x, z = b.unknown("x"), b.param("z")
    return b.finish([x ** 2 - z])


def mixed_system():
    # Two outputs exercising every node tag including div and neg.
    b = SystemBuilder(parameters=("a", "b"), unknowns=("x", "y"))
    a, bb = b.param("a"), b.param("b")
    x, y = b.unknown("x"), b.unknown("y")
    f0 = x ** 3 + a * x * y - 2.0 * bb + 1j
    f1 = -(x - y) / (a + 3.0) + y ** 2
    return b.finish([f0, f1])


def fd_jacobian(sysm, z, x, wrt, h=1e-6):
    """Central differences along the real axis (holomorphic systems)."""
    z = np.asarray(z, dtype=complex)
    x = np.asarray(x, dtype=complex)
    base = z if wrt == "params" else x
    cols = []
    for j in range(len(base)):
        e = np.zeros(len(base), dtype=complex)
        e[j] = h
        if wrt == "params":
            hi, lo = evaluate(sysm, z + e, x), evaluate(sysm, z - e, x)
        else:
            hi, lo = evaluate(sysm, z, x + e), evaluate(sysm, z, x - e)
        cols.append((hi - lo) / (2.0 * h))
    return np.stack(cols, axis=1)


def test_evaluate_quadratic():
    sysm = quadratic_system()
    out = evaluate(sysm, [4.0], [2.0])
    assert out.shape == (1,)
    assert abs(out[0]) < 1e-14
    out = evaluate(sysm, [4.0], [3.0])
    assert abs(out[0] - 5.0) < 1e-14


def test_evaluate_complex_point():
    sysm = mixed_system()
    z = np.array([1.0 + 2.0j, -0.5j])
    x = np.array([0.3 - 0.1j, 2.0])
    f0 = x[0] ** 3 + z[0] * x[0] * x[1] - 2.0 * z[1] + 1j
    f1 = -(x[0] - x[1]) / (z[0] + 3.0) + x[1] ** 2
    out = evaluate(sysm, z, x)
    assert np.allclose(out, [f0, f1], rtol=0, atol=1e-14)


def test_evaluate_shape_errors():
    sysm = quadratic_system()
    with pytest.raises(ValueError):
        evaluate(sysm, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        evaluate(sysm, [1.0], [1.0, 2.0])


def test_residual_is_max_abs_output():
    sysm = mixed_system()
    z = np.array([0.7, 1.1 - 0.2j])
    x = np.array([1.5j, -0.4])
    out = evaluate(sysm, z, x)
    assert residual(sysm, z, x) == pytest.approx(float(np.abs(out).max()), rel=1e-15)


def test_division_pole_raises():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    expr = b.unknown("x") / (b.param("z") - 1.0)
    sysm = b.finish([expr])
    with pytest.raises(EvaluationSingular):
        evaluate(sysm, [1.0], [2.0])
    # Away from the pole it is fine.
    assert np.isfinite(evaluate(sysm, [3.0], [2.0])).all()


def test_division_pole_raises_for_a_nan_numerator():
    # inf - inf is NaN, and a NaN numerator fails the relative pole test.
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    inf = b.const(1e400)
    sysm = b.finish([(inf - inf) / (b.param("z") - 1.0)])
    with pytest.raises(EvaluationSingular):
        evaluate(sysm, [1.0], [2.0])


def test_division_pole_check_survives_a_modulus_that_overflows():
    # |1.5e308 (1 + i)| is past the largest float: Python's abs raised
    # OverflowError there, which no caller of evaluate catches.
    huge = [1.5e308 * (1 + 1j)]
    assert evaluate(parse_system("params a; unknowns x; eqs a/x - 1;"), [1.0], huge)[0] == -1
    # An infinite numerator modulus puts every finite denominator at a pole.
    with pytest.raises(EvaluationSingular):
        evaluate(parse_system("params a; unknowns x; eqs x/a - 1;"), [1.0], huge)


def test_pow_rejects_bad_exponents():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x = b.unknown("x")
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(ValueError):
        x ** 0.5


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(11)
    sysm = mixed_system()
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ju = jacobian_unknowns(sysm, z, x)
        jp = jacobian_parameters(sysm, z, x)
        assert ju.shape == (2, 2) and jp.shape == (2, 2)
        scale_u = 1.0 + float(np.abs(ju).max())
        scale_p = 1.0 + float(np.abs(jp).max())
        assert np.abs(ju - fd_jacobian(sysm, z, x, "unknowns")).max() <= 1e-6 * scale_u
        assert np.abs(jp - fd_jacobian(sysm, z, x, "params")).max() <= 1e-6 * scale_p


def test_jacobian_quadratic_exact():
    sysm = quadratic_system()
    assert jacobian_unknowns(sysm, [4.0], [3.0])[0, 0] == pytest.approx(6.0)
    assert jacobian_parameters(sysm, [4.0], [3.0])[0, 0] == pytest.approx(-1.0)


# ------------------------------------------------------------
# compress
# ------------------------------------------------------------


def test_compress_folds_constants():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x = b.unknown("x")
    sysm = b.finish([x * (b.const(2.0) * b.const(3.0))])
    small = compress(sysm)
    # 6.0 appears as one folded constant: const, unk, mul.
    assert len(small.reachable()) == 3
    assert np.allclose(evaluate(small, [0.0], [5.0]), evaluate(sysm, [0.0], [5.0]))


def test_compress_identity_elimination():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x = b.unknown("x")
    sysm = b.finish([x + 0.0, x * 1.0, x ** 1, x * 0.0, x ** 0])
    small = compress(sysm)
    out = evaluate(small, [0.0], [7.0])
    assert np.allclose(out, [7.0, 7.0, 7.0, 0.0, 1.0])
    # x+0, x*1, x^1 all collapse onto the unknown leaf itself.
    assert small.outputs[0] == small.outputs[1] == small.outputs[2]


def test_compress_shares_common_subexpressions():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x, z = b.unknown("x"), b.param("z")
    u1 = x * z + 1.0
    u2 = x * z + 1.0  # same expression, separate nodes
    sysm = b.finish([u1 * u1, u2 + 2.0])
    small = compress(sysm)
    assert len(small.reachable()) < len(sysm.reachable())
    rng = np.random.default_rng(3)
    for _ in range(4):
        z0 = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        x0 = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert np.allclose(evaluate(small, z0, x0), evaluate(sysm, z0, x0))


def test_compress_never_grows():
    sysm = mixed_system()
    assert len(compress(sysm).reachable()) <= len(sysm.reachable())


def test_compress_keeps_division_pole():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x = b.unknown("x")
    sysm = b.finish([x / (b.const(1.0) - b.const(1.0))])
    small = compress(sysm)
    with pytest.raises(EvaluationSingular):
        evaluate(small, [0.0], [1.0])


# ------------------------------------------------------------
# square_up
# ------------------------------------------------------------


def overdetermined_system():
    # Two equations, one unknown, sharing the zero x=2 at z=4.
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x, z = b.unknown("x"), b.param("z")
    return b.finish([x ** 2 - z, x ** 3 - z * x])


def test_square_up_keeps_common_zero():
    sysm = overdetermined_system()
    rng = np.random.default_rng(0)
    sq = square_up(sysm, [4.0], [2.0], rng)
    assert sq.num_outputs == 1
    assert residual(sq, [4.0], [2.0]) < 1e-12
    assert sq.squareup_parent is sysm
    assert sq.squareup_coeffs.shape == (1, 2)
    assert np.allclose(np.abs(sq.squareup_coeffs), 1.0)


def test_square_up_square_system_is_identity():
    sysm = quadratic_system()
    assert square_up(sysm, [4.0], [2.0], np.random.default_rng(0)) is sysm


def test_square_up_rank_precondition():
    sysm = overdetermined_system()
    # x=0, z=0 is a zero of both outputs but the Jacobian column vanishes.
    with pytest.raises(RankDeficient):
        square_up(sysm, [0.0], [0.0], np.random.default_rng(0))


def test_square_up_underdetermined_rejected():
    b = SystemBuilder(parameters=("z",), unknowns=("x", "y"))
    sysm = b.finish([b.unknown("x") * b.unknown("y") - b.param("z")])
    with pytest.raises(RankDeficient):
        square_up(sysm, [1.0], [1.0, 1.0], np.random.default_rng(0))


def test_square_up_linear_combination_values():
    sysm = overdetermined_system()
    sq = square_up(sysm, [4.0], [2.0], np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for _ in range(4):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        x = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        expect = sq.squareup_coeffs @ evaluate(sysm, z, x)
        assert np.allclose(evaluate(sq, z, x), expect)


# ------------------------------------------------------------
# parser and printer
# ------------------------------------------------------------


def test_parse_simple_system():
    sysm = parse_system("params z; unknowns x; eqs x^2 - z;")
    assert sysm.parameter_names == ("z",)
    assert sysm.unknown_names == ("x",)
    assert sysm.num_outputs == 1
    assert abs(evaluate(sysm, [9.0], [3.0])[0]) < 1e-14


def test_parse_multiple_equations_and_imaginary_unit():
    src = """
    params a, b;
    unknowns x, y;
    eqs
      x*y - a + 2*i;
      (x + y)^2 / (b + 1) - i*x;
    """
    sysm = parse_system(src)
    z = np.array([1.0 + 1.0j, 2.0])
    x = np.array([0.5, -1.5j])
    expect0 = x[0] * x[1] - z[0] + 2j
    expect1 = (x[0] + x[1]) ** 2 / (z[1] + 1.0) - 1j * x[0]
    assert np.allclose(evaluate(sysm, z, x), [expect0, expect1])


def test_parse_equations_are_semicolon_separated():
    sysm = parse_system("params a; unknowns x, y; eqs x - a; y - a;")
    assert sysm.num_outputs == 2
    assert np.allclose(evaluate(sysm, [2.0], [3.0, 5.0]), [1.0, 3.0])
    with pytest.raises(ParseError):
        parse_system("params a; unknowns x, y; eqs x - a, y - a;")


def test_parse_matches_builder():
    built = quadratic_system()
    parsed = parse_system("params z; unknowns x; eqs x^2 - z;")
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        x = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert np.allclose(evaluate(built, z, x), evaluate(parsed, z, x))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_system("params z\nunknowns x;\neqs x - z;")
    # Missing ';' is noticed at 'unknowns' on line 2.
    assert info.value.line == 2
    assert info.value.col >= 1


def test_parse_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifier) as info:
        parse_system("params z; unknowns x; eqs x - w;")
    assert info.value.line == 1


def test_parse_duplicate_identifier():
    with pytest.raises(DuplicateIdentifier):
        parse_system("params z; unknowns z; eqs z;")
    with pytest.raises(DuplicateIdentifier):
        parse_system("params i; unknowns x; eqs x;")


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ParseError):
        parse_system("params z; unknowns x; eqs x^1.5 - z;")


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError):
        parse_system("")
    with pytest.raises(ParseError):
        parse_system("params z; unknowns x;")


def test_printer_round_trip():
    for sysm in (quadratic_system(), mixed_system(), overdetermined_system()):
        again = parse_system(to_source(sysm))
        assert again.parameter_names == sysm.parameter_names
        assert again.unknown_names == sysm.unknown_names
        rng = np.random.default_rng(9)
        for _ in range(5):
            z = rng.standard_normal(sysm.num_parameters) + 1j * rng.standard_normal(sysm.num_parameters)
            x = rng.standard_normal(sysm.num_unknowns) + 1j * rng.standard_normal(sysm.num_unknowns)
            assert np.allclose(evaluate(again, z, x), evaluate(sysm, z, x), atol=1e-12)


def test_printer_handles_complex_constants():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x = b.unknown("x")
    sysm = b.finish([x + (1.5 - 2.0j), x * 1j, x - 0.25j])
    again = parse_system(to_source(sysm))
    pt = np.array([0.3 + 0.7j])
    assert np.allclose(evaluate(again, [0.0], pt), evaluate(sysm, [0.0], pt))


def test_printer_writes_infinite_constants_and_rejects_nan():
    sysm = parse_system("params a; unknowns x; eqs x - 1e400*a; x + -1e400;")
    text = to_source(sysm)
    assert "1e400 * a" in text and "-1e400" in text
    again = parse_system(text)
    assert again.nodes == sysm.nodes
    # compress folds 1e400 - 1e400 to NaN, which the grammar cannot write.
    nan = compress(parse_system("params a; unknowns x; eqs x + (1e400 - 1e400);"))
    with pytest.raises(ValueError, match="nan"):
        to_source(nan)
    b = SystemBuilder(parameters=("a",), unknowns=("x",))
    with pytest.raises(ValueError, match="inf"):
        to_source(b.finish([b.unknown("x") * complex(0.0, float("inf"))]))


def test_gate_system_validation():
    from monogal.slp import GateSystem

    with pytest.raises(ValueError):
        GateSystem((), ("x",), [0], [("unk", 0)])  # no parameters
    with pytest.raises(ValueError):
        GateSystem(("z",), ("x",), [], [("unk", 0)])  # no outputs
    with pytest.raises(ValueError):
        GateSystem(("z",), ("x",), [5], [("unk", 0)])  # output id out of range
    with pytest.raises(ValueError):
        GateSystem(("z",), ("x",), [1], [("unk", 0), ("add", 0, 1)])  # child after parent
    with pytest.raises(ValueError):
        GateSystem(("z",), ("x",), [1], [("unk", 0), ("pow", 0, -2)])  # negative exponent


def test_division_pole_is_decided_by_the_value_alone():
    # d(c*x/z)/dx = c/z divides by z too; its large numerator must not turn a
    # regular point into a pole, and a real pole must still raise everywhere.
    from monogal._compile import compiled_for

    sysm = parse_system("params z; unknowns x; eqs 1e20*x/z;")
    z, x = np.array([1.0 + 0j]), np.array([1e-15 + 0j])
    f, jac, _ = compiled_for(sysm).value_and_jac(z, x)
    assert jac[0, 0] == pytest.approx(1e20)
    assert jacobian_parameters(sysm, z, x)[0, 0] == pytest.approx(-1e5)
    for fn in (evaluate, jacobian_unknowns, jacobian_parameters):
        with pytest.raises(EvaluationSingular):
            fn(sysm, [0.0], [1.0])
