"""Golden bits of the generated evaluator.

The digests were recorded while the value, the Jacobian and the parameter
direction derivative each still had their own code generator (symbolic
forward mode for the Jacobian, dual numbers for the direction derivative).
Today one generated function computes all three in stages and returns after
the one its caller asks for. The digests pin every output bit, so a change
to the shared symbolic differentiation, to the emitted code or to a stage
exit that moves any rounding fails here. The systems are unsquared, so no
BLAS call takes part.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from monogal._compile import compiled_for
from monogal.problems import fivepoint_system, p3p_system
from monogal.slp import evaluate, jacobian_parameters, jacobian_unknowns, parse_system, residual, square_up

RATIONAL_SOURCE = """params a, b;
unknowns x, y;
eqs x^3 + a*x*y - 2*b + i; -(x - y)/(a + 3) + y^2/(x - b) - x/y;
"""

SYSTEMS = {
    "p3p": p3p_system,
    "fivepoint": fivepoint_system,
    "rational": lambda: parse_system(RATIONAL_SOURCE),
}

# sha256 of the concatenated tobytes() over 200 points from default_rng(7).
# The rational direction digest was re-recorded when the direction stage
# moved from numpy scalars to Python complexes, whose division rounds
# differently in the last bit (83 of the 200 points, 2.9e-16 relative).
GOLDEN = {
    "p3p": (
        "c33b5263546b12e264921101d6e269bc065d96c4289b6fc0c9b92e6b4163cd57",
        "a9553736f50937951b3fa614572a4e6d4c58f9a92f8a4dfe51080abd77216523",
        "f15940dd1e9a4b5b88d3dd93b9777abdb6eef1414e7ab8b21f6b55141c82accf",
    ),
    "fivepoint": (
        "0d533c876f86669c2dcae714735044149565ef1abd3bbf259b886a2dc7b7ecd6",
        "b5507e6f9cb849edc3e819e742576f920cfbbefd85ad4c2da56c404fad0aa4a6",
        "a8ec331751d2149ae9b6fade78d53e29d108b32dfc8ada8703190a28b27131bd",
    ),
    "rational": (
        "4bd8fc542e6cc137598a171f59f9577210423c1d093e3320521c0bab8ada6b17",
        "d071ecd4f861601b12ed05b7373ee3eeba48135f89b51819c69865e7d5e0c135",
        "14a7d66127c2968cd26dbef4d1bd21048d31969d7997b063e0be572c02f35887",
    ),
}


def _points(sysm, n=200, seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield tuple(rng.standard_normal(m) + 1j * rng.standard_normal(m)
                    for m in (sysm.num_parameters, sysm.num_unknowns, sysm.num_parameters))


def _bytes(out) -> bytes:
    # The evaluator returns values and direction derivatives as lists.
    return np.asarray(out, dtype=complex).tobytes()


def _digests(sysm):
    comp = compiled_for(sysm)
    hv, hj, hp = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for z, x, v in _points(sysm):
        hv.update(_bytes(comp.value(z, x)))
        f, jac, _ = comp.value_and_jac(z, x)
        hj.update(_bytes(f))
        hj.update(jac.tobytes())
        hp.update(_bytes(comp.value_and_jac(z, x, v)[2]))
    return hv.hexdigest(), hj.hexdigest(), hp.hexdigest()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_generated_evaluators_keep_their_bits(name):
    sysm = SYSTEMS[name]()
    assert sysm.squareup_parent is None
    assert _digests(sysm) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_public_functions_call_the_generated_evaluators(name):
    sysm = SYSTEMS[name]()
    comp = compiled_for(sysm)
    for z, x, v in list(_points(sysm, n=5)):
        f, jac, _ = comp.value_and_jac(z, x)
        assert evaluate(sysm, z, x).tobytes() == _bytes(comp.value(z, x))
        assert jacobian_unknowns(sysm, z, x).tobytes() == jac.tobytes()
        jp = jacobian_parameters(sysm, z, x)
        for i in range(sysm.num_parameters):
            e = np.zeros(sysm.num_parameters, dtype=complex)
            e[i] = 1.0
            assert jp[:, i].tobytes() == _bytes(comp.value_and_jac(z, x, e)[2])
        assert residual(sysm, z, x) == comp.residual(z, x)


def _squared_up(sysm):
    z, x, _ = next(_points(sysm))
    return square_up(sysm, z, x, np.random.default_rng(3))


def test_squared_up_system_is_evaluated_through_its_parent():
    sysm = fivepoint_system()
    sq = _squared_up(sysm)
    assert sq.squareup_parent is sysm
    coeffs = sq.squareup_coeffs
    for z, x, v in _points(sysm, n=5, seed=11):
        assert evaluate(sq, z, x).tobytes() == (coeffs @ evaluate(sysm, z, x)).tobytes()
        assert jacobian_unknowns(sq, z, x).tobytes() == (coeffs @ jacobian_unknowns(sysm, z, x)).tobytes()
        assert _bytes(compiled_for(sq).value_and_jac(z, x, v)[2]) == (
            coeffs @ np.asarray(compiled_for(sysm).value_and_jac(z, x, v)[2])).tobytes()


@pytest.mark.parametrize("make", [*(SYSTEMS[name] for name in sorted(SYSTEMS)),
                                  lambda: _squared_up(fivepoint_system())],
                         ids=[*sorted(SYSTEMS), "fivepoint-squared"])
def test_stage_exits_agree_bitwise(make):
    # Each exit of the one generated function returns the bits the later
    # stages would have returned for the same outputs.
    sysm = make()
    comp = compiled_for(sysm)
    for z, x, v in _points(sysm, n=20, seed=5):
        value = comp.value(z, x)
        f, jac, d = comp.value_and_jac(z, x)
        f_v, jac_v, d_v = comp.value_and_jac(z, x, v)
        assert d is None
        assert _bytes(value) == _bytes(f) == _bytes(f_v)
        assert jac.tobytes() == jac_v.tobytes()
        assert np.asarray(d_v).shape == (sysm.num_outputs,)


def test_non_finite_constants_compile():
    # 1e400 parses to inf; the emitted repr of such constants names inf/infj.
    sysm = parse_system("params a; unknowns x; eqs x*a + 1e400; x^2 - a*1e400*i;")
    out = evaluate(sysm, [2.0], [3.0])
    assert out[0] == complex(float("inf"), 0.0)
    assert np.isnan(out[1].real) and np.isnan(out[1].imag)
