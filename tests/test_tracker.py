from __future__ import annotations

import numpy as np
import pytest

from conftest import run_python
from monogal import tracker
from monogal.slp import SystemBuilder, residual
from monogal.tracker import (
    DegeneratePath,
    PathSegment,
    TrackStatus,
    path_point,
    path_tangent,
    refine,
    track,
)


def quadratic_system():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    return b.finish([b.unknown("x") ** 2 - b.param("z")])


def cubic_system():
    # x^3 + z1 x + z2: three solution branches.
    b = SystemBuilder(parameters=("z1", "z2"), unknowns=("x",))
    x = b.unknown("x")
    return b.finish([x ** 3 + b.param("z1") * x + b.param("z2")])


def overdetermined_system():
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    x, z = b.unknown("x"), b.param("z")
    return b.finish([x ** 2 - z, x ** 3 - z * x])


def unit_gamma(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


# ------------------------------------------------------------
# segments
# ------------------------------------------------------------


def test_segment_validation():
    with pytest.raises(ValueError):
        PathSegment([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        PathSegment([1.0], [2.0], gamma_start=2.0)
    with pytest.raises(ValueError):
        PathSegment([[1.0]], [[2.0]])


def test_path_point_endpoints_exact():
    seg = PathSegment([1.0 + 1j], [4.0], gamma_start=1j, gamma_end=-1j)
    assert np.array_equal(path_point(seg, 0.0), np.array([1.0 + 1j]))
    assert np.array_equal(path_point(seg, 1.0), np.array([4.0]))
    with pytest.raises(ValueError):
        path_point(seg, 1.5)
    with pytest.raises(ValueError):
        path_point(seg, -0.1)


def test_path_point_antipodal_gammas():
    seg = PathSegment([1.0], [4.0], gamma_start=1.0, gamma_end=-1.0)
    with pytest.raises(DegeneratePath):
        path_point(seg, 0.5)
    # Off the singular t the path is fine.
    assert np.isfinite(path_point(seg, 0.25)).all()


def test_path_tangent_matches_finite_differences():
    rng = np.random.default_rng(0)
    seg = PathSegment(
        rng.standard_normal(3) + 1j * rng.standard_normal(3),
        rng.standard_normal(3) + 1j * rng.standard_normal(3),
        unit_gamma(rng),
        unit_gamma(rng),
    )
    h = 1e-7
    for t in (0.1, 0.5, 0.9):
        fd = (path_point(seg, t + h) - path_point(seg, t - h)) / (2.0 * h)
        assert np.abs(path_tangent(seg, t) - fd).max() < 1e-6


def test_path_point_and_tangent_bitwise_match_inline_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g0, g1 = unit_gamma(rng), unit_gamma(rng)
        seg = PathSegment(z0, z1, g0, g1)
        for t in rng.random(5):
            t = float(t)
            den = (1.0 - t) * g0 + t * g1
            phi = ((1.0 - t) * g0 * z0 + t * g1 * z1) / den
            dphi = ((g1 * z1 - g0 * z0) - phi * (g1 - g0)) / den
            assert np.array_equal(path_point(seg, t), phi)
            assert np.array_equal(path_tangent(seg, t), dphi)


def test_straight_segment_is_linear():
    seg = PathSegment([0.0, 2.0], [4.0, 2.0])
    assert np.allclose(path_point(seg, 0.25), [1.0, 2.0])
    assert np.allclose(path_tangent(seg, 0.7), [4.0, 0.0])


# ------------------------------------------------------------
# track
# ------------------------------------------------------------


def test_track_both_branches():
    sysm = quadratic_system()
    rng = np.random.default_rng(1)
    seg = PathSegment([1.0], [4.0], unit_gamma(rng), unit_gamma(rng))
    for start, target in ((1.0, 2.0), (-1.0, -2.0)):
        result = track(sysm, seg, [start])
        assert result.success
        assert result.status is TrackStatus.Success
        assert result.t_reached == 1.0
        assert abs(result.endpoint[0] - target) < 1e-10


def test_track_round_trip_returns_start():
    sysm = cubic_system()
    rng = np.random.default_rng(2)
    z0 = np.array([0.0, -8.0])  # x^3 = 8
    z1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g0, g1 = unit_gamma(rng), unit_gamma(rng)
    out = track(sysm, PathSegment(z0, z1, g0, g1), [2.0])
    assert out.success
    # Same gammas reversed: the same path walked backwards.
    back = track(sysm, PathSegment(z1, z0, g1, g0), out.endpoint)
    assert back.success
    assert abs(back.endpoint[0] - 2.0) < 1e-8


def test_track_rejects_bad_input():
    sysm = quadratic_system()
    seg = PathSegment([1.0], [4.0])
    with pytest.raises(ValueError):
        track(sysm, seg, [5.0])  # not a solution at the start
    with pytest.raises(ValueError):
        track(sysm, seg, [1.0, 1.0])  # wrong shape
    with pytest.raises(ValueError):
        track(overdetermined_system(), seg, [1.0])  # not square


def test_track_singular_target_finds_double_root():
    # z: 1 -> 0: the branches collide at the target, where x=0 is the exact
    # double root. Convergence is limited to ~sqrt(eps) there.
    sysm = quadratic_system()
    result = track(sysm, PathSegment([1.0], [0.0]), [1.0])
    if result.success:
        assert abs(result.endpoint[0]) < 1e-4
    else:
        assert result.status in (
            TrackStatus.MinStepReached,
            TrackStatus.CorrectorDiverged,
            TrackStatus.SingularEndpoint,
        )


def test_track_diverging_path_fails():
    # x*z - 1 = 0 has solution x = 1/z; tracking z: 1 -> 0 runs to infinity.
    b = SystemBuilder(parameters=("z",), unknowns=("x",))
    sysm = b.finish([b.unknown("x") * b.param("z") - 1.0])
    result = track(sysm, PathSegment([1.0], [0.0]), [1.0])
    assert not result.success
    assert result.status in (
        TrackStatus.MinStepReached,
        TrackStatus.CorrectorDiverged,
        TrackStatus.SingularEndpoint,
    )


def test_track_max_steps(monkeypatch):
    sysm = quadratic_system()
    rng = np.random.default_rng(3)
    seg = PathSegment([1.0], [4.0], unit_gamma(rng), unit_gamma(rng))
    monkeypatch.setattr(tracker, "_MAX_STEPS", 2)
    result = track(sysm, seg, [1.0])
    assert result.status is TrackStatus.MaxStepsReached
    assert result.steps_taken == 2
    assert result.t_reached < 1.0


def test_track_many_order_and_independence():
    sysm = cubic_system()
    rng = np.random.default_rng(4)
    z0 = np.array([0.0, -8.0])
    roots = [2.0, 2.0 * np.exp(2j * np.pi / 3.0), 2.0 * np.exp(4j * np.pi / 3.0)]
    z1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    seg = PathSegment(z0, z1, unit_gamma(rng), unit_gamma(rng))
    results = [track(sysm, seg, [r]) for r in roots]
    assert len(results) == 3
    assert all(r.success for r in results)
    endpoints = [r.endpoint[0] for r in results]
    # Distinct branches stay distinct.
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(endpoints[i] - endpoints[j]) > 1e-3


# Runs in a child interpreter (conftest.run_python): tracks eight P3P paths
# with lu_solve and again with the scipy reference solve, and prints "equal"
# when every path has the same status, steps, t and endpoint bits.
TRACK_CHILD = """
import numpy as np

from conftest import reference_lu_solve
from monogal import tracker
from monogal.problems import p3p_conic_solve, p3p_fabricate, p3p_system
from monogal.tracker import PathSegment, track

def unit_gamma(rng):
    return complex(np.exp(2j * np.pi * rng.random()))

rng = np.random.default_rng(5)
inst, _ = p3p_fabricate(rng)
target, _ = p3p_fabricate(rng)
seg = PathSegment(inst.as_params(), target.as_params(), unit_gamma(rng), unit_gamma(rng))
sysm = p3p_system()
starts = [sol.as_vector() for sol in p3p_conic_solve(inst)]
shipped = [track(sysm, seg, x) for x in starts]
tracker.lu_solve = reference_lu_solve
reference = [track(sysm, seg, x) for x in starts]
assert len(starts) == 8 and all(r.success for r in shipped)
same = all(
    got.status is want.status and got.steps_taken == want.steps_taken and got.t_reached == want.t_reached
    and got.endpoint.dtype == want.endpoint.dtype and np.array_equal(got.endpoint, want.endpoint)
    for got, want in zip(shipped, reference)
)
print("equal" if same else "differ")
"""


def test_track_bitwise_equal_with_scipy_solve():
    # Swapping in scipy's solve must not move a single bit of a tracked path.
    # scipy's bits depend on the BLAS thread count, so compare at one thread.
    assert run_python(1, "-c", TRACK_CHILD) == "equal\n"


# ------------------------------------------------------------
# refine
# ------------------------------------------------------------


def test_refine_square_newton():
    sysm = quadratic_system()
    out = refine(sysm, [4.0], [2.0 + 1e-4], iters=6)
    assert abs(out.x[0] - 2.0) < 1e-12
    assert out.residual < 1e-12


def test_refine_zero_iters_reports_residual():
    sysm = quadratic_system()
    out = refine(sysm, [4.0], [3.0], iters=0)
    assert abs(out.x[0] - 3.0) < 1e-15
    assert out.residual == pytest.approx(residual(sysm, [4.0], [3.0]))


def test_refine_overdetermined_gauss_newton():
    sysm = overdetermined_system()
    out = refine(sysm, [4.0], [2.0 + 1e-3], iters=5)
    assert abs(out.x[0] - 2.0) < 1e-10
    assert out.residual < 1e-10


def test_refine_early_stop_at_rounding_level():
    sysm = quadratic_system()
    out = refine(sysm, [4.0], [2.0], iters=50)
    assert out.residual <= 1e-14
