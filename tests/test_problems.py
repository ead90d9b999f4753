from __future__ import annotations

import math
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from monogal.linalg import cross_matrix, numerical_rank
from monogal.problems import (
    PROBLEMS,
    CameraPose,
    DegenerateGeometry,
    FivePointInstance,
    FivePointSolution,
    InvalidProbability,
    IsotropicTranslation,
    NoInlierSample,
    P3PInstance,
    P3PSolution,
    SingularCayley,
    cayley_rotation,
    essential_matrix,
    fivepoint_fabricate,
    fivepoint_system,
    p3p_conic_solve,
    p3p_fabricate,
    p3p_fabricate_scene,
    p3p_pose_from_depths,
    p3p_system,
    ransac_trials,
    twisted_pair,
)
from monogal.slp import evaluate, jacobian_unknowns, residual


# ------------------------------------------------------------
# P3P depth system
# ------------------------------------------------------------


def test_p3p_system_shapes():
    sysm = p3p_system()
    assert len(sysm.parameter_names) == 6
    assert len(sysm.unknown_names) == 3
    assert len(sysm.outputs) == 3


def test_p3p_trivial_instance():
    # All right angles, all squared distances 2: the unit depths solve exactly.
    inst = P3PInstance(c12=0.0, c13=0.0, c23=0.0, d12=2.0, d13=2.0, d23=2.0)
    x = np.array([1.0, 1.0, 1.0], dtype=complex)
    out = evaluate(p3p_system(), inst.as_params(), x)
    assert np.all(out == 0.0)


def test_p3p_fabricate_invariants():
    rng = np.random.default_rng(7)
    inst, sol = p3p_fabricate(rng)
    z, x = inst.as_params(), sol.as_vector()
    # Real geometry: real data, unit-vector cosines, positive distances and depths.
    assert np.all(z.imag == 0.0)
    for c in (inst.c12, inst.c13, inst.c23):
        assert abs(c) < 1.0
    for d in (inst.d12, inst.d13, inst.d23):
        assert d.real > 0.0
    for lam in (sol.lambda1, sol.lambda2, sol.lambda3):
        assert lam.imag == 0.0
        assert lam.real > 0.0
    assert residual(p3p_system(), z, x) <= 1e-10
    assert numerical_rank(jacobian_unknowns(p3p_system(), z, x)) == 3


def test_p3p_fabricate_scene_consistency():
    rng = np.random.default_rng(3)
    inst, sol, pose, p, q = p3p_fabricate_scene(rng)
    assert np.allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-12)
    # Depth-scaled directions reproduce the transformed world points.
    lam = sol.as_vector().real
    assert np.allclose(lam[:, None] * p, q @ pose.R.T + pose.t, atol=1e-10)


def test_p3p_fabricate_redraws_nearly_coplanar_rays():
    # The named seeds' first draws have |det p| from 1.5e-7 to 1.2e-2; four
    # of their solutions lie near infinity, and monodromy from them (CLI
    # seeds 1682239577, 1875860591, 14181) ended in a tracking collapse.
    named = (1682239577, 1875860591, 14181, 722512194, 1909471653, 2019793979)
    for seed in (*named, *range(100)):
        inst, _, _, p, _ = p3p_fabricate_scene(np.random.default_rng(seed))
        assert abs(np.linalg.det(p)) >= 2e-2
        if seed in named:
            assert max(np.abs(s.as_vector()).max() for s in p3p_conic_solve(inst)) < 100.0


def test_p3p_negated_depths_also_solve():
    rng = np.random.default_rng(5)
    inst, sol = p3p_fabricate(rng)
    assert residual(p3p_system(), inst.as_params(), -sol.as_vector()) <= 1e-10


def test_p3p_solution_vector_round_trip():
    sol = P3PSolution(1.0 + 2.0j, -0.5, 3.0j)
    back = P3PSolution.from_vector(sol.as_vector())
    assert back == sol


# ------------------------------------------------------------
# conic-pencil solver
# ------------------------------------------------------------


def test_conic_solve_finds_eight_distinct_solutions():
    rng = np.random.default_rng(11)
    inst, _ = p3p_fabricate(rng)
    sols = p3p_conic_solve(inst)
    assert len(sols) == 8
    vecs = [s.as_vector() for s in sols]
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.abs(vecs[i] - vecs[j]).max() > 1e-6
    z = inst.as_params()
    for v in vecs:
        assert residual(p3p_system(), z, v) <= 1e-10


def test_conic_solve_contains_fabricated_solution():
    rng = np.random.default_rng(13)
    inst, sol = p3p_fabricate(rng)
    target = sol.as_vector()
    dists = [np.abs(s.as_vector() - target).max() for s in p3p_conic_solve(inst)]
    assert min(dists) <= 1e-6


def test_conic_solutions_come_in_sign_pairs():
    rng = np.random.default_rng(17)
    inst, _ = p3p_fabricate(rng)
    vecs = [s.as_vector() for s in p3p_conic_solve(inst)]
    for v in vecs:
        assert min(np.abs(w + v).max() for w in vecs) <= 1e-8


# ------------------------------------------------------------
# pose recovery
# ------------------------------------------------------------


def test_pose_from_depths_recovers_fabricated_pose():
    rng = np.random.default_rng(19)
    inst, sol, pose, p, q = p3p_fabricate_scene(rng)
    got = p3p_pose_from_depths(sol, p, q)
    assert np.allclose(got.R, pose.R, atol=1e-8)
    assert np.allclose(got.t, pose.t, atol=1e-8)


def test_pose_from_depths_is_a_rotation():
    rng = np.random.default_rng(23)
    _, sol, _, p, q = p3p_fabricate_scene(rng)
    got = p3p_pose_from_depths(sol, p, q)
    assert np.allclose(got.R @ got.R.T, np.eye(3), atol=1e-10)
    assert np.linalg.det(got.R) == pytest.approx(1.0, abs=1e-10)


def test_pose_from_depths_rejects_collinear_points():
    q = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    p = np.eye(3)
    with pytest.raises(DegenerateGeometry):
        p3p_pose_from_depths(P3PSolution(1.0, 1.0, 1.0), p, q)


# ------------------------------------------------------------
# Cayley map
# ------------------------------------------------------------


def test_cayley_rotation_is_orthogonal():
    rng = np.random.default_rng(29)
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        R = cayley_rotation(A - A.T)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_cayley_rotation_satisfies_defining_relation():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((3, 3))
    S = A - A.T
    R = cayley_rotation(S)
    assert np.allclose((np.eye(3) - S) @ R, np.eye(3) + S, atol=1e-12)


def test_cayley_rotation_singular_complex_skew():
    # det(I - S) = 1 + a^2 + b^2 + c^2 vanishes at (a, b, c) = (i, 0, 0).
    S = cross_matrix(np.array([1j, 0.0, 0.0]))
    with pytest.raises(SingularCayley):
        cayley_rotation(S)


# ------------------------------------------------------------
# five-point system
# ------------------------------------------------------------


def test_fivepoint_system_shapes():
    sysm = fivepoint_system()
    assert len(sysm.parameter_names) == 30
    assert len(sysm.unknown_names) == 11
    assert len(sysm.outputs) == 15


def test_fivepoint_fabricate_invariants():
    rng = np.random.default_rng(37)
    inst, sol = fivepoint_fabricate(rng)
    z, x = inst.as_params(), sol.as_vector()
    assert z.shape == (30,)
    assert x.shape == (11,)
    assert residual(fivepoint_system(), z, x) <= 1e-10
    assert numerical_rank(jacobian_unknowns(fivepoint_system(), z, x)) == 11
    R = sol.R
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-10)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


def test_fivepoint_view_points_relation():
    rng = np.random.default_rng(41)
    inst, sol = fivepoint_fabricate(rng)
    p1 = inst.view_points(1)
    p2 = inst.view_points(2)
    t = np.array([sol.t1, sol.t2, 1.0], dtype=complex)
    assert np.allclose(p2, p1 @ sol.R.T + t, atol=1e-12)


def test_fivepoint_solution_vector_round_trip():
    rng = np.random.default_rng(43)
    _, sol = fivepoint_fabricate(rng)
    back = FivePointSolution.from_vector(sol.as_vector())
    assert back.t1 == sol.t1 and back.t2 == sol.t2
    assert np.array_equal(back.R, sol.R)


def test_fivepoint_instance_views_are_disjoint_slices():
    inst = FivePointInstance(np.arange(30, dtype=complex))
    assert np.array_equal(inst.view_points(1).ravel(), np.arange(15))
    assert np.array_equal(inst.view_points(2).ravel(), np.arange(15, 30))


# ------------------------------------------------------------
# twisted pair
# ------------------------------------------------------------


def test_twisted_pair_is_an_involution():
    rng = np.random.default_rng(47)
    _, sol = fivepoint_fabricate(rng)
    twin = twisted_pair(sol)
    assert twin.t1 == sol.t1 and twin.t2 == sol.t2
    assert np.abs(twin.R - sol.R).max() > 1e-3
    back = twisted_pair(twin)
    assert np.allclose(back.R, sol.R, atol=1e-10)


def test_twisted_pair_solves_the_same_instance():
    rng = np.random.default_rng(53)
    inst, sol = fivepoint_fabricate(rng)
    twin = twisted_pair(sol)
    assert residual(fivepoint_system(), inst.as_params(), twin.as_vector()) <= 1e-8


def test_twisted_pair_negates_essential_matrix():
    rng = np.random.default_rng(59)
    _, sol = fivepoint_fabricate(rng)
    assert np.allclose(essential_matrix(twisted_pair(sol)), -essential_matrix(sol), atol=1e-10)


def test_fivepoint_deck_map_is_the_twisted_pair_on_vectors():
    _, sol = fivepoint_fabricate(np.random.default_rng(59))
    twin = PROBLEMS["fivepoint"].deck_map(sol.as_vector())
    assert np.array_equal(twin, twisted_pair(sol).as_vector())


@pytest.mark.parametrize("name", ["p3p", "fivepoint"])
def test_deck_map_is_a_fixed_point_free_involution(name):
    problem = PROBLEMS[name]
    rng = np.random.default_rng(7)
    for _ in range(5):
        _, x = problem.fabricate(rng)
        image = problem.deck_map(x)
        assert np.abs(problem.deck_map(image) - x).max() <= 1e-12
        assert np.abs(image - x).max() > 1e-3


def test_twisted_pair_isotropic_translation():
    # t = (i, 0, 1) has t.t = 0.
    with pytest.raises(IsotropicTranslation):
        twisted_pair(FivePointSolution(1j, 0.0, np.eye(3, dtype=complex)))


# ------------------------------------------------------------
# RanSaC trials
# ------------------------------------------------------------


def test_ransac_trials_reference_values():
    assert ransac_trials(10, 3, 0.5, 0.95) == 35
    assert ransac_trials(100, 3, 0.5, 0.95) == 24


def test_ransac_trials_monotone_in_sample_size():
    counts = [ransac_trials(100, k, 0.5, 0.95) for k in (3, 4, 5, 6)]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


def test_ransac_trials_floor_artifact():
    # floor(0.5 * 11) = floor(0.5 * 10) = 5 while C(n, 3) keeps growing, so
    # one extra point can demand more trials.
    assert ransac_trials(11, 3, 0.5, 0.95) > ransac_trials(10, 3, 0.5, 0.95)


def exact_ransac_trials(n, k, p_inlier, s):
    """ransac_trials as a 60-digit Decimal quotient: (the ceiling, the quotient)."""
    with localcontext() as ctx:
        ctx.prec = 60

        def ln(q: Fraction) -> Decimal:
            return (Decimal(q.numerator) / Decimal(q.denominator)).ln()

        P = Fraction(math.comb(math.floor(p_inlier * n), k), math.comb(n, k))
        quotient = ln(1 - Fraction(s)) / ln(1 - P)
        return int(quotient.to_integral_value(rounding=ROUND_CEILING)), quotient


def test_ransac_trials_small_success_probability_is_exact():
    # P = 1 / C(65, 6) ~ 1.2e-8: log(1 - P) lost digits, giving 570572849.
    assert exact_ransac_trials(65, 6, 0.1, 0.999)[0] == 570572846
    assert ransac_trials(65, 6, 0.1, 0.999) == 570572846


def test_ransac_trials_success_probability_below_rounding():
    # P ~ 8.6e-19, so 1 - P rounds to 1 and the count divided by zero. The
    # count is past 2**53, so compare to within a few units in the last place.
    _, quotient = exact_ransac_trials(100000, 6, 0.001, 0.99)
    got = ransac_trials(100000, 6, 0.001, 0.99)
    assert abs(Decimal(got) / quotient - 1) < Decimal("1e-15")


def test_ransac_trials_all_inliers():
    assert ransac_trials(10, 3, 1.0, 0.95) == 1


def test_ransac_trials_validation():
    with pytest.raises(InvalidProbability):
        ransac_trials(10, 3, 0.5, 1.0)
    with pytest.raises(InvalidProbability):
        ransac_trials(10, 3, 0.5, 0.0)
    with pytest.raises(InvalidProbability):
        ransac_trials(10, 3, 0.0, 0.95)
    with pytest.raises(InvalidProbability):
        ransac_trials(10, 3, 1.2, 0.95)
    with pytest.raises(NoInlierSample):
        ransac_trials(5, 3, 0.5, 0.95)
    with pytest.raises(ValueError):
        ransac_trials(0, 3, 0.5, 0.95)


# ------------------------------------------------------------
# registry
# ------------------------------------------------------------


def test_problem_registry_contents():
    assert set(PROBLEMS) == {"p3p", "fivepoint"}
    assert PROBLEMS["p3p"].classes == "sign"
    assert PROBLEMS["fivepoint"].classes == "translation"
    x = np.array([1.0, -2.0, 3.0j])
    assert np.array_equal(PROBLEMS["p3p"].deck_map(x), -x)
    assert PROBLEMS["fivepoint"].deck_map is not None


def test_problem_registry_fabricate_vectors():
    rng = np.random.default_rng(61)
    for name, n_params, n_unknowns in (("p3p", 6, 3), ("fivepoint", 30, 11)):
        prob = PROBLEMS[name]
        z, x = prob.fabricate(rng)
        assert z.shape == (n_params,)
        assert x.shape == (n_unknowns,)
        assert residual(prob.build_system(), z, x) <= 1e-10
