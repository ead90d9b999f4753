"""Numerical continuation of solutions along parameter paths.

A path in parameter space is the gamma-weighted projective segment

    phi(t) = ((1-t)*g0*z_start + t*g1*z_end) / ((1-t)*g0 + t*g1)

which reduces to the affine segment for g0 == g1 and realizes the gamma-trick
otherwise. Solutions are continued along phi by integrating the Davidenko ODE

    x'(t) = -(df/dx)^{-1} (df/dz) phi'(t)

with a 4th-order Runge-Kutta predictor and a Newton corrector at fixed t,
growing the step by 1.5 after an accepted step and halving it after a
rejected one. One Newton loop is the corrector, the endpoint polish and
refine, on square systems. Step sizes, tolerances and budgets are fixed
module constants, not options.

Every system reaches the tracker as one pair of stage functions, chosen
once by _stages: tangent(z, x, v) -> k, one RK4 stage, solves
J k = -(df/dz) v, and correct(z, x, tol, step) -> (res, x_new), one Newton
iteration, returns res = max|f| and the iterate x - J^-1 f, or None when
res <= tol or not step. A small square system's pair is its fused kernels
(see monogal._compile); any other system's calls the evaluator and
lu_solve. A step computes its k1 first; a rejected step keeps t, x and
phi(t), and so its k1, and an accepted one drops it.

The per-step arithmetic runs on Python lists of complexes, the evaluator's
own type, with the operations numpy's arrays did in the same order, so it
rounds as they did; only the segment points phi(t), phi'(t) stay numpy
(Python's complex division rounds differently). A step evaluates the
segment twice: at t + h/2 for k2 and k3, and at t + h for k4, the
corrector and, once accepted, the next step's k1. Tracking is
deterministic: identical inputs produce identical results bit for bit, at
any BLAS thread count for systems of up to 96 unknowns (see monogal.linalg).
An evaluation that overflows (OverflowError from a power) rejects the step,
and ends a Newton loop with residual inf.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ._compile import CompiledSystem, compiled_for
from .linalg import SingularMatrix, lu_solve
from .slp import EvaluationSingular, GateSystem

__all__ = [
    "DegeneratePath",
    "PathSegment",
    "TrackStatus",
    "TrackResult",
    "RefineOutcome",
    "path_point",
    "path_tangent",
    "track",
    "refine",
]

_INF = float("inf")
_DIVERGENCE_BOUND = 1e8
# Step control: the first step, its bounds and its growth and shrink factors.
_INITIAL_STEP = 0.05
_MIN_STEP = 1e-7
_MAX_STEP = 0.25
_STEP_INCREASE = 1.5
_STEP_DECREASE = 0.5
# Corrector residual that accepts a step, and the Newton iterations it gets.
_CORRECTOR_TOL = 1e-8
_MAX_CORRECTOR_ITERS = 3
# Step budget per path and Newton polish of the endpoint.
_MAX_STEPS = 10000
_ENDPOINT_REFINE_ITERS = 5


class DegeneratePath(ArithmeticError):
    """The segment denominator (1-t)*g0 + t*g1 vanished (antipodal gammas)."""


@dataclass(frozen=True)
class PathSegment:
    """Parameter-space segment with gamma weights.

    Attributes:
        z_start: parameters at t=0.
        z_end: parameters at t=1.
        gamma_start: unit-modulus weight on the start point.
        gamma_end: unit-modulus weight on the end point.
    """

    z_start: np.ndarray
    z_end: np.ndarray
    gamma_start: complex = 1.0 + 0j
    gamma_end: complex = 1.0 + 0j
    # t-independent parts of phi'(t), set in __post_init__.
    _dnum: np.ndarray = field(init=False, repr=False, compare=False)
    _dden: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "z_start", np.asarray(self.z_start, dtype=complex))
        object.__setattr__(self, "z_end", np.asarray(self.z_end, dtype=complex))
        object.__setattr__(self, "gamma_start", complex(self.gamma_start))
        object.__setattr__(self, "gamma_end", complex(self.gamma_end))
        if self.z_start.shape != self.z_end.shape or self.z_start.ndim != 1:
            raise ValueError("segment endpoints must be vectors of equal length")
        if not (np.isfinite(self.z_start).all() and np.isfinite(self.z_end).all()):
            raise ValueError("segment endpoints must be finite")
        for g in (self.gamma_start, self.gamma_end):
            if not abs(abs(g) - 1.0) <= 1e-12:  # also rejects NaN
                raise ValueError(f"gamma {g} is not unit modulus")
        g0, g1 = self.gamma_start, self.gamma_end
        object.__setattr__(self, "_dnum", g1 * self.z_end - g0 * self.z_start)
        object.__setattr__(self, "_dden", g1 - g0)


class TrackStatus(enum.Enum):
    Success = "Success"
    MinStepReached = "MinStepReached"
    MaxStepsReached = "MaxStepsReached"
    CorrectorDiverged = "CorrectorDiverged"
    SingularEndpoint = "SingularEndpoint"


@dataclass(frozen=True)
class TrackResult:
    """Outcome of tracking one path; endpoint is meaningful iff Success."""

    status: TrackStatus
    endpoint: np.ndarray
    steps_taken: int
    t_reached: float

    @property
    def success(self) -> bool:
        return self.status is TrackStatus.Success


class RefineOutcome(NamedTuple):
    x: np.ndarray
    residual: float


def _segment_eval(seg: PathSegment, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi(t), phi'(t)); raises DegeneratePath near a vanishing denominator."""
    g0, g1 = seg.gamma_start, seg.gamma_end
    den = (1.0 - t) * g0 + t * g1
    if abs(den) < 1e-12:
        raise DegeneratePath(f"segment denominator ~0 at t={t}")
    num = (1.0 - t) * g0 * seg.z_start + t * g1 * seg.z_end
    phi = num / den
    dphi = (seg._dnum - phi * seg._dden) / den
    return phi, dphi


def path_point(seg: PathSegment, t: float) -> np.ndarray:
    """phi(t) on the segment; exact endpoints at t=0 and t=1.

    Raises:
        DegeneratePath: |(1-t)*g0 + t*g1| < 1e-12 (redraw gammas).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0,1]")
    if t == 0.0:
        return seg.z_start.copy()
    if t == 1.0:
        return seg.z_end.copy()
    phi, _ = _segment_eval(seg, t)
    return phi


def path_tangent(seg: PathSegment, t: float) -> np.ndarray:
    """phi'(t) on the segment."""
    _, dphi = _segment_eval(seg, t)
    return dphi


def _maxabs(v: list) -> float:
    # max|v_i| over Python complexes, NaN when any |v_i| is NaN, as
    # np.abs(v).max() gives: max() alone keeps a NaN only in first place.
    try:
        a = [abs(e) for e in v]
    except OverflowError:  # a finite entry whose modulus overflows
        return float(np.abs(np.array(v)).max())
    total = sum(a)
    return total if total != total else max(a, default=0.0)


def _quiet() -> np.errstate:
    # A singular Jacobian makes LAPACK raise the invalid flag and lu_solve
    # turns it into SingularMatrix, so track and refine run with the
    # floating-point flags ignored: one errstate per call, not per solve.
    return np.errstate(invalid="ignore", divide="ignore", over="ignore")


def _require_square(sys: GateSystem) -> None:
    if sys.num_outputs != sys.num_unknowns:
        raise ValueError(f"system is not square: {sys.num_outputs} outputs, {sys.num_unknowns} unknowns")


def _lu_tangent(comp: CompiledSystem, z: list, x: list, v: list) -> list:
    # The tangent stage of a system without fused kernels.
    _, jac, d = comp.value_and_jac(z, x, v)
    return lu_solve(jac, [-e for e in d]).tolist()


def _lu_correct(comp: CompiledSystem, z: list, x: list, tol: float, step: bool) -> tuple[float, list | None]:
    # The corrector stage of a system without fused kernels.
    if not step:
        return comp.residual(z, x), None
    f, jac, _ = comp.value_and_jac(z, x)
    res = _maxabs(f)
    if res <= tol:
        return res, None
    return res, [a + b for a, b in zip(x, lu_solve(jac, [-e for e in f]).tolist())]


def _stages(comp: CompiledSystem) -> tuple[Callable, Callable]:
    # The (tangent, correct) pair of a square system (see the module docstring).
    if comp.tangent is not None:
        return comp.tangent, comp.correct
    return partial(_lu_tangent, comp), partial(_lu_correct, comp)


def _newton(correct: Callable, z: list, x: list, iters: int, tol: float | None = None) -> tuple[list, float]:
    # Up to iters Newton steps until max|f| <= tol (None: rounding level,
    # 1e-15 * (1 + max|x|)); after the last step, that iterate's residual
    # alone. Returns (x, residual); an overflowing evaluation ends the loop
    # with residual inf.
    try:
        for _ in range(iters):
            res, x_new = correct(z, x, 1e-15 * (1.0 + _maxabs(x)) if tol is None else tol, True)
            if x_new is None:
                return x, res
            x = x_new
        return x, correct(z, x, 0.0, False)[0]
    except OverflowError:
        return x, _INF


def refine(sys: GateSystem, z, x, iters: int) -> RefineOutcome:
    """Newton-polishes x against the square system sys at fixed parameters z.

    At most iters steps of the corrector's loop, stopping early at rounding
    level. Returns the last iterate and its residual (max absolute output
    value). SingularMatrix from the Jacobian solve propagates; a system that
    is not square raises ValueError (square an overdetermined one up first).
    """
    _require_square(sys)
    z, x = np.asarray(z, dtype=complex).tolist(), np.array(x, dtype=complex).tolist()
    with _quiet():
        x, res = _newton(_stages(compiled_for(sys))[1], z, x, iters)
    return RefineOutcome(np.array(x, dtype=complex), res)


def track(sys: GateSystem, seg: PathSegment, x_start) -> TrackResult:
    """Tracks one solution of a square system along a parameter segment.

    RK4 predictor on the Davidenko ODE, Newton corrector at fixed t, adaptive
    step halving/growth, Newton endpoint refinement. Never silently returns
    an unconverged endpoint: the status says what happened.

    Args:
        sys: square system (num_outputs == num_unknowns).
        seg: parameter segment to follow from t=0 to t=1, with one entry
            per parameter of sys.
        x_start: solution at path_point(seg, 0); residual must be <= 1e-6.

    Raises:
        ValueError: sys is not square, x_start or the segment's parameters
            have the wrong shape, or x_start is not a solution (a NaN
            residual and a pole included).
    """
    _require_square(sys)
    x = np.asarray(x_start, dtype=complex)
    if x.shape != (sys.num_unknowns,):
        raise ValueError(f"start point shape {x.shape} does not match {sys.num_unknowns} unknowns")
    if seg.z_start.shape != (sys.num_parameters,):
        raise ValueError(f"segment parameter shape {seg.z_start.shape} does not match "
                         f"the system's ({sys.num_parameters},)")
    tangent, correct = _stages(compiled_for(sys))
    with _quiet():
        try:
            x, res = _newton(correct, seg.z_start.tolist(), x.tolist(), 0)
        except EvaluationSingular:  # x_start sits on a pole
            res = _INF
        if not res <= 1e-6:  # also rejects NaN
            raise ValueError("x_start is not a solution at the segment start (residual > 1e-6)")
        x, status, steps, t = _track(tangent, correct, seg, x)
    return TrackResult(status, np.array(x, dtype=complex), steps, t)


def _track(tangent: Callable, correct: Callable, seg: PathSegment, x: list) -> tuple[list, TrackStatus, int, float]:
    # The loop of track on lists: (last x, status, steps, t reached).
    t = 0.0
    h = _INITIAL_STEP
    steps = 0
    z_end = seg.z_end.tolist()
    start = None  # (phi(t), phi'(t)), kept while t stays
    k1 = None  # the tangent at (t, x), kept while they stay

    def point(t_at: float) -> tuple[list, list]:
        phi, dphi = _segment_eval(seg, t_at)
        return phi.tolist(), dphi.tolist()

    while t < 1.0:
        if steps >= _MAX_STEPS:
            return x, TrackStatus.MaxStepsReached, steps, t
        steps += 1
        h_eff = min(h, 1.0 - t)
        try:
            # RK4 predictor: k2 and k3 share phi(t + h/2), and phi(t + h) is
            # the corrector's parameters and, once accepted, the next step's.
            if start is None:
                start = point(t)
            if k1 is None:
                k1 = tangent(start[0], x, start[1])
            half = h_eff / 2.0
            mid = point(t + half)
            k2 = tangent(mid[0], [a + half * b for a, b in zip(x, k1)], mid[1])
            k3 = tangent(mid[0], [a + half * b for a, b in zip(x, k2)], mid[1])
            end = point(t + h_eff)
            k4 = tangent(end[0], [a + h_eff * b for a, b in zip(x, k3)], end[1])
            sixth = h_eff / 6.0
            x_pred = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                      for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
            # Newton corrector at fixed t + h_eff; the last step lands on z_end.
            t_new, z_new = (1.0, z_end) if h_eff >= 1.0 - t else (t + h_eff, end[0])
            x_corr, res = _newton(correct, z_new, x_pred, _MAX_CORRECTOR_ITERS, _CORRECTOR_TOL)
            accepted = res <= _CORRECTOR_TOL
        except (SingularMatrix, EvaluationSingular, DegeneratePath, OverflowError):
            accepted = False

        if accepted:
            x = x_corr
            t = t_new
            start = end
            k1 = None
            if _maxabs(x) > _DIVERGENCE_BOUND:
                return x, TrackStatus.CorrectorDiverged, steps, t
            h = min(h * _STEP_INCREASE, _MAX_STEP)
        else:
            h = h * _STEP_DECREASE
            if h < _MIN_STEP:
                return x, TrackStatus.MinStepReached, steps, t

    # Endpoint refinement at the exact target parameters.
    try:
        x, res = _newton(correct, z_end, x, _ENDPOINT_REFINE_ITERS)
    except (SingularMatrix, EvaluationSingular):
        return x, TrackStatus.SingularEndpoint, steps, 1.0
    if res <= 10.0 * _CORRECTOR_TOL and _maxabs(x) <= _DIVERGENCE_BOUND:
        return x, TrackStatus.Success, steps, 1.0
    return x, TrackStatus.CorrectorDiverged, steps, 1.0
