"""Numerical continuation of solutions along parameter paths.

A path in parameter space is the gamma-weighted projective segment

    phi(t) = ((1-t)*g0*z_start + t*g1*z_end) / ((1-t)*g0 + t*g1)

which reduces to the affine segment for g0 == g1 and realizes the gamma-trick
otherwise. Solutions are continued along phi by integrating the Davidenko ODE

    x'(t) = -(df/dx)^{-1} (df/dz) phi'(t)

with a 4th-order Runge-Kutta predictor and a Newton corrector at fixed t,
growing the step by 1.5 after an accepted step and halving it after a
rejected one. Endpoints are polished by a few extra Newton steps. Step
sizes, tolerances and budgets are fixed module constants, not options.
Tracking is deterministic: identical inputs produce identical results bit
for bit, at any BLAS thread count for systems of up to 96 unknowns (see
monogal.linalg).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._compile import compiled_for
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
        for g in (self.gamma_start, self.gamma_end):
            if abs(abs(g) - 1.0) > 1e-12:
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


def _maxabs(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def refine(sys: GateSystem, z, x, iters: int) -> RefineOutcome:
    """Newton-polishes x against sys at fixed parameters z.

    Square systems take exact Newton steps; overdetermined ones take
    Gauss-Newton steps through a least-squares solve. Stops early once the
    residual is at rounding level. Returns the last iterate together with
    its final residual (max absolute output value). SingularMatrix from the
    Jacobian solve propagates.
    """
    z = np.asarray(z, dtype=complex)
    x = np.array(x, dtype=complex)
    comp = compiled_for(sys)
    square = sys.num_outputs == sys.num_unknowns
    res = comp.residual(z, x)
    for _ in range(iters):
        if res <= 1e-15 * (1.0 + _maxabs(x)):
            break
        f, jac = comp.value_and_jac(z, x)
        x = x + (lu_solve(jac, -f) if square else np.linalg.lstsq(jac, -f, rcond=None)[0])
        res = comp.residual(z, x)
    return RefineOutcome(x, res)


def track(sys: GateSystem, seg: PathSegment, x_start) -> TrackResult:
    """Tracks one solution of a square system along a parameter segment.

    RK4 predictor on the Davidenko ODE, Newton corrector at fixed t, adaptive
    step halving/growth, Newton endpoint refinement. Never silently returns
    an unconverged endpoint: the status says what happened.

    Args:
        sys: square system (num_outputs == num_unknowns).
        seg: parameter segment to follow from t=0 to t=1.
        x_start: solution at path_point(seg, 0); residual must be <= 1e-6.
    """
    if sys.num_outputs != sys.num_unknowns:
        raise ValueError(f"system is not square: {sys.num_outputs} outputs, {sys.num_unknowns} unknowns")
    x = np.asarray(x_start, dtype=complex)
    if x.shape != (sys.num_unknowns,):
        raise ValueError(f"start point shape {x.shape} does not match {sys.num_unknowns} unknowns")
    comp = compiled_for(sys)
    z0 = path_point(seg, 0.0)
    if comp.residual(z0, x) > 1e-6:
        raise ValueError("x_start is not a solution at the segment start (residual > 1e-6)")

    t = 0.0
    h = _INITIAL_STEP
    steps = 0

    def rhs(t_at: float, x_at: np.ndarray) -> np.ndarray:
        phi, dphi = _segment_eval(seg, t_at)
        _, jac = comp.value_and_jac(phi, x_at)
        b = comp.param_dir(phi, x_at, dphi)
        return lu_solve(jac, -b)

    while t < 1.0:
        if steps >= _MAX_STEPS:
            return TrackResult(TrackStatus.MaxStepsReached, x, steps, t)
        steps += 1
        h_eff = min(h, 1.0 - t)
        accepted = False
        try:
            # RK4 predictor.
            k1 = rhs(t, x)
            k2 = rhs(t + h_eff / 2.0, x + (h_eff / 2.0) * k1)
            k3 = rhs(t + h_eff / 2.0, x + (h_eff / 2.0) * k2)
            k4 = rhs(t + h_eff, x + h_eff * k3)
            x_pred = x + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # Newton corrector at fixed t + h_eff.
            t_new = 1.0 if h_eff >= 1.0 - t else t + h_eff
            z_new = path_point(seg, t_new)
            x_corr = x_pred
            for _ in range(_MAX_CORRECTOR_ITERS):
                f, jac = comp.value_and_jac(z_new, x_corr)
                if _maxabs(f) <= _CORRECTOR_TOL:
                    accepted = True
                    break
                x_corr = x_corr + lu_solve(jac, -f)
            else:
                accepted = comp.residual(z_new, x_corr) <= _CORRECTOR_TOL
        except (SingularMatrix, EvaluationSingular, DegeneratePath):
            accepted = False

        if accepted:
            x = x_corr
            t = t_new
            if _maxabs(x) > _DIVERGENCE_BOUND:
                return TrackResult(TrackStatus.CorrectorDiverged, x, steps, t)
            h = min(h * _STEP_INCREASE, _MAX_STEP)
        else:
            h = h * _STEP_DECREASE
            if h < _MIN_STEP:
                return TrackResult(TrackStatus.MinStepReached, x, steps, t)

    # Endpoint refinement at the exact target parameters.
    try:
        x, res = refine(sys, seg.z_end, x, _ENDPOINT_REFINE_ITERS)
    except (SingularMatrix, EvaluationSingular):
        return TrackResult(TrackStatus.SingularEndpoint, x, steps, 1.0)
    if res <= 10.0 * _CORRECTOR_TOL and _maxabs(x) <= _DIVERGENCE_BOUND:
        return TrackResult(TrackStatus.Success, x, steps, 1.0)
    return TrackResult(TrackStatus.CorrectorDiverged, x, steps, 1.0)
