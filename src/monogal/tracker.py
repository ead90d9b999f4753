"""Numerical continuation of solutions along parameter paths.

A path in parameter space is the gamma-weighted projective segment

    phi(t) = ((1-t)*g0*z_start + t*g1*z_end) / ((1-t)*g0 + t*g1)

which reduces to the affine segment for g0 == g1 and realizes the gamma-trick
otherwise. Solutions are continued along phi by integrating the Davidenko ODE

    x'(t) = -(df/dx)^{-1} (df/dz) phi'(t)

with a 4th-order Runge-Kutta predictor and a Newton corrector at fixed t,
using step doubling/halving. Endpoints are polished by a few extra Newton
steps. Tracking is deterministic: identical inputs and options produce
identical results bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._compile import compiled_for
from .linalg import SingularMatrix, lu_solve
from .slp import EvaluationSingular, GateSystem

__all__ = [
    "DegeneratePath",
    "PathSegment",
    "TrackerOptions",
    "TrackStatus",
    "TrackResult",
    "RefineOutcome",
    "path_point",
    "path_tangent",
    "track",
    "track_many",
    "refine",
]

_DIVERGENCE_BOUND = 1e8


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


@dataclass(frozen=True)
class TrackerOptions:
    initial_step: float = 0.05
    min_step: float = 1e-7
    max_step: float = 0.25
    corrector_tolerance: float = 1e-8
    max_corrector_iters: int = 3
    step_increase_factor: float = 1.5
    step_decrease_factor: float = 0.5
    max_steps: int = 10000
    endpoint_refine_iters: int = 5

    def __post_init__(self):
        if not (0 < self.min_step <= self.initial_step <= self.max_step < 1):
            raise ValueError("need 0 < min_step <= initial_step <= max_step < 1")
        if self.step_increase_factor <= 1 or not (0 < self.step_decrease_factor < 1):
            raise ValueError("step factors on the wrong side of 1")
        if self.corrector_tolerance <= 0 or self.max_corrector_iters < 1:
            raise ValueError("corrector settings out of range")
        if self.max_steps < 1 or self.endpoint_refine_iters < 0:
            raise ValueError("step budgets out of range")


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


def track(sys: GateSystem, seg: PathSegment, x_start, opts: TrackerOptions | None = None) -> TrackResult:
    """Tracks one solution of a square system along a parameter segment.

    RK4 predictor on the Davidenko ODE, Newton corrector at fixed t, adaptive
    step halving/growth, Newton endpoint refinement. Never silently returns
    an unconverged endpoint: the status says what happened.

    Args:
        sys: square system (num_outputs == num_unknowns).
        seg: parameter segment to follow from t=0 to t=1.
        x_start: solution at path_point(seg, 0); residual must be <= 1e-6.
        opts: tracker options (defaults used when None).
    """
    opts = opts or TrackerOptions()
    if sys.num_outputs != sys.num_unknowns:
        raise ValueError(f"system is not square: {sys.num_outputs} outputs, {sys.num_unknowns} unknowns")
    x = np.asarray(x_start, dtype=complex)
    if x.shape != (sys.num_unknowns,):
        raise ValueError(f"start point shape {x.shape} does not match {sys.num_unknowns} unknowns")
    comp = compiled_for(sys)
    z0 = path_point(seg, 0.0)
    if comp.residual(z0, x) > 1e-6:
        raise ValueError("x_start is not a solution at the segment start (residual > 1e-6)")

    tol = opts.corrector_tolerance
    t = 0.0
    h = opts.initial_step
    steps = 0

    def rhs(t_at: float, x_at: np.ndarray) -> np.ndarray:
        phi, dphi = _segment_eval(seg, t_at)
        _, jac = comp.value_and_jac(phi, x_at)
        b = comp.param_dir(phi, x_at, dphi)
        return lu_solve(jac, -b)

    while t < 1.0:
        if steps >= opts.max_steps:
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
            for _ in range(opts.max_corrector_iters):
                f, jac = comp.value_and_jac(z_new, x_corr)
                if _maxabs(f) <= tol:
                    accepted = True
                    break
                x_corr = x_corr + lu_solve(jac, -f)
            else:
                accepted = comp.residual(z_new, x_corr) <= tol
        except (SingularMatrix, EvaluationSingular, DegeneratePath):
            accepted = False

        if accepted:
            x = x_corr
            t = t_new
            if _maxabs(x) > _DIVERGENCE_BOUND:
                return TrackResult(TrackStatus.CorrectorDiverged, x, steps, t)
            h = min(h * opts.step_increase_factor, opts.max_step)
        else:
            h = h * opts.step_decrease_factor
            if h < opts.min_step:
                return TrackResult(TrackStatus.MinStepReached, x, steps, t)

    # Endpoint refinement at the exact target parameters.
    try:
        x, res = refine(sys, seg.z_end, x, opts.endpoint_refine_iters)
    except (SingularMatrix, EvaluationSingular):
        return TrackResult(TrackStatus.SingularEndpoint, x, steps, 1.0)
    if res <= 10.0 * tol and _maxabs(x) <= _DIVERGENCE_BOUND:
        return TrackResult(TrackStatus.Success, x, steps, 1.0)
    return TrackResult(TrackStatus.CorrectorDiverged, x, steps, 1.0)


def track_many(
    sys: GateSystem,
    seg: PathSegment,
    starts: Sequence[np.ndarray],
    opts: TrackerOptions | None = None,
) -> list[TrackResult]:
    """Tracks each start along the segment; results in input order.

    Paths are independent; one failure does not abort the batch.
    """
    opts = opts or TrackerOptions()
    return [track(sys, seg, x0, opts) for x0 in starts]
