"""Built-in minimal problems: P3P and five-point relative pose, plus the
RanSaC trial-count formula.

P3P carries both the Grunert depth system (for monodromy) and a direct
conic-pencil solver used as an independent oracle; the five-point problem
carries its system builder and Cayley fabricator. Each problem declares its
deck symmetry once, as a map on solution vectors: λ -> -λ for P3P, the
twisted pair for five-point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import adjugate3, cross_matrix, numerical_rank, roots_cubic, roots_quadratic
from .slp import GateSystem, SystemBuilder, compress, jacobian_unknowns, residual
from .tracker import refine

__all__ = [
    "P3PInstance",
    "P3PSolution",
    "CameraPose",
    "FivePointInstance",
    "FivePointSolution",
    "DegenerateSample",
    "DegenerateInstance",
    "DegenerateGeometry",
    "SingularCayley",
    "IsotropicTranslation",
    "NoInlierSample",
    "InvalidProbability",
    "Problem",
    "PROBLEMS",
    "p3p_system",
    "p3p_fabricate",
    "p3p_fabricate_scene",
    "p3p_conic_solve",
    "p3p_pose_from_depths",
    "fivepoint_system",
    "fivepoint_fabricate",
    "twisted_pair",
    "essential_matrix",
    "cayley_rotation",
    "ransac_trials",
]

# Largest condition number of the P3P Jacobian in the depths that the
# fabricator accepts. Over 3,500 bench instances the median is 9.6 and the
# 99.9% quantile 3.7e3; the draws that failed to solve sat at 3.8e4 and up.
_P3P_MAX_COND = 1e4


class DegenerateSample(ValueError):
    """Fabrication kept hitting degenerate geometry."""


class DegenerateInstance(ValueError):
    """The direct solver's genericity assumptions fail on this instance."""


class DegenerateGeometry(ValueError):
    """Collinear world points admit no unique pose."""


class SingularCayley(ValueError):
    """I - S is singular; the sampled skew matrix has no Cayley image."""


class IsotropicTranslation(ValueError):
    """t^T t vanishes, so the twisted-pair reflection is undefined."""


class NoInlierSample(ValueError):
    """Fewer expected inliers than the sample size."""


class InvalidProbability(ValueError):
    pass


# ============================================================
# P3P
# ============================================================


@dataclass(frozen=True)
class P3PInstance:
    """Cosines of image-direction angles and squared 3D point distances."""

    c12: complex
    c13: complex
    c23: complex
    d12: complex
    d13: complex
    d23: complex

    def as_params(self) -> np.ndarray:
        return np.array([self.c12, self.c13, self.c23, self.d12, self.d13, self.d23], dtype=complex)


@dataclass(frozen=True)
class P3PSolution:
    """Depths of the three points along their image directions."""

    lambda1: complex
    lambda2: complex
    lambda3: complex

    def as_vector(self) -> np.ndarray:
        return np.array([self.lambda1, self.lambda2, self.lambda3], dtype=complex)

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "P3PSolution":
        x = np.asarray(x, dtype=complex).ravel()
        return cls(complex(x[0]), complex(x[1]), complex(x[2]))


@dataclass(frozen=True)
class CameraPose:
    """Rotation plus translation; R^T R = I and det R = 1 to 1e-10."""

    R: np.ndarray
    t: np.ndarray


@functools.cache
def p3p_system() -> GateSystem:
    """Grunert depth system: lambda_i^2 + lambda_j^2 - 2 c_ij lambda_i lambda_j - d_ij."""
    b = SystemBuilder(
        parameters=("c12", "c13", "c23", "d12", "d13", "d23"),
        unknowns=("lambda1", "lambda2", "lambda3"),
    )
    lam = [b.unknown(f"lambda{i}") for i in (1, 2, 3)]
    cs = {(1, 2): b.param("c12"), (1, 3): b.param("c13"), (2, 3): b.param("c23")}
    ds = {(1, 2): b.param("d12"), (1, 3): b.param("d13"), (2, 3): b.param("d23")}
    outputs = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        li, lj = lam[i - 1], lam[j - 1]
        outputs.append(li ** 2 + lj ** 2 - 2.0 * cs[(i, j)] * li * lj - ds[(i, j)])
    return b.finish(outputs)


def cayley_rotation(S: np.ndarray) -> np.ndarray:
    """(I - S)^(-1) (I + S) for a skew-symmetric S.

    Raises:
        SingularCayley: I - S is not invertible.
    """
    S = np.asarray(S)
    eye = np.eye(3, dtype=S.dtype)
    try:
        if abs(np.linalg.det(eye - S)) < 1e-12:
            raise SingularCayley("I - S is singular")
        return np.linalg.solve(eye - S, eye + S)
    except np.linalg.LinAlgError:
        raise SingularCayley("I - S is singular") from None


def p3p_fabricate_scene(rng: np.random.Generator):
    """Fabricates a full P3P scene: instance, depths, pose, directions, points.

    Samples a real Cayley rotation and translation plus three generic real 3D
    points, then reads off unit image directions, positive depths, and the
    instance data c_ij = p_i . p_j, d_ij = |q_i - q_j|^2. Draws whose unit
    image directions are nearly coplanar (|det p| < 2e-2) are redrawn: the
    camera centre then lies near the plane of the points, four of the eight
    solutions lie near infinity, and the affine tracker cannot follow paths
    to them. So are draws whose Jacobian in the depths has a condition
    number above 1e4 at the drawn depths: the instance then sits near a
    branch point, where every path from it can end at MinStepReached. An
    accepted draw consumes no randomness beyond its own.

    Returns:
        (P3PInstance, P3PSolution, CameraPose, directions (3x3, rows p_i),
        points (3x3, rows q_i)).

    Raises:
        DegenerateSample: 100 attempts all hit collinear points, tiny depths,
            nearly coplanar image directions or an ill-conditioned Jacobian.
    """
    sysm = p3p_system()
    for _ in range(100):
        A = rng.standard_normal((3, 3))
        try:
            R = cayley_rotation(A - A.T)
        except SingularCayley:
            continue
        t = rng.standard_normal(3)
        q = rng.standard_normal((3, 3))
        if np.linalg.norm(np.cross(q[1] - q[0], q[2] - q[0])) < 1e-6:
            continue
        y = q @ R.T + t
        lam = np.linalg.norm(y, axis=1)
        if lam.min() < 1e-2:
            continue
        p = y / lam[:, None]
        if abs(np.linalg.det(p)) < 2e-2:
            continue
        inst = P3PInstance(
            c12=complex(p[0] @ p[1]),
            c13=complex(p[0] @ p[2]),
            c23=complex(p[1] @ p[2]),
            d12=complex((q[0] - q[1]) @ (q[0] - q[1])),
            d13=complex((q[0] - q[2]) @ (q[0] - q[2])),
            d23=complex((q[1] - q[2]) @ (q[1] - q[2])),
        )
        sol = P3PSolution(complex(lam[0]), complex(lam[1]), complex(lam[2]))
        z, x = inst.as_params(), sol.as_vector()
        if residual(sysm, z, x) > 1e-10:
            continue
        if np.linalg.cond(jacobian_unknowns(sysm, z, x)) > _P3P_MAX_COND:
            continue
        return inst, sol, CameraPose(R, t), p, q
    raise DegenerateSample("no valid P3P sample in 100 attempts")


def p3p_fabricate(rng: np.random.Generator) -> tuple[P3PInstance, P3PSolution]:
    """A generic real instance together with one depth solution."""
    inst, sol, _, _, _ = p3p_fabricate_scene(rng)
    return inst, sol


def _conic_matrices(inst: P3PInstance) -> tuple[np.ndarray, np.ndarray]:
    # Grunert in the depth ratios rho_i = lambda_i / lambda_3, homogenized to
    # v = (rho1, rho2, 1): d13*(rho1^2+rho2^2-2c12 rho1 rho2) = d12*(rho1^2+1-2c13 rho1)
    # and the same with (d23, c23, rho2).
    c12, c13, c23 = inst.c12, inst.c13, inst.c23
    d12, d13, d23 = inst.d12, inst.d13, inst.d23
    qm = np.array([[1.0, -c12, 0.0], [-c12, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    m13 = np.array([[1.0, 0.0, -c13], [0.0, 0.0, 0.0], [-c13, 0.0, 1.0]], dtype=complex)
    m23 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -c23], [0.0, -c23, 1.0]], dtype=complex)
    return d13 * qm - d12 * m13, d23 * qm - d12 * m23


def _cubic_coefficients(c1: np.ndarray, c2: np.ndarray) -> tuple[complex, complex, complex, complex]:
    # det(C2 + t(C1-C2)) interpolated at t in {0, 1, -1, 2}.
    f = [complex(np.linalg.det(c2 + t * (c1 - c2))) for t in (0.0, 1.0, -1.0, 2.0)]
    a0 = f[0]
    a2 = (f[1] + f[2]) / 2.0 - a0
    odd = (f[1] - f[2]) / 2.0
    a3 = (f[3] - a0 - 4.0 * a2 - 2.0 * odd) / 6.0
    a1 = odd - a3
    return a3, a2, a1, a0


def _split_rank2_conic(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Adjugate of a two-line conic is a rank-1 multiple of p p^T at the
    # intersection point p; adding cross_matrix(p) isolates the lines.
    b = adjugate3(m)
    i = int(np.argmax(np.abs(np.diagonal(b))))
    denom = np.sqrt(-b[i, i])
    if abs(denom) < 1e-14:
        raise DegenerateInstance("adjugate diagonal vanishes; conic is not two distinct lines")
    p = b[:, i] / denom
    n = m + cross_matrix(p)
    g = n[int(np.argmax(np.linalg.norm(n, axis=1)))]
    h = n[:, int(np.argmax(np.linalg.norm(n, axis=0)))]
    return g, h


def _line_conic_points(line: np.ndarray, conic: np.ndarray) -> list[np.ndarray]:
    # Parameterize the line by two cross products with unit axes, then solve
    # the restricted quadratic.
    i0 = int(np.argmax(np.abs(line)))
    e = np.eye(3, dtype=complex)
    qa = np.cross(line, e[(i0 + 1) % 3])
    qb = np.cross(line, e[(i0 + 2) % 3])
    a2 = complex(qb @ conic @ qb)
    a1 = complex(2.0 * (qa @ conic @ qb))
    a0 = complex(qa @ conic @ qa)
    disc = a1 * a1 - 4.0 * a2 * a0
    scale = max(abs(a1) ** 2, abs(4.0 * a2 * a0))
    if scale > 0.0 and abs(disc) < 1e-12 * scale:
        raise DegenerateInstance("tangent line-conic intersection")
    return [qa + s * qb for s in roots_quadratic(a2, a1, a0)]


def p3p_conic_solve(inst: P3PInstance) -> list[P3PSolution]:
    """Direct P3P solver by intersecting two conics in the depth ratios.

    Pipeline: build the pencil, pick the cubic root whose pencil member is
    most certifiably rank 2, split that member into two lines, intersect the
    lines with one conic, lift the ratio points to depths via both square
    roots of lambda3^2, and Newton-refine once against the depth system.

    Returns up to 8 solutions.

    Raises:
        DegenerateInstance: degenerate cubic, a pencil member that is not
            rank 2, tangent intersections, or solutions at infinity.
    """
    c1, c2 = _conic_matrices(inst)
    a3, a2, a1, a0 = _cubic_coefficients(c1, c2)
    try:
        roots = roots_cubic(a3, a2, a1, a0)
    except Exception as exc:
        raise DegenerateInstance(f"degenerate pencil cubic: {exc}") from None
    if not roots:
        raise DegenerateInstance("pencil cubic has no roots")

    best_m, best_score = None, -1.0
    for troot in roots:
        m = troot * c1 + (1.0 - troot) * c2
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[0] == 0.0:
            continue
        score = float((sv[1] - sv[2]) / sv[0])
        if score > best_score:
            best_m, best_score = m, score
    if best_m is None or numerical_rank(best_m) != 2:
        raise DegenerateInstance("no rank-2 member found in the conic pencil")

    g, h = _split_rank2_conic(best_m)
    ratio_points = []
    for line in (g, h):
        ratio_points.extend(_line_conic_points(line, c2))

    sysm = p3p_system()
    z = inst.as_params()
    solutions = []
    for v in ratio_points:
        if abs(v[2]) < 1e-10 * float(np.abs(v).max()):
            raise DegenerateInstance("ratio point at infinity")
        rho1, rho2 = v[0] / v[2], v[1] / v[2]
        den = rho1 * rho1 + rho2 * rho2 - 2.0 * inst.c12 * rho1 * rho2
        if abs(den) < 1e-12:
            raise DegenerateInstance("vanishing depth normalizer")
        lam3 = np.sqrt(inst.d12 / den)
        for sign in (1.0, -1.0):
            l3 = sign * lam3
            x = np.array([rho1 * l3, rho2 * l3, l3], dtype=complex)
            x, _ = refine(sysm, z, x, iters=1)
            solutions.append(P3PSolution.from_vector(x))
    return solutions


def p3p_pose_from_depths(sol: P3PSolution, directions: np.ndarray, points: np.ndarray) -> CameraPose:
    """Camera pose aligning world points to the depth-scaled directions.

    Orthogonal Procrustes: subtract centroids, take the SVD of the 3x3
    correlation matrix, fix the determinant to +1, then recover t from the
    centroids.

    Args:
        sol: real positive depths.
        directions: 3x3, rows are the unit image directions p_i.
        points: 3x3, rows are the world points q_i.

    Raises:
        DegenerateGeometry: the world points are collinear.
    """
    p = np.asarray(directions, dtype=float)
    q = np.asarray(points, dtype=float)
    lam = np.array([sol.lambda1.real, sol.lambda2.real, sol.lambda3.real])
    y = lam[:, None] * p
    qc = q - q.mean(axis=0)
    yc = y - y.mean(axis=0)
    if numerical_rank(qc) < 2:
        raise DegenerateGeometry("collinear world points")
    u, _, vt = np.linalg.svd(qc.T @ yc)
    d = np.sign(np.linalg.det(u @ vt))
    R = (u @ np.diag([1.0, 1.0, d]) @ vt).T
    t = y.mean(axis=0) - R @ q.mean(axis=0)
    return CameraPose(R, t)


# ============================================================
# Five-point relative pose
# ============================================================


@dataclass(frozen=True)
class FivePointInstance:
    """30 homogeneous point coordinates: view 1 then view 2, 5 points, 3 each."""

    params: np.ndarray

    def as_params(self) -> np.ndarray:
        return np.asarray(self.params, dtype=complex).ravel()

    def view_points(self, view: int) -> np.ndarray:
        flat = self.as_params()
        base = 0 if view == 1 else 15
        return flat[base:base + 15].reshape(5, 3)


@dataclass(frozen=True)
class FivePointSolution:
    """Fixed-gauge translation (t1, t2, 1) and complex rotation R."""

    t1: complex
    t2: complex
    R: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.t1, self.t2], np.asarray(self.R, dtype=complex).ravel()))

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "FivePointSolution":
        x = np.asarray(x, dtype=complex).ravel()
        return cls(complex(x[0]), complex(x[1]), x[2:11].reshape(3, 3).copy())


@functools.cache
def fivepoint_system() -> GateSystem:
    """Relative pose from five points: rotation constraints plus epipolar forms.

    Unknowns (t1, t2, r11..r33); parameters p_i_j_k for view i, point j,
    coordinate k; outputs the 9 entries of R R^T - I, det R - 1, and the five
    forms p2_j . ([t]x R p1_j) with t = (t1, t2, 1).
    """
    param_names = [f"p_{i}_{j}_{k}" for i in (1, 2) for j in range(1, 6) for k in (1, 2, 3)]
    unknown_names = ["t1", "t2"] + [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    b = SystemBuilder(parameters=param_names, unknowns=unknown_names)
    t1, t2 = b.unknown("t1"), b.unknown("t2")
    r = [[b.unknown(f"r{i}{j}") for j in (1, 2, 3)] for i in (1, 2, 3)]

    outputs = []
    for i in range(3):
        for j in range(3):
            entry = r[i][0] * r[j][0] + r[i][1] * r[j][1] + r[i][2] * r[j][2]
            outputs.append(entry - 1.0 if i == j else entry)
    det = (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )
    outputs.append(det - 1.0)

    for j in range(1, 6):
        p1 = [b.param(f"p_1_{j}_{k}") for k in (1, 2, 3)]
        p2 = [b.param(f"p_2_{j}_{k}") for k in (1, 2, 3)]
        u = [r[i][0] * p1[0] + r[i][1] * p1[1] + r[i][2] * p1[2] for i in range(3)]
        ep1 = [t2 * u[2] - u[1], u[0] - t1 * u[2], t1 * u[1] - t2 * u[0]]
        outputs.append(p2[0] * ep1[0] + p2[1] * ep1[1] + p2[2] * ep1[2])

    return compress(b.finish(outputs))


def fivepoint_fabricate(rng: np.random.Generator) -> tuple[FivePointInstance, FivePointSolution]:
    """Generic complex instance with its fabricating solution.

    Five random complex 3-vectors in view 1, a Cayley rotation from a random
    complex skew matrix, random (t1, t2); view 2 points are R p1 + t.

    Raises:
        DegenerateSample: 100 attempts failed the Cayley, residual, or rank checks.
    """
    sysm = fivepoint_system()
    for _ in range(100):
        p1 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        try:
            R = cayley_rotation(A - A.T)
        except SingularCayley:
            continue
        t1, t2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = np.array([t1, t2, 1.0], dtype=complex)
        p2 = p1 @ R.T + t
        inst = FivePointInstance(np.concatenate([p1.ravel(), p2.ravel()]))
        sol = FivePointSolution(complex(t1), complex(t2), R)
        z, x = inst.as_params(), sol.as_vector()
        if residual(sysm, z, x) > 1e-10:
            continue
        if numerical_rank(jacobian_unknowns(sysm, z, x)) < 11:
            continue
        return inst, sol
    raise DegenerateSample("no valid five-point sample in 100 attempts")


def twisted_pair(sol: FivePointSolution) -> FivePointSolution:
    """The deck-transformation partner: same translation, reflected rotation.

    R2 = (2 t t^T / (t^T t) - I) R with t = (t1, t2, 1); applying the map
    twice gives back the input.

    Raises:
        IsotropicTranslation: t^T t vanishes (possible over the complex numbers).
    """
    t = np.array([sol.t1, sol.t2, 1.0], dtype=complex)
    tt = complex(t @ t)
    if abs(tt) < 1e-12:
        raise IsotropicTranslation("t^T t is numerically zero")
    H = (2.0 / tt) * np.outer(t, t) - np.eye(3, dtype=complex)
    return FivePointSolution(sol.t1, sol.t2, H @ np.asarray(sol.R, dtype=complex))


def essential_matrix(sol: FivePointSolution) -> np.ndarray:
    """E = [t]x R with the fixed-gauge translation (t1, t2, 1)."""
    t = np.array([sol.t1, sol.t2, 1.0], dtype=complex)
    return cross_matrix(t) @ np.asarray(sol.R, dtype=complex)


# ============================================================
# RanSaC trial count
# ============================================================


def ransac_trials(n: int, k: int, p_inlier: float, s: float) -> int:
    """Trials needed so a k-subset of all inliers appears with confidence s.

    P = C(floor(p_inlier*n), k) / C(n, k) is the single-trial success
    probability; the count is ceil(log(1-s) / log(1-P)).

    Raises:
        InvalidProbability: s outside (0,1) or p_inlier outside (0,1].
        NoInlierSample: floor(p_inlier*n) < k.
    """
    if not (0.0 < s < 1.0):
        raise InvalidProbability(f"confidence s must lie in (0,1), got {s}")
    if not (0.0 < p_inlier <= 1.0):
        raise InvalidProbability(f"inlier fraction must lie in (0,1], got {p_inlier}")
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    m = math.floor(p_inlier * n)
    if m < k:
        raise NoInlierSample(f"floor({p_inlier}*{n}) = {m} < sample size {k}")
    P = math.comb(m, k) / math.comb(n, k)
    if P >= 1.0:
        return 1
    # log1p keeps log(1-P) accurate for tiny P, where 1-P rounds to 1.
    return math.ceil(math.log1p(-s) / math.log1p(-P))


# ============================================================
# Problem registry
# ============================================================


@dataclass(frozen=True)
class Problem:
    """A named built-in problem the CLI can fabricate and solve.

    deck_map is the problem's declared deck symmetry σ on solution vectors:
    it sends a solution to another solution of the same instance (None when
    the problem declares none). σ must be a fixed-point-free involution,
    since monodromy tracks one path per orbit {x, σ(x)}. classes names the
    `--equivalencer` view of a run on those orbits. degree is the known
    number of solutions of a generic instance, below which a monodromy run
    keeps exploring longer before it stops by stabilization.
    """

    name: str
    build_system: Callable[[], GateSystem]
    fabricate: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]]
    deck_map: Callable[[np.ndarray], np.ndarray] | None
    classes: str | None
    degree: int | None


def _p3p_fabricate_vectors(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    inst, sol = p3p_fabricate(rng)
    return inst.as_params(), sol.as_vector()


def _fivepoint_fabricate_vectors(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    inst, sol = fivepoint_fabricate(rng)
    return inst.as_params(), sol.as_vector()


def _fivepoint_deck_map(x: np.ndarray) -> np.ndarray:
    return twisted_pair(FivePointSolution.from_vector(x)).as_vector()


PROBLEMS: dict[str, Problem] = {
    "p3p": Problem(
        name="p3p",
        build_system=p3p_system,
        fabricate=_p3p_fabricate_vectors,
        deck_map=np.negative,
        classes="sign",
        degree=8,
    ),
    "fivepoint": Problem(
        name="fivepoint",
        build_system=fivepoint_system,
        fabricate=_fivepoint_fabricate_vectors,
        deck_map=_fivepoint_deck_map,
        classes="translation",
        degree=20,
    ),
}
