"""Dense complex linear algebra and small-degree polynomial roots.

Matrices and vectors are numpy arrays with complex entries. Everything here
is a pure function on caller-owned data; tolerances are fixed (double
precision only).

`lu_solve` is numpy's LAPACK solve (`zgesv`: LU with partial pivoting),
called through the `solve1` gufunc that `np.linalg.solve` itself calls,
without that wrapper's dtype dispatch and error-state switching, which
cost about 4 of a 3x3 solve's 5.7 microseconds (numpy 2.4, one OpenBLAS
thread). The bits are those of `np.linalg.solve`. Up to 96 unknowns they
do not depend on the BLAS thread count (measured with numpy 2.4's OpenBLAS
at 1 and 2 threads; larger factorizations are split across threads), so
the path tracker, which solves tens of thousands of 3x3 to 11x11 systems
per run, gives the same bits wherever it runs.
"""

from __future__ import annotations

import cmath

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "SingularMatrix",
    "DegeneratePolynomial",
    "lu_solve",
    "numerical_rank",
    "adjugate3",
    "cross_matrix",
    "roots_cubic",
    "roots_quadratic",
]

_RANK_EPS = 1e-12


class SingularMatrix(np.linalg.LinAlgError):
    """A linear solve met an exactly zero pivot or gave a non-finite solution."""


class DegeneratePolynomial(ValueError):
    """All polynomial coefficients are zero."""


def lu_solve(a, b) -> np.ndarray:
    """Solves A x = b by LU factorization with partial pivoting.

    There is no pivot threshold: only an exactly zero pivot (which includes
    the zero matrix) or a non-finite solution counts as singular. No caller
    uses a solution unchecked: the tracker's corrector accepts a step only
    at |f| <= 1e-8, its predictor is checked by that corrector, and `track`
    reports success only after refinement measured a residual of at most
    1e-7. A relative pivot rule (1e-14 times the largest column norm) was
    used before and never fired in 145k solves of the standard runs.

    The floating-point error state is the caller's: LAPACK's singular exit
    fills the solution with NaN and raises the invalid flag, which numpy
    reports as a RuntimeWarning unless the caller ignores it, as `track`
    and `refine` do with one np.errstate per call.

    Raises:
        SingularMatrix: an exactly zero pivot, or a non-finite solution,
            which is what NaN input and overflow give. An infinite entry
            of A can still give the finite limit solution.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"right-hand side shape {b.shape} does not match {a.shape}")
    x = _umath_linalg.solve1(a, b, signature="DD->D")
    # Checked on Python complexes: cheaper than np.isfinite at these sizes.
    if not all(map(cmath.isfinite, x.tolist())):
        raise SingularMatrix("singular matrix or non-finite solution")
    return x


def numerical_rank(a) -> int:
    """Count of singular values above max(rows, cols) * 1e-12 * sigma_max."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    tol = max(a.shape) * _RANK_EPS * sv[0]
    return int(np.count_nonzero(sv > tol))


def adjugate3(a) -> np.ndarray:
    """Adjugate (cofactor transpose) of a 3x3 matrix, by the exact formula.

    Satisfies A @ adjugate3(A) == det(A) * I up to rounding, including for
    singular A.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    out = np.empty((3, 3), dtype=complex)
    # adj(A)[i, j] = cofactor C_ji
    out[0, 0] = a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    out[0, 1] = a[0, 2] * a[2, 1] - a[0, 1] * a[2, 2]
    out[0, 2] = a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]
    out[1, 0] = a[1, 2] * a[2, 0] - a[1, 0] * a[2, 2]
    out[1, 1] = a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
    out[1, 2] = a[0, 2] * a[1, 0] - a[0, 0] * a[1, 2]
    out[2, 0] = a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]
    out[2, 1] = a[0, 1] * a[2, 0] - a[0, 0] * a[2, 1]
    out[2, 2] = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return out


def cross_matrix(t) -> np.ndarray:
    """Skew-symmetric [t]_x with [t]_x @ v = t x v."""
    t = np.asarray(t, dtype=complex)
    if t.shape != (3,):
        raise ValueError(f"expected a length-3 vector, got shape {t.shape}")
    return np.array(
        [
            [0.0, -t[2], t[1]],
            [t[2], 0.0, -t[0]],
            [-t[1], t[0], 0.0],
        ],
        dtype=complex,
    )


def _polish(coeffs: list[complex], roots: np.ndarray) -> list[complex]:
    """One Newton step per root; coeffs are highest degree first."""
    deriv = [c * k for k, c in zip(range(len(coeffs) - 1, 0, -1), coeffs[:-1])]
    polished = []
    for r in roots:
        p = complex(0)
        for c in coeffs:
            p = p * r + c
        dp = complex(0)
        for c in deriv:
            dp = dp * r + c
        if abs(dp) > 1e-300:
            r = r - p / dp
        polished.append(complex(r))
    return polished


def roots_cubic(c3: complex, c2: complex, c1: complex, c0: complex) -> list[complex]:
    """All roots of c3 x^3 + c2 x^2 + c1 x + c0.

    Degree is set by the highest nonzero coefficient. Roots come from the
    companion-matrix eigenvalues plus one Newton polish step.

    Raises:
        DegeneratePolynomial: all coefficients zero.
    """
    c3, c2, c1, c0 = complex(c3), complex(c2), complex(c1), complex(c0)
    if c3 == 0:
        return roots_quadratic(c2, c1, c0)
    companion = np.array(
        [
            [-c2 / c3, -c1 / c3, -c0 / c3],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ],
        dtype=complex,
    )
    roots = np.linalg.eigvals(companion)
    return _polish([c3, c2, c1, c0], roots)


def roots_quadratic(c2: complex, c1: complex, c0: complex) -> list[complex]:
    """All roots of c2 x^2 + c1 x + c0, via the stable quadratic form.

    Raises:
        DegeneratePolynomial: all coefficients zero.
    """
    c2, c1, c0 = complex(c2), complex(c1), complex(c0)
    if c2 == 0:
        if c1 == 0:
            if c0 == 0:
                raise DegeneratePolynomial("all coefficients zero")
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(complex(disc))
    # Sign-adjust so c1 and the root term do not cancel.
    if (c1.conjugate() * sq).real < 0:
        sq = -sq
    q = -(c1 + sq) / 2.0
    if q == 0:
        # c1 == 0 and disc == 0, or exact cancellation: both roots coincide.
        roots = np.array([complex(0), -c1 / c2])
    else:
        roots = np.array([q / c2, c0 / q])
    return _polish([c2, c1, c0], roots)
