from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg

from monogal.linalg import SingularMatrix


def reference_lu_solve(a, b) -> np.ndarray:
    """lu_solve written on scipy's lu_factor/lu_solve wrappers.

    The reference for monogal.linalg.lu_solve, which calls the same LAPACK
    routines directly: solutions and SingularMatrix decisions must agree
    bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = float(np.max(np.linalg.norm(a, axis=0))) if a.size else 0.0
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) < 1e-14 * scale:
        raise SingularMatrix(f"pivot {np.min(pivots):.3e} below threshold {1e-14 * scale:.3e}")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


@pytest.fixture
def scipy_lu_solve():
    return reference_lu_solve
