from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg

from monogal.linalg import SingularMatrix

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent


def run_python(threads: int, *args) -> str:
    """stdout of `python *args` in a fresh interpreter with `threads` BLAS threads.

    OpenBLAS reads its thread count once, at import, so a test that needs a
    given count needs its own interpreter. monogal and this module import
    in the child.
    """
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True, text=True).stdout


def reference_lu_solve(a, b) -> np.ndarray:
    """lu_solve written on scipy's lu_factor/lu_solve wrappers.

    The bit reference for monogal.linalg.lu_solve, which runs numpy's
    LAPACK solve. scipy's own bits move with the BLAS thread count, so
    compare against it only in a process pinned to one thread (run_python).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    if not np.diag(lu).all():
        raise SingularMatrix("zero pivot")
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    if not np.isfinite(x).all():
        raise SingularMatrix("non-finite solution")
    return x
