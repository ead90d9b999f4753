from __future__ import annotations

import numpy as np
import pytest

from conftest import run_python
from monogal.linalg import (
    DegeneratePolynomial,
    SingularMatrix,
    adjugate3,
    cross_matrix,
    lu_solve,
    numerical_rank,
    roots_cubic,
    roots_quadratic,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def match_roots(found, expected, tol=1e-8):
    """Greedy multiset comparison of two root lists."""
    found = list(found)
    assert len(found) == len(expected)
    for r in expected:
        dists = [abs(r - f) for f in found]
        k = int(np.argmin(dists))
        assert dists[k] <= tol * (1.0 + abs(r))
        found.pop(k)


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 8):
        a = random_complex(rng, n, n)
        b = random_complex(rng, n)
        x = lu_solve(a, b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)
        assert np.abs(a @ x - b).max() < 1e-10


def test_lu_solve_singular():
    v = np.array([1.0, 2.0, 3.0], dtype=complex)
    with pytest.raises(SingularMatrix):
        lu_solve(np.outer(v, v), v)  # rank 1
    with pytest.raises(SingularMatrix):
        lu_solve(np.zeros((2, 2)), np.ones(2))
    # Non-finite input gives a non-finite solution.
    a = np.eye(3, dtype=complex)
    a[1, 2] = np.nan
    for bad in (np.full((3, 3), np.nan), np.full((3, 3), np.inf), a):
        with pytest.raises(SingularMatrix):
            lu_solve(bad, np.ones(3))


# Runs in a child interpreter (conftest.run_python). Prints the sha256 of
# every lu_solve outcome in order and, given the argument "compare", the
# number of solves whose outcome or bits differ from the scipy reference.
SOLVES_CHILD = """
import hashlib
import sys

import numpy as np

from conftest import reference_lu_solve
from monogal.linalg import SingularMatrix, lu_solve

def outcome(solve, a, b):
    try:
        return solve(a, b).tobytes()
    except SingularMatrix:
        return b"singular"

def cases(rng):
    for n in (1, 2, 3, 5, 11, 20, 64):
        yield np.zeros((n, n)), rng.standard_normal(n)
        for _ in range(20):
            a = 10.0 ** rng.uniform(-6, 6) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            yield a, rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # Fortran order and real input take the same path.
        yield np.asfortranarray(a), rng.standard_normal(n)
        yield rng.standard_normal((n, n)), rng.standard_normal(n)

digest = hashlib.sha256()
differ = 0
for a, b in cases(np.random.default_rng(5)):
    got = outcome(lu_solve, a, b)
    digest.update(got)
    if sys.argv[1:] == ["compare"]:
        differ += got != outcome(reference_lu_solve, a, b)
print(digest.hexdigest(), differ)
"""


def test_lu_solve_bitwise_equals_scipy_wrappers():
    # scipy's bits depend on the BLAS thread count, so compare at one thread.
    _, differ = run_python(1, "-c", SOLVES_CHILD, "compare").split()
    assert differ == "0"


def test_lu_solve_same_bytes_at_one_and_two_blas_threads():
    assert run_python(1, "-c", SOLVES_CHILD) == run_python(2, "-c", SOLVES_CHILD)


def test_lu_solve_shape_errors():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.eye(3), np.ones(2))


def test_lu_solve_scale_invariance():
    # No threshold on the pivots, so a tiny well-conditioned system is fine.
    rng = np.random.default_rng(1)
    a = 1e-12 * random_complex(rng, 4, 4)
    b = 1e-12 * random_complex(rng, 4)
    x = lu_solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-22)


def test_numerical_rank_constructed():
    rng = np.random.default_rng(2)
    u, _ = np.linalg.qr(random_complex(rng, 6, 6))
    v, _ = np.linalg.qr(random_complex(rng, 6, 6))
    for r in (0, 1, 3, 6):
        s = np.zeros(6)
        s[:r] = np.linspace(2.0, 1.0, r) if r else []
        a = u @ np.diag(s) @ v
        assert numerical_rank(a) == r


def test_numerical_rank_rectangular_and_empty():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 3, 7)
    assert numerical_rank(a) == 3
    assert numerical_rank(np.zeros((0, 4))) == 0
    with pytest.raises(ValueError):
        numerical_rank(np.ones(3))


def test_adjugate3_identity():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = random_complex(rng, 3, 3)
        adj = adjugate3(a)
        det = np.linalg.det(a)
        assert np.allclose(a @ adj, det * np.eye(3), atol=1e-10)
        assert np.allclose(adj @ a, det * np.eye(3), atol=1e-10)


def test_adjugate3_singular_matrix():
    # Rank-2 matrix: A @ adj(A) = 0 but adj(A) != 0.
    rng = np.random.default_rng(5)
    g, h = random_complex(rng, 3), random_complex(rng, 3)
    a = np.outer(g, h) + np.outer(h, g)
    adj = adjugate3(a)
    assert np.abs(a @ adj).max() < 1e-12
    assert np.abs(adj).max() > 1e-12
    with pytest.raises(ValueError):
        adjugate3(np.eye(2))


def test_cross_matrix():
    rng = np.random.default_rng(6)
    t = random_complex(rng, 3)
    v = random_complex(rng, 3)
    m = cross_matrix(t)
    assert np.allclose(m @ v, np.cross(t, v))
    assert np.allclose(m, -m.T)
    with pytest.raises(ValueError):
        cross_matrix(np.ones(2))


def test_roots_cubic_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = random_complex(rng, 4)
        found = roots_cubic(*c)
        match_roots(found, np.roots(c))


def test_roots_cubic_degree_cascade():
    # Leading zeros drop the degree.
    match_roots(roots_cubic(0, 1.0, -3.0, 2.0), [1.0, 2.0])
    match_roots(roots_cubic(0, 0, 2.0, -6.0), [3.0])
    assert roots_cubic(0, 0, 0, 5.0) == []
    with pytest.raises(DegeneratePolynomial):
        roots_cubic(0, 0, 0, 0)


def test_roots_cubic_triple_root():
    found = roots_cubic(1.0, -3.0, 3.0, -1.0)  # (x-1)^3
    assert len(found) == 3
    for r in found:
        assert abs(r - 1.0) < 1e-4  # triple roots amplify rounding


def test_roots_quadratic_matches_numpy():
    rng = np.random.default_rng(8)
    for _ in range(10):
        c = random_complex(rng, 3)
        match_roots(roots_quadratic(*c), np.roots(c))


def test_roots_quadratic_catastrophic_cancellation():
    # x^2 - (1e8 + 1e-8) x + 1 has roots 1e8 and 1e-8; the naive formula
    # destroys the small one.
    found = roots_quadratic(1.0, -(1e8 + 1e-8), 1.0)
    small = min(found, key=abs)
    big = max(found, key=abs)
    assert abs(small - 1e-8) < 1e-18
    assert abs(big - 1e8) < 1e-2


def test_roots_quadratic_double_root():
    match_roots(roots_quadratic(1.0, -2.0, 1.0), [1.0, 1.0], tol=1e-6)


def test_roots_quadratic_degenerate():
    assert roots_quadratic(0, 0, 3.0) == []
    match_roots(roots_quadratic(0, 2.0, -8.0), [4.0])
    with pytest.raises(DegeneratePolynomial):
        roots_quadratic(0, 0, 0)
