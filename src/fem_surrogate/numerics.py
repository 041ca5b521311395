"""Dense LU with partial pivoting for the small real/complex systems the
beam model produces (a few hundred DOF at most).

Complex systems are factorized natively in complex arithmetic; there is no
2n x 2n real embedding.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Singular

# Pivot smaller than this fraction of the largest entry counts as singular.
_PIVOT_TOL = 1e-13


@dataclass
class LuFactors:
    """Packed PA = LU factorization.

    ``lu`` stores U on and above the diagonal and the unit-lower-triangular
    multipliers below it.  ``perm`` maps factored row i to original row
    perm[i].
    """

    lu: np.ndarray
    perm: np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[0]


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix entries must be finite")
    return a


def lu_factor(a) -> LuFactors:
    """Factor A into PA = LU with partial pivoting.

    Raises Singular when a pivot falls below 1e-13 times the largest
    magnitude in A.
    """
    a = _check_square(a)
    n = a.shape[0]
    dtype = complex if np.iscomplexobj(a) else float
    lu = a.astype(dtype, copy=True)
    perm = np.arange(n)

    big = np.abs(lu).max() if n else 0.0
    if big == 0.0 and n:
        raise Singular("zero matrix")
    tol = _PIVOT_TOL * big

    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < tol:
            raise Singular(f"pivot {k} below tolerance ({abs(lu[p, k]):.3e} < {tol:.3e})")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return LuFactors(lu, perm)


def lu_solve(f: LuFactors, b) -> np.ndarray:
    """Solve A x = b for one right-hand side (n,) or several (n, m)."""
    b = np.asarray(b)
    if b.ndim not in (1, 2) or b.shape[0] != f.n:
        raise DimensionMismatch(
            f"right-hand side shape {b.shape} does not match system size {f.n}")
    dtype = np.result_type(f.lu, b, float)
    x = b[f.perm].astype(dtype, copy=True)
    n = f.n
    lu = f.lu
    for i in range(1, n):              # forward: L y = P b
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):     # backward: U x = y
        if i + 1 < n:
            x[i] -= lu[i, i + 1:] @ x[i + 1:]
        x[i] /= lu[i, i]
    return x


def solve(a, b) -> np.ndarray:
    """Factor-and-solve convenience wrapper."""
    return lu_solve(lu_factor(a), b)


def solve_refined(a, b) -> np.ndarray:
    """Solve with one step of iterative refinement.

    Lightly damped resonances make the dynamic matrix ill-conditioned enough
    (cond ~ 1e6) that a plain LU residual sits around 1e-9; one refinement
    pass restores it to a few ULPs as long as cond * eps << 1.
    """
    a = np.asarray(a)
    f = lu_factor(a)
    x = lu_solve(f, b)
    x += lu_solve(f, np.asarray(b) - a @ x)
    return x


def symmetric_pivots(a) -> np.ndarray:
    """Pivots (the D of A = L D L^T) of the unpivoted elimination of a
    symmetric matrix.

    By Sylvester's law of inertia the pivots carry the signs of the
    eigenvalues: all are positive iff A is positive definite, and the number
    of negative pivots is the number of negative eigenvalues.  Elimination
    stops at the first zero pivot; the returned array then ends with it.
    """
    a = _check_square(a)
    lu = a.astype(float, copy=True)
    n = lu.shape[0]
    pivots = []
    for k in range(n):
        d = lu[k, k]
        pivots.append(d)
        if d == 0.0:
            break
        if k + 1 < n:
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:]) / d
    return np.array(pivots)


def is_positive_definite(a) -> bool:
    return bool(np.all(symmetric_pivots(a) > 0.0))
