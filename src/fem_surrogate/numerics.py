"""Band LU with partial pivoting for the small real/complex systems the
beam model produces (a few hundred DOF at most), batched over a leading
axis so that a frequency sweep factors many dynamic matrices in one pass.

A matrix of half-bandwidth b (A[i, j] == 0 for |i - j| > b) travels in
row-band storage, ab[..., i, b + j - i] = A[i, j], shape (..., n, 2b+1).
Row exchanges fill U out to 2b above the diagonal (Golub & Van Loan, Matrix
Computations, 4.3; the LAPACK xGBTRF scheme), so elimination step k touches
only rows k..k+b and columns k..k+2b.  Every operation is elementwise over
the batch axis, so each member's result is bit-equal to its solve in a
one-member batch.  The dense entry points (lu_factor, lu_solve, solve,
solve_refined) are that one-member case, with b taken from the matrix's
nonzero pattern.

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
    """Band LU of a batch of n x n matrices in the LINPACK form
    A = P_0 L_0 P_1 L_1 ... P_{n-1} L_{n-1} U, one entry per member s.

    ``piv[s, k]`` is the row exchanged with row k at step k; ``l[s, k, d]``
    is the multiple of row k then subtracted from row k+1+d; column k of U
    is ``u[s, k, j] = U[k - 2b + j, k]``, diagonal last.  ``tol[s]`` is the
    member's pivot tolerance and ``bad[s]`` its first pivot below it, -1
    when there is none; a bad member's factors are meaningless, the other
    members' are unaffected.
    """

    l: np.ndarray
    u: np.ndarray
    piv: np.ndarray
    tol: np.ndarray
    bad: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[1]

    @property
    def b(self) -> int:
        return self.l.shape[2]

    def failure(self, s: int) -> str | None:
        """Why member s is singular, or None when it is not."""
        k = int(self.bad[s])
        if k < 0:
            return None
        if self.tol[s] == 0.0:
            return "zero matrix"
        return (f"pivot {k} below tolerance "
                f"({abs(self.u[s, k, -1]):.3e} < {self.tol[s]:.3e})")


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix entries must be finite")
    return a


def bandwidth(a) -> int:
    """Half-bandwidth of a square matrix's nonzero pattern: the largest
    |i - j| with A[i, j] != 0 (0 for a diagonal or zero matrix)."""
    i, j = np.nonzero(_check_square(a))
    return int(np.abs(i - j).max(initial=0))


def band_storage(a, b: int) -> np.ndarray:
    """Row-band storage (n, 2b+1) of a square matrix whose entries outside
    half-bandwidth b are zero."""
    a = _check_square(a)
    n = a.shape[0]
    cols = np.arange(n)[:, None] + np.arange(-b, b + 1)
    inside = (cols >= 0) & (cols < n)
    return np.where(inside, a[np.arange(n)[:, None], cols.clip(0, n - 1)], 0)


def band_lu(ab) -> LuFactors:
    """Partial-pivot LU of a batch of band matrices in row-band storage
    (batch, n, 2b+1).

    Member s's pivot tolerance is 1e-13 times its largest magnitude; a
    member with a pivot below it is flagged in ``bad`` rather than raised,
    so the rest of the batch is still factored.
    """
    ab = np.asarray(ab)
    if ab.ndim != 3 or ab.shape[2] % 2 != 1:
        raise DimensionMismatch(f"expected row-band storage (batch, n, 2b+1), got {ab.shape}")
    if not np.all(np.isfinite(ab)):
        raise DimensionMismatch("matrix entries must be finite")
    batch, n, width = ab.shape
    b = width // 2
    dtype = complex if np.iscomplexobj(ab) else float
    big = np.abs(ab).max(axis=(1, 2), initial=0.0)
    members = np.arange(batch)
    # U row k lands on the skew u[s, k + e, 2b - e]; columns past n are zero
    e = np.arange(width)
    u = np.zeros((batch, n + 2 * b, width), dtype)
    l = np.zeros((batch, n, b), dtype)
    piv = np.empty((batch, n), dtype=int)

    # Active window: rows k..k+b, columns k..k+2b (rows past n stay zero).
    win = np.zeros((batch, b + 1, width), dtype)
    nxt = np.zeros_like(win)
    for d in range(min(b + 1, n)):
        win[:, d, :b + d + 1] = ab[:, d, b - d:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            p = np.abs(win[:, :, 0]).argmax(axis=1)
            piv[:, k] = k + p
            top = win[members, p]
            win[members, p] = win[:, 0]
            u[:, k + e, 2 * b - e] = top
            mult = win[:, 1:, 0] / top[:, :1]
            l[:, k] = mult
            np.subtract(win[:, 1:, 1:], mult[:, :, None] * top[:, None, 1:],
                        out=nxt[:, :-1, :-1])
            # slide down one row: the new bottom row enters with its band
            nxt[:, :-1, -1] = 0.0
            nxt[:, -1] = ab[:, k + b + 1] if k + b + 1 < n else 0.0
            win, nxt = nxt, win

    u = u[:, :n]
    tol = _PIVOT_TOL * big
    # first pivot below tolerance; a zero matrix fails at its first pivot
    small = (np.abs(u[:, :, -1]) < tol[:, None]) | (big == 0.0)[:, None]
    bad = np.where(small.any(axis=1), small.argmax(axis=1), -1) if n else np.full(batch, -1)
    return LuFactors(l, u, piv, tol, bad)


def _as_columns(rhs, batch: int, n: int) -> np.ndarray:
    """Right-hand sides (batch, n) or (batch, n, m) as (batch, n, m)."""
    rhs = np.asarray(rhs)
    if rhs.ndim not in (2, 3) or rhs.shape[:2] != (batch, n):
        raise DimensionMismatch(
            f"right-hand side shape {rhs.shape} does not match {batch} systems of size {n}")
    return rhs if rhs.ndim == 3 else rhs[:, :, None]


def band_lu_solve(f: LuFactors, rhs) -> np.ndarray:
    """Solve A_s x_s = rhs_s for every member, rhs (batch, n) or
    (batch, n, m); the result has the shape of rhs."""
    batch, n, b = f.piv.shape[0], f.n, f.b
    cols = _as_columns(rhs, batch, n)
    # rows 2b..2b+n-1 hold x; the zero margins absorb the band's overhang
    x = np.zeros((batch, 2 * b + n + b, cols.shape[2]), np.result_type(f.u, cols, float))
    x[:, 2 * b:2 * b + n] = cols
    members = np.arange(batch)
    exchanged = np.any(f.piv != np.arange(n), axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):                 # forward: the L_k and P_k in turn
            i = 2 * b + k
            if exchanged[k]:
                p = f.piv[:, k] + 2 * b
                xp = x[members, p]
                x[members, p] = x[:, i]
                x[:, i] = xp
            x[:, i + 1:i + 1 + b] -= f.l[:, k, :, None] * x[:, i, None]
        for k in range(n - 1, -1, -1):     # backward: U x = y, column by column
            i = 2 * b + k
            x[:, i] /= f.u[:, k, -1, None]
            x[:, i - 2 * b:i] -= f.u[:, k, :-1, None] * x[:, i, None]
    x = x[:, 2 * b:2 * b + n]
    return x if np.ndim(rhs) == 3 else x[:, :, 0]


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A_s x_s for row-band ab (batch, n, 2b+1) and x (batch, n) or
    (batch, n, m), accumulated diagonal by diagonal."""
    batch, n, width = ab.shape
    b = width // 2
    cols = _as_columns(x, batch, n)
    xp = np.zeros((batch, n + 2 * b, cols.shape[2]), np.result_type(ab, x))
    xp[:, b:b + n] = cols
    y = ab[:, :, 0, None] * xp[:, :n]
    for j in range(1, width):
        y += ab[:, :, j, None] * xp[:, j:j + n]
    return y.reshape(x.shape)


def band_solve_refined(ab, rhs) -> tuple[np.ndarray, LuFactors]:
    """Batched band solve with one step of iterative refinement, the
    residual taken in working precision; returns the solutions and the
    factors, whose ``bad``/``failure`` name the singular members.

    Lightly damped resonances make the dynamic matrix ill-conditioned enough
    (cond ~ 1e6) that a plain LU residual sits around 1e-9; one refinement
    pass brings it down to the double-precision floor as long as
    cond * eps << 1.
    """
    ab = np.asarray(ab)
    f = band_lu(ab)
    x = band_lu_solve(f, rhs)
    with np.errstate(invalid="ignore", over="ignore"):
        x += band_lu_solve(f, rhs - _band_matvec(ab, x))
    return x, f


def _dense_band(a) -> np.ndarray:
    a = _check_square(a)
    return band_storage(a, bandwidth(a))[None]


def _raise_if_singular(f: LuFactors) -> None:
    reason = f.failure(0)
    if reason is not None:
        raise Singular(reason)


def lu_factor(a) -> LuFactors:
    """Factor one dense matrix, PA = LU with partial pivoting: band_lu on a
    one-member batch.

    Raises Singular when a pivot falls below 1e-13 times the largest
    magnitude in A.
    """
    f = band_lu(_dense_band(a))
    _raise_if_singular(f)
    return f


def lu_solve(f: LuFactors, b) -> np.ndarray:
    """Solve A x = b with one matrix's factors, for one right-hand side (n,)
    or several (n, m)."""
    return band_lu_solve(f, np.asarray(b)[None])[0]


def solve(a, b) -> np.ndarray:
    """Factor-and-solve convenience wrapper."""
    return lu_solve(lu_factor(a), b)


def solve_refined(a, b) -> np.ndarray:
    """Solve one dense system with one step of iterative refinement
    (band_solve_refined on a one-member batch)."""
    ab = _dense_band(a)
    x, f = band_solve_refined(ab, np.asarray(b)[None])
    _raise_if_singular(f)
    return x[0]


def symmetric_pivots(a) -> np.ndarray:
    """Pivots (the D of A = L D L^T) of the unpivoted elimination of a
    symmetric matrix.

    By Sylvester's law of inertia the pivots carry the signs of the
    eigenvalues: all are positive iff A is positive definite, and the number
    of negative pivots is the number of negative eigenvalues.  Elimination
    stops at the first zero pivot; the returned array then ends with it.
    Without pivoting the band stays put, so step k updates only rows and
    columns k+1..k+b; outside them it would subtract exact zeros.
    """
    a = _check_square(a)
    lu = a.astype(float, copy=True)
    n = lu.shape[0]
    b = bandwidth(lu)
    pivots = []
    for k in range(n):
        d = lu[k, k]
        pivots.append(d)
        if d == 0.0:
            break
        end = min(k + 1 + b, n)
        lu[k + 1:end, k + 1:end] -= np.outer(lu[k + 1:end, k], lu[k, k + 1:end]) / d
    return np.array(pivots)


def is_positive_definite(a) -> bool:
    return bool(np.all(symmetric_pivots(a) > 0.0))
