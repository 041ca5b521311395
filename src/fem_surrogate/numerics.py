"""Unpivoted LDL^T of real and complex symmetric band matrices, batched over
a leading axis, for the systems the beam model produces (11 diagonals
above the main one, up to about 44,000 DOF): a frequency sweep factors many
dynamic matrices in one pass, and the mode finder counts the negative
pivots of many shifted matrices at once.

A symmetric matrix with b diagonals above the main one (A[i, j] == 0 for
|i - j| > b) travels in upper band storage, ab[..., i, j] = A[i, i + j]
for j = 0..b, shape (..., n, b+1), as in LAPACK's xPBTRF; only that
triangle is read.  Elimination step k touches only rows k..k+b of the
storage, a (b+1) x (b+1) window that slides down one row per step.  The
kernels work in step-major storage, (n + 2b, batch, b+1) with b zero rows
on either side, so that each step reads and writes one contiguous block
for the whole batch; the elimination leaves step k's multipliers in row
k's off-diagonal entries, which no later step reads, so the factors take
no storage beyond the working copy.  Every operation is elementwise over
the batch axis, so each member's result is bit-equal to its solve in a
one-member batch.

Why no pivoting: the dynamic matrix D = K - w^2 M + i w C with Rayleigh
damping has a positive definite imaginary part w C for w > 0, every Schur
complement inherits that property, so each pivot has Im d_k > 0 and can
never vanish; at w = 0 D is the positive definite K.  Symmetric (not
Hermitian) complex matrices are factored natively, with A = L D L^T.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import DataError

# Pivot smaller than this fraction of the largest entry counts as singular.
_PIVOT_TOL = 1e-13


@dataclass
class LdltFactors:
    """A_s = L_s D_s L_s^T for each member s of a batch of n x n matrices.

    The factors live in the elimination's step-major working storage,
    ``packed`` (b + n + b, batch, b+1): row b + k holds step k, its column 0
    the pivot D[k, k] and its columns 1..b the multipliers L[k+1..k+b, k],
    written over the entries of A that step k was the last to read; the b
    zero rows on either side are margins that let the first and last steps
    run unchanged.  ``d[s, k]`` is the pivot D[k, k], a batch-major view of
    ``packed``.  ``tol[s]`` is the member's pivot tolerance and ``bad[s]``
    its first pivot below it, -1 when there is none; a bad member's factors
    are meaningless, the other members' are unaffected.
    """

    packed: np.ndarray
    tol: np.ndarray
    bad: np.ndarray

    @property
    def b(self) -> int:
        return self.packed.shape[2] - 1

    @property
    def n(self) -> int:
        return self.packed.shape[0] - 2 * self.b

    @property
    def d(self) -> np.ndarray:
        return self.packed[self.b:self.b + self.n, :, 0].T

    def failure(self, s: int) -> str | None:
        """Why member s is singular, or None when it is not."""
        k = int(self.bad[s])
        if k < 0:
            return None
        if self.tol[s] == 0.0:
            return "zero matrix"
        return (f"pivot {k} below tolerance "
                f"({abs(self.d[s, k]):.3e} < {self.tol[s]:.3e})")


def band_to_dense(ab) -> np.ndarray:
    """The symmetric n x n matrix held in upper band storage ab (n, b+1);
    entries past the matrix's edge are ignored."""
    ab = np.asarray(ab)
    if ab.ndim != 2:
        raise DataError(f"expected upper band storage (n, b+1), got {ab.shape}")
    n = ab.shape[0]
    a = np.zeros((n, n), ab.dtype)
    for t in range(min(ab.shape[1], n)):
        i = np.arange(n - t)
        a[i, i + t] = a[i + t, i] = ab[:n - t, t]
    return a


def _row_windows(a: np.ndarray, b: int) -> np.ndarray:
    """windows[k] = a[k:k + b] for every k, as views that write through."""
    return np.moveaxis(sliding_window_view(a, b, axis=0, writeable=True), -1, 1)


def band_ldlt(ab) -> LdltFactors:
    """Unpivoted LDL^T of a batch of symmetric band matrices in upper band
    storage (batch, n, b+1); entries past the matrix's edge are ignored.

    Member s's pivot tolerance is 1e-13 times its largest magnitude; a
    member with a pivot below it is flagged in ``bad`` rather than raised,
    so the rest of the batch is still factored.  Elimination goes on past a
    zero pivot, so the pivots after it are inf or nan.
    """
    ab = np.asarray(ab)
    if ab.ndim != 3 or ab.shape[2] < 1:
        raise DataError(f"expected upper band storage (batch, n, b+1), got {ab.shape}")
    if not np.all(np.isfinite(ab)):
        raise DataError("matrix entries must be finite")
    batch, n, width = ab.shape
    b = width - 1
    dtype = complex if np.iscomplexobj(ab) else float
    # step-major: rows b+k..b+k+b of work hold the window of the Schur
    # complement at step k, one contiguous block
    work = np.zeros((b + n + b, batch, width), dtype)
    rows = work[b:b + n]
    rows[...] = ab.transpose(1, 0, 2)
    np.moveaxis(rows, 1, 0)[:, np.arange(n)[:, None] + np.arange(width) >= n] = 0.0
    # reducing the step axis first keeps the inner loops long
    big = np.abs(rows).max(axis=0, initial=0.0).max(axis=1, initial=0.0)
    # the step's multipliers, then zeros for the columns past the band:
    # skew[i, s, t] = pad[s, i + t]
    pad = np.zeros((batch, 2 * b + 1), dtype)
    mult = pad[:, :b]
    skew = sliding_window_view(pad, width, axis=1)[:, :b].transpose(1, 0, 2)
    update = np.empty((b, batch, width), dtype)
    # per-step views, made once: row k's pivots and off-diagonals, the
    # off-diagonals as a column, and rows k+1..k+b
    pivot, off = work[:, :, :1], work[:, :, 1:]
    column = off.transpose(0, 2, 1)[..., None]
    below = _row_windows(work, b)[1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(b, b + n):
            np.divide(off[k], pivot[k], out=mult)
            # entry (k+1+i, k+1+i+t) loses A[k, k+1+i] * L[k+1+i+t, k]
            np.multiply(column[k], skew, out=update)
            np.subtract(below[k], update, out=below[k])
            np.copyto(off[k], mult)     # A[k, k+1..] was read for the last time
    tol = _PIVOT_TOL * big
    # first pivot below tolerance; a zero matrix fails at its first pivot
    small = (np.abs(rows[:, :, 0].T) < tol[:, None]) | (big == 0.0)[:, None]
    bad = np.where(small.any(axis=1), small.argmax(axis=1), -1) if n else np.full(batch, -1)
    return LdltFactors(work, tol, bad)


def _as_columns(rhs, batch: int, n: int) -> np.ndarray:
    """Right-hand sides (batch, n) or (batch, n, m) as (batch, n, m)."""
    rhs = np.asarray(rhs)
    if rhs.ndim not in (2, 3) or rhs.shape[:2] != (batch, n):
        raise DataError(
            f"right-hand side shape {rhs.shape} does not match {batch} systems of size {n}")
    return rhs if rhs.ndim == 3 else rhs[:, :, None]


def band_ldlt_solve(f: LdltFactors, rhs) -> np.ndarray:
    """Solve A_s x_s = rhs_s for every member, rhs (batch, n) or
    (batch, n, m); the result has the shape of rhs."""
    batch, n, b = f.packed.shape[1], f.n, f.b
    cols = _as_columns(rhs, batch, n)
    # step-major like the factors: rows b..b+n-1 hold x, the zero margins
    # absorb the band's overhang
    x = np.zeros((b + n + b, batch, cols.shape[2]), np.result_type(f.packed, cols, float))
    x[b:b + n] = cols.transpose(1, 0, 2)
    p = f.packed
    # per-step views, made once: column k of L below the diagonal as
    # down[k, t, s] = L[k + 1 + t, k], row k of L left of it as
    # left[k, t, s] = L[k, k - b + t] (the zero rows before p's step 0
    # stand in for the columns before L's first), and the b rows of x
    # after and before row k
    down = p[:, :, 1:].transpose(0, 2, 1)[..., None]
    left = as_strided(p[:, :, b:], (n, b, batch),
                      (p.strides[0], p.strides[0] - p.strides[2], p.strides[1]),
                      writeable=False)[..., None]
    xk = x[:, None]
    before = _row_windows(x, b)
    after = before[1:]
    update = np.empty((b, batch, cols.shape[2]), x.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(b, b + n):            # L y = rhs, column by column
            np.multiply(down[k], xk[k], out=update)
            np.subtract(after[k], update, out=after[k])
        x[b:b + n] /= p[b:b + n, :, :1]
        for k in range(b + n - 1, b - 1, -1):  # L^T x = D^-1 y, column by column
            np.multiply(left[k - b], xk[k], out=update)
            np.subtract(before[k - b], update, out=before[k - b])
    x = x[b:b + n].transpose(1, 0, 2)
    return x if np.ndim(rhs) == 3 else x[:, :, 0]


def _symmetric_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A_s x_s for upper band storage ab (batch, n, b+1) and x (batch, n)
    or (batch, n, m), accumulated diagonal by diagonal, each off-diagonal
    once above and once below."""
    batch, n, width = ab.shape
    cols = _as_columns(x, batch, n)
    a = ab[:, :, :, None]
    y = a[:, :, 0] * cols
    for t in range(1, min(width, n)):
        y[:, :n - t] += a[:, :n - t, t] * cols[:, t:]
        y[:, t:] += a[:, :n - t, t] * cols[:, :n - t]
    return y.reshape(x.shape)


def band_ldlt_refined(ab, rhs) -> tuple[np.ndarray, LdltFactors]:
    """Batched band solve with one step of iterative refinement, the
    residual taken in working precision; returns the solutions and the
    factors, whose ``bad``/``failure`` name the singular members.

    Lightly damped resonances make the dynamic matrix ill-conditioned enough
    (cond ~ 1e6) that a plain solve's residual sits around 1e-9; one
    refinement pass brings it down to the double-precision floor as long as
    cond * eps << 1.
    """
    ab = np.asarray(ab)
    f = band_ldlt(ab)
    x = band_ldlt_solve(f, rhs)
    with np.errstate(invalid="ignore", over="ignore"):
        x += band_ldlt_solve(f, rhs - _symmetric_matvec(ab, x))
    return x, f
