"""Unpivoted LDL^T of real and complex symmetric band matrices, batched over
a leading axis, for the systems the beam model produces (11 diagonals
above the main one, up to about 44,000 DOF): a frequency sweep factors many
dynamic matrices in one pass, and the mode finder counts the negative
pivots of many shifted matrices at once.

A symmetric matrix with b diagonals above the main one (A[i, j] == 0 for
|i - j| > b) travels in upper band storage, ab[..., i, j] = A[i, i + j]
for j = 0..b, shape (..., n, b+1), as in LAPACK's xPBTRF; only that
triangle is read.  Elimination step k touches only rows k..k+b of the
storage, a (b+1) x (b+1) window that slides down one row per step.  Every
operation is elementwise over the batch axis, so each member's result is
bit-equal to its solve in a one-member batch.

Why no pivoting: the dynamic matrix D = K - w^2 M + i w C with Rayleigh
damping has a positive definite imaginary part w C for w > 0, every Schur
complement inherits that property, so each pivot has Im d_k > 0 and can
never vanish; at w = 0 D is the positive definite K.  Symmetric (not
Hermitian) complex matrices are factored natively, with A = L D L^T.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch

# Pivot smaller than this fraction of the largest entry counts as singular.
_PIVOT_TOL = 1e-13


@dataclass
class LdltFactors:
    """A_s = L_s D_s L_s^T for each member s of a batch of n x n matrices.

    ``d[s, k]`` is the pivot D[k, k]; ``l[s, k, t] = L[k + 1 + t, k]``, the
    multiple of row k subtracted from row k+1+t (zero past n).  ``tol[s]``
    is the member's pivot tolerance and ``bad[s]`` its first pivot below
    it, -1 when there is none; a bad member's factors are meaningless, the
    other members' are unaffected.
    """

    l: np.ndarray
    d: np.ndarray
    tol: np.ndarray
    bad: np.ndarray

    @property
    def n(self) -> int:
        return self.d.shape[1]

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
                f"({abs(self.d[s, k]):.3e} < {self.tol[s]:.3e})")


def band_to_dense(ab) -> np.ndarray:
    """The symmetric n x n matrix held in upper band storage ab (n, b+1);
    entries past the matrix's edge are ignored."""
    ab = np.asarray(ab)
    if ab.ndim != 2:
        raise DimensionMismatch(f"expected upper band storage (n, b+1), got {ab.shape}")
    n = ab.shape[0]
    a = np.zeros((n, n), ab.dtype)
    for t in range(min(ab.shape[1], n)):
        i = np.arange(n - t)
        a[i, i + t] = a[i + t, i] = ab[:n - t, t]
    return a


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
        raise DimensionMismatch(f"expected upper band storage (batch, n, b+1), got {ab.shape}")
    if not np.all(np.isfinite(ab)):
        raise DimensionMismatch("matrix entries must be finite")
    batch, n, width = ab.shape
    b = width - 1
    dtype = complex if np.iscomplexobj(ab) else float
    # rows k..k+b of work hold the window of the Schur complement at step k;
    # the b zero rows past n let the last steps run unchanged
    work = np.zeros((batch, n + b, width), dtype)
    work[:, :n] = ab
    work[:, :n][:, np.arange(n)[:, None] + np.arange(width) >= n] = 0.0
    big = np.abs(work).max(axis=(1, 2), initial=0.0)
    l = np.empty((batch, n, b), dtype)
    # the step's multipliers, then zeros for the columns past the band:
    # skew[s, i, t] = pad[s, i + t]
    pad = np.zeros((batch, 2 * b + 1), dtype)
    skew = sliding_window_view(pad, width, axis=1)[:, :b]
    update = np.empty((batch, b, width), dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n if b else 0):
            row = work[:, k]
            np.divide(row[:, 1:], row[:, :1], out=pad[:, :b])
            l[:, k] = pad[:, :b]
            # entry (k+1+i, k+1+i+t) loses A[k, k+1+i] * L[k+1+i+t, k]
            np.multiply(row[:, 1:, None], skew, out=update)
            work[:, k + 1:k + 1 + b] -= update
    d = work[:, :n, 0].copy()
    tol = _PIVOT_TOL * big
    # first pivot below tolerance; a zero matrix fails at its first pivot
    small = (np.abs(d) < tol[:, None]) | (big == 0.0)[:, None]
    bad = np.where(small.any(axis=1), small.argmax(axis=1), -1) if n else np.full(batch, -1)
    return LdltFactors(l, d, tol, bad)


def _as_columns(rhs, batch: int, n: int) -> np.ndarray:
    """Right-hand sides (batch, n) or (batch, n, m) as (batch, n, m)."""
    rhs = np.asarray(rhs)
    if rhs.ndim not in (2, 3) or rhs.shape[:2] != (batch, n):
        raise DimensionMismatch(
            f"right-hand side shape {rhs.shape} does not match {batch} systems of size {n}")
    return rhs if rhs.ndim == 3 else rhs[:, :, None]


def band_ldlt_solve(f: LdltFactors, rhs) -> np.ndarray:
    """Solve A_s x_s = rhs_s for every member, rhs (batch, n) or
    (batch, n, m); the result has the shape of rhs."""
    batch, n, b = f.d.shape[0], f.n, f.b
    cols = _as_columns(rhs, batch, n)
    # rows b..b+n-1 hold x; the zero margins absorb the band's overhang
    x = np.zeros((batch, b + n + b, cols.shape[2]), np.result_type(f.d, cols, float))
    x[:, b:b + n] = cols
    # row k of L as lower[s, k, t] = L[k, k - b + t], for the column sweep of L^T
    lower = np.zeros_like(f.l)
    for t in range(max(b - n, 0), b):
        lower[:, b - t:, t] = f.l[:, :n - b + t, b - 1 - t]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):                  # L y = rhs, column by column
            i = b + k
            x[:, i + 1:i + 1 + b] -= f.l[:, k, :, None] * x[:, i, None]
        x[:, b:b + n] /= f.d[:, :, None]
        for k in range(n - 1, -1, -1):      # L^T x = D^-1 y, column by column
            i = b + k
            x[:, i - b:i] -= lower[:, k, :, None] * x[:, i, None]
    x = x[:, b:b + n]
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
