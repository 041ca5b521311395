"""Training-data plumbing: train/test split, feature and target scaling,
and CSV persistence.

Samples travel as two float arrays: freqs (n,) in Hz and outputs (n, k) in
physical units (k = 1 amplitude for the oscillator, k = 3 per-axis maximum
displacements for the beam).

Scaling schemes follow the pipeline defaults: driving frequency is min-max
scaled to [0, 1]; displacement targets spanning several decades across
resonance peaks use log10 with a small positive floor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# 17 significant digits: lossless round-trip for IEEE doubles.
FLOAT_FMT = "%.17g"


def split(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random train/test partition of n sample indices, deterministic for a
    fixed seed.

    Returns sorted (train_idx, test_idx) with |test| = round(test_fraction * n).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if n < 5:
        raise DataError(f"need at least 5 samples to split, got {n}")
    n_test = int(round(test_fraction * n))
    if n_test < 1 or n_test > n - 1:
        raise DataError(
            f"test_fraction {test_fraction} of {n} samples leaves an empty partition")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


# --- scaling ----------------------------------------------------------------

LINEAR_MINMAX = "linear_minmax"
LOG10 = "log10"
# Values below it are raised to it before log10, so a zero maps to -18.
LOG10_FLOOR = 1e-18


@dataclass
class Scaler:
    """Column-wise transform fitted on training data only.

    linear_minmax maps the train [min, max] of each column to [0, 1] and
    extrapolates linearly outside it (no clamping).  log10 applies
    log10(max(x, floor_eps)) independent of column.
    """

    scheme: str
    col_min: np.ndarray | None = None
    col_max: np.ndarray | None = None
    floor_eps: float | None = None

    def to_dict(self) -> dict:
        d = {"scheme": self.scheme}
        if self.scheme == LINEAR_MINMAX:
            d["col_min"] = [float(v) for v in self.col_min]
            d["col_max"] = [float(v) for v in self.col_max]
        else:
            d["floor_eps"] = self.floor_eps
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        """Inverse of to_dict.  Raises ConfigError unless the min-max bounds
        are finite, of one length and ordered (col_min <= col_max), and the
        log10 floor is unset or a finite number >= 0."""
        scheme = d["scheme"]
        if scheme == LINEAR_MINMAX:
            lo = np.asarray(d["col_min"], dtype=float)
            hi = np.asarray(d["col_max"], dtype=float)
            if lo.ndim != 1 or lo.shape != hi.shape or not (
                    np.isfinite(lo).all() and np.isfinite(hi).all() and (lo <= hi).all()):
                raise ConfigError(
                    f"min-max bounds must be finite, of one length and ordered, got "
                    f"col_min={lo.tolist()} col_max={hi.tolist()}")
            return cls(scheme, col_min=lo, col_max=hi)
        if scheme == LOG10:
            floor = d["floor_eps"]
            if floor is not None and not (math.isfinite(floor) and floor >= 0.0):
                raise ConfigError(f"floor_eps must be finite and >= 0, got {floor}")
            return cls(scheme, floor_eps=floor)
        raise ConfigError(f"unknown scaling scheme {scheme!r}")


def _as_columns(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] == 0:
        raise DataError(f"expected (n,) or (n, k) values, got shape {np.shape(values)}")
    return v


def scale_fit(values, scheme: str) -> Scaler:
    """Fit a scaler on training columns only (no test leakage).  A log10
    scaler takes no parameter from the data: its floor is LOG10_FLOOR."""
    v = _as_columns(values)
    if scheme == LINEAR_MINMAX:
        return Scaler(scheme, col_min=v.min(axis=0), col_max=v.max(axis=0))
    if scheme == LOG10:
        return Scaler(scheme, floor_eps=LOG10_FLOOR)
    raise ConfigError(f"unknown scaling scheme {scheme!r}")


def scale_apply(scaler: Scaler, values) -> np.ndarray:
    v = _as_columns(values)
    if scaler.scheme == LINEAR_MINMAX:
        if v.shape[1] != scaler.col_min.shape[0]:
            raise DataError(
                f"scaler fitted on {scaler.col_min.shape[0]} columns, got {v.shape[1]}")
        span = scaler.col_max - scaler.col_min
        span = np.where(span > 0.0, span, 1.0)  # constant column maps to 0
        return (v - scaler.col_min) / span
    if scaler.floor_eps:
        v = np.maximum(v, scaler.floor_eps)
    return np.log10(v)


def scale_invert(scaler: Scaler, scaled) -> np.ndarray:
    v = _as_columns(scaled)
    if scaler.scheme == LINEAR_MINMAX:
        if v.shape[1] != scaler.col_min.shape[0]:
            raise DataError(
                f"scaler fitted on {scaler.col_min.shape[0]} columns, got {v.shape[1]}")
        span = scaler.col_max - scaler.col_min
        span = np.where(span > 0.0, span, 1.0)
        return v * span + scaler.col_min
    return np.power(10.0, v)


# --- CSV persistence ---------------------------------------------------------

def channel_names(k: int) -> list[str]:
    """Names of k output channels: the oscillator amplitude, the beam's
    per-axis maxima, or numbered outputs for any other count."""
    if k == 1:
        return ["amplitude"]
    if k == 3:
        return ["ux_max", "uy_max", "uz_max"]
    return [f"out_{i + 1}" for i in range(k)]


def write_rows(path, header, rows) -> None:
    """Write a UTF-8 CSV with '\\n' endings: the header names, then one line
    per row of the 2-D array ``rows`` with every cell as %.17g (integers and
    flags print as 0, 1, 12; NaN as nan)."""
    lines = [",".join(header)]
    lines += [",".join(FLOAT_FMT % v for v in row)
              for row in np.asarray(rows, dtype=float).tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, freqs, outputs) -> None:
    """Write a sweep: freqs (n,) and outputs (n, k) in physical units."""
    outputs = np.asarray(outputs, dtype=float)
    write_rows(path, ["freq_hz"] + channel_names(outputs.shape[1]),
               np.column_stack([freqs, outputs]))


def read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a sweep written by write_csv as (freqs (n,), outputs (n, k)).

    Every value must parse and be finite and >= 0; a bad row raises
    DataError with its 1-based data row index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln != ""]
    if not lines:
        raise DataError("empty file, missing header")
    n_cols = len(lines[0].split(","))
    if n_cols < 2 or not lines[0].startswith("freq_hz"):
        raise DataError(f"unexpected header {lines[0]!r}")
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != n_cols:
            raise DataError(f"row {i}: expected {n_cols} columns, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"row {i}: {exc}") from exc
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            raise DataError(f"row {i}: values must be finite and >= 0, got {ln!r}")
        rows.append(vals)
    table = np.array(rows).reshape(len(rows), n_cols)
    return table[:, 0], table[:, 1:]
