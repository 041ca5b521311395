"""Steady-state response of the driven damped oscillator

    m x'' + c x' + k x = F0 sin(w t),  w = 2*pi*f.

The closed-form amplitude

    A(w) = (F0/m) / sqrt((w0^2 - w^2)^2 + (c w / m)^2),  w0 = sqrt(k/m)

is the ground truth for the first surrogate experiment.  The public
frequency axis is always Hz; the w = 2*pi*f conversion happens inside the
operations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError


@dataclass(frozen=True)
class OscillatorParams:
    mass: float             # m, kg
    damping: float          # c, N*s/m
    stiffness: float        # k, N/m
    force_amplitude: float  # F0, N

    def __post_init__(self):
        for name in ("mass", "stiffness"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {v}")
        if not (np.isfinite(self.damping) and self.damping >= 0.0):
            raise ConfigError(f"damping must be finite and >= 0, got {self.damping}")
        if not (np.isfinite(self.force_amplitude) and self.force_amplitude >= 0.0):
            raise ConfigError(
                f"force_amplitude must be finite and >= 0, got {self.force_amplitude}")

    @property
    def omega0(self) -> float:
        """Natural angular frequency sqrt(k/m), rad/s."""
        return math.sqrt(self.stiffness / self.mass)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing driving frequencies in Hz."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ConfigError("grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ConfigError("grid frequencies must be finite")
        if v[0] < 0.0:
            raise ConfigError("grid frequencies must be >= 0")
        if v.size > 1 and not np.all(np.diff(v) > 0.0):
            raise ConfigError("grid frequencies must be strictly increasing")

    @classmethod
    def uniform(cls, start_hz: float, stop_hz: float, n_points: int) -> "FrequencyGrid":
        if n_points < 1:
            raise ConfigError(f"n_points must be >= 1, got {n_points}")
        return cls(np.linspace(start_hz, stop_hz, n_points))

    def __len__(self) -> int:
        return self.values.size


# Example-1 defaults: resonance near 5 Hz, centered in the 0-10 Hz window.
DEFAULT_PARAMS = OscillatorParams(mass=1.0, damping=0.2, stiffness=986.96,
                                  force_amplitude=1.0)
DEFAULT_GRID = (0.1, 10.0, 200)


def default_grid() -> FrequencyGrid:
    return FrequencyGrid.uniform(*DEFAULT_GRID)


def amplitude(params: OscillatorParams, freq_hz: float) -> float:
    """Closed-form steady-state displacement amplitude in meters.  Raises
    SolverError, naming freq_hz, at undamped resonance or when the
    parameters take it out of double range: a term overflows or divides by
    zero, or the amplitude comes out non-finite, or 0 under a nonzero
    force."""
    if not (np.isfinite(freq_hz) and freq_hz >= 0.0):
        raise ConfigError(f"freq_hz must be finite and >= 0, got {freq_hz}")
    w = 2.0 * math.pi * freq_hz
    m, c, f0 = params.mass, params.damping, params.force_amplitude
    try:
        w0 = params.omega0
        if c == 0.0 and abs(w - w0) / w0 < 1e-12:
            raise SolverError(
                f"undamped oscillator driven at resonance (f = {freq_hz} Hz)")
        amp = (f0 / m) / math.sqrt((w0 * w0 - w * w) ** 2 + (c * w / m) ** 2)
    except (OverflowError, ZeroDivisionError):
        amp = math.inf
    if not math.isfinite(amp) or (amp == 0.0 and f0 > 0.0):
        raise SolverError(
            f"amplitude at f = {freq_hz} Hz is out of double range for these parameters")
    return amp


def peak_frequency_hz(params: OscillatorParams) -> float:
    """Location of the interior response maximum, or 0.0 when c^2 >= 2mk
    leaves the curve monotone (maximum at w = 0)."""
    w0sq = params.stiffness / params.mass
    shift = params.damping ** 2 / (2.0 * params.mass ** 2)
    if shift >= w0sq:
        return 0.0
    return math.sqrt(w0sq - shift) / (2.0 * math.pi)


def sweep_oscillator(params: OscillatorParams, grid: FrequencyGrid) -> np.ndarray:
    """Amplitude at every grid frequency, as an (n, 1) output array."""
    out = np.empty((len(grid), 1))
    for i, f in enumerate(grid.values):
        out[i, 0] = amplitude(params, float(f))
    return out

