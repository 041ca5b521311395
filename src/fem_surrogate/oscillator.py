"""Steady-state response of the driven damped oscillator

    m x'' + c x' + k x = F0 sin(w t),  w = 2*pi*f.

The closed-form amplitude

    A(w) = (F0/m) / sqrt((w0^2 - w^2)^2 + (c w / m)^2),  w0 = sqrt(k/m)

is the ground truth for the first surrogate experiment; a fixed-step RK4
time integration of the same ODE serves as an independent oracle for it.
The public frequency axis is always Hz; the w = 2*pi*f conversion happens
inside the operations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NonConvergent, SolverError, UnboundedResonance


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
                raise InvalidParams(f"{name} must be finite and > 0, got {v}")
        if not (np.isfinite(self.damping) and self.damping >= 0.0):
            raise InvalidParams(f"damping must be finite and >= 0, got {self.damping}")
        if not (np.isfinite(self.force_amplitude) and self.force_amplitude >= 0.0):
            raise InvalidParams(
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
            raise InvalidParams("grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise InvalidParams("grid frequencies must be finite")
        if v[0] < 0.0:
            raise InvalidParams("grid frequencies must be >= 0")
        if v.size > 1 and not np.all(np.diff(v) > 0.0):
            raise InvalidParams("grid frequencies must be strictly increasing")

    @classmethod
    def uniform(cls, start_hz: float, stop_hz: float, n_points: int) -> "FrequencyGrid":
        if n_points < 1:
            raise InvalidParams(f"n_points must be >= 1, got {n_points}")
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
    SolverError when the parameters take it out of double range: a term
    overflows or divides by zero, or the amplitude comes out non-finite, or
    0 under a nonzero force."""
    if not (np.isfinite(freq_hz) and freq_hz >= 0.0):
        raise InvalidParams(f"freq_hz must be finite and >= 0, got {freq_hz}")
    w = 2.0 * math.pi * freq_hz
    m, c, f0 = params.mass, params.damping, params.force_amplitude
    try:
        w0 = params.omega0
        if c == 0.0 and abs(w - w0) / w0 < 1e-12:
            raise UnboundedResonance(
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
        try:
            out[i, 0] = amplitude(params, float(f))
        except UnboundedResonance as exc:
            raise UnboundedResonance(f"sweep failed at f = {f} Hz: {exc}") from exc
    return out


def steady_state_oracle(params: OscillatorParams, freq_hz: float,
                        cycles: int = 200, steps_per_cycle: int = 200) -> float:
    """Independent check of amplitude(): integrate the ODE from rest with
    classical fixed-step RK4, drop the first 80% of the window, and return
    the (parabolically refined) max |x| over the remainder.

    Raises NonConvergent when the last two cycles' maxima still differ by
    more than 0.5%.
    """
    if params.damping <= 0.0:
        raise InvalidParams("oracle requires damping > 0 so the transient decays")
    if cycles < 50:
        raise InvalidParams(f"cycles must be >= 50, got {cycles}")
    if steps_per_cycle < 100:
        raise InvalidParams(f"steps_per_cycle must be >= 100, got {steps_per_cycle}")
    if not (np.isfinite(freq_hz) and freq_hz >= 0.0):
        raise InvalidParams(f"freq_hz must be finite and >= 0, got {freq_hz}")
    if freq_hz == 0.0 or params.force_amplitude == 0.0:
        return 0.0  # zero forcing, starts and stays at rest

    m, c, k, f0 = params.mass, params.damping, params.stiffness, params.force_amplitude
    w = 2.0 * math.pi * freq_hz
    dt = (1.0 / freq_hz) / steps_per_cycle
    n_steps = cycles * steps_per_cycle

    x, v = 0.0, 0.0
    xs = [0.0] * (n_steps + 1)
    sin = math.sin

    def acc(xi, vi, ti):
        return (f0 * sin(w * ti) - c * vi - k * xi) / m

    for i in range(n_steps):
        t = i * dt
        k1x, k1v = v, acc(x, v, t)
        k2x, k2v = v + 0.5 * dt * k1v, acc(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v, t + 0.5 * dt)
        k3x, k3v = v + 0.5 * dt * k2v, acc(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v, t + 0.5 * dt)
        k4x, k4v = v + dt * k3v, acc(x + dt * k3x, v + dt * k3v, t + dt)
        x += dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        xs[i + 1] = x

    xs = np.abs(np.array(xs))
    tail = xs[int(0.8 * len(xs)):]

    last = xs[-steps_per_cycle:]
    prev = xs[-2 * steps_per_cycle:-steps_per_cycle]
    m1, m2 = last.max(), prev.max()
    denom = max(m1, m2)
    if denom > 0.0 and abs(m1 - m2) / denom > 5e-3:
        raise NonConvergent(
            f"steady state not reached: last two cycle maxima differ by "
            f"{abs(m1 - m2) / denom:.2%}")

    # Parabolic refinement removes the O((w*dt)^2) sampling bias of the max.
    i = int(np.argmax(tail))
    if 0 < i < len(tail) - 1:
        y0, y1, y2 = tail[i - 1], tail[i], tail[i + 1]
        dd = y0 - 2.0 * y1 + y2
        if dd < 0.0:
            delta = 0.5 * (y0 - y2) / dd
            return float(y1 - 0.25 * (y0 - y2) * delta)
    return float(tail[i])
