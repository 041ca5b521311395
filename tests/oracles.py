"""Independent oracles for the package's solvers, used by the tests only.

- steady_state_oracle: fixed-step RK4 time integration of the driven damped
  oscillator, a check of the closed-form oscillator.amplitude;
- grad_check: central finite differences of the MSE loss, a check of the
  analytic mlp.backward.

Each reaches its answer by another method than the code it checks.  They
raise plain ValueError on a bad argument and RuntimeError when the
integration has not settled.
"""

import math

import numpy as np

from fem_surrogate import mlp

# Central-difference step of grad_check.
GRAD_CHECK_STEP = 1e-6


def steady_state_oracle(params, freq_hz: float,
                        cycles: int = 200, steps_per_cycle: int = 200) -> float:
    """Integrate m x'' + c x' + k x = F0 sin(w t) from rest with classical
    fixed-step RK4, drop the first 80% of the window, and return the
    (parabolically refined) max |x| over the remainder.

    Raises RuntimeError when the last two cycles' maxima still differ by
    more than 0.5%.
    """
    if params.damping <= 0.0:
        raise ValueError("oracle requires damping > 0 so the transient decays")
    if cycles < 50:
        raise ValueError(f"cycles must be >= 50, got {cycles}")
    if steps_per_cycle < 100:
        raise ValueError(f"steps_per_cycle must be >= 100, got {steps_per_cycle}")
    if not (np.isfinite(freq_hz) and freq_hz >= 0.0):
        raise ValueError(f"freq_hz must be finite and >= 0, got {freq_hz}")
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
        raise RuntimeError(
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


def grad_check(net, x, targets) -> float:
    """Max relative deviation of mlp.backward() from central finite
    differences of step GRAD_CHECK_STEP over every parameter:
    |g_a - g_n| / max(1e-12, |g_a| + |g_n|)."""
    h = GRAD_CHECK_STEP
    x = np.asarray(x, dtype=float)
    t = np.asarray(targets, dtype=float)
    analytic = mlp.backward(net, x, t, mlp.Gradients(net)).flat

    theta = net.theta
    worst = 0.0
    for i in range(theta.size):
        keep = theta[i]
        theta[i] = keep + h
        up = mlp.mse(mlp.forward(net, x), t)
        theta[i] = keep - h
        down = mlp.mse(mlp.forward(net, x), t)
        theta[i] = keep
        numeric = (up - down) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1e-12, abs(analytic[i]) + abs(numeric))
        worst = max(worst, err)
    return worst
