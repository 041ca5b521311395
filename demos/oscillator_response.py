"""Walkthrough: closed-form oscillator response and its time-integration check.

Computes the steady-state amplitude curve of the default driven oscillator,
locates the resonance, and confirms a few points against the RK4 oracle.
"""

import numpy as np

from fem_surrogate import dataset, oscillator as osc

params = osc.DEFAULT_PARAMS
grid = osc.default_grid()

print(f"oscillator: m={params.mass} kg, c={params.damping} N*s/m, "
      f"k={params.stiffness} N/m, F0={params.force_amplitude} N")
print(f"natural frequency f0 = {params.omega0 / (2 * np.pi):.4f} Hz")
print(f"response peak at    f = {osc.peak_frequency_hz(params):.4f} Hz")

amps = osc.sweep_oscillator(params, grid)[:, 0]
i_max = int(np.argmax(amps))
print(f"\nsweep of {len(grid)} points on [{grid.values[0]}, {grid.values[-1]}] Hz")
print(f"max sampled amplitude {amps[i_max]:.5e} m at {grid.values[i_max]:.4f} Hz")
print(f"static limit F0/k = {params.force_amplitude / params.stiffness:.5e} m")

print("\ncross-checking the closed form against RK4 time integration:")
tau = 2.0 * params.mass / params.damping  # transient decay time, 10 s here
for f in (1.0, 4.0, float(grid.values[i_max]), 8.0):
    closed = osc.amplitude(params, f)
    # enough cycles that the discarded 80% covers ~12 decay times
    cycles = max(300, int(np.ceil(15.0 * tau * f)))
    integrated = osc.steady_state_oracle(params, f, cycles=cycles)
    print(f"  f = {f:7.4f} Hz ({cycles} cycles): closed {closed:.6e}  "
          f"integrated {integrated:.6e}  rel dev {abs(integrated - closed) / closed:.2e}")

out = "oscillator_sweep.csv"
dataset.write_csv(out, grid.values, amps[:, None])
print(f"\nwrote {out} ({len(grid)} rows, schema freq_hz,amplitude)")
