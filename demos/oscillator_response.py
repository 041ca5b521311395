"""Walkthrough: closed-form oscillator response.

Computes the steady-state amplitude curve of the default driven oscillator,
locates the resonance, and writes the sweep.
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

out = "oscillator_sweep.csv"
dataset.write_csv(out, grid.values, amps[:, None])
print(f"\nwrote {out} ({len(grid)} rows, schema freq_hz,amplitude)")
