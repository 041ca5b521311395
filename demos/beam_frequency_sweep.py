"""Walkthrough: harmonic response sweep of the tilted cantilever.

Runs the frequency-domain solve over [1, 200] Hz, prints where each output
channel peaks, and writes the ground-truth table that the surrogate trains on.
"""

import numpy as np

from fem_surrogate import beam, dataset, surrogate

spec = beam.default_spec()
damping = beam.default_damping(spec)
grid = beam.default_grid()

print(f"sweeping {len(grid)} frequencies on [{grid.values[0]}, {grid.values[-1]}] Hz "
      f"with damping alpha={damping[0]}, beta={damping[1]:.3e} s")
table = beam.frequency_sweep(spec, grid, damping)

outputs = table.outputs()
for c, name in enumerate(("ux_max", "uy_max", "uz_max")):
    y = outputs[:, c]
    peaks = surrogate.prominent_peak_indices(y)
    locs = ", ".join(f"{table.freq_hz[i]:.2f} Hz ({y[i]:.3e} m)" for i in peaks)
    print(f"  {name}: range [{y.min():.3e}, {y.max():.3e}] m; prominent peaks: {locs}")

out = "beam_sweep.csv"
dataset.write_csv(out, table.freq_hz, outputs)
print(f"\nwrote {out} ({len(table.freq_hz)} rows, schema freq_hz,ux_max,uy_max,uz_max)")

f1 = beam.natural_frequencies(spec, 50.0)[0]
print(f"first natural frequency {f1:.4f} Hz; the sweep peak sits at "
      f"{table.freq_hz[int(np.argmax(outputs[:, 1]))]:.4f} Hz in uy")
