"""Walkthrough: train a reduced beam surrogate and compare it to the solver.

Scaled down (coarser mesh, shorter grid, fewer epochs) to finish in well
under a minute; surrogate.EXPERIMENTS["example2"] holds the full-size
net and epochs, beam.default_spec() and beam.default_grid() the full-size
beam and grid.
"""

import numpy as np

from fem_surrogate import beam, mlp, oscillator as osc, surrogate

spec = beam.BeamSpec(length=1.0, section=beam.CrossSection(0.03, 0.02),
                     material=beam.STEEL, n_elements=10,
                     axis_direction=np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
                     tip_load=np.array([0.0, 10.0, 10.0]))
grid = osc.FrequencyGrid.uniform(1.0, 160.0, 200)
outputs, echo = surrogate.beam_truth(spec, grid, beam.default_damping(spec))

report = surrogate.run_experiment(
    "example2", grid.values, outputs, echo, [1, 96, 96, 3],
    mlp.TrainConfig(optimizer="adam", learning_rate=2e-3, batch_size=16,
                    epochs=5000, seed=surrogate.SPLIT_SEED),
    surrogate.TEST_FRACTION, record=False)

print(f"final train MSE (log space): {report.train_mse_scaled:.3e}")
print(f"final test  MSE (log space): {report.test_mse_scaled:.3e}")
for c, name in enumerate(("ux", "uy", "uz")):
    true_peaks = [f"{report.freq_hz[i]:.2f}" for i in report.true_peaks[c]]
    print(f"  {name}: rel RMSE {report.rel_rmse_test[c]:.4f}; solver peaks at "
          f"{true_peaks} Hz; matched by the surrogate: {report.peak_match[c]}")

pred9, _ = surrogate.predict(report.model, 9.0)
damping = (report.config["alpha"], report.config["beta"])
_, red = beam.reduced_system(spec, damping)
ref9 = beam.max_displacements(beam.harmonic_solve(red.kb, red.mb, red.cb, red.f, 9.0))
print("\nresponse at 9 Hz (m):")
for name, a, b in zip(("ux", "uy", "uz"), ref9, pred9):
    print(f"  {name}: solver {a:.5e}  surrogate {b:.5e}  rel dev {abs(b - a) / a:.2%}")

report.write_curves_csv("beam_surrogate_curves.csv")
report.write_metrics("beam_surrogate_metrics.txt")
report.write_svg("beam_surrogate.svg")
print("\nwrote beam_surrogate_curves.csv / _metrics.txt / .svg")
