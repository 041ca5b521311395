"""Walkthrough: train an oscillator surrogate and inspect the report.

Runs the first experiment at a fifth of the default epoch budget so it
finishes in about ten seconds; surrogate.EXPERIMENTS["example1"] holds the
full recipe, whose 20000 epochs roughly halve the reported errors.
"""

from fem_surrogate import mlp, oscillator as osc, surrogate

grid = osc.default_grid()
outputs, echo = surrogate.oscillator_truth(osc.DEFAULT_PARAMS, grid)
report = surrogate.run_experiment(
    "example1", grid.values, outputs, echo, surrogate.EXPERIMENTS["example1"]["layers"],
    mlp.TrainConfig(optimizer="adam", learning_rate=1e-3, batch_size=16,
                    epochs=4000, seed=surrogate.SPLIT_SEED),
    surrogate.TEST_FRACTION, record=False)

print(f"trained on {int((~report.is_test).sum())} points, "
      f"held out {int(report.is_test.sum())}")
print(f"final train MSE (scaled space): {report.train_mse_scaled:.3e}")
print(f"final test  MSE (scaled space): {report.test_mse_scaled:.3e}")
print(f"test relative RMSE (physical):  {report.rel_rmse_test[0]:.4f}")
print(f"  excluding the 3 points nearest the resonance: "
      f"{report.rel_rmse_test_offpeak:.4f}")

true_f = report.freq_hz[report.true_peaks[0][0]]
pred_f = report.freq_hz[report.pred_peaks[0][0]]
print(f"resonance location: solver {true_f:.4f} Hz, surrogate {pred_f:.4f} Hz")

out9, extrapolated = surrogate.predict(report.model, 9.0)
print(f"surrogate at 9 Hz: {out9[0]:.5e} m "
      f"(solver: {osc.amplitude(osc.DEFAULT_PARAMS, 9.0):.5e} m)")

report.write_curves_csv("oscillator_surrogate_curves.csv")
report.write_metrics("oscillator_surrogate_metrics.txt")
report.write_svg("oscillator_surrogate.svg")
print("wrote oscillator_surrogate_curves.csv / _metrics.txt / .svg")
