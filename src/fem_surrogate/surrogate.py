"""End-to-end pipelines: generate ground truth, split, scale, train an MLP
surrogate, and compare its predictions against the solver on the full grid.

Experiment 1: analytic oscillator, one input (frequency) / one output
(amplitude), net 1-100-100-1.
Experiment 2: 3D beam sweep, one input / three outputs (per-axis maximum
displacement), net 1-200-200-3.

Both scale the frequency input to [0, 1] and the targets by log10: amplitude
spans two-plus decades across the resonance in experiment 1 and about four in
experiment 2, and a relative-error-ish loss is what makes the off-resonance
tails fit.
"""

from dataclasses import dataclass

import numpy as np

from . import beam as beam_mod
from . import dataset, mlp
from . import oscillator as osc_mod
from .errors import TrainingError
from .svgplot import plot_curves

PEAK_PROMINENCE_FACTOR = 3.0  # prominent = prominence above 3x channel median
PEAK_TOL_STEPS = 1  # a predicted peak matches a true one within 1 grid step

# The two experiments: layer sizes, whose last entry is the output count,
# and epochs.  Both train with mlp.TrainConfig's defaults (Adam, lr 1e-3,
# batch 16).  Measured at seed 42 and 1 BLAS thread, plain SGD at lr 0.1
# beat Adam on example 1 at 2,000 epochs (scaled test MSE 6.3e-4 against
# 1.8e-3, peak matched) and trailed it on example 2 at 500 (4.6e-2 against
# 1.8e-2, no peak matched); at lr 0.3 it diverged on both.
EXPERIMENTS = {
    "example1": {"layers": [1, 100, 100, 1], "epochs": 20000},
    "example2": {"layers": [1, 200, 200, 3], "epochs": 10000},
}
EXAMPLE2_LAYERS = EXPERIMENTS["example2"]["layers"]

# Shared by both experiments: one seed for split, init and shuffling, the
# held-out share, and the target scaling.
SPLIT_SEED = 42
TEST_FRACTION = 0.2
TARGET_SCALING = dataset.LOG10


@dataclass
class SurrogateModel:
    """Trained net plus the scalers that make its predictions physical.
    meta names the experiment, the trained frequency range (the input
    scaler's, so the extrapolation range of predict) and the seed."""

    net: mlp.Mlp
    input_scaler: dataset.Scaler
    target_scaler: dataset.Scaler
    meta: dict


def predict(model: SurrogateModel, freq_hz: float) -> tuple[np.ndarray, bool]:
    """Physical-unit outputs at one frequency, plus an extrapolation flag
    set when the frequency lies outside the trained grid range."""
    out = predict_batch(model, np.array([freq_hz]))[0]
    extrapolated = False
    sc = model.input_scaler
    if sc.scheme == dataset.LINEAR_MINMAX:
        extrapolated = not (sc.col_min[0] <= freq_hz <= sc.col_max[0])
    return out, extrapolated


def predict_batch(model: SurrogateModel, freqs: np.ndarray) -> np.ndarray:
    x = dataset.scale_apply(model.input_scaler, np.asarray(freqs, dtype=float))
    y = mlp.forward(model.net, x)
    return dataset.scale_invert(model.target_scaler, y)


@dataclass
class ExperimentReport:
    """Predicted-vs-true curves on the full grid plus summary metrics.

    MSE values live in scaled space; the per-channel relative RMSE
    ||pred - true|| / ||true|| is computed on test points after inverse
    scaling, in physical units.  config["experiment"] names the experiment.
    """

    config: dict
    freq_hz: np.ndarray
    true_outputs: np.ndarray        # (n, k) physical units
    pred_outputs: np.ndarray        # (n, k)
    is_test: np.ndarray             # (n,) bool
    train_mse_scaled: float
    test_mse_scaled: float
    rel_rmse_test: np.ndarray       # (k,)
    rel_rmse_test_offpeak: float | None
    true_peaks: list[np.ndarray]    # per channel, grid indices
    pred_peaks: list[np.ndarray]
    peak_match: list[bool]
    model: SurrogateModel
    history: mlp.TrainHistory

    @property
    def n_channels(self) -> int:
        return self.true_outputs.shape[1]

    def metrics(self) -> dict:
        out = dict(self.config)
        out["final_train_mse_scaled"] = self.train_mse_scaled
        out["final_test_mse_scaled"] = self.test_mse_scaled
        for c in range(self.n_channels):
            out[f"test_rel_rmse_{c + 1}"] = float(self.rel_rmse_test[c])
        if self.rel_rmse_test_offpeak is not None:
            out["test_rel_rmse_offpeak"] = self.rel_rmse_test_offpeak
        for c in range(self.n_channels):
            out[f"true_peaks_{c + 1}"] = [float(self.freq_hz[i]) for i in self.true_peaks[c]]
            out[f"pred_peaks_{c + 1}"] = [float(self.freq_hz[i]) for i in self.pred_peaks[c]]
            out[f"peak_match_{c + 1}"] = int(self.peak_match[c])
        out["peak_match_all"] = int(all(self.peak_match))
        return out

    def write_curves_csv(self, path) -> None:
        k = self.n_channels
        header = ["freq_hz"] + [f"true_{c + 1}" for c in range(k)] \
            + [f"pred_{c + 1}" for c in range(k)] + ["is_test"]
        dataset.write_rows(path, header, np.column_stack(
            [self.freq_hz, self.true_outputs, self.pred_outputs, self.is_test]))

    def write_metrics(self, path) -> None:
        lines = []
        for key, val in self.metrics().items():
            if isinstance(val, float):
                txt = "%.17g" % val
            elif isinstance(val, (list, tuple, np.ndarray)):
                txt = ";".join("%.17g" % v for v in val)
            else:
                txt = str(val)
            lines.append(f"{key}={txt}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_svg(self, path) -> None:
        plot_curves(path, self.freq_hz, self.true_outputs, self.pred_outputs,
                    self.is_test, dataset.channel_names(self.n_channels),
                    title=f"{self.config['experiment']}: surrogate vs solver")


def local_max_indices(y: np.ndarray) -> np.ndarray:
    """Interior local maxima, with scipy.signal.find_peaks' plateau rule: a
    run of equal values counts once, at (left_edge + right_edge) // 2, and
    only if the values on both sides of the run are lower."""
    y = np.asarray(y, dtype=float)
    first = np.ones(len(y), dtype=bool)
    first[1:] = y[1:] != y[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(y)) - 1
    top = y[starts]
    peak = np.flatnonzero((top[1:-1] > top[:-2]) & (top[1:-1] > top[2:])) + 1
    return (starts[peak] + ends[peak]) // 2


def prominent_peak_indices(y: np.ndarray) -> np.ndarray:
    """Local maxima whose topographic prominence is at least
    PEAK_PROMINENCE_FACTOR x median(y). A peak's prominence is its height
    over the higher of the two minima reached by walking each way until the
    curve rises above it (scipy.signal.peak_prominences with no window)."""
    y = np.asarray(y, dtype=float)
    peaks = local_max_indices(y)
    threshold = PEAK_PROMINENCE_FACTOR * float(np.median(y))
    keep = np.zeros(len(peaks), dtype=bool)
    for k, p in enumerate(peaks):
        above = y > y[p]
        left = np.flatnonzero(above[:p])
        right = np.flatnonzero(above[p:])
        left_min = y[left[-1] + 1 if len(left) else 0: p + 1].min()
        right_min = y[p: p + right[0] if len(right) else len(y)].min()
        keep[k] = threshold <= y[p] - max(left_min, right_min)
    return peaks[keep]


def peaks_matched(true_idx, pred_idx) -> bool:
    """Every true peak has a predicted local maximum within PEAK_TOL_STEPS
    grid steps."""
    if len(true_idx) == 0:
        return True
    if len(pred_idx) == 0:
        return False
    pred = np.asarray(pred_idx)
    return all(np.abs(pred - t).min() <= PEAK_TOL_STEPS for t in true_idx)


def _metrics_test_rmse(true_out, pred_out, is_test) -> np.ndarray:
    t = true_out[is_test]
    p = pred_out[is_test]
    norm = np.sqrt((t ** 2).mean(axis=0))
    err = np.sqrt(((p - t) ** 2).mean(axis=0))
    return err / np.where(norm > 0.0, norm, 1.0)


@dataclass
class Fit:
    """A trained surrogate, its loss history, the held-out sample indices,
    and the final scaled-space MSEs."""

    model: SurrogateModel
    history: mlp.TrainHistory
    test_idx: np.ndarray
    train_mse_scaled: float
    test_mse_scaled: float


def fit_surrogate(experiment: str, freqs, outputs, layer_sizes, train_config: mlp.TrainConfig,
                  test_fraction: float, record: bool) -> Fit:
    """Split -> fit both scalers on the train part only -> init and train
    the net -> final train/test MSE in scaled space.  train_config.seed
    seeds the split as well as the init and the shuffling.  record asks
    mlp.train for the per-epoch loss history; the model and the final MSEs
    do not depend on it.  Raises TrainingError if a final MSE is not finite."""
    train_idx, test_idx = dataset.split(len(freqs), test_fraction, train_config.seed)
    f_train, y_train = freqs[train_idx], outputs[train_idx]
    input_scaler = dataset.scale_fit(f_train, dataset.LINEAR_MINMAX)
    target_scaler = dataset.scale_fit(y_train, TARGET_SCALING)
    data = mlp.TrainSplit(
        x_train=dataset.scale_apply(input_scaler, f_train),
        y_train=dataset.scale_apply(target_scaler, y_train),
        x_test=dataset.scale_apply(input_scaler, freqs[test_idx]),
        y_test=dataset.scale_apply(target_scaler, outputs[test_idx]),
    )
    net = mlp.init(layer_sizes, train_config.seed)
    net, history = mlp.train(net, data, train_config, record=record)
    # A finite theta still overflows the MSE once the outputs pass ~1e154.
    with np.errstate(over="ignore", invalid="ignore"):
        train_mse = mlp.mse(mlp.forward(net, data.x_train), data.y_train)
        test_mse = mlp.mse(mlp.forward(net, data.x_test), data.y_test)
    if not (np.isfinite(train_mse) and np.isfinite(test_mse)):
        raise TrainingError(f"final scaled MSE is not finite: train {train_mse}, test {test_mse}")
    # The input scaler is min-max over the train split: its ends are the
    # trained frequency range.
    meta = {"experiment": experiment, "freq_min_hz": float(input_scaler.col_min[0]),
            "freq_max_hz": float(input_scaler.col_max[0]), "seed": train_config.seed}
    return Fit(SurrogateModel(net, input_scaler, target_scaler, meta), history, test_idx,
               train_mse_scaled=train_mse, test_mse_scaled=test_mse)


def oscillator_truth(osc: osc_mod.OscillatorParams,
                     grid: osc_mod.FrequencyGrid) -> tuple[np.ndarray, dict]:
    """Experiment 1's ground truth: the (n, 1) amplitudes on grid and the
    oscillator settings the metrics list."""
    echo = {"mass": osc.mass, "damping": osc.damping,
            "stiffness": osc.stiffness, "force_amplitude": osc.force_amplitude}
    return osc_mod.sweep_oscillator(osc, grid), echo


def beam_truth(spec: beam_mod.BeamSpec, grid: osc_mod.FrequencyGrid,
               damping: tuple[float, float]) -> tuple[np.ndarray, dict]:
    """Experiment 2's ground truth: the (n, 3) per-axis displacement maxima
    of the FEM sweep on grid and the beam settings the metrics list."""
    echo = {
        "length": spec.length,
        "width": spec.section.width, "height": spec.section.height,
        "youngs_modulus": spec.material.youngs_modulus,
        "poisson_ratio": spec.material.poisson_ratio,
        "density": spec.material.density,
        "n_elements": spec.n_elements,
        "axis_direction": [float(v) for v in spec.axis_direction],
        "tip_load": [float(v) for v in spec.tip_load],
        "alpha": damping[0], "beta": damping[1],
    }
    return beam_mod.frequency_sweep(spec, grid, damping), echo


def run_experiment(experiment: str, freqs, outputs, echo: dict, layer_sizes,
                   train_config: mlp.TrainConfig, test_fraction: float,
                   record: bool) -> ExperimentReport:
    """Train on (freqs, outputs) and report against them.  echo holds the
    physical settings (oscillator_truth's or beam_truth's), which the metrics
    list after the experiment and before the grid, split and training
    settings; record as in fit_surrogate."""
    fit = fit_surrogate(experiment, freqs, outputs, layer_sizes, train_config,
                        test_fraction, record)
    pred_out = predict_batch(fit.model, freqs)
    is_test = np.zeros(len(freqs), dtype=bool)
    is_test[fit.test_idx] = True
    rel_rmse = _metrics_test_rmse(outputs, pred_out, is_test)

    k = outputs.shape[1]
    if experiment == "example1":
        true_idx = [np.array([int(np.argmax(outputs[:, 0]))])]
        pred_idx = [np.array([int(np.argmax(pred_out[:, 0]))])]
        match = [abs(true_idx[0][0] - pred_idx[0][0]) <= PEAK_TOL_STEPS]
        # Relative error at a sharp resonance is hypersensitive to sub-grid
        # peak placement; report a second RMSE that skips the 3 grid points
        # nearest the peak.
        peak_f = float(freqs[true_idx[0][0]])
        nearest3 = set(np.argsort(np.abs(freqs - peak_f))[:3].tolist())
        keep = is_test & ~np.isin(np.arange(len(freqs)), list(nearest3))
        offpeak = float(_metrics_test_rmse(outputs, pred_out, keep)[0])
    else:
        true_idx = [prominent_peak_indices(outputs[:, c]) for c in range(k)]
        pred_idx = [local_max_indices(pred_out[:, c]) for c in range(k)]
        match = [peaks_matched(true_idx[c], pred_idx[c]) for c in range(k)]
        offpeak = None

    return ExperimentReport(
        config={
            "experiment": experiment, **echo,
            "grid_start_hz": float(freqs[0]), "grid_stop_hz": float(freqs[-1]),
            "grid_points": len(freqs),
            # one seed, listed under both of the metrics file's seed keys
            "test_fraction": test_fraction, "split_seed": train_config.seed,
            "architecture": list(layer_sizes),
            "optimizer": train_config.optimizer, "learning_rate": train_config.learning_rate,
            "batch_size": train_config.batch_size, "epochs": train_config.epochs,
            "train_seed": train_config.seed,
            "input_scaling": dataset.LINEAR_MINMAX, "target_scaling": TARGET_SCALING,
        },
        freq_hz=freqs,
        true_outputs=outputs,
        pred_outputs=pred_out,
        is_test=is_test,
        train_mse_scaled=fit.train_mse_scaled,
        test_mse_scaled=fit.test_mse_scaled,
        rel_rmse_test=rel_rmse,
        rel_rmse_test_offpeak=offpeak,
        true_peaks=true_idx,
        pred_peaks=pred_idx,
        peak_match=match,
        model=fit.model,
        history=fit.history,
    )
