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

from dataclasses import dataclass, field

import numpy as np

from . import beam as beam_mod
from . import dataset, mlp
from . import oscillator as osc_mod
from .errors import NanLoss
from .svgplot import plot_curves

PEAK_PROMINENCE_FACTOR = 3.0  # prominent = prominence above 3x channel median

# The two experiments: layer sizes, whose last entry is the output count,
# and epochs.  Both train with mlp.TrainConfig's defaults (Adam, lr 1e-3,
# batch 16): plain SGD plateaus at the curve mean on the sharp-resonance
# target at any stable learning rate.
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
    scaler's, so the extrapolation range of predict) and the split seed."""

    net: mlp.Mlp
    input_scaler: dataset.Scaler
    target_scaler: dataset.Scaler
    meta: dict = field(default_factory=dict)


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
    scaling, in physical units.
    """

    experiment: str
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
                    title=f"{self.experiment}: surrogate vs solver")


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


def prominent_peak_indices(y: np.ndarray,
                           factor: float = PEAK_PROMINENCE_FACTOR) -> np.ndarray:
    """Local maxima whose topographic prominence is at least factor x
    median(y). A peak's prominence is its height over the higher of the two
    minima reached by walking each way until the curve rises above it
    (scipy.signal.peak_prominences with no window)."""
    y = np.asarray(y, dtype=float)
    peaks = local_max_indices(y)
    threshold = factor * float(np.median(y))
    keep = np.zeros(len(peaks), dtype=bool)
    for k, p in enumerate(peaks):
        above = y > y[p]
        left = np.flatnonzero(above[:p])
        right = np.flatnonzero(above[p:])
        left_min = y[left[-1] + 1 if len(left) else 0: p + 1].min()
        right_min = y[p: p + right[0] if len(right) else len(y)].min()
        keep[k] = threshold <= y[p] - max(left_min, right_min)
    return peaks[keep]


def peaks_matched(true_idx, pred_idx, tol_steps: int = 1) -> bool:
    """Every true peak has a predicted local maximum within tol_steps."""
    if len(true_idx) == 0:
        return True
    if len(pred_idx) == 0:
        return False
    pred = np.asarray(pred_idx)
    return all(np.abs(pred - t).min() <= tol_steps for t in true_idx)


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
                  split_seed: int, test_fraction: float, record: bool = True) -> Fit:
    """Split -> fit both scalers on the train part only -> init and train
    the net -> final train/test MSE in scaled space.  record asks mlp.train
    for the per-epoch loss history; the model and the final MSEs do not
    depend on it.  Raises NanLoss if a final MSE is not finite."""
    train_idx, test_idx = dataset.split(len(freqs), test_fraction, split_seed)
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
        raise NanLoss(f"final scaled MSE is not finite: train {train_mse}, test {test_mse}")
    # The input scaler is min-max over the train split: its ends are the
    # trained frequency range.
    meta = {"experiment": experiment, "freq_min_hz": float(input_scaler.col_min[0]),
            "freq_max_hz": float(input_scaler.col_max[0]), "seed": split_seed}
    return Fit(SurrogateModel(net, input_scaler, target_scaler, meta), history, test_idx,
               train_mse_scaled=train_mse, test_mse_scaled=test_mse)


def _run_pipeline(experiment, freqs, true_out, layer_sizes, train_config,
                  split_seed, test_fraction, setup_echo, record=True):
    """Train on (freqs, true_out) and report against it.  None for
    layer_sizes or train_config takes the experiment's own; setup_echo holds
    the physical settings, which the metrics list after the experiment and
    before the grid, split and training settings."""
    layers = list(layer_sizes or EXPERIMENTS[experiment]["layers"])
    cfg = train_config or mlp.TrainConfig(epochs=EXPERIMENTS[experiment]["epochs"],
                                          seed=SPLIT_SEED)
    fit = fit_surrogate(experiment, freqs, true_out, layers, cfg, split_seed,
                        test_fraction, record)
    pred_out = predict_batch(fit.model, freqs)
    is_test = np.zeros(len(freqs), dtype=bool)
    is_test[fit.test_idx] = True
    rel_rmse = _metrics_test_rmse(true_out, pred_out, is_test)

    k = true_out.shape[1]
    if experiment == "example1":
        true_idx = [np.array([int(np.argmax(true_out[:, 0]))])]
        pred_idx = [np.array([int(np.argmax(pred_out[:, 0]))])]
        match = [abs(true_idx[0][0] - pred_idx[0][0]) <= 1]
        # Relative error at a sharp resonance is hypersensitive to sub-grid
        # peak placement; report a second RMSE that skips the 3 grid points
        # nearest the peak.
        peak_f = float(freqs[true_idx[0][0]])
        nearest3 = set(np.argsort(np.abs(freqs - peak_f))[:3].tolist())
        keep = is_test & ~np.isin(np.arange(len(freqs)), list(nearest3))
        offpeak = float(_metrics_test_rmse(true_out, pred_out, keep)[0])
    else:
        true_idx = [prominent_peak_indices(true_out[:, c]) for c in range(k)]
        pred_idx = [local_max_indices(pred_out[:, c]) for c in range(k)]
        match = [peaks_matched(true_idx[c], pred_idx[c]) for c in range(k)]
        offpeak = None

    return ExperimentReport(
        experiment=experiment,
        config={
            "experiment": experiment, **setup_echo,
            "grid_start_hz": float(freqs[0]), "grid_stop_hz": float(freqs[-1]),
            "grid_points": len(freqs),
            "test_fraction": test_fraction, "split_seed": split_seed,
            "architecture": layers,
            "optimizer": cfg.optimizer, "learning_rate": cfg.learning_rate,
            "batch_size": cfg.batch_size, "epochs": cfg.epochs, "train_seed": cfg.seed,
            "input_scaling": dataset.LINEAR_MINMAX, "target_scaling": TARGET_SCALING,
        },
        freq_hz=freqs,
        true_outputs=true_out,
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


def run_example1(osc: osc_mod.OscillatorParams | None = None,
                 grid: osc_mod.FrequencyGrid | None = None,
                 train_config: mlp.TrainConfig | None = None,
                 split_seed: int = SPLIT_SEED,
                 layer_sizes=None,
                 test_fraction: float = TEST_FRACTION,
                 record: bool = True) -> ExperimentReport:
    """Oscillator pipeline: analytic sweep -> split -> scale -> train a
    1-100-100-1 net -> report.  record as in fit_surrogate."""
    osc = osc or osc_mod.DEFAULT_PARAMS
    grid = grid or osc_mod.default_grid()
    echo = {"mass": osc.mass, "damping": osc.damping,
            "stiffness": osc.stiffness, "force_amplitude": osc.force_amplitude}
    return _run_pipeline("example1", grid.values, osc_mod.sweep_oscillator(osc, grid),
                         layer_sizes, train_config, split_seed, test_fraction, echo, record)


def run_example2(spec: beam_mod.BeamSpec | None = None,
                 grid: osc_mod.FrequencyGrid | None = None,
                 damping: tuple[float, float] | None = None,
                 train_config: mlp.TrainConfig | None = None,
                 split_seed: int = SPLIT_SEED,
                 layer_sizes=None,
                 test_fraction: float = TEST_FRACTION,
                 record: bool = True) -> ExperimentReport:
    """Beam pipeline: FEM frequency sweep -> split -> log10-scaled targets ->
    Adam-trained 1-200-200-3 net -> report.  record as in fit_surrogate."""
    spec = spec or beam_mod.default_spec()
    grid = grid or beam_mod.default_grid()
    if damping is None:
        damping = beam_mod.default_damping(spec)
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
    return _run_pipeline("example2", grid.values, beam_mod.frequency_sweep(spec, grid, damping),
                         layer_sizes, train_config, split_seed, test_fraction, echo, record)
