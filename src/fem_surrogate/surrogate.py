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
from scipy.signal import find_peaks

from . import beam as beam_mod
from . import dataset, mlp
from . import oscillator as osc_mod
from .errors import ModelNotTrained
from .svgplot import plot_curves

PEAK_PROMINENCE_FACTOR = 3.0  # prominent = prominence above 3x channel median

EXAMPLE1_LAYERS = [1, 100, 100, 1]
EXAMPLE2_LAYERS = [1, 200, 200, 3]


# Plain SGD plateaus at the curve mean on the sharp-resonance target (any
# stable learning rate), so both pipelines default to Adam.
def example1_train_config(seed: int = 42) -> mlp.TrainConfig:
    return mlp.TrainConfig(optimizer="adam", learning_rate=1e-3, batch_size=16,
                           epochs=20000, seed=seed)


def example2_train_config(seed: int = 42) -> mlp.TrainConfig:
    return mlp.TrainConfig(optimizer="adam", learning_rate=1e-3, batch_size=16,
                           epochs=10000, seed=seed)


@dataclass
class SurrogateModel:
    """Trained net plus the scalers that make its predictions physical."""

    net: mlp.Mlp | None
    input_scaler: dataset.Scaler | None
    target_scaler: dataset.Scaler | None
    meta: dict = field(default_factory=dict)


def predict(model: SurrogateModel, freq_hz: float) -> tuple[np.ndarray, bool]:
    """Physical-unit outputs at one frequency, plus an extrapolation flag
    set when the frequency lies outside the trained grid range."""
    if model.net is None or model.input_scaler is None or model.target_scaler is None:
        raise ModelNotTrained("model is missing a trained net or its scalers")
    out = predict_batch(model, np.array([freq_hz]))[0]
    extrapolated = False
    sc = model.input_scaler
    if sc.scheme == dataset.LINEAR_MINMAX:
        extrapolated = not (sc.col_min[0] <= freq_hz <= sc.col_max[0])
    return out, extrapolated


def predict_batch(model: SurrogateModel, freqs: np.ndarray) -> np.ndarray:
    if model.net is None or model.input_scaler is None or model.target_scaler is None:
        raise ModelNotTrained("model is missing a trained net or its scalers")
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
        names = (["amplitude"] if self.n_channels == 1
                 else ["ux_max", "uy_max", "uz_max"][: self.n_channels])
        plot_curves(path, self.freq_hz, self.true_outputs, self.pred_outputs,
                    self.is_test, names,
                    title=f"{self.experiment}: surrogate vs solver")


def prominent_peak_indices(y: np.ndarray,
                           factor: float = PEAK_PROMINENCE_FACTOR) -> np.ndarray:
    """Interior local maxima whose prominence exceeds factor x median(y)."""
    idx, _ = find_peaks(y, prominence=factor * float(np.median(y)))
    return idx


def local_max_indices(y: np.ndarray) -> np.ndarray:
    idx, _ = find_peaks(y)
    return idx


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
    """A trained surrogate (meta left to the caller), its loss history, the
    held-out sample indices, and the final scaled-space MSEs."""

    model: SurrogateModel
    history: mlp.TrainHistory
    test_idx: np.ndarray
    train_mse_scaled: float
    test_mse_scaled: float


def fit_surrogate(freqs, outputs, layer_sizes, train_config: mlp.TrainConfig,
                  split_seed: int, test_fraction: float, target_scheme: str) -> Fit:
    """Split -> fit both scalers on the train part only -> init and train
    the net -> final train/test MSE in scaled space."""
    train_idx, test_idx = dataset.split(len(freqs), test_fraction, split_seed)
    f_train, y_train = freqs[train_idx], outputs[train_idx]
    input_scaler = dataset.scale_fit(f_train, dataset.LINEAR_MINMAX)
    target_scaler = dataset.scale_fit(y_train, target_scheme)
    data = mlp.TrainSplit(
        x_train=dataset.scale_apply(input_scaler, f_train),
        y_train=dataset.scale_apply(target_scaler, y_train),
        x_test=dataset.scale_apply(input_scaler, freqs[test_idx]),
        y_test=dataset.scale_apply(target_scaler, outputs[test_idx]),
    )
    net = mlp.init(layer_sizes, train_config.seed)
    net, history = mlp.train(net, data, train_config)
    return Fit(SurrogateModel(net, input_scaler, target_scaler), history, test_idx,
               train_mse_scaled=mlp.mse(mlp.forward(net, data.x_train), data.y_train),
               test_mse_scaled=mlp.mse(mlp.forward(net, data.x_test), data.y_test))


def _run_pipeline(experiment, freqs, true_out, layer_sizes, train_config,
                  split_seed, test_fraction, target_scheme, config_echo):
    fit = fit_surrogate(freqs, true_out, layer_sizes, train_config, split_seed,
                        test_fraction, target_scheme)
    model = fit.model
    model.meta = {"experiment": experiment, "freq_min_hz": float(freqs[0]),
                  "freq_max_hz": float(freqs[-1])}
    pred_out = predict_batch(model, freqs)
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
        config=config_echo,
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
        model=model,
        history=fit.history,
    )


def run_example1(osc: osc_mod.OscillatorParams | None = None,
                 grid: osc_mod.FrequencyGrid | None = None,
                 train_config: mlp.TrainConfig | None = None,
                 split_seed: int = 42,
                 layer_sizes=None,
                 test_fraction: float = 0.2) -> ExperimentReport:
    """Oscillator pipeline: analytic sweep -> split -> scale -> train a
    1-100-100-1 net -> report."""
    osc = osc or osc_mod.DEFAULT_PARAMS
    grid = grid or osc_mod.default_grid()
    cfg = train_config or example1_train_config()
    layers = list(layer_sizes) if layer_sizes else EXAMPLE1_LAYERS

    outputs = osc_mod.sweep_oscillator(osc, grid)
    echo = {
        "experiment": "example1",
        "mass": osc.mass, "damping": osc.damping,
        "stiffness": osc.stiffness, "force_amplitude": osc.force_amplitude,
        "grid_start_hz": float(grid.values[0]), "grid_stop_hz": float(grid.values[-1]),
        "grid_points": len(grid),
        "test_fraction": test_fraction, "split_seed": split_seed,
        "architecture": layers,
        "optimizer": cfg.optimizer, "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size, "epochs": cfg.epochs, "train_seed": cfg.seed,
        "input_scaling": dataset.LINEAR_MINMAX, "target_scaling": dataset.LOG10,
    }
    return _run_pipeline("example1", grid.values, outputs, layers, cfg, split_seed,
                         test_fraction, dataset.LOG10, echo)


def run_example2(spec: beam_mod.BeamSpec | None = None,
                 grid: osc_mod.FrequencyGrid | None = None,
                 damping: tuple[float, float] | None = None,
                 train_config: mlp.TrainConfig | None = None,
                 split_seed: int = 42,
                 layer_sizes=None,
                 test_fraction: float = 0.2) -> ExperimentReport:
    """Beam pipeline: FEM frequency sweep -> split -> log10-scaled targets ->
    Adam-trained 1-200-200-3 net -> report."""
    spec = spec or beam_mod.default_spec()
    grid = grid or beam_mod.default_grid()
    cfg = train_config or example2_train_config()
    layers = list(layer_sizes) if layer_sizes else EXAMPLE2_LAYERS
    if damping is None:
        damping = beam_mod.default_damping(spec)

    outputs = beam_mod.frequency_sweep(spec, grid, damping).outputs()
    echo = {
        "experiment": "example2",
        "length": spec.length,
        "width": spec.section.width, "height": spec.section.height,
        "youngs_modulus": spec.material.youngs_modulus,
        "poisson_ratio": spec.material.poisson_ratio,
        "density": spec.material.density,
        "n_elements": spec.n_elements,
        "axis_direction": [float(v) for v in spec.axis_direction],
        "tip_load": [float(v) for v in spec.tip_load],
        "alpha": damping[0], "beta": damping[1],
        "grid_start_hz": float(grid.values[0]), "grid_stop_hz": float(grid.values[-1]),
        "grid_points": len(grid),
        "test_fraction": test_fraction, "split_seed": split_seed,
        "architecture": layers,
        "optimizer": cfg.optimizer, "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size, "epochs": cfg.epochs, "train_seed": cfg.seed,
        "input_scaling": dataset.LINEAR_MINMAX, "target_scaling": dataset.LOG10,
    }
    return _run_pipeline("example2", grid.values, outputs, layers, cfg, split_seed,
                         test_fraction, dataset.LOG10, echo)
