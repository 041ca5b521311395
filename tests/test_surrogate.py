import xml.etree.ElementTree as ET

import numpy as np
import numpy.testing as npt
import pytest
from scipy.signal import find_peaks

from fem_surrogate.errors import NanLoss
from fem_surrogate import beam, dataset, mlp, surrogate
from fem_surrogate import oscillator as osc


# Small, fast pipeline configurations; the default-scale runs live in the
# acceptance suite.

def small_example1(seed=42, epochs=400):
    return surrogate.run_example1(
        grid=osc.FrequencyGrid.uniform(0.1, 10.0, 50),
        train_config=mlp.TrainConfig(optimizer="adam", learning_rate=3e-3,
                                     batch_size=8, epochs=epochs, seed=seed),
        split_seed=seed,
        layer_sizes=[1, 16, 16, 1])


@pytest.fixture(scope="module")
def report1():
    return small_example1()


def test_report_structure(report1):
    rep = report1
    assert rep.experiment == "example1"
    assert rep.freq_hz.shape == (50,)
    assert rep.true_outputs.shape == (50, 1)
    assert rep.pred_outputs.shape == (50, 1)
    assert rep.is_test.sum() == 10  # round(0.2 * 50)
    assert rep.train_mse_scaled >= 0.0 and np.isfinite(rep.test_mse_scaled)
    for idx in rep.true_peaks + rep.pred_peaks:
        for i in idx:
            assert rep.freq_hz[0] <= rep.freq_hz[i] <= rep.freq_hz[-1]


def test_report_truth_matches_solver(report1):
    rep = report1
    expected = [osc.amplitude(osc.DEFAULT_PARAMS, f) for f in rep.freq_hz]
    npt.assert_allclose(rep.true_outputs[:, 0], expected, rtol=1e-15)


def test_pipeline_deterministic_artifacts(tmp_path, report1):
    rep2 = small_example1()
    a_curves, b_curves = tmp_path / "a.csv", tmp_path / "b.csv"
    a_metrics, b_metrics = tmp_path / "a.txt", tmp_path / "b.txt"
    report1.write_curves_csv(a_curves)
    rep2.write_curves_csv(b_curves)
    report1.write_metrics(a_metrics)
    rep2.write_metrics(b_metrics)
    assert a_curves.read_bytes() == b_curves.read_bytes()
    assert a_metrics.read_bytes() == b_metrics.read_bytes()


def test_different_seed_changes_model():
    rep_b = small_example1(seed=43, epochs=50)
    rep_c = small_example1(seed=44, epochs=50)
    assert rep_b.train_mse_scaled != rep_c.train_mse_scaled


def test_no_leakage_from_test_targets():
    grid = osc.FrequencyGrid.uniform(0.1, 10.0, 40)
    outputs = osc.sweep_oscillator(osc.DEFAULT_PARAMS, grid)
    split_seed = 5
    _, test_idx = dataset.split(len(grid), 0.2, split_seed)
    perturbed = outputs.copy()
    perturbed[test_idx] *= 3.0

    train_cfg = mlp.TrainConfig(optimizer="adam", learning_rate=1e-3,
                                batch_size=8, epochs=40, seed=5)
    rep_a = surrogate._run_pipeline("example1", grid.values, outputs, [1, 8, 1],
                                    train_cfg, split_seed, 0.2, {})
    rep_b = surrogate._run_pipeline("example1", grid.values, perturbed, [1, 8, 1],
                                    train_cfg, split_seed, 0.2, {})
    # scaler parameters and trained weights depend on the train partition only
    assert rep_a.model.target_scaler.to_dict() == rep_b.model.target_scaler.to_dict()
    for wa, wb in zip(rep_a.model.net.weights, rep_b.model.net.weights):
        npt.assert_array_equal(wa, wb)
    assert rep_a.test_mse_scaled != rep_b.test_mse_scaled


def test_fit_surrogate_rejects_non_finite_final_mse(monkeypatch):
    # finite parameters whose outputs overflow the squared error
    init = mlp.init

    def huge_output(layer_sizes, seed):
        net = init(layer_sizes, seed)
        net.biases[-1][:] = 1e200
        return net

    monkeypatch.setattr(mlp, "init", huge_output)
    grid = osc.FrequencyGrid.uniform(0.1, 10.0, 20)
    cfg = mlp.TrainConfig(epochs=0, seed=1)
    with pytest.raises(NanLoss, match="final"):
        surrogate.fit_surrogate("example1", grid.values,
                                osc.sweep_oscillator(osc.DEFAULT_PARAMS, grid),
                                [1, 4, 1], cfg, 1, 0.2, record=False)


def test_predict_roundtrip_and_extrapolation_flag(report1):
    model = report1.model
    out, extrapolated = surrogate.predict(model, 5.0)
    assert out.shape == (1,) and out[0] > 0.0 and not extrapolated
    out_lo, flag_lo = surrogate.predict(model, 0.01)
    assert flag_lo and np.isfinite(out_lo[0]) and out_lo[0] > 0.0
    _, flag_hi = surrogate.predict(model, 11.0)
    assert flag_hi
    # boundary frequencies are in range
    for f in (report1.model.input_scaler.col_min[0],
              report1.model.input_scaler.col_max[0]):
        _, flag = surrogate.predict(model, float(f))
        assert not flag


def test_predict_at_training_point_close_to_target(report1):
    rep = report1
    train_idx = np.flatnonzero(~rep.is_test)
    resid = np.abs(rep.pred_outputs[train_idx, 0] - rep.true_outputs[train_idx, 0])
    i = train_idx[5]
    out, _ = surrogate.predict(rep.model, float(rep.freq_hz[i]))
    assert abs(out[0] - rep.true_outputs[i, 0]) <= max(resid.max() * 1.5, 1e-12)


def test_meta_range_is_the_extrapolation_range():
    # split seed 7 holds out the first of the 50 grid points, so the trained
    # range starts at the second
    _, test_idx = dataset.split(50, 0.2, 7)
    assert test_idx[0] == 0
    rep = small_example1(seed=7, epochs=5)
    meta, sc = rep.model.meta, rep.model.input_scaler
    assert (meta["freq_min_hz"], meta["freq_max_hz"]) == (sc.col_min[0], sc.col_max[0])
    assert meta["freq_min_hz"] == rep.freq_hz[1]
    for f in (meta["freq_min_hz"], meta["freq_max_hz"]):
        assert not surrogate.predict(rep.model, f)[1]
    assert surrogate.predict(rep.model, float(rep.freq_hz[0]))[1]


def test_model_file_round_trip_preserves_predictions(tmp_path, report1):
    model = report1.model
    path = tmp_path / "model.json"
    mlp.save_model(model.net, model.input_scaler, model.target_scaler, path,
                   meta=model.meta)
    net2, in2, out2, meta2 = mlp.load_model(path)
    model2 = surrogate.SurrogateModel(net2, in2, out2, meta2)
    freqs = np.linspace(0.1, 10.0, 23)
    npt.assert_array_equal(surrogate.predict_batch(model, freqs),
                           surrogate.predict_batch(model2, freqs))


def test_peak_matching_logic():
    assert surrogate.peaks_matched(np.array([]), np.array([]))
    assert not surrogate.peaks_matched(np.array([5]), np.array([]))
    assert surrogate.peaks_matched(np.array([5]), np.array([6]))
    assert surrogate.peaks_matched(np.array([5, 20]), np.array([4, 21, 30]))
    assert not surrogate.peaks_matched(np.array([5, 20]), np.array([4]))


def test_prominent_peaks_filter_noise():
    x = np.linspace(0.0, 10.0, 201)
    y = np.full_like(x, 1.0) + 0.01 * np.sin(40.0 * x)
    y[60] = 30.0  # one genuine resonance spike
    idx = surrogate.prominent_peak_indices(y)
    assert list(idx) == [60]
    assert len(surrogate.local_max_indices(y)) > 1


def _example2_true_channels():
    spec = beam.default_spec()
    table = beam.frequency_sweep(spec, beam.default_grid(), beam.default_damping(spec))
    return [table[:, c] for c in range(3)]


PEAK_ORACLE_CURVES = {
    "random": lambda: [np.random.default_rng(n).random(n) for n in range(0, 60, 3)],
    "integer": lambda: [np.random.default_rng(n).integers(0, 4, n).astype(float)
                        for n in range(3, 60)],
    "oscillating": lambda: [np.abs(np.sin(np.linspace(0.0, 25.0, n)))
                            + 0.01 * np.random.default_rng(n).random(n) for n in (40, 59)],
    "short_flat_and_edges": lambda: [np.array(y, dtype=float) for y in (
        [1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0, 1.0], [2.0, 1.0, 2.0],
        [3.0, 3.0, 3.0, 3.0, 3.0],
        [5.0, 5.0, 1.0, 4.0, 2.0, 3.0, 3.0],
        [1.0, 4.0, 4.0, 4.0, 2.0, 6.0, 6.0, 1.0])],
    "example2_true": _example2_true_channels,
}


@pytest.mark.parametrize("kind", PEAK_ORACLE_CURVES)
def test_peak_finder_matches_scipy_find_peaks(kind):
    for y in PEAK_ORACLE_CURVES[kind]():
        npt.assert_array_equal(surrogate.local_max_indices(y), find_peaks(y)[0])
        if len(y):
            npt.assert_array_equal(
                surrogate.prominent_peak_indices(y),
                find_peaks(y, prominence=surrogate.PEAK_PROMINENCE_FACTOR
                           * float(np.median(y)))[0])


def test_curves_csv_layout(tmp_path, report1):
    path = tmp_path / "curves.csv"
    report1.write_curves_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,true_1,pred_1,is_test"
    assert len(lines) == 51
    row = lines[1].split(",")
    assert len(row) == 4 and row[3] in ("0", "1")
    assert float(row[0]) == report1.freq_hz[0]


def test_metrics_file_contents(tmp_path, report1):
    path = tmp_path / "metrics.txt"
    report1.write_metrics(path)
    kv = dict(line.split("=", 1) for line in path.read_text().splitlines())
    assert kv["experiment"] == "example1"
    assert "test_rel_rmse_offpeak" in kv
    assert float(kv["final_train_mse_scaled"]) == report1.train_mse_scaled
    assert kv["optimizer"] == "adam"
    assert "true_peaks_1" in kv and "pred_peaks_1" in kv and "peak_match_1" in kv


def test_svg_plot_structure(tmp_path, report1):
    path = tmp_path / "plot.svg"
    report1.write_svg(path)
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//s:polyline", ns)
    assert len(polylines) == 2  # one true + one predicted curve per channel
    circles = root.findall(".//s:circle", ns)
    assert len(circles) == int(report1.is_test.sum())


def test_example2_small_pipeline_and_svg(tmp_path):
    spec = beam.BeamSpec(length=1.0, section=beam.CrossSection(0.03, 0.02),
                         material=beam.STEEL, n_elements=8,
                         axis_direction=np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
                         tip_load=np.array([0.0, 10.0, 10.0]))
    rep = surrogate.run_example2(
        spec=spec,
        grid=osc.FrequencyGrid.uniform(1.0, 120.0, 60),
        damping=None,
        train_config=mlp.TrainConfig(optimizer="adam", learning_rate=3e-3,
                                     batch_size=8, epochs=300, seed=42),
        layer_sizes=[1, 24, 24, 3])
    assert rep.true_outputs.shape == (60, 3)
    assert rep.config["target_scaling"] == "log10"
    assert rep.config["alpha"] == 0.0 and rep.config["beta"] > 0.0
    path = tmp_path / "beam.svg"
    rep.write_svg(path)
    root = ET.fromstring(path.read_text())
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall(".//s:polyline", ns)) == 6  # 3 channels x 2 curves
    header = (tmp_path / "c.csv")
    rep.write_curves_csv(header)
    assert header.read_text().splitlines()[0] == \
        "freq_hz,true_1,true_2,true_3,pred_1,pred_2,pred_3,is_test"
