import json
import math
import subprocess
import sys

import pytest
import scipy.linalg

from fem_surrogate import beam, cli, mlp, surrogate
from fem_surrogate import oscillator as osc


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "fem_surrogate", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def osc_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "osc.csv"
    res = run_cli("generate", "--experiment", "example1", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


@pytest.fixture(scope="module")
def beam_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "beam.csv"
    res = run_cli("generate", "--experiment", "example2", "--out", str(path),
                  "--grid-start", "1", "--grid-stop", "120", "--grid-points", "40",
                  "--n-elements", "8")
    assert res.returncode == 0, res.stderr
    return path


@pytest.fixture(scope="module")
def beam_model(tmp_path_factory, beam_csv):
    path = tmp_path_factory.mktemp("models") / "beam.model"
    res = run_cli("train", "--data", str(beam_csv), "--out-model", str(path),
                  "--experiment", "example2", "--hidden", "16,16",
                  "--epochs", "150", "--lr", "0.003", "--seed", "7")
    assert res.returncode == 0, res.stderr
    return path


# --- generate ----------------------------------------------------------------

def test_generate_example1_default_grid(osc_csv):
    lines = osc_csv.read_text().splitlines()
    assert lines[0] == "freq_hz,amplitude"
    assert len(lines) == 201  # header + 200 rows
    assert all(len(ln.split(",")) == 2 for ln in lines[1:])


def test_generate_example2_default_grid(tmp_path):
    path = tmp_path / "beam_default.csv"
    res = run_cli("generate", "--experiment", "example2", "--out", str(path))
    assert res.returncode == 0, res.stderr
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,ux_max,uy_max,uz_max"
    assert len(lines) == 401  # header + 400 rows
    assert all(len(ln.split(",")) == 4 for ln in lines[1:])
    assert "rows=400" in res.stdout


def test_generate_reports_rows_and_bounds(osc_csv, tmp_path):
    res = run_cli("generate", "--experiment", "example1",
                  "--out", str(tmp_path / "x.csv"),
                  "--grid-start", "1", "--grid-stop", "5", "--grid-points", "17")
    assert res.returncode == 0
    assert "rows=17" in res.stdout
    assert "f_min_hz=1" in res.stdout and "f_max_hz=5" in res.stdout


def test_generate_invalid_n_elements_exits_2(tmp_path):
    res = run_cli("generate", "--experiment", "example2",
                  "--out", str(tmp_path / "x.csv"), "--n-elements", "1")
    assert res.returncode == 2
    assert "n_elements" in res.stderr


def test_n_elements_bound_from_memory_model(tmp_path, capsys):
    # the bound is checked through its estimate; no such mesh is built
    top = beam.MAX_ELEMENTS
    assert beam.band_model_bytes(top) <= beam.MEMORY_BUDGET < beam.band_model_bytes(top + 1)
    spec = beam.default_spec()
    beam.BeamSpec(spec.length, spec.section, spec.material, top,
                  spec.axis_direction, spec.tip_load)
    out = tmp_path / "x.csv"
    assert cli.main(["generate", "--experiment", "example2", "--out", str(out),
                     "--n-elements", str(top + 1)]) == 2
    assert f"n_elements must be <= {top}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "eval", "predict"])
def test_grid_points_bound_from_memory_model(tmp_path, capsys, command, beam_model):
    top = cli.MAX_GRID_POINTS
    assert top * cli.GRID_POINT_BYTES <= beam.MEMORY_BUDGET < (top + 1) * cli.GRID_POINT_BYTES
    out = tmp_path / "x.csv"
    argv = {"generate": ["generate", "--experiment", "example1", "--out", str(out)],
            "eval": ["eval", "--experiment", "example2", "--out-dir", str(tmp_path)],
            "predict": ["predict", "--model", str(beam_model), "--out", str(out)]}[command]
    assert cli.main(argv + ["--grid-points", str(top + 1)]) == 2
    assert f"--grid-points must be <= {top}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_invalid_grid_exits_2(tmp_path):
    res = run_cli("generate", "--experiment", "example1",
                  "--out", str(tmp_path / "x.csv"),
                  "--grid-start", "5", "--grid-stop", "1", "--grid-points", "10")
    assert res.returncode == 2


def test_generate_unwritable_out_path_exits_2_before_solving(tmp_path):
    res = run_cli("generate", "--experiment", "example1",
                  "--out", str(tmp_path / "missing_dir" / "x.csv"))
    assert res.returncode == 2
    assert "output directory" in res.stderr


@pytest.mark.parametrize("command, flag", [
    ("generate", "--out"), ("train", "--out-model"), ("train", "--history"),
    ("predict", "--out"), ("eval", "--plot"), ("eval", "--history"),
])
def test_empty_out_path_exits_2_before_work(tmp_path, capsys, monkeypatch, osc_csv,
                                            beam_model, command, flag):
    # an empty path used to be skipped (eval), or to fail only after the work
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(osc, "sweep_oscillator", no_work)
    monkeypatch.setattr(mlp, "train", no_work)
    monkeypatch.setattr(surrogate, "predict_batch", no_work)
    argv = {
        "generate": ["generate", "--experiment", "example1", "--out", str(tmp_path / "x.csv")],
        "train": ["train", "--data", str(osc_csv), "--out-model", str(tmp_path / "m.json")],
        "predict": ["predict", "--model", str(beam_model), "--grid-points", "5",
                    "--out", str(tmp_path / "c.csv")],
        "eval": ["eval", "--experiment", "example1", "--out-dir", str(tmp_path)],
    }[command]
    assert cli.main(argv + [flag, ""]) == 2
    assert "output path must not be empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --- train -------------------------------------------------------------------

def test_train_writes_model_and_history(tmp_path, osc_csv):
    model = tmp_path / "osc.model"
    history = tmp_path / "hist.csv"
    res = run_cli("train", "--data", str(osc_csv), "--out-model", str(model),
                  "--history", str(history), "--hidden", "8,8",
                  "--epochs", "60", "--seed", "3")
    assert res.returncode == 0, res.stderr
    assert "final_train_mse_scaled=" in res.stdout
    assert "final_test_mse_scaled=" in res.stdout
    doc = json.loads(model.read_text())
    assert doc["layer_sizes"] == [1, 8, 8, 1]
    hist_lines = history.read_text().splitlines()
    assert hist_lines[0] == "epoch,train_mse,test_mse"
    assert len(hist_lines) == 61


def test_train_is_byte_deterministic(tmp_path, osc_csv):
    out = []
    for name in ("a.model", "b.model"):
        path = tmp_path / name
        res = run_cli("train", "--data", str(osc_csv), "--out-model", str(path),
                      "--hidden", "8", "--epochs", "40", "--seed", "7")
        assert res.returncode == 0, res.stderr
        out.append(path.read_bytes())
    assert out[0] == out[1]


def test_train_missing_data_exits_3(tmp_path):
    missing = tmp_path / "nope.csv"
    res = run_cli("train", "--data", str(missing),
                  "--out-model", str(tmp_path / "m.model"))
    assert res.returncode == 3
    assert "nope.csv" in res.stderr


def test_train_divergence_exits_4(tmp_path, osc_csv):
    res = run_cli("train", "--data", str(osc_csv),
                  "--out-model", str(tmp_path / "m.model"),
                  "--optimizer", "sgd", "--lr", "1e9", "--epochs", "30",
                  "--hidden", "8")
    assert res.returncode == 4
    assert "epoch" in res.stderr


def test_eval_non_finite_final_mse_exits_4_without_metrics(tmp_path, monkeypatch, capsys):
    # finite parameters, but outputs of 1e200 overflow the squared error
    init = mlp.init

    def huge_output(layer_sizes, seed):
        net = init(layer_sizes, seed)
        net.biases[-1][:] = 1e200
        return net

    monkeypatch.setattr(mlp, "init", huge_output)
    rc = cli.main(["eval", "--experiment", "example1", "--epochs", "0",
                   "--out-dir", str(tmp_path)])
    assert rc == 4
    assert "final" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-1e-3", "nan", "inf"])
def test_train_out_of_domain_row_exits_3(tmp_path, capsys, value):
    data = tmp_path / "bad.csv"
    rows = [f"{f},1e-3" for f in (1, 2, 3)] + [f"4,{value}", "5,1e-3"]
    data.write_text("freq_hz,amplitude\n" + "\n".join(rows) + "\n")
    rc = cli.main(["train", "--data", str(data), "--out-model", str(tmp_path / "m.model")])
    assert rc == 3
    assert "row 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_hidden_non_integer_exits_2(tmp_path, osc_csv, command):
    args = (["train", "--data", str(osc_csv), "--out-model", str(tmp_path / "m.model")]
            if command == "train" else
            ["eval", "--experiment", "example1", "--out-dir", str(tmp_path)])
    res = run_cli(*args, "--hidden", "10,abc")
    assert res.returncode == 2
    assert "--hidden" in res.stderr and "Traceback" not in res.stderr


def test_train_meta_matches_pipeline_meta(tmp_path):
    # train and eval describe a model the same way: experiment, the input
    # scaler's range (seed 7 holds out the first grid point) and the seed
    grid = ["--grid-start", "0.5", "--grid-stop", "8", "--grid-points", "50"]
    data, model = tmp_path / "osc.csv", tmp_path / "m.json"
    assert cli.main(["generate", "--experiment", "example1", "--out", str(data), *grid]) == 0
    assert cli.main(["train", "--data", str(data), "--out-model", str(model),
                     "--hidden", "6", "--epochs", "3", "--seed", "7"]) == 0
    report = surrogate.run_example1(
        grid=osc.FrequencyGrid.uniform(0.5, 8.0, 50),
        train_config=mlp.TrainConfig(epochs=3, seed=7), split_seed=7, layer_sizes=[1, 6, 1])
    meta = json.loads(model.read_text())["meta"]
    assert meta == report.model.meta
    assert meta["freq_min_hz"] > 0.5


@pytest.mark.slow
def test_train_example1_defaults_reaches_spec_loss(tmp_path, osc_csv):
    res = run_cli("train", "--data", str(osc_csv),
                  "--out-model", str(tmp_path / "osc_default.model"),
                  "--seed", "42")
    assert res.returncode == 0, res.stderr
    val = float(res.stdout.split("final_train_mse_scaled=")[1].split()[0])
    assert val < 1e-3


# --- predict -----------------------------------------------------------------

def test_predict_single_frequency(beam_model):
    res = run_cli("predict", "--model", str(beam_model), "--freq", "9")
    assert res.returncode == 0, res.stderr
    vals = [float(v) for v in res.stdout.split()]
    assert len(vals) == 3
    assert all(v > 0.0 for v in vals)
    assert res.stderr == ""


def test_predict_out_of_range_warns_but_succeeds(beam_model):
    res = run_cli("predict", "--model", str(beam_model), "--freq", "500")
    assert res.returncode == 0
    assert "warning" in res.stderr.lower()
    assert len(res.stdout.split()) == 3


def test_predict_grid_mode_writes_curve(tmp_path, beam_model):
    out = tmp_path / "curve.csv"
    res = run_cli("predict", "--model", str(beam_model), "--grid-start", "5",
                  "--grid-stop", "100", "--grid-points", "20", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "freq_hz,pred_1,pred_2,pred_3"
    assert len(lines) == 21


def test_predict_corrupt_model_exits_5(tmp_path, beam_model):
    bad = tmp_path / "bad.model"
    bad.write_text(beam_model.read_text()[:100])
    res = run_cli("predict", "--model", str(bad), "--freq", "9")
    assert res.returncode == 5


def test_predict_wrong_version_exits_5(tmp_path, beam_model):
    doc = beam_model.read_text().replace('"format_version": 1',
                                         '"format_version": 3')
    bad = tmp_path / "old.model"
    bad.write_text(doc)
    res = run_cli("predict", "--model", str(bad), "--freq", "9")
    assert res.returncode == 5


def _corrupt(doc, case):
    if case == "short_bias":
        doc["biases"][0] = doc["biases"][0][:1]
    elif case == "nested_bias":
        doc["biases"][0] = [doc["biases"][0]]
    elif case == "nested_weights":
        doc["weights"][1] = [doc["weights"][1]]
    elif case == "relu":
        doc["activation"] = "relu"
    elif case.startswith("extra_"):
        key = case.removeprefix("extra_")
        doc[key].append(doc[key][-1])
    elif case == "null_input_scaler":
        doc["input_scaler"] = None
    elif case == "no_target_scaler":
        del doc["target_scaler"]
    elif case == "nan_weight":
        doc["weights"][1][0] = math.nan
    elif case == "inf_bias":
        doc["biases"][0][2] = -math.inf
    elif case == "inf_col_max":
        doc["input_scaler"]["col_max"][0] = math.inf
    elif case == "nan_col_min":
        doc["input_scaler"]["col_min"][0] = math.nan
    elif case == "inverted_bounds":
        sc = doc["input_scaler"]
        sc["col_min"], sc["col_max"] = sc["col_max"], sc["col_min"]
    elif case == "nan_floor":
        doc["target_scaler"]["floor_eps"] = math.nan
    elif case == "inf_floor":
        doc["target_scaler"]["floor_eps"] = math.inf
    else:
        doc["target_scaler"]["floor_eps"] = -1e-18


@pytest.mark.parametrize("case", ["short_bias", "nested_bias", "nested_weights",
                                  "extra_weights", "extra_biases", "relu",
                                  "null_input_scaler", "no_target_scaler",
                                  "nan_weight", "inf_bias", "inf_col_max", "nan_col_min",
                                  "inverted_bounds", "nan_floor", "inf_floor",
                                  "negative_floor"])
def test_predict_malformed_model_exits_5(tmp_path, capsys, beam_model, case):
    # each of these used to load, and predict printed a number (nan for nan_weight)
    doc = json.loads(beam_model.read_text())
    _corrupt(doc, case)
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc))  # non-finite floats become NaN / Infinity tokens
    assert cli.main(["predict", "--model", str(bad), "--freq", "50"]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "malformed model file" in err


def test_predict_conflicting_modes_exits_2(beam_model):
    res = run_cli("predict", "--model", str(beam_model), "--freq", "9",
                  "--grid-points", "10")
    assert res.returncode == 2
    assert "conflict" in res.stderr


@pytest.mark.parametrize("out_dir", ["existing", "missing"])
def test_predict_freq_with_out_exits_2(tmp_path, capsys, beam_model, out_dir):
    # --out used to be ignored in --freq mode, even in a missing directory
    out = tmp_path / ("" if out_dir == "existing" else "missing") / "x.csv"
    assert cli.main(["predict", "--model", str(beam_model), "--freq", "9",
                     "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "conflicts with --out" in err
    assert not out.exists()


# --- eval --------------------------------------------------------------------

def test_eval_small_run_writes_artifacts(tmp_path):
    out_dir = tmp_path / "report"
    svg = tmp_path / "plot.svg"
    res = run_cli("eval", "--experiment", "example2", "--out-dir", str(out_dir),
                  "--plot", str(svg), "--grid-start", "1", "--grid-stop", "120",
                  "--grid-points", "30", "--n-elements", "8",
                  "--hidden", "16,16", "--epochs", "100", "--seed", "1")
    assert res.returncode == 0, res.stderr
    curves = out_dir / "example2_curves.csv"
    metrics = out_dir / "example2_metrics.txt"
    assert curves.exists() and metrics.exists() and svg.exists()
    kv = dict(line.split("=", 1) for line in metrics.read_text().splitlines())
    assert kv["experiment"] == "example2"
    assert "final_test_mse_scaled" in kv
    assert svg.read_text().count("<polyline") == 6


def test_eval_history_matches_generate_then_train(tmp_path):
    # --history only adds the per-epoch losses: every other artifact is the
    # same bytes with and without it
    seed = ["--seed", "3", "--epochs", "20"]
    data, hist = tmp_path / "osc.csv", tmp_path / "train.csv"
    model, plain_model = tmp_path / "m.json", tmp_path / "plain.json"
    assert cli.main(["generate", "--experiment", "example1", "--seed", "3",
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--data", str(data), "--out-model", str(model),
                     "--history", str(hist), *seed]) == 0
    assert cli.main(["train", "--data", str(data), "--out-model", str(plain_model),
                     *seed]) == 0
    assert model.read_bytes() == plain_model.read_bytes()
    plain, with_hist = tmp_path / "plain", tmp_path / "hist"
    assert cli.main(["eval", "--experiment", "example1", "--out-dir", str(plain),
                     "--plot", str(plain / "e1.svg"), *seed]) == 0
    assert cli.main(["eval", "--experiment", "example1", "--out-dir", str(with_hist),
                     "--plot", str(with_hist / "e1.svg"),
                     "--history", str(with_hist / "history.csv"), *seed]) == 0
    assert (with_hist / "history.csv").read_bytes() == hist.read_bytes()
    assert len(hist.read_text().splitlines()) == 21
    for name in ("example1_curves.csv", "example1_metrics.txt", "e1.svg"):
        assert (with_hist / name).read_bytes() == (plain / name).read_bytes()


def test_eval_unwritable_history_exits_2_before_work(tmp_path, capsys):
    out_dir = tmp_path / "report"
    rc = cli.main(["eval", "--experiment", "example1", "--out-dir", str(out_dir),
                   "--history", str(tmp_path / "missing" / "h.csv")])
    assert rc == 2
    assert "output directory does not exist" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("case", ["empty_out_dir", "out_dir_is_file", "plot", "history"])
def test_eval_rejected_paths_exit_2_and_leave_no_directory(tmp_path, capsys, monkeypatch, case):
    # --out-dir "" used to exit 3 (FileNotFoundError), and a bad --plot or
    # --history used to leave the freshly made --out-dir behind
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(osc, "sweep_oscillator", no_work)
    out_dir = tmp_path / "report"
    missing = str(tmp_path / "missing" / "x")
    argv = ["eval", "--experiment", "example1", "--out-dir", str(out_dir)]
    if case == "empty_out_dir":
        argv[-1] = ""
    elif case == "out_dir_is_file":
        out_dir.write_text("")
    else:
        argv += [f"--{case}", missing]
    assert cli.main(argv) == 2
    assert "output" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["report"] if case == "out_dir_is_file" else [])


def test_eval_close_bending_planes_tunes_beta_to_first_mode(tmp_path):
    rc = cli.main(["eval", "--experiment", "example2", "--width", "0.0201", "--height", "0.02",
                   "--grid-points", "40", "--epochs", "1", "--hidden", "8",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    kv = dict(line.split("=", 1)
              for line in (tmp_path / "example2_metrics.txt").read_text().splitlines())
    base = beam.default_spec()
    spec = beam.BeamSpec(base.length, beam.CrossSection(0.0201, 0.02), base.material,
                         base.n_elements, base.axis_direction, base.tip_load)
    _, red = beam.reduced_system(spec)
    f1 = math.sqrt(scipy.linalg.eigh(red.k, red.m, eigvals_only=True)[0]) / (2.0 * math.pi)
    assert float(kv["beta"]) == pytest.approx(2.0 * 0.01 / (2.0 * math.pi * f1), rel=1e-5)


def test_eval_unknown_flag_exits_2(tmp_path):
    res = run_cli("eval", "--experiment", "example1", "--freq", "9",
                  "--out-dir", str(tmp_path))
    assert res.returncode == 2


def test_config_file_supplies_defaults_and_flags_override(tmp_path, osc_csv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"hidden": "8", "epochs": 25, "seed": 9}))
    m1 = tmp_path / "m1.model"
    res = run_cli("train", "--data", str(osc_csv), "--out-model", str(m1),
                  "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    doc = json.loads(m1.read_text())
    assert doc["layer_sizes"] == [1, 8, 1]
    assert doc["meta"]["seed"] == 9
    # explicit flag beats the config value
    m2 = tmp_path / "m2.model"
    res = run_cli("train", "--data", str(osc_csv), "--out-model", str(m2),
                  "--config", str(cfg), "--hidden", "4")
    assert res.returncode == 0
    assert json.loads(m2.read_text())["layer_sizes"] == [1, 4, 1]


@pytest.mark.parametrize("doc, rc", [
    ({"epochs": "3"}, 0),
    ({"hidden": [10, 10], "epochs": 2}, 0),
    ({"axis": "1,0,0"}, 0),
    ({"tip_load": [0, 5, 5]}, 0),
    ({"epochs": "three"}, 2),
    ({"hidden": [10, "x"], "epochs": 2}, 2),
    ({"optimizer": "rmsprop"}, 2),
    ({"axis": [1, 0]}, 2),
])
def test_config_values_convert_like_flags(tmp_path, osc_csv, doc, rc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    if {"axis", "tip_load"} & doc.keys():
        args = ["generate", "--experiment", "example2", "--out", str(tmp_path / "b.csv"),
                "--grid-points", "5", "--n-elements", "4"]
    else:
        args = ["train", "--data", str(osc_csv), "--out-model", str(tmp_path / "m.model")]
    res = run_cli(*args, "--config", str(cfg))
    assert res.returncode == rc, res.stderr
    if rc:
        assert next(iter(doc)) in res.stderr and "Traceback" not in res.stderr


def test_config_file_unknown_key_exits_2(tmp_path, osc_csv):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_flag": 1}))
    res = run_cli("train", "--data", str(osc_csv),
                  "--out-model", str(tmp_path / "m.model"), "--config", str(cfg))
    assert res.returncode == 2
    assert "not_a_flag" in res.stderr


def test_cli_import_loads_no_scipy():
    res = subprocess.run(
        [sys.executable, "-c", "import sys, fem_surrogate.cli; print(sorted("
         "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_missing_subcommand_exits_2():
    res = run_cli()
    assert res.returncode == 2
