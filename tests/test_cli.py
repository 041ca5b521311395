import json
import math
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from fem_surrogate import beam, cli, dataset, errors, mlp, surrogate
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
                  "--hidden", "16,16",
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
    top = beam.MEMORY_BUDGET // cli._grid_point_bytes(200)
    out = tmp_path / "x.csv"
    argv = {"generate": ["generate", "--experiment", "example1", "--out", str(out)],
            "eval": ["eval", "--experiment", "example2", "--out-dir", str(tmp_path)],
            "predict": ["predict", "--model", str(beam_model), "--out", str(out)]}[command]
    assert cli.main(argv + ["--grid-points", str(top + 1)]) == 2
    assert f"--grid-points must be <= {top}" in capsys.readouterr().err
    assert not out.exists()


def test_predict_grid_points_bound_follows_the_models_width(tmp_path, capsys, monkeypatch,
                                                            beam_model):
    # the bound used to assume a 200-unit layer whatever model was loaded, so
    # a wide net's full-grid forward pass could run out of memory
    _, input_scaler, target_scaler, meta = mlp.load_model(beam_model)
    wide = tmp_path / "wide.model"
    mlp.save_model(mlp.init([1, 2000, 3], seed=0), input_scaler, target_scaler, wide, meta)
    monkeypatch.setattr(mlp, "forward", lambda *a, **k: pytest.fail("forward ran"))
    top = beam.MEMORY_BUDGET // cli._grid_point_bytes(2000)
    out = tmp_path / "curve.csv"
    assert cli.main(["predict", "--model", str(wide), "--grid-points", str(top + 1),
                     "--out", str(out)]) == 2
    assert f"--grid-points must be <= {top}" in capsys.readouterr().err
    assert not out.exists()


OVERFLOWING_OSCILLATORS = {
    # each used to exit 0 with nan, inf or 0 rows, or 1 with a traceback
    "nan": ["--mass", "1e-320"],
    "inf": ["--force-amplitude", "1e308", "--mass", "1e-3"],
    "zero": ["--stiffness", "1e300", "--mass", "1e-10"],
    "overflow_mass": ["--mass", "1e-300"],
    "overflow_damping": ["--damping-c", "1e300"],
    "zero_omega0": ["--stiffness", "1e-300", "--mass", "1e300", "--damping-c", "0"],
}


@pytest.mark.parametrize("case", OVERFLOWING_OSCILLATORS)
def test_oscillator_out_of_double_range_exits_3(tmp_path, capsys, case):
    out = tmp_path / "x.csv"
    assert cli.main(["generate", "--experiment", "example1", "--out", str(out),
                     *OVERFLOWING_OSCILLATORS[case]]) == 3
    assert "amplitude at f = 0.1 Hz is out of double range" in capsys.readouterr().err
    assert not out.exists()


def test_undamped_oscillator_at_resonance_exits_3(tmp_path, capsys):
    # the first grid point is the default oscillator's resonance, sqrt(k/m) / 2 pi
    f_res = repr(math.sqrt(986.96) / (2.0 * math.pi))
    out = tmp_path / "x.csv"
    assert cli.main(["generate", "--experiment", "example1", "--damping-c", "0",
                     "--grid-start", f_res, "--grid-stop", "10", "--grid-points", "3",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        f"error: undamped oscillator driven at resonance (f = {f_res} Hz)\n"
    assert list(tmp_path.iterdir()) == []


def test_eval_oscillator_out_of_double_range_exits_3_before_training(tmp_path, capsys,
                                                                     monkeypatch):
    # used to exit 4 once training met the nan targets
    monkeypatch.setattr(mlp, "train", lambda *a, **k: pytest.fail("training started"))
    out_dir = tmp_path / "report"
    assert cli.main(["eval", "--experiment", "example1", "--mass", "1e-320",
                     "--out-dir", str(out_dir)]) == 3
    assert "out of double range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


EXTREMES = ["5e-324", "1e-300", "1e-200", "1e200", "1e300", "1.7e308"]
BEAM_SCALAR_FLAGS = ["--length", "--width", "--height", "--youngs-modulus",
                     "--poisson-ratio", "--density", "--alpha", "--beta"]
# each component is walked with the others at their default direction and load
BEAM_VECTOR_FLAGS = {"--axis": ["1", "1", "1"], "--tip-load": ["0", "10", "10"]}


def _beam_domain_walk():
    for flag in BEAM_SCALAR_FLAGS:
        for value in EXTREMES:
            yield flag, value
    for flag, base in BEAM_VECTOR_FLAGS.items():
        for i in range(3):
            for value in EXTREMES:
                yield flag, ",".join(value if j == i else b for j, b in enumerate(base))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag, value", list(_beam_domain_walk()))
def test_beam_domain_walk_gives_normal_outputs_or_a_typed_exit(tmp_path, capsys, flag, value):
    # 15 of these 84 used to exit 1 with a traceback (--length, --width and
    # --height) or exit 0 with nan rows (--tip-load 1.7e308); 13 more printed
    # numpy overflow warnings (--density, --alpha, --beta and --axis)
    out = tmp_path / "x.csv"
    rc = cli.main(["generate", "--experiment", "example2", "--grid-points", "20",
                   "--n-elements", "4", "--out", str(out), flag, value])
    if rc == 0:
        outputs = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        assert np.isfinite(outputs).all()
        assert not ((outputs != 0.0) & (np.abs(outputs) < np.finfo(float).tiny)).any()
    else:
        assert rc in (2, 3), capsys.readouterr().err
        assert not out.exists()


def test_beam_sweep_out_of_double_range_names_the_frequency(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["generate", "--experiment", "example2", "--grid-points", "20",
                     "--n-elements", "4", "--out", str(out),
                     "--tip-load", "1e308,1e308,1e308"]) == 3
    assert "sweep output at f = 1.0 Hz is out of double range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag, value, freq", [
    ("--beta", "1e300", "1.0"), ("--alpha", "1.7e308", "1.0"),
    ("--density", "1.7e308", "40.0"),  # the mode finder's first probe
])
def test_beam_dynamic_matrix_out_of_double_range_names_the_frequency(tmp_path, capsys,
                                                                     flag, value, freq):
    # each used to exit 3 as a data error ("matrix entries must be finite")
    # after numpy overflow warnings
    out = tmp_path / "x.csv"
    assert cli.main(["generate", "--experiment", "example2", "--grid-points", "20",
                     "--n-elements", "4", "--out", str(out), flag, value]) == 3
    assert (f"K - w^2 M + i w C is out of double range at f = {freq} Hz"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_beam_axis_with_a_squared_norm_out_of_range(tmp_path):
    # the first two used to exit 2, the squared norm underflowing to 0 or
    # overflowing; 1.7e308,1,1 exited 3, its other components normalising to
    # subnormals
    def generate(axis):
        out = tmp_path / f"{axis}.csv"
        assert cli.main(["generate", "--experiment", "example2", "--grid-points", "20",
                         "--n-elements", "4", "--out", str(out), "--axis", axis]) == 0
        return out
    assert generate("1e-170,1e-170,1e-170").read_bytes() == generate("1,1,1").read_bytes()
    _, along_x = dataset.read_csv(generate("1,0,0"))
    npt.assert_allclose(dataset.read_csv(generate("1e200,1,1"))[1][:, 1:], along_x[:, 1:],
                        rtol=1e-12)
    assert generate("1.7e308,1,1").read_bytes() == generate("1,0,0").read_bytes()


def test_beam_zero_channel_stays_legal(tmp_path):
    # an axis in the y-z plane loaded in y and z moves nothing along x
    out = tmp_path / "x.csv"
    assert cli.main(["generate", "--experiment", "example2", "--grid-points", "20",
                     "--n-elements", "4", "--out", str(out), "--axis", "0,1,1"]) == 0
    _, outputs = dataset.read_csv(out)
    assert np.all(outputs[:, 0] == 0.0) and np.all(outputs[:, 1:] > 0.0)


OTHER_EXPERIMENT_FLAGS = {
    "generate_example1": (["generate", "--experiment", "example1",
                           "--n-elements", "40", "--length", "3"], ["--length", "--n-elements"]),
    "generate_example2": (["generate", "--experiment", "example2", "--mass", "5"], ["--mass"]),
    "eval_example1": (["eval", "--experiment", "example1", "--alpha", "0.1"], ["--alpha"]),
    "eval_example2_config": (["eval", "--experiment", "example2"], ["--damping-c"]),
}


@pytest.mark.parametrize("case", OTHER_EXPERIMENT_FLAGS)
def test_other_experiments_model_flag_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                                          case):
    # each used to exit 0 and ignore the flag
    for truth in ("oscillator_truth", "beam_truth"):
        monkeypatch.setattr(surrogate, truth, lambda *a, **k: pytest.fail("solver ran"))
    argv, flags = OTHER_EXPERIMENT_FLAGS[case]
    out = tmp_path / "out"
    argv = argv + (["--out", str(out)] if argv[0] == "generate" else ["--out-dir", str(out)])
    if case.endswith("config"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"damping_c": 1.0}))
        argv += ["--config", str(config)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags), err
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


@pytest.mark.parametrize("command, flag", [("generate", "--out"), ("eval", "--plot")])
def test_out_path_naming_a_directory_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                                         command, flag):
    # a directory is rejected before the sweep or training, not when the
    # write fails after all the work
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(osc, "sweep_oscillator", no_work)
    target = tmp_path / "taken"
    target.mkdir()
    argv = {"generate": ["generate", "--experiment", "example1"],
            "eval": ["eval", "--experiment", "example1",
                     "--out-dir", str(tmp_path / "report")]}[command]
    assert cli.main(argv + [flag, str(target)]) == 2
    assert "output path is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


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


@pytest.mark.parametrize("command, hidden", [
    ("train", "5000,5000"),    # 1.1 GiB of parameter-sized training vectors
    ("eval", "5000,5000"),
    ("train", "200000"),       # 1.2 GiB of forward pass over 200 grid points
    ("eval", "200000"),
])
def test_hidden_over_the_memory_budget_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                                            osc_csv, command, hidden):
    # only the estimate is checked: mlp.init would allocate the net
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --hidden was bounded")

    monkeypatch.setattr(mlp, "init", no_work)
    monkeypatch.setattr(surrogate, "oscillator_truth", no_work)
    out = tmp_path / "out"
    argv = {"train": ["train", "--data", str(osc_csv), "--out-model", str(out),
                      "--history", str(tmp_path / "h.csv")],
            "eval": ["eval", "--experiment", "example1", "--out-dir", str(out)]}[command]
    assert cli.main(argv + ["--hidden", hidden]) == 2
    err = capsys.readouterr().err
    assert f"--hidden '{hidden}' needs about" in err and "GiB budget" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("hidden", ["4700,4700", "160000"])
def test_hidden_just_inside_the_memory_budget_reaches_training(tmp_path, monkeypatch,
                                                               osc_csv, hidden):
    # 0.99 GiB of training vectors, 0.95 GiB of forward pass: both admitted
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(mlp, "init", reached)
    with pytest.raises(Reached):
        cli.main(["train", "--data", str(osc_csv), "--out-model", str(tmp_path / "m"),
                  "--hidden", hidden])


def test_train_meta_matches_pipeline_meta(tmp_path):
    # train and eval describe a model the same way: experiment, the input
    # scaler's range (seed 7 holds out the first grid point) and the seed
    grid = ["--grid-start", "0.5", "--grid-stop", "8", "--grid-points", "50"]
    data, model = tmp_path / "osc.csv", tmp_path / "m.json"
    assert cli.main(["generate", "--experiment", "example1", "--out", str(data), *grid]) == 0
    assert cli.main(["train", "--data", str(data), "--out-model", str(model),
                     "--hidden", "6", "--epochs", "3", "--seed", "7"]) == 0
    grid_hz = osc.FrequencyGrid.uniform(0.5, 8.0, 50)
    outputs, echo = surrogate.oscillator_truth(osc.DEFAULT_PARAMS, grid_hz)
    report = surrogate.run_experiment("example1", grid_hz.values, outputs, echo, [1, 6, 1],
                                      mlp.TrainConfig(epochs=3, seed=7), 0.2, record=False)
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


@pytest.mark.parametrize("freq", ["nan", "inf", "-inf", "-5"])
def test_predict_freq_outside_the_grid_domain_exits_2(capsys, beam_model, freq):
    # each used to print numbers (nan, or an extrapolation) and exit 0
    assert cli.main(["predict", "--model", str(beam_model), f"--freq={freq}"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: grid frequencies must be")


def test_predict_grid_mode_warns_when_extrapolating(tmp_path, capsys, beam_model):
    out = tmp_path / "curve.csv"
    assert cli.main(["predict", "--model", str(beam_model), "--grid-start", "0",
                     "--grid-stop", "1000", "--grid-points", "11", "--out", str(out)]) == 0
    stdout, err = capsys.readouterr()
    assert err.startswith("warning: grid [0.0, 1000.0] Hz reaches outside the trained range")
    assert stdout == f"rows=11 out={out}\n"
    assert len(out.read_text().splitlines()) == 12


def test_predict_grid_mode_writes_curve(tmp_path, beam_model):
    out = tmp_path / "curve.csv"
    res = run_cli("predict", "--model", str(beam_model), "--grid-start", "5",
                  "--grid-stop", "100", "--grid-points", "20", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "freq_hz,pred_1,pred_2,pred_3"
    assert len(lines) == 21


def test_predict_without_meta_uses_the_input_scalers_range(tmp_path, capsys, beam_model):
    # a model file without meta used to predict over 0-1 Hz in grid mode and
    # to warn of the trained range [None, None]
    doc = json.loads(beam_model.read_text())
    del doc["meta"]
    bare = tmp_path / "bare.model"
    bare.write_text(json.dumps(doc))
    out = tmp_path / "curve.csv"
    runs = []
    for model in (beam_model, bare):
        assert cli.main(["predict", "--model", str(model), "--grid-points", "5",
                         "--out", str(out)]) == 0
        assert cli.main(["predict", "--model", str(model), "--freq", "500"]) == 0
        runs.append((out.read_text(), capsys.readouterr()))
    assert runs[0] == runs[1]
    lo, hi = doc["input_scaler"]["col_min"][0], doc["input_scaler"]["col_max"][0]
    freqs = [float(ln.split(",")[0]) for ln in runs[1][0].splitlines()[1:]]
    assert (freqs[0], freqs[-1]) == (lo, hi) and lo > 1.0
    assert f"outside the trained range [{lo}, {hi}] Hz" in runs[1][1].err


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
    elif case == "log10_input_scaler":
        doc["input_scaler"] = {"scheme": "log10", "floor_eps": 1e-18}
    elif case == "two_column_input_scaler":
        sc = doc["input_scaler"]
        sc["col_min"], sc["col_max"] = sc["col_min"] * 2, sc["col_max"] * 2
    elif case == "inf_floor":
        doc["target_scaler"]["floor_eps"] = math.inf
    else:
        doc["target_scaler"]["floor_eps"] = -1e-18


@pytest.mark.parametrize("case", ["short_bias", "nested_bias", "nested_weights",
                                  "extra_weights", "extra_biases", "relu",
                                  "null_input_scaler", "no_target_scaler",
                                  "nan_weight", "inf_bias", "inf_col_max", "nan_col_min",
                                  "inverted_bounds", "log10_input_scaler",
                                  "two_column_input_scaler", "nan_floor", "inf_floor",
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


# Each exits 2 before training starts.
REJECTED_EVAL_FLAGS = ["--width=-1", "--alpha=nan", "--lr=0", "--lr=inf", "--hidden=0",
                       "--test-fraction=1.5", "--batch-size=0"]


@pytest.mark.parametrize("case", ["empty_out_dir", "out_dir_is_file", "out_dir_under_file",
                                  "plot", "history", *REJECTED_EVAL_FLAGS])
def test_eval_rejected_paths_exit_2_and_leave_no_directory(tmp_path, capsys, monkeypatch, case):
    # --out-dir "" and an --out-dir under a file used to exit 3 (an OSError
    # from makedirs), and a bad --plot, --history or flag used to leave the
    # freshly made --out-dir behind
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(osc, "sweep_oscillator", no_work)
    monkeypatch.setattr(mlp, "train", no_work)
    out_dir = tmp_path / "report"
    argv = ["eval", "--experiment", "example1", "--out-dir", str(out_dir)]
    left = []
    if case in REJECTED_EVAL_FLAGS:
        argv = ["eval", "--experiment", "example2", "--n-elements", "8", "--grid-points", "30",
                "--out-dir", str(out_dir), case]
    elif case == "empty_out_dir":
        argv[-1] = ""
    elif case == "out_dir_is_file":
        out_dir.write_text("")
        left = ["report"]
    elif case == "out_dir_under_file":
        (tmp_path / "afile").write_text("")
        argv[-1] = str(tmp_path / "afile" / "x")
        left = ["afile"]
    else:
        argv += [f"--{case}", str(tmp_path / "missing" / "x")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (case in REJECTED_EVAL_FLAGS or "output" in err)
    assert [p.name for p in tmp_path.iterdir()] == left


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [("hidden", "0"), ("hidden", "8,0"),
                                        ("test_fraction", "1.5"), ("test_fraction", "0")])
@pytest.mark.parametrize("experiment", ["example1", "example2"])
def test_bad_recipe_exits_2_before_the_ground_truth(tmp_path, capsys, monkeypatch,
                                                    experiment, key, value, source):
    # --hidden and --test-fraction used to be rejected only by mlp.init and
    # dataset.split, after the whole sweep
    def no_work(*args, **kwargs):
        raise AssertionError("ground truth built before the recipe was checked")

    monkeypatch.setattr(surrogate, "oscillator_truth", no_work)
    monkeypatch.setattr(surrogate, "beam_truth", no_work)
    argv = ["eval", "--experiment", experiment, "--out-dir", str(tmp_path / "report")]
    if source == "flag":
        argv.append(f"--{key.replace('_', '-')}={value}")
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 2
    assert f"--{key.replace('_', '-')} " in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("experiment, sizes", [
    ("example1", []),
    ("example2", ["--n-elements", "8", "--grid-points", "30"]),
])
def test_eval_ground_truth_is_generates_bit_for_bit(tmp_path, experiment, sizes):
    data = tmp_path / "truth.csv"
    assert cli.main(["generate", "--experiment", experiment, "--out", str(data), *sizes]) == 0
    hidden = ["--hidden", "8"] if sizes else []
    assert cli.main(["eval", "--experiment", experiment, "--epochs", "1", *sizes, *hidden,
                     "--out-dir", str(tmp_path)]) == 0
    freqs, outputs = dataset.read_csv(data)
    lines = (tmp_path / f"{experiment}_curves.csv").read_text().splitlines()
    k = outputs.shape[1]
    assert lines[0].split(",")[:k + 1] == ["freq_hz"] + [f"true_{c + 1}" for c in range(k)]
    curves = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    npt.assert_array_equal(curves[:, 0], freqs)
    npt.assert_array_equal(curves[:, 1:k + 1], outputs)


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
    ({"tip_load": [0, -5, 5]}, 0),
    ({"alpha": "-1e-3"}, 2),
])
def test_config_values_convert_like_flags(tmp_path, osc_csv, doc, rc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    if {"axis", "tip_load", "alpha"} & doc.keys():
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
    assert "not-a-flag" in res.stderr


@pytest.mark.parametrize("extra", [{"hist": "h.csv", "epochs": 1}, {"ep": 1},
                                   {"te": 0.5, "epochs": 1}, ["--ep", "1"]],
                         ids=["config_hist", "config_ep", "config_te", "flag_ep"])
def test_flag_prefix_is_an_unknown_flag(tmp_path, capsys, osc_csv, monkeypatch, extra):
    # a prefix used to stand for the flag it began: --history, --epochs,
    # --test-fraction
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "m.model"
    argv = ["train", "--data", str(osc_csv), "--out-model", str(model)]
    if isinstance(extra, list):
        argv += extra
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(extra))
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not model.exists() and not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("command", ["generate", "eval"])
def test_experiment_prefix_is_an_unknown_flag(tmp_path, capsys, command):
    argv = {"generate": ["generate", "--out", str(tmp_path / "x.csv")],
            "eval": ["eval", "--epochs", "1", "--out-dir", str(tmp_path / "report")]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--exp", "example1"])
    assert exc.value.code == 2
    assert "required: --experiment" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_negative_seed_exits_2_before_work(tmp_path, capsys, monkeypatch, osc_csv,
                                           command, source):
    # numpy's default_rng rejects a negative seed with a bare ValueError, so
    # the CLI checks it first, and train before it reads the CSV
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(dataset, "read_csv", no_work)
    monkeypatch.setattr(osc, "sweep_oscillator", no_work)
    out = tmp_path / "out"
    argv = {"train": ["train", "--data", str(osc_csv), "--out-model", str(out)],
            "eval": ["eval", "--experiment", "example1", "--out-dir", str(out)]}[command]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--beta", "inf")])
@pytest.mark.parametrize("command", ["generate", "eval"])
def test_non_finite_damping_exits_2(tmp_path, capsys, monkeypatch, command, flag, value):
    # a non-finite coefficient is a configuration error, not one for the band
    # solver to find in the damping matrix
    monkeypatch.setattr(mlp, "train", lambda *a, **k: pytest.fail("training started"))
    out = tmp_path / "b.csv"
    argv = {"generate": ["generate", "--experiment", "example2", "--out", str(out)],
            "eval": ["eval", "--experiment", "example2", "--out-dir", str(tmp_path)]}[command]
    assert cli.main(argv + ["--grid-points", "5", "--n-elements", "4", flag, value]) == 2
    assert "need finite alpha, beta" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# Every package error and the exit status it gives; a new error class must be
# added here.
EXIT_CODES = {"ConfigError": 2, "DataError": 3, "SolverError": 3, "TrainingError": 4,
              "ModelFileError": 5}


def test_every_error_class_has_its_exit_code():
    found = {name: cls.exit_code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.FemSurrogateError)
             and cls is not errors.FemSurrogateError}
    assert found == EXIT_CODES


@pytest.mark.parametrize("name", [*EXIT_CODES, "OSError"])
def test_main_exits_with_the_error_exit_code(tmp_path, capsys, monkeypatch, name):
    exc = PermissionError(13, "denied") if name == "OSError" else getattr(errors, name)("boom")

    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "generate", fail)
    rc = cli.main(["generate", "--experiment", "example1", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CODES.get(name, 3)
    assert capsys.readouterr().err.startswith("error: ")
