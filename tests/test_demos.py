"""Smoke test: the demo scripts run; the seconds-scale ones write readable
sweeps, the slow training walkthroughs a full report."""

import pathlib
import runpy

import numpy as np
import pytest

from fem_surrogate import dataset

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# demo -> (sweep CSV it writes, expected header, expected row count)
CASES = {
    "oscillator_response": ("oscillator_sweep.csv", "freq_hz,amplitude", 200),
    "beam_modal_analysis": (None, None, None),
    "beam_frequency_sweep": ("beam_sweep.csv", "freq_hz,ux_max,uy_max,uz_max", 400),
}


@pytest.mark.parametrize("demo", sorted(CASES))
def test_demo_runs_and_writes_its_sweep(tmp_path, monkeypatch, capsys, demo):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert capsys.readouterr().out
    csv, header, n_rows = CASES[demo]
    if csv is None:
        return
    path = tmp_path / csv
    assert path.read_text().splitlines()[0] == header
    freqs, outputs = dataset.read_csv(path)
    assert freqs.shape == (n_rows,) and outputs.shape == (n_rows, header.count(","))
    assert np.all(freqs > 0.0) and np.all(outputs > 0.0)


# training demo -> (prefix of the report it writes, experiment, channel count)
TRAINING_CASES = {
    "train_oscillator_surrogate": ("oscillator_surrogate", "example1", 1),
    "train_beam_surrogate": ("beam_surrogate", "example2", 3),
}


@pytest.mark.slow
@pytest.mark.parametrize("demo", sorted(TRAINING_CASES))
def test_training_demo_writes_its_report(tmp_path, monkeypatch, capsys, demo):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert capsys.readouterr().out
    prefix, experiment, k = TRAINING_CASES[demo]
    metrics = (tmp_path / f"{prefix}_metrics.txt").read_text()
    assert f"experiment={experiment}" in metrics.splitlines()
    header = (tmp_path / f"{prefix}_curves.csv").read_text().splitlines()[0]
    assert header.count("pred_") == k
    assert (tmp_path / f"{prefix}.svg").read_text().count("<polyline") == 2 * k
