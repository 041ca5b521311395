import numpy as np
import numpy.testing as npt
import pytest

from fem_surrogate.errors import ConfigError, DataError
from fem_surrogate import dataset


def make_arrays(n, k=1, seed=0):
    rng = np.random.default_rng(seed)
    return np.linspace(0.1, 10.0, n), rng.uniform(1e-6, 1e-2, size=(n, k))


# --- split -------------------------------------------------------------------

def test_split_sizes_and_disjointness():
    train, test = dataset.split(100, 0.2, seed=42)
    assert len(train) == 80 and len(test) == 20
    assert not set(train) & set(test)
    assert set(train) | set(test) == set(range(100))
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)


def test_split_deterministic_for_fixed_seed():
    a = dataset.split(60, 0.25, seed=7)
    b = dataset.split(60, 0.25, seed=7)
    npt.assert_array_equal(a[0], b[0])
    npt.assert_array_equal(a[1], b[1])


def test_split_differs_between_seeds():
    _, a = dataset.split(200, 0.2, seed=1)
    _, b = dataset.split(200, 0.2, seed=2)
    assert not np.array_equal(a, b)


def test_split_too_few_samples():
    with pytest.raises(DataError, match="need at least 5 samples"):
        dataset.split(4, 0.2, seed=0)
    with pytest.raises(DataError, match="leaves an empty partition"):
        dataset.split(5, 0.01, seed=0)  # rounds to empty test
    with pytest.raises(ConfigError, match="test_fraction must be in"):
        dataset.split(10, 1.5, seed=0)


# --- scaling -----------------------------------------------------------------

def test_linear_minmax_maps_train_range_to_unit():
    sc = dataset.scale_fit(np.array([0.0, 5.0, 10.0]), dataset.LINEAR_MINMAX)
    npt.assert_allclose(dataset.scale_apply(sc, np.array([0.0, 5.0, 10.0]))[:, 0],
                        [0.0, 0.5, 1.0], atol=0)


def test_linear_extrapolates_without_clamping():
    sc = dataset.scale_fit(np.array([0.0, 10.0]), dataset.LINEAR_MINMAX)
    out = dataset.scale_apply(sc, np.array([-5.0, 20.0]))[:, 0]
    npt.assert_allclose(out, [-0.5, 2.0], atol=0)


def test_log10_basic_values():
    sc = dataset.scale_fit(np.array([1e-6, 1e-3]), dataset.LOG10)
    npt.assert_allclose(dataset.scale_apply(sc, np.array([1e-6, 1e-3]))[:, 0],
                        [-6.0, -3.0], rtol=1e-15)


def test_log10_round_trip_over_decades():
    vals = np.power(10.0, np.linspace(-7, -2, 10))
    sc = dataset.scale_fit(vals, dataset.LOG10)
    back = dataset.scale_invert(sc, dataset.scale_apply(sc, vals))[:, 0]
    npt.assert_allclose(back, vals, rtol=1e-12)


def test_round_trip_linear_on_random_columns():
    rng = np.random.default_rng(2)
    vals = rng.uniform(-3.0, 7.0, size=(100, 3))
    sc = dataset.scale_fit(vals, dataset.LINEAR_MINMAX)
    back = dataset.scale_invert(sc, dataset.scale_apply(sc, vals))
    npt.assert_allclose(back, vals, rtol=1e-12, atol=1e-14)


def test_identity_scaler_on_unit_interval_data():
    vals = np.array([0.0, 0.25, 1.0])
    sc = dataset.scale_fit(vals, dataset.LINEAR_MINMAX)
    npt.assert_array_equal(dataset.scale_apply(sc, vals)[:, 0], vals)


def test_scaler_fits_on_train_only():
    train = np.array([1.0, 2.0, 3.0])
    sc = dataset.scale_fit(train, dataset.LINEAR_MINMAX)
    assert sc.col_min[0] == 1.0 and sc.col_max[0] == 3.0
    # applying to out-of-range test data does not change the parameters
    dataset.scale_apply(sc, np.array([0.0, 10.0]))
    assert sc.col_min[0] == 1.0 and sc.col_max[0] == 3.0


def test_log10_floors_nonpositive_values():
    sc = dataset.scale_fit(np.array([0.0, 1.0]), dataset.LOG10)
    assert sc.floor_eps == 1e-18
    npt.assert_array_equal(dataset.scale_apply(sc, np.array([0.0, -5.0, 1e-20, 1e-3])),
                           np.log10([[1e-18], [1e-18], [1e-18], [1e-3]]))


def test_scaler_dict_round_trip():
    for sc in (dataset.scale_fit(np.array([1.0, 4.0]), dataset.LINEAR_MINMAX),
               dataset.scale_fit(np.array([1e-4, 1e-1]), dataset.LOG10)):
        sc2 = dataset.Scaler.from_dict(sc.to_dict())
        vals = np.array([2e-3, 5e-2])
        npt.assert_array_equal(dataset.scale_apply(sc, vals),
                               dataset.scale_apply(sc2, vals))


# --- CSV ---------------------------------------------------------------------

def test_csv_round_trip_single_output(tmp_path):
    freqs, outputs = make_arrays(20, k=1)
    path = tmp_path / "osc.csv"
    dataset.write_csv(path, freqs, outputs)
    assert path.read_text().splitlines()[0] == "freq_hz,amplitude"
    f_back, y_back = dataset.read_csv(path)
    assert y_back.shape == (20, 1)
    npt.assert_array_equal(f_back, freqs)
    npt.assert_array_equal(y_back, outputs)


def test_csv_three_output_schema(tmp_path):
    freqs, outputs = make_arrays(5, k=3)
    path = tmp_path / "beam.csv"
    dataset.write_csv(path, freqs, outputs)
    header = path.read_text().splitlines()[0]
    assert header == "freq_hz,ux_max,uy_max,uz_max"
    _, y_back = dataset.read_csv(path)
    npt.assert_array_equal(y_back, outputs)


def test_csv_empty_list_round_trips(tmp_path):
    path = tmp_path / "empty.csv"
    dataset.write_csv(path, np.zeros(0), np.zeros((0, 1)))
    assert path.read_text() == "freq_hz,amplitude\n"
    freqs, outputs = dataset.read_csv(path)
    assert freqs.shape == (0,) and outputs.shape == (0, 1)


def test_csv_survives_17_digit_value(tmp_path):
    value = 1.2345678901234567e-5
    path = tmp_path / "val.csv"
    dataset.write_csv(path, np.array([1.0]), np.array([[value]]))
    _, outputs = dataset.read_csv(path)
    assert outputs[0, 0] == value


def test_csv_malformed_rows_report_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq_hz,amplitude\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="row 2"):
        dataset.read_csv(path)
    path.write_text("freq_hz,amplitude\n1.0,abc\n")
    with pytest.raises(DataError, match="row 1"):
        dataset.read_csv(path)


@pytest.mark.parametrize("bad_row", ["2.0,-1e-3", "2.0,nan", "2.0,inf", "-2.0,1e-3", "nan,1e-3"],
                         ids=["negative", "nan", "inf", "negative_freq", "nan_freq"])
def test_csv_rejects_out_of_domain_rows(tmp_path, bad_row):
    path = tmp_path / "bad.csv"
    path.write_text(f"freq_hz,amplitude\n1.0,1e-3\n{bad_row}\n3.0,1e-3\n")
    with pytest.raises(DataError, match="row 2"):
        dataset.read_csv(path)


def test_write_rows_formats_every_cell_as_17g(tmp_path):
    path = tmp_path / "rows.csv"
    dataset.write_rows(path, ["a", "b", "c"],
                       np.column_stack([np.arange(2), [0.1, np.nan], [True, False]]))
    assert path.read_text() == "a,b,c\n0,0.10000000000000001,1\n1,nan,0\n"
