import math

import numpy as np
import numpy.testing as npt
import pytest

from fem_surrogate.errors import ConfigError, DataError, ModelFileError, TrainingError
from fem_surrogate import dataset, mlp
from oracles import grad_check


# --- init --------------------------------------------------------------------

def test_init_deterministic_per_seed():
    a = mlp.init([1, 100, 100, 1], 3)
    b = mlp.init([1, 100, 100, 1], 3)
    for wa, wb in zip(a.weights, b.weights):
        npt.assert_array_equal(wa, wb)
    c = mlp.init([1, 100, 100, 1], 4)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_init_shapes_and_bounds():
    net = mlp.init([1, 100, 100, 1], 0)
    assert [w.shape for w in net.weights] == [(100, 1), (100, 100), (1, 100)]
    assert [b.shape for b in net.biases] == [(100,), (100,), (1,)]
    for w, fan_in in zip(net.weights, [1, 100, 100]):
        bound = 1.0 / math.sqrt(fan_in)
        assert np.all(np.abs(w) < bound)
    assert all(np.all(b == 0.0) for b in net.biases)


def test_init_rejects_bad_architectures():
    with pytest.raises(ConfigError, match="need at least input and output layers"):
        mlp.init([4], 0)
    with pytest.raises(ConfigError, match="all layer sizes must be >= 1"):
        mlp.init([1, 0, 1], 0)


# --- forward -----------------------------------------------------------------

def test_forward_zero_parameters_give_zero():
    net = mlp.init([2, 5, 3], 0)
    for w in net.weights:
        w[:] = 0.0
    out = mlp.forward(net, np.array([1.0, -2.0]))
    npt.assert_array_equal(out, np.zeros(3))


def test_forward_affine_net():
    net = mlp.Mlp([1, 1], np.array([2.0, 1.0]))
    assert mlp.forward(net, np.array([3.0]))[0] == 7.0


def test_forward_hand_evaluated_tanh_net():
    # weights row-major, then biases
    net = mlp.Mlp([1, 2, 1], np.array([0.5, -0.3, 0.7, -0.4, 0.1, 0.2, 0.05]))
    x = 0.8
    h1 = math.tanh(0.5 * x + 0.1)
    h2 = math.tanh(-0.3 * x + 0.2)
    expected = 0.7 * h1 - 0.4 * h2 + 0.05
    assert mlp.forward(net, np.array([x]))[0] == pytest.approx(expected, rel=1e-15)


def test_forward_batch_matches_loop():
    # batched and per-sample matmuls may differ in summation order only
    net = mlp.init([2, 7, 3], 1)
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((5, 2))
    batch = mlp.forward(net, xs)
    for i in range(5):
        npt.assert_allclose(batch[i], mlp.forward(net, xs[i]), rtol=1e-13, atol=1e-16)


def test_forward_dimension_mismatch():
    net = mlp.init([2, 3, 1], 0)
    with pytest.raises(DataError, match="input width 3 != 2"):
        mlp.forward(net, np.zeros(3))


# --- mse ---------------------------------------------------------------------

def test_mse_values():
    assert mlp.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mlp.mse([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert mlp.mse([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == pytest.approx(4.0 / 3.0)


def test_mse_errors():
    with pytest.raises(DataError, match="shape mismatch"):
        mlp.mse([1.0, 2.0], [1.0])
    with pytest.raises(DataError, match="mse over an empty batch"):
        mlp.mse([], [])


# --- backward ----------------------------------------------------------------

def test_backward_zero_error_gives_zero_gradients():
    net = mlp.init([1, 4, 1], 2)
    x = np.array([[0.3]])
    t = mlp.forward(net, x)
    g = mlp.backward(net, x, t, mlp.Gradients(net))
    for arr in g.weights + g.biases:
        npt.assert_array_equal(arr, np.zeros_like(arr))


def test_backward_affine_hand_derivative():
    w, b, x, t = 0.7, 0.2, 1.3, 2.0
    net = mlp.Mlp([1, 1], np.array([w, b]))
    g = mlp.backward(net, np.array([[x]]), np.array([[t]]), mlp.Gradients(net))
    resid = w * x + b - t
    assert g.weights[0][0, 0] == pytest.approx(2.0 * x * resid, rel=1e-15)
    assert g.biases[0][0] == pytest.approx(2.0 * resid, rel=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    for arch in ([1, 10, 1], [2, 9, 12, 2], [3, 6, 1]):
        net = mlp.init(arch, 20)
        x = rng.standard_normal((5, arch[0]))
        t = mlp.forward(net, x) + 0.01 * rng.standard_normal((5, arch[-1]))
        assert grad_check(net, x, t) < 1e-6


def test_backward_permutation_invariant():
    rng = np.random.default_rng(5)
    net = mlp.init([1, 20, 1], 5)
    x = rng.standard_normal((10, 1))
    t = rng.standard_normal((10, 1))
    g1 = mlp.backward(net, x, t, mlp.Gradients(net))
    perm = rng.permutation(10)
    g2 = mlp.backward(net, x[perm], t[perm], mlp.Gradients(net))
    for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
        npt.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


# --- optimizer steps ---------------------------------------------------------

def test_sgd_step_values():
    net = mlp.Mlp([1, 1], np.array([1.0, 0.0]))
    g = mlp.Gradients(net)
    g.flat[:] = [0.5, 0.0]
    mlp.sgd_step(net, g, 0.0)
    assert net.weights[0][0, 0] == 1.0
    mlp.sgd_step(net, g, 0.1)
    assert net.weights[0][0, 0] == pytest.approx(0.95, rel=1e-15)


def test_sgd_two_steps_equal_one_double_step():
    a = mlp.Mlp([1, 1], np.array([1.0, 0.5]))
    b = mlp.Mlp(a.layer_sizes, a.theta.copy())
    g = mlp.Gradients(a)
    g.flat[:] = [0.3, -0.2]
    mlp.sgd_step(a, g, 0.01)
    mlp.sgd_step(a, g, 0.01)
    mlp.sgd_step(b, g, 0.02)
    npt.assert_allclose(a.weights[0], b.weights[0], rtol=1e-15)
    npt.assert_allclose(a.biases[0], b.biases[0], rtol=1e-15)


def test_adam_first_step_is_signed_learning_rate():
    net = mlp.Mlp([1, 1], np.array([1.0, 1.0]))
    g = mlp.Gradients(net)
    g.flat[:] = [0.4, -0.7]
    cfg = mlp.TrainConfig(optimizer="adam", learning_rate=1e-3, epochs=1, seed=0)
    state = mlp.adam_init(net)
    mlp.adam_step(net, g, state, cfg)
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 1e-3, rel=1e-7)
    assert net.biases[0][0] == pytest.approx(1.0 + 1e-3, rel=1e-7)
    assert state.t == 1


def test_adam_zero_gradient_leaves_parameters():
    net = mlp.init([1, 3, 1], 0)
    before = mlp.Mlp(net.layer_sizes, net.theta.copy())
    g = mlp.Gradients(net)
    cfg = mlp.TrainConfig(optimizer="adam", epochs=1, seed=0)
    state = mlp.adam_init(net)
    for _ in range(5):
        mlp.adam_step(net, g, state, cfg)
    for a, b in zip(net.weights + net.biases, before.weights + before.biases):
        npt.assert_array_equal(a, b)


def test_adam_ten_steps_match_scalar_trace():
    net = mlp.Mlp([1, 1], np.array([1.0, 0.0]))
    cfg = mlp.TrainConfig(optimizer="adam", learning_rate=1e-3, epochs=1, seed=0)
    state = mlp.adam_init(net)
    g = mlp.Gradients(net)
    for _ in range(10):
        g.flat[:] = [0.5, 0.0]
        mlp.adam_step(net, g, state, cfg)

    # independent scalar trace of the same update rule
    m = v = 0.0
    theta = 1.0
    for t in range(1, 11):
        m = 0.9 * m + 0.1 * 0.5
        v = 0.999 * v + 0.001 * 0.25
        theta -= 1e-3 * (m / (1.0 - 0.9 ** t)) / (math.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
    assert net.weights[0][0, 0] == pytest.approx(theta, abs=1e-15)
    assert theta == pytest.approx(1.0 - 10e-3, rel=2e-3)


@pytest.mark.parametrize("t0", [0, 350, 37_405])
def test_adam_step_matches_plain_formula_across_bias_correction_rounding(t0):
    # 1 - 0.9**t first rounds to 1.0 at t = 356 and 1 - 0.999**t at 37,412
    rng = np.random.default_rng(t0)
    net = mlp.init([2, 9, 3], 6)
    cfg = mlp.TrainConfig(optimizer="adam", epochs=1, seed=0)
    state = mlp.adam_init(net)
    state.t = t0
    state.m[:] = rng.standard_normal(state.m.size)
    state.v[:] = rng.uniform(0.0, 1.0, state.v.size)
    theta, m, v = net.theta.copy(), state.m.copy(), state.v.copy()
    g = mlp.Gradients(net)
    for t in range(t0 + 1, t0 + 12):
        g.flat[:] = rng.standard_normal(g.flat.size)
        mlp.adam_step(net, g, state, cfg)
        m = 0.9 * m + (1.0 - 0.9) * g.flat
        v = 0.999 * v + (1.0 - 0.999) * g.flat ** 2
        theta = theta - 1e-3 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
    assert state.t == t0 + 11
    for got, want in ((net.theta, theta), (state.m, m), (state.v, v)):
        assert got.tobytes() == want.tobytes()


def test_adam_second_moments_stay_nonnegative():
    rng = np.random.default_rng(13)
    net = mlp.init([2, 6, 2], 1)
    cfg = mlp.TrainConfig(optimizer="adam", epochs=1, seed=0)
    state = mlp.adam_init(net)
    g = mlp.Gradients(net)
    for _ in range(50):
        g.flat[:] = rng.standard_normal(g.flat.size)
        mlp.adam_step(net, g, state, cfg)
        assert np.all(state.v >= 0.0)


# --- train -------------------------------------------------------------------

def test_train_zero_epochs_is_identity():
    net = mlp.init([1, 5, 1], 0)
    before = mlp.Mlp(net.layer_sizes, net.theta.copy())
    x = np.array([[0.0], [1.0]])
    data = mlp.TrainSplit(x, x, x, x)
    cfg = mlp.TrainConfig(optimizer="sgd", learning_rate=0.1, epochs=0, seed=0)
    net, hist = mlp.train(net, data, cfg, record=True)
    assert hist.train_mse == [] and hist.test_mse == []
    for a, b in zip(net.weights, before.weights):
        npt.assert_array_equal(a, b)


def test_train_fits_linear_function():
    x = np.linspace(0.0, 1.0, 50)[:, None]
    data = mlp.TrainSplit(x, 2.0 * x, x, 2.0 * x)
    net = mlp.init([1, 8, 1], 0)
    cfg = mlp.TrainConfig(optimizer="adam", learning_rate=1e-2, batch_size=16,
                          epochs=2000, seed=0)
    net, hist = mlp.train(net, data, cfg, record=True)
    assert hist.train_mse[-1] < 1e-4
    assert len(hist.train_mse) == 2000


def test_train_deterministic():
    x = np.linspace(0.0, 1.0, 30)[:, None]
    y = np.sin(3.0 * x)
    data = mlp.TrainSplit(x, y, x, y)
    runs = []
    for _ in range(2):
        net = mlp.init([1, 6, 1], 11)
        cfg = mlp.TrainConfig(optimizer="adam", learning_rate=1e-3, batch_size=8,
                              epochs=50, seed=11)
        net, hist = mlp.train(net, data, cfg, record=True)
        runs.append((net, hist))
    assert runs[0][1].train_mse == runs[1][1].train_mse
    assert runs[0][1].test_mse == runs[1][1].test_mse
    for a, b in zip(runs[0][0].weights, runs[1][0].weights):
        npt.assert_array_equal(a, b)


def test_train_sgd_full_batch_monotone_on_convex_problem():
    x = np.linspace(0.0, 1.0, 20)[:, None]
    y = 1.5 * x + 0.3
    data = mlp.TrainSplit(x, y, x, y)
    net = mlp.Mlp([1, 1], np.zeros(2))
    cfg = mlp.TrainConfig(optimizer="sgd", learning_rate=0.05, batch_size=20,
                          epochs=200, seed=0)
    net, hist = mlp.train(net, data, cfg, record=True)
    diffs = np.diff(hist.train_mse)
    assert np.all(diffs <= 1e-15)


def test_train_nan_loss_reports_epoch():
    x = np.array([[1.0], [2.0]])
    y = np.array([[1.0], [0.0]])
    net = mlp.init([1, 4, 1], 0)
    cfg = mlp.TrainConfig(optimizer="sgd", learning_rate=1e6, batch_size=2,
                          epochs=50, seed=0)
    with pytest.raises(TrainingError, match="epoch"):
        mlp.train(net, mlp.TrainSplit(x, y, x, y), cfg, record=True)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_train_without_record_gives_the_same_bits(optimizer):
    x = np.linspace(0.0, 1.0, 37)[:, None]
    y = np.column_stack([np.sin(3.0 * x[:, 0]), np.cos(2.0 * x[:, 0])])
    data = mlp.TrainSplit(x, y, x[::3], y[::3])
    cfg = mlp.TrainConfig(optimizer=optimizer, learning_rate=1e-2, batch_size=16,
                          epochs=6, seed=2)
    recorded, hist = mlp.train(mlp.init([1, 7, 5, 2], 4), data, cfg, record=True)
    bare, empty = mlp.train(mlp.init([1, 7, 5, 2], 4), data, cfg, record=False)
    assert len(hist.train_mse) == 6
    assert np.array_equal(bare.theta, recorded.theta)
    assert empty.train_mse == []
    assert empty.test_mse == []


def test_train_without_record_reports_divergence_epoch():
    x = np.array([[1.0], [2.0]])
    y = np.array([[1.0], [0.0]])
    net = mlp.init([1, 4, 1], 0)
    cfg = mlp.TrainConfig(optimizer="sgd", learning_rate=1e6, batch_size=2,
                          epochs=50, seed=0)
    with pytest.raises(TrainingError, match="epoch"):
        mlp.train(net, mlp.TrainSplit(x, y, x, y), cfg, record=False)


def test_train_config_validation():
    with pytest.raises(ConfigError, match="optimizer must be"):
        mlp.TrainConfig(optimizer="rmsprop")
    for lr in (0.0, np.inf, np.nan):
        with pytest.raises(ConfigError, match="learning_rate must be finite and > 0"):
            mlp.TrainConfig(learning_rate=lr)
    with pytest.raises(ConfigError, match="batch_size must be >= 1"):
        mlp.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match="epochs must be >= 0"):
        mlp.TrainConfig(epochs=-1)


# Independent reference: the per-array backward and optimizer loop, written
# out with one list entry per weight matrix and bias.  mlp.train must match it
# bit for bit, whatever its internal parameter layout.

def _ref_forward(weights, biases, x):
    acts = [x]
    for l, (w, b) in enumerate(zip(weights, biases)):
        a = acts[-1] @ w.T + b
        acts.append(np.tanh(a) if l < len(weights) - 1 else a)
    return acts


def _ref_backward(weights, biases, x, t):
    acts = _ref_forward(weights, biases, x)
    gw, gb = [None] * len(weights), [None] * len(weights)
    delta = 2.0 * (acts[-1] - t) / t.size
    for l in range(len(weights) - 1, -1, -1):
        gw[l] = delta.T @ acts[l]
        gb[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l]) * (1.0 - acts[l] ** 2)
    return gw + gb


def _ref_train(sizes, init_seed, data, cfg):
    rng = np.random.default_rng(init_seed)
    weights = [rng.uniform(-1.0 / np.sqrt(i), 1.0 / np.sqrt(i), size=(o, i))
               for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(o) for o in sizes[1:]]
    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(cfg.seed)
    n, step = data.x_train.shape[0], 0
    train_mse, test_mse = [], []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            grads = _ref_backward(weights, biases, data.x_train[idx], data.y_train[idx])
            if cfg.optimizer == "sgd":
                for p, g in zip(params, grads):
                    p -= cfg.learning_rate * g
                continue
            step += 1
            # Kingma & Ba's beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8
            c1, c2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= 0.9
                mi += (1.0 - 0.9) * g
                vi *= 0.999
                vi += (1.0 - 0.999) * g ** 2
                p -= cfg.learning_rate * (mi / c1) / (np.sqrt(vi / c2) + 1e-8)
        for xs, ys, hist in ((data.x_train, data.y_train, train_mse),
                             (data.x_test, data.y_test, test_mse)):
            hist.append(float(np.mean((_ref_forward(weights, biases, xs)[-1] - ys) ** 2)))
    return params, train_mse, test_mse


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("sizes", [[1, 100, 100, 1], [1, 200, 200, 3]])
def test_train_matches_per_array_reference_bitwise(sizes, optimizer):
    rng = np.random.default_rng(21)
    x = rng.uniform(0.0, 1.0, size=(45, 1))
    y = np.sin(4.0 * x + np.arange(sizes[-1]))
    data = mlp.TrainSplit(x[:37], y[:37], x[37:], y[37:])  # 37 = 2 * 16 + 5
    cfg = mlp.TrainConfig(optimizer=optimizer, learning_rate=1e-2, batch_size=16,
                          epochs=3, seed=5)
    want, want_train, want_test = _ref_train(sizes, 9, data, cfg)
    net, hist = mlp.train(mlp.init(sizes, 9), data, cfg, record=True)
    for got, ref in zip(net.weights + net.biases, want):
        assert got.tobytes() == ref.tobytes()
    assert hist.train_mse == want_train
    assert hist.test_mse == want_test


def test_parameters_are_views_of_theta():
    net = mlp.init([2, 5, 3], 4)
    assert net.theta.flags.c_contiguous and net.theta.size == 2 * 5 + 5 * 3 + 5 + 3
    for p in net.weights + net.biases:
        assert np.shares_memory(p, net.theta)
    npt.assert_array_equal(net.theta, np.concatenate([p.ravel() for p in
                                                      net.weights + net.biases]))
    net.theta[:] = 0.5
    assert all(np.all(p == 0.5) for p in net.weights + net.biases)


def test_copy_shares_no_memory():
    # a copy is a net around a copy of theta
    net = mlp.init([1, 6, 2], 3)
    dup = mlp.Mlp(net.layer_sizes, net.theta.copy())
    assert dup.theta.tobytes() == net.theta.tobytes()
    for p in [dup.theta] + dup.weights + dup.biases:
        assert not np.shares_memory(p, net.theta)
    for p in dup.weights + dup.biases:
        assert np.shares_memory(p, dup.theta)


def test_constructor_wraps_theta_and_checks_size():
    theta = np.array([2.0, 1.0])
    net = mlp.Mlp([1, 1], theta)
    assert net.theta is theta
    assert net.weights[0][0, 0] == 2.0 and net.biases[0][0] == 1.0
    for bad in (np.zeros(4), np.zeros((2, 1))):
        with pytest.raises(DataError, match="does not fit layers"):
            mlp.Mlp([1, 1], bad)


def test_gradients_are_zero_in_the_net_layout():
    net = mlp.init([2, 5, 3], 4)
    g = mlp.Gradients(net)
    assert g.flat.shape == net.theta.shape and not g.flat.any()
    assert not np.shares_memory(g.flat, net.theta)
    assert [a.shape for a in g.weights + g.biases] == \
        [p.shape for p in net.weights + net.biases]
    for a in g.weights + g.biases:
        assert np.shares_memory(a, g.flat)


def test_optimizer_steps_reject_gradients_of_another_size():
    net = mlp.init([1, 3, 1], 0)
    g = mlp.Gradients(mlp.init([1, 3], 0))
    with pytest.raises(DataError, match="gradient entries for"):
        mlp.sgd_step(net, g, 0.1)
    with pytest.raises(DataError, match="gradient entries for"):
        mlp.adam_step(net, g, mlp.adam_init(net), mlp.TrainConfig(epochs=1))


# --- grad_check --------------------------------------------------------------

def test_grad_check_small_nets():
    rng = np.random.default_rng(30)
    net = mlp.init([1, 10, 1], 30)
    x = rng.standard_normal((5, 1))
    t = mlp.forward(net, x) + 0.01 * rng.standard_normal((5, 1))
    assert grad_check(net, x, t) < 1e-6


def test_grad_check_affine_net_tight():
    net = mlp.Mlp([1, 1], np.array([0.8, 0.1]))
    x = np.array([[0.5], [1.5]])
    t = np.array([[1.0], [0.0]])
    assert grad_check(net, x, t) < 1e-9


def test_grad_check_zero_gradient_batch():
    # zero inputs and targets on a zero-bias net: analytic gradients vanish
    # and every central difference is exactly symmetric, so the guard
    # denominator makes the reported error 0
    net = mlp.init([1, 3, 1], 1)
    x = np.array([[0.0]])
    t = np.array([[0.0]])
    assert grad_check(net, x, t) == 0.0


# --- persistence -------------------------------------------------------------

def test_save_load_round_trip_bit_exact(tmp_path):
    net = mlp.init([1, 12, 3], 99)
    in_sc = dataset.scale_fit(np.array([1.0, 9.0]), dataset.LINEAR_MINMAX)
    out_sc = dataset.scale_fit(np.array([[1e-5, 2e-4, 3e-3]]), dataset.LOG10)
    path = tmp_path / "model.json"
    mlp.save_model(net, in_sc, out_sc, path, meta={"experiment": "example2"})
    net2, in2, out2, meta = mlp.load_model(path)
    assert meta["experiment"] == "example2"
    assert net2.layer_sizes == [1, 12, 3]
    assert net2.theta.tobytes() == net.theta.tobytes()
    assert all(np.shares_memory(p, net2.theta) for p in net2.weights + net2.biases)
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 1.0, size=(100, 1))
    npt.assert_array_equal(mlp.forward(net, xs), mlp.forward(net2, xs))
    assert in2.scheme == dataset.LINEAR_MINMAX and out2.scheme == dataset.LOG10


def _save_small_model(path):
    in_sc = dataset.scale_fit(np.array([1.0, 9.0]), dataset.LINEAR_MINMAX)
    out_sc = dataset.scale_fit(np.array([1e-5, 2e-4]), dataset.LOG10)
    mlp.save_model(mlp.init([1, 2, 1], 0), in_sc, out_sc, path, {})


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.json"
    _save_small_model(path)
    doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(doc)
    with pytest.raises(ModelFileError, match="model format version 99"):
        mlp.load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "model.json"
    _save_small_model(path)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(ModelFileError, match="cannot parse model file"):
        mlp.load_model(path)


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(ModelFileError, match="is not a fem-surrogate model file"):
        mlp.load_model(path)
