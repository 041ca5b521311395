"""Fully connected feed-forward network with hand-written backpropagation,
trained by minibatch SGD or Adam on mean squared error.

Hidden layers use tanh, the output layer is linear, and all parameters are
double precision.  Everything is seeded: init draws from one generator,
minibatch shuffling from another, so (init seed, config) fully determine a
trained model.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import Scaler
from .errors import (
    CorruptModel,
    DimensionMismatch,
    EmptyBatch,
    InvalidArchitecture,
    InvalidParams,
    NanLoss,
    VersionMismatch,
)

MODEL_FORMAT_VERSION = 1


@dataclass
class Mlp:
    """weights[l] has shape (layer_sizes[l+1], layer_sizes[l]); biases[l]
    has shape (layer_sizes[l+1],)."""

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "tanh"

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Mlp":
        return Mlp(list(self.layer_sizes), [w.copy() for w in self.weights],
                   [b.copy() for b in self.biases], self.activation)


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class TrainConfig:
    optimizer: str = "adam"          # 'sgd' | 'adam'
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 1000
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidParams(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if not self.learning_rate > 0.0:
            raise InvalidParams(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InvalidParams(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise InvalidParams(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise InvalidParams("Adam betas must lie in (0, 1)")
        if not self.epsilon > 0.0:
            raise InvalidParams(f"epsilon must be > 0, got {self.epsilon}")


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the model parameters."""

    m_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_weights: list[np.ndarray]
    v_biases: list[np.ndarray]
    t: int = 0


@dataclass
class TrainHistory:
    train_mse: list[float] = field(default_factory=list)
    test_mse: list[float] | None = None


@dataclass
class TrainSplit:
    """Scaled training arrays: x (n, d_in), y (n, d_out).  Scaled targets may
    be negative (log space)."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray | None = None
    y_test: np.ndarray | None = None


def init(layer_sizes, seed: int) -> Mlp:
    """Weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise InvalidArchitecture(f"need at least input and output layers, got {sizes}")
    if any(s < 1 for s in sizes):
        raise InvalidArchitecture(f"all layer sizes must be >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(sizes, weights, biases)


def forward(net: Mlp, x) -> np.ndarray:
    """Evaluate the network on one input (d_in,) or a batch (n, d_in)."""
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    a = x_arr[None, :] if single else x_arr
    if a.ndim != 2 or a.shape[1] != net.layer_sizes[0]:
        raise DimensionMismatch(
            f"input width {a.shape[-1] if a.ndim else 0} != {net.layer_sizes[0]}")
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if l < last:
            a = np.tanh(a)
    return a[0] if single else a


def mse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise DimensionMismatch(f"shape mismatch {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptyBatch("mse over an empty batch")
    return float(np.mean((p - t) ** 2))


def backward(net: Mlp, x, targets) -> Gradients:
    """Analytic gradient of mse(forward(net, x), targets) for every weight
    and bias."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(targets, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if t.ndim == 1:
        t = t[None, :]
    if x.shape[0] != t.shape[0] or x.shape[1] != net.layer_sizes[0] \
            or t.shape[1] != net.layer_sizes[-1]:
        raise DimensionMismatch(
            f"batch shapes {x.shape}, {t.shape} do not fit layers {net.layer_sizes}")
    if x.shape[0] == 0:
        raise EmptyBatch("backward over an empty batch")

    last = net.n_layers - 1
    acts = [x]
    a = x
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if l < last:
            a = np.tanh(a)
        acts.append(a)

    gw = [None] * net.n_layers
    gb = [None] * net.n_layers
    delta = 2.0 * (acts[-1] - t) / t.size  # d(mse)/d(output)
    for l in range(last, -1, -1):
        gw[l] = delta.T @ acts[l]
        gb[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ net.weights[l]) * (1.0 - acts[l] ** 2)  # tanh'
    return Gradients(gw, gb)


def _check_grad_shapes(net: Mlp, grads: Gradients) -> None:
    ok = len(grads.weights) == net.n_layers and len(grads.biases) == net.n_layers \
        and all(g.shape == w.shape for g, w in zip(grads.weights, net.weights)) \
        and all(g.shape == b.shape for g, b in zip(grads.biases, net.biases))
    if not ok:
        raise DimensionMismatch("gradient shapes do not mirror the model parameters")


def sgd_step(net: Mlp, grads: Gradients, learning_rate: float) -> Mlp:
    """In-place theta <- theta - lr * g."""
    _check_grad_shapes(net, grads)
    for w, b, gw, gb in zip(net.weights, net.biases, grads.weights, grads.biases):
        w -= learning_rate * gw
        b -= learning_rate * gb
    return net


def adam_init(net: Mlp) -> AdamState:
    return AdamState(
        m_weights=[np.zeros_like(w) for w in net.weights],
        m_biases=[np.zeros_like(b) for b in net.biases],
        v_weights=[np.zeros_like(w) for w in net.weights],
        v_biases=[np.zeros_like(b) for b in net.biases],
    )


def adam_step(net: Mlp, grads: Gradients, state: AdamState,
              config: TrainConfig) -> tuple[Mlp, AdamState]:
    """One bias-corrected Adam update, in place:
    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)."""
    _check_grad_shapes(net, grads)
    state.t += 1
    b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.epsilon
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    params = zip(net.weights + net.biases,
                 grads.weights + grads.biases,
                 state.m_weights + state.m_biases,
                 state.v_weights + state.v_biases)
    for theta, g, m, v in params:
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g ** 2
        theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return net, state


def train(net: Mlp, data: TrainSplit, config: TrainConfig) -> tuple[Mlp, TrainHistory]:
    """Seeded-shuffled minibatch epochs; records full-batch train (and test)
    MSE after every epoch.  Raises NanLoss naming the epoch if the loss goes
    non-finite."""
    x, y = np.asarray(data.x_train, dtype=float), np.asarray(data.y_train, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"x/y sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] == 0:
        raise EmptyBatch("empty training set")
    has_test = data.x_test is not None and len(data.x_test) > 0
    rng = np.random.default_rng(config.seed)
    state = adam_init(net) if config.optimizer == "adam" else None
    n = x.shape[0]

    history = TrainHistory(test_mse=[] if has_test else None)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
        for epoch in range(config.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                grads = backward(net, x[idx], y[idx])
                if config.optimizer == "adam":
                    adam_step(net, grads, state, config)
                else:
                    sgd_step(net, grads, config.learning_rate)
            train_loss = mse(forward(net, x), y)
            if not np.isfinite(train_loss):
                raise NanLoss(f"training loss became non-finite at epoch {epoch}")
            history.train_mse.append(train_loss)
            if has_test:
                history.test_mse.append(mse(forward(net, data.x_test), data.y_test))
    return net, history


def grad_check(net: Mlp, x, targets, h: float = 1e-6) -> float:
    """Max relative deviation of backward() from central finite differences
    over every parameter: |g_a - g_n| / max(1e-12, |g_a| + |g_n|)."""
    if not 1e-8 <= h <= 1e-4:
        raise InvalidParams(f"h must lie in [1e-8, 1e-4], got {h}")
    x = np.asarray(x, dtype=float)
    t = np.asarray(targets, dtype=float)
    analytic = backward(net, x, t)

    worst = 0.0
    for theta, g in zip(net.weights + net.biases, analytic.weights + analytic.biases):
        flat = theta.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = mse(forward(net, x), t)
            flat[i] = keep - h
            down = mse(forward(net, x), t)
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1e-12, abs(gflat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst


# --- model persistence -------------------------------------------------------

def save_model(net: Mlp, input_scaler: Scaler | None, target_scaler: Scaler | None,
               path, meta: dict | None = None) -> None:
    """Self-describing JSON document: version, layer sizes, activation,
    row-major parameter arrays, and the bundled scalers so predictions are
    self-contained."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "fem-surrogate-mlp",
        "layer_sizes": list(net.layer_sizes),
        "activation": net.activation,
        "weights": [w.reshape(-1).tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "input_scaler": None if input_scaler is None else input_scaler.to_dict(),
        "target_scaler": None if target_scaler is None else target_scaler.to_dict(),
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> tuple[Mlp, Scaler | None, Scaler | None, dict]:
    """Inverse of save_model; parameters round-trip bit for bit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"cannot parse model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "fem-surrogate-mlp":
        raise CorruptModel(f"{path} is not a fem-surrogate model file")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"model format version {version!r}, expected {MODEL_FORMAT_VERSION}")
    try:
        sizes = [int(s) for s in doc["layer_sizes"]]
        weights, biases = [], []
        for fan_in, fan_out, wflat, b in zip(sizes[:-1], sizes[1:],
                                             doc["weights"], doc["biases"]):
            w = np.array(wflat, dtype=float).reshape(fan_out, fan_in)
            weights.append(w)
            biases.append(np.array(b, dtype=float))
        if len(weights) != len(sizes) - 1:
            raise ValueError("parameter count does not match layer sizes")
        net = Mlp(sizes, weights, biases, doc["activation"])
        in_sc = doc.get("input_scaler")
        out_sc = doc.get("target_scaler")
        return (net,
                None if in_sc is None else Scaler.from_dict(in_sc),
                None if out_sc is None else Scaler.from_dict(out_sc),
                doc.get("meta", {}))
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptModel(f"malformed model file {path}: {exc}") from exc
