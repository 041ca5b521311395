"""Fully connected feed-forward network with hand-written backpropagation,
trained by minibatch SGD or Adam on mean squared error.

Hidden layers use tanh, the output layer is linear, and all parameters are
double precision.  Everything is seeded: init draws from one generator,
minibatch shuffling from another, so (init seed, config) fully determine a
trained model.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import LINEAR_MINMAX, Scaler
from .errors import ConfigError, DataError, ModelFileError, TrainingError

MODEL_FORMAT_VERSION = 1


def _shapes(layer_sizes) -> list[tuple[int, ...]]:
    """Shapes of every weight matrix, then of every bias: the order of
    Mlp.theta."""
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    return [(fan_out, fan_in) for fan_in, fan_out in pairs] + [(fan_out,) for _, fan_out in pairs]


def _n_params(layer_sizes) -> int:
    return sum(math.prod(s) for s in _shapes(layer_sizes))


def _layers(flat: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Consecutive row-major views into flat, one per shape; shapes lists
    every weight's, then every bias's, so the views split into the weights
    and the biases."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views[:len(views) // 2], views[len(views) // 2:]


class Mlp:
    """All parameters live in theta, one contiguous float64 vector: every
    weight matrix row-major, then every bias.  weights[l], of shape
    (layer_sizes[l+1], layer_sizes[l]), and biases[l], of shape
    (layer_sizes[l+1],), are views into it, so an in-place update of theta
    updates the layers.  The constructor wraps the given vector without
    copying it; a vector of the wrong size raises DataError."""

    def __init__(self, layer_sizes, theta: np.ndarray):
        size = _n_params(layer_sizes)
        if theta.shape != (size,):
            raise DataError(
                f"parameter vector of shape {theta.shape} does not fit layers "
                f"{list(layer_sizes)}, which need ({size},)")
        self.layer_sizes, self.theta = list(layer_sizes), theta
        self.weights, self.biases = _layers(theta, _shapes(layer_sizes))

    @property
    def n_layers(self) -> int:
        return len(self.weights)


class Gradients:
    """d(mse)/d(theta) in the layout of Mlp.theta: one flat vector, with
    per-layer weights and biases views into it.  The constructor gives the
    zero vector in net's layout."""

    def __init__(self, net: Mlp):
        self.flat = np.zeros_like(net.theta)
        self.weights, self.biases = _layers(self.flat, _shapes(net.layer_sizes))


# Adam's moment decay rates and denominator guard: Kingma & Ba's values.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    optimizer: str = "adam"          # 'sgd' | 'adam'
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class AdamState:
    """First/second moment accumulators in the layout of Mlp.theta, the step
    count, and a (2, n) work space that adam_step writes its temporaries to."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty((2, self.m.size))


@dataclass
class TrainHistory:
    train_mse: list[float] = field(default_factory=list)
    test_mse: list[float] = field(default_factory=list)


@dataclass
class TrainSplit:
    """Scaled training and held-out arrays: x (n, d_in), y (n, d_out).
    Scaled targets may be negative (log space)."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def init(layer_sizes, seed: int) -> Mlp:
    """Weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ConfigError(f"need at least input and output layers, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ConfigError(f"all layer sizes must be >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    net = Mlp(sizes, np.zeros(_n_params(sizes)))
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def forward(net: Mlp, x) -> np.ndarray:
    """Evaluate the network on one input (d_in,) or a batch (n, d_in)."""
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    a = x_arr[None, :] if single else x_arr
    if a.ndim != 2 or a.shape[1] != net.layer_sizes[0]:
        raise DataError(
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
        raise DataError(f"shape mismatch {p.shape} vs {t.shape}")
    if p.size == 0:
        raise DataError("mse over an empty batch")
    return float(np.mean((p - t) ** 2))


def backward(net: Mlp, x, targets, out: Gradients) -> Gradients:
    """Analytic gradient of mse(forward(net, x), targets) for every weight
    and bias, written into out, whose flat vector must have the size of
    net.theta."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(targets, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if t.ndim == 1:
        t = t[None, :]
    if x.shape[0] != t.shape[0] or x.shape[1] != net.layer_sizes[0] \
            or t.shape[1] != net.layer_sizes[-1]:
        raise DataError(
            f"batch shapes {x.shape}, {t.shape} do not fit layers {net.layer_sizes}")
    if x.shape[0] == 0:
        raise DataError("backward over an empty batch")
    _check_size(net, out)

    last = net.n_layers - 1
    acts = [x]
    a = x
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if l < last:
            a = np.tanh(a)
        acts.append(a)

    delta = 2.0 * (acts[-1] - t) / t.size  # d(mse)/d(output)
    for l in range(last, -1, -1):
        np.matmul(delta.T, acts[l], out=out.weights[l])
        delta.sum(axis=0, out=out.biases[l])
        if l > 0:
            delta = (delta @ net.weights[l]) * (1.0 - acts[l] ** 2)  # tanh'
    return out


def _check_size(net: Mlp, grads: Gradients) -> None:
    if grads.flat.size != net.theta.size:
        raise DataError(
            f"{grads.flat.size} gradient entries for {net.theta.size} parameters")


def sgd_step(net: Mlp, grads: Gradients, learning_rate: float) -> Mlp:
    """In-place theta <- theta - lr * g."""
    _check_size(net, grads)
    net.theta -= learning_rate * grads.flat
    return net


def adam_init(net: Mlp) -> AdamState:
    return AdamState(np.zeros_like(net.theta), np.zeros_like(net.theta))


def adam_step(net: Mlp, grads: Gradients, state: AdamState,
              config: TrainConfig) -> tuple[Mlp, AdamState]:
    """One bias-corrected Adam update (Kingma & Ba 2015, Algorithm 1) with
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, in place over the
    whole parameter vector:
    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    Every ufunc writes into m, v, theta or the state's scratch, in the
    operation order of these formulas, so nothing is allocated."""
    _check_size(net, grads)
    state.t += 1
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, config.learning_rate, ADAM_EPSILON
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    g, m, v = grads.flat, state.m, state.v
    s, u = state.scratch
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=s)
    v *= b2
    v += np.multiply(np.square(g, out=s), 1.0 - b2, out=s)
    np.multiply(np.divide(m, c1, out=s), lr, out=s)            # lr * m_hat
    np.add(np.sqrt(np.divide(v, c2, out=u), out=u), eps, out=u)  # sqrt(v_hat) + eps
    net.theta -= np.divide(s, u, out=s)
    return net, state


def train(net: Mlp, data: TrainSplit, config: TrainConfig,
          record: bool) -> tuple[Mlp, TrainHistory]:
    """Seeded-shuffled minibatch epochs.  With record, appends the full-batch
    train and test MSE to the history after every epoch and raises TrainingError
    naming the epoch if the loss goes non-finite.  Without it, the history
    stays empty and the per-epoch check is that theta is finite instead; the
    trained parameters are the same bits either way."""
    x, y = np.asarray(data.x_train, dtype=float), np.asarray(data.y_train, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise DataError(f"x/y sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] == 0:
        raise DataError("empty training set")
    rng = np.random.default_rng(config.seed)
    state = adam_init(net) if config.optimizer == "adam" else None
    n = x.shape[0]
    grads = Gradients(net)
    batch = min(config.batch_size, n)
    x_batch, y_batch = np.empty((batch,) + x.shape[1:]), np.empty((batch,) + y.shape[1:])

    history = TrainHistory()
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
        for epoch in range(config.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                xb, yb = x_batch[:idx.size], y_batch[:idx.size]
                # idx is a slice of a permutation, so always in range; "clip"
                # spares the buffered copy that take's default "raise" makes
                x.take(idx, axis=0, out=xb, mode="clip")
                y.take(idx, axis=0, out=yb, mode="clip")
                backward(net, xb, yb, out=grads)
                if config.optimizer == "adam":
                    adam_step(net, grads, state, config)
                else:
                    sgd_step(net, grads, config.learning_rate)
            if record:
                train_loss = mse(forward(net, x), y)
                if not np.isfinite(train_loss):
                    raise TrainingError(f"training loss became non-finite at epoch {epoch}")
                history.train_mse.append(train_loss)
                history.test_mse.append(mse(forward(net, data.x_test), data.y_test))
            elif not np.isfinite(net.theta).all():
                raise TrainingError(f"parameters became non-finite at epoch {epoch}")
    return net, history


# --- model persistence -------------------------------------------------------

def save_model(net: Mlp, input_scaler: Scaler, target_scaler: Scaler,
               path, meta: dict) -> None:
    """Self-describing JSON document: version, layer sizes, activation
    (always tanh), row-major parameter arrays, and the bundled scalers so
    predictions are self-contained."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "fem-surrogate-mlp",
        "layer_sizes": list(net.layer_sizes),
        "activation": "tanh",
        "weights": [w.reshape(-1).tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "input_scaler": input_scaler.to_dict(),
        "target_scaler": target_scaler.to_dict(),
        "meta": meta,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> tuple[Mlp, Scaler, Scaler, dict]:
    """Inverse of save_model; parameters round-trip bit for bit.  A file
    without both scalers is corrupt: a net alone predicts nothing physical.
    So is an input scaler that is not min-max over the net's inputs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot parse model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "fem-surrogate-mlp":
        raise ModelFileError(f"{path} is not a fem-surrogate model file")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFileError(
            f"model format version {version!r}, expected {MODEL_FORMAT_VERSION}")
    try:
        sizes = [int(s) for s in doc["layer_sizes"]]
        if doc["activation"] != "tanh":
            raise ValueError(f"activation must be 'tanh', got {doc['activation']!r}")
        if not len(doc["weights"]) == len(doc["biases"]) == len(sizes) - 1:
            raise ValueError(
                f"{len(sizes) - 1} layers need as many weight and bias arrays, got "
                f"{len(doc['weights'])} and {len(doc['biases'])}")
        # every array is stored flat: a weight matrix row-major, a bias as is
        arrays = [np.array(a, dtype=float) for a in doc["weights"] + doc["biases"]]
        found = [a.shape for a in arrays]
        expected = [(math.prod(s),) for s in _shapes(sizes)]
        if found != expected:
            raise ValueError(f"parameter arrays of shapes {found} for layers {sizes} "
                             f"need {expected}")
        theta = np.concatenate(arrays)
        if not np.isfinite(theta).all():
            raise ValueError("weights and biases must be finite")
        for key in ("input_scaler", "target_scaler"):
            if not isinstance(doc[key], dict):
                raise ValueError(f"{key} must be a scaler object, got {doc[key]!r}")
        input_scaler = Scaler.from_dict(doc["input_scaler"])
        # its min-max bounds are the trained frequency range
        if input_scaler.scheme != LINEAR_MINMAX or len(input_scaler.col_min) != sizes[0]:
            raise ValueError(f"input_scaler must be {LINEAR_MINMAX} over {sizes[0]} column(s)")
        return (Mlp(sizes, theta), input_scaler,
                Scaler.from_dict(doc["target_scaler"]), doc.get("meta", {}))
    except (KeyError, ValueError, TypeError) as exc:
        raise ModelFileError(f"malformed model file {path}: {exc}") from exc
