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


def _shapes(layer_sizes) -> list[tuple[int, ...]]:
    """Shapes of every weight matrix, then of every bias: the order of
    Mlp.theta."""
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    return [(fan_out, fan_in) for fan_in, fan_out in pairs] + [(fan_out,) for _, fan_out in pairs]


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


def _pack(weights, biases) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """The arrays copied into one contiguous float64 vector, weights first,
    and their shapes."""
    arrays = [np.asarray(a, dtype=float) for a in [*weights, *biases]]
    return np.concatenate([a.ravel() for a in arrays]), [a.shape for a in arrays]


class Mlp:
    """All parameters live in theta, one contiguous float64 vector: every
    weight matrix row-major, then every bias.  weights[l], of shape
    (layer_sizes[l+1], layer_sizes[l]), and biases[l], of shape
    (layer_sizes[l+1],), are views into it, so an in-place update of theta
    updates the layers.  The constructor copies the given arrays into a new
    theta."""

    def __init__(self, layer_sizes, weights, biases):
        theta, found = _pack(weights, biases)
        if found != _shapes(layer_sizes):
            raise DimensionMismatch(
                f"parameter shapes {found} do not fit layers {list(layer_sizes)}")
        self._bind(layer_sizes, theta)

    @classmethod
    def _from_theta(cls, layer_sizes, theta: np.ndarray) -> "Mlp":
        """A net whose parameters are theta itself, not a copy."""
        net = cls.__new__(cls)
        net._bind(layer_sizes, theta)
        return net

    def _bind(self, layer_sizes, theta: np.ndarray) -> None:
        self.layer_sizes, self.theta = list(layer_sizes), theta
        self.weights, self.biases = _layers(theta, _shapes(self.layer_sizes))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Mlp":
        return Mlp._from_theta(self.layer_sizes, self.theta.copy())


class Gradients:
    """d(mse)/d(theta) in the layout of Mlp.theta: one flat vector, with
    per-layer weights and biases views into it.  The constructor copies the
    given arrays."""

    def __init__(self, weights, biases):
        self._bind(*_pack(weights, biases))

    @classmethod
    def _zeros(cls, net: Mlp) -> "Gradients":
        grads = cls.__new__(cls)
        grads._bind(np.zeros_like(net.theta), _shapes(net.layer_sizes))
        return grads

    def _bind(self, flat: np.ndarray, shapes) -> None:
        self.flat = flat
        self.weights, self.biases = _layers(flat, shapes)


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
    net = Mlp._from_theta(sizes, np.zeros(sum(math.prod(s) for s in _shapes(sizes))))
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


def backward(net: Mlp, x, targets, out: Gradients | None = None) -> Gradients:
    """Analytic gradient of mse(forward(net, x), targets) for every weight
    and bias.  Written into out, whose flat vector must have the size of
    net.theta, when given; into new Gradients otherwise."""
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
    if out is None:
        out = Gradients._zeros(net)
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
        raise DimensionMismatch(
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
    """One bias-corrected Adam update (Kingma & Ba 2015, Algorithm 1), in
    place over the whole parameter vector:
    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    Every ufunc writes into m, v, theta or the state's scratch, in the
    operation order of these formulas, so nothing is allocated."""
    _check_size(net, grads)
    state.t += 1
    b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.epsilon
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
          record: bool = True) -> tuple[Mlp, TrainHistory]:
    """Seeded-shuffled minibatch epochs.  With record, appends the full-batch
    train (and test) MSE to the history after every epoch and raises NanLoss
    naming the epoch if the loss goes non-finite.  Without it, the history
    stays empty and the per-epoch check is that theta is finite instead; the
    trained parameters are the same bits either way."""
    x, y = np.asarray(data.x_train, dtype=float), np.asarray(data.y_train, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"x/y sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] == 0:
        raise EmptyBatch("empty training set")
    has_test = data.x_test is not None and len(data.x_test) > 0
    rng = np.random.default_rng(config.seed)
    state = adam_init(net) if config.optimizer == "adam" else None
    n = x.shape[0]
    grads = Gradients._zeros(net)
    batch = min(config.batch_size, n)
    x_batch, y_batch = np.empty((batch,) + x.shape[1:]), np.empty((batch,) + y.shape[1:])

    history = TrainHistory(test_mse=[] if has_test else None)
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
                    raise NanLoss(f"training loss became non-finite at epoch {epoch}")
                history.train_mse.append(train_loss)
                if has_test:
                    history.test_mse.append(mse(forward(net, data.x_test), data.y_test))
            elif not np.isfinite(net.theta).all():
                raise NanLoss(f"parameters became non-finite at epoch {epoch}")
    return net, history


def grad_check(net: Mlp, x, targets, h: float = 1e-6) -> float:
    """Max relative deviation of backward() from central finite differences
    over every parameter: |g_a - g_n| / max(1e-12, |g_a| + |g_n|)."""
    if not 1e-8 <= h <= 1e-4:
        raise InvalidParams(f"h must lie in [1e-8, 1e-4], got {h}")
    x = np.asarray(x, dtype=float)
    t = np.asarray(targets, dtype=float)
    analytic = backward(net, x, t).flat

    theta = net.theta
    worst = 0.0
    for i in range(theta.size):
        keep = theta[i]
        theta[i] = keep + h
        up = mse(forward(net, x), t)
        theta[i] = keep - h
        down = mse(forward(net, x), t)
        theta[i] = keep
        numeric = (up - down) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1e-12, abs(analytic[i]) + abs(numeric))
        worst = max(worst, err)
    return worst


# --- model persistence -------------------------------------------------------

def save_model(net: Mlp, input_scaler: Scaler, target_scaler: Scaler,
               path, meta: dict | None = None) -> None:
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
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> tuple[Mlp, Scaler, Scaler, dict]:
    """Inverse of save_model; parameters round-trip bit for bit.  A file
    without both scalers is corrupt: a net alone predicts nothing physical."""
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
        return (Mlp._from_theta(sizes, theta), Scaler.from_dict(doc["input_scaler"]),
                Scaler.from_dict(doc["target_scaler"]), doc.get("meta", {}))
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptModel(f"malformed model file {path}: {exc}") from exc
