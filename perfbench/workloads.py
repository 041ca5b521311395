"""The four benchmark workloads and their output checks.

Each workload is one closed-loop caller: the next operation starts only when
the previous one has returned.  ``setup`` builds the workload's inputs,
``prepare`` is the set-up step that the traced run also traces (it loads
the model for ``surrogate_query``), ``warm_up`` runs once after it,
``body`` is one timed iteration and ``check`` compares that iteration's
outputs against independent oracles or invariants.  Checks run outside the
timed body.

CLI workloads call ``cli.main`` in this process with stdout captured, so the
benchmark's own last line stays the result line.
"""

import contextlib
import io
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from fem_surrogate import beam, cli, dataset, mlp, oscillator, surrogate

_CLOCK = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``None`` grid points means the experiment default."""

    beam_grid_points: int | None = None   # example-2 sweep (generate and set-up CSV)
    train_epochs: int = 50                # beam_train, 1-200-200-3 net
    eval_epochs: int = 250                # osc_eval, 1-100-100-1 net
    query_model_epochs: int = 50          # surrogate_query set-up training
    queries: int = 5000                   # surrogate_query, per iteration
    probe_queries: int = 1000             # query_us control probe, per block


FULL = Sizes()
TINY = Sizes(beam_grid_points=24, train_epochs=3, eval_epochs=60,
             query_model_epochs=2, queries=300, probe_queries=100)


@dataclass
class Outcome:
    """One body iteration: operations attempted and failed, failure notes,
    artifact paths (or raw bytes) whose digests are recorded, query
    latencies."""

    ops: int
    failed: int = 0
    failures: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    latencies_s: np.ndarray | None = None
    stdout: str = ""
    answers: dict = field(default_factory=dict)


class SetupError(RuntimeError):
    pass


def run_cli(argv) -> tuple[int, str]:
    """``fem-surrogate <argv>`` in this process; returns (exit code, stdout).
    An exception escaping the CLI counts as exit code 1, with its traceback
    on stderr."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:       # argparse rejects its arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:               # noqa: BLE001 - a crash is a failed operation
        traceback.print_exc(file=sys.stderr)
        rc = 1
    return rc, buf.getvalue()


def _grid_args(points):
    return [] if points is None else ["--grid-points", points]


def _read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a comma-separated file, parsed here rather
    than through the package's own reader."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:] if ln]
    return lines[0].split(","), np.array(rows, dtype=float)


def query_stream(seed: int, n: int) -> list[float]:
    """Seeded single-frequency queries: 90% inside the trained 1-200 Hz
    range, 5% below and 5% above it, so the extrapolation branch runs."""
    rng = np.random.default_rng([seed, 7])
    kind = rng.random(n)
    freqs = np.where(kind < 0.05, rng.uniform(0.2, 1.0, n),
                     np.where(kind < 0.10, rng.uniform(200.0, 260.0, n),
                              rng.uniform(1.0, 200.0, n)))
    return freqs.tolist()


def answer_stream(model, freqs) -> Outcome:
    """Closed loop of ``surrogate.predict`` calls, one frequency each."""
    predict = surrogate.predict     # looked up per run, so a tracer sees it
    n = len(freqs)
    lat = np.empty(n)
    answers = np.empty((n, model.net.layer_sizes[-1]))
    flags = np.empty(n, dtype=bool)
    clock = _CLOCK
    for i, f in enumerate(freqs):
        t0 = clock()
        y, flag = predict(model, f)
        lat[i] = clock() - t0
        answers[i] = y
        flags[i] = flag
    bad = int(np.count_nonzero(~np.isfinite(answers).all(axis=1)))
    failures = [f"{bad} non-finite query answers"] if bad else []
    return Outcome(ops=n, failed=bad, failures=failures, latencies_s=lat,
                   artifacts={"answers": answers.tobytes() + flags.tobytes()},
                   answers={"freqs": np.asarray(freqs), "y": answers, "flags": flags})


def check_stream(model, out: Outcome) -> list[str]:
    """Each ``predict`` answer agrees with ``predict_batch`` on the same
    frequencies, and the extrapolation flag equals 'outside the trained
    range' as the model file records it."""
    freqs, y, flags = out.answers["freqs"], out.answers["y"], out.answers["flags"]
    batch = surrogate.predict_batch(model, freqs)
    rel = np.abs(batch - y) / np.maximum(np.abs(batch), 1e-300)
    errors = []
    n_bad = int(np.count_nonzero(rel.max(axis=1) > 1e-12))
    if n_bad:
        errors.append(f"{n_bad} predict answers differ from predict_batch "
                      f"(max rel {rel.max():.3e})")
    lo, hi = model.meta["freq_min_hz"], model.meta["freq_max_hz"]
    outside = (freqs < lo) | (freqs > hi)
    n_flag = int(np.count_nonzero(outside != flags))
    if n_flag:
        errors.append(f"{n_flag} extrapolation flags disagree with [{lo}, {hi}] Hz")
    if not outside.any() or outside.all():
        errors.append("query stream does not mix in-range and out-of-range frequencies")
    return errors


def probe_model(seed: int):
    """Untrained net of the example-2 shape with the example-2 scalers:
    a control for query latency on workloads that train no model."""
    grid = np.linspace(*beam.DEFAULT_GRID)
    return surrogate.SurrogateModel(
        mlp.init(surrogate.EXAMPLE2_LAYERS, seed),
        dataset.scale_fit(grid, dataset.LINEAR_MINMAX),
        dataset.scale_fit(np.ones((1, 3)), dataset.LOG10),
        {"freq_min_hz": float(grid[0]), "freq_max_hz": float(grid[-1])})


# --- workloads -----------------------------------------------------------------

class Workload:
    """Subclasses define ``setup(work) -> state``, ``body(state, out) ->
    Outcome`` and ``check(state, out, outcome) -> failure notes``."""

    name = ""
    answers_queries = False    # the body itself measures query latency

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed

    def prepare(self, state: dict) -> None:
        pass

    def warm_up(self, state: dict) -> None:
        pass

    def _cli(self, argv, what: str) -> None:
        rc, _ = run_cli(argv)
        if rc != 0:
            raise SetupError(f"{self.name} set-up: {what} exited with {rc}")


class BeamGenerate(Workload):
    name = "beam_generate"

    def setup(self, work):
        # warm-up: CLI parsing and the CSV write path, then assembly and the
        # complex solve path on a two-point sweep (no mode scan)
        self._cli(["generate", "--experiment", "example1",
                   "--out", os.path.join(work, "warm.csv")], "warm-up generate")
        beam.frequency_sweep(beam.default_spec(), oscillator.FrequencyGrid.uniform(1.0, 2.0, 2),
                             (0.0, 1e-4))
        return {}

    def body(self, state, out):
        path = os.path.join(out, "sweep.csv")
        rc, stdout = run_cli(["generate", "--experiment", "example2", "--seed", self.seed,
                              "--out", path, *_grid_args(self.sizes.beam_grid_points)])
        return Outcome(ops=1, failed=int(rc != 0),
                       failures=[f"generate exited with {rc}"] if rc else [],
                       artifacts={"sweep_csv": path}, stdout=stdout)

    def check(self, state, out, outcome):
        """Rows against scipy.linalg.solve of the same reduced system, with
        damping tuned from scipy.linalg.eigh's first natural frequency."""
        import scipy.linalg

        header, rows = _read_csv_table(os.path.join(out, "sweep.csv"))
        start, stop, n = beam.DEFAULT_GRID
        n = self.sizes.beam_grid_points or n
        errors = []
        if header != ["freq_hz", "ux_max", "uy_max", "uz_max"] or rows.shape != (n, 4):
            return [f"sweep CSV has header {header} and shape {rows.shape}"]
        if np.abs(rows[:, 0] - np.linspace(start, stop, n)).max() > 1e-12 * stop:
            errors.append("sweep CSV frequencies are not the requested grid")
        if not (np.isfinite(rows[:, 1:]).all() and (rows[:, 1:] > 0).all()):
            errors.append("sweep CSV holds non-finite or non-positive maxima")

        spec = beam.default_spec()
        model, red = beam.reduced_system(spec)
        lam = scipy.linalg.eigh(red.k, red.m, eigvals_only=True, subset_by_index=[0, 0])
        f1 = math.sqrt(lam[0]) / (2.0 * math.pi)
        beta = 2.0 * 0.01 / (2.0 * math.pi * f1)    # zeta = 1% on the first mode
        rng = np.random.default_rng([self.seed, 11])
        pick = set(rng.choice(n, size=min(8, n), replace=False).tolist())
        pick.update(int(i) for i in np.argmax(rows[:, 1:], axis=0))  # resonance rows
        worst = 0.0
        for i in sorted(pick):
            w = 2.0 * math.pi * rows[i, 0]
            dyn = red.k - w * w * red.m + 1j * w * beta * red.k
            u = np.zeros(model.n_dof, dtype=complex)
            u[red.free_dofs] = scipy.linalg.solve(dyn, red.f)
            want = np.abs(u.reshape(-1, 6)[:, :3]).max(axis=0)
            worst = max(worst, float(np.max(np.abs(rows[i, 1:] - want) / want)))
        if worst > 1e-5:
            errors.append(f"sweep rows deviate from the scipy oracle by {worst:.3e} (rel)")
        return errors


class BeamTrain(Workload):
    name = "beam_train"

    def setup(self, work):
        csv = os.path.join(work, "sweep.csv")
        self._cli(["generate", "--experiment", "example2", "--seed", self.seed, "--out", csv,
                   *_grid_args(self.sizes.beam_grid_points)], "generate")
        self._cli(["train", "--data", csv, "--seed", self.seed, "--epochs", 1,
                   "--out-model", os.path.join(work, "warm.model")], "warm-up train")
        return {"csv": csv}

    def body(self, state, out):
        model = os.path.join(out, "model.json")
        history = os.path.join(out, "history.csv")
        rc, stdout = run_cli(["train", "--data", state["csv"], "--seed", self.seed,
                              "--epochs", self.sizes.train_epochs,
                              "--out-model", model, "--history", history])
        return Outcome(ops=1, failed=int(rc != 0),
                       failures=[f"train exited with {rc}"] if rc else [],
                       artifacts={"model": model, "history_csv": history}, stdout=stdout)

    def check(self, state, out, outcome):
        """History: one finite row per epoch, final train MSE below epoch 0's
        and equal to the printed one; the model reloads as 1-200-200-3."""
        epochs = self.sizes.train_epochs
        header, rows = _read_csv_table(os.path.join(out, "history.csv"))
        if header != ["epoch", "train_mse", "test_mse"] or rows.shape != (epochs, 3):
            return [f"history has header {header} and shape {rows.shape}, "
                    f"expected {epochs} epochs"]
        errors = []
        if not np.array_equal(rows[:, 0], np.arange(epochs)):
            errors.append("history epochs are not 0..n-1")
        if not np.isfinite(rows[:, 1:]).all():
            errors.append("history holds non-finite MSE")
        if not rows[-1, 1] < rows[0, 1]:
            errors.append(f"final train MSE {rows[-1, 1]} is not below epoch 0's {rows[0, 1]}")
        printed = dict(kv.split("=", 1) for kv in outcome.stdout.split())
        if float(printed.get("final_train_mse_scaled", "nan")) != rows[-1, 1]:
            errors.append("printed final train MSE differs from the history's last row")
        net, _, _, meta = mlp.load_model(os.path.join(out, "model.json"))
        if net.layer_sizes != surrogate.EXAMPLE2_LAYERS or meta.get("seed") != self.seed:
            errors.append(f"reloaded model has layers {net.layer_sizes}, meta {meta}")
        if not all(np.isfinite(w).all() for w in net.weights + net.biases):
            errors.append("reloaded model holds non-finite parameters")
        return errors


class OscEval(Workload):
    name = "osc_eval"

    def setup(self, work):
        warm = os.path.join(work, "warm")
        os.makedirs(warm, exist_ok=True)
        self._cli(["eval", "--experiment", "example1", "--seed", self.seed, "--epochs", 1,
                   "--out-dir", warm, "--plot", os.path.join(warm, "p.svg")], "warm-up eval")
        return {}

    def body(self, state, out):
        plot = os.path.join(out, "example1.svg")
        rc, stdout = run_cli(["eval", "--experiment", "example1", "--seed", self.seed,
                              "--epochs", self.sizes.eval_epochs,
                              "--out-dir", out, "--plot", plot])
        return Outcome(ops=1, failed=int(rc != 0),
                       failures=[f"eval exited with {rc}"] if rc else [],
                       artifacts={"curves_csv": os.path.join(out, "example1_curves.csv"),
                                  "metrics_txt": os.path.join(out, "example1_metrics.txt"),
                                  "plot_svg": plot},
                       stdout=stdout)

    def check(self, state, out, outcome):
        """True curve against the closed-form amplitude computed here; the
        trained fit beats the best constant predictor; the SVG is whole."""
        header, rows = _read_csv_table(os.path.join(out, "example1_curves.csv"))
        start, stop, n = oscillator.DEFAULT_GRID
        if header != ["freq_hz", "true_1", "pred_1", "is_test"] or rows.shape != (n, 4):
            return [f"curves CSV has header {header} and shape {rows.shape}"]
        errors = []
        p = oscillator.DEFAULT_PARAMS
        w = 2.0 * np.pi * rows[:, 0]
        exact = p.force_amplitude / np.hypot(p.stiffness - p.mass * w * w, p.damping * w)
        if np.max(np.abs(rows[:, 1] - exact) / exact) > 1e-10:
            errors.append("true curve deviates from the closed-form amplitude")
        if not (np.isfinite(rows[:, 2]).all() and (rows[:, 2] > 0).all()):
            errors.append("predicted curve holds non-finite or non-positive values")
        is_test = rows[:, 3] == 1
        if int(is_test.sum()) != round(0.2 * n):
            errors.append(f"{int(is_test.sum())} test rows, expected {round(0.2 * n)}")
        with open(os.path.join(out, "example1_metrics.txt"), encoding="utf-8") as fh:
            metrics = dict(ln.split("=", 1) for ln in fh.read().splitlines())
        if metrics.get("epochs") != str(self.sizes.eval_epochs):
            errors.append(f"metrics echo epochs={metrics.get('epochs')}")
        baseline = float(np.var(np.log10(rows[~is_test, 1])))
        final = float(metrics.get("final_train_mse_scaled", "nan"))
        if not final < baseline:
            errors.append(f"final train MSE {final} does not beat the constant "
                          f"predictor's {baseline}")
        with open(os.path.join(out, "example1.svg"), encoding="utf-8") as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            errors.append("plot SVG is not a complete <svg> document")
        return errors


class SurrogateQuery(Workload):
    name = "surrogate_query"
    answers_queries = True

    def setup(self, work):
        csv = os.path.join(work, "sweep.csv")
        model = os.path.join(work, "model.json")
        self._cli(["generate", "--experiment", "example2", "--seed", self.seed, "--out", csv,
                   *_grid_args(self.sizes.beam_grid_points)], "generate")
        self._cli(["train", "--data", csv, "--seed", self.seed, "--out-model", model,
                   "--epochs", self.sizes.query_model_epochs], "train")
        return {"model_path": model, "freqs": query_stream(self.seed, self.sizes.queries)}

    def prepare(self, state):
        net, in_sc, out_sc, meta = mlp.load_model(state["model_path"])
        state["model"] = surrogate.SurrogateModel(net, in_sc, out_sc, meta)

    def warm_up(self, state):
        answer_stream(state["model"], state["freqs"][:100])

    def body(self, state, out):
        return answer_stream(state["model"], state["freqs"])

    def check(self, state, out, outcome):
        return check_stream(state["model"], outcome)


WORKLOADS = {w.name: w for w in (BeamGenerate, BeamTrain, OscEval, SurrogateQuery)}
