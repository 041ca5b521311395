"""fem-surrogate benchmark: one workload per process, one result line.

    python3 perfbench/run.py --workload beam_generate --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
alternates untraced and traced passes of the workload body, reports the
per-layer metrics of the traced passes (averaged per pass), and fails if
the two passes wrote different artifacts.  The last line of stdout is the
result object; the line before it is a report with the environment,
artifact digests and, when traced, span coverage and self-time shares.  The
full report is also written to ``.perfbench_out/`` under the root.
``--tiny`` shrinks every input for the self-test (``perfbench/selftest.py``).

See perfbench/README.md for why these workloads and metrics.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Set-up repeats until at least this many and this long, so that the
# slower-half median below has several samples on every workload.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 8.0
PROBE_BLOCKS = 4
WORKLOAD_NAMES = ("beam_generate", "beam_train", "osc_eval", "surrogate_query")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "query_us_p50": "us", "query_us_p99": "us"}

# (span, field) pairs reported per traced pass; field "us_p50" is the median
# duration of one call.
SPAN_FIELDS = [
    ("numerics.lu_factor", "calls"), ("numerics.lu_factor", "self_s"),
    ("numerics.lu_solve", "calls"), ("numerics.lu_solve", "self_s"),
    ("numerics.solve_refined", "self_s"),
    ("beam.default_damping", "s"),
    ("beam.natural_frequencies", "calls"), ("beam.natural_frequencies", "s"),
    ("numerics.det_sign", "calls"),
    ("beam.frequency_sweep", "s"),
    ("beam.harmonic_solve", "calls"), ("beam.harmonic_solve", "self_s"),
    ("beam.assemble", "s"), ("beam.max_displacements", "self_s"),
    ("mlp.adam_step", "calls"), ("mlp.adam_step", "self_s"), ("mlp.adam_step", "us_p50"),
    ("mlp.backward", "calls"), ("mlp.backward", "self_s"), ("mlp.backward", "us_p50"),
    ("mlp.train", "s"), ("mlp.mse", "self_s"),
    ("mlp.forward", "calls"), ("mlp.forward", "self_s"),
    ("mlp.load_model", "s"), ("mlp.save_model", "s"),
    ("dataset.read_csv", "s"), ("dataset.write_csv", "s"), ("dataset.split", "s"),
    ("dataset.scale_apply", "calls"), ("dataset.scale_apply", "self_s"),
    ("dataset.scale_invert", "calls"), ("dataset.scale_invert", "self_s"),
    ("dataset.samples_to_arrays", "self_s"),
    ("surrogate.predict", "calls"), ("surrogate.predict", "self_s"),
    ("surrogate.predict_batch", "calls"),
    ("surrogate.write_curves_csv", "s"), ("surrogate.write_metrics", "s"),
    ("oscillator.sweep_oscillator", "s"), ("svgplot.plot_curves", "s"),
    ("cli.main", "self_s"),
]
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "us_p50": "us"}
DERIVED = {
    "numerics.lu_factor.gflop_computed": "GFLOP",
    "beam.mode_scan.det_evals_per_root": "evals/root",
    "beam.sweep.resid_max": "ratio",
    "beam.sweep.resid_over_1e-10": "count",
    "mlp.adam_step.mb_computed": "MB",
    "mlp.epoch_ms": "ms",
    "mlp.model_bytes": "B",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}
PER_LAYER = {f"{span}.{field}": FIELD_UNITS[field] for span, field in SPAN_FIELDS}
PER_LAYER.update(DERIVED)

# Spans each workload must call; a zero is reported as a missing span.
_SOLVER = ["numerics.lu_factor", "numerics.lu_solve", "numerics.solve_refined",
           "beam.default_damping", "beam.natural_frequencies", "numerics.det_sign",
           "beam.frequency_sweep", "beam.harmonic_solve", "beam.assemble",
           "beam.max_displacements"]
_TRAIN = ["mlp.adam_step", "mlp.backward", "mlp.train", "mlp.mse", "mlp.forward",
          "dataset.split", "dataset.scale_apply", "dataset.samples_to_arrays"]
EXPECTED_SPANS = {
    "beam_generate": _SOLVER + ["cli.main"],
    "beam_train": _TRAIN + ["mlp.save_model", "dataset.read_csv", "cli.main"],
    "osc_eval": _TRAIN + ["dataset.scale_invert", "surrogate.predict_batch",
                          "surrogate.write_curves_csv", "surrogate.write_metrics",
                          "oscillator.sweep_oscillator", "svgplot.plot_curves", "cli.main"],
    "surrogate_query": ["mlp.load_model", "mlp.forward", "dataset.scale_apply",
                        "dataset.scale_invert", "surrogate.predict",
                        "surrogate.predict_batch"],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


# --- environment -----------------------------------------------------------------

def _openblas_threads():
    """Thread count numpy's bundled OpenBLAS is using, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": int(fn())}
    return None


def _git_commit():
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_in_use": _openblas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FEM_SURROGATE_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# --- helpers ----------------------------------------------------------------------

def digests(artifacts: dict) -> dict:
    out = {}
    for name, item in artifacts.items():
        h = hashlib.sha256()
        if isinstance(item, bytes):
            h.update(item)
        else:
            with open(item, "rb") as fh:
                h.update(fh.read())
        out[name] = h.hexdigest()
    return out


def fresh_dir(*parts) -> str:
    path = os.path.join(*parts)
    os.makedirs(path)
    return path


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, outcome):
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.notes += outcome.failures

    def fail(self, notes):
        for note in notes:
            self.failed = min(self.failed + 1, self.attempted)
            self.notes.append(note)


def make_observers(acc: dict) -> dict:
    """Counts derived from span arguments and results; run outside spans."""
    acc.update(gflop=0.0, resids=[], roots=0, epochs=0, params=0, model_bytes=0)

    def lu_factor(a, _):
        n = a["a"].shape[0]
        acc["gflop"] += (8.0 if np.iscomplexobj(a["a"]) else 2.0) / 3.0 * n ** 3 / 1e9

    def harmonic_solve(a, u):
        w = 2.0 * np.pi * a["freq_hz"]
        dyn = a["k"] - w * w * a["m"]
        if a["c"] is not None and w != 0.0:
            dyn = dyn + 1j * w * a["c"]
        acc["resids"].append(float(np.linalg.norm(dyn @ u - a["f"]) / np.linalg.norm(a["f"])))

    def natural_frequencies(_, roots):
        acc["roots"] += len(roots)

    def train(a, _):
        acc["epochs"] += a["config"].epochs

    def adam_step(a, _):
        net = a["net"]
        acc["params"] = sum(p.size for p in net.weights + net.biases)

    def model_file(a, _):
        acc["model_bytes"] = os.path.getsize(a["path"])

    return {"numerics.lu_factor": lu_factor, "beam.harmonic_solve": harmonic_solve,
            "beam.natural_frequencies": natural_frequencies, "mlp.train": train,
            "mlp.adam_step": adam_step, "mlp.save_model": model_file,
            "mlp.load_model": model_file}


def layer_metrics(table, acc, passes, overhead_s, uncovered_s) -> dict:
    def get(span, field):
        row = table.get(span)
        if row is None:
            return 0.0
        if field == "us_p50":
            return float(np.median(row["durations"])) * 1e6
        return row[field] / passes

    values = {f"{span}.{field}": get(span, field) for span, field in SPAN_FIELDS}
    resids = acc["resids"]
    det_calls = table.get("numerics.det_sign", {}).get("calls", 0)
    train_s = table.get("mlp.train", {}).get("s", 0.0)
    values.update({
        "numerics.lu_factor.gflop_computed": acc["gflop"] / passes,
        "beam.mode_scan.det_evals_per_root": det_calls / acc["roots"] if acc["roots"] else 0.0,
        "beam.sweep.resid_max": max(resids, default=0.0),
        "beam.sweep.resid_over_1e-10": sum(r > 1e-10 for r in resids) / passes,
        # Adam as written reads theta, g, m, v and writes theta, m, v: 7 float64 arrays.
        "mlp.adam_step.mb_computed": 7 * 8 * acc["params"] / 1e6,
        "mlp.epoch_ms": 1e3 * train_s / acc["epochs"] if acc["epochs"] else 0.0,
        "mlp.model_bytes": float(acc["model_bytes"]),
        "trace.overhead_s": overhead_s,
        "trace.uncovered_s": uncovered_s,
    })
    return values


def import_probe_s() -> float:
    """Wall time of a fresh interpreter that imports the CLI module: the
    process start and import cost every ``fem-surrogate`` call pays."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import fem_surrogate.cli"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        import workloads
        raise workloads.SetupError(f"import probe exited with {proc.returncode}: "
                                   f"{proc.stderr.strip()[-500:]}")
    return elapsed


def set_up(wl, work) -> dict:
    state = wl.setup(work)
    wl.prepare(state)
    wl.warm_up(state)
    return state


def slower_half_median(values) -> float:
    """Median of the slower half of the values (the upper quartile)."""
    ordered = sorted(values)
    return statistics.median(ordered[len(ordered) // 2:])


def self_time_shares(table, total_s) -> dict:
    by_span = sorted(((row["self_s"], name) for name, row in table.items()), reverse=True)
    by_module = {}
    for name, row in table.items():
        mod = name.split(".", 1)[0]
        by_module[mod] = by_module.get(mod, 0.0) + row["self_s"]
    return {
        "spans": {name: s / total_s for s, name in by_span[:8]},
        "modules": {m: s / total_s for m, s in sorted(by_module.items(), key=lambda kv: -kv[1])},
    }


# --- the two modes --------------------------------------------------------------

def run_untraced(wl, work, seconds, tally, report) -> dict:
    import workloads

    # One set-up sample is a fresh interpreter's import plus the in-process
    # set-up; the last repeat's state is the one the body uses.
    setup_s = []
    start = time.perf_counter()
    while len(setup_s) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        import_s = import_probe_s()
        t0 = time.perf_counter()
        state = set_up(wl, fresh_dir(work, f"setup{len(setup_s)}"))
        setup_s.append({"import_s": import_s, "setup_s": time.perf_counter() - t0})

    # Workloads without a model of their own get query_us_* from a control
    # probe, a few blocks after every iteration so its samples span the run.
    if not wl.answers_queries:
        probe_model = workloads.probe_model(wl.seed)
        probe_freqs = workloads.query_stream(wl.seed, wl.sizes.probe_queries)

    out = fresh_dir(work, "out")
    wall, latencies, first = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = wl.body(state, out)
        wall.append(time.perf_counter() - t0)
        tally.add(outcome)
        d = digests(outcome.artifacts)
        if first is None:
            first = d
        elif d != first:
            tally.fail([f"iteration {len(wall)} artifacts differ from iteration 1"])
        if wl.answers_queries:
            latencies.append(outcome.latencies_s)
        else:
            for _ in range(PROBE_BLOCKS):
                probe = workloads.answer_stream(probe_model, probe_freqs)
                tally.add(probe)
                tally.fail(workloads.check_stream(probe_model, probe))
                latencies.append(probe.latencies_s)
        if time.perf_counter() - start >= seconds:
            break
    tally.fail(wl.check(state, out, outcome))

    # Timings are summarised per block (one body iteration, or one block of
    # queries) and the run reports the median over the slower half of its
    # blocks; see "Reading the timings" in perfbench/README.md.
    block_p50 = [float(np.percentile(lat, 50)) * 1e6 for lat in latencies]
    block_p99 = [float(np.percentile(lat, 99)) * 1e6 for lat in latencies]
    slow = sorted(range(len(block_p50)), key=block_p50.__getitem__)[len(block_p50) // 2:]
    report.update(artifacts=first, wall_s_iterations=wall, setup_s_repeats=setup_s,
                  query_source="body" if wl.answers_queries else "control probe, untrained net",
                  query_samples=sum(lat.size for lat in latencies),
                  query_block_p50_us=block_p50, query_block_p99_us=block_p99)
    return {
        "wall_s": slower_half_median(wall),
        "setup_s": slower_half_median(r["import_s"] + r["setup_s"] for r in setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "query_us_p50": statistics.median(block_p50[i] for i in slow),
        "query_us_p99": statistics.median(block_p99[i] for i in slow),
    }


def run_traced(wl, work, seconds, tally, report) -> dict:
    from fem_surrogate import beam, cli, dataset, mlp, numerics, oscillator, surrogate, svgplot
    from tracer import Tracer

    acc = {}
    tracer = Tracer([oscillator, numerics, beam, dataset, mlp, surrogate, svgplot, cli],
                    make_observers(acc))
    state = set_up(wl, fresh_dir(work, "setup"))
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        out_u = fresh_dir(work, f"untraced{len(plain)}")
        t0 = time.perf_counter()
        wl.prepare(state)
        o_u = wl.body(state, out_u)
        plain.append(time.perf_counter() - t0)
        tally.add(o_u)

        out_t = fresh_dir(work, f"traced{len(traced)}")
        probe0 = tracer.probe_s
        with tracer:
            t0 = time.perf_counter()
            wl.prepare(state)
            o_t = wl.body(state, out_t)
            traced.append(time.perf_counter() - t0 - (tracer.probe_s - probe0))
        tally.add(o_t)
        d_u, d_t = digests(o_u.artifacts), digests(o_t.artifacts)
        if d_u != d_t:
            tally.fail([f"traced artifacts differ from untraced: "
                        f"{sorted(k for k in d_u if d_u[k] != d_t.get(k))}"])
        if time.perf_counter() - start >= seconds:
            break
    tally.fail(wl.check(state, out_t, o_t))

    passes = len(traced)
    table = tracer.table()
    # Each traced pass runs right after its untraced twin, so the pairwise
    # difference sees the same machine speed.
    overhead = statistics.median(t - u for t, u in zip(traced, plain))
    uncovered = (sum(traced) - tracer.root_s()) / passes
    missing = [s for s in EXPECTED_SPANS[wl.name] if table.get(s, {}).get("calls", 0) == 0]
    for name in missing:
        print(f"perfbench: missing span {name}: no calls on {wl.name}", file=sys.stderr)
    report.update(
        artifacts=d_t, traced_passes=passes, traced_s=traced, untraced_s=plain,
        missing_spans=missing,
        self_time_share=self_time_shares(table, tracer.root_s()),
        spans={n: {k: v for k, v in row.items() if k != "durations"}
               for n, row in sorted(table.items())},
        call_tree=tracer.tree())
    return layer_metrics(table, acc, passes, overhead, uncovered)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import fem_surrogate.cli  # the import cost every CLI user pays
    except ImportError as exc:
        print(f"perfbench: cannot import fem_surrogate from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(fem_surrogate.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: fem_surrogate was imported from outside {src}", file=sys.stderr)
        return 2
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](sizes, args.seed)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "sizes": vars(sizes),
              "environment": environment()}
    tally = Tally()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{wl.name}-{os.getpid()}")
    try:
        run = run_traced if args.trace else run_untraced
        metrics = run(wl, fresh_dir(work), args.seconds, tally, report)
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    report["failures"] = tally.notes
    for note in tally.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    report["result"] = result
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    summary = {k: v for k, v in report.items() if k not in ("spans", "call_tree", "result")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
