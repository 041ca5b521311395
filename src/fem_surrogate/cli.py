"""Command-line front end: generate ground-truth data, train surrogates,
predict, and run the full evaluation pipelines.

Exit codes: 0 success, 2 configuration error, 3 data/solver error,
4 training divergence, 5 unreadable model file.  stdout carries
machine-readable results; diagnostics go to stderr.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import beam as beam_mod
from . import dataset, mlp
from . import oscillator as osc_mod
from . import surrogate
from .errors import (
    ConfigError,
    DataError,
    ModelFileError,
    SolverError,
    TrainingError,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_MODEL = 5

# Memory per grid point, the largest of the pipelines: the full-grid forward
# pass through the widest default layer (200 units) holds up to four
# float64 arrays of that width (5.3 kB per point measured), the CSV rows
# under 1 KiB of Python objects and text (0.3 kB measured).  --grid-points
# is bounded by the beam model's memory budget.
GRID_POINT_BYTES = 8 * 4 * 200 + 1024
MAX_GRID_POINTS = beam_mod.MEMORY_BUDGET // GRID_POINT_BYTES


def _vector3(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got {text!r}")
    return [float(p) for p in parts]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fem-surrogate",
        description="Train and evaluate MLP surrogates of frequency-response curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for split, init and shuffling (default 42)")
    common.add_argument("--config", default=None,
                        help="JSON file with defaults; explicit flags win")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-start", type=float, default=None)
    grid.add_argument("--grid-stop", type=float, default=None)
    grid.add_argument("--grid-points", type=int, default=None)

    osc = argparse.ArgumentParser(add_help=False)
    osc.add_argument("--mass", type=float, default=None)
    osc.add_argument("--damping-c", type=float, default=None)
    osc.add_argument("--stiffness", type=float, default=None)
    osc.add_argument("--force-amplitude", type=float, default=None)

    geom = argparse.ArgumentParser(add_help=False)
    geom.add_argument("--length", type=float, default=None)
    geom.add_argument("--width", type=float, default=None)
    geom.add_argument("--height", type=float, default=None)
    geom.add_argument("--n-elements", type=int, default=None)
    geom.add_argument("--youngs-modulus", type=float, default=None)
    geom.add_argument("--poisson-ratio", type=float, default=None)
    geom.add_argument("--density", type=float, default=None)
    geom.add_argument("--axis", type=_vector3, default=None,
                      help="beam axis 'x,y,z' (normalized internally)")
    geom.add_argument("--tip-load", type=_vector3, default=None,
                      help="harmonic tip force 'fx,fy,fz' in N")
    geom.add_argument("--alpha", type=float, default=None,
                      help="mass-proportional damping, 1/s")
    geom.add_argument("--beta", type=float, default=None,
                      help="stiffness-proportional damping, s")

    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--hidden", default=None,
                          help="hidden layer sizes, e.g. '100,100'")
    training.add_argument("--optimizer", choices=["sgd", "adam"], default=None)
    training.add_argument("--lr", type=float, default=None)
    training.add_argument("--batch-size", type=int, default=None)
    training.add_argument("--epochs", type=int, default=None)
    training.add_argument("--test-fraction", type=float, default=None)

    p = sub.add_parser("generate", parents=[common, grid, osc, geom],
                       help="write a ground-truth sweep CSV")
    p.add_argument("--experiment", choices=["example1", "example2"], required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", parents=[common, training],
                       help="train a surrogate on a sweep CSV")
    p.add_argument("--experiment", choices=["example1", "example2"], default=None,
                   help="defaults bundle; inferred from column count if omitted")
    p.add_argument("--data", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--history", default=None, help="optional epoch,mse CSV path")

    p = sub.add_parser("predict", parents=[common, grid],
                       help="evaluate a saved model at one frequency or on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--freq", type=float, default=None)
    p.add_argument("--out", default=None, help="curve CSV path for grid mode")

    p = sub.add_parser("eval", parents=[common, grid, osc, geom, training],
                       help="run a full pipeline and write report artifacts")
    p.add_argument("--experiment", choices=["example1", "example2"], required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--plot", default=None, help="optional SVG path")
    p.add_argument("--history", default=None, help="optional epoch,mse CSV path")

    return parser


def _merge_config(args: argparse.Namespace, parser) -> argparse.Namespace:
    """Fill unset (None) options from the JSON config file, if any.

    Each value goes through its option's own argparse type and choices, as
    the flag text would (a JSON list is joined with commas first).
    """
    if getattr(args, "config", None) is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
    for key, val in doc.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or not hasattr(args, action.dest):
            raise ConfigError(f"config key {key!r} is not a known option")
        if getattr(args, action.dest) is not None or val is None:
            continue
        text = ",".join(map(str, val)) if isinstance(val, list) else str(val)
        try:
            val = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: invalid value {text!r} ({exc})") from exc
        if action.choices is not None and val not in action.choices:
            raise ConfigError(f"config key {key!r} must be one of {list(action.choices)}")
        setattr(args, action.dest, val)
    return args


def _seed(args) -> int:
    return surrogate.SPLIT_SEED if args.seed is None else int(args.seed)


def _test_fraction(args) -> float:
    return surrogate.TEST_FRACTION if args.test_fraction is None else args.test_fraction


def _layer_sizes(args, layers) -> list[int]:
    """layers, with the sizes from '--hidden 100,100' in place of its hidden
    layers when given."""
    if args.hidden is None:
        return list(layers)
    try:
        hidden = [int(s) for s in args.hidden.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(
            f"--hidden must be comma-separated integers, got {args.hidden!r}") from None
    return [layers[0]] + hidden + [layers[-1]]


def _train_config(args, experiment, seed) -> mlp.TrainConfig:
    """The experiment's training recipe, with --optimizer, --lr,
    --batch-size and --epochs in place of its values when given."""
    given = {"optimizer": args.optimizer, "learning_rate": args.lr,
             "batch_size": args.batch_size, "epochs": args.epochs}
    cfg = mlp.TrainConfig(epochs=surrogate.EXPERIMENTS[experiment]["epochs"], seed=seed)
    return dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _check_out_path(path, new_dir=None) -> None:
    """Output paths are validated before any computation starts.  new_dir
    is a directory the command creates before writing, so a path directly
    inside it may name a parent that does not exist yet."""
    if path is None:
        return
    if path == "":
        raise ConfigError("output path must not be empty")
    parent = os.path.dirname(os.path.abspath(path))
    if new_dir is not None and parent == os.path.abspath(new_dir) and not os.path.exists(parent):
        return
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"output directory is not writable: {parent}")


def _grid(start, stop, n) -> osc_mod.FrequencyGrid:
    if n > MAX_GRID_POINTS:
        raise ConfigError(
            f"--grid-points must be <= {MAX_GRID_POINTS}, got {n}: about "
            f"{GRID_POINT_BYTES} bytes per point would exceed the "
            f"{beam_mod.MEMORY_BUDGET / 2 ** 30:g} GiB budget")
    return osc_mod.FrequencyGrid.uniform(start, stop, n)


def _grid_or(args, default_tuple) -> osc_mod.FrequencyGrid:
    start, stop, n = default_tuple
    if args.grid_start is not None:
        start = args.grid_start
    if args.grid_stop is not None:
        stop = args.grid_stop
    if args.grid_points is not None:
        n = args.grid_points
    return _grid(start, stop, n)


def _osc_params(args) -> osc_mod.OscillatorParams:
    d = osc_mod.DEFAULT_PARAMS
    return osc_mod.OscillatorParams(
        mass=d.mass if args.mass is None else args.mass,
        damping=d.damping if args.damping_c is None else args.damping_c,
        stiffness=d.stiffness if args.stiffness is None else args.stiffness,
        force_amplitude=(d.force_amplitude if args.force_amplitude is None
                         else args.force_amplitude),
    )


def _beam_spec(args) -> beam_mod.BeamSpec:
    d = beam_mod.default_spec()
    axis = d.axis_direction
    if args.axis is not None:
        axis = np.asarray(args.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise ConfigError("--axis must be a nonzero vector")
        axis = axis / norm
    return beam_mod.BeamSpec(
        length=d.length if args.length is None else args.length,
        section=beam_mod.CrossSection(
            width=d.section.width if args.width is None else args.width,
            height=d.section.height if args.height is None else args.height),
        material=beam_mod.Material(
            youngs_modulus=(d.material.youngs_modulus if args.youngs_modulus is None
                            else args.youngs_modulus),
            poisson_ratio=(d.material.poisson_ratio if args.poisson_ratio is None
                           else args.poisson_ratio),
            density=d.material.density if args.density is None else args.density),
        n_elements=d.n_elements if args.n_elements is None else args.n_elements,
        axis_direction=axis,
        tip_load=(d.tip_load if args.tip_load is None
                  else np.asarray(args.tip_load, dtype=float)),
    )


def _damping_or_default(args, spec) -> tuple[float, float]:
    if args.alpha is None and args.beta is None:
        return beam_mod.default_damping(spec)
    return (args.alpha or 0.0, args.beta or 0.0)


def cmd_generate(args) -> int:
    _check_out_path(args.out)
    if args.experiment == "example1":
        grid = _grid_or(args, osc_mod.DEFAULT_GRID)
        outputs = osc_mod.sweep_oscillator(_osc_params(args), grid)
    else:
        spec = _beam_spec(args)
        grid = _grid_or(args, beam_mod.DEFAULT_GRID)
        outputs = beam_mod.frequency_sweep(spec, grid, _damping_or_default(args, spec))
    dataset.write_csv(args.out, grid.values, outputs)
    print(f"rows={len(grid)} f_min_hz={grid.values[0]:.17g} f_max_hz={grid.values[-1]:.17g} "
          f"out={args.out}")
    return 0


def _write_history(path, h: mlp.TrainHistory) -> None:
    """epoch,train_mse,test_mse per epoch; every pipeline holds out a test
    split, so test_mse is always there."""
    dataset.write_rows(path, ["epoch", "train_mse", "test_mse"],
                       np.column_stack([np.arange(len(h.train_mse)), h.train_mse, h.test_mse]))


def cmd_train(args) -> int:
    _check_out_path(args.out_model)
    _check_out_path(args.history)
    freqs, outputs = dataset.read_csv(args.data)
    if freqs.size == 0:
        raise DataError(f"{args.data} holds no samples")
    k = outputs.shape[1]
    experiment = args.experiment or ("example1" if k == 1 else "example2")
    layers = _layer_sizes(args, surrogate.EXPERIMENTS[experiment]["layers"][:-1] + [k])
    seed = _seed(args)
    fit = surrogate.fit_surrogate(experiment, freqs, outputs, layers,
                                  _train_config(args, experiment, seed), seed,
                                  _test_fraction(args), record=args.history is not None)
    m = fit.model
    mlp.save_model(m.net, m.input_scaler, m.target_scaler, args.out_model, meta=m.meta)

    if args.history:
        _write_history(args.history, fit.history)

    print(f"final_train_mse_scaled={fit.train_mse_scaled:.17g} "
          f"final_test_mse_scaled={fit.test_mse_scaled:.17g} model={args.out_model}")
    return 0


def cmd_predict(args) -> int:
    net, input_scaler, target_scaler, meta = mlp.load_model(args.model)
    model = surrogate.SurrogateModel(net, input_scaler, target_scaler, meta)
    grid_flags = [args.grid_start, args.grid_stop, args.grid_points]
    if args.freq is not None and any(v is not None for v in grid_flags):
        raise ConfigError("--freq conflicts with --grid-* flags; pick one mode")
    if args.freq is not None and args.out is not None:
        raise ConfigError("--freq conflicts with --out: --freq prints to stdout, "
                          "--out is for grid mode")
    if args.freq is None and all(v is None for v in grid_flags):
        raise ConfigError("predict needs --freq or a --grid-start/stop/points range")

    if args.freq is not None:
        out, extrapolated = surrogate.predict(model, args.freq)
        if extrapolated:
            lo = meta.get("freq_min_hz")
            hi = meta.get("freq_max_hz")
            print(f"warning: {args.freq} Hz is outside the trained range "
                  f"[{lo}, {hi}] Hz; extrapolating", file=sys.stderr)
        print(" ".join("%.17g" % v for v in out))
        return 0

    if args.out is None:
        raise ConfigError("grid mode needs --out for the curve CSV")
    _check_out_path(args.out)
    lo = meta.get("freq_min_hz", 0.0) if args.grid_start is None else args.grid_start
    hi = meta.get("freq_max_hz", 1.0) if args.grid_stop is None else args.grid_stop
    n = 200 if args.grid_points is None else args.grid_points
    grid = _grid(lo, hi, n)
    pred = surrogate.predict_batch(model, grid.values)
    header = ["freq_hz"] + [f"pred_{c + 1}" for c in range(pred.shape[1])]
    dataset.write_rows(args.out, header, np.column_stack([grid.values, pred]))
    print(f"rows={n} out={args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.out_dir == "":
        raise ConfigError("output directory must not be empty")
    if os.path.exists(args.out_dir) and not os.path.isdir(args.out_dir):
        raise ConfigError(f"output directory is not a directory: {args.out_dir}")
    _check_out_path(args.plot, args.out_dir)
    _check_out_path(args.history, args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    seed = _seed(args)
    run = {"train_config": _train_config(args, args.experiment, seed), "split_seed": seed,
           "layer_sizes": _layer_sizes(args, surrogate.EXPERIMENTS[args.experiment]["layers"]),
           "test_fraction": _test_fraction(args),
           "record": args.history is not None}  # per-epoch losses only for the history CSV
    if args.experiment == "example1":
        report = surrogate.run_example1(
            osc=_osc_params(args), grid=_grid_or(args, osc_mod.DEFAULT_GRID), **run)
    else:
        spec = _beam_spec(args)
        report = surrogate.run_example2(
            spec=spec, grid=_grid_or(args, beam_mod.DEFAULT_GRID),
            damping=_damping_or_default(args, spec), **run)

    curves = os.path.join(args.out_dir, f"{args.experiment}_curves.csv")
    metrics = os.path.join(args.out_dir, f"{args.experiment}_metrics.txt")
    report.write_curves_csv(curves)
    report.write_metrics(metrics)
    if args.plot:
        report.write_svg(args.plot)
    if args.history:
        _write_history(args.history, report.history)
    print(f"curves={curves} metrics={metrics}"
          + (f" plot={args.plot}" if args.plot else ""))
    print(f"final_train_mse_scaled={report.train_mse_scaled:.17g} "
          f"final_test_mse_scaled={report.test_mse_scaled:.17g} "
          f"peak_match_all={int(all(report.peak_match))}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except ModelFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
