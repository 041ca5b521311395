"""Command-line front end: generate ground-truth data, train surrogates,
predict, and run the full evaluation pipelines.

Exit codes: 0 success, 2 configuration error, 3 data/solver error,
4 training divergence, 5 unreadable model file.  stdout carries
machine-readable results; diagnostics go to stderr.
"""

import argparse
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
    p.add_argument("--target-scale", choices=["linear_minmax", "log10"], default=None)

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
    return 42 if args.seed is None else int(args.seed)


def _hidden_sizes(text) -> list[int] | None:
    """Hidden layer sizes from '--hidden 100,100', or None when unset."""
    if text is None:
        return None
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--hidden must be comma-separated integers, got {text!r}") from None


def _check_out_path(path) -> None:
    """Output paths are validated before any computation starts."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"output directory is not writable: {parent}")


def _grid_or(args, default_tuple) -> osc_mod.FrequencyGrid:
    start, stop, n = default_tuple
    if args.grid_start is not None:
        start = args.grid_start
    if args.grid_stop is not None:
        stop = args.grid_stop
    if args.grid_points is not None:
        n = args.grid_points
    return osc_mod.FrequencyGrid.uniform(start, stop, n)


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
        outputs = beam_mod.frequency_sweep(spec, grid, _damping_or_default(args, spec)).outputs()
    dataset.write_csv(args.out, grid.values, outputs)
    print(f"rows={len(grid)} f_min_hz={grid.values[0]:.17g} f_max_hz={grid.values[-1]:.17g} "
          f"out={args.out}")
    return 0


_TRAIN_DEFAULTS = {
    "example1": (surrogate.EXAMPLE1_LAYERS, surrogate.example1_train_config,
                 dataset.LOG10),
    "example2": (surrogate.EXAMPLE2_LAYERS, surrogate.example2_train_config,
                 dataset.LOG10),
}


def _train_config_from(args, make_default, seed) -> mlp.TrainConfig:
    base = make_default(seed)
    return mlp.TrainConfig(
        optimizer=base.optimizer if args.optimizer is None else args.optimizer,
        learning_rate=base.learning_rate if args.lr is None else args.lr,
        batch_size=base.batch_size if args.batch_size is None else args.batch_size,
        epochs=base.epochs if args.epochs is None else args.epochs,
        seed=seed,
    )


def cmd_train(args) -> int:
    _check_out_path(args.out_model)
    _check_out_path(args.history)
    freqs, outputs = dataset.read_csv(args.data)
    if freqs.size == 0:
        raise DataError(f"{args.data} holds no samples")
    k = outputs.shape[1]
    experiment = args.experiment or ("example1" if k == 1 else "example2")
    layers, make_cfg, target_scheme = _TRAIN_DEFAULTS[experiment]
    hidden = _hidden_sizes(args.hidden)
    layers = [1] + (layers[1:-1] if hidden is None else hidden) + [k]
    if args.target_scale is not None:
        target_scheme = args.target_scale

    seed = _seed(args)
    cfg = _train_config_from(args, make_cfg, seed)
    test_fraction = 0.2 if args.test_fraction is None else args.test_fraction
    fit = surrogate.fit_surrogate(freqs, outputs, layers, cfg, seed, test_fraction,
                                  target_scheme)

    # The input scaler is min-max over the train split: its ends are the
    # trained frequency range.
    m = fit.model
    meta = {"experiment": experiment, "freq_min_hz": float(m.input_scaler.col_min[0]),
            "freq_max_hz": float(m.input_scaler.col_max[0]), "seed": seed}
    mlp.save_model(m.net, m.input_scaler, m.target_scaler, args.out_model, meta=meta)

    if args.history:
        h = fit.history  # fit_surrogate always holds out a test split
        dataset.write_rows(args.history, ["epoch", "train_mse", "test_mse"],
                           np.column_stack([np.arange(len(h.train_mse)), h.train_mse,
                                            h.test_mse]))

    print(f"final_train_mse_scaled={fit.train_mse_scaled:.17g} "
          f"final_test_mse_scaled={fit.test_mse_scaled:.17g} model={args.out_model}")
    return 0


def cmd_predict(args) -> int:
    net, input_scaler, target_scaler, meta = mlp.load_model(args.model)
    model = surrogate.SurrogateModel(net, input_scaler, target_scaler, meta)
    grid_flags = [args.grid_start, args.grid_stop, args.grid_points]
    if args.freq is not None and any(v is not None for v in grid_flags):
        raise ConfigError("--freq conflicts with --grid-* flags; pick one mode")
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
    grid = osc_mod.FrequencyGrid.uniform(lo, hi, n)
    pred = surrogate.predict_batch(model, grid.values)
    header = ["freq_hz"] + [f"pred_{c + 1}" for c in range(pred.shape[1])]
    dataset.write_rows(args.out, header, np.column_stack([grid.values, pred]))
    print(f"rows={n} out={args.out}")
    return 0


def cmd_eval(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    _check_out_path(args.plot)
    seed = _seed(args)
    test_fraction = 0.2 if args.test_fraction is None else args.test_fraction
    hidden = _hidden_sizes(args.hidden)
    k = 1 if args.experiment == "example1" else 3
    layers = None if hidden is None else [1] + hidden + [k]

    if args.experiment == "example1":
        cfg = _train_config_from(args, surrogate.example1_train_config, seed)
        report = surrogate.run_example1(
            osc=_osc_params(args), grid=_grid_or(args, osc_mod.DEFAULT_GRID),
            train_config=cfg, split_seed=seed, layer_sizes=layers,
            test_fraction=test_fraction)
    else:
        spec = _beam_spec(args)
        cfg = _train_config_from(args, surrogate.example2_train_config, seed)
        damping = None
        if args.alpha is not None or args.beta is not None:
            damping = (args.alpha or 0.0, args.beta or 0.0)
        report = surrogate.run_example2(
            spec=spec, grid=_grid_or(args, beam_mod.DEFAULT_GRID), damping=damping,
            train_config=cfg, split_seed=seed, layer_sizes=layers,
            test_fraction=test_fraction)

    curves = os.path.join(args.out_dir, f"{args.experiment}_curves.csv")
    metrics = os.path.join(args.out_dir, f"{args.experiment}_metrics.txt")
    report.write_curves_csv(curves)
    report.write_metrics(metrics)
    if args.plot:
        report.write_svg(args.plot)
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
