"""Command-line front end: generate ground-truth data, train surrogates,
predict, and run the full evaluation pipelines.

Exit codes: 0 success, else the exit_code of the error class raised, one
class per code (errors.py: 2 ConfigError, 3 DataError or SolverError, 4
TrainingError, 5 ModelFileError), and 3 for an OS error on a file.
stdout carries machine-readable results; diagnostics go to stderr.
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
from .errors import ConfigError, DataError, FemSurrogateError


def _grid_point_bytes(widest: int) -> int:
    """Memory per grid point, the largest of the pipelines: the full-grid
    forward pass through the widest layer (taken as at least the default
    200 units) holds up to four float64 arrays of that width (5.3 kB per
    point measured at 200), the CSV rows under 1 KiB of Python objects and
    text (0.3 kB measured)."""
    return 8 * 4 * max(200, widest) + 1024


def _vector3(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got {text!r}")
    return [float(p) for p in parts]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fem-surrogate", allow_abbrev=False,
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
    # each experiment's model flags, by dest: the other experiment rejects them
    model_flags = {"example1": list(vars(osc.parse_args([]))),
                   "example2": list(vars(geom.parse_args([])))}

    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--hidden", default=None,
                          help="hidden layer sizes, e.g. '100,100'")
    training.add_argument("--optimizer", choices=["sgd", "adam"], default=None)
    training.add_argument("--lr", type=float, default=None)
    training.add_argument("--batch-size", type=int, default=None)
    training.add_argument("--epochs", type=int, default=None)
    training.add_argument("--test-fraction", type=float, default=None)

    p = sub.add_parser("generate", parents=[common, grid, osc, geom], allow_abbrev=False,
                       help="write a ground-truth sweep CSV")
    p.add_argument("--experiment", choices=["example1", "example2"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(model_flags=model_flags)

    p = sub.add_parser("train", parents=[common, training], allow_abbrev=False,
                       help="train a surrogate on a sweep CSV; its column count picks the recipe")
    p.add_argument("--data", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--history", default=None, help="optional epoch,mse CSV path")

    p = sub.add_parser("predict", parents=[common, grid], allow_abbrev=False,
                       help="evaluate a saved model at one frequency or on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--freq", type=float, default=None)
    p.add_argument("--out", default=None, help="curve CSV path for grid mode")

    p = sub.add_parser("eval", parents=[common, grid, osc, geom, training],
                       allow_abbrev=False, help="run a full pipeline and write report artifacts")
    p.add_argument("--experiment", choices=["example1", "example2"], required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--plot", default=None, help="optional SVG path")
    p.add_argument("--history", default=None, help="optional epoch,mse CSV path")
    p.set_defaults(model_flags=model_flags)

    return parser


def _config_flags(path) -> list[str]:
    """The JSON object in path as '--key=value' flags: '_' in a key reads
    as '-', a list is joined with commas, a null is skipped.  The '=' form
    keeps a value such as '-1e-3' attached to its option."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return [f"--{key.replace('_', '-')}="
            + (",".join(map(str, val)) if isinstance(val, list) else str(val))
            for key, val in doc.items() if val is not None]


def _given(**values) -> dict:
    """The values that were set, by name: the fields a flag replaces."""
    return {k: v for k, v in values.items() if v is not None}


def _seed(args) -> int:
    """--seed, from the flag or --config, or the experiments' seed; a
    negative seed is a ConfigError."""
    if args.seed is None:
        return surrogate.SPLIT_SEED
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _test_fraction(args) -> float:
    if args.test_fraction is None:
        return surrogate.TEST_FRACTION
    if not 0.0 < args.test_fraction < 1.0:
        raise ConfigError(f"--test-fraction must be in (0, 1), got {args.test_fraction}")
    return args.test_fraction


def _layer_sizes(args, layers, n_points) -> list[int]:
    """layers, with the sizes from '--hidden 100,100' in place of its hidden
    layers when given.  A net whose training vectors, or whose forward pass
    over n_points grid points, would exceed the memory budget is a
    ConfigError; both are estimates, so nothing is allocated."""
    if args.hidden is None:
        return list(layers)
    try:
        hidden = [int(s) for s in args.hidden.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(
            f"--hidden must be comma-separated integers, got {args.hidden!r}") from None
    if any(s < 1 for s in hidden):
        raise ConfigError(f"--hidden sizes must be >= 1, got {args.hidden!r}")
    sizes = [layers[0]] + hidden + [layers[-1]]
    # training keeps 6 float64 vectors of the parameter count: theta, the
    # gradient, Adam's m and v, and its 2-row scratch
    need = max(6 * 8 * mlp._n_params(sizes), n_points * _grid_point_bytes(max(sizes)))
    if need > beam_mod.MEMORY_BUDGET:
        raise ConfigError(
            f"--hidden {args.hidden!r} needs about {need / 2 ** 30:.3g} GiB to train on "
            f"{n_points} grid points, over the {beam_mod.MEMORY_BUDGET / 2 ** 30:g} GiB budget")
    return sizes


def _train_config(args, experiment, seed) -> mlp.TrainConfig:
    """The experiment's training recipe, with --optimizer, --lr,
    --batch-size and --epochs in place of its values when given."""
    cfg = mlp.TrainConfig(epochs=surrogate.EXPERIMENTS[experiment]["epochs"], seed=seed)
    return dataclasses.replace(cfg, **_given(
        optimizer=args.optimizer, learning_rate=args.lr, batch_size=args.batch_size,
        epochs=args.epochs))


def _check_model_flags(args) -> None:
    """A flag that sets another experiment's model, from the command line
    or --config, is a ConfigError: the run would ignore it."""
    given = ["--" + dest.replace("_", "-")
             for experiment, dests in args.model_flags.items() if experiment != args.experiment
             for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ConfigError(f"--experiment {args.experiment} does not take {', '.join(given)}: "
                          f"they set the other experiment's model")


def _check_out_path(path, new_dir=None) -> None:
    """Output paths are validated before any computation starts: an empty
    path, an existing directory, or a parent that is missing or not
    writable is a ConfigError.  new_dir is a directory the command creates
    before writing, so a path directly inside it may name a parent that
    does not exist yet."""
    if path is None:
        return
    if path == "":
        raise ConfigError("output path must not be empty")
    if os.path.isdir(path):
        raise ConfigError(f"output path is a directory: {path}")
    parent = os.path.dirname(os.path.abspath(path))
    if new_dir is not None and parent == os.path.abspath(new_dir) and not os.path.exists(parent):
        return
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"output directory is not writable: {parent}")


def _check_out_dir(path) -> None:
    """eval makes --out-dir only once the report is ready, so it is checked
    before any work: its nearest existing ancestor (itself, if it exists)
    must be a writable directory, or it is a ConfigError."""
    if path == "":
        raise ConfigError("output directory must not be empty")
    existing = os.path.abspath(path)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"output directory is not a directory: {existing}")
    if not os.access(existing, os.W_OK):
        raise ConfigError(f"output directory is not writable: {existing}")


def _grid(args, default_tuple, widest=200) -> osc_mod.FrequencyGrid:
    """The grid from --grid-start/stop/points, each bound from its flag or
    default_tuple.  More points than the beam model's memory budget allows
    for a forward pass through a widest-unit layer is a ConfigError."""
    given = (args.grid_start, args.grid_stop, args.grid_points)
    start, stop, n = (d if v is None else v for v, d in zip(given, default_tuple))
    per_point = _grid_point_bytes(widest)
    top = beam_mod.MEMORY_BUDGET // per_point
    if n > top:
        raise ConfigError(
            f"--grid-points must be <= {top}, got {n}: about {per_point} bytes per point "
            f"would exceed the {beam_mod.MEMORY_BUDGET / 2 ** 30:g} GiB budget")
    return osc_mod.FrequencyGrid.uniform(start, stop, n)


def _osc_params(args) -> osc_mod.OscillatorParams:
    return dataclasses.replace(osc_mod.DEFAULT_PARAMS, **_given(
        mass=args.mass, damping=args.damping_c, stiffness=args.stiffness,
        force_amplitude=args.force_amplitude))


def _beam_spec(args) -> beam_mod.BeamSpec:
    """The default beam, with each field whose flag is given replaced; the
    spec and its section and material check their fields as they are built."""
    d = beam_mod.default_spec()
    return dataclasses.replace(
        d, **_given(length=args.length, n_elements=args.n_elements,
                    axis_direction=args.axis, tip_load=args.tip_load),
        section=dataclasses.replace(d.section, **_given(width=args.width, height=args.height)),
        material=dataclasses.replace(d.material, **_given(
            youngs_modulus=args.youngs_modulus, poisson_ratio=args.poisson_ratio,
            density=args.density)))


def _damping_or_default(args, spec) -> tuple[float, float]:
    if args.alpha is None and args.beta is None:
        return beam_mod.default_damping(spec)
    return (args.alpha or 0.0, args.beta or 0.0)


def _experiment_grid(args) -> osc_mod.FrequencyGrid:
    """The experiment's grid, each bound from its flag or the default."""
    return _grid(args, osc_mod.DEFAULT_GRID if args.experiment == "example1"
                 else beam_mod.DEFAULT_GRID)


def _ground_truth(args, grid) -> tuple[np.ndarray, dict]:
    """The experiment's solver outputs and settings echo on grid, each
    setting from its flag or the experiment's default."""
    if args.experiment == "example1":
        return surrogate.oscillator_truth(_osc_params(args), grid)
    spec = _beam_spec(args)
    return surrogate.beam_truth(spec, grid, _damping_or_default(args, spec))


def cmd_generate(args) -> int:
    _check_model_flags(args)
    _check_out_path(args.out)
    grid = _experiment_grid(args)
    outputs, _ = _ground_truth(args, grid)
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
    seed = _seed(args)
    freqs, outputs = dataset.read_csv(args.data)
    if freqs.size == 0:
        raise DataError(f"{args.data} holds no samples")
    k = outputs.shape[1]
    experiment = "example1" if k == 1 else "example2"
    layers = _layer_sizes(args, surrogate.EXPERIMENTS[experiment]["layers"][:-1] + [k],
                          freqs.size)
    fit = surrogate.fit_surrogate(experiment, freqs, outputs, layers,
                                  _train_config(args, experiment, seed),
                                  _test_fraction(args), record=args.history is not None)
    m = fit.model
    mlp.save_model(m.net, m.input_scaler, m.target_scaler, args.out_model, m.meta)

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

    # The trained range: the input scaler's, which predict flags against.
    lo, hi = float(input_scaler.col_min[0]), float(input_scaler.col_max[0])
    if args.freq is not None:
        grid = osc_mod.FrequencyGrid([args.freq])
    elif args.out is None:
        raise ConfigError("grid mode needs --out for the curve CSV")
    else:
        _check_out_path(args.out)
        grid = _grid(args, (lo, hi, 200), max(net.layer_sizes))
    freqs = grid.values
    if freqs[0] < lo or freqs[-1] > hi:
        what = (f"{freqs[0]} Hz is" if len(freqs) == 1
                else f"grid [{freqs[0]}, {freqs[-1]}] Hz reaches")
        print(f"warning: {what} outside the trained range [{lo}, {hi}] Hz; extrapolating",
              file=sys.stderr)
    pred = surrogate.predict_batch(model, freqs)
    if args.freq is not None:
        print(" ".join("%.17g" % v for v in pred[0]))
        return 0
    header = ["freq_hz"] + [f"pred_{c + 1}" for c in range(pred.shape[1])]
    dataset.write_rows(args.out, header, np.column_stack([freqs, pred]))
    print(f"rows={len(freqs)} out={args.out}")
    return 0


def cmd_eval(args) -> int:
    _check_model_flags(args)
    _check_out_dir(args.out_dir)
    _check_out_path(args.plot, args.out_dir)
    _check_out_path(args.history, args.out_dir)
    train_config = _train_config(args, args.experiment, _seed(args))
    grid = _experiment_grid(args)
    layers = _layer_sizes(args, surrogate.EXPERIMENTS[args.experiment]["layers"], len(grid))
    test_fraction = _test_fraction(args)
    outputs, echo = _ground_truth(args, grid)
    # per-epoch losses only for the history CSV
    report = surrogate.run_experiment(args.experiment, grid.values, outputs, echo, layers,
                                      train_config, test_fraction,
                                      record=args.history is not None)

    os.makedirs(args.out_dir, exist_ok=True)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's flags go before the command line's, whose win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return _COMMANDS[args.command](args)
    except FemSurrogateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
