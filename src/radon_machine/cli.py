"""Command-line front end.

Subcommands: ``benchmark``, ``mc-bound``, ``bounds``, ``train``, ``predict``.
Each takes only those of the shared flags ``--config``, ``--seed``,
``--workers`` and ``--out`` that it reads; a given flag replaces its
config-file field before the fields are validated.  Exit codes: 0 on
success, 2 on configuration errors, 3 on data errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from .aggregation import RadonConfig
from .bounds import ComplexityParams, _require_radon_number
from .datasets import FORMATS, TASKS
from .errors import ConfigError, DataError, require, require_number
from .experiments import (
    BOUNDS_CSV_COLUMNS,
    BOUNDS_KEYS,
    MC_CSV_COLUMNS,
    ExperimentConfig,
    _in_section,
    bounds_table,
    config_section,
    fit,
    mc_confidence,
    resolve_dataset,
    resolve_height,
    run_benchmark,
    write_csv,
    write_json,
    write_report,
)
from .learners import Hypothesis, LearnerSpec, predict_score
from .radon_points import radon_number

# The keys each subcommand reads from its config section.
MC_KEYS = ("r", "h", "delta_base", "trials", "seed", "workers")
BOUNDS_TABLE_KEYS = (*BOUNDS_KEYS, "r", "h_min", "h_max", "c_workers")
# The bounds table's last height: from it on 2^h is past float range, so the
# bound and the sequential sample sizes are 0 or inf.
BOUNDS_MAX_HEIGHT = 1024


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a path that cannot be read or written
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radon-machine",
        description="Parallel learning via Radon-point aggregation trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("benchmark", help="cross-validated algorithm comparison")
    _add_common(bench, "config", "seed", "workers", "out")
    bench.add_argument("--algorithms", help="comma list from base,radon,avg")
    bench.add_argument("--cv-folds", type=int, default=None)
    bench.add_argument("--h", default=None, help="tree height or 'max'")
    bench.set_defaults(handler=_cmd_benchmark)

    mc = sub.add_parser("mc-bound", help="Monte-Carlo validation of the failure bound")
    _add_common(mc, "config", "seed", "workers", "out")
    mc.add_argument("--r", type=int, default=None)
    mc.add_argument("--h", type=int, default=None)
    mc.add_argument("--delta-base", type=float, default=None)
    mc.add_argument("--trials", type=int, default=None)
    mc.set_defaults(handler=_cmd_mc_bound)

    bounds = sub.add_parser("bounds", help="closed-form bound table over heights")
    _add_common(bounds, "config", "workers", "out")
    bounds.add_argument("--r", type=int, default=None)
    bounds.add_argument("--delta-base", type=float, default=None)
    bounds.add_argument("--alpha-eps", type=float, default=None)
    bounds.add_argument("--beta-eps", type=float, default=None)
    bounds.add_argument("--k", type=int, default=None)
    bounds.add_argument("--kappa", type=int, default=None)
    bounds.add_argument("--h-min", type=int, default=None)
    bounds.add_argument("--h-max", type=int, default=None)
    bounds.set_defaults(handler=_cmd_bounds)

    tr = sub.add_parser("train", help="train a model and save it as JSON")
    _add_common(tr, "seed", "workers", "out")
    _add_dataset_args(tr)
    tr.add_argument("--algorithm", choices=("base", "radon", "avg"), default="radon")
    tr.add_argument("--h", default="max", help="tree height or 'max'")
    tr.add_argument("--n-min", type=int, default=100)
    tr.add_argument("--loss", choices=("logistic", "hinge", "squared"), default="logistic")
    tr.add_argument("--reg-lambda", type=float, default=1e-3)
    tr.add_argument("--epochs", type=int, default=10)
    tr.add_argument("--learning-rate0", type=float, default=0.1)
    tr.add_argument("--no-bias", action="store_true")
    tr.set_defaults(handler=_cmd_train, seed=0, workers=1)

    pr = sub.add_parser("predict", help="score a dataset with a saved model")
    _add_common(pr, "out")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--format", choices=FORMATS, default="csv")
    pr.set_defaults(handler=_cmd_predict)
    return parser


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    """Register the named shared flags, each defaulting to None."""
    helps = {"config": "JSON config file", "out": "output path (JSON; CSV twin where applicable)"}
    for name in names:
        kind = int if name in ("seed", "workers") else str
        sub.add_argument(f"--{name}", type=kind, default=None, help=helps.get(name))


def _add_dataset_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", default=None, help="dataset file path")
    sub.add_argument("--format", choices=FORMATS, default="csv")
    sub.add_argument(
        "--synth", choices=("classification", "regression"), default="classification",
        help="generate data",
    )
    sub.add_argument("--n", type=int, default=20000)
    sub.add_argument("--d", type=int, default=8)
    sub.add_argument("--noise", type=float, default=0.1, help="label flip probability")
    sub.add_argument("--noise-sd", type=float, default=0.1, help="regression noise level")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(raw).__name__}")
    return raw


def _parse_height(text: str) -> int | str:
    """The --h flag of benchmark and train: an integer or 'max'."""
    if text == "max":
        return text
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--h must be an integer or 'max', got {text!r}") from None


def _picker(section: dict, name: str):
    """pick(flag, key, default, cast): the flag when given, else the
    section's field, which must be a number: an integer for int, and for
    float read as one (+inf past float range)."""

    def pick(flag, key, default, cast):
        if flag is not None:
            return flag
        return require_number(section.get(key, default), f"{name}.{key}", integer=cast is int)

    return pick


@contextlib.contextmanager
def _naming(path: str | None):
    """Re-raise a DataError about the rows of the data file ``path`` with
    the file named, unless it names it already."""
    try:
        yield
    except DataError as exc:
        if path is None or path in str(exc):
            raise
        raise DataError(f"{exc} (data file {path})") from None


def _cmd_benchmark(args) -> int:
    raw = _load_config_file(args.config)
    flags = {"seed": args.seed, "workers": args.workers, "out": args.out, "cv_folds": args.cv_folds}
    if args.algorithms is not None:
        flags["algorithms"] = args.algorithms.split(",")
    if args.h is not None:
        flags["h"] = _parse_height(args.h)
    config = ExperimentConfig.from_dict(raw | {k: v for k, v in flags.items() if v is not None})

    source = config.dataset.get("source")
    with _naming(config.dataset.get("path") if source == "file" else None):
        report = run_benchmark(config)
    print(f"dataset: n={report['dataset']['n']} d={report['dataset']['d']} "
          f"task={report['dataset']['task']}  metric={report['metric']}")
    for name, summary in report["algorithms"].items():
        print(
            f"{name:>6}: {report['metric']}={summary['metric_mean']:.4f} "
            f"(+-{summary['metric_std']:.4f})  total={summary['total_s_mean']:.3f}s"
        )
    if report["speedup_base_over_radon"] is not None:
        print(f"speedup base/radon: {report['speedup_base_over_radon']:.2f}x")
    if config.out:
        print(f"report written to {config.out}")
    return 0


def _cmd_mc_bound(args) -> int:
    section = config_section(_load_config_file(args.config), "mc", MC_KEYS)
    pick = _picker(section, "mc")
    r = pick(args.r, "r", 4, int)
    h = pick(args.h, "h", 2, int)
    delta_base = pick(args.delta_base, "delta_base", 0.125, float)
    trials = pick(args.trials, "trials", 10000, int)
    seed = pick(args.seed, "seed", 0, int)
    workers = pick(args.workers, "workers", 1, int)

    result = mc_confidence(r, h, delta_base, trials, seed, workers=workers)
    if not result["bound_precondition_met"]:
        print(
            f"warning: delta_base={delta_base} exceeds 1/(2r)={1.0 / (2 * r)}; "
            "the bound may be vacuous",
            file=sys.stderr,
        )
    print(f"r={r} h={h} delta_base={delta_base} trials={trials}")
    print("level  empirical   bound")
    for row in result["rows"]:
        print(
            f"{row['level']:>5}  {row['empirical_bad_fraction']:<10.6f}  "
            f"{row['theoretical_bound']:.6g}"
        )
    if args.out:
        write_report(result, args.out, result["rows"], MC_CSV_COLUMNS)
        print(f"report written to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    section = config_section(_load_config_file(args.config), "bounds", BOUNDS_TABLE_KEYS)
    pick = _picker(section, "bounds")
    params = _in_section(
        "bounds", ComplexityParams,
        pick(args.alpha_eps, "alpha_eps", 0.0, float), pick(args.beta_eps, "beta_eps", 1.0, float),
        pick(args.k, "k", 1, int), pick(args.kappa, "kappa", 1, int),
    )
    r = pick(args.r, "r", 4, int)
    _require_radon_number(r)
    delta_base = pick(args.delta_base, "delta_base", 1.0 / (2 * r), float)
    h_min = pick(args.h_min, "h_min", 0, int)
    h_max = pick(args.h_max, "h_max", 4, int)
    workers = pick(args.workers, "c_workers", 1, int)
    require(h_min >= 0, "h_min", "be >= 0", h_min)
    if h_min > h_max:
        raise ConfigError(f"h_min {h_min} exceeds h_max {h_max}")
    require(h_max <= BOUNDS_MAX_HEIGHT, "h_max", f"be <= {BOUNDS_MAX_HEIGHT}", h_max)

    rows = bounds_table(params, r, delta_base, range(h_min, h_max + 1), workers)
    header = "h      delta         n_base        n_radon       m_sequential  speedup_est"
    print(header)
    for row in rows:
        print(
            f"{row['h']:<6} {row['delta']:<13.6g} {row['n_base']:<13.6g} "
            f"{row['n_radon']:<13.6g} {row['m_sequential']:<13.6g} {row['speedup_estimate']:.6g}"
        )
    if args.out:
        payload = {"params": params.__dict__ | {"r": r, "delta_base": delta_base}, "rows": rows}
        write_report(payload, args.out, rows, BOUNDS_CSV_COLUMNS)
        print(f"table written to {args.out}")
    return 0


def _cmd_train(args) -> int:
    noise = {"noise": args.noise} if args.synth == "classification" else {"noise_sd": args.noise_sd}
    source = {"source": f"synthetic-{args.synth}", "n": args.n, "d": args.d, **noise}
    if args.data is not None:
        source = {"source": "file", "path": args.data, "format": args.format}
    data = resolve_dataset(source, args.seed)
    spec = LearnerSpec(
        loss=args.loss,
        reg_lambda=args.reg_lambda,
        epochs=args.epochs,
        learning_rate0=args.learning_rate0,
        fit_bias=not args.no_bias,
    )
    r = radon_number(spec.hypothesis_dim(data.dim))
    h = resolve_height(
        _parse_height(args.h), data.n_rows, r, args.n_min, tree=args.algorithm != "base"
    )
    cfg = RadonConfig(r=r, h=h, seed=args.seed, n_min=args.n_min, workers=args.workers)
    with _naming(args.data):
        hyp, _ = fit(args.algorithm, spec, data, cfg)

    model = {
        "weights": [float(w) for w in hyp.weights],
        "fit_bias": hyp.fit_bias,
        "loss": spec.loss,
        "task": data.task,
        "algorithm": args.algorithm,
        "h": h,
        "r": r,
        "seed": args.seed,
        "trained_rows": data.n_rows,
    }
    out = args.out or "model.json"
    write_json(model, out)
    print(f"trained {args.algorithm} (h={h}, r={r}) on {data.n_rows} rows -> {out}")
    return 0


def _cmd_predict(args) -> int:
    model_path = Path(args.model)
    if not model_path.exists():
        raise ConfigError(f"model file not found: {args.model}")
    try:
        model = json.loads(model_path.read_text())
        hyp = Hypothesis(
            weights=np.asarray(model["weights"], dtype=np.float64), fit_bias=model["fit_bias"]
        )
        task = model.get("task", "binary")
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"model file {args.model} is malformed: {exc}") from exc
    if not isinstance(hyp.fit_bias, bool):
        raise ConfigError(
            f"model file {args.model}: fit_bias must be true or false, got {hyp.fit_bias!r}"
        )
    if task not in TASKS:
        raise ConfigError(f"model file {args.model}: task must be one of {TASKS}, got {task!r}")

    data = resolve_dataset({"source": "file", "path": args.data, "format": args.format}, 0)
    if hyp.dim != data.dim + hyp.fit_bias:
        raise ConfigError(
            f"model file {args.model} holds {hyp.dim} weights, but {args.data}'s "
            f"{data.dim} features need {data.dim + hyp.fit_bias} (fit_bias {hyp.fit_bias})"
        )
    with _naming(args.data):
        scores = predict_score(hyp, data.x)
    binary = task == "binary"
    rows = [
        {
            "index": i,
            "score": float(s),
            "label": (1 if s >= 0 else -1) if binary else None,
        }
        for i, s in enumerate(scores)
    ]
    if args.out:
        write_csv(rows, ["index", "score", "label"], args.out)
        print(f"{len(rows)} predictions written to {args.out}")
    else:
        for row in rows[:20]:
            print(f"{row['index']},{row['score']!r},{'' if row['label'] is None else row['label']}")
        if len(rows) > 20:
            print(f"... {len(rows) - 20} more rows (use --out to write all)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
