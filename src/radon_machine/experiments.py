"""Experiment orchestration: benchmarks, bound validation, bound tables.

``fit`` and every fold of ``run_benchmark`` run aggregation's one
partition->learn->fold pipeline (``_fit_all``): ``base`` (and ``radon`` at
h = 0) trains on all rows, while ``radon`` and ``avg`` fold the partition
models of one training, ``radon`` with one stacked Radon solve per level.
Each fit returns its AggregationTrace, and a benchmark row reads its phase
times off it.  ``run_benchmark`` trains every fold on the rows of
``learners.with_bias_column``, built once per run, so a fold's split is one
take and no fold copies its rows again.

Reports are plain dicts written as pretty JSON with sorted keys plus a flat
CSV of per-fold rows, so re-running a configuration with the same seed
reproduces every non-timing field exactly.  Wall-time fields all carry an
``_s`` suffix.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .aggregation import (
    ALGORITHMS, AggregationTrace, RadonConfig, _fit_all, _folds, _levels, max_height,
    partition_indices,
)
from .bounds import BoundReport, ComplexityParams, _pow, efficiency_report
from .datasets import (
    FORMATS, Dataset, kfold, load_dataset, synth_classification, synth_regression
)
from .errors import ConfigError, require, require_number, require_seed
from .learners import Hypothesis, LearnerSpec, predict_score, with_bias_column, without_bias_column
from .metrics import auc, rmse
from .radon_points import radon_number

BENCHMARK_CSV_COLUMNS = [
    "algorithm",
    "fold",
    "metric",
    "partition_s",
    "learning_s",
    "aggregation_s",
    "total_s",
]

# A bound report's fields, less the two every row of a table shares.
BOUNDS_CSV_COLUMNS = [f.name for f in fields(BoundReport) if f.name not in ("r", "delta_base")]

# The keys each dataset source reads.
DATASET_KEYS = {
    "file": ("source", "path", "format"),
    "synthetic-classification": ("source", "n", "d", "noise", "seed"),
    "synthetic-regression": ("source", "n", "d", "noise_sd", "seed"),
}

# The keys a benchmark config's ``bounds`` section may hold.
BOUNDS_KEYS = ("alpha_eps", "beta_eps", "k", "kappa", "delta_base")

MC_CSV_COLUMNS = ["level", "empirical_bad_fraction", "theoretical_bound", "samples"]

# Trials per Monte-Carlo shard.  Each shard draws from its own seed, so the
# fixed size fixes the results; it also bounds the memory of one shard's draws.
MC_SHARD_TRIALS = 512
# Caps on mc_confidence's draws: the trials * r^h leaves of a run, and the
# floats of the (shard trials * r^h, r - 2) matrix of coordinates a shard draws.
MC_MAX_LEAF_DRAWS = 100_000_000
MC_MAX_SHARD_FLOATS = 100_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark setup; each field has a default, maps 1:1 to JSON and is checked when built."""

    dataset: dict = field(
        default_factory=lambda: {"source": "synthetic-classification", "n": 20000, "d": 8, "noise": 0.1}
    )
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    algorithms: tuple[str, ...] = ("base", "radon", "avg")
    cv_folds: int = 10
    h: int | str = "max"
    n_min: int = 100
    seed: int = 0
    workers: int = 1
    out: str | None = None
    bounds: dict | None = None

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("algorithm set must be non-empty")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {name!r} in algorithms, expected subset of {ALGORITHMS}"
                )
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigError(f"algorithms must be distinct, got {list(self.algorithms)}")
        for name in ("cv_folds", "n_min", "workers"):
            require_number(getattr(self, name), name, integer=True)
        require_seed(self.seed)
        require(self.cv_folds >= 2, "cv_folds", "be >= 2", self.cv_folds)
        if self.h != "max":
            require_number(self.h, "h, unless 'max',", integer=True)
            require(self.h >= 0, "h", "be >= 0", self.h)
        require(self.n_min >= 1, "n_min", "be >= 1", self.n_min)
        require(self.workers >= 1, "workers", "be >= 1", self.workers)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string or null, got {self.out!r}")
        dataset_source(self.dataset)
        if self.bounds is not None:
            config_section({"bounds": self.bounds}, "bounds", BOUNDS_KEYS)
        if self.bounds:  # an empty object, like null, asks for no bounds report
            _complexity_params(self.bounds)
            if "delta_base" in self.bounds:
                delta_base = self.bounds["delta_base"]
                ok = 0 < require_number(delta_base, "bounds.delta_base") < 1
                require(ok, "bounds.delta_base", "lie in (0, 1)", delta_base)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "learner" in raw:
            raw["learner"] = LearnerSpec(
                **config_section(raw, "learner", LearnerSpec.__dataclass_fields__)
            )
        if "algorithms" in raw:
            if not isinstance(raw["algorithms"], list):
                raise ConfigError(
                    f"algorithms must be a JSON list of names, got {raw['algorithms']!r}"
                )
            raw["algorithms"] = tuple(raw["algorithms"])
        return cls(**raw)

    def to_dict(self) -> dict:
        return {**asdict(self), "algorithms": list(self.algorithms)}


def _in_section(name: str, build, *args):
    """build(*args), where a ConfigError, whose message starts with a field's
    name, gains the config section's: ``<name>.<field> ...``."""
    try:
        return build(*args)
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc}") from None


def _complexity_params(bounds: dict) -> ComplexityParams:
    """The base-learner model of a benchmark config's ``bounds`` section,
    which requires alpha_eps and beta_eps; ComplexityParams checks their
    ranges."""
    eps = [require_number(bounds.get(key), f"bounds.{key}") for key in ("alpha_eps", "beta_eps")]
    ints = [require_number(bounds.get(key, 1), f"bounds.{key}", integer=True)
            for key in ("k", "kappa")]
    return _in_section("bounds", ComplexityParams, *eps, *ints)


def config_section(raw: dict, name: str, keys=None) -> dict:
    """``raw[name]``, or {} when absent; a config error unless a JSON object,
    or, given ``keys``, when it holds a key outside them (named as
    ``name.key``)."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(
            f"config section {name!r} must be a JSON object, got {type(section).__name__}"
        )
    unknown = sorted(set(section) - set(keys)) if keys is not None else []
    if unknown:
        raise ConfigError(f"unknown config fields: {[f'{name}.{key}' for key in unknown]}")
    return section


def dataset_source(spec: dict) -> str:
    """The source a ``dataset`` section names; a config error when the
    section is not a JSON object, the source is unknown, or the section holds
    a key that source does not read (named as ``dataset.key``)."""
    source = config_section({"dataset": spec}, "dataset").get("source", "synthetic-classification")
    keys = DATASET_KEYS.get(source) if isinstance(source, str) else None
    if keys is None:
        raise ConfigError(f"unknown dataset source {source!r}")
    config_section({"dataset": spec}, "dataset", keys)
    return source


def resolve_dataset(spec: dict, default_seed: int) -> Dataset:
    """Build the dataset a config refers to (file or synthetic generator)."""
    source = dataset_source(spec)
    if source == "file":
        path, fmt = spec.get("path"), spec.get("format", "csv")
        if fmt not in FORMATS:
            raise ConfigError(f"dataset.format must be one of {FORMATS}, got {fmt!r}")
        if not isinstance(path, str) or not path or not Path(path).exists():
            raise ConfigError(f"dataset.path not resolvable: {path!r}")
        return load_dataset(path, fmt)
    seed = spec.get("seed")
    seed = require_seed(default_seed) if seed is None else require_seed(seed, "dataset.seed")
    n = require_number(spec.get("n", 20000), "dataset.n", integer=True)
    d = require_number(spec.get("d", 8), "dataset.d", integer=True)
    classify = source == "synthetic-classification"
    key = "noise" if classify else "noise_sd"
    noise = require_number(spec.get(key, 0.1), f"dataset.{key}")
    draw = synth_classification if classify else synth_regression
    return _in_section("dataset", draw, n, d, noise, seed)[0]


def resolve_height(h: int | str, n_rows: int, r: int, n_min: int, tree: bool = True) -> int:
    """Turn the configured height (possibly 'max') into a feasible integer.

    With ``tree=False`` (only the base learner runs, which builds no tree)
    an integer height is returned as given and only 'max' is resolved.
    """
    if h != "max" and not tree:
        return int(h)
    h_max = max_height(n_rows, r, n_min)
    if h == "max":
        return h_max
    h = int(h)
    if h > h_max:
        raise ConfigError(
            f"h={h} is infeasible for {n_rows} rows with r={r}, n_min={n_min}; h_max={h_max}"
        )
    return h


def partition_checksum(row_ids: np.ndarray, parts: int, seed: int) -> str:
    """Stable digest of the exact row-id blocks a run would train on.

    ``row_ids`` are the global ids of the rows being partitioned (for a CV
    fold, the training-split indices), so equal checksums mean the same
    data rows land in the same partitions.
    """
    row_ids = np.asarray(row_ids, dtype=np.int64)
    blocks = partition_indices(row_ids.size, parts, seed)
    ordered = row_ids.take(np.concatenate(blocks))  # every block's ids, in order
    digest = hashlib.sha1()
    start = 0
    for block in blocks:
        digest.update(ordered[start : start + block.size])
        digest.update(b"|")
        start += block.size
    return digest.hexdigest()


def _evaluate(hyp: Hypothesis, test: Dataset, spec: LearnerSpec | None = None) -> float:
    """AUC or RMSE of ``hyp`` on the rows of ``test``.  Pass ``spec`` when
    ``hyp`` and ``test`` are a fit on, and rows of, ``with_bias_column(spec,
    ...)``, so they are scored as under ``spec``."""
    x = test.x
    if spec is not None:
        hyp, x = without_bias_column(spec, hyp, x)
    scores = predict_score(hyp, x)
    if test.task == "binary":
        return auc(scores, test.y)
    return rmse(scores, test.y)


def run_benchmark(config: ExperimentConfig) -> dict:
    """Cross-validated comparison of the configured algorithms.

    Trains each algorithm on every fold's training split, evaluates on the
    held-out fold (AUC for binary tasks, RMSE for regression), and records
    partitioning, learning, and aggregation wall times separately.  ``radon``
    and ``avg`` fold the same partition models, trained once per fold, so
    their rows carry the same ``partition_s`` and ``learning_s``.  A
    ``radon`` row above h = 0 also carries its tree's trace: the
    hypotheses, pin fallbacks and worst certificate residual per level
    (``hypotheses_per_level``, ``pin_fallbacks``, ``max_cert_residual``).
    A fold's test rows are gathered once and score every algorithm.  Writes
    a JSON report and a flat per-fold CSV, without the trace, when
    ``config.out`` is set.

    Every fold trains on the rows and spec of ``with_bias_column``, which
    replace ``x`` once per run (so the run holds one matrix, not two): with
    ``fit_bias`` a fold's split is one take of rows that already carry the
    bias column, and no fit appends it again.  A ``bounds`` section's report
    is computed at fold 0's height before any fold trains, so its errors,
    named ``bounds.<field>``, come first.
    """
    data = resolve_dataset(config.dataset, config.seed)
    spec = config.learner
    r = radon_number(spec.hypothesis_dim(data.dim))
    metric_name = "auc" if data.task == "binary" else "rmse"
    plan = kfold(data, config.cv_folds, config.seed)
    summary = {"n": data.n_rows, "d": data.dim, "task": data.task}
    fold_spec, data = with_bias_column(spec, data)
    tree = any(name != "base" for name in config.algorithms)

    per_alg: dict[str, list[dict]] = {name: [] for name in config.algorithms}
    heights: list[int] = []
    bounds = None
    for fold in range(config.cv_folds):
        train_idx = plan.train_indices(fold)
        train_split = data.subset(train_idx)
        test = data.subset(plan.test_indices(fold))
        h = resolve_height(config.h, train_split.n_rows, r, config.n_min, tree=tree)
        heights.append(h)
        if config.bounds and fold == 0:  # at fold 0's height, before any fold trains
            delta_base = float(config.bounds.get("delta_base", 1.0 / (2 * r)))
            params = _complexity_params(config.bounds)
            bounds = _in_section(
                "bounds", efficiency_report, params, r, delta_base, h, config.workers
            ).to_dict()
        cfg = RadonConfig(r=r, h=h, seed=config.seed, n_min=config.n_min, workers=config.workers)
        fits = _fit_all(config.algorithms, fold_spec, train_split, cfg)
        checksum = None
        if any(_folds(name, h) for name in config.algorithms):
            checksum = partition_checksum(train_idx, r**h, config.seed)
        for name in config.algorithms:
            hyp, trace = fits[name]
            row = {"partition_s": trace.wall_time_partition, "learning_s": trace.wall_time_learning,
                   "aggregation_s": trace.wall_time_aggregation}
            row["total_s"] = sum(row.values())
            row.update(fold=fold, partition_checksum=checksum if _folds(name, h) else None)
            if name == "radon" and h > 0:  # at h = 0 radon is base, row for row
                row.update(hypotheses_per_level=trace.hypotheses_per_level,
                           pin_fallbacks=trace.pin_fallbacks,
                           max_cert_residual=trace.max_cert_residual)
            row["metric"] = _evaluate(hyp, test, spec)
            per_alg[name].append(row)

    algorithms = {}
    for name, rows in per_alg.items():
        metrics = np.array([row["metric"] for row in rows])
        totals = np.array([row["total_s"] for row in rows])
        algorithms[name] = {
            "per_fold": rows,
            "metric_mean": float(metrics.mean()),
            "metric_std": float(metrics.std(ddof=1)) if len(rows) > 1 else 0.0,
            "total_s_mean": float(totals.mean()),
        }

    report = {
        "config": config.to_dict(),
        "dataset": summary,
        "metric": metric_name,
        "radon_number": r,
        "heights_per_fold": heights,
        "algorithms": algorithms,
        "speedup_base_over_radon": None,
        "bounds": bounds,
    }
    if "base" in algorithms and "radon" in algorithms:
        radon_total = algorithms["radon"]["total_s_mean"]
        if radon_total > 0:
            report["speedup_base_over_radon"] = algorithms["base"]["total_s_mean"] / radon_total
    if config.out:
        csv_rows = [
            {**row, "algorithm": name}
            for name in config.algorithms
            for row in algorithms[name]["per_fold"]
        ]
        write_report(report, config.out, csv_rows, BENCHMARK_CSV_COLUMNS)
    return report


def fit(
    name: str, spec: LearnerSpec, data: Dataset, cfg: RadonConfig
) -> tuple[Hypothesis, AggregationTrace]:
    """Train one of ALGORITHMS on ``data``.

    ``base`` trains on all rows with seed cfg.seed, ``radon`` runs the Radon
    machine with ``cfg``, and ``avg`` averages the cfg.r ** cfg.h partition
    models the Radon machine would fold; both check the tree first, as
    radon_machine does.  Returns the hypothesis and its trace, whose wall
    times split the partitioning, learning and aggregation phases.
    """
    return _fit_all((name,), spec, data, cfg)[name]


def _mc_shard(
    r: int, h: int, delta_base: float, n_trials: int, seed: int, shard_idx: int
) -> list[tuple[int, int, float]]:
    """Simulate one shard of aggregation trees, all folded by one _levels
    loop; returns each level's bad count, pin fallbacks and worst
    certificate residual (0 and 0.0 at level 0, which folds nothing).

    Hypotheses live in (r - 2)-dimensional space so the space's Radon number
    is exactly r.  Distances are in units of the quality radius: good draws
    are uniform in the unit ball around a fixed target, bad draws sit at
    distance 2, and a point is bad when its norm exceeds 1.  The bad
    probability is exact by construction, so the per-level bad fractions
    can be compared sharply against (r * delta_base) ** (2 ** level).
    """
    d = r - 2
    leaves = r**h
    rng = np.random.default_rng(np.random.SeedSequence((seed, shard_idx)))
    m = n_trials * leaves
    bad = rng.random(m) < delta_base
    directions = rng.standard_normal((m, d))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0.0] = 1.0
    directions /= norms[:, None]
    radii = np.where(bad, 2.0, rng.random(m) ** (1.0 / d))
    points = directions * radii[:, None]

    stats = [(int(bad.sum()), 0, 0.0)]
    for folded, pins, worst in _levels(points, r, h):
        stats.append((int((np.linalg.norm(folded, axis=1) > 1.0).sum()), pins, worst))
    return stats


def mc_confidence(
    r: int, h: int, delta_base: float, trials: int, seed: int, workers: int = 1
) -> dict:
    """Monte-Carlo check of the per-level failure bound.

    Builds ``trials`` full aggregation trees from fresh draws and reports,
    per level, the fraction of surviving hypotheses outside the quality
    radius next to the theoretical bound.  Radon points are
    affine-equivariant, so that fraction does not depend on the radius,
    and the draws take it as their unit.  Trials are simulated in-process
    in fixed-size shards, each from its own seed, and merged by summation.
    Each row above level 0 also holds the level's pin fallbacks, summed
    over the shards, and its worst certificate residual, their maximum.
    ``workers`` must be >= 1 but changes neither the path nor the result.
    """
    require(r >= 3, "r", "be >= 3 (a Radon number)", r)
    require(h >= 0, "h", "be >= 0 (a tree height)", h)
    require(0.0 <= delta_base < 1.0, "delta_base", "lie in [0, 1)", delta_base)
    if trials < 1000:
        raise ConfigError(f"need at least 1000 trials, got {trials}")
    require(workers >= 1, "workers", "be >= 1", workers)
    require_seed(seed)
    if trials > MC_MAX_LEAF_DRAWS or h > max_height(MC_MAX_LEAF_DRAWS, r, trials):
        raise ConfigError(
            f"trials * r^h exceeds the cap of {MC_MAX_LEAF_DRAWS} at trials={trials}, r={r}, h={h}"
        )
    coordinates = min(trials, MC_SHARD_TRIALS) * (r - 2)  # per leaf of a shard
    if coordinates > MC_MAX_SHARD_FLOATS or h > max_height(MC_MAX_SHARD_FLOATS, r, coordinates):
        raise ConfigError(
            f"a shard's min(trials, {MC_SHARD_TRIALS}) * r^h * (r - 2) coordinates exceed the cap "
            f"of {MC_MAX_SHARD_FLOATS} at trials={trials}, r={r}, h={h}"
        )

    shards = [
        _mc_shard(r, h, delta_base, min(MC_SHARD_TRIALS, trials - start), seed, idx)
        for idx, start in enumerate(range(0, trials, MC_SHARD_TRIALS))
    ]
    rows = []
    for level, stats in enumerate(zip(*shards)):
        bad, pins, worst = zip(*stats)
        samples = trials * r ** (h - level)
        row = {
            "level": level,
            "empirical_bad_fraction": float(sum(bad)) / samples,
            "theoretical_bound": _pow(r * delta_base, 2**level),
            "samples": samples,
        }
        if level:
            row.update(pin_fallbacks=sum(pins), max_cert_residual=max(worst))
        rows.append(row)
    return {
        "r": r,
        "h": h,
        "delta_base": delta_base,
        "trials": trials,
        "bound_precondition_met": delta_base <= 1.0 / (2 * r),
        "rows": rows,
    }


def bounds_table(
    params: ComplexityParams,
    r: int,
    delta_base: float,
    h_range,
    c_workers: int = 1,
) -> list[dict]:
    """One efficiency report row per height in ``h_range``."""
    rows = []
    for h in h_range:
        report = efficiency_report(params, r, delta_base, int(h), c_workers)
        rows.append({key: getattr(report, key) for key in BOUNDS_CSV_COLUMNS})
    return rows


def _finite_or_null(value):
    """``value`` with each non-finite float replaced by None, as strict JSON
    has no token for inf or NaN."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(payload: dict, path: str | Path) -> None:
    """``payload`` as pretty, strict JSON with sorted keys; inf and NaN are
    written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows: list[dict], columns: list[str], path: str | Path) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(payload: dict, out: str | Path, rows: list[dict], columns: list[str]) -> None:
    """``payload`` as strict JSON at ``out`` and ``rows`` as CSV at its twin,
    ``out`` with the suffix ``.csv``: every report's two files."""
    write_json(payload, out)
    write_csv(rows, columns, Path(out).with_suffix(".csv"))
