"""Parallel training on data partitions and tree aggregation of hypotheses.

The main entry point trains r^h base hypotheses on disjoint partitions and
folds them through h rounds of Radon points, each round replacing groups of
exactly r hypotheses (contiguous blocks in creation order) by their Radon
point; ``_check_tree`` holds its preconditions for it and experiments'
shared dispatch.  The averaging baseline trains on the same partitions and
returns the coordinate-wise mean instead.

Training runs in-process for any worker count through one call of the
block kernel (learners._train_block), which gives the same bits as one
train() call per partition.  The kernel makes one Python pass per SGD step
however many partitions it trains, so a process pool would only add fork
and pickling cost; the package starts no process, and ``workers`` is
checked but changes no result.  Radon levels fold in-process as well;
``_radon_level`` solves a whole level with one stacked call of
radon_points' kernel, and ``_fold_tree`` folds a tree with one such call
per level: experiments' CV folds and ``fit`` take that path.  Only
``radon_machine`` keeps the reference paths, with the same bits: its tree
(``_aggregate_levels``) takes one radon_point call per group, as it
reports each level's pin fallbacks and certificate residuals, and its SGD
at one worker makes one train() call per partition (``_train_each``); the
benchmark self-test counts the spans of both.  Partitions are read-only
views of one permutation, cached per (rows, seed), so a CV fold draws it
once to train and to checksum.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, DataError, require_seed
from .learners import Hypothesis, LearnerSpec, _check_sgd, _train_block, train
from .radon_points import _radon_stack, _violations, radon_number, radon_point


@dataclass(frozen=True)
class RadonConfig:
    """Aggregation-tree parameters.

    r must equal the hypothesis-space dimension plus 2.  Every round folds
    the hypotheses in creation order, whose contiguous groups of r are
    already independent because the partitions are a uniform shuffle.
    """

    r: int
    h: int
    seed: int
    n_min: int = 100
    workers: int = 1

    def __post_init__(self):
        require_seed(self.seed)
        if self.r < 3:
            raise ConfigError(f"r must be >= 3 (a Radon number), got {self.r}")
        if self.h < 0:
            raise ConfigError(f"h must be >= 0 (a tree height), got {self.h}")
        if self.n_min < 1:
            raise ConfigError(f"n_min must be >= 1, got {self.n_min}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass
class AggregationTrace:
    """Per-run accounting: tree shape, subset size, and phase wall times.

    ``pin_fallbacks`` and ``max_cert_residual`` hold one entry per Radon
    level: the number of groups whose winning pin is not 0, and the largest
    certify() residual among the level's points.  ``deparallelisation_factor``
    is the number of partitions, r^h: all of them train in the calling
    process, whatever the worker count, so none of that work is spread.
    """

    hypotheses_per_level: list[int] = field(default_factory=list)
    pin_fallbacks: list[int] = field(default_factory=list)
    max_cert_residual: list[float] = field(default_factory=list)
    n_subset: int = 0
    wall_time_partition: float = 0.0
    wall_time_learning: float = 0.0
    wall_time_aggregation: float = 0.0
    deparallelisation_factor: float = 1.0


def max_height(n_rows: int, r: int, n_min: int) -> int:
    """Largest h with r^h * n_min <= n_rows, by exact integer arithmetic."""
    if r < 3:
        raise ConfigError(f"r must be >= 3 (a Radon number), got {r}")
    if n_min < 1:
        raise ConfigError(f"n_min must be >= 1, got {n_min}")
    if n_rows < n_min:
        return 0
    h = 0
    capacity = n_min
    while capacity * r <= n_rows:
        capacity *= r
        h += 1
    return h


def partition_indices(n_rows: int, parts: int, seed: int) -> list[np.ndarray]:
    """Seeded uniform shuffle, then contiguous blocks of near-equal size.

    The first ``n_rows % parts`` blocks receive one extra row.  Every row
    appears in exactly one block.  The blocks are read-only views of one
    cached permutation per (n_rows, seed).
    """
    if parts < 1:
        raise ConfigError(f"parts must be >= 1, got {parts}")
    if parts > n_rows:
        raise DataError(f"cannot split {n_rows} rows into {parts} non-empty parts")
    perm = _permutation(n_rows, require_seed(seed))
    base, extra = divmod(n_rows, parts)
    blocks = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        blocks.append(perm[start : start + size])
        start += size
    return blocks


@functools.lru_cache(maxsize=2)
def _permutation(n_rows: int, seed: int) -> np.ndarray:
    """The seeded shuffle of partition_indices, read-only.  A k-fold run
    partitions at most two train-split sizes, each once to train and once
    for its checksum, so two entries draw each permutation once."""
    perm = np.random.default_rng(seed).permutation(n_rows)
    perm.flags.writeable = False
    return perm


def partition_dataset(data: Dataset, parts: int, seed: int) -> list[Dataset]:
    """Split a dataset into ``parts`` disjoint subsets (see partition_indices)."""
    return [data.subset(idx) for idx in partition_indices(data.n_rows, parts, seed)]


def training_seeds(seed: int, count: int) -> list[int]:
    """Deterministic, well-mixed per-partition training seeds."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def train_on_partitions(
    spec: LearnerSpec, data: Dataset, parts: int, seed: int, workers: int = 1
) -> tuple[np.ndarray, dict[str, float]]:
    """Train one hypothesis per partition with one learners._train_block
    call, in-process for any worker count: the shared path of both schemes.

    Returns the (parts, dim) weight matrix in partition order plus wall
    times for the partitioning and learning phases.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return _timed_training(_train_block, spec, data, parts, seed)


def _timed_training(kernel, spec: LearnerSpec, data: Dataset, parts: int, seed: int):
    """train_on_partitions with ``kernel`` in place of _train_block."""
    t0 = time.perf_counter()
    blocks = partition_indices(data.n_rows, parts, seed)
    seeds = training_seeds(seed, parts)
    t1 = time.perf_counter()
    weights = kernel(spec, data, blocks, seeds)
    return weights, {"partition_s": t1 - t0, "learning_s": time.perf_counter() - t1}


def _train_each(spec: LearnerSpec, data: Dataset, blocks: list, seeds: list) -> np.ndarray:
    """_train_block's bits and step cap from one train() call per partition."""
    _check_sgd(spec, data.x, data.n_rows)
    return np.stack([train(spec, data.subset(b), s).weights for b, s in zip(blocks, seeds)])


def _radon_level(points: np.ndarray, r: int) -> np.ndarray:
    """One aggregation round: replace each contiguous group of r rows along
    axis -2 by its Radon point.  Leading axes index independent trees."""
    *trees, rows, dim = points.shape
    point = _radon_stack(points.reshape(-1, r, dim))[3]
    return point.reshape(*trees, rows // r, dim)


def _fold_tree(points: np.ndarray, cfg: RadonConfig) -> np.ndarray:
    """The (1, dim) root of _aggregate_levels' tree, with the same bits, from
    one stacked _radon_level call per level and no trace."""
    for _ in range(cfg.h):
        points = _radon_level(points, cfg.r)
    return points


def _aggregate_levels(points: np.ndarray, cfg: RadonConfig) -> tuple[np.ndarray, AggregationTrace]:
    """Fold cfg.h levels of Radon points over the hypothesis matrix.

    Returns the root and a trace of the tree: the hypothesis count, pin
    fallbacks and worst certificate residual of every level.  Each group
    takes one radon_point call; the level's residuals come from one
    stacked check of all its certificates, equal bit for bit to a certify()
    call per group.  Only radon_machine folds this way: it reports each
    level's pins and residuals, and the benchmark self-test counts its
    radon_point spans (ROADMAP item 1); every other tree folds through
    _fold_tree.
    """
    trace = AggregationTrace(hypotheses_per_level=[points.shape[0]])
    for _ in range(cfg.h):
        groups = points.reshape(-1, cfg.r, points.shape[1])
        certs = [radon_point(group) for group in groups]
        lams = np.array([cert.lam for cert in certs])
        lambda_sums = np.array([cert.lambda_sum for cert in certs])
        points = np.array([cert.point for cert in certs])
        trace.hypotheses_per_level.append(len(certs))
        trace.pin_fallbacks.append(sum(cert.pin != 0 for cert in certs))
        residuals = _violations(groups.transpose(1, 2, 0), lams, lams >= 0.0, lambda_sums, points)
        trace.max_cert_residual.append(float(residuals.max()))
    return points, trace


def _check_tree(spec: LearnerSpec, data: Dataset, cfg: RadonConfig) -> None:
    """ConfigError unless cfg.r is the hypothesis space's Radon number;
    DataError when cfg.h > max_height, so r^h parts get < n_min rows each."""
    dim = spec.hypothesis_dim(data.dim)
    if cfg.r != radon_number(dim):
        raise ConfigError(
            f"Radon number {cfg.r} does not match hypothesis dimension {dim} "
            f"(expected r = {radon_number(dim)})"
        )
    if cfg.h > max_height(data.n_rows, cfg.r, cfg.n_min):
        small = cfg.h * cfg.r.bit_length() <= 64  # r^h < 2^64: the count in digits
        need = cfg.n_min * cfg.r**cfg.h if small else f"{cfg.n_min} * {cfg.r}^{cfg.h}"
        raise DataError(
            f"need at least {need} rows for r={cfg.r}, h={cfg.h}, n_min={cfg.n_min}; "
            f"got {data.n_rows}"
        )


def radon_machine(
    spec: LearnerSpec, data: Dataset, cfg: RadonConfig
) -> tuple[Hypothesis, AggregationTrace]:
    """Train r^h partition models as train_on_partitions does (SGD at one
    worker: one train() call each, _train_each, the traced reference path;
    ROADMAP item 1) and fold them through h rounds of Radon points.

    Requires cfg.r == hypothesis dimension + 2 and enough rows for every
    partition to hold at least cfg.n_min examples (see _check_tree).  With
    h = 0 this degenerates to training the base learner on the full dataset.
    """
    _check_tree(spec, data, cfg)
    if cfg.h == 0:
        t0 = time.perf_counter()
        hyp = train(spec, data, cfg.seed)
        trace = AggregationTrace(
            hypotheses_per_level=[1],
            n_subset=data.n_rows,
            wall_time_learning=time.perf_counter() - t0,
        )
        return hyp, trace

    parts = cfg.r**cfg.h
    kernel = _train_each if cfg.workers == 1 and not spec.solves_exactly(data.dim) else _train_block
    weights, times = _timed_training(kernel, spec, data, parts, cfg.seed)
    t0 = time.perf_counter()
    final, trace = _aggregate_levels(weights, cfg)
    trace.wall_time_aggregation = time.perf_counter() - t0
    trace.n_subset = data.n_rows // parts
    trace.wall_time_partition = times["partition_s"]
    trace.wall_time_learning = times["learning_s"]
    trace.deparallelisation_factor = float(parts)
    return Hypothesis(weights=final[0], fit_bias=spec.fit_bias), trace


def averaging_at_end(
    spec: LearnerSpec, data: Dataset, parts: int, seed: int, workers: int = 1
) -> Hypothesis:
    """Coordinate-wise mean of base hypotheses trained on the same
    partitions the Radon machine would use."""
    weights, _ = train_on_partitions(spec, data, parts, seed, workers=workers)
    return Hypothesis(weights=weights.mean(axis=0), fit_bias=spec.fit_bias)
