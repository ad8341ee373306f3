"""Parallel training on data partitions and tree aggregation of hypotheses.

One pipeline, ``_fit_all``, runs every fit: ``radon_machine``,
experiments' ``fit`` and each CV fold of ``run_benchmark``.  It checks the
tree (``_check_tree``), trains the r^h partitions once, and folds them:
``radon`` through h rounds of Radon points, each round replacing groups of
exactly r hypotheses (contiguous blocks in creation order) by their Radon
point, and the averaging baseline ``avg`` to their coordinate-wise mean.
``base``, and ``radon`` at h = 0, train once on all rows.  Every fit comes
with an AggregationTrace.

Training runs in-process for any worker count through one call of the
block kernel (learners._train_block), which gives the same bits as one
train() call per partition.  The kernel makes one Python pass per SGD step
however many partitions it trains, so a process pool would only add fork
and pickling cost; the package starts no process, and ``workers`` is
checked but changes no result.  Every tree, a fit's or a Monte-Carlo
shard's, folds through one level loop (``_levels``): one stacked call of
radon_points' kernel per level for a stack of whole trees, whose
certificate check gives each level's pin fallbacks and worst residual.
Only ``radon_machine`` at one worker with SGD takes the reference paths,
with the same bits and trace: one train() call per partition
(``_train_each``) and one radon_point call per group (``_point_by_point``);
the benchmark self-test counts the spans of both.  Partitions are
read-only np.array_split views of one permutation, cached per (rows,
parts, seed), so a CV fold draws them once to train and to checksum.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, DataError, require, require_seed
from .learners import Hypothesis, LearnerSpec, _check_sgd, _train_block, train
from .radon_points import _radon_stack, _violations, radon_number, radon_point

ALGORITHMS = ("base", "radon", "avg")


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
        require(self.r >= 3, "r", "be >= 3 (a Radon number)", self.r)
        require(self.h >= 0, "h", "be >= 0 (a tree height)", self.h)
        require(self.n_min >= 1, "n_min", "be >= 1", self.n_min)
        require(self.workers >= 1, "workers", "be >= 1", self.workers)


@dataclass
class AggregationTrace:
    """Per-fit accounting: tree shape, subset size, and phase wall times.

    ``pin_fallbacks`` and ``max_cert_residual`` hold one entry per Radon
    level: the number of groups whose winning pin is not 0, and the largest
    certify() residual among the level's points.  An ``avg`` fit's one mean
    is a level with neither.
    """

    hypotheses_per_level: list[int] = field(default_factory=list)
    pin_fallbacks: list[int] = field(default_factory=list)
    max_cert_residual: list[float] = field(default_factory=list)
    n_subset: int = 0
    wall_time_partition: float = 0.0
    wall_time_learning: float = 0.0
    wall_time_aggregation: float = 0.0


def max_height(n_rows: int, r: int, n_min: int) -> int:
    """Largest h with r^h * n_min <= n_rows, by exact integer arithmetic."""
    require(r >= 3, "r", "be >= 3 (a Radon number)", r)
    require(n_min >= 1, "n_min", "be >= 1", n_min)
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

    The first ``n_rows % parts`` blocks receive one extra row
    (np.array_split's rule).  Every row appears in exactly one block.  The
    blocks are read-only views of the permutation, cached per (n_rows,
    parts, seed); each call returns a fresh list of them.
    """
    require(parts >= 1, "parts", "be >= 1", parts)
    if parts > n_rows:
        raise DataError(f"cannot split {n_rows} rows into {parts} non-empty parts")
    return list(_blocks(n_rows, parts, require_seed(seed)))


@functools.lru_cache(maxsize=2)
def _blocks(n_rows: int, parts: int, seed: int) -> tuple[np.ndarray, ...]:
    """The blocks of partition_indices.  A k-fold run partitions at most two
    train-split sizes, each once to train and once for its checksum, so two
    entries draw each permutation once."""
    perm = np.random.default_rng(seed).permutation(n_rows)
    perm.flags.writeable = False
    return tuple(np.array_split(perm, parts))


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
    call, in-process for any worker count, as the pipeline does.

    Returns the (parts, dim) weight matrix in partition order plus wall
    times for the partitioning and learning phases.
    """
    require(workers >= 1, "workers", "be >= 1", workers)
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


def _levels(points: np.ndarray, r: int, h: int, stack=_radon_stack):
    """Fold a (trees * r^h, p) stack through h levels of Radon points, one
    ``stack`` call per level, and yield each level's points, pin-fallback
    count and worst certificate residual.  Each group is r contiguous rows,
    so no group straddles two trees and one call folds them all."""
    for _ in range(h):
        _, pins, _, points, worst = stack(points.reshape(-1, r, points.shape[1]))
        yield points, int(np.count_nonzero(pins)), float(worst.max())


def _fold_tree(points, cfg: RadonConfig, stack=_radon_stack) -> tuple[np.ndarray, AggregationTrace]:
    """Fold cfg.h levels of Radon points over the hypothesis matrix (_levels).

    Returns the (1, dim) root and a trace of the tree: the hypothesis count,
    pin fallbacks and worst certificate residual of every level, the last
    two read off the kernel's own certificate check.
    """
    trace = AggregationTrace(hypotheses_per_level=[points.shape[0]])
    for points, pins, worst in _levels(points, cfg.r, cfg.h, stack):
        trace.hypotheses_per_level.append(points.shape[0])
        trace.pin_fallbacks.append(pins)
        trace.max_cert_residual.append(worst)
    return points, trace


def _point_by_point(groups: np.ndarray) -> tuple[np.ndarray, ...]:
    """_radon_stack's tuple and bits from one radon_point call per group, the
    residuals from one stacked check (certify()'s bits).  The reference path
    folds this way, because its radon_point spans are counted by
    perfbench/test_perfbench.py::test_traced_fit_spans_account_for_wall_time_and_certify_points."""
    certs = [radon_point(group) for group in groups]
    lam = np.array([cert.lam for cert in certs])
    lambda_sum = np.array([cert.lambda_sum for cert in certs])
    point = np.array([cert.point for cert in certs])
    worst = _violations(groups.transpose(1, 2, 0), lam, lam >= 0.0, lambda_sum, point)
    return lam, np.array([cert.pin for cert in certs]), lambda_sum, point, worst


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
    """Train r^h partition models and fold them through h rounds of Radon
    points: ``radon`` of the pipeline (_fit_all).  SGD at one worker takes
    the reference paths, one train() call per partition and one
    radon_point call per group, whose spans
    perfbench/test_perfbench.py::test_traced_fit_spans_account_for_wall_time_and_certify_points
    counts.

    Requires cfg.r == hypothesis dimension + 2 and enough rows for every
    partition to hold at least cfg.n_min examples (see _check_tree).  With
    h = 0 this degenerates to training the base learner on the full dataset.
    """
    reference = cfg.workers == 1 and not spec.solves_exactly(data.dim)
    return _fit_all(("radon",), spec, data, cfg, reference)["radon"]


def _folds(name: str, h: int) -> bool:
    """``avg``, and ``radon`` above h = 0, fold r^h partition models."""
    return name == "avg" or (name == "radon" and h > 0)


def _fit_all(
    names, spec: LearnerSpec, data: Dataset, cfg: RadonConfig, reference: bool = False
) -> dict[str, tuple[Hypothesis, AggregationTrace]]:
    """The partition->learn->fold pipeline: a fit and its trace for each of
    ``names``, from ALGORITHMS.

    Those that fold share one training of the r^h partitions and its
    partitioning and learning times: ``radon`` folds them through
    _fold_tree, ``avg`` takes their mean.  Those that do not share one
    train() call on all rows with seed cfg.seed and its time.  With
    ``reference``, _train_each and _point_by_point stand in for the block
    kernel and _radon_stack, with the same bits and trace.
    """
    for name in names:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    if any(name != "base" for name in names):  # radon and avg fold r^h partitions
        _check_tree(spec, data, cfg)
    if any(_folds(name, cfg.h) for name in names):  # only a checked tree builds r^h
        parts = cfg.r**cfg.h
        kernel, stack = _train_block, _radon_stack
        if reference:
            kernel, stack = _train_each, _point_by_point
        weights, times = _timed_training(kernel, spec, data, parts, cfg.seed)
    fits = {}
    whole = None  # base, and radon at h = 0: the same train() on all rows
    for name in names:
        t0 = time.perf_counter()
        if not _folds(name, cfg.h):
            if whole is None:
                hyp = train(spec, data, cfg.seed)
                learn = time.perf_counter() - t0
                whole = hyp, AggregationTrace([1], n_subset=data.n_rows, wall_time_learning=learn)
            fits[name] = whole
            continue
        if name == "radon":
            roots, trace = _fold_tree(weights, cfg, stack)
        else:
            roots, trace = weights.mean(axis=0)[None], AggregationTrace([parts, 1])
        trace.n_subset = data.n_rows // parts
        trace.wall_time_partition = times["partition_s"]
        trace.wall_time_learning = times["learning_s"]
        trace.wall_time_aggregation = time.perf_counter() - t0
        fits[name] = Hypothesis(weights=roots[0], fit_bias=spec.fit_bias), trace
    return fits


def averaging_at_end(
    spec: LearnerSpec, data: Dataset, parts: int, seed: int, workers: int = 1
) -> Hypothesis:
    """Coordinate-wise mean of base hypotheses trained on the same
    partitions the Radon machine would use."""
    weights, _ = train_on_partitions(spec, data, parts, seed, workers=workers)
    return Hypothesis(weights=weights.mean(axis=0), fit_bias=spec.fit_bias)
