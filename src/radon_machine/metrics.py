"""Evaluation metrics: ranking AUC and root mean squared error."""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties count 1/2.

    Equals the fraction of (positive, negative) pairs ranked correctly,
    which the tests verify against the quadratic pairwise definition.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
    pos = y > 0
    n_pos = int(pos.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC is undefined when only one class is present")
    ranks = _average_ranks(s)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank; NaNs,
    which equal nothing, rank last in index order."""
    # The default sort may leave equal values in any order, which their
    # shared rank hides; it sorts NaNs last but not in index order, so their
    # positions are sorted to give the ranks a stable sort would.
    order = np.argsort(values)
    n_nan = np.count_nonzero(np.isnan(values))
    if n_nan > 1:
        order[-n_nan:].sort()
    sorted_vals = values[order]
    # Runs of equal sorted values: starts[k] <= i < ends[k].
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    return ranks


def rmse(predictions, targets) -> float:
    """Root mean squared error."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1 or p.size < 1:
        raise ShapeError(f"predictions {p.shape} and targets {t.shape} must match")
    return float(np.sqrt(np.mean((p - t) ** 2)))
