"""Linear base learners: convex losses with L2 regularisation.

A hypothesis is a plain vector of weights; with ``fit_bias`` the bias is
appended as the last coordinate, so the hypothesis space stays a plain
Euclidean space of dimension d + 1 and aggregation can treat hypotheses as
points.  The regulariser (reg_lambda / 2) * ||w||^2 covers all coordinates,
bias included.

Training minimises the summed objective

    risk(w) = sum_i loss(<w, x_i>, y_i) + (reg_lambda / 2) * ||w||^2.

Squared loss uses an exact normal-equations solve for moderate dimensions.
The other losses run per-example stochastic gradient descent over data
reshuffled each epoch by a seeded generator, with the decaying step size

    eta_t = eta0 / (1 + eta0 * reg_lambda * t / n).

Each step follows the gradient of loss_i + (reg_lambda / (2n)) * ||w||^2,
an unbiased estimate of risk / n, so the stationary target is the summed
objective above; the decay constant reg_lambda / n matches that per-step
objective's regulariser.  Training is a pure function of (spec, data, seed).

SGD steps on signed rows: ``y * [x, 1]`` for logistic and hinge loss,
whose labels are +-1, and ``[x, 1]`` for squared loss, built once per fit
(_step_rows).  A step scores the margin s = <row, w> and takes the loss's
derivative in the margin, c (_step_factor), so its gradient is c * row
with no label read for the classification losses.  That keeps the bits of
stepping on ``[x, 1]`` with loss_derivatives: multiplying by +-1 is exact,
so s is y times the score and c * (y * x) is loss_derivatives' value times
x.  The two margins can differ only in the sign of a zero, which no factor
reads; a hinge step outside the margin adds a zero gradient whose sign may
differ, which moves no bit: the weights start at +0.0, no update makes
one -0.0, and adding a zero of either sign leaves any other weight as it is.
``_train_block`` trains many partitions in the caller's process and
returns the bits of one ``train`` call per partition without calling
``train``: SGD runs in lock-step, and exact squared-loss solves, at every
reg_lambda, go as one stacked solve per chunk of a run of equal-size
partitions.  Diverged SGD raises ShapeError naming
``learning_rate0``; before its first step, an SGD fit of more than
MAX_SGD_STEPS steps is a ConfigError naming ``learner.epochs``, and rows
whose squared norm overflows are a DataError, as are scores that overflow
in predict_score.  ``with_bias_column`` lets many fits share one copy of
the rows with the bias column appended, and ``without_bias_column`` scores
their weights as the configured spec would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, DataError, ShapeError, require, require_number

# Dimension limit for the exact normal-equations path of the squared loss.
EXACT_SOLVE_MAX_DIM = 512
# Cap on the steps of one SGD fit (epochs x rows trained), checked before the first.
MAX_SGD_STEPS = 10**10
# Floats of one gathered chunk of the exact solve's stacked rows, bias column
# included; a chunk holds at least one partition.
EXACT_GATHER_FLOATS = 1 << 16

LOSS_NAMES = ("logistic", "hinge", "squared")
CLASSIFICATION_LOSSES = ("logistic", "hinge")


@dataclass(frozen=True)
class LearnerSpec:
    """Configuration of the base learner."""

    loss: str = "logistic"
    reg_lambda: float = 1e-3
    epochs: int = 10
    learning_rate0: float = 0.1
    fit_bias: bool = True

    def __post_init__(self):
        if self.loss not in LOSS_NAMES:
            raise ConfigError(f"learner.loss must be one of {LOSS_NAMES}, got {self.loss!r}")
        reg_lambda = require_number(self.reg_lambda, "learner.reg_lambda")
        require_number(self.epochs, "learner.epochs", integer=True)
        learning_rate0 = require_number(self.learning_rate0, "learner.learning_rate0")
        if not isinstance(self.fit_bias, bool):
            raise ConfigError(f"learner.fit_bias must be true or false, got {self.fit_bias!r}")
        require(math.isfinite(reg_lambda) and reg_lambda >= 0,
                "learner.reg_lambda", "be finite and >= 0", self.reg_lambda)
        require(self.epochs >= 1, "learner.epochs", "be >= 1", self.epochs)
        require(math.isfinite(learning_rate0) and learning_rate0 > 0,
                "learner.learning_rate0", "be finite and > 0", self.learning_rate0)

    def hypothesis_dim(self, data_dim: int) -> int:
        return data_dim + 1 if self.fit_bias else data_dim

    def solves_exactly(self, data_dim: int) -> bool:
        """Squared loss at moderate dimension: normal equations, not SGD."""
        return self.loss == "squared" and self.hypothesis_dim(data_dim) <= EXACT_SOLVE_MAX_DIM


@dataclass(frozen=True)
class Hypothesis:
    """Immutable linear model; bias, when fitted, is the last weight."""

    weights: np.ndarray
    fit_bias: bool

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ShapeError(f"weights must be a non-empty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ShapeError("weights contain non-finite values")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return int(self.weights.size)


def loss_values(loss: str, scores, labels) -> np.ndarray:
    """Per-example loss at the given raw scores."""
    z = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if loss == "logistic":
        return np.logaddexp(0.0, -y * z)
    if loss == "hinge":
        return np.maximum(0.0, 1.0 - y * z)
    if loss == "squared":
        return 0.5 * (z - y) ** 2
    raise ConfigError(f"unknown loss {loss!r}")


def loss_derivatives(loss: str, scores, labels) -> np.ndarray:
    """d loss / d score.  SGD steps with _step_factor instead; this is the
    reference the gradient checks and the SGD bit tests hold it to."""
    z = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if loss == "logistic":
        m = y * z
        # -y * sigmoid(-m), with the stable branch picked per sign of m.
        em = np.exp(-np.abs(m))
        return -y * (np.where(m >= 0.0, em, 1.0) / (1.0 + em))
    if loss == "hinge":
        return np.where(y * z < 1.0, -y, 0.0)
    if loss == "squared":
        return z - y
    raise ConfigError(f"unknown loss {loss!r}")


def _augmented(x: np.ndarray, fit_bias: bool) -> np.ndarray:
    """``x`` with a column of ones appended along its last axis (rows, or a
    stack of partitions' rows) when ``fit_bias``; ``x`` itself otherwise."""
    if not fit_bias:
        return x
    return np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)


def with_bias_column(spec: LearnerSpec, data: Dataset) -> tuple[LearnerSpec, Dataset]:
    """The spec and data to train subsets of ``data`` on, many times over:
    with ``fit_bias``, ``spec`` without it and the rows ``[x, 1]``, built
    once.  That is the same problem bit for bit, since the bias is the last
    weight and the regulariser covers it like any other, so a subset is one
    take and no fit appends a column.  without_bias_column gives back what
    predict_score takes under ``spec``.
    """
    if not spec.fit_bias:
        return spec, data
    return replace(spec, fit_bias=False), Dataset(_augmented(data.x, True), data.y, data.task)


def without_bias_column(
    spec: LearnerSpec, h: Hypothesis, x: np.ndarray
) -> tuple[Hypothesis, np.ndarray]:
    """``(h, x)`` as predict_score takes them under ``spec``, for weights
    ``h`` trained on, and rows ``x`` taken from, ``with_bias_column(spec,
    data)``: with ``fit_bias``, the last weight is the bias again and the
    column of ones is dropped, so the scores have the bits that the same
    rows of ``data`` give.
    """
    if not spec.fit_bias:
        return h, x
    return Hypothesis(h.weights, fit_bias=True), x[:, :-1]


def _check_labels(spec: LearnerSpec, data: Dataset) -> None:
    if data.n_rows == 0:
        raise DataError("cannot train on an empty dataset")
    if spec.loss in CLASSIFICATION_LOSSES:
        if not np.all(np.isin(data.y, (-1.0, 1.0))):
            raise DataError(f"learner.loss {spec.loss!r} requires labels in {{-1, +1}}")


def _step_rows(spec: LearnerSpec, data: Dataset) -> np.ndarray:
    """The rows SGD steps on, one copy: ``y * [x, 1]`` for logistic and
    hinge loss, whose labels are +-1, and ``[x, 1]`` for squared loss (the
    column of ones only with ``fit_bias``)."""
    if spec.loss not in CLASSIFICATION_LOSSES:
        return _augmented(data.x, spec.fit_bias)
    n, d = data.x.shape
    rows = np.empty((n, spec.hypothesis_dim(d)))
    np.multiply(data.x, data.y[:, None], out=rows[:, :d])
    if spec.fit_bias:
        rows[:, d] = data.y
    return rows


def _step_factor(loss: str, s, y):
    """d loss / d margin at the margins ``s`` (a row of _step_rows dotted
    with the weights), so a step's gradient is this factor times the row.
    For logistic and hinge the margin is y * score and the factor y times
    loss_derivatives'; for squared loss the margin is the score, and ``y``
    holds the labels that only this loss reads."""
    if loss == "logistic":
        # -sigmoid(-s), with the stable branch picked per sign of s
        ns = -s
        return np.exp(np.minimum(ns, 0.0)) / (-1.0 - np.exp(np.minimum(ns, s)))
    if loss == "hinge":
        return np.where(s < 1.0, -1.0, 0.0)
    return s - y


def train(spec: LearnerSpec, data: Dataset, seed: int) -> Hypothesis:
    """Fit a linear model; deterministic given (spec, data, seed)."""
    _check_labels(spec, data)
    if spec.solves_exactly(data.dim):
        xa = _augmented(data.x, spec.fit_bias)
        w = _solve_normal_equations(xa, data.y, spec.reg_lambda)
        return Hypothesis(weights=w, fit_bias=spec.fit_bias)

    rows = _step_rows(spec, data)
    n, p = rows.shape
    _check_sgd(spec, rows, n)
    labels = data.y if spec.loss == "squared" else None
    rng = np.random.default_rng(seed)
    w = np.zeros(p)
    lr0 = spec.learning_rate0
    decay = lr0 * spec.reg_lambda / n
    reg_step = spec.reg_lambda / n
    t = 0
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        for i in order:
            row = rows[i]
            # The row-wise sum, not row @ w, so that _train_block, which
            # scores a whole block with a sum along its rows, matches bit for bit.
            c = _step_factor(spec.loss, (row * w).sum(), None if labels is None else labels[i])
            eta = lr0 / (1.0 + decay * t)
            w -= eta * (c * row + reg_step * w)
            t += 1
    if not np.all(np.isfinite(w)):
        raise _diverged(spec)
    return Hypothesis(weights=w, fit_bias=spec.fit_bias)


def _train_block(spec: LearnerSpec, data: Dataset, blocks: list, seeds: list) -> np.ndarray:
    """Equal bit for bit to the rows
    ``[train(spec, data.subset(b), s).weights for b, s in zip(blocks, seeds)]``.

    ``blocks`` must have the shape partition_indices gives them: non-empty,
    and never larger than the block before (the first ``n_rows % parts``
    hold one row more).  Both branches read their rows by id: SGD from one
    copy of its step rows, the exact solve from ``data``'s rows themselves
    (a CV run hands in rows that already carry the bias column; see
    with_bias_column).

    The SGD runs of the partitions advance in lock-step: step s of every
    partition still running is one vectorised update, so the Python loop
    makes as many passes as the first block has steps rather than their
    sum.  Since the blocks never grow, the partitions still running at step
    s are always a prefix of them.  Each partition keeps its own per-epoch
    permutations and its own step-size and regulariser constants from its
    own row count.  Each epoch starts by filling two (steps, partitions)
    tables once: the ids of the step rows (_step_rows) that each
    partition's permutation visits, and their step sizes.  A pass gathers
    its step rows by id (and, for squared loss only, their labels), sums
    row * w along each row for the margins, and reads its step sizes off
    the table.  Exact squared loss, at every reg_lambda, skips SGD: each
    run of equal-size partitions is gathered in chunks of at most
    EXACT_GATHER_FLOATS floats (at least one partition each), one take of
    ``data.x`` per chunk with the bias column appended to the chunk alone,
    and one _solve_normal_equations call per chunk.  So no whole-data
    ``[x, 1]`` copy and no whole-run gather is built, and every matrix
    still takes the BLAS/LAPACK calls of a separate solve.
    """
    _check_labels(spec, data)
    sizes = np.array([len(block) for block in blocks])
    if spec.solves_exactly(data.dim):
        w = np.zeros((len(blocks), spec.hypothesis_dim(data.dim)))
        edges = [0, *(np.flatnonzero(np.diff(sizes)) + 1), len(blocks)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            per_chunk = max(1, EXACT_GATHER_FLOATS // (sizes[lo] * w.shape[1]))
            for a in range(lo, hi, per_chunk):
                b = min(a + per_chunk, hi)
                idx = np.stack(blocks[a:b])
                # unnamed, so each chunk is freed before the next is gathered
                w[a:b] = _solve_normal_equations(
                    _augmented(data.x.take(idx, axis=0), spec.fit_bias), data.y.take(idx),
                    spec.reg_lambda,
                )
        if not np.isfinite(w).all():
            raise ShapeError("weights contain non-finite values")  # as Hypothesis would
        return w

    table = _step_rows(spec, data)
    _check_sgd(spec, table, int(sizes.sum()))
    labels = data.y[:, None] if spec.loss == "squared" else None
    w = np.zeros((len(blocks), table.shape[1]))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    lr0 = spec.learning_rate0
    decay = lr0 * spec.reg_lambda / sizes[:, None]
    reg_step = np.repeat((spec.reg_lambda / sizes)[:, None], w.shape[1], axis=1)
    steps = np.arange(sizes[0], dtype=np.float64)[:, None, None]
    # live[s]: how many partitions, a prefix, still run at step s of an epoch
    live = (sizes > steps[:, 0]).sum(axis=1).tolist()
    # ids[s, k] and etas[s, k, 0]: row of the table that partition k visits
    # at step s of the current epoch, and its step size; entries past a
    # partition's own size are never used.
    ids = np.zeros((sizes[0], len(blocks)), dtype=np.intp)
    etas = np.empty((*ids.shape, 1))
    for epoch in range(spec.epochs):
        for k, rng in enumerate(rngs):
            ids[: sizes[k], k] = rng.permutation(blocks[k])
        # lr0 / (1 + decay * t) at each step count t = epoch * size + s, a
        # whole number below 2^53 (MAX_SGD_STEPS), so the float add is exact
        np.add(steps, epoch * sizes[:, None], out=etas)
        etas *= decay
        etas += 1.0
        np.divide(lr0, etas, out=etas)
        for s, m in enumerate(live):
            idx = ids[s, :m]
            rt = table.take(idx, axis=0)
            wm = w[:m]
            margins = np.add.reduce(rt * wm, axis=1, keepdims=True)
            y = None if labels is None else labels.take(idx, axis=0)
            c = _step_factor(spec.loss, margins, y)
            wm -= etas[s, :m] * (c * rt + reg_step[:m] * wm)
    diverged = np.flatnonzero(~np.isfinite(w).all(axis=1))
    if diverged.size:
        raise _diverged(spec, f" on partition {diverged[0]}")
    return w


def _check_sgd(spec: LearnerSpec, xa: np.ndarray, rows: int) -> None:
    """Before the first SGD step over ``rows`` rows of ``xa``: ConfigError
    when the fit's steps exceed MAX_SGD_STEPS, DataError when a row's
    squared norm overflows, since a step on that row would send its score
    past float64 for any but a vanishing step size.  No row's squared norm
    exceeds the sum of all squares, so one dot product clears the data when
    that sum is at most half the largest float; only above it are the norms
    computed row by row."""
    steps = int(spec.epochs) * rows
    if steps > MAX_SGD_STEPS:
        raise ConfigError(
            f"learner.epochs={spec.epochs} over {rows} rows makes {steps} SGD steps, "
            f"above the cap of {MAX_SGD_STEPS}"
        )
    with np.errstate(over="ignore"):
        if np.vdot(xa, xa) <= np.finfo(np.float64).max / 2:
            return
        norms = np.einsum("ij,ij->i", xa, xa)
    if not np.isfinite(norms).all():
        raise DataError(
            "the data's values overflow SGD's scores (a row's squared norm is not finite)"
        )


def _diverged(spec: LearnerSpec, where: str = "") -> ShapeError:
    lr0 = spec.learning_rate0
    return ShapeError(f"SGD diverged{where}: non-finite weights; learning_rate0={lr0} is too large")


def _solve_normal_equations(xa: np.ndarray, y: np.ndarray, reg_lambda: float) -> np.ndarray:
    """Exact minimiser of the summed squared-loss objective.

    ``xa`` is one (n, p) matrix or a (k, n, p) stack of equal-size
    partitions with ``y`` of shape (n,) or (k, n).  A stack takes the same
    BLAS syrk/gemv and LAPACK gesv calls per matrix as a single matrix, so
    each of its rows has the bits of a separate call.  ``reg_lambda == 0``
    takes lstsq, one call per matrix of a stack.  Data whose Gram matrix or
    X^T y overflows to a non-finite value is a DataError for either solver,
    as is a singular regularised Gram matrix (dependent columns, reg_lambda
    too small).
    """
    xt = np.swapaxes(xa, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = xt @ xa + reg_lambda * np.eye(xa.shape[-1])
        xty = xt @ y[..., None]
    if not (np.isfinite(gram).all() and np.isfinite(xty).all()):
        raise DataError(
            "the data's values overflow the squared-loss normal equations "
            "(X^T X or X^T y is not finite)"
        )
    if reg_lambda > 0.0:
        try:
            return np.linalg.solve(gram, xty)[..., 0]
        except np.linalg.LinAlgError:
            raise DataError(f"the squared-loss normal equations are singular at learner.reg_lambda "
                            f"{reg_lambda!r}; reg_lambda 0 solves dependent columns by least "
                            "squares") from None
    if xa.ndim == 2:  # lstsq takes one matrix at a time
        return np.linalg.lstsq(xa, y, rcond=None)[0]
    return np.stack([np.linalg.lstsq(xk, yk, rcond=None)[0] for xk, yk in zip(xa, y)])


def predict_score(h: Hypothesis, x) -> float | np.ndarray:
    """Raw score <w, x> (+ bias); sign(score) is the predicted class."""
    xv = np.asarray(x, dtype=np.float64)
    single = xv.ndim == 1
    xm = xv[None, :] if single else xv
    if xm.ndim != 2:
        raise ShapeError(f"expected a vector or matrix of inputs, got shape {xv.shape}")
    expected = xm.shape[1] + 1 if h.fit_bias else xm.shape[1]
    if h.dim != expected:
        raise ShapeError(
            f"hypothesis of dimension {h.dim} cannot score inputs of dimension {xm.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        if h.fit_bias:
            scores = xm @ h.weights[:-1] + h.weights[-1]
        else:
            scores = xm @ h.weights
    if not np.isfinite(scores).all():
        raise DataError("the data's values overflow the scores <w, x> (a score is not finite)")
    return float(scores[0]) if single else scores


def regularized_risk(spec: LearnerSpec, h: Hypothesis, data: Dataset) -> float:
    """Summed per-example loss plus (reg_lambda / 2) * ||w||^2."""
    _check_labels(spec, data)
    scores = predict_score(h, data.x)
    penalty = 0.5 * spec.reg_lambda * float(h.weights @ h.weights)
    return float(loss_values(spec.loss, scores, data.y).sum()) + penalty


def empirical_regret(
    h: Hypothesis, spec: LearnerSpec, holdout: Dataset, reference: Hypothesis
) -> float:
    """Mean hold-out loss of ``h`` minus that of ``reference``.

    A hold-out stand-in for the expected-loss gap to the best hypothesis;
    can come out negative through finite-sample noise.
    """
    _check_labels(spec, holdout)
    loss_h = loss_values(spec.loss, predict_score(h, holdout.x), holdout.y).mean()
    loss_ref = loss_values(spec.loss, predict_score(reference, holdout.x), holdout.y).mean()
    return float(loss_h - loss_ref)
