"""Dataset container, file loaders, synthetic generators, and fold plans.

A Dataset checks its rows once, when it is built; ``subset`` gathers rows
of a checked dataset with ``ndarray.take`` and does not check them again.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError, ShapeError, require

TASKS = ("binary", "regression")
FORMATS = ("csv", "svmlight")

# Cap on the cells of a dense feature matrix built from an svmlight file
# (rows x largest index) or by a synthetic generator (n x d); 10^8 float64
# cells are 800 MB.
MAX_DENSE_CELLS = 100_000_000


@dataclass(frozen=True)
class Dataset:
    """Immutable rows of (feature vector, label).

    Binary tasks require labels in {-1, +1}; regression labels are any
    finite reals.  Arrays are made read-only, so the fits and folds that
    read one dataset's rows cannot change them.
    """

    x: np.ndarray
    y: np.ndarray
    task: str

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ShapeError(f"features must be a (rows, dim) matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ShapeError(f"labels of shape {y.shape} do not match {x.shape[0]} rows")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise DataError("dataset contains non-finite values")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.task == "binary" and y.size and not np.all(np.isin(y, (-1.0, 1.0))):
            raise DataError("binary task requires labels in {-1, +1}")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_rows(self) -> int:
        return int(self.x.shape[0])

    @property
    def dim(self) -> int:
        return int(self.x.shape[1])

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``, in that order.  They were checked when
        this dataset was built, so they are gathered, not checked again."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ShapeError(f"row indices must be a vector, got shape {idx.shape}")
        sub = object.__new__(type(self))
        for name, rows in (("x", self.x.take(idx, axis=0)), ("y", self.y.take(idx))):
            rows.flags.writeable = False
            object.__setattr__(sub, name, rows)
        object.__setattr__(sub, "task", self.task)
        return sub


@dataclass(frozen=True)
class FoldPlan:
    """Cross-validation assignment: row index -> fold id, sizes differ by <= 1."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.intp)
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def _infer_binary(y: np.ndarray) -> tuple[np.ndarray, str]:
    """Remap {0, 1} labels to {-1, +1}; classify the task by label range."""
    uniq = np.unique(y)
    if np.all(np.isin(uniq, (-1.0, 1.0))):
        return y, "binary"
    if np.all(np.isin(uniq, (0.0, 1.0))):
        return np.where(y > 0.5, 1.0, -1.0), "binary"
    return y, "regression"


def load_dataset(path: str | Path, fmt: str = "csv") -> Dataset:
    """Load a dataset from disk.

    csv: one header row, comma separated, no quoting; the last column is
    the label.  svmlight: lines of ``label idx:val idx:val ...`` with
    1-based indices, densified up to the largest index seen.
    """
    path = Path(path)
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "svmlight":
        return _load_svmlight(path)
    raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")


def _load_csv(path: Path) -> Dataset:
    mat = _loadtxt_csv(path)
    if mat is None:
        mat = _parse_csv_lines(path)
    y, task = _infer_binary(mat[:, -1])
    return Dataset(x=mat[:, :-1], y=y, task=task)


def _loadtxt_csv(path: Path) -> np.ndarray | None:
    r"""The data rows through np.loadtxt, or None where _parse_csv_lines
    must decide: a cell loadtxt rejects, a column count unlike the header's,
    a single column (no feature), no data rows, a non-finite cell (nan, inf
    or a literal past float range), or a byte on which the two parsers
    disagree.  Both split lines at \n, \r and \r\n and round cells
    correctly, but str.splitlines also breaks lines at \x0b, \x0c,
    \x1c-\x1e and at non-ASCII separators, and loadtxt strips \x1c-\x1f
    around a cell, which float() rejects.
    """
    raw = path.read_bytes()
    if not raw.isascii() or any(byte in raw for byte in b"\x0b\x0c\x1c\x1d\x1e\x1f"):
        return None
    n_cols = re.match(rb"[^\r\n]*", raw)[0].count(b",") + 1
    del raw  # not held while loadtxt parses
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # header-only file
            mat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError:
        return None
    valid = mat.shape[0] > 0 and mat.shape[1] == n_cols > 1 and np.isfinite(mat).all()
    return mat if valid else None


def _parse_csv_lines(path: Path) -> np.ndarray:
    """Parse the CSV one line at a time; errors name the offending line,
    and a non-finite cell is one."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    n_cols = len(lines[0].split(","))
    if n_cols < 2:
        raise ParseError(f"{path}: line 1: need at least one feature column and a label")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ParseError(f"{path}: line {lineno}: expected {n_cols} columns, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            cell = next(c for c, v in zip(cells, row) if not math.isfinite(v))
            raise ParseError(f"{path}: line {lineno}: non-finite value {cell!r}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _read_text(path: Path) -> str:
    """The file's text; a ParseError naming it unless it is UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _load_svmlight(path: Path) -> Dataset:
    labels: list[float] = []
    sparse_rows: list[list[tuple[int, float]]] = []
    max_index = 0
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        try:
            labels.append(float(fields[0]))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: bad label {fields[0]!r}") from exc
        if not math.isfinite(labels[-1]):
            raise ParseError(f"{path}: line {lineno}: non-finite label {fields[0]!r}")
        entries = []
        for field in fields[1:]:
            try:
                idx_str, val_str = field.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: bad entry {field!r}") from exc
            if idx < 1:
                raise ParseError(f"{path}: line {lineno}: indices are 1-based, got {idx}")
            if not math.isfinite(val):
                raise ParseError(f"{path}: line {lineno}: non-finite value in {field!r}")
            entries.append((idx, val))
            max_index = max(max_index, idx)
        sparse_rows.append(entries)
        if len(sparse_rows) * max_index > MAX_DENSE_CELLS:
            raise ParseError(
                f"{path}: line {lineno}: {len(sparse_rows)} rows x {max_index} columns "
                f"exceed the cap of {MAX_DENSE_CELLS} dense cells"
            )
    if not sparse_rows or max_index == 0:
        raise ParseError(f"{path}: no data rows")
    x = np.zeros((len(sparse_rows), max_index))
    for i, entries in enumerate(sparse_rows):
        for idx, val in entries:
            x[i, idx - 1] = val
    y, task = _infer_binary(np.asarray(labels, dtype=np.float64))
    return Dataset(x=x, y=y, task=task)


def _check_synth_shape(n: int, d: int) -> None:
    """ConfigError unless a synthetic n x d matrix is non-empty and within
    MAX_DENSE_CELLS; checked before anything is allocated.  Its messages,
    and the generators' own, start with the dataset field at fault."""
    for name, value in (("n", n), ("d", d)):
        require(value >= 1, name, "be >= 1", value)
    if n * d > MAX_DENSE_CELLS:
        raise ConfigError(
            f"n * d is too large: {n} rows x {d} columns exceed the cap of "
            f"{MAX_DENSE_CELLS} dense cells"
        )


def _synth_features(n: int, d: int, seed: int):
    """The seeded generator, its unit separator and n rows uniform on [-1, 1]^d."""
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(d)
    w_true /= np.linalg.norm(w_true)
    return rng, w_true, rng.uniform(-1.0, 1.0, size=(n, d))


def synth_classification(
    n: int, d: int, margin_noise: float, seed: int
) -> tuple[Dataset, np.ndarray]:
    """Linearly separable labels with independent flips.

    Features are uniform on [-1, 1]^d, the true separator is a seeded unit
    vector, and each label is flipped with probability ``margin_noise``.
    Returns the dataset and the true weight vector for oracle checks.
    """
    _check_synth_shape(n, d)
    require(0.0 <= margin_noise <= 0.5, "noise", "lie in [0, 0.5]", margin_noise)
    rng, w_true, x = _synth_features(n, d, seed)
    y = np.where(x @ w_true >= 0.0, 1.0, -1.0)
    flips = rng.random(n) < margin_noise
    y[flips] *= -1.0
    return Dataset(x=x, y=y, task="binary"), w_true


def synth_regression(n: int, d: int, noise_sd: float, seed: int) -> tuple[Dataset, np.ndarray]:
    """Linear responses with Gaussian noise of standard deviation noise_sd."""
    _check_synth_shape(n, d)
    require(0.0 <= noise_sd < math.inf, "noise_sd", "be finite and >= 0", noise_sd)
    rng, w_true, x = _synth_features(n, d, seed)
    y = x @ w_true + noise_sd * rng.standard_normal(n)
    return Dataset(x=x, y=y, task="regression"), w_true


def kfold(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle followed by round-robin fold assignment."""
    require(k >= 2, "k", "be >= 2", k)
    if k > dataset.n_rows:
        raise DataError(f"cannot split {dataset.n_rows} rows into cv_folds={k} folds")
    perm = np.random.default_rng(seed).permutation(dataset.n_rows)
    assignments = np.empty(dataset.n_rows, dtype=np.intp)
    assignments[perm] = np.arange(dataset.n_rows) % k
    return FoldPlan(k=k, assignments=assignments)
