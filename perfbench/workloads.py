"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Every input is generated from the workload seed alone; the package receives
only the generated data.  ``evaluate`` returns the operation's quality, a
fingerprint that must be the same for every operation of a run, and the
list of failed output checks.  The pure check functions are also used by
the self-test, which shows that each rejects a corrupted output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import radon_machine as rm
from radon_machine import cli

AUC_TOLERANCE = 0.01  # fit-logistic: holdout AUC vs the true separator's AUC
PARITY_TOLERANCE = 0.02  # cv-squared: |base - radon| mean CV AUC, as in A5
MC_LEVELS_CHECKED = (1, 2)  # mc-bound: levels held to the A3 rule
MC_TRIALS = 1000  # mc-bound: the least mc_confidence accepts


def check_fit(weights: np.ndarray, holdout_auc: float, true_auc: float) -> list[str]:
    problems = []
    if not np.all(np.isfinite(weights)):
        problems.append("fit-logistic: weights are not finite")
    if not abs(holdout_auc - true_auc) <= AUC_TOLERANCE:
        problems.append(
            f"fit-logistic: holdout AUC {holdout_auc:.4f} is not within {AUC_TOLERANCE} "
            f"of the true separator's {true_auc:.4f}"
        )
    return problems


def check_cv(rc: int, report: dict) -> list[str]:
    if rc != 0:
        return [f"cv-squared: benchmark command exited with {rc}"]
    problems = []
    algorithms = report["algorithms"]
    radon_folds, avg_folds = algorithms["radon"]["per_fold"], algorithms["avg"]["per_fold"]
    for radon_row, avg_row in zip(radon_folds, avg_folds):
        checksum = radon_row["partition_checksum"]
        if checksum is None or checksum != avg_row["partition_checksum"]:
            problems.append(
                f"cv-squared: fold {radon_row['fold']}: radon and avg partitions differ"
            )
    if len(radon_folds) != len(avg_folds) or not radon_folds:
        problems.append("cv-squared: radon and avg report different fold counts")
    gap = abs(algorithms["base"]["metric_mean"] - algorithms["radon"]["metric_mean"])
    if not gap <= PARITY_TOLERANCE:
        problems.append(f"cv-squared: parity gap {gap:.4f} exceeds {PARITY_TOLERANCE}")
    return problems


def check_mc(result: dict) -> list[str]:
    """The A3 rule: empirical bad fraction <= bound + 3 sigma."""
    problems = []
    rows = {row["level"]: row for row in result["rows"]}
    for level in MC_LEVELS_CHECKED:
        row = rows[level]
        bound = row["theoretical_bound"]
        sigma = math.sqrt(bound * (1.0 - bound) / row["samples"])
        if not row["empirical_bad_fraction"] <= bound + 3.0 * sigma:
            problems.append(
                f"mc-bound: level {level} bad fraction {row['empirical_bad_fraction']:.4f} "
                f"exceeds {bound} + 3 sigma"
            )
    return problems


def report_digest(report: dict) -> str:
    """Digest of a benchmark report without its timing fields.

    Drops the wall-time keys (``*_s`` and ``*_s_mean``) and
    ``speedup_base_over_radon``, a ratio of wall times; the rest is
    deterministic for a fixed config.
    """

    def strip(node):
        if isinstance(node, dict):
            return {
                key: strip(value)
                for key, value in node.items()
                if not key.endswith(("_s", "_s_mean")) and key != "speedup_base_over_radon"
            }
        if isinstance(node, list):
            return [strip(item) for item in node]
        return node

    blob = json.dumps(strip(report), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class FitInputs:
    train: rm.Dataset
    holdout: rm.Dataset
    true_auc: float
    h: int
    seed: int


class FitLogistic:
    """radon_machine on 50k x 8 logistic data with two workers."""

    name = "fit-logistic"
    n_train, n_holdout, dim, noise = 50_000, 20_000, 8, 0.1
    spec = rm.LearnerSpec(loss="logistic", epochs=2)
    r = dim + 3  # feature dimension + bias + 2
    workers = 2
    # The traced run fits in-process, where spans of every train() call are
    # visible, and compares that fit with the two-worker one.
    traced_variant = {"workers": 1}
    single_process = False

    def build(self, seed: int, work_dir: Path) -> FitInputs:
        # One generator draw, so the holdout shares the training separator.
        n_rows = self.n_train + self.n_holdout
        data, w_true = rm.synth_classification(n_rows, self.dim, self.noise, seed)
        train = rm.Dataset(x=data.x[: self.n_train], y=data.y[: self.n_train], task="binary")
        holdout = rm.Dataset(x=data.x[self.n_train :], y=data.y[self.n_train :], task="binary")
        true_auc = rm.auc(holdout.x @ w_true, holdout.y)
        h = rm.max_height(self.n_train, self.r, 100)
        return FitInputs(train=train, holdout=holdout, true_auc=true_auc, h=h, seed=seed)

    def op(self, inputs: FitInputs, workers: int | None = None):
        workers = workers or self.workers
        cfg = rm.RadonConfig(r=self.r, h=inputs.h, seed=inputs.seed, workers=workers)
        return rm.radon_machine(self.spec, inputs.train, cfg)

    def evaluate(self, inputs: FitInputs, output) -> tuple[float, bytes, list[str]]:
        hyp, _ = output
        holdout_auc = rm.auc(rm.predict_score(hyp, inputs.holdout.x), inputs.holdout.y)
        problems = check_fit(hyp.weights, holdout_auc, inputs.true_auc)
        return holdout_auc, hyp.weights.tobytes(), problems


@dataclass(frozen=True)
class CvInputs:
    config_path: Path
    report_path: Path


class CvSquared:
    """In-process `radon-machine benchmark` on a 50k x 9 CSV file."""

    name = "cv-squared"
    n, dim, noise = 50_000, 8, 0.1
    traced_variant: dict = {}
    single_process = True

    def build(self, seed: int, work_dir: Path) -> CvInputs:
        data, _ = rm.synth_classification(self.n, self.dim, self.noise, seed)
        work_dir.mkdir(parents=True, exist_ok=True)
        csv_path = work_dir / "cv-data.csv"
        table = np.column_stack([data.x, np.where(data.y > 0, 1.0, 0.0)])
        header = ",".join([f"x{i}" for i in range(self.dim)] + ["label"])
        np.savetxt(csv_path, table, fmt="%.17g", delimiter=",", header=header, comments="")
        report_path = work_dir / "cv-report.json"
        config = {
            "dataset": {"source": "file", "path": str(csv_path), "format": "csv"},
            "learner": {"loss": "squared", "reg_lambda": 1.0},
            "algorithms": ["base", "radon", "avg"],
            "cv_folds": 10,
            "h": "max",
            "workers": 1,
            "seed": seed,
            "out": str(report_path),
        }
        config_path = work_dir / "cv-config.json"
        config_path.write_text(json.dumps(config))
        return CvInputs(config_path=config_path, report_path=report_path)

    def op(self, inputs: CvInputs):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["benchmark", "--config", str(inputs.config_path)])
        report = json.loads(inputs.report_path.read_text()) if rc == 0 else None
        return rc, report

    def evaluate(self, inputs: CvInputs, output) -> tuple[float, str, list[str]]:
        rc, report = output
        problems = check_cv(rc, report)
        if rc != 0:
            return 0.0, "", problems
        return report["algorithms"]["radon"]["metric_mean"], report_digest(report), problems


class McBound:
    """mc_confidence(r=4, h=2, delta_base=0.125, trials=1000), one process."""

    name = "mc-bound"
    traced_variant: dict = {}
    single_process = True

    def build(self, seed: int, work_dir: Path) -> int:
        return seed

    def op(self, seed: int):
        return rm.mc_confidence(r=4, h=2, delta_base=0.125, trials=MC_TRIALS, seed=seed, workers=1)

    def evaluate(self, seed: int, output) -> tuple[float, str, list[str]]:
        # Quality is the share of level-1 Radon points that stay good.
        level1 = next(row for row in output["rows"] if row["level"] == 1)
        fingerprint = json.dumps(output["rows"], sort_keys=True)
        return 1.0 - level1["empirical_bad_fraction"], fingerprint, check_mc(output)


WORKLOADS = {w.name: w for w in (FitLogistic(), CvSquared(), McBound())}
