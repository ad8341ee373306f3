"""Self-test of the benchmark: every output check must be able to fail.

Each test feeds a check a real output of the package, which it must accept,
and a corrupted copy, which it must reject.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import radon_machine as rm  # noqa: E402
from run import PER_LAYER, Ledger  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CvInputs,
    FitInputs,
    check_cv,
    check_fit,
    check_mc,
    report_digest,
)

FIT = WORKLOADS["fit-logistic"]


@pytest.fixture(scope="module")
def fit_case():
    """Holdout data and the true separator, whose AUC the check must accept."""
    data, w_true = rm.synth_classification(4000, 3, 0.1, seed=7)
    inputs = FitInputs(
        train=data, holdout=data, true_auc=rm.auc(data.x @ w_true, data.y), h=1, seed=7
    )
    return inputs, w_true, rm.Hypothesis(weights=np.append(w_true, 0.0), fit_bias=True)


def test_fit_check_rejects_off_target_and_non_finite_weights(fit_case):
    inputs, w_true, good = fit_case
    quality, _, problems = FIT.evaluate(inputs, (good, None))
    assert problems == [] and quality == inputs.true_auc
    # Tilt the separator 45 degrees towards an orthogonal direction.
    across = np.array([1.0, 0.0, 0.0]) - w_true[0] * w_true
    across /= np.linalg.norm(across)
    tilted = rm.Hypothesis(weights=np.append(w_true + across, 0.0), fit_bias=True)
    assert FIT.evaluate(inputs, (tilted, None))[2]
    assert check_fit(np.array([np.nan, 1.0, 0.0, 0.0]), inputs.true_auc, inputs.true_auc)


def test_ledger_fails_weights_one_ulp_off_the_first_operation(fit_case):
    inputs, _, good = fit_case
    nudged = good.weights.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    ledger = Ledger(FIT, inputs)
    ledger.run(lambda: (good, None))
    ledger.run(lambda: (good, None))
    assert ledger.failed == 0
    ledger.run(lambda: (rm.Hypothesis(weights=nudged, fit_bias=True), None))
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_ledger_counts_an_operation_that_raises(fit_case):
    inputs, _, _ = fit_case
    ledger = Ledger(FIT, inputs)

    def broken():
        raise rm.DataError("corrupted input")

    ledger.run(broken)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_cv_checks_reject_wrong_checksum_parity_gap_and_changed_fields(tmp_path):
    report_path = tmp_path / "report.json"
    config = {
        "dataset": {"source": "synthetic-classification", "n": 3000, "d": 2, "noise": 0.1},
        "learner": {"loss": "squared", "reg_lambda": 1.0},
        "cv_folds": 3,
        "seed": 5,
        "out": str(report_path),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    inputs = CvInputs(config_path=config_path, report_path=report_path)
    cv = WORKLOADS["cv-squared"]
    quality, digest, problems = cv.evaluate(inputs, cv.op(inputs))
    assert problems == [] and 0.5 < quality <= 1.0

    report = json.loads(report_path.read_text())
    wrong_checksum = json.loads(json.dumps(report))
    wrong_checksum["algorithms"]["avg"]["per_fold"][1]["partition_checksum"] = "0" * 40
    assert check_cv(0, wrong_checksum)
    gap = json.loads(json.dumps(report))
    gap["algorithms"]["radon"]["metric_mean"] -= 0.05
    assert check_cv(0, gap)
    assert check_cv(3, None)

    assert report_digest(report) == digest
    retimed = json.loads(json.dumps(report))
    retimed["algorithms"]["radon"]["total_s_mean"] += 1.0
    retimed["algorithms"]["radon"]["per_fold"][0]["learning_s"] += 1.0
    assert report_digest(retimed) == digest
    changed = json.loads(json.dumps(report))
    changed["algorithms"]["radon"]["per_fold"][0]["metric"] += 1e-12
    assert report_digest(changed) != digest


def test_mc_check_rejects_an_inflated_bad_fraction():
    result = rm.mc_confidence(r=4, h=2, delta_base=0.125, trials=1000, seed=3)
    assert check_mc(result) == []
    for level in (1, 2):
        inflated = json.loads(json.dumps(result))
        row = inflated["rows"][level]
        bound = row["theoretical_bound"]
        row["empirical_bad_fraction"] = bound + 4.0 * np.sqrt(bound * (1 - bound) / row["samples"])
        assert check_mc(inflated)


def test_traced_fit_spans_account_for_wall_time_and_certify_points():
    data, _ = rm.synth_classification(2500, 2, 0.1, seed=11)
    spec = rm.LearnerSpec(loss="logistic", epochs=1)
    original = rm.radon_machine
    tracer = Tracer()
    with tracer.installed(), tracer.root("op") as root:
        rm.radon_machine(spec, data, rm.RadonConfig(r=5, h=2, seed=11, n_min=100))
    assert rm.radon_machine is original

    names = [span[1] for span in tracer.subtree(root)]
    assert names.count("learners.train") == 25
    assert names.count("radon_points.radon_point") == 6
    _, _, start, end, _ = tracer.spans[root]
    assert sum(tracer.self_times(root).values()) == pytest.approx(end - start, rel=1e-9)
    per_layer = layer_metrics(tracer, root, root)
    assert set(per_layer) <= set(PER_LAYER)
    assert per_layer["learners.sgd_steps"] == 2500

    worst, attempts, problems = tracer.certify_all()
    assert problems == [] and worst < 1e-12 and attempts >= 1.0
    points, cert = tracer.radon_sets[0]
    moved = rm.RadonCertificate(
        lam=cert.lam, pos_idx=cert.pos_idx, neg_idx=cert.neg_idx,
        lambda_sum=cert.lambda_sum, point=cert.point + 1e-3,
    )
    tracer.radon_sets.append((points, moved))
    assert tracer.certify_all()[2]
