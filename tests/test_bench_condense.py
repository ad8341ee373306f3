"""tools/bench_condense.py: medians, quartiles, spreads and the one-tree, one-host rule."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_condense.py"
_spec = importlib.util.spec_from_file_location("bench_condense", TOOL)
bench_condense = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_condense)

HOST = {
    "cpu_count": 2,
    "cpus_usable": 2,
    "python": "3.11.7",
    "numpy": "2.4.6",
    "commit": "abc1234",
    "src_sha256": "f00d",
    "loadavg_at_start": ["0.50", "0.40", "0.30"],
}


def _run(workload, seed, op_vs_ref, rss, failed=0):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": 12.0,
        "host": dict(HOST),
        "failed": failed,
        "end_to_end": {"op_vs_ref": op_vs_ref, "peak_rss_mb": rss, "quality": 0.75},
    }


def _traced(workload, seed, calls, auc_s):
    return {
        "workload": workload,
        "seed": seed,
        "host": dict(HOST),
        "per_layer": {"learners.train_calls": calls, "metrics.auc_s": auc_s},
    }


def test_end_to_end_medians_and_op_vs_ref_spread():
    results = [
        _run("cv-squared", 3, 4.0, 110.0),
        _run("cv-squared", 1, 5.0, 130.0, failed=1),
        _run("cv-squared", 2, 3.0, 120.0),
        _run("mc-bound", 1, 0.2, 80.0),
    ]
    summary = bench_condense.condense(results, "t1")
    cv = summary["workloads"]["cv-squared"]
    assert cv["runs"] == 3
    assert cv["seeds"] == [1, 2, 3]
    assert cv["op_vs_ref"] == {"median": 4.0, "min": 3.0, "q1": 3.5, "q3": 4.5, "max": 5.0}
    assert cv["peak_rss_mb"] == 120.0
    assert cv["quality"] == 0.75
    assert cv["failed_ops"] == 1
    assert cv["seconds"] == [12.0]
    assert cv["cpus_usable"] == [2]
    assert summary["workloads"]["mc-bound"]["op_vs_ref"] == {
        "median": 0.2, "min": 0.2, "q1": 0.2, "q3": 0.2, "max": 0.2
    }
    assert summary["tag"] == "t1"
    assert "loadavg_at_start" not in summary["host"]
    assert summary["host"]["src_sha256"] == "f00d"


def test_op_vs_ref_quartiles_interpolate_as_numpy_does():
    ratios = [0.150, 0.120, 0.144, 0.141, 0.139, 0.146, 0.143, 0.160, 0.138, 0.142]
    results = [_run("mc-bound", seed, ratio, 80.0) for seed, ratio in enumerate(ratios, 1)]
    spread = bench_condense.condense(results, "t5")["workloads"]["mc-bound"]["op_vs_ref"]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    assert spread["q1"] == pytest.approx(q1, abs=1e-15)
    assert spread["median"] == pytest.approx(median, abs=1e-15)
    assert spread["q3"] == pytest.approx(q3, abs=1e-15)
    assert spread["min"] <= spread["q1"] <= spread["median"] <= spread["q3"] <= spread["max"]


def test_traced_per_layer_medians():
    results = [_run("cv-squared", 1, 4.0, 110.0)]
    traced = [
        _traced("cv-squared", 2, 10, 0.05),
        _traced("cv-squared", 1, 10, 0.03),
        _traced("cv-squared", 3, 1220, 0.04),
    ]
    cv = bench_condense.condense(results, "t2", traced)["workloads"]["cv-squared"]
    assert cv["traced_runs"] == 3
    assert cv["traced_seeds"] == [1, 2, 3]
    assert cv["per_layer"] == {"learners.train_calls": 10, "metrics.auc_s": 0.04}


@pytest.mark.parametrize(
    "key, other",
    [("src_sha256", "beef"), ("cpu_count", 8), ("commit", "def5678")],
)
def test_refuses_runs_of_two_trees_or_hosts(key, other):
    results = [_run("cv-squared", 1, 4.0, 110.0), _run("cv-squared", 2, 4.0, 110.0)]
    results[1]["host"][key] = other
    with pytest.raises(ValueError, match="different hosts or source trees"):
        bench_condense.condense(results, "t3")
    traced = [_traced("cv-squared", 1, 10, 0.05)]
    traced[0]["host"][key] = other
    with pytest.raises(ValueError, match="different hosts or source trees"):
        bench_condense.condense(results[:1], "t3", traced)


def test_refuses_no_results():
    with pytest.raises(ValueError, match="no end-to-end result files"):
        bench_condense.condense([], "t4")
