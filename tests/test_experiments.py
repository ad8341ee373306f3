"""Benchmark orchestration, Monte-Carlo validation, and bound tables."""

import ast
import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radon_machine import (
    AggregationTrace,
    ComplexityParams,
    ConfigError,
    DataError,
    Dataset,
    ExperimentConfig,
    LearnerSpec,
    RadonConfig,
    averaging_at_end,
    bounds_table,
    certify,
    fit,
    mc_confidence,
    radon_machine,
    radon_point,
    run_benchmark,
    synth_classification,
    synth_regression,
    train,
)
from radon_machine import aggregation, experiments, kfold, learners
from radon_machine.experiments import BENCHMARK_CSV_COLUMNS, resolve_height
from radon_machine.radon_points import _radon_stack

SRC = Path(__file__).resolve().parent.parent / "src" / "radon_machine"

SMALL_BENCH = dict(
    dataset={"source": "synthetic-classification", "n": 3000, "d": 2, "noise": 0.1},
    learner=LearnerSpec(loss="squared", reg_lambda=0.1, fit_bias=True),
    algorithms=("base", "radon", "avg"),
    cv_folds=3,
    h="max",
    n_min=50,
    seed=77,
    workers=1,
)


class TestRunBenchmark:
    def test_report_structure_and_fold_counts(self, tmp_path):
        out = tmp_path / "report.json"
        config = ExperimentConfig(**{**SMALL_BENCH, "out": str(out)})
        report = run_benchmark(config)
        assert report["metric"] == "auc"
        for name in ("base", "radon", "avg"):
            assert len(report["algorithms"][name]["per_fold"]) == 3
            for row in report["algorithms"][name]["per_fold"]:
                assert 0.0 <= row["metric"] <= 1.0
                assert row["total_s"] >= 0.0
        assert out.exists()
        csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0] == ",".join(BENCHMARK_CSV_COLUMNS)
        assert len(csv_lines) == 1 + 3 * 3  # header + folds x algorithms

    def test_radon_and_avg_share_partitions(self):
        config = ExperimentConfig(**SMALL_BENCH)
        report = run_benchmark(config)
        radon_sums = [r["partition_checksum"] for r in report["algorithms"]["radon"]["per_fold"]]
        avg_sums = [r["partition_checksum"] for r in report["algorithms"]["avg"]["per_fold"]]
        assert radon_sums == avg_sums
        assert all(s is not None for s in radon_sums)
        base_sums = [r["partition_checksum"] for r in report["algorithms"]["base"]["per_fold"]]
        assert base_sums == [None, None, None]

    def test_rerun_reproduces_non_timing_fields(self):
        config = ExperimentConfig(**SMALL_BENCH)
        a = run_benchmark(config)
        b = run_benchmark(config)

        timing_keys = {"speedup_base_over_radon"}

        def strip_timing(node):
            if isinstance(node, dict):
                return {
                    key: strip_timing(value)
                    for key, value in node.items()
                    if not key.endswith("_s")
                    and not key.endswith("_s_mean")
                    and key not in timing_keys
                }
            if isinstance(node, list):
                return [strip_timing(item) for item in node]
            return node

        assert json.dumps(strip_timing(a), sort_keys=True) == json.dumps(
            strip_timing(b), sort_keys=True
        )
        assert a["speedup_base_over_radon"] is not None

    def test_infeasible_height_names_maximum(self):
        config = ExperimentConfig(**{**SMALL_BENCH, "h": 6})
        with pytest.raises(ConfigError, match="h_max"):
            run_benchmark(config)

    def test_regression_uses_rmse(self):
        config = ExperimentConfig(
            dataset={"source": "synthetic-regression", "n": 2000, "d": 2, "noise_sd": 0.3},
            learner=LearnerSpec(loss="squared", reg_lambda=0.1, fit_bias=False),
            algorithms=("base",),
            cv_folds=2,
            seed=5,
        )
        report = run_benchmark(config)
        assert report["metric"] == "rmse"
        assert report["algorithms"]["base"]["metric_mean"] == pytest.approx(0.3, rel=0.2)

    def test_bounds_attachment(self):
        config = ExperimentConfig(
            **{**SMALL_BENCH, "algorithms": ("radon",)},
            bounds={"alpha_eps": 1.0, "beta_eps": 1.0, "k": 1, "kappa": 1},
        )
        report = run_benchmark(config)
        assert report["bounds"]["r"] == report["radon_number"]
        assert 0.0 < report["bounds"]["delta"] <= 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**SMALL_BENCH, "algorithms": ()})
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**SMALL_BENCH, "algorithms": ("base", "boost")})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"unexpected": 1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"learner": {"lose": "logistic"}})

    def test_from_dict_round_trip(self):
        config = ExperimentConfig(**SMALL_BENCH)
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config


class TestFit:
    def test_each_algorithm_matches_its_entry_point(self):
        data, _ = synth_classification(1200, 2, 0.1, seed=6)
        spec = LearnerSpec(loss="logistic", epochs=2)
        cfg = RadonConfig(r=5, h=1, seed=8, n_min=100)
        base, trace = fit("base", spec, data, cfg)
        assert np.array_equal(base.weights, train(spec, data, 8).weights)
        assert trace.wall_time_partition == trace.wall_time_aggregation == 0.0
        assert (trace.hypotheses_per_level, trace.n_subset) == ([1], 1200)
        radon, trace = fit("radon", spec, data, cfg)
        assert np.array_equal(radon.weights, radon_machine(spec, data, cfg)[0].weights)
        assert type(trace) is AggregationTrace and trace.hypotheses_per_level == [5, 1]
        assert min(trace.wall_time_partition, trace.wall_time_learning) > 0.0
        avg, _ = fit("avg", spec, data, cfg)
        assert np.array_equal(avg.weights, averaging_at_end(spec, data, 5, 8).weights)
        with pytest.raises(ConfigError, match="unknown algorithm"):
            fit("turbo", spec, data, cfg)


class TestResolveHeight:
    def test_max_resolution(self):
        assert resolve_height("max", 10**6, 10, 100) == 4

    def test_explicit_feasible(self):
        assert resolve_height(2, 10**6, 10, 100) == 2

    def test_explicit_infeasible(self):
        with pytest.raises(ConfigError, match="h_max=4"):
            resolve_height(5, 10**6, 10, 100)


class TestMcConfidence:
    def test_no_bad_draws_means_no_failures(self):
        result = mc_confidence(r=4, h=1, delta_base=0.0, trials=1000, seed=3)
        assert [row["empirical_bad_fraction"] for row in result["rows"]] == [0.0, 0.0]

    def test_height_zero_matches_base_rate(self):
        delta = 0.125
        trials = 4000
        result = mc_confidence(r=4, h=0, delta_base=delta, trials=trials, seed=4)
        fraction = result["rows"][0]["empirical_bad_fraction"]
        sigma = np.sqrt(delta * (1 - delta) / trials)
        assert abs(fraction - delta) <= 3.0 * sigma

    def test_bound_columns(self):
        result = mc_confidence(r=4, h=2, delta_base=0.125, trials=1000, seed=5)
        bounds = [row["theoretical_bound"] for row in result["rows"]]
        assert bounds == [0.5, 0.25, 0.0625]
        samples = [row["samples"] for row in result["rows"]]
        assert samples == [16000, 4000, 1000]

    def test_shard_merging_independent_of_workers(self):
        a = mc_confidence(r=3, h=1, delta_base=0.1, trials=1500, seed=9, workers=1)
        b = mc_confidence(r=3, h=1, delta_base=0.1, trials=1500, seed=9, workers=2)
        assert a["rows"] == b["rows"]

    def test_bad_fraction_non_increasing_below_threshold(self):
        # entering a level with bad fraction at most 1 / (2r) must not make
        # matters worse, up to binomial noise
        r = 4
        result = mc_confidence(r=r, h=2, delta_base=1.0 / (2 * r), trials=4000, seed=15)
        rows = result["rows"]
        assert rows[0]["empirical_bad_fraction"] <= 1.0 / (2 * r) + 3.0 * np.sqrt(
            0.125 * 0.875 / rows[0]["samples"]
        )
        for prev, nxt in zip(rows, rows[1:]):
            p = max(prev["empirical_bad_fraction"], 1.0 / prev["samples"])
            slack = 3.0 * np.sqrt(p * (1.0 - p) / nxt["samples"])
            assert nxt["empirical_bad_fraction"] <= prev["empirical_bad_fraction"] + slack

    def test_trial_floor_enforced(self):
        with pytest.raises(ConfigError):
            mc_confidence(r=4, h=1, delta_base=0.1, trials=10, seed=0)

    def test_workers_below_one_rejected(self):
        for workers in (0, -5):
            with pytest.raises(ConfigError, match="workers"):
                mc_confidence(r=4, h=1, delta_base=0.1, trials=1000, seed=0, workers=workers)

    def test_memory_guard(self):
        with pytest.raises(ConfigError, match="cap"):
            mc_confidence(r=10, h=7, delta_base=0.1, trials=100000, seed=0)

    # Level fractions of mc_confidence(4, 2, 0.125, 1000, seed), read from
    # the (n, r, d) kernel before it went sets-last.
    PINNED_ROWS = {
        1: (0.1249375, 0.00975, 0.0),
        2: (0.125125, 0.012, 0.0),
        3: (0.1296875, 0.01025, 0.0),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_are_pinned(self, seed, workers):
        result = mc_confidence(r=4, h=2, delta_base=0.125, trials=1000, seed=seed, workers=workers)
        fractions = tuple(row["empirical_bad_fraction"] for row in result["rows"])
        assert fractions == self.PINNED_ROWS[seed]
        assert [row["samples"] for row in result["rows"]] == [16000, 4000, 1000]


def _frozen_radon_level(points: np.ndarray, r: int) -> np.ndarray:
    """One level as mc-bound folded it before the one level loop: each
    contiguous group of r rows along axis -2 replaced by its Radon point;
    leading axes index independent trees."""
    *trees, rows, dim = points.shape
    point = _radon_stack(points.reshape(-1, r, dim))[3]
    return point.reshape(*trees, rows // r, dim)


def _frozen_mc_fold(r: int, h: int, delta_base: float, trials: int, seed: int):
    """mc_confidence's per-level bad counts from its draws, shard by shard,
    each shard's (trials, r^h, r - 2) trees folded by _frozen_radon_level,
    and the (trees * rows, r - 2) points of each shard's levels in order."""
    d, leaves = r - 2, r**h
    counts, folded = np.zeros(h + 1, dtype=np.int64), []
    for idx, start in enumerate(range(0, trials, experiments.MC_SHARD_TRIALS)):
        n_trials = min(experiments.MC_SHARD_TRIALS, trials - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        m = n_trials * leaves
        bad = rng.random(m) < delta_base
        directions = rng.standard_normal((m, d))
        norms = np.linalg.norm(directions, axis=1)
        norms[norms == 0.0] = 1.0
        directions /= norms[:, None]
        radii = np.where(bad, 2.0, rng.random(m) ** (1.0 / d))
        current = (directions * radii[:, None]).reshape(n_trials, leaves, d)
        counts[0] += int(bad.sum())
        for level in range(1, h + 1):
            current = _frozen_radon_level(current, r)
            folded.append(current.reshape(-1, d))
            counts[level] += int((np.linalg.norm(folded[-1], axis=1) > 1.0).sum())
    return counts, folded


class TestMcFoldsThroughTheLevelLoop:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("r, h", [(4, 2), (5, 2), (3, 4), (6, 1)])
    def test_bad_counts_equal_the_frozen_level_loop(self, monkeypatch, r, h, seed):
        # the folded points too, bit for bit and in order: a mirrored tree
        # gives the same counts
        folded = []

        def recording_levels(points, r, h):
            for level in aggregation._levels(points, r, h):
                folded.append(level[0])
                yield level

        monkeypatch.setattr(experiments, "_levels", recording_levels)
        rows = mc_confidence(r, h, 0.5 / r, 1000, seed)["rows"]
        counts, expected = _frozen_mc_fold(r, h, 0.5 / r, 1000, seed)
        assert [row["empirical_bad_fraction"] for row in rows] == [
            float(count) / row["samples"] for count, row in zip(counts, rows)
        ]
        assert [points.tobytes() for points in folded] == [points.tobytes() for points in expected]

    def test_trace_keys_equal_a_certify_loop_over_the_draws(self, monkeypatch):
        # r = 3 draws in one dimension, where bad draws coincide at +-2, so
        # level 1 has pin fallbacks; one _levels call per shard
        shards = []

        def recording_levels(points, r, h):
            shards.append(points)
            return aggregation._levels(points, r, h)

        monkeypatch.setattr(experiments, "_levels", recording_levels)
        rows = mc_confidence(r=3, h=2, delta_base=0.1, trials=1000, seed=2)["rows"]
        assert len(shards) == 2
        pins, worst = [0, 0], [0.0, 0.0]
        for points in shards:
            for level in range(2):
                groups = points.reshape(-1, 3, 1)
                certs = [radon_point(group) for group in groups]
                pins[level] += sum(cert.pin != 0 for cert in certs)
                worst[level] = max(worst[level], *map(certify, groups, certs))
                points = np.array([cert.point for cert in certs])
        assert pins[0] > 0
        assert [row.get("pin_fallbacks") for row in rows] == [None, *pins]
        assert [row.get("max_cert_residual") for row in rows] == [None, *worst]


class TestBoundsTable:
    PARAMS = ComplexityParams(alpha_eps=0.0, beta_eps=1.0, k=1, kappa=1)

    def test_single_row_height_zero(self):
        rows = bounds_table(self.PARAMS, 4, 0.125, [0])
        assert len(rows) == 1
        assert rows[0]["speedup_estimate"] == pytest.approx(1.0)

    def test_delta_column_repeated_squaring(self):
        rows = bounds_table(self.PARAMS, 4, 0.125, [1, 2, 3])
        deltas = [row["delta"] for row in rows]
        assert deltas == pytest.approx([0.25, 0.0625, 0.00390625], rel=1e-12)

    def test_delta_monotone_when_contractive(self):
        rows = bounds_table(self.PARAMS, 5, 0.01, range(0, 6))
        deltas = [row["delta"] for row in rows]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))


class TestSharedPartitionTraining:
    def test_each_fold_trains_once_and_matches_fit(self, monkeypatch):
        calls = []
        original = aggregation._train_block  # the pipeline's learning call

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(aggregation, "_train_block", counting)
        config = ExperimentConfig(**SMALL_BENCH)
        report = run_benchmark(config)
        assert len(calls) == config.cv_folds

        data = experiments.resolve_dataset(config.dataset, config.seed)
        plan = kfold(data, config.cv_folds, config.seed)
        r = report["radon_number"]
        for fold, h in enumerate(report["heights_per_fold"]):
            assert h > 0
            train_split = data.subset(plan.train_indices(fold))
            cfg = RadonConfig(r=r, h=h, seed=config.seed, n_min=config.n_min)
            for name in ("radon", "avg"):
                hyp, _ = fit(name, config.learner, train_split, cfg)
                expected = experiments._evaluate(hyp, data.subset(plan.test_indices(fold)))
                row = report["algorithms"][name]["per_fold"][fold]
                assert row["metric"] == expected
            radon_row = report["algorithms"]["radon"]["per_fold"][fold]
            avg_row = report["algorithms"]["avg"]["per_fold"][fold]
            assert radon_row["partition_s"] == avg_row["partition_s"]
            assert radon_row["learning_s"] == avg_row["learning_s"]

    def test_base_only_keeps_an_explicit_height(self):
        config = ExperimentConfig(
            dataset={"source": "synthetic-classification", "n": 2000, "d": 2, "noise": 0.1},
            learner=LearnerSpec(loss="squared", reg_lambda=0.1),
            algorithms=("base",),
            cv_folds=2,
            h=3,
            seed=5,
        )
        report = run_benchmark(config)
        assert report["heights_per_fold"] == [3, 3]
        assert report["algorithms"]["base"]["per_fold"][0]["partition_checksum"] is None
        with pytest.raises(ConfigError, match="h_max=1"):
            run_benchmark(replace(config, algorithms=("base", "avg")))
        resolved = run_benchmark(replace(config, h="max"))
        assert resolved["heights_per_fold"] == [1, 1]


class TestFoldRowsCarryTheTrace:
    KEYS = ("hypotheses_per_level", "pin_fallbacks", "max_cert_residual")

    def test_radon_rows_equal_the_per_group_fold(self, tmp_path):
        out = tmp_path / "report.json"
        config = ExperimentConfig(**{**SMALL_BENCH, "learner": LearnerSpec(loss="hinge", epochs=2),
                                     "out": str(out)})
        report = run_benchmark(config)
        data = experiments.resolve_dataset(config.dataset, config.seed)
        plan = kfold(data, config.cv_folds, config.seed)
        fold, r = 1, report["radon_number"]
        h = report["heights_per_fold"][fold]
        train_split = data.subset(plan.train_indices(fold))
        weights, _ = aggregation.train_on_partitions(config.learner, train_split, r**h, config.seed)
        cfg = RadonConfig(r=r, h=h, seed=config.seed, n_min=config.n_min)
        _, trace = aggregation._fold_tree(weights, cfg, aggregation._point_by_point)
        row = report["algorithms"]["radon"]["per_fold"][fold]
        assert trace.hypotheses_per_level == [25, 5, 1]
        assert [row[key] for key in self.KEYS] == [
            trace.hypotheses_per_level, trace.pin_fallbacks, trace.max_cert_residual
        ]
        written = json.loads(out.read_text())["algorithms"]
        assert [written["radon"]["per_fold"][fold][key] for key in self.KEYS] == [
            row[key] for key in self.KEYS
        ]
        for name in ("base", "avg"):  # neither folds through Radon points
            assert not set(self.KEYS) & set(written[name]["per_fold"][fold])


class TestOneTrainingPath:
    def test_only_radon_machine_trains_partitions_one_at_a_time(self, monkeypatch):
        # logistic loss at one worker: every entry point but radon_machine
        # takes the block kernel, and all give the bits of two workers
        seen = []

        def counting_train(*args, **kwargs):
            seen.append(1)
            return train(*args, **kwargs)

        data, _ = synth_classification(2500, 2, 0.1, seed=8)
        spec = LearnerSpec(loss="logistic", epochs=1)
        bench = {
            "dataset": {"source": "synthetic-classification", "n": 2000, "d": 2, "noise": 0.1},
            "learner": {"loss": "logistic", "epochs": 1},
            "algorithms": ["radon", "avg"],
            "cv_folds": 2,
            "n_min": 20,
            "seed": 3,
        }

        def results(workers):
            cfg = RadonConfig(r=5, h=2, seed=3, workers=workers)
            report = run_benchmark(ExperimentConfig.from_dict({**bench, "workers": workers}))
            report.pop("config")
            return {
                "radon": fit("radon", spec, data, cfg)[0].weights.tobytes(),
                "avg": fit("avg", spec, data, cfg)[0].weights.tobytes(),
                "averaging_at_end": averaging_at_end(spec, data, 25, 3, workers).weights.tobytes(),
                "train_on_partitions": aggregation.train_on_partitions(
                    spec, data, 25, 3, workers
                )[0].tobytes(),
                "run_benchmark": _timing_stripped(report),
            }

        expected = results(2)
        expected_root, _ = radon_machine(spec, data, RadonConfig(r=5, h=2, seed=3, workers=2))
        monkeypatch.setattr(aggregation, "train", counting_train)
        assert results(1) == expected
        assert seen == []
        root, _ = radon_machine(spec, data, RadonConfig(r=5, h=2, seed=3, workers=1))
        assert len(seen) == 5**2
        assert root.weights.tobytes() == expected_root.weights.tobytes()


class TestFitRadonChecks:
    """fit("radon") checks the tree as radon_machine does, without calling it."""

    def _errors(self, data, spec, cfg):
        errors = []
        for run in (lambda: radon_machine(spec, data, cfg), lambda: fit("radon", spec, data, cfg)):
            with pytest.raises((ConfigError, DataError)) as info:
                run()
            errors.append((type(info.value), str(info.value)))
        return errors

    @pytest.mark.parametrize("h", [0, 1])
    def test_wrong_radon_number_is_the_same_config_error(self, h):
        data, _ = synth_classification(500, 2, 0.1, seed=0)
        spec = LearnerSpec(loss="squared", fit_bias=True)  # hypothesis dim 3 -> r = 5
        machine, fitted = self._errors(data, spec, RadonConfig(r=4, h=h, seed=0))
        assert machine == fitted
        assert machine[0] is ConfigError and "expected r = 5" in machine[1]

    def test_too_few_rows_is_the_same_data_error(self):
        data, _ = synth_classification(400, 2, 0.1, seed=0)
        spec = LearnerSpec(loss="squared", fit_bias=True)
        machine, fitted = self._errors(data, spec, RadonConfig(r=5, h=2, seed=0, n_min=100))
        assert machine == fitted
        assert machine[0] is DataError and "need at least 2500 rows" in machine[1]


class TestOneCapacityRule:
    """radon_machine, fit("radon"), fit("avg") and mc_confidence decide a
    tree's capacity through max_height and never build r^h for a height it
    rejects."""

    @staticmethod
    def _raised(run):
        with pytest.raises((ConfigError, DataError)) as info:
            run()
        return type(info.value), str(info.value)

    def _fits(self, spec, data, cfg):
        return [
            self._raised(lambda: radon_machine(spec, data, cfg)),
            *(self._raised(lambda name=name: fit(name, spec, data, cfg)) for name in ("radon", "avg")),
        ]

    def test_avg_is_checked_as_radon_is(self):
        data, _ = synth_classification(400, 2, 0.1, seed=0)
        spec = LearnerSpec(loss="squared", fit_bias=True)
        few_rows = self._fits(spec, data, RadonConfig(r=5, h=2, seed=0, n_min=100))
        assert few_rows == [few_rows[0]] * 3
        assert few_rows[0][0] is DataError and "need at least 2500 rows" in few_rows[0][1]
        wrong_r = self._fits(spec, data, RadonConfig(r=4, h=1, seed=0))
        assert wrong_r == [wrong_r[0]] * 3 and "expected r = 5" in wrong_r[0][1]

    @pytest.mark.parametrize("h", [10**12, 10**400])
    def test_a_huge_height_is_a_data_error_that_builds_no_power(self, h):
        data, _ = synth_classification(400, 3, 0.1, seed=0)
        spec = LearnerSpec(loss="squared")  # r = 6
        errors = self._fits(spec, data, RadonConfig(r=6, h=h, seed=0))
        assert errors == [errors[0]] * 3
        assert errors[0] == (
            DataError, f"need at least 100 * 6^{h} rows for r=6, h={h}, n_min=100; got 400"
        )

    def test_base_at_a_huge_height_builds_no_power(self):
        # base builds no tree, so its height is never checked (CLI `train
        # --algorithm base --h 10**12`); r ** h would not fit in memory
        class NoPower(int):
            def __pow__(self, other):
                raise AssertionError("r ** h was built")

        data, _ = synth_classification(400, 3, 0.1, seed=0)
        spec = LearnerSpec(loss="squared")
        hyp, trace = fit("base", spec, data, RadonConfig(r=NoPower(6), h=10**12, seed=0))
        assert hyp.weights.tobytes() == train(spec, data, 0).weights.tobytes()
        assert trace.hypotheses_per_level == [1]

    def test_same_verdict_as_the_row_count_rule(self):
        spec = LearnerSpec(loss="squared", fit_bias=False)
        for r in (3, 4, 5):
            for n_min in (1, 2, 7):
                for h in range(5):
                    need = r**h * n_min
                    for n_rows in {max(1, need - 1), need, need + 1}:
                        data, _ = synth_regression(n_rows, r - 2, 0.1, seed=0)
                        cfg = RadonConfig(r=r, h=h, seed=0, n_min=n_min)
                        if h > 0 and n_rows < need:
                            with pytest.raises(DataError, match=f"need at least {need} rows"):
                                aggregation._check_tree(spec, data, cfg)
                        else:
                            aggregation._check_tree(spec, data, cfg)

    def test_mc_cap_holds_at_the_product_and_names_h(self, monkeypatch):
        monkeypatch.setattr(experiments, "MC_MAX_LEAF_DRAWS", 16_000)
        assert mc_confidence(4, 2, 0.1, 1000, seed=0)["rows"][-1]["samples"] == 1000
        for r, h, trials in [(4, 3, 1000), (4, 0, 16_001), (4, 10**400, 1000), (10**400, 1, 1000)]:
            with pytest.raises(ConfigError, match=f"exceeds the cap of 16000 at "
                                                  f"trials={trials}, r={r}, h={h}$"):
                mc_confidence(r, h, 0.1, trials, seed=0)

    def test_mc_shard_cap_holds_at_the_coordinate_count(self, monkeypatch):
        # a shard of 512 trials at r = 4, h = 2 draws 512 * 16 leaves of 2 coordinates
        monkeypatch.setattr(experiments, "MC_MAX_SHARD_FLOATS", 512 * 16 * 2)
        assert mc_confidence(4, 2, 0.1, 1000, seed=0)["rows"][-1]["samples"] == 1000
        monkeypatch.setattr(experiments, "MC_SHARD_TRIALS", 2000)  # a shard of all 1000 trials
        monkeypatch.setattr(experiments, "MC_MAX_SHARD_FLOATS", 1000 * 16 * 2)
        assert mc_confidence(4, 2, 0.1, 1000, seed=0)["rows"][-1]["samples"] == 1000

        def no_draw(*args):
            raise AssertionError("a shard was drawn")

        monkeypatch.setattr(experiments, "_mc_shard", no_draw)
        monkeypatch.setattr(experiments, "MC_SHARD_TRIALS", 512)
        monkeypatch.setattr(experiments, "MC_MAX_SHARD_FLOATS", 512 * 16 * 2 - 1)
        for r, h, trials in [(4, 2, 1000), (4, 2, 5000), (3, 4, 1000), (10**400, 0, 1000)]:
            with pytest.raises(ConfigError, match=f"coordinates exceed the cap of 16383 at "
                                                  f"trials={trials}, r={r}, h={h}$"):
                mc_confidence(r, h, 0.1, trials, seed=0)



class TestFoldWorkDoneOnce:
    def test_three_equal_folds_draw_one_permutation(self):
        aggregation._blocks.cache_clear()
        report = run_benchmark(ExperimentConfig(**SMALL_BENCH))
        assert all(h > 0 for h in report["heights_per_fold"])
        assert aggregation._blocks.cache_info().misses == 1

    @pytest.mark.parametrize("n, parts", [(1003, 40), (1000, 40), (45, 1), (7, 7)])
    def test_checksum_equals_the_per_block_digest(self, n, parts):
        row_ids = np.random.default_rng(n).permutation(3 * n)[:n]
        digest = hashlib.sha1()
        for block in aggregation.partition_indices(n, parts, 5):
            digest.update(row_ids[block].astype(np.int64).tobytes())
            digest.update(b"|")
        assert experiments.partition_checksum(row_ids, parts, 5) == digest.hexdigest()

    def test_base_and_radon_at_height_zero_train_once(self, monkeypatch):
        calls = []
        original = aggregation.train

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(aggregation, "train", counting)
        config = ExperimentConfig(
            **{**SMALL_BENCH, "learner": LearnerSpec(loss="hinge", epochs=2), "h": 0}
        )
        report = run_benchmark(config)
        assert len(calls) == config.cv_folds
        base = report["algorithms"]["base"]["per_fold"]
        assert report["algorithms"]["radon"]["per_fold"] == base
        assert all(row["partition_checksum"] is None for row in base)


def _untimed(trace: AggregationTrace) -> tuple:
    """A trace's non-timing fields."""
    return trace.hypotheses_per_level, trace.pin_fallbacks, trace.max_cert_residual, trace.n_subset


class TestFoldPathsAgree:
    """fit("radon") folds one stack per level; radon_machine at one worker
    with SGD one radon_point per group.  Both must give the same bits and
    the same trace."""

    @pytest.mark.parametrize("h", [1, 2])
    @pytest.mark.parametrize(
        "loss, d, fit_bias",
        [("squared", 8, True), ("logistic", 7, False), ("hinge", 2, True)],
    )
    def test_fit_radon_equals_radon_machine(self, monkeypatch, loss, d, fit_bias, h):
        # d = 8 with a bias gives r = 11, as in cv-squared: from r = 9 on,
        # numpy's pairwise summation differs from a sequential sum
        spec = LearnerSpec(loss=loss, epochs=1, fit_bias=fit_bias)
        r = spec.hypothesis_dim(d) + 2
        data, _ = synth_classification(r**2 * 20, d, 0.1, seed=d)
        cfgs = [RadonConfig(r=r, h=h, seed=5, n_min=20, workers=workers) for workers in (1, 2)]
        machines = [radon_machine(spec, data, cfg) for cfg in cfgs]

        def refuse(*args, **kwargs):
            raise AssertionError("radon_point() was called")

        monkeypatch.setattr(aggregation, "radon_point", refuse)
        for cfg, (expected, expected_trace) in zip(cfgs, machines):
            hyp, trace = fit("radon", spec, data, cfg)
            assert hyp.weights.tobytes() == expected.weights.tobytes()
            assert _untimed(trace) == _untimed(expected_trace)
            assert len(trace.max_cert_residual) == len(trace.pin_fallbacks) == h


class TestSeedRange:
    def test_negative_experiment_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            ExperimentConfig(**{**SMALL_BENCH, "seed": -1})

    def test_negative_dataset_seed_is_config_error(self):
        dataset = {**SMALL_BENCH["dataset"], "seed": -2}
        with pytest.raises(ConfigError, match="dataset.seed must be >= 0, got -2"):
            run_benchmark(ExperimentConfig(**{**SMALL_BENCH, "dataset": dataset}))

    def test_negative_tree_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
            RadonConfig(r=4, h=1, seed=-3)

    def test_negative_monte_carlo_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            mc_confidence(4, 2, 0.1, 1000, seed=-1)


class TestAlgorithmsList:
    @pytest.mark.parametrize("algorithms", ["radon", None, {"radon": 1}])
    def test_not_a_list_is_config_error(self, algorithms):
        with pytest.raises(ConfigError, match="algorithms must be a JSON list of names"):
            ExperimentConfig.from_dict({"algorithms": algorithms})

    @pytest.mark.parametrize("algorithms", [("radon", "radon", "base"), ("avg", "base", "avg")])
    def test_repeated_name_is_config_error(self, algorithms):
        with pytest.raises(ConfigError, match="algorithms must be distinct"):
            ExperimentConfig(**{**SMALL_BENCH, "algorithms": algorithms})


class TestBoundsRangeNamesSection:
    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({"alpha_eps": -1, "beta_eps": 1}, "bounds.alpha_eps must be finite and >= 0"),
            ({"alpha_eps": 1, "beta_eps": -2}, "bounds.beta_eps must be finite and >= 0"),
            ({"alpha_eps": 1, "beta_eps": 1, "k": 0}, "bounds.k must be >= 1, got 0"),
            ({"alpha_eps": 1, "beta_eps": 1, "kappa": 0}, "bounds.kappa must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_value_names_its_section(self, bounds, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**{**SMALL_BENCH, "bounds": bounds})
        assert str(info.value).startswith(message)


def _with_ones(data: Dataset) -> Dataset:
    """``data`` with a column of ones appended to its features."""
    x1 = np.hstack([data.x, np.ones((data.n_rows, 1))])
    return Dataset(x=x1, y=data.y, task=data.task)


def _timing_stripped(report: dict) -> dict:
    """A report without its wall-time fields and the speed-up."""

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

    return strip(report)


# run_benchmark configs whose reports must not depend on where the bias
# column is appended.
BIAS_CONFIGS = {
    "squared-bias": {},
    "logistic-bias": {"learner": LearnerSpec(loss="logistic", epochs=1)},
    "hinge-no-bias": {
        "dataset": {"source": "synthetic-classification", "n": 3001, "d": 2, "noise": 0.1},
        "learner": LearnerSpec(loss="hinge", epochs=1, fit_bias=False),
    },
    "squared-regression-bias": {
        "dataset": {"source": "synthetic-regression", "n": 3000, "d": 3, "noise_sd": 0.5},
    },
}


class TestBiasColumnOncePerRun:
    """A CV run trains every fold on one [x, 1] copy with fit_bias=False,
    which must give the bits of fit_bias=True on x."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [900, 907], ids=["equal", "ragged"])
    @pytest.mark.parametrize(
        "loss, reg_lambda",
        [("squared", 0.1), ("squared", 0.0), ("logistic", 1e-3), ("hinge", 1e-3)],
    )
    def test_bias_on_x_equals_no_bias_on_x_and_ones(self, loss, reg_lambda, n, workers):
        spec = LearnerSpec(loss=loss, reg_lambda=reg_lambda, epochs=1)
        plain = replace(spec, fit_bias=False)
        data, _ = synth_classification(n, 3, 0.1, seed=n)
        ones = _with_ones(data)
        assert train(spec, data, 5).weights.tobytes() == train(plain, ones, 5).weights.tobytes()
        with_bias, _ = aggregation.train_on_partitions(spec, data, 9, 5, workers=workers)
        appended, _ = aggregation.train_on_partitions(plain, ones, 9, 5, workers=workers)
        assert with_bias.tobytes() == appended.tobytes()

    @pytest.mark.parametrize("name", sorted(BIAS_CONFIGS))
    def test_report_equals_a_bias_column_per_fit(self, monkeypatch, name):
        config = ExperimentConfig(**{**SMALL_BENCH, **BIAS_CONFIGS[name]})
        once = run_benchmark(config)
        # Without the once-per-run column every fit appends its own, as
        # train() and the kernel do for a spec with fit_bias.
        monkeypatch.setattr(experiments, "with_bias_column", lambda spec, data: (spec, data))
        monkeypatch.setattr(experiments, "without_bias_column", lambda spec, h, x: (h, x))
        per_fit = run_benchmark(config)
        assert _timing_stripped(once) == _timing_stripped(per_fit)

    @pytest.mark.parametrize("h", ["max", 0])
    def test_the_bias_column_is_appended_once_per_run(self, monkeypatch, h):
        original = learners._augmented
        appended = []

        def counting(x, fit_bias):
            appended.append(fit_bias)
            return original(x, fit_bias)

        monkeypatch.setattr(learners, "_augmented", counting)
        config = ExperimentConfig(**{**SMALL_BENCH, "h": h})
        assert config.learner.fit_bias
        report = run_benchmark(config)
        assert len(report["algorithms"]["base"]["per_fold"]) == config.cv_folds
        assert appended.count(True) == 1


class TestConfigSectionKeys:
    @pytest.mark.parametrize(
        "dataset, key",
        [
            ({"source": "synthetic-classification", "n": 2000, "nosie": 0.5}, "nosie"),
            ({"n": 2000, "noise_sd": 0.5}, "noise_sd"),
            ({"source": "synthetic-regression", "noise": 0.5}, "noise"),
            ({"source": "file", "path": "data.csv", "seed": 3}, "seed"),
        ],
    )
    def test_unknown_dataset_key_is_named(self, dataset, key):
        message = f"unknown config fields: ['dataset.{key}']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict({"dataset": dataset})

    @pytest.mark.parametrize(
        "source, keys",
        [
            ("file", ("path", "format")),
            ("synthetic-classification", ("n", "d", "noise", "seed")),
            ("synthetic-regression", ("n", "d", "noise_sd", "seed")),
        ],
    )
    def test_every_key_a_source_reads_is_accepted(self, source, keys):
        dataset = {"source": source, **{key: 1 for key in keys}}
        assert ExperimentConfig.from_dict({"dataset": dataset}).dataset == dataset

    def test_unknown_source_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown dataset source 'synthetic'"):
            ExperimentConfig.from_dict({"dataset": {"source": "synthetic"}})

    def test_unknown_learner_key_is_named(self):
        message = "unknown config fields: ['learner.epoch', 'learner.x']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict({"learner": {"loss": "squared", "x": 1, "epoch": 2}})


def _owner_sites(node: ast.AST, module: str, site="<module>") -> list:
    """(module.function, kind) of each ``except`` under ``node`` that catches
    a ConfigError and raises a ConfigError built from the caught one (kind
    "prefix"), and of each string literal ``".csv"`` (kind "csv")."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        site = node.name
    found = []
    caught = isinstance(node, ast.ExceptHandler) and node.type is not None
    if caught and "ConfigError" in ast.unparse(node.type):
        built = [
            raised.exc for raised in ast.walk(node)
            if isinstance(raised, ast.Raise) and isinstance(raised.exc, ast.Call)
            and getattr(raised.exc.func, "id", None) == "ConfigError"
        ]
        if node.name in {name.id for call in built for name in ast.walk(call)
                         if isinstance(name, ast.Name)}:
            found.append((f"{module}.{site}", "prefix"))
    if isinstance(node, ast.Constant) and node.value == ".csv":
        found.append((f"{module}.{site}", "csv"))
    for child in ast.iter_child_nodes(node):
        found += _owner_sites(child, module, site)
    return found


class TestOneOwnerPerRule:
    """_in_section puts a config section's name in front of every error a
    section's builder raises, and write_report names every report's CSV."""

    def test_one_section_prefixer_and_one_csv_twin(self):
        sites = [
            found
            for path in sorted(SRC.glob("*.py"))
            for found in _owner_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        ]
        assert [site for site, kind in sites if kind == "prefix"] == ["experiments._in_section"]
        assert [site for site, kind in sites if kind == "csv"] == ["experiments.write_report"]
