"""Partitioning, the aggregation tree, and the averaging baseline."""

import ast
import multiprocessing.process
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import straight_line_radon_machine

from radon_machine import (
    ConfigError,
    DataError,
    Dataset,
    LearnerSpec,
    RadonConfig,
    ShapeError,
    aggregation,
    averaging_at_end,
    certify,
    learners,
    max_height,
    mc_confidence,
    partition_dataset,
    partition_indices,
    radon_machine,
    radon_point,
    radon_points,
    synth_classification,
    synth_regression,
    train,
    train_on_partitions,
    training_seeds,
)
from radon_machine.aggregation import _fold_tree, _levels, _point_by_point
from radon_machine.learners import EXACT_SOLVE_MAX_DIM, _solve_normal_equations, _train_block

RIDGE = LearnerSpec(loss="squared", reg_lambda=0.01, fit_bias=False)
RIDGE_BIAS = LearnerSpec(loss="squared", reg_lambda=0.01, fit_bias=True)


class TestPartitioning:
    def test_exact_division(self):
        sizes = [b.size for b in partition_indices(10, 2, seed=0)]
        assert sizes == [5, 5]

    def test_remainder_rule(self):
        sizes = [b.size for b in partition_indices(10, 3, seed=0)]
        assert sizes == [4, 3, 3]

    def test_every_row_exactly_once(self):
        blocks = partition_indices(1000, 7, seed=3)
        merged = np.sort(np.concatenate(blocks))
        assert np.array_equal(merged, np.arange(1000))

    def test_seeded_and_deterministic(self):
        a = partition_indices(50, 4, seed=9)
        b = partition_indices(50, 4, seed=9)
        c = partition_indices(50, 4, seed=10)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_insufficient_rows(self):
        with pytest.raises(DataError):
            partition_indices(3, 4, seed=0)

    def test_million_rows_into_ten_thousand_parts(self):
        blocks = partition_indices(10**6, 10**4, seed=1)
        assert len(blocks) == 10**4
        assert all(b.size == 100 for b in blocks)

    def test_partition_dataset_row_counts(self):
        data, _ = synth_classification(10, 2, 0.0, seed=0)
        parts = partition_dataset(data, 3, seed=1)
        assert [p.n_rows for p in parts] == [4, 3, 3]


class TestMaxHeight:
    def test_power_of_ten(self):
        assert max_height(10**6, 10, 100) == 4

    def test_strict_floor_at_boundary(self):
        assert max_height(10**6 - 1, 10, 100) == 3

    def test_single_subset(self):
        assert max_height(100, 3, 100) == 0

    def test_below_minimum(self):
        assert max_height(50, 3, 100) == 0

    def test_no_floating_point_log(self):
        # r^h * n_min == n exactly must count h, one row fewer must not
        for r, h, n_min in [(3, 7, 13), (11, 3, 100), (5, 5, 7)]:
            n = r**h * n_min
            assert max_height(n, r, n_min) == h
            assert max_height(n - 1, r, n_min) == h - 1

    def test_range_errors_name_the_field(self):
        with pytest.raises(ConfigError, match=r"^r must be >= 3 \(a Radon number\), got 2$"):
            max_height(100, 2, 10)
        with pytest.raises(ConfigError, match=r"^r must be >= 3 \(a Radon number\), got 2$"):
            RadonConfig(r=2, h=1, seed=0)
        with pytest.raises(ConfigError, match=r"^h must be >= 0 \(a tree height\), got -1$"):
            RadonConfig(r=4, h=-1, seed=0)


class TestRadonMachine:
    def test_height_zero_equals_plain_training(self):
        data, _ = synth_classification(500, 2, 0.1, seed=4)
        spec = LearnerSpec(loss="logistic", reg_lambda=0.01, epochs=2)
        hyp, trace = radon_machine(spec, data, RadonConfig(r=5, h=0, seed=11))
        direct = train(spec, data, 11)
        assert np.array_equal(hyp.weights, direct.weights)
        assert trace.hypotheses_per_level == [1]

    def test_replicated_partitions_return_common_hypothesis(self):
        # every row identical, so every partition model is identical and the
        # tree of Radon points must return that common hypothesis
        rng = np.random.default_rng(2)
        row_x = rng.uniform(-1, 1, (1, 2))
        parts = 4**2
        data = Dataset(
            x=np.repeat(row_x, parts * 10, axis=0),
            y=np.full(parts * 10, 0.7),
            task="regression",
        )
        cfg = RadonConfig(r=4, h=2, seed=0, n_min=10)
        hyp, _ = radon_machine(RIDGE, data, cfg)
        single = train(RIDGE, data.subset(np.arange(10)), 0)
        assert np.allclose(hyp.weights, single.weights, atol=1e-12)

    def test_matches_straight_line_reference(self):
        data, _ = synth_classification(1600, 2, 0.1, seed=6)
        spec = LearnerSpec(loss="squared", reg_lambda=0.5, fit_bias=True)
        cfg = RadonConfig(r=5, h=2, seed=21, n_min=25)
        hyp, trace = radon_machine(spec, data, cfg)
        reference = straight_line_radon_machine(spec, data, r=5, h=2, seed=21)
        assert np.array_equal(hyp.weights, reference)
        assert trace.hypotheses_per_level == [25, 5, 1]
        assert trace.n_subset == 1600 // 25

    def test_worker_count_does_not_change_output(self):
        data, _ = synth_classification(1200, 1, 0.1, seed=8)
        spec = LearnerSpec(loss="logistic", reg_lambda=0.05, epochs=2, fit_bias=True)
        outputs = []
        for workers in (1, 3):
            cfg = RadonConfig(r=4, h=2, seed=5, n_min=25, workers=workers)
            hyp, _ = radon_machine(spec, data, cfg)
            outputs.append(hyp.weights)
        assert np.array_equal(outputs[0], outputs[1])

    def test_radon_number_mismatch_rejected(self):
        data, _ = synth_classification(500, 2, 0.1, seed=0)
        spec = LearnerSpec(loss="squared", fit_bias=True)  # hypothesis dim 3 -> r = 5
        with pytest.raises(ConfigError):
            radon_machine(spec, data, RadonConfig(r=4, h=1, seed=0))

    def test_insufficient_data_rejected(self):
        data, _ = synth_classification(400, 2, 0.1, seed=0)
        spec = LearnerSpec(loss="squared", fit_bias=True)
        with pytest.raises(DataError):
            radon_machine(spec, data, RadonConfig(r=5, h=2, seed=0, n_min=100))


class TestPoolTraining:
    @pytest.mark.parametrize("d", [3, 10])
    @pytest.mark.parametrize("fit_bias", [True, False])
    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_pool_matches_per_partition_training_on_ragged_parts(self, loss, fit_bias, d):
        # 1003 rows into 40 parts: the first three partitions hold one row
        # more, so the first block of five partitions mixes run lengths.
        # d = 10 puts the score's row sums past numpy's 8-way unrolled
        # summation, as in the 9-dimensional hypotheses of most workloads.
        data, _ = synth_classification(1003, d, 0.1, seed=12)
        parts, seed = 40, 17
        spec = LearnerSpec(loss=loss, reg_lambda=0.05, epochs=2, fit_bias=fit_bias)
        weights, _ = train_on_partitions(spec, data, parts, seed, workers=2)
        blocks = partition_indices(data.n_rows, parts, seed)
        expected = [
            train(spec, data.subset(ix), s).weights
            for ix, s in zip(blocks, training_seeds(seed, parts))
        ]
        assert np.array_equal(weights, np.stack(expected))

    def test_pool_rejects_what_train_rejects(self):
        # on 2 workers the lock-step kernel, not train(), meets the bad input
        data, _ = synth_classification(400, 2, 0.1, seed=3)
        spec = LearnerSpec(loss="logistic", epochs=2)
        off_labels = Dataset(x=data.x, y=np.full(400, 0.5), task="regression")
        with pytest.raises(DataError):
            train(spec, off_labels, 0)
        with pytest.raises(DataError):
            train_on_partitions(spec, off_labels, 16, 0, workers=2)

        # squared loss above the exact-solve dimension runs SGD, and at this
        # step size its weights overflow within a few steps
        wide, _ = synth_regression(200, EXACT_SOLVE_MAX_DIM + 88, 0.1, seed=3)
        diverging = LearnerSpec(loss="squared", learning_rate0=100.0)
        first_part = wide.subset(partition_indices(200, 16, 0)[0])
        with np.errstate(all="ignore"), pytest.raises(ShapeError):
            train(diverging, first_part, training_seeds(0, 16)[0])
        with np.errstate(all="ignore"), pytest.raises(ShapeError):
            train_on_partitions(diverging, wide, 16, 0, workers=2)

    def test_workers_below_one_rejected(self):
        data, _ = synth_classification(200, 2, 0.1, seed=3)
        spec = LearnerSpec(loss="logistic", epochs=1)
        with pytest.raises(ConfigError, match="workers"):
            train_on_partitions(spec, data, 4, 0, workers=0)
        with pytest.raises(ConfigError, match="workers"):
            averaging_at_end(spec, data, 4, 0, workers=-3)


def _forbid_processes(monkeypatch):
    """Make starting a process, by multiprocessing or by a bare fork, fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the package started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)


class TestNoProcess:
    def test_any_worker_count_runs_in_process_with_the_same_result(self, monkeypatch):
        # 1000 trials make two shards of at most 512, which a pool would spread
        single_mc = mc_confidence(r=4, h=1, delta_base=0.125, trials=1000, seed=2, workers=1)
        data, _ = synth_classification(300, 2, 0.1, seed=3)
        spec = LearnerSpec(loss="logistic", epochs=1)
        single = train_on_partitions(spec, data, 3, 0)[0]
        cfg = RadonConfig(r=5, h=1, seed=0, n_min=50)
        single_root = radon_machine(spec, data, cfg)[0].weights
        _forbid_processes(monkeypatch)
        assert mc_confidence(4, 1, 0.125, 1000, seed=2, workers=16) == single_mc
        assert np.array_equal(train_on_partitions(spec, data, 3, 0, workers=8)[0], single)
        many = RadonConfig(r=5, h=1, seed=0, n_min=50, workers=8)
        assert np.array_equal(radon_machine(spec, data, many)[0].weights, single_root)

    def test_import_loads_no_process_machinery(self):
        src = Path(aggregation.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys, radon_machine, radon_machine.cli\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"


class TestInProcessTraining:
    def test_no_pool_and_bit_equal_for_any_worker_count(self, monkeypatch):
        data, _ = synth_classification(2003, 3, 0.1, seed=21)
        spec = LearnerSpec(loss="logistic", reg_lambda=0.01, epochs=2)
        single = train_on_partitions(spec, data, 25, 4)[0]
        cfg = RadonConfig(r=6, h=2, seed=4, n_min=50)
        single_root = radon_machine(spec, data, cfg)[0].weights
        _forbid_processes(monkeypatch)
        assert np.array_equal(train_on_partitions(spec, data, 25, 4, workers=8)[0], single)
        many = RadonConfig(r=6, h=2, seed=4, n_min=50, workers=8)
        assert np.array_equal(radon_machine(spec, data, many)[0].weights, single_root)

    @pytest.mark.parametrize("fit_bias", [True, False])
    @pytest.mark.parametrize("reg_lambda", [0.0, 0.01])
    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_sgd_matches_per_partition_train_across_epochs(self, loss, reg_lambda, fit_bias):
        # 2003 rows in 25 parts: 3 of 81 rows, 22 of 80, so a partition's
        # step count at an epoch start differs from the first block's; the
        # step sizes decay only at reg_lambda > 0
        data, _ = synth_classification(2003, 3, 0.1, seed=6)
        spec = LearnerSpec(loss=loss, reg_lambda=reg_lambda, epochs=3, fit_bias=fit_bias)
        parts, seed = 25, 8
        weights, _ = train_on_partitions(spec, data, parts, seed, workers=2)
        blocks = partition_indices(data.n_rows, parts, seed)
        assert {len(b) for b in blocks} == {80, 81}
        expected = [
            train(spec, data.subset(ix), s).weights
            for ix, s in zip(blocks, training_seeds(seed, parts))
        ]
        assert weights.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("d", [3, EXACT_SOLVE_MAX_DIM + 8])
    def test_squared_loss_matches_per_partition_train(self, d):
        # d = 3 takes train()'s exact solve; above EXACT_SOLVE_MAX_DIM the
        # kernel runs squared-loss SGD in lock-step
        data, _ = synth_regression(203, d, 0.1, seed=5)
        spec = LearnerSpec(loss="squared", reg_lambda=0.1, epochs=2, learning_rate0=0.001)
        parts, seed = 7, 9
        weights, _ = train_on_partitions(spec, data, parts, seed, workers=2)
        blocks = partition_indices(data.n_rows, parts, seed)
        expected = [
            train(spec, data.subset(ix), s).weights
            for ix, s in zip(blocks, training_seeds(seed, parts))
        ]
        assert np.array_equal(weights, np.stack(expected))

    def test_sgd_holds_one_copy_of_the_rows(self):
        # SGD reads its rows by id from one [x, 1] copy; a gathered copy of
        # x with the column appended after it would hold two
        data, _ = synth_classification(20_000, 8, 0.1, seed=2)
        spec = LearnerSpec(loss="logistic", epochs=1)
        blocks = partition_indices(data.n_rows, 121, 3)
        tracemalloc.start()
        try:
            _train_block(spec, data, blocks, training_seeds(3, 121))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * data.n_rows * (data.dim + 1) * 8

    @pytest.mark.parametrize("reg_lambda", [0.1, 0.0])
    def test_exact_solve_gathers_each_run_once(self, reg_lambda):
        # without the bias column the rows are the caller's, and only one
        # chunk of a run's rows at a time comes on top; a gather of a whole
        # run holds about one copy of x, of every partition about 1.35
        data, _ = synth_regression(20_000, 8, 0.1, seed=2)
        spec = LearnerSpec(loss="squared", reg_lambda=reg_lambda, fit_bias=False)
        blocks = partition_indices(data.n_rows, 121, 3)
        tracemalloc.start()
        try:
            _train_block(spec, data, blocks, training_seeds(3, 121))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * data.n_rows * data.dim * 8

    @pytest.mark.parametrize("reg_lambda", [0.01, 0.0])
    def test_exact_solve_with_bias_holds_no_copy_of_the_rows(self, reg_lambda):
        # the bias column goes on each chunk alone: a whole-data [x, 1] copy
        # and a run's gather from it would hold about two copies of [x, 1]
        data, _ = synth_regression(45_000, 8, 0.1, seed=2)
        spec = LearnerSpec(loss="squared", reg_lambda=reg_lambda, fit_bias=True)
        blocks = partition_indices(data.n_rows, 121, 3)
        tracemalloc.start()
        try:
            _train_block(spec, data, blocks, training_seeds(3, 121))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * data.n_rows * (data.dim + 1) * 8

    def test_diverged_sgd_names_learning_rate_and_partition(self):
        wide, _ = synth_regression(200, EXACT_SOLVE_MAX_DIM + 88, 0.1, seed=3)
        diverging = LearnerSpec(loss="squared", learning_rate0=100.0)
        first_part = wide.subset(partition_indices(200, 16, 0)[0])
        with np.errstate(all="ignore"):
            with pytest.raises(ShapeError, match=r"learning_rate0=100\.0"):
                train(diverging, first_part, training_seeds(0, 16)[0])
            with pytest.raises(ShapeError, match=r"partition 0\b.*learning_rate0=100\.0"):
                train_on_partitions(diverging, wide, 16, 0, workers=2)


class TestStackedSolve:
    @pytest.mark.parametrize(
        "n, parts, fit_bias, reg_lambda",
        [
            (1003, 40, True, 0.5),  # ragged: 3 partitions of 26 rows, then 37 of 25
            (1000, 40, True, 0.5),  # equal parts: one run
            (1003, 40, False, 0.5),
            (1003, 40, True, 0.0),  # lstsq, one call per partition of a chunk
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_matches_per_partition_train(self, n, parts, fit_bias, reg_lambda, workers):
        data, _ = synth_regression(n, 3, 0.3, seed=17)
        spec = LearnerSpec(loss="squared", reg_lambda=reg_lambda, fit_bias=fit_bias)
        seed = 6
        weights, _ = train_on_partitions(spec, data, parts, seed, workers=workers)
        blocks = partition_indices(n, parts, seed)
        expected = [
            train(spec, data.subset(ix), s).weights
            for ix, s in zip(blocks, training_seeds(seed, parts))
        ]
        assert weights.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("fit_bias", [True, False])
    @pytest.mark.parametrize("reg_lambda", [0.5, 1e-3, 0.0])
    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_chunked_runs_match_per_partition_train(
        self, monkeypatch, per_chunk, reg_lambda, fit_bias
    ):
        # ragged: a run of 3 partitions of 26 rows, then 37 of 25; a chunk
        # of per_chunk partitions of 26 rows also holds per_chunk of 25
        data, _ = synth_regression(1003, 3, 0.3, seed=17)
        spec = LearnerSpec(loss="squared", reg_lambda=reg_lambda, fit_bias=fit_bias)
        floats = per_chunk * 26 * spec.hypothesis_dim(data.dim)
        monkeypatch.setattr(learners, "EXACT_GATHER_FLOATS", floats)
        original, stacked = learners._solve_normal_equations, []

        def spying(xa, y, reg):
            stacked.append(xa.shape[0])
            return original(xa, y, reg)

        monkeypatch.setattr(learners, "_solve_normal_equations", spying)
        blocks, seeds = partition_indices(1003, 40, 6), training_seeds(6, 40)
        weights = _train_block(spec, data, blocks, seeds)
        runs = (3, 37)
        assert stacked == [min(per_chunk, n - a) for n in runs for a in range(0, n, per_chunk)]
        monkeypatch.setattr(learners, "_solve_normal_equations", original)
        expected = [train(spec, data.subset(ix), s).weights for ix, s in zip(blocks, seeds)]
        assert weights.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("reg_lambda", [0.25, 0.0])
    def test_stacked_normal_equations_match_one_matrix_at_a_time(self, reg_lambda):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((5, 30, 4)), rng.standard_normal((5, 30))
        stacked = _solve_normal_equations(x, y, reg_lambda)
        single = [_solve_normal_equations(xk, yk, reg_lambda) for xk, yk in zip(x, y)]
        assert stacked.tobytes() == np.stack(single).tobytes()

    @pytest.mark.parametrize("fit_bias", [True, False])
    @pytest.mark.parametrize("reg_lambda", [0.0, 1e-3, 0.5])
    def test_exact_kernel_calls_no_train(self, monkeypatch, reg_lambda, fit_bias):
        # the block kernel solves every partition itself; train() is the
        # whole-data fit and the reference above, not a branch of the kernel
        def refuse(*args, **kwargs):
            raise AssertionError("_train_block called train()")

        monkeypatch.setattr(learners, "train", refuse)
        data, _ = synth_regression(1003, 3, 0.3, seed=17)
        spec = LearnerSpec(loss="squared", reg_lambda=reg_lambda, fit_bias=fit_bias)
        weights = _train_block(spec, data, partition_indices(1003, 40, 6), training_seeds(6, 40))
        assert weights.shape == (40, spec.hypothesis_dim(data.dim))

    @pytest.mark.parametrize("loss, calls", [("squared", 0), ("logistic", 25)])
    def test_single_worker_calls_train_for_sgd_only(self, monkeypatch, loss, calls):
        # radon_machine keeps the per-partition loop for SGD: the benchmark
        # self-test counts one train() span per partition on a logistic fit
        seen = []

        def counting_train(*args, **kwargs):
            seen.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(aggregation, "train", counting_train)
        data, _ = synth_classification(2500, 2, 0.1, seed=8)
        spec = LearnerSpec(loss=loss, epochs=1)
        radon_machine(spec, data, RadonConfig(r=5, h=2, seed=3, workers=1))
        assert len(seen) == calls


class TestRadonLevel:
    def test_stack_of_trees_matches_radon_point_bit_for_bit(self):
        # the (trials, r^h, d) shape of a Monte-Carlo shard
        r, h, trials = 4, 2, 6
        stack = np.random.default_rng(21).standard_normal((trials, r**h, r - 2))
        level, root = (points for points, _, _ in _levels(stack.reshape(-1, r - 2), r, h))
        level = level.reshape(trials, r ** (h - 1), r - 2)
        root = root.reshape(trials, 1, r - 2)
        assert level.shape == (trials, r ** (h - 1), r - 2)
        for t in range(trials):
            for g in range(r ** (h - 1)):
                expected = radon_point(stack[t, g * r : (g + 1) * r]).point
                assert np.array_equal(level[t, g], expected)
        assert root.shape == (trials, 1, r - 2)
        for t in range(trials):
            assert np.array_equal(root[t, 0], radon_point(level[t]).point)


class TestAggregationTrace:
    def test_forced_singleton_counts_a_pin_fallback(self):
        # pin 0 is infeasible for the first group (its coefficient is zero in
        # every solution); the second level's group is random
        rng = np.random.default_rng(31)
        forced = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        points = np.concatenate([forced, rng.standard_normal((12, 2))])
        root, trace = _fold_tree(points, RadonConfig(r=4, h=2, seed=0), _point_by_point)
        assert trace.hypotheses_per_level == [16, 4, 1]
        assert trace.pin_fallbacks == [1, 0]
        assert len(trace.max_cert_residual) == 2
        assert all(0.0 <= res <= 1e-12 for res in trace.max_cert_residual)
        assert np.array_equal(root[0], radon_point(next(_levels(points, 4, 1))[0]).point)

    def test_radon_machine_reports_one_entry_per_level(self):
        data, _ = synth_classification(2500, 2, 0.1, seed=12)
        spec = LearnerSpec(loss="logistic", epochs=1)
        _, trace = radon_machine(spec, data, RadonConfig(r=5, h=2, seed=3))
        assert trace.pin_fallbacks == [0, 0]
        assert len(trace.max_cert_residual) == 2
        assert max(trace.max_cert_residual) <= 1e-12
        _, flat = radon_machine(spec, data, RadonConfig(r=5, h=0, seed=3))
        assert (flat.pin_fallbacks, flat.max_cert_residual) == ([], [])


class TestAveragingAtEnd:
    def test_mean_of_identical_hypotheses(self):
        data = Dataset(
            x=np.ones((40, 1)), y=np.full(40, 3.0), task="regression"
        )
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)
        hyp = averaging_at_end(spec, data, parts=4, seed=0)
        assert np.allclose(hyp.weights, [3.0], atol=1e-12)

    def test_midpoint_of_two_hypotheses(self):
        # labels assigned by partition membership force w values 0 and 2
        blocks = partition_indices(20, 2, seed=7)
        y = np.empty(20)
        y[blocks[0]] = 0.0
        y[blocks[1]] = 2.0
        data = Dataset(x=np.ones((20, 1)), y=y, task="regression")
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)
        hyp = averaging_at_end(spec, data, parts=2, seed=7)
        assert np.allclose(hyp.weights, [1.0], atol=1e-12)

    def test_single_adversarial_partition_shifts_mean_not_radon(self):
        # r - 1 partitions carry one clean repeated row, one partition is
        # poisoned; the mean moves by the full shift / r while the Radon
        # point stays at the clean hypothesis
        r = 3
        rows_per_part = 10
        n = r * rows_per_part
        blocks = partition_indices(n, r, seed=13)
        x = np.ones((n, 1))
        y = np.full(n, 1.0)
        y[blocks[0]] = -5.0  # poisoned partition
        data = Dataset(x=x, y=y, task="regression")
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)

        avg = averaging_at_end(spec, data, parts=r, seed=13)
        cfg = RadonConfig(r=r, h=1, seed=13, n_min=rows_per_part)
        radon, _ = radon_machine(spec, data, cfg)

        assert avg.weights[0] == pytest.approx((2 * 1.0 + (-5.0)) / 3.0)
        assert radon.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_same_partitions_as_radon_machine(self):
        data, _ = synth_classification(900, 2, 0.1, seed=5)
        hyp_avg = averaging_at_end(RIDGE_BIAS, data, parts=5, seed=31)
        cfg = RadonConfig(r=5, h=1, seed=31, n_min=100)
        hyp_radon, _ = radon_machine(RIDGE_BIAS, data, cfg)
        # same seeds and same blocks: the radon point must lie inside the
        # bounding box of the partition models, as must the mean
        assert hyp_avg.dim == hyp_radon.dim == 3


class TestTraceAccounting:
    def test_level_counts_follow_powers(self):
        data, _ = synth_classification(4**3 * 20, 2, 0.1, seed=9)
        cfg = RadonConfig(r=4, h=3, seed=1, n_min=20)
        spec = LearnerSpec(loss="squared", reg_lambda=0.1, fit_bias=False)
        _, trace = radon_machine(spec, data, cfg)
        assert trace.hypotheses_per_level == [64, 16, 4, 1]
        assert trace.wall_time_learning >= 0.0
        assert trace.wall_time_aggregation >= 0.0

    def test_invalid_config_values(self):
        with pytest.raises(ConfigError):
            RadonConfig(r=2, h=1, seed=0)
        with pytest.raises(ConfigError):
            RadonConfig(r=4, h=-1, seed=0)
        with pytest.raises(ConfigError):
            RadonConfig(r=4, h=1, seed=0, workers=0)


class TestSingleBlockKernel:
    @pytest.mark.parametrize("fit_bias", [True, False])
    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_one_partition_on_two_workers_equals_train(self, loss, fit_bias):
        # workers > 1 sends even a single SGD partition through the lock-step
        # kernel, which must give train()'s bits on that partition's rows.
        data, _ = synth_classification(701, 3, 0.1, seed=12)
        spec = LearnerSpec(loss=loss, reg_lambda=0.01, epochs=3, fit_bias=fit_bias)
        weights, _ = train_on_partitions(spec, data, 1, 19, workers=2)
        (block,) = partition_indices(data.n_rows, 1, 19)
        expected = train(spec, data.subset(block), training_seeds(19, 1)[0]).weights
        assert weights.shape == (1, expected.size)
        assert weights[0].tobytes() == expected.tobytes()


class TestCachedPermutation:
    def test_blocks_are_read_only(self):
        blocks = partition_indices(100, 3, seed=4)
        with pytest.raises(ValueError):
            blocks[0][0] = 7

    @pytest.mark.parametrize("seed", [1.5, "3", True, None])
    def test_non_integer_seed_is_config_error(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            partition_indices(100, 3, seed)

    def test_numpy_integer_seed_gives_the_same_blocks(self):
        for a, b in zip(partition_indices(100, 3, np.int64(8)), partition_indices(100, 3, 8)):
            assert np.array_equal(a, b)

    def test_each_seed_of_one_row_count_draws_its_own_permutation(self):
        aggregation._blocks.cache_clear()
        for seed in (1, 2, 1, 3, 2, 1):
            blocks = partition_indices(500, 7, seed)
            expected = np.random.default_rng(seed).permutation(500)
            assert np.array_equal(np.concatenate(blocks), expected)

    @pytest.mark.parametrize("n, parts", [(1003, 40), (45, 1), (7, 7)])
    def test_blocks_are_array_split_of_the_seeded_permutation(self, n, parts):
        blocks = partition_indices(n, parts, 11)
        expected = np.array_split(np.random.default_rng(11).permutation(n), parts)
        assert len(blocks) == len(expected) == parts
        assert all(np.array_equal(block, want) for block, want in zip(blocks, expected))
        assert [b.size for b in blocks] == [n // parts + (i < n % parts) for i in range(parts)]

    def test_a_repeated_call_hits_the_cache_and_draws_nothing(self, monkeypatch):
        aggregation._blocks.cache_clear()
        first = partition_indices(500, 7, 3)

        def no_draw(*args, **kwargs):
            raise AssertionError("a permutation was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        again = partition_indices(500, 7, 3)
        assert aggregation._blocks.cache_info().hits == 1
        assert again is not first and all(a is b for a, b in zip(again, first))
        again.pop()  # each call's list is its own
        assert len(partition_indices(500, 7, 3)) == 7


def _tree_points(r: int, h: int, seed: int, fallback: bool) -> np.ndarray:
    """r^h random points in r - 2 dimensions, laid out so that the first
    level's groups are known.  With ``fallback`` every other group is scaled
    up 1000 times and its points after the first lie on the hyperplane
    last = 2 * first coordinate, which makes the pin-0 matrix exactly
    singular, so those groups take another pin and hold the level's largest
    residuals."""
    rng = np.random.default_rng(seed)
    groups = rng.standard_normal((r ** (h - 1), r, r - 2))
    if fallback:
        groups[::2] *= 1000.0
        groups[::2, 1:, -1] = 2.0 * groups[::2, 1:, 0]
    return groups.reshape(-1, r - 2)


def _reference_levels(points: np.ndarray, cfg: RadonConfig):
    """The root, and each level's worst residual and pin fallbacks, from one
    radon_point and one certify() call per group."""
    residuals, fallbacks = [], []
    for _ in range(cfg.h):
        groups = points.reshape(-1, cfg.r, points.shape[1])
        certs = [radon_point(group) for group in groups]
        residuals.append(max(certify(group, cert) for group, cert in zip(groups, certs)))
        fallbacks.append(sum(cert.pin != 0 for cert in certs))
        points = np.array([cert.point for cert in certs])
    return points, residuals, fallbacks


class TestLevelCertificates:
    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("r, h", [(4, 2), (5, 2), (7, 1), (4, 3), (6, 2)])
    def test_residuals_equal_a_certify_loop_bit_for_bit(self, r, h, fallback):
        seed = 31 + r
        points = _tree_points(r, h, seed, fallback)
        cfg = RadonConfig(r=r, h=h, seed=seed)
        root, trace = _fold_tree(points, cfg, _point_by_point)
        expected_root, residuals, fallbacks = _reference_levels(points, cfg)
        assert root.tobytes() == expected_root.tobytes()
        assert trace.max_cert_residual == residuals
        assert trace.pin_fallbacks == fallbacks
        assert (fallbacks[0] > 0) == fallback
        assert all(residual > 0.0 for residual in residuals)

    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("r, h", [(4, 2), (5, 2), (7, 1), (4, 3), (6, 2), (6, 3)])
    def test_stacked_fold_equals_the_traced_root(self, r, h, fallback):
        # the stacked fold against the reference tree: the same root, and the
        # same trace read off the kernel's own certificate check
        seed = 31 + r
        points = _tree_points(r, h, seed, fallback)
        cfg = RadonConfig(r=r, h=h, seed=seed)
        root, trace = _fold_tree(points, cfg)
        expected_root, expected_trace = _fold_tree(points, cfg, _point_by_point)
        assert root.tobytes() == expected_root.tobytes()
        assert trace == expected_trace
        assert trace.hypotheses_per_level == [r**level for level in range(h, -1, -1)]
        assert (trace.pin_fallbacks[0] > 0) == fallback

    def test_radon_machine_calls_no_certify(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("certify() was called")

        monkeypatch.setattr(aggregation, "certify", refuse, raising=False)
        monkeypatch.setattr(radon_points, "certify", refuse)
        data, _ = synth_classification(2000, 2, 0.1, seed=3)
        _, trace = radon_machine(RIDGE, data, RadonConfig(r=4, h=2, seed=5))
        assert len(trace.max_cert_residual) == 2


SRC = Path(__file__).resolve().parent.parent / "src" / "radon_machine"
TRACE_LISTS = {"hypotheses_per_level", "pin_fallbacks", "max_cert_residual"}


def _fold_sites(node: ast.AST, module: str, site="<module>", stacks=("_radon_stack",)) -> list:
    """(module.function, kind) of each call under ``node`` that reaches
    _radon_stack (kind "stack": by name, or through a parameter defaulting to
    it) or appends to a per-level list of AggregationTrace (kind "append")."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        site = node.name
        args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        stacks = {"_radon_stack"} | {
            arg.arg for arg, default in zip(args[len(args) - len(defaults):], defaults)
            if isinstance(default, ast.Name) and default.id == "_radon_stack"
        }
    found = []
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) in stacks:
            found.append((f"{module}.{site}", "stack"))
        if getattr(func, "attr", None) == "append" and getattr(func.value, "attr", None) in TRACE_LISTS:
            found.append((f"{module}.{site}", "append"))
    for child in ast.iter_child_nodes(node):
        found += _fold_sites(child, module, site, stacks)
    return found


class TestOneLevelLoop:
    """Every tree folds through _levels, the only loop over Radon levels."""

    def test_only_the_level_loop_and_radon_point_call_the_kernel(self):
        sites = [
            found
            for path in sorted(SRC.glob("*.py"))
            for found in _fold_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        ]
        assert sorted(site for site, kind in sites if kind == "stack") == [
            "aggregation._levels", "radon_points.radon_point"
        ]
        assert [site for site, kind in sites if kind == "append"] == ["aggregation._fold_tree"] * 3

    @pytest.mark.parametrize("r, h", [(4, 2), (5, 2), (4, 3), (6, 1), (6, 2)])
    def test_a_stack_of_trees_folds_as_each_tree_alone(self, r, h):
        fallbacks = (True, False, False, True)
        trees = [_tree_points(r, h, 40 + t, fallback) for t, fallback in enumerate(fallbacks)]
        cfg = RadonConfig(r=r, h=h, seed=0)
        alone = [_fold_tree(tree, cfg) for tree in trees]
        levels = list(_levels(np.concatenate(trees), r, h))
        assert len(levels) == h
        for level, (points, pins, worst) in enumerate(levels):
            assert points.shape == (len(trees) * r ** (h - level - 1), r - 2)
            assert pins == sum(trace.pin_fallbacks[level] for _, trace in alone)
            assert worst == max(trace.max_cert_residual[level] for _, trace in alone)
        assert levels[0][1] > 0
        roots = np.concatenate([root for root, _ in alone])
        assert levels[-1][0].tobytes() == roots.tobytes()
        for t, tree in enumerate(trees):  # every level's points too, tree by tree
            for (stacked, _, _), (points, _, _) in zip(levels, _levels(tree, r, h)):
                rows = points.shape[0]
                assert stacked[t * rows : (t + 1) * rows].tobytes() == points.tobytes()
