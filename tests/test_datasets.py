"""Dataset loading, synthetic generators, folds, and metric oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from radon_machine import (
    ConfigError,
    DataError,
    Dataset,
    LearnerSpec,
    ParseError,
    ShapeError,
    auc,
    kfold,
    load_dataset,
    predict_score,
    rmse,
    synth_classification,
    synth_regression,
    train,
)
from radon_machine import datasets
from radon_machine.datasets import _infer_binary, _loadtxt_csv, _parse_csv_lines
from radon_machine.metrics import _average_ranks


class TestCsvLoading:
    def test_two_row_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,1\n3,4,-1\n")
        data = load_dataset(path, "csv")
        assert data.dim == 2 and data.n_rows == 2 and data.task == "binary"
        assert np.array_equal(data.x, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(data.y, [1.0, -1.0])

    def test_zero_one_labels_remapped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,0\n2,1\n")
        data = load_dataset(path, "csv")
        assert data.task == "binary"
        assert np.array_equal(data.y, [-1.0, 1.0])

    def test_real_labels_mean_regression(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,0.3\n2,1.7\n")
        assert load_dataset(path, "csv").task == "regression"

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,1\n3,oops,-1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path, "csv")

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,1\n3,4\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path, "csv")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,1\n")
        with pytest.raises(ConfigError):
            load_dataset(path, "parquet")


class TestSvmlightLoading:
    def test_sparse_densification(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 1:0.5 3:2.0\n-1 2:1.0\n")
        data = load_dataset(path, "svmlight")
        assert np.array_equal(data.x, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(data.y, [1.0, -1.0])
        assert data.task == "binary"

    def test_bad_entry_names_line(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 1:0.5\n-1 2:x\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, "svmlight")

    def test_dense_size_cap_names_line(self, tmp_path):
        # 2 rows x 2^40 columns would need 16 TiB; the loader must refuse
        # before it allocates anything
        path = tmp_path / "d.svm"
        path.write_text("1 1:0.5\n-1 1099511627776:1\n")
        with pytest.raises(ParseError, match="line 2.*cap"):
            load_dataset(path, "svmlight")

    def test_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 0:0.5\n")
        with pytest.raises(ParseError, match="1-based"):
            load_dataset(path, "svmlight")


class TestSyntheticGenerators:
    def test_separable_data_admits_perfect_fit(self):
        data, w_true = synth_classification(100, 3, margin_noise=0.0, seed=1)
        scores = data.x @ w_true
        assert np.array_equal(np.where(scores >= 0, 1.0, -1.0), data.y)
        spec = LearnerSpec(loss="logistic", reg_lambda=1e-4, epochs=400, learning_rate0=1.0,
                           fit_bias=False)
        hyp = train(spec, data, seed=0)
        predicted = np.where(predict_score(hyp, data.x) >= 0, 1.0, -1.0)
        assert np.mean(predicted == data.y) == 1.0

    def test_pure_noise_auc_near_half(self):
        data, _ = synth_classification(8000, 4, margin_noise=0.5, seed=3)
        train_data = data.subset(np.arange(4000))
        test_idx = np.arange(4000, 8000)
        spec = LearnerSpec(loss="squared", reg_lambda=1.0)
        hyp = train(spec, train_data, seed=0)
        value = auc(predict_score(hyp, data.x[test_idx]), data.y[test_idx])
        n_pos = int((data.y[test_idx] > 0).sum())
        n_neg = test_idx.size - n_pos
        sigma = np.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))
        assert abs(value - 0.5) <= 3.0 * sigma

    def test_determinism(self):
        a, wa = synth_classification(1000, 8, 0.1, seed=99)
        b, wb = synth_classification(1000, 8, 0.1, seed=99)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert np.array_equal(wa, wb)
        c, _ = synth_regression(500, 4, 0.2, seed=7)
        d, _ = synth_regression(500, 4, 0.2, seed=7)
        assert c.y.tobytes() == d.y.tobytes()

    def test_noiseless_regression_recovery(self):
        data, w_true = synth_regression(400, 5, noise_sd=0.0, seed=11)
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)
        hyp = train(spec, data, seed=0)
        assert np.abs(hyp.weights - w_true).max() < 1e-6

    def test_holdout_rmse_matches_noise_level(self):
        sd = 0.5
        data, w_true = synth_regression(40000, 4, noise_sd=sd, seed=21)
        spec = LearnerSpec(loss="squared", reg_lambda=1e-6, fit_bias=False)
        hyp = train(spec, data.subset(np.arange(20000)), seed=0)
        idx = np.arange(20000, 40000)
        value = rmse(predict_score(hyp, data.x[idx]), data.y[idx])
        assert value == pytest.approx(sd, rel=0.05)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            synth_classification(0, 3, 0.1, seed=0)
        with pytest.raises(ConfigError):
            synth_classification(10, 3, 0.7, seed=0)
        with pytest.raises(ConfigError):
            synth_regression(10, 3, -0.1, seed=0)

    @pytest.mark.parametrize("make", [synth_classification, synth_regression])
    def test_cell_cap_trips_before_allocating(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="exceed the cap of 100000000 dense cells"):
                make(10**12, 8, 0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("make", [synth_classification, synth_regression])
    def test_cell_cap_admits_exactly_the_cap(self, make, monkeypatch):
        monkeypatch.setattr(datasets, "MAX_DENSE_CELLS", 12)
        assert make(4, 3, 0.1, seed=0)[0].x.shape == (4, 3)
        with pytest.raises(ConfigError, match="13 rows x 1 columns exceed the cap of 12"):
            make(13, 1, 0.1, seed=0)


class TestKfold:
    def test_singleton_folds(self):
        data, _ = synth_classification(10, 2, 0.0, seed=0)
        plan = kfold(data, 10, seed=1)
        sizes = [plan.test_indices(f).size for f in range(10)]
        assert sizes == [1] * 10

    def test_remainder_distribution(self):
        data, _ = synth_classification(10, 2, 0.0, seed=0)
        plan = kfold(data, 3, seed=1)
        sizes = sorted((plan.test_indices(f).size for f in range(3)), reverse=True)
        assert sizes == [4, 3, 3]

    def test_partition_of_all_rows(self):
        data, _ = synth_classification(53, 2, 0.0, seed=0)
        plan = kfold(data, 7, seed=5)
        seen = np.concatenate([plan.test_indices(f) for f in range(7)])
        assert np.array_equal(np.sort(seen), np.arange(53))
        for f in range(7):
            train_idx = plan.train_indices(f)
            assert np.intersect1d(train_idx, plan.test_indices(f)).size == 0

    def test_same_seed_same_plan(self):
        data, _ = synth_classification(40, 2, 0.0, seed=0)
        a = kfold(data, 5, seed=9)
        b = kfold(data, 5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_too_many_folds(self):
        data, _ = synth_classification(4, 2, 0.0, seed=0)
        with pytest.raises(DataError):
            kfold(data, 5, seed=0)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, -1]) == 1.0

    def test_inverted_ranking(self):
        assert auc([0.1, 0.9], [1, -1]) == 0.0

    def test_all_ties(self):
        assert auc([0.4, 0.4, 0.4, 0.4], [1, -1, 1, -1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc([0.1, 0.9], [1, 1])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(17)
        scores = rng.standard_normal(60)
        labels = np.sign(rng.standard_normal(60))
        labels[labels == 0] = 1.0
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_matches_pairwise_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            scores = np.round(rng.standard_normal(n), 1)  # coarse values force ties
            labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            if (labels > 0).all() or (labels < 0).all():
                labels[0] *= -1.0
            pos = scores[labels > 0]
            neg = scores[labels < 0]
            wins = sum(
                1.0 if sp > sn else 0.5 if sp == sn else 0.0 for sp in pos for sn in neg
            )
            assert auc(scores, labels) == wins / (pos.size * neg.size)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_single_element(self):
        assert rmse([5.0], [2.0]) == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            rmse([1.0], [1.0, 2.0])


class TestDatasetInvariants:
    def test_binary_label_domain_enforced(self):
        with pytest.raises(DataError):
            Dataset(x=np.ones((2, 1)), y=np.array([1.0, 2.0]), task="binary")

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Dataset(x=np.array([[np.inf]]), y=np.array([1.0]), task="regression")

    def test_arrays_read_only(self):
        data, _ = synth_classification(10, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            data.x[0, 0] = 5.0


def _per_line(path):
    """The per-line CSV parser's dataset, the reference for the fast path."""
    mat = _parse_csv_lines(path)
    y, task = _infer_binary(mat[:, -1])
    return Dataset(x=mat[:, :-1], y=y, task=task)


class TestCsvFastPath:
    """load_dataset reads CSV through np.loadtxt and must give the per-line
    parser's bits; the cases below all take the fast path."""

    def _assert_fast_and_equal(self, path):
        assert _loadtxt_csv(path) is not None
        fast, reference = load_dataset(path, "csv"), _per_line(path)
        assert fast.x.tobytes() == reference.x.tobytes()
        assert fast.y.tobytes() == reference.y.tobytes()
        assert fast.task == reference.task
        return fast

    def test_full_precision_file(self, tmp_path):
        rng = np.random.default_rng(21)
        table = np.column_stack(
            [rng.standard_normal((500, 4)) * 10.0 ** rng.integers(-300, 300, (500, 4)),
             rng.integers(0, 2, 500)]
        )
        path = tmp_path / "d.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header="a,b,c,d,y", comments="")
        data = self._assert_fast_and_equal(path)
        assert data.n_rows == 500 and data.task == "binary"

    def test_crlf_blank_lines_and_spaces_around_cells(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,y\r\n\r\n 0.1 ,-2.5e-3,1\r\n\r\n3,\t4 , 0.25 \r\n\r\n")
        data = self._assert_fast_and_equal(path)
        assert np.array_equal(data.x, [[0.1, -2.5e-3], [3.0, 4.0]])
        assert data.task == "regression"

    def test_single_data_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1.5,2,1")
        data = self._assert_fast_and_equal(path)
        assert data.x.shape == (1, 2)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("1,2,1\n3,oops,-1\n", 3),  # a cell that is no number
            ("1,2,1\n3,4,1\n5,6\n", 4),  # a short row
            ("1,2,1\n#3,4,1\n", 3),  # '#' starts no comment
            ("1,2,1\n3,4,-1#x\n", 3),
            ("1,2\x1c,1\n", 2),  # loadtxt would strip \x1c, float() rejects it
            ("1,2\x0c,1\n", 2),  # str.splitlines breaks the line at \x0c
        ],
    )
    def test_bad_lines_are_named(self, tmp_path, body, line):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n" + body, newline="")
        with pytest.raises(ParseError, match=f"line {line}:"):
            load_dataset(path, "csv")

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data rows"):
                load_dataset(path, "csv")

    def test_header_column_count_is_checked(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2,1\n3,4,-1\n")
        with pytest.raises(ParseError, match="line 2: expected 2 columns, got 3"):
            load_dataset(path, "csv")


def _loop_average_ranks(values):
    """The rank loop metrics._average_ranks replaced, kept as its oracle."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(3).standard_normal(2000),  # no ties
            np.random.default_rng(4).integers(0, 9, 2000).astype(float),  # long runs
            np.round(np.random.default_rng(5).standard_normal(3000), 1),
            np.array([2.0, 2.0, 2.0, 2.0]),
            np.array([1.0]),
            np.array([0.0, -0.0, np.nan, 1.0, np.nan, 1.0]),
        ],
    )
    def test_equals_the_loop_bit_for_bit(self, values):
        assert _average_ranks(values).tobytes() == _loop_average_ranks(values).tobytes()

    def test_equals_the_loop_on_a_large_tie_heavy_shuffle(self):
        # the default sort leaves ties and NaNs in no set order; ties share a
        # rank, and each NaN must still take the rank a stable sort gives it
        rng = np.random.default_rng(6)
        values = np.round(rng.standard_normal(20000), 1)
        values[rng.choice(values.size, 400, replace=False)] = np.nan
        values[rng.choice(values.size, 400, replace=False)] = -0.0
        values = rng.permutation(values)
        assert _average_ranks(values).tobytes() == _loop_average_ranks(values).tobytes()


class TestSubset:
    @pytest.mark.parametrize("regression", [False, True])
    def test_equals_a_dataset_built_from_the_rows(self, regression):
        make = synth_regression if regression else synth_classification
        data, _ = make(50, 3, 0.1, seed=2)
        idx = [4, 0, 49, 4, 17]
        sub = data.subset(idx)
        expected = Dataset(x=data.x[idx], y=data.y[idx], task=data.task)
        assert sub.task == expected.task
        assert sub.x.shape == expected.x.shape and sub.y.shape == expected.y.shape
        assert sub.x.tobytes() == expected.x.tobytes()
        assert sub.y.tobytes() == expected.y.tobytes()
        for rows in (sub.x, sub.y):
            assert rows.flags.c_contiguous
            with pytest.raises(ValueError):
                rows[0] = 0.0

    def test_empty_and_bad_indices(self):
        data, _ = synth_classification(10, 2, 0.0, seed=1)
        assert data.subset([]).x.shape == (0, 2)
        with pytest.raises(ShapeError):
            data.subset([[0, 1]])
        with pytest.raises(IndexError):
            data.subset([10])


class TestNonFiniteCells:
    """A non-finite cell is a ParseError naming the file and the line; a
    valid CSV still loads through np.loadtxt alone."""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400", "-NaN"])
    def test_csv_cell(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,y\n1,2,1\n3,{cell},-1\n")
        assert _loadtxt_csv(path) is None
        with pytest.raises(ParseError, match=f"d.csv: line 3: non-finite value '{cell}'$"):
            load_dataset(path, "csv")

    def test_csv_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,inf\n")
        with pytest.raises(ParseError, match="line 2: non-finite value 'inf'"):
            load_dataset(path, "csv")

    def test_valid_csv_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1e308,-1e308,1\n0,2,-1\n")

        def per_line(path):
            raise AssertionError("a valid file went through the per-line parser")

        monkeypatch.setattr(datasets, "_parse_csv_lines", per_line)
        assert load_dataset(path, "csv").x[0, 1] == -1e308

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 1:0.5\n-1 2:nan\n", "line 2: non-finite value in '2:nan'"),
            ("1 1:0.5\n-1 1:-1e999\n", "line 2: non-finite value in '1:-1e999'"),
            ("inf 1:0.5\n", "line 1: non-finite label 'inf'"),
        ],
    )
    def test_svmlight(self, tmp_path, text, message):
        path = tmp_path / "d.svm"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"d.svm: {message}$"):
            load_dataset(path, "svmlight")

    @pytest.mark.parametrize("fmt", ["csv", "svmlight"])
    def test_bytes_that_are_not_utf8(self, tmp_path, fmt):
        path = tmp_path / "d.bin"
        path.write_bytes(b"a,y\n1,\xff\n" if fmt == "csv" else b"1 1:\xff\n")
        with pytest.raises(ParseError, match="d.bin: not UTF-8 text"):
            load_dataset(path, fmt)


class TestGeneratorMessagesNameTheArgument:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: synth_classification(0, 2, 0.1, seed=0), "n must be >= 1, got 0"),
            (lambda: synth_regression(5, -1, 0.1, seed=0), "d must be >= 1, got -1"),
            (lambda: synth_classification(5, 2, 0.7, seed=0), r"noise must lie in \[0, 0.5\]"),
            (lambda: synth_regression(5, 2, float("inf"), seed=0),
             "noise_sd must be finite and >= 0, got inf"),
        ],
    )
    def test_message_starts_with_the_name(self, call, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            call()
