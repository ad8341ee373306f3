"""Base learner training, risk evaluation, and optimizer guarantees."""

from itertools import product

import numpy as np
import pytest

from radon_machine import (
    ConfigError,
    DataError,
    Dataset,
    Hypothesis,
    LearnerSpec,
    RadonConfig,
    ShapeError,
    empirical_regret,
    loss_derivatives,
    learners,
    loss_values,
    partition_indices,
    predict_score,
    radon_machine,
    regularized_risk,
    train,
    training_seeds,
)

COLLINEAR = Dataset(x=np.array([[1.0], [2.0]]), y=np.array([2.0, 4.0]), task="regression")


def _grid_minimum(spec, data, dim, width=3.0, points=13, refinements=4):
    """Brute-force refined-grid minimiser of the regularised risk."""
    center = np.zeros(dim)
    best_w, best_risk = None, np.inf
    for _ in range(refinements):
        axes = [np.linspace(center[i] - width, center[i] + width, points) for i in range(dim)]
        for combo in product(*axes):
            w = np.asarray(combo)
            risk = regularized_risk(spec, Hypothesis(weights=w, fit_bias=spec.fit_bias), data)
            if risk < best_risk:
                best_risk, best_w = risk, w
        center = best_w
        width = width * 2.2 / (points - 1)
    return best_w, best_risk


class TestTrain:
    def test_exact_fit_collinear(self):
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)
        hyp = train(spec, COLLINEAR, seed=0)
        assert hyp.weights == pytest.approx([2.0], abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0, 10.0])
    def test_ridge_closed_form(self, lam):
        spec = LearnerSpec(loss="squared", reg_lambda=lam, fit_bias=False)
        hyp = train(spec, COLLINEAR, seed=0)
        assert hyp.weights[0] == pytest.approx(10.0 / (5.0 + lam), rel=1e-12)

    def test_logistic_separable_pair(self):
        data = Dataset(x=np.array([[-1.0], [1.0]]), y=np.array([-1.0, 1.0]), task="binary")
        spec = LearnerSpec(
            loss="logistic", reg_lambda=0.1, epochs=4000, learning_rate0=0.5, fit_bias=False
        )
        hyp = train(spec, data, seed=0)
        assert hyp.weights[0] > 0
        assert np.sign(predict_score(hyp, np.array([-1.0]))) == -1
        assert np.sign(predict_score(hyp, np.array([1.0]))) == 1
        _, grid_risk = _grid_minimum(spec, data, dim=1)
        assert regularized_risk(spec, hyp, data) <= grid_risk + 1e-3

    def test_empty_dataset_rejected(self):
        empty = Dataset(x=np.empty((0, 2)), y=np.empty(0), task="regression")
        with pytest.raises(DataError):
            train(LearnerSpec(loss="squared"), empty, seed=0)

    def test_label_domain_enforced(self):
        data = Dataset(x=np.array([[1.0], [2.0]]), y=np.array([0.5, 1.0]), task="regression")
        with pytest.raises(DataError):
            train(LearnerSpec(loss="logistic"), data, seed=0)

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(5)
        data = Dataset(
            x=rng.uniform(-1, 1, (40, 3)),
            y=np.sign(rng.standard_normal(40)),
            task="binary",
        )
        spec = LearnerSpec(loss="logistic", reg_lambda=0.1, epochs=3)
        a = train(spec, data, seed=9)
        b = train(spec, data, seed=9)
        c = train(spec, data, seed=10)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            LearnerSpec(loss="absolute")
        with pytest.raises(ConfigError):
            LearnerSpec(epochs=0)
        with pytest.raises(ConfigError):
            LearnerSpec(reg_lambda=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reg_lambda", float("nan")),
            ("reg_lambda", float("inf")),
            pytest.param("reg_lambda", 10**400, id="reg_lambda-10**400"),
            ("learning_rate0", float("nan")),
            ("learning_rate0", float("inf")),
            ("learning_rate0", -float("inf")),
        ],
    )
    def test_non_finite_rate_or_penalty_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=rf"^learner\.{field} must be finite"):
            LearnerSpec(**{field: value})


class TestPredictScore:
    def test_dot_product(self):
        hyp = Hypothesis(weights=np.array([2.0]), fit_bias=False)
        assert predict_score(hyp, np.array([3.0])) == pytest.approx(6.0)

    def test_bias_appended(self):
        hyp = Hypothesis(weights=np.array([1.0, -1.0, 0.5]), fit_bias=True)
        assert predict_score(hyp, np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_zero_hypothesis(self):
        hyp = Hypothesis(weights=np.zeros(4), fit_bias=False)
        rng = np.random.default_rng(0)
        assert predict_score(hyp, rng.standard_normal(4)) == 0.0

    def test_batch_scores(self):
        hyp = Hypothesis(weights=np.array([1.0, 2.0]), fit_bias=False)
        scores = predict_score(hyp, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(scores, [1.0, 2.0])

    def test_dimension_mismatch(self):
        hyp = Hypothesis(weights=np.array([1.0, 2.0]), fit_bias=False)
        with pytest.raises(ShapeError):
            predict_score(hyp, np.array([1.0, 2.0, 3.0]))


class TestRegularizedRisk:
    def test_zero_at_exact_fit(self):
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)
        hyp = Hypothesis(weights=np.array([2.0]), fit_bias=False)
        assert regularized_risk(spec, hyp, COLLINEAR) == 0.0

    def test_hinge_at_zero_weights(self):
        n = 7
        data = Dataset(
            x=np.arange(n, dtype=float).reshape(-1, 1) + 1.0,
            y=np.resize([1.0, -1.0], n),
            task="binary",
        )
        spec = LearnerSpec(loss="hinge", reg_lambda=0.0, fit_bias=False)
        hyp = Hypothesis(weights=np.zeros(1), fit_bias=False)
        assert regularized_risk(spec, hyp, data) == pytest.approx(float(n))

    def test_logistic_at_zero_weights(self):
        n = 5
        data = Dataset(
            x=np.ones((n, 2)), y=np.resize([1.0, -1.0], n), task="binary"
        )
        spec = LearnerSpec(loss="logistic", reg_lambda=4.0, fit_bias=False)
        hyp = Hypothesis(weights=np.zeros(2), fit_bias=False)
        assert regularized_risk(spec, hyp, data) == pytest.approx(n * np.log(2.0))

    def test_penalty_includes_all_coordinates(self):
        spec = LearnerSpec(loss="squared", reg_lambda=2.0, fit_bias=True)
        hyp = Hypothesis(weights=np.array([1.0, 3.0]), fit_bias=True)
        data = Dataset(x=np.array([[0.0]]), y=np.array([3.0]), task="regression")
        # loss 0.5*(3-3)^2 = 0, penalty (2/2)*(1+9) = 10
        assert regularized_risk(spec, hyp, data) == pytest.approx(10.0)


class TestEmpiricalRegret:
    def test_identical_hypotheses(self):
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)
        ref = Hypothesis(weights=np.array([2.0]), fit_bias=False)
        assert empirical_regret(ref, spec, COLLINEAR, ref) == 0.0

    def test_worse_hypothesis_positive(self):
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)
        ref = Hypothesis(weights=np.array([2.0]), fit_bias=False)
        worse = Hypothesis(weights=np.array([-1.0]), fit_bias=False)
        assert empirical_regret(worse, spec, COLLINEAR, ref) > 0.0

    def test_zero_vs_reference_value(self):
        # residuals 2 and 4 under the half-squared loss: (2 + 8) / 2 = 5
        spec = LearnerSpec(loss="squared", reg_lambda=0.0, fit_bias=False)
        ref = Hypothesis(weights=np.array([2.0]), fit_bias=False)
        zero = Hypothesis(weights=np.array([0.0]), fit_bias=False)
        assert empirical_regret(zero, spec, COLLINEAR, ref) == pytest.approx(5.0)


class TestOptimizerGuarantees:
    def _random_problem(self, rng, n, d):
        x = rng.uniform(-1, 1, (n, d))
        w_true = rng.standard_normal(d)
        w_true /= np.linalg.norm(w_true)
        y = np.where(x @ w_true >= 0, 1.0, -1.0)
        y[rng.random(n) < 0.1] *= -1.0
        return Dataset(x=x, y=y, task="binary")

    @pytest.mark.parametrize(
        "loss,lam,epochs,eta",
        [
            ("squared", 0.7, 1, 0.1),
            ("logistic", 1.0, 4000, 0.5),
            ("hinge", 1.0, 20000, 0.5),
        ],
    )
    def test_risk_within_tolerance_of_oracle(self, loss, lam, epochs, eta):
        rng = np.random.default_rng(42)
        data = self._random_problem(rng, n=20, d=2)
        if loss == "squared":
            data = Dataset(x=data.x, y=data.y + 0.1 * rng.standard_normal(20), task="regression")
        spec = LearnerSpec(
            loss=loss, reg_lambda=lam, epochs=epochs, learning_rate0=eta, fit_bias=False
        )
        hyp = train(spec, data, seed=3)
        trained_risk = regularized_risk(spec, hyp, data)
        _, grid_risk = _grid_minimum(spec, data, dim=2)
        assert trained_risk <= grid_risk + 1e-3
        for _ in range(1000):
            probe = Hypothesis(weights=rng.uniform(-3, 3, 2), fit_bias=False)
            assert trained_risk <= regularized_risk(spec, probe, data) + 1e-3

    def test_risk_is_convex_along_segments(self):
        rng = np.random.default_rng(8)
        data = self._random_problem(rng, n=30, d=3)
        for loss in ("logistic", "hinge", "squared"):
            task_data = data if loss != "squared" else Dataset(
                x=data.x, y=data.y, task="regression"
            )
            spec = LearnerSpec(loss=loss, reg_lambda=0.3, fit_bias=False)
            for _ in range(50):
                w1 = rng.standard_normal(3)
                w2 = rng.standard_normal(3)
                t = float(rng.random())
                mid = Hypothesis(weights=t * w1 + (1 - t) * w2, fit_bias=False)
                r1 = regularized_risk(spec, Hypothesis(weights=w1, fit_bias=False), task_data)
                r2 = regularized_risk(spec, Hypothesis(weights=w2, fit_bias=False), task_data)
                assert regularized_risk(spec, mid, task_data) <= t * r1 + (1 - t) * r2 + 1e-9

    def test_loss_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(13)
        step = 1e-6
        checked = 0
        while checked < 100:
            z = float(rng.uniform(-3, 3))
            y = -1.0 if rng.random() < 0.5 else 1.0
            for loss in ("logistic", "hinge", "squared"):
                if loss == "squared":
                    y_val = float(rng.uniform(-2, 2))
                else:
                    y_val = y
                if loss == "hinge" and abs(y_val * z - 1.0) < 1e-3:
                    continue  # stay away from the kink
                numeric = (
                    loss_values(loss, z + step, y_val) - loss_values(loss, z - step, y_val)
                ) / (2 * step)
                analytic = loss_derivatives(loss, z, y_val)
                assert float(analytic) == pytest.approx(float(numeric), rel=1e-5, abs=1e-8)
            checked += 1


def _two_divisions_logistic_derivative(z, y):
    """The logistic derivative as once written, with 1 + em computed twice."""
    m = y * z
    em = np.exp(-np.abs(m))
    return -y * np.where(m >= 0.0, em / (1.0 + em), 1.0 / (1.0 + em))


class TestLogisticDerivativeBits:
    SCORES = [0.0, -0.0, 1e-300, -1e-300, 0.3, -2.5, 36.0, -37.5, 700.0, -700.0, 800.0, -800.0]

    def test_arrays_equal_the_two_division_form(self):
        z, y = (np.array(v) for v in zip(*product(self.SCORES, [-1.0, 1.0])))
        expected = _two_divisions_logistic_derivative(z, y)
        assert loss_derivatives("logistic", z, y).tobytes() == expected.tobytes()

    def test_scalars_equal_the_two_division_form(self):
        for z, y in product(self.SCORES, [-1.0, 1.0]):
            expected = _two_divisions_logistic_derivative(np.float64(z), np.float64(y))
            assert loss_derivatives("logistic", z, y).tobytes() == expected.tobytes()


def _partitioned(data, parts, seed):
    return partition_indices(data.n_rows, parts, seed), training_seeds(seed, parts)


class TestSgdOverflowingRows:
    # pytest turns a RuntimeWarning into an error, so an overflowing score
    # that reached the loop would fail these tests before the check
    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_both_sgd_loops_reject_the_data_before_a_step(self, loss):
        x = np.random.default_rng(4).uniform(-1, 1, (300, 3))
        x[123, 2] = 1e200  # its square overflows
        data = Dataset(x=x, y=np.where(x[:, 0] >= 0, 1.0, -1.0), task="binary")
        spec = LearnerSpec(loss=loss, epochs=2)
        with pytest.raises(DataError, match="overflow SGD's scores"):
            train(spec, data, 0)
        with pytest.raises(DataError, match="overflow SGD's scores"):
            learners._train_block(spec, data, *_partitioned(data, 6, 0))

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_rows_past_the_sum_of_squares_bound_still_train(self, loss):
        # the sum of all squares overflows, so the check reads the rows one
        # by one; each large row's squared norm, 1e308, is finite
        x = np.random.default_rng(4).uniform(-1, 1, (300, 2))
        x[7], x[123] = (1e154, 0.0), (0.0, 1e154)
        data = Dataset(x=x, y=np.where(x[:, 0] >= 0, 1.0, -1.0), task="binary")
        spec = LearnerSpec(loss=loss, epochs=1, fit_bias=False)
        with np.errstate(over="ignore"):
            assert np.vdot(x, x) > np.finfo(np.float64).max / 2
        weights = train(spec, data, 0).weights
        block = learners._train_block(spec, data, [np.arange(300)], [0])
        assert np.isfinite(weights).all() and np.array_equal(block[0], weights)

    def test_predict_score_rejects_an_overflowing_score(self):
        h = Hypothesis(weights=np.array([2.0, 1.0]), fit_bias=False)
        with pytest.raises(DataError, match="overflow the scores"):
            predict_score(h, np.array([[1e308, 0.0], [0.5, 0.5]]))
        assert predict_score(h, np.array([1e307, 1.0])) == 2e307 + 1.0


class TestSgdStepCap:
    def test_steps_above_the_cap_are_a_config_error_naming_epochs(self, monkeypatch):
        monkeypatch.setattr(learners, "MAX_SGD_STEPS", 1000)
        data = Dataset(
            x=np.linspace(-1, 1, 200)[:, None], y=np.tile([1.0, -1.0], 100), task="binary"
        )
        assert train(LearnerSpec(epochs=5), data, 0).dim == 2  # 1000 steps: at the cap
        with pytest.raises(ConfigError, match=r"learner\.epochs=6 .* 1200 SGD steps"):
            train(LearnerSpec(epochs=6), data, 0)
        with pytest.raises(ConfigError, match=r"learner\.epochs=6 .* 1200 SGD steps"):
            learners._train_block(LearnerSpec(epochs=6), data, *_partitioned(data, 4, 0))
        for workers in (1, 2):  # one train() call per partition, or the kernel
            cfg = RadonConfig(r=4, h=1, seed=0, n_min=50, workers=workers)
            with pytest.raises(ConfigError, match=r"learner\.epochs=6 .* 1200 SGD steps"):
                radon_machine(LearnerSpec(epochs=6), data, cfg)
        squared = LearnerSpec(loss="squared", epochs=6)  # an exact solve takes no step
        assert train(squared, Dataset(x=data.x, y=data.y, task="regression"), 0).dim == 2


def _frozen_rows(spec, data):
    """[x, 1], or x without a bias, as the loops below were written."""
    if not spec.fit_bias:
        return data.x
    return np.hstack([data.x, np.ones((data.n_rows, 1))])


def _frozen_train(spec, data, seed):
    """train()'s SGD loop as once written: unsigned rows, and the step's
    derivative from loss_derivatives."""
    xa = _frozen_rows(spec, data)
    n, p = xa.shape
    rng = np.random.default_rng(seed)
    w = np.zeros(p)
    lr0 = spec.learning_rate0
    decay = lr0 * spec.reg_lambda / n
    reg_step = spec.reg_lambda / n
    t = 0
    for _ in range(spec.epochs):
        for i in rng.permutation(n):
            xi = xa[i]
            g = loss_derivatives(spec.loss, (xi * w).sum(), data.y[i])
            eta = lr0 / (1.0 + decay * t)
            w -= eta * (g * xi + reg_step * w)
            t += 1
    return w


def _frozen_block(spec, data, blocks, seeds):
    """_train_block's lock-step SGD as once written: each pass gathers
    unsigned rows and their labels and calls loss_derivatives."""
    xa = _frozen_rows(spec, data)
    sizes = np.array([len(block) for block in blocks])
    w = np.zeros((len(blocks), xa.shape[1]))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    lr0 = spec.learning_rate0
    decay = lr0 * spec.reg_lambda / sizes
    reg_step = np.repeat((spec.reg_lambda / sizes)[:, None], w.shape[1], axis=1)
    steps = np.arange(sizes[0], dtype=np.float64)[:, None]
    live = (sizes > steps).sum(axis=1).tolist()
    rows = np.zeros((sizes[0], len(blocks)), dtype=np.intp)
    etas = np.empty(rows.shape)
    for epoch in range(spec.epochs):
        for k, rng in enumerate(rngs):
            rows[: sizes[k], k] = blocks[k].take(rng.permutation(sizes[k]))
        np.add(steps, epoch * sizes, out=etas)
        etas *= decay
        etas += 1.0
        np.divide(lr0, etas, out=etas)
        for s, m in enumerate(live):
            idx = rows[s, :m]
            xt = xa.take(idx, axis=0)
            wm = w[:m]
            g = loss_derivatives(spec.loss, (xt * wm).sum(axis=1), data.y.take(idx))
            wm -= etas[s, :m, None] * (g[:, None] * xt + reg_step[:m] * wm)
    return w


def _frozen_case_data(loss, cells):
    """67 rows of 8 features: plain, with a column of zeros, with -0.0
    cells, or scaled by 300 so that logistic margins underflow exp."""
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, (67, 8))
    if cells == "zero column":
        x[:, 3] = 0.0
    elif cells == "negative zeros":
        x[::4, 1] = -0.0
        x[1::5, 6] = -0.0
    elif cells == "rows x300":
        x *= 300.0
    score = x @ np.linspace(-1.0, 1.0, 8)
    if loss == "squared":
        return Dataset(x=x, y=score + rng.normal(0.0, 0.1, 67), task="regression")
    return Dataset(x=x, y=np.where(score + rng.normal(0.0, 0.3, 67) >= 0, 1.0, -1.0), task="binary")


class TestSgdStepMatchesFrozenReference:
    """train() and the lock-step kernel step on signed rows y * [x, 1] with
    the loss's derivative in the margin; these cases hold both to the loops
    that stepped on [x, 1] with loss_derivatives, byte for byte."""

    @pytest.mark.parametrize("cells", ["plain", "zero column", "negative zeros", "rows x300"])
    @pytest.mark.parametrize("fit_bias", [True, False])
    @pytest.mark.parametrize("reg_lambda", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("loss", ["logistic", "hinge", "squared"])
    def test_train_and_kernel_keep_the_bits(self, monkeypatch, loss, reg_lambda, fit_bias, cells):
        monkeypatch.setattr(learners, "EXACT_SOLVE_MAX_DIM", 0)  # squared loss takes SGD too
        data = _frozen_case_data(loss, cells)
        # a squared-loss step is stable while eta * |x|^2 stays below 2
        rate = 0.05 / (300.0 if cells == "rows x300" else 1.0) ** 2 if loss == "squared" else 0.1
        spec = LearnerSpec(loss=loss, reg_lambda=reg_lambda, epochs=2, learning_rate0=rate,
                           fit_bias=fit_bias)
        blocks, seeds = _partitioned(data, 7, 11)
        assert len({len(block) for block in blocks}) == 2  # uneven: 4 of 10 rows, 3 of 9
        for block, seed in zip(blocks, seeds):
            subset = data.subset(block)
            weights = train(spec, subset, seed).weights
            assert weights.tobytes() == _frozen_train(spec, subset, seed).tobytes()
        kernel = learners._train_block(spec, data, blocks, seeds)
        assert kernel.tobytes() == _frozen_block(spec, data, blocks, seeds).tobytes()
