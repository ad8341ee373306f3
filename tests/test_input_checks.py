"""Input checks of the public entries that no other test reaches, one case
each: the error class and its message, byte for byte."""

from dataclasses import replace

import numpy as np
import pytest

from radon_machine import (
    ConfigError,
    Dataset,
    Hypothesis,
    LearnerSpec,
    RadonCertificate,
    ShapeError,
    auc,
    certify,
    loss_derivatives,
    loss_values,
    predict_score,
    solve_radon_system,
    train_on_partitions,
)

# Columns of 1e-160 give a Gram matrix of about 1e-320 and X^T y of about
# 1e40, both finite, so the overflow check passes and the weights are 1e360.
TINY = Dataset(np.full((40, 1), 1e-160), np.full(40, 1e200), "regression")
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
SQUARE_CERT = RadonCertificate(
    lam=np.array([1.0, -1.0, -1.0, 1.0]), pos_idx=np.array([0, 3]), neg_idx=np.array([1, 2]),
    lambda_sum=2.0, point=np.array([0.5, 0.5]),
)


def _certify_with(**fields):
    return certify(SQUARE, replace(SQUARE_CERT, **fields))


CHECKS = [
    ("_train_block.lstsq_weights", ShapeError, "weights contain non-finite values",
     lambda: train_on_partitions(LearnerSpec("squared", 0.0, fit_bias=False), TINY, 4, 0)),
    ("_train_block.solve_weights", ShapeError, "weights contain non-finite values",
     lambda: train_on_partitions(LearnerSpec("squared", 5e-324, fit_bias=False), TINY, 4, 0)),
    ("Hypothesis.empty", ShapeError, "weights must be a non-empty vector, got shape (0,)",
     lambda: Hypothesis(np.zeros(0), fit_bias=False)),
    ("Hypothesis.non_finite", ShapeError, "weights contain non-finite values",
     lambda: Hypothesis(np.array([1.0, np.nan]), fit_bias=True)),
    ("loss_values.loss", ConfigError, "unknown loss 'cubic'",
     lambda: loss_values("cubic", [0.0], [1.0])),
    ("loss_derivatives.loss", ConfigError, "unknown loss 'cubic'",
     lambda: loss_derivatives("cubic", [0.0], [1.0])),
    ("predict_score.ndim", ShapeError, "expected a vector or matrix of inputs, got shape (1, 1, 2)",
     lambda: predict_score(Hypothesis(np.ones(2), fit_bias=False), np.zeros((1, 1, 2)))),
    ("Dataset.x", ShapeError, "features must be a (rows, dim) matrix, got shape (3,)",
     lambda: Dataset(np.zeros(3), np.zeros(3), "regression")),
    ("Dataset.y", ShapeError, "labels of shape (2,) do not match 3 rows",
     lambda: Dataset(np.zeros((3, 2)), np.zeros(2), "regression")),
    ("Dataset.task", ConfigError,
     "unknown task 'ranking', expected one of ('binary', 'regression')",
     lambda: Dataset(np.zeros((3, 2)), np.zeros(3), "ranking")),
    ("auc.shape", ShapeError, "scores (2,) and labels (1,) must be equal-length vectors",
     lambda: auc([0.1, 0.2], [1.0])),
    ("as_point_array.ndim", ShapeError, "expected a 2-d array of points, got shape (4,)",
     lambda: solve_radon_system(np.zeros(4))),
    ("certify.point", ShapeError, "certificate point has shape (3,), expected (2,)",
     lambda: _certify_with(point=np.zeros(3))),
]


@pytest.mark.parametrize("error, message, call", [case[1:] for case in CHECKS],
                         ids=[case[0] for case in CHECKS])
def test_check_raises_its_error(error, message, call):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_certify_reports_no_positive_mass_as_infinite_violation():
    assert _certify_with() == pytest.approx(0.0, abs=1e-15)
    assert _certify_with(lambda_sum=0.0) == float("inf")
