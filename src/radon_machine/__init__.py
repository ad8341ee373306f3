"""Black-box parallel learning via trees of Radon points.

Train a convex-risk base learner on many disjoint data partitions in
parallel, then aggregate the resulting hypotheses through h rounds of Radon
points, which drives the failure probability down doubly exponentially in h.
Includes the coordinate-wise averaging baseline, calculators for the
scheme's guarantees and costs, and a benchmark/validation harness.
"""

from .aggregation import (
    AggregationTrace,
    RadonConfig,
    averaging_at_end,
    max_height,
    partition_dataset,
    partition_indices,
    radon_machine,
    train_on_partitions,
    training_seeds,
)
from .bounds import (
    BoostedConfidence,
    BoundReport,
    ComplexityParams,
    boosted_confidence,
    choose_height,
    efficiency_report,
    radon_sample_size,
    runtime_model,
    sample_complexity_rademacher,
    sample_complexity_vc,
    sequential_sample_size,
)
from .datasets import (
    Dataset,
    FoldPlan,
    kfold,
    load_dataset,
    synth_classification,
    synth_regression,
)
from .errors import ConfigError, DataError, DegenerateSetError, ParseError, ShapeError
from .experiments import (
    ExperimentConfig,
    bounds_table,
    fit,
    mc_confidence,
    run_benchmark,
)
from .learners import (
    Hypothesis,
    LearnerSpec,
    empirical_regret,
    loss_derivatives,
    loss_values,
    predict_score,
    regularized_risk,
    train,
)
from .metrics import auc, rmse
from .radon_points import (
    RadonCertificate,
    certify,
    radon_number,
    radon_point,
    solve_radon_system,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationTrace",
    "BoostedConfidence",
    "BoundReport",
    "ComplexityParams",
    "ConfigError",
    "DataError",
    "Dataset",
    "DegenerateSetError",
    "ExperimentConfig",
    "FoldPlan",
    "Hypothesis",
    "LearnerSpec",
    "ParseError",
    "RadonCertificate",
    "RadonConfig",
    "ShapeError",
    "auc",
    "averaging_at_end",
    "boosted_confidence",
    "bounds_table",
    "certify",
    "choose_height",
    "efficiency_report",
    "empirical_regret",
    "fit",
    "kfold",
    "load_dataset",
    "loss_derivatives",
    "loss_values",
    "max_height",
    "mc_confidence",
    "partition_dataset",
    "partition_indices",
    "predict_score",
    "radon_machine",
    "radon_number",
    "radon_point",
    "radon_sample_size",
    "regularized_risk",
    "rmse",
    "run_benchmark",
    "runtime_model",
    "sample_complexity_rademacher",
    "sample_complexity_vc",
    "sequential_sample_size",
    "solve_radon_system",
    "synth_classification",
    "synth_regression",
    "train",
    "train_on_partitions",
    "training_seeds",
]
