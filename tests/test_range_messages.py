"""Range errors: every one reads ``<field> must <rule>, got <value>``.

The table pins each range check's message byte for byte, one case per check,
through the public entry that runs it; a lint over the package's source
keeps every range check a call of ``errors.require``, which owns the wording.
"""

import ast
import math
from pathlib import Path

import pytest

from radon_machine import (
    ComplexityParams,
    ConfigError,
    ExperimentConfig,
    LearnerSpec,
    RadonConfig,
    boosted_confidence,
    bounds_table,
    choose_height,
    efficiency_report,
    kfold,
    max_height,
    mc_confidence,
    partition_indices,
    radon_number,
    radon_sample_size,
    runtime_model,
    sample_complexity_rademacher,
    sample_complexity_vc,
    sequential_sample_size,
    synth_classification,
    synth_regression,
    train_on_partitions,
)
from radon_machine.cli import main
from radon_machine.errors import require_seed

SRC = Path(__file__).resolve().parent.parent / "src" / "radon_machine"
# The rules a range error states; only errors.require may write them out.
RANGE_RULES = (" must be >=", " must be <=", " must lie in", " must be finite")
PARAMS = ComplexityParams(alpha_eps=1.0, beta_eps=1.0, k=1, kappa=1)
# A Radon number past float range: r * delta_base and 1 / r would overflow.
HUGE_R = 2**1100
HUGE_R_ERROR = f"r must be >= 3 and below 2**64 (a Radon number), got {HUGE_R}"


def _train_with_no_workers():
    data, _ = synth_classification(20, 2, 0.1, 0)
    train_on_partitions(LearnerSpec(), data, 2, 0, workers=0)


RANGE_ERRORS = [
    ("RadonConfig.r", lambda: RadonConfig(r=2, h=1, seed=0),
     "r must be >= 3 (a Radon number), got 2"),
    ("RadonConfig.h", lambda: RadonConfig(r=3, h=-1, seed=0),
     "h must be >= 0 (a tree height), got -1"),
    ("RadonConfig.n_min", lambda: RadonConfig(r=3, h=1, seed=0, n_min=0),
     "n_min must be >= 1, got 0"),
    ("RadonConfig.workers", lambda: RadonConfig(r=3, h=1, seed=0, workers=0),
     "workers must be >= 1, got 0"),
    ("max_height.r", lambda: max_height(100, 2, 10), "r must be >= 3 (a Radon number), got 2"),
    ("max_height.n_min", lambda: max_height(100, 3, 0), "n_min must be >= 1, got 0"),
    ("partition_indices.parts", lambda: partition_indices(10, 0, 0), "parts must be >= 1, got 0"),
    ("train_on_partitions.workers", _train_with_no_workers, "workers must be >= 1, got 0"),
    ("ComplexityParams.alpha_eps", lambda: ComplexityParams(-1.0, 1.0, 1, 1),
     "alpha_eps must be finite and >= 0, got -1.0"),
    ("ComplexityParams.beta_eps", lambda: ComplexityParams(1.0, math.inf, 1, 1),
     "beta_eps must be finite and >= 0, got inf"),
    ("ComplexityParams.k", lambda: ComplexityParams(1.0, 1.0, 0, 1), "k must be >= 1, got 0"),
    ("ComplexityParams.kappa", lambda: ComplexityParams(1.0, 1.0, 1, 0),
     "kappa must be >= 1, got 0"),
    ("base_sample_size.delta", lambda: PARAMS.base_sample_size(1.0),
     "delta must lie in (0, 1), got 1.0"),
    ("boosted_confidence.r", lambda: boosted_confidence(2, 0.1, 1),
     "r must be >= 3 (a Radon number), got 2"),
    ("boosted_confidence.delta_base", lambda: boosted_confidence(3, 0.0, 1),
     "delta_base must lie in (0, 1), got 0.0"),
    ("boosted_confidence.h", lambda: boosted_confidence(3, 0.1, -1),
     "h must be >= 0 (a tree height), got -1"),
    ("boosted_confidence.r_past_float", lambda: boosted_confidence(HUGE_R, 1e-300, 1),
     HUGE_R_ERROR),
    ("efficiency_report.r_past_float", lambda: efficiency_report(PARAMS, HUGE_R, 1e-300, 1, 1),
     HUGE_R_ERROR),
    ("bounds_table.r_past_float", lambda: bounds_table(PARAMS, HUGE_R, 1e-300, [1]),
     HUGE_R_ERROR),
    ("radon_sample_size.r", lambda: radon_sample_size(2, 1, 10.0),
     "r must be >= 3 (a Radon number), got 2"),
    ("radon_sample_size.h", lambda: radon_sample_size(3, -1, 10.0),
     "h must be >= 0 (a tree height), got -1"),
    ("radon_sample_size.n_base", lambda: radon_sample_size(3, 1, math.nan),
     "n_base must be > 0, got nan"),
    ("runtime_model.n", lambda: runtime_model(0.0, 3, 1, 1, 1), "n must be > 0, got 0.0"),
    ("runtime_model.r", lambda: runtime_model(10.0, 2, 1, 1, 1),
     "r must be >= 3 (a Radon number), got 2"),
    ("runtime_model.h", lambda: runtime_model(10.0, 3, -1, 1, 1),
     "h must be >= 0 (a tree height), got -1"),
    ("runtime_model.kappa", lambda: runtime_model(10.0, 3, 1, 0, 1), "kappa must be >= 1, got 0"),
    ("runtime_model.c_workers", lambda: runtime_model(10.0, 3, 1, 1, 0),
     "c_workers must be >= 1, got 0"),
    ("sample_complexity_vc.eps", lambda: sample_complexity_vc(1.0, 0.5),
     "eps must lie in (0, 1), got 1.0"),
    ("sample_complexity_vc.delta", lambda: sample_complexity_vc(0.1, 0.0),
     "delta must lie in (0, 1], got 0.0"),
    ("sample_complexity_rademacher.delta", lambda: sample_complexity_rademacher(0.1, 1.5, 0.0),
     "delta must lie in (0, 1], got 1.5"),
    ("sample_complexity_rademacher.rho", lambda: sample_complexity_rademacher(0.1, 0.5, -0.1),
     "rho must be >= 0, got -0.1"),
    ("sequential_sample_size.delta_base", lambda: sequential_sample_size(PARAMS, 4, 0.3, 1),
     "delta_base must lie in (0, 1/r) = (0, 0.25), got 0.3"),
    ("sequential_sample_size.r", lambda: sequential_sample_size(PARAMS, 2, 0.1, 1),
     "r must be >= 3 (a Radon number), got 2"),
    ("sequential_sample_size.h", lambda: sequential_sample_size(PARAMS, 4, 0.1, -1),
     "h must be >= 0 (a tree height), got -1"),
    ("sequential_sample_size.r_past_float",
     lambda: sequential_sample_size(ComplexityParams(0, 1, 1, 1), HUGE_R, 1e-300, 1),
     HUGE_R_ERROR),
    ("choose_height.k", lambda: choose_height(100.0, 0), "k must be >= 1, got 0"),
    ("choose_height.m_samples", lambda: choose_height(2.0, 1),
     "m_samples must be finite and > 2, got 2.0"),
    ("choose_height.m_samples_inf", lambda: choose_height(math.inf, 1),
     "m_samples must be finite and > 2, got inf"),
    ("kfold.k", lambda: kfold(synth_classification(10, 2, 0.1, 0)[0], 1, 0),
     "k must be >= 2, got 1"),
    ("synth_classification.n", lambda: synth_classification(0, 2, 0.1, 0),
     "n must be >= 1, got 0"),
    ("synth_regression.d", lambda: synth_regression(10, 0, 0.1, 0), "d must be >= 1, got 0"),
    ("synth_classification.noise", lambda: synth_classification(10, 2, 0.6, 0),
     "noise must lie in [0, 0.5], got 0.6"),
    ("synth_regression.noise_sd", lambda: synth_regression(10, 2, math.nan, 0),
     "noise_sd must be finite and >= 0, got nan"),
    ("require_seed", lambda: require_seed(-1), "seed must be >= 0, got -1"),
    ("require_seed.field", lambda: require_seed(-2, "dataset.seed"),
     "dataset.seed must be >= 0, got -2"),
    ("ExperimentConfig.cv_folds", lambda: ExperimentConfig(cv_folds=1),
     "cv_folds must be >= 2, got 1"),
    ("ExperimentConfig.h", lambda: ExperimentConfig(h=-1), "h must be >= 0, got -1"),
    ("ExperimentConfig.n_min", lambda: ExperimentConfig(n_min=0), "n_min must be >= 1, got 0"),
    ("ExperimentConfig.workers", lambda: ExperimentConfig(workers=0),
     "workers must be >= 1, got 0"),
    ("ExperimentConfig.bounds.delta_base",
     lambda: ExperimentConfig(bounds={"alpha_eps": 1, "beta_eps": 1, "delta_base": 1}),
     "bounds.delta_base must lie in (0, 1), got 1"),
    ("mc_confidence.r", lambda: mc_confidence(2, 1, 0.1, 1000, 0),
     "r must be >= 3 (a Radon number), got 2"),
    ("mc_confidence.h", lambda: mc_confidence(3, -1, 0.1, 1000, 0),
     "h must be >= 0 (a tree height), got -1"),
    ("mc_confidence.delta_base", lambda: mc_confidence(3, 1, 1.0, 1000, 0),
     "delta_base must lie in [0, 1), got 1.0"),
    ("mc_confidence.workers", lambda: mc_confidence(3, 1, 0.1, 1000, 0, workers=0),
     "workers must be >= 1, got 0"),
    ("mc_confidence.trials", lambda: mc_confidence(3, 1, 0.1, 999, 0),
     "trials must be >= 1000, got 999"),
    ("LearnerSpec.reg_lambda", lambda: LearnerSpec(reg_lambda=-1.0),
     "learner.reg_lambda must be finite and >= 0, got -1.0"),
    ("LearnerSpec.epochs", lambda: LearnerSpec(epochs=0), "learner.epochs must be >= 1, got 0"),
    ("LearnerSpec.learning_rate0", lambda: LearnerSpec(learning_rate0=0.0),
     "learner.learning_rate0 must be finite and > 0, got 0.0"),
    ("radon_number.dimension", lambda: radon_number(0), "dimension must be >= 1, got 0"),
]


@pytest.mark.parametrize("call, expected", [case[1:] for case in RANGE_ERRORS],
                         ids=[case[0] for case in RANGE_ERRORS])
def test_range_error_message(call, expected):
    with pytest.raises(ConfigError) as caught:
        call()
    assert str(caught.value) == expected


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--h-min", "-1"], "h_min must be >= 0, got -1"),
        (["--h-max", "1025"], "h_max must be <= 1024, got 1025"),
        (["--r", str(2**64)],
         "r must be >= 3 and below 2**64 (a Radon number), got 18446744073709551616"),
        (["--r", "2"], "r must be >= 3 (a Radon number), got 2"),
    ],
    ids=["h_min", "h_max", "r", "r_below_3"],
)
def test_bounds_command_range_error_message(capsys, args, expected):
    assert main(["bounds", *args]) == 2
    assert capsys.readouterr().err == f"config error: {expected}\n"


def _hand_written_range_errors(path: Path) -> list[str]:
    """``file:line`` of each ConfigError call in ``path`` whose string
    literals, f-string parts included, state a range rule or, as in
    ``ConfigError("need r >= 3, h >= 0")``, start with "need "."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) != "ConfigError":
            continue
        text = "".join(
            part.value for part in ast.walk(node)
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
        if text.startswith("need ") or any(rule in text for rule in RANGE_RULES):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_lint_finds_hand_written_range_errors(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        'raise ConfigError("need r >= 3 and h >= 0")\n'
        'raise errors.ConfigError(f"need at least 2 folds, got {k}")\n'
        'raise ConfigError(f"h must be >= 0, got {h}")\n'
        'raise ConfigError(f"infeasible eps: need eps > 2 * rho, got {eps}")\n'
        'raise DataError("need at least 10 rows")\n',
        encoding="utf-8",
    )
    assert _hand_written_range_errors(source) == ["sample.py:1", "sample.py:2", "sample.py:3"]


def test_range_errors_go_through_require():
    sources = [path for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"]
    assert sources
    assert [site for path in sources for site in _hand_written_range_errors(path)] == []
