"""Command-line interface: subcommands, file outputs, exit codes."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from radon_machine import (
    LearnerSpec, averaging_at_end, cli, experiments, synth_classification, train
)
from radon_machine.cli import main


def _write_tiny_csv(tmp_path, name="tiny.csv", rows=40, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["a,b,y"]
    for _ in range(rows):
        x1, x2 = rng.uniform(-1, 1, 2)
        label = 1 if x1 + x2 >= 0 else -1
        lines.append(f"{x1},{x2},{label}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBoundsCommand:
    def test_table_output(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = main(
            [
                "bounds",
                "--r",
                "4",
                "--delta-base",
                "0.125",
                "--h-min",
                "1",
                "--h-max",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        deltas = [row["delta"] for row in payload["rows"]]
        assert deltas == pytest.approx([0.25, 0.0625, 0.00390625])
        csv_text = (tmp_path / "table.csv").read_text()
        assert csv_text.startswith("h,delta,")
        assert '"' not in csv_text

    def test_bad_range_is_config_error(self, capsys):
        assert main(["bounds", "--h-min", "3", "--h-max", "1"]) == 2
        assert "config error" in capsys.readouterr().err


class TestMcBoundCommand:
    def test_runs_and_writes(self, tmp_path):
        out = tmp_path / "mc.json"
        code = main(
            [
                "mc-bound",
                "--r",
                "4",
                "--h",
                "1",
                "--delta-base",
                "0.125",
                "--trials",
                "1000",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2
        csv_lines = (tmp_path / "mc.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "level,empirical_bad_fraction,theoretical_bound,samples"
        assert len(csv_lines) == 3

    def test_warns_above_precondition(self, capsys):
        code = main(
            ["mc-bound", "--r", "4", "--h", "1", "--delta-base", "0.2", "--trials", "1000"]
        )
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_too_few_trials_is_config_error(self, capsys):
        assert main(["mc-bound", "--trials", "10"]) == 2

    def test_workers_below_one_is_config_error(self, capsys):
        assert main(["mc-bound", "--trials", "1000", "--workers", "-5"]) == 2
        assert main(["mc-bound", "--trials", "1000", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_config_file_with_overrides(self, tmp_path):
        config = {
            "dataset": {"source": "synthetic-classification", "n": 2000, "d": 2, "noise": 0.1},
            "learner": {"loss": "squared", "reg_lambda": 0.1, "fit_bias": True},
            "algorithms": ["base", "radon"],
            "cv_folds": 2,
            "h": "max",
            "n_min": 50,
            "seed": 3,
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "rep.json"
        code = main(["benchmark", "--config", str(cfg_path), "--out", str(out), "--seed", "4"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 4  # flag wins over file
        assert len(report["algorithms"]["base"]["per_fold"]) == 2
        assert (tmp_path / "rep.csv").exists()

    def test_missing_config_is_config_error(self, capsys):
        assert main(["benchmark", "--config", "/nonexistent/cfg.json"]) == 2

    def test_unknown_algorithm_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"algorithms": ["turbo"]}))
        assert main(["benchmark", "--config", str(cfg_path)]) == 2


class TestTrainPredictRoundTrip:
    def test_base_round_trip(self, tmp_path, capsys):
        data_path = _write_tiny_csv(tmp_path)
        model_path = tmp_path / "model.json"
        preds_path = tmp_path / "preds.csv"
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(data_path),
                    "--algorithm",
                    "base",
                    "--loss",
                    "squared",
                    "--seed",
                    "2",
                    "--out",
                    str(model_path),
                ]
            )
            == 0
        )
        model = json.loads(model_path.read_text())
        assert model["algorithm"] == "base"
        assert len(model["weights"]) == 3  # two features plus bias
        assert (
            main(
                [
                    "predict",
                    "--model",
                    str(model_path),
                    "--data",
                    str(data_path),
                    "--out",
                    str(preds_path),
                ]
            )
            == 0
        )
        lines = preds_path.read_text().strip().splitlines()
        assert lines[0] == "index,score,label"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[2] in ("-1", "1")

    def test_radon_train_on_synthetic(self, tmp_path):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train",
                "--synth",
                "classification",
                "--n",
                "2000",
                "--d",
                "1",
                "--noise",
                "0.1",
                "--algorithm",
                "radon",
                "--loss",
                "squared",
                "--n-min",
                "100",
                "--seed",
                "8",
                "--out",
                str(model_path),
            ]
        )
        assert code == 0
        model = json.loads(model_path.read_text())
        assert model["algorithm"] == "radon"
        assert model["r"] == 4 and model["h"] >= 1

    def test_avg_writes_averaging_at_end_weights(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        args = ["train", "--synth", "classification", "--n", "1500", "--d", "2",
                "--epochs", "2", "--algorithm", "avg", "--n-min", "100", "--seed", "6"]
        assert main([*args, "--workers", "2", "--out", str(model_path)]) == 0
        model = json.loads(model_path.read_text())
        assert model["algorithm"] == "avg" and model["r"] == 5 and model["h"] == 1
        data, _ = synth_classification(1500, 2, 0.1, 6)
        expected = averaging_at_end(LearnerSpec(epochs=2), data, 5, 6)
        assert np.array_equal(np.array(model["weights"]), expected.weights)

    def test_base_accepts_any_height(self, tmp_path, capsys):
        # 2000 rows allow h <= 1 for a tree, but base builds none
        args = ["train", "--synth", "classification", "--n", "2000", "--d", "2",
                "--algorithm", "base", "--seed", "3"]
        expected = train(LearnerSpec(), synth_classification(2000, 2, 0.1, 3)[0], 3)
        for h in ("3", "max"):
            model_path = tmp_path / f"model-{h}.json"
            assert main([*args, "--h", h, "--out", str(model_path)]) == 0
            model = json.loads(model_path.read_text())
            assert model["h"] == (3 if h == "3" else 1)
            assert np.array_equal(np.array(model["weights"]), expected.weights)
        assert main([*args, "--h", "-1", "--out", str(tmp_path / "m.json")]) == 2

    def test_workers_below_one_is_config_error(self, tmp_path, capsys):
        data_path = _write_tiny_csv(tmp_path)
        for algorithm in ("base", "radon", "avg"):
            args = ["train", "--data", str(data_path), "--algorithm", algorithm,
                    "--h", "0", "--n-min", "10", "--workers", "0"]
            assert main([*args, "--out", str(tmp_path / "m.json")]) == 2
        assert not (tmp_path / "m.json").exists()

    def test_huge_svmlight_index_is_data_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"weights": [0.0, 0.0], "fit_bias": False}))
        data_path = tmp_path / "huge.svm"
        data_path.write_text("1 1:0.5\n-1 1099511627776:1\n")
        args = ["predict", "--model", str(model_path), "--data", str(data_path)]
        assert main([*args, "--format", "svmlight"]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_missing_data_is_config_error(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "none.csv")]) == 2

    def test_malformed_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,y\n1,oops\n")
        assert main(["train", "--data", str(bad), "--loss", "squared"]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("fit_bias", "false"), ("fit_bias", 1), ("task", "regresion"), ("task", None)],
    )
    def test_loose_model_field_is_config_error(self, tmp_path, capsys, field, value):
        data_path = _write_tiny_csv(tmp_path)
        model_path = tmp_path / "model.json"
        model = {"weights": [1.0, 1.0, 5.0], "fit_bias": True, "task": "binary", field: value}
        model_path.write_text(json.dumps(model))
        assert main(["predict", "--model", str(model_path), "--data", str(data_path)]) == 2
        out, err = capsys.readouterr()
        assert f"config error: model file {model_path}: {field} must be" in err
        assert out == ""

    def test_malformed_model_is_config_error(self, tmp_path, capsys):
        data_path = _write_tiny_csv(tmp_path)
        bad_model = tmp_path / "model.json"
        bad_model.write_text("{}")
        assert main(["predict", "--model", str(bad_model), "--data", str(data_path)]) == 2


class TestConfigAndHeightFlags:
    @pytest.mark.parametrize("command", ["benchmark", "mc-bound", "bounds"])
    @pytest.mark.parametrize("payload", ["[1]", "3", '"h"', "null"])
    def test_config_that_is_not_an_object_is_config_error(
        self, tmp_path, capsys, command, payload
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(payload)
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_non_integer_height_is_config_error(self, tmp_path, capsys, value):
        assert main(["benchmark", "--h", value, "--cv-folds", "2"]) == 2
        assert "--h must be an integer or 'max'" in capsys.readouterr().err
        train_args = ["train", "--synth", "classification", "--n", "500", "--d", "2"]
        assert main([*train_args, "--h", value, "--out", str(tmp_path / "m.json")]) == 2
        assert "--h must be an integer or 'max'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "command, payload, section",
        [
            ("mc-bound", {"mc": [1]}, "mc"),
            ("bounds", {"bounds": 3}, "bounds"),
            ("benchmark", {"learner": [1]}, "learner"),
            ("benchmark", {"dataset": [1]}, "dataset"),
        ],
    )
    def test_section_that_is_not_an_object_is_config_error(
        self, tmp_path, capsys, command, payload, section
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"config section '{section}' must be a JSON object" in capsys.readouterr().err


class TestWrongTypedConfigValues:
    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("mc-bound", {"mc": {"r": "x"}}, "mc.r"),
            ("benchmark", {"cv_folds": "3"}, "cv_folds"),
            ("benchmark", {"learner": {"loss": "squared", "epochs": "x"}}, "learner.epochs"),
            ("benchmark", {"dataset": {"n": "abc"}}, "dataset.n"),
        ],
    )
    def test_wrong_type_is_config_error_naming_the_field(
        self, tmp_path, capsys, command, payload, field
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"config error: {field} must be" in capsys.readouterr().err

    def test_integer_is_valid_for_a_float_field(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        config = {
            "dataset": {"source": "synthetic-regression", "n": 1000, "d": 2, "noise_sd": 1},
            "learner": {"loss": "squared", "reg_lambda": 1},
            "algorithms": ["base", "avg"],
            "cv_folds": 2,
        }
        cfg_path.write_text(json.dumps(config))
        assert main(["benchmark", "--config", str(cfg_path)]) == 0
        cfg_path.write_text(json.dumps({"mc": {"delta_base": 0, "trials": 1000}}))
        assert main(["mc-bound", "--config", str(cfg_path)]) == 0

    def test_non_numeric_model_weights_are_config_error(self, tmp_path, capsys):
        data_path = _write_tiny_csv(tmp_path)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"weights": "abc", "fit_bias": True}))
        assert main(["predict", "--model", str(model_path), "--data", str(data_path)]) == 2
        assert "is malformed" in capsys.readouterr().err


class TestBoundsCsvHeader:
    def test_full_header(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["bounds", "--h-max", "1", "--out", str(out)]) == 0
        header = (tmp_path / "table.csv").read_text().splitlines()[0]
        assert header == (
            "h,delta,log2_delta,n_base,n_radon,m_sequential,m_sequential_approx,h_star,"
            "runtime_radon_model,runtime_sequential_model,speedup_estimate,"
            "inefficiency_estimate,data_inefficiency,guarantee_valid"
        )


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--synth", "classification", "--n", "500", "--d", "2", "--config", "c.json"],
            ["predict", "--model", "m.json", "--data", "d.csv", "--config", "c.json"],
            ["predict", "--model", "m.json", "--data", "d.csv", "--seed", "3"],
            ["predict", "--model", "m.json", "--data", "d.csv", "--workers", "9"],
            ["bounds", "--seed", "5"],
            ["mc-bound", "--eps", "1"],
        ],
        ids=[
            "train-config",
            "predict-config",
            "predict-seed",
            "predict-workers",
            "bounds-seed",
            "mc-bound-eps",
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def _run_benchmark_config(tmp_path, monkeypatch, payload) -> int:
    """main(["benchmark", ...]) on ``payload``; fails if any fold would run."""

    def no_run(config):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(cli, "run_benchmark", no_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    return main(["benchmark", "--config", str(cfg_path)])


class TestBoundsSectionChecked:
    @pytest.mark.parametrize(
        "bounds, field",
        [
            ({"alpha_eps": "x", "beta_eps": 1}, "bounds.alpha_eps"),
            ({"beta_eps": 1}, "bounds.alpha_eps"),
            ({"alpha_eps": 1}, "bounds.beta_eps"),
            ({"alpha_eps": 1, "beta_eps": True}, "bounds.beta_eps"),
            ({"alpha_eps": 1, "beta_eps": 1, "k": 1.5}, "bounds.k"),
            ({"alpha_eps": 1, "beta_eps": 1, "kappa": "2"}, "bounds.kappa"),
            ({"alpha_eps": 1, "beta_eps": 1, "delta_base": "x"}, "bounds.delta_base"),
        ],
    )
    def test_bad_field_is_config_error_before_training(
        self, tmp_path, monkeypatch, capsys, bounds, field
    ):
        assert _run_benchmark_config(tmp_path, monkeypatch, {"bounds": bounds}) == 2
        assert f"config error: {field} must be" in capsys.readouterr().err


class TestBooleanConfigFields:
    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"learner": {"fit_bias": "false"}}, "learner.fit_bias"),
            ({"learner": {"fit_bias": 0}}, "learner.fit_bias"),
        ],
    )
    def test_non_boolean_is_config_error(self, tmp_path, monkeypatch, capsys, payload, field):
        assert _run_benchmark_config(tmp_path, monkeypatch, payload) == 2
        assert f"config error: {field} must be true or false" in capsys.readouterr().err


class TestBoundsRangeCheckedBeforeTraining:
    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({"alpha_eps": -1, "beta_eps": 1}, "alpha_eps must be finite and >= 0"),
            (
                {"alpha_eps": 1, "beta_eps": 1, "delta_base": 3},
                "bounds.delta_base must lie in (0, 1), got 3",
            ),
        ],
    )
    def test_out_of_range_is_config_error_before_training(
        self, tmp_path, monkeypatch, capsys, bounds, message
    ):
        assert _run_benchmark_config(tmp_path, monkeypatch, {"bounds": bounds}) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"dataset": {"n": 2000, "d": 8}, "cv_folds": 2, "n_min": 10,
              "bounds": {"alpha_eps": 1, "beta_eps": 1, "delta_base": 0.5}},
             "bounds.delta_base must lie in (0, 1/r) = (0, 0.09090909090909091), got 0.5"),
            ({"dataset": {"n": 600, "d": 2}, "learner": {"loss": "squared"}, "cv_folds": 2,
              "n_min": 20, "bounds": {"alpha_eps": 1e-200, "beta_eps": 0, "k": 2}},
             "bounds.alpha_eps, beta_eps and k give a base sample size of 0 at delta_base=0.1"),
        ],
        ids=["delta-base-above-1-over-r", "sample-size-underflow"],
    )
    def test_report_error_comes_before_any_fold_trains(
        self, tmp_path, monkeypatch, capsys, payload, message
    ):
        monkeypatch.setattr(experiments, "_fit_all", lambda *args: pytest.fail("a fold trained"))
        assert main(_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err


class TestNegativeSeed:
    def test_train_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        args = ["train", "--n", "500", "--d", "2", "--seed", "-1", "--out", str(out)]
        assert main(args) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_train_seed_on_a_data_file_is_config_error(self, tmp_path, capsys):
        args = ["train", "--data", str(_write_tiny_csv(tmp_path)), "--algorithm", "base",
                "--seed", "-1", "--out", str(tmp_path / "m.json")]
        assert main(args) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_mc_bound_seed_is_config_error(self, capsys):
        assert main(["mc-bound", "--trials", "1000", "--seed", "-1"]) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_benchmark_config_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        assert _run_benchmark_config(tmp_path, monkeypatch, {"seed": -1}) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err


class TestAlgorithmsConfig:
    def test_string_is_config_error(self, tmp_path, monkeypatch, capsys):
        assert _run_benchmark_config(tmp_path, monkeypatch, {"algorithms": "radon"}) == 2
        assert "config error: algorithms must be a JSON list of names, got 'radon'" in (
            capsys.readouterr().err
        )

    def test_repeated_name_is_config_error(self, tmp_path, monkeypatch, capsys):
        payload = {"algorithms": ["radon", "radon", "base"]}
        assert _run_benchmark_config(tmp_path, monkeypatch, payload) == 2
        assert "config error: algorithms must be distinct" in capsys.readouterr().err

    def test_repeated_name_in_the_flag_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_benchmark", lambda config: pytest.fail("the benchmark ran"))
        assert main(["benchmark", "--algorithms", "avg,base,avg"]) == 2
        assert "config error: algorithms must be distinct" in capsys.readouterr().err


class TestBoundsRangeError:
    def test_out_of_range_value_names_its_section(self, tmp_path, monkeypatch, capsys):
        payload = {"bounds": {"alpha_eps": -1, "beta_eps": 1}}
        assert _run_benchmark_config(tmp_path, monkeypatch, payload) == 2
        assert "config error: bounds.alpha_eps must be finite and >= 0" in capsys.readouterr().err


class TestSyntheticCellCap:
    def test_huge_synthetic_train_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train", "--n", str(10**12), "--d", "8", "--out", str(out)]) == 2
        assert "exceed the cap of 100000000 dense cells" in capsys.readouterr().err
        assert not out.exists()


class TestBoundsFlagRangeError:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alpha-eps", "-1", "bounds.alpha_eps must be finite and >= 0, got -1.0"),
            ("--beta-eps", "-1", "bounds.beta_eps must be finite and >= 0, got -1.0"),
            ("--k", "0", "bounds.k must be >= 1, got 0"),
            ("--kappa", "0", "bounds.kappa must be >= 1, got 0"),
        ],
        ids=["alpha_eps", "beta_eps", "k", "kappa"],
    )
    def test_out_of_range_flag_names_the_field(self, capsys, flag, value, message):
        assert main(["bounds", flag, value]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


class TestBoundsPastFloatRange:
    """Tall trees, huge exponents and huge worker counts print inf, not a traceback."""

    def _table(self, tmp_path, capsys, *flags):
        """The JSON rows, where a non-finite value is null, and the CSV
        twin's rows as cells, where it reads inf or nan."""
        out = tmp_path / "t.json"
        assert main(["bounds", *flags, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        header, *lines = out.with_suffix(".csv").read_text().splitlines()
        cells = [dict(zip(header.split(","), line.split(","))) for line in lines]
        return json.loads(out.read_text())["rows"], cells

    def test_tall_tree(self, tmp_path, capsys):
        rows, cells = self._table(tmp_path, capsys, "--h-min", "590", "--h-max", "600")
        assert rows[-1]["runtime_radon_model"] is rows[-1]["n_radon"] is None
        assert cells[-1]["runtime_radon_model"] == cells[-1]["n_radon"] == "inf"
        assert rows[0]["m_sequential"] < float("inf")

    def test_table_at_the_height_cap(self, tmp_path, capsys):
        (row,), (cell,) = self._table(tmp_path, capsys, "--h-min", "1024", "--h-max", "1024")
        assert row["h_star"] is None and row["m_sequential"] is None
        assert cell["h_star"] == "" and cell["m_sequential"] == "inf"

    def test_huge_exponents(self, tmp_path, capsys):
        rows, cells = self._table(tmp_path, capsys, "--k", "100000", "--kappa", "100000")
        assert all(row["speedup_estimate"] is None for row in rows[1:])
        assert all(cell["speedup_estimate"] == "inf" for cell in cells[1:])

    def test_huge_worker_count(self, tmp_path, capsys):
        rows, _ = self._table(tmp_path, capsys, "--workers", str(10**400))
        assert [row["runtime_radon_model"] for row in rows] == [3.0 + 64 * h for h in range(5)]

    def test_benchmark_bounds_section_with_huge_exponents(self, tmp_path, capsys):
        config = {"dataset": {"n": 2000, "d": 2}, "learner": {"loss": "squared"},
                  "algorithms": ["radon"], "cv_folds": 2, "n_min": 50,
                  "bounds": {"alpha_eps": 0, "beta_eps": 1, "k": 100000, "kappa": 100000}}
        report = experiments.run_benchmark(experiments.ExperimentConfig.from_dict(config))
        assert report["bounds"]["speedup_estimate"] == math.inf
        config["out"] = str(tmp_path / "b.json")
        assert main(_config(tmp_path, config)) == 0
        report = json.loads((tmp_path / "b.json").read_text())
        assert report["bounds"]["speedup_estimate"] is None  # inf, as null


    def test_speedup_of_two_infinite_terms_prints_no_nan(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        flags = ["--alpha-eps", "1e-200", "--beta-eps", "0", "--kappa", "2", "--h-min", "600",
                 "--h-max", "600", "--out", str(out)]
        assert main(["bounds", *flags]) == 0
        assert "nan" not in capsys.readouterr().out
        (row,) = json.loads(out.read_text())["rows"]
        assert 0.0 < row["speedup_estimate"] < 2.0**-143


class TestStrictJsonReports:
    """--out JSON is strict: a non-finite value is written as null, and its
    CSV twin keeps Python's inf or nan; finite payloads keep their bytes."""

    @staticmethod
    def _reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    def test_bounds_table_past_float_range(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        flags = ["--alpha-eps", "1e-200", "--beta-eps", "0", "--kappa", "2", "--h-min", "600",
                 "--h-max", "600", "--out", str(out)]
        assert main(["bounds", *flags]) == 0
        (row,) = json.loads(out.read_text(), parse_constant=self._reject)["rows"]
        header, line = out.with_suffix(".csv").read_text().splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert {key for key, value in row.items() if value is None} == {
            key for key, cell in cells.items() if cell in ("", "inf", "nan")
        }
        assert cells["runtime_radon_model"] == "inf" and cells["data_inefficiency"] == "nan"
        # r^h = 4^600 alone passes float range, the product with n_base does not
        expected = float(Fraction(4**600) * Fraction(1e-200))
        assert math.isclose(row["n_radon"], expected, rel_tol=1e-12)
        assert f"{expected:<13.6g}" in capsys.readouterr().out

    def test_finite_payload_keeps_its_bytes(self, tmp_path):
        payload = {"b": [1.5, 2, None, True, "x"], "a": {"y": (0.1, -0.0), "x": 5e-324}}
        experiments.write_json(payload, tmp_path / "p.json")
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "p.json").read_text() == expected


class TestBenchmarkFlagsOverFileFields:
    """benchmark puts each given flag over its config-file field and validates once."""

    CONFIG = {"dataset": {"n": 600, "d": 2}, "learner": {"loss": "squared"}, "cv_folds": 2,
              "n_min": 20}

    def test_seed_flag_replaces_an_invalid_file_seed(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = [*_config(tmp_path, {**self.CONFIG, "seed": -1}), "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 3

    def test_each_flag_reaches_the_config_echo(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        flags = ["--seed", "5", "--workers", "2", "--out", str(out), "--cv-folds", "3",
                 "--algorithms", "base,radon", "--h", "1"]
        assert main([*_config(tmp_path, self.CONFIG), *flags]) == 0
        echo = json.loads(out.read_text())["config"]
        expected = {"seed": 5, "workers": 2, "out": str(out), "cv_folds": 3,
                    "algorithms": ["base", "radon"], "h": 1}
        assert {key: echo[key] for key in expected} == expected

    @pytest.mark.parametrize(
        "flags, fields",
        [
            (["--cv-folds", "1"], {"cv_folds": 1}),
            (["--workers", "0"], {"workers": 0}),
            (["--seed", "-1"], {"seed": -1}),
            (["--h", "-1"], {"h": -1}),
            (["--algorithms", "base,turbo"], {"algorithms": ["base", "turbo"]}),
            (["--algorithms", "radon,radon"], {"algorithms": ["radon", "radon"]}),
        ],
    )
    def test_a_flag_fails_as_its_file_field_does(self, tmp_path, capsys, flags, fields):
        assert main([*_config(tmp_path, self.CONFIG), *flags]) == 2
        from_flag = capsys.readouterr().err
        assert main(_config(tmp_path, {**self.CONFIG, **fields})) == 2
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith("config error: ") and next(iter(fields)) in from_flag

    def test_missing_config_file_is_reported_before_a_bad_height(self, tmp_path, capsys):
        assert main(["benchmark", "--config", str(tmp_path / "none.json"), "--h", "x"]) == 2
        assert "config file not found" in capsys.readouterr().err


class TestMcShardCap:
    """mc-bound caps the coordinates a shard draws, before it draws any."""

    @pytest.mark.parametrize("r, h, trials", [(10**6, 0, 1000), (1000, 1, 10000), (60, 2, 10000)])
    def test_a_wide_shard_is_a_config_error_that_draws_nothing(
        self, monkeypatch, capsys, r, h, trials
    ):
        def no_draw(*args):
            raise AssertionError("a shard was drawn")

        monkeypatch.setattr(experiments, "_mc_shard", no_draw)
        assert main(["mc-bound", "--r", str(r), "--h", str(h), "--trials", str(trials)]) == 2
        err = capsys.readouterr().err
        assert f"exceed the cap of 100000000 at trials={trials}, r={r}, h={h}\n" in err


class TestUnknownSectionKeys:
    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("mc-bound", {"mc": {"trails": 99999}}, "mc.trails"),
            ("mc-bound", {"mc": {"trials": 1000, "eps": 1}}, "mc.eps"),
            ("bounds", {"bounds": {"alpha_eps": 1, "beta_eps": 1, "delta": 0.01}}, "bounds.delta"),
            ("bounds", {"bounds": {"hmax": 9}}, "bounds.hmax"),
        ],
        ids=["mc-trails", "mc-eps", "bounds-delta", "bounds-hmax"],
    )
    def test_subcommand_section_key_is_config_error(
        self, tmp_path, capsys, command, payload, field
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([command, "--config", str(cfg_path)]) == 2
        out, err = capsys.readouterr()
        assert f"config error: unknown config fields: ['{field}']" in err
        assert out == ""

    @pytest.mark.parametrize("key", ["delta", "hmax", "h_max"])
    def test_benchmark_bounds_key_is_config_error(self, tmp_path, monkeypatch, capsys, key):
        payload = {"bounds": {"alpha_eps": 1, "beta_eps": 1, key: 0.01}}
        assert _run_benchmark_config(tmp_path, monkeypatch, payload) == 2
        assert f"config error: unknown config fields: ['bounds.{key}']" in capsys.readouterr().err


class TestNonFiniteLearnerField:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_benchmark_config_reg_lambda_is_config_error(
        self, tmp_path, monkeypatch, capsys, loss, value
    ):
        payload = {"learner": {"loss": loss, "reg_lambda": value}}  # JSON NaN / Infinity
        assert _run_benchmark_config(tmp_path, monkeypatch, payload) == 2
        assert "config error: learner.reg_lambda must be finite and >= 0" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--reg-lambda", "nan", "learner.reg_lambda must be finite and >= 0, got nan"),
            ("--reg-lambda", "inf", "learner.reg_lambda must be finite and >= 0, got inf"),
            ("--learning-rate0", "inf", "learner.learning_rate0 must be finite and > 0, got inf"),
        ],
        ids=["reg-lambda-nan", "reg-lambda-inf", "learning-rate0-inf"],
    )
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_train_flag_is_config_error(self, tmp_path, capsys, loss, flag, value, field):
        out = tmp_path / "m.json"
        args = ["train", "--n", "500", "--d", "2", "--loss", loss, flag, value, "--out", str(out)]
        assert main(args) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()


class TestDatasetAndLearnerKeys:
    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"dataset": {"source": "synthetic-classification", "n": 2000, "nosie": 0.5}},
             "dataset.nosie"),
            ({"dataset": {"source": "synthetic-regression", "noise": 0.5}}, "dataset.noise"),
            ({"dataset": {"source": "file", "path": "data.csv", "d": 3}}, "dataset.d"),
            ({"learner": {"loss": "squared", "x": 1}}, "learner.x"),
            ({"task": "binary"}, "task"),
            ({"shuffle_levels": True}, "shuffle_levels"),
        ],
        ids=["nosie", "regression-noise", "file-d", "learner-x", "task", "shuffle-levels"],
    )
    def test_unknown_key_is_config_error(self, tmp_path, monkeypatch, capsys, payload, field):
        assert _run_benchmark_config(tmp_path, monkeypatch, payload) == 2
        out, err = capsys.readouterr()
        assert f"config error: unknown config fields: ['{field}']" in err
        assert out == ""

    def test_train_on_synthetic_regression(self, tmp_path):
        out = tmp_path / "m.json"
        args = ["train", "--synth", "regression", "--n", "500", "--d", "2", "--loss", "squared",
                "--algorithm", "base", "--noise-sd", "0.3", "--out", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text())["task"] == "regression"


def _write_overflowing_csv(tmp_path, rows=400):
    """A finite CSV whose one cell of 1e308 overflows X^T X."""
    path = _write_tiny_csv(tmp_path, rows=rows)
    lines = path.read_text().splitlines()
    lines[1] = "1e308," + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSquaredOverflowIsDataError:
    @staticmethod
    def _benchmark(tmp_path, algorithm, reg_lambda):
        config = {
            "dataset": {"source": "file", "path": str(_write_overflowing_csv(tmp_path))},
            "learner": {"loss": "squared", "reg_lambda": reg_lambda},
            "algorithms": [algorithm],
            "cv_folds": 2,
            "n_min": 10,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        return main(["benchmark", "--config", str(cfg_path)])

    @pytest.mark.parametrize("algorithm", ["base", "radon"])
    def test_benchmark(self, tmp_path, capsys, algorithm):
        assert self._benchmark(tmp_path, algorithm, 1) == 3
        err = capsys.readouterr().err
        assert "data error: the data's values overflow the squared-loss normal equations" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("algorithm", ["base", "radon", "avg"])
    def test_benchmark_without_regulariser(self, tmp_path, capsys, algorithm):
        # reg_lambda 0 solves by lstsq, which runs the same overflow check
        assert self._benchmark(tmp_path, algorithm, 0) == 3
        err = capsys.readouterr().err
        assert "data error: the data's values overflow the squared-loss normal equations" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("algorithm", ["base", "radon", "avg"])
    def test_train(self, tmp_path, capsys, algorithm):
        out = tmp_path / "m.json"
        args = ["train", "--data", str(_write_overflowing_csv(tmp_path)), "--loss", "squared",
                "--reg-lambda", "1", "--algorithm", algorithm, "--n-min", "10", "--out", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "data error: the data's values overflow the squared-loss normal equations" in err
        assert not out.exists()


def _overflow_benchmark(tmp_path, loss, algorithm):
    config = {
        "dataset": {"source": "file", "path": str(_write_overflowing_csv(tmp_path))},
        "learner": {"loss": loss},
        "algorithms": [algorithm],
        "cv_folds": 2,
        "n_min": 10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return main(["benchmark", "--config", str(cfg_path)])


class TestSgdOverflowIsDataError:
    # pytest turns a RuntimeWarning into an error, so an overflow the
    # program lets through fails these tests instead of exiting 0
    SGD_OVERFLOW = "data error: the data's values overflow SGD's scores"

    @pytest.mark.parametrize("algorithm", ["base", "radon", "avg"])
    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_benchmark(self, tmp_path, capsys, loss, algorithm):
        # the first fold scores the row of 1e308, the second trains on it
        assert _overflow_benchmark(tmp_path, loss, algorithm) == 3
        err = capsys.readouterr().err
        assert "data error: the data's values overflow the scores" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("algorithm", ["base", "radon", "avg"])
    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_train(self, tmp_path, capsys, loss, algorithm):
        out = tmp_path / "m.json"
        args = ["train", "--data", str(_write_overflowing_csv(tmp_path)), "--loss", loss,
                "--algorithm", algorithm, "--n-min", "10", "--out", str(out)]
        assert main(args) == 3
        assert self.SGD_OVERFLOW in capsys.readouterr().err
        assert not out.exists()

    def test_predict(self, tmp_path, capsys):
        model = _write(tmp_path, "m.json", '{"weights": [2.0, 1.0, 0.0], "fit_bias": true}')
        data = _write_overflowing_csv(tmp_path)
        assert main(["predict", "--model", model, "--data", str(data)]) == 3
        err = capsys.readouterr().err
        assert "data error: the data's values overflow the scores" in err


class TestSgdStepCap:
    def test_train_rejects_a_fit_above_the_cap(self, tmp_path, capsys):
        args = ["train", "--n", "2000", "--d", "2", "--epochs", "1000000000000",
                "--out", str(tmp_path / "m.json")]
        assert main(args) == 2
        assert "config error: learner.epochs=1000000000000" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _write_bytes(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


def _model(tmp_path):
    return _write(tmp_path, "m.json", '{"weights": [0.5, -0.5, 0.0], "fit_bias": true}')


def _config(tmp_path, payload):
    return ["benchmark", "--config", _write(tmp_path, "cfg.json", json.dumps(payload))]


# (id, argv built under tmp_path, exit code, what stderr must name)
EXIT_CASES = [
    ("config-not-json", lambda t: ["benchmark", "--config", _write(t, "bad.json", "{bad")], 2,
     "bad.json is not valid JSON"),
    ("cv-folds-1", lambda t: _config(t, {"cv_folds": 1}), 2, "cv_folds must be >= 2, got 1"),
    ("h-negative", lambda t: _config(t, {"h": -1}), 2, "h must be >= 0, got -1"),
    ("workers-0", lambda t: _config(t, {"workers": 0}), 2, "workers must be >= 1, got 0"),
    ("n-min-0", lambda t: _config(t, {"n_min": 0}), 2, "n_min must be >= 1, got 0"),
    ("dataset-n-0", lambda t: _config(t, {"dataset": {"n": 0}}), 2,
     "dataset.n must be >= 1, got 0"),
    ("dataset-d-0", lambda t: _config(t, {"dataset": {"d": 0}}), 2,
     "dataset.d must be >= 1, got 0"),
    ("dataset-noise", lambda t: _config(t, {"dataset": {"noise": 0.7}}), 2,
     "dataset.noise must lie in [0, 0.5], got 0.7"),
    ("dataset-noise-sd", lambda t: _config(
        t, {"dataset": {"source": "synthetic-regression", "noise_sd": float("nan")}}), 2,
     "dataset.noise_sd must be finite and >= 0, got nan"),
    ("dataset-format", lambda t: _config(
        t, {"dataset": {"source": "file", "path": "d.xml", "format": "xml"}}), 2,
     "dataset.format must be one of ('csv', 'svmlight'), got 'xml'"),
    ("dataset-path", lambda t: _config(t, {"dataset": {"source": "file", "path": 5}}), 2,
     "dataset.path not resolvable: 5"),
    ("cv-folds-above-rows", lambda t: _config(t, {"dataset": {"n": 5}, "cv_folds": 6}), 3,
     "cannot split 5 rows into cv_folds=6 folds"),
    ("out-not-a-path", lambda t: _config(t, {"out": 1}), 2, "out must be a path string"),
    ("learner-loss", lambda t: _config(t, {"learner": {"loss": "l1"}}), 2,
     "learner.loss must be one of ('logistic', 'hinge', 'squared'), got 'l1'"),
    ("algorithm-unknown", lambda t: _config(t, {"algorithms": ["base", "turbo"]}), 2,
     "unknown algorithm 'turbo' in algorithms"),
    ("config-int-past-digit-limit", lambda t: ["benchmark", "--config", _write(
        t, "big.json", '{"seed": ' + "1" * 5000 + "}")], 2, "big.json is not valid JSON"),
    ("out-in-missing-dir", lambda t: ["mc-bound", "--trials", "1000", "--h", "1", "--out",
                                      str(t / "none" / "mc.json")], 2, "none/mc.json"),
    ("mc-huge-h", lambda t: ["mc-bound", "--h", str(10**12)], 2,
     f"cap of 100000000 at trials=10000, r=4, h={10**12}"),
    ("mc-delta-base-past-float", lambda t: ["mc-bound", "--config", _write(
        t, "mc.json", '{"mc": {"delta_base": 1' + "0" * 400 + "}}")], 2, "delta_base"),
    ("bounds-h-max-cap", lambda t: ["bounds", "--h-max", "1025"], 2,
     "h_max must be <= 1024, got 1025"),
    ("bounds-h-min-above-h-max", lambda t: ["bounds", "--h-min", "5"], 2,
     "h_min 5 exceeds h_max 4"),
    ("bounds-r-0", lambda t: ["bounds", "--r", "0"], 2, "r must be >= 3"),
    ("bounds-r-past-2-64", lambda t: ["bounds", "--r", str(2**64)], 2,
     "r must be >= 3 and below 2**64"),
    ("bounds-zero-sample-size", lambda t: ["bounds", "--beta-eps", "0"], 2,
     "bounds.beta_eps and alpha_eps are both 0"),
    ("bounds-sample-size-underflow", lambda t: ["bounds", "--alpha-eps", "1e-200", "--beta-eps",
                                                "0", "--k", "2"], 2,
     "alpha_eps, beta_eps and k give a base sample size of 0 at delta_base=0.125"),
    ("benchmark-bounds-sample-size-underflow", lambda t: _config(t, {
        "dataset": {"n": 600, "d": 2}, "learner": {"loss": "squared"}, "cv_folds": 2,
        "n_min": 20, "bounds": {"alpha_eps": 1e-200, "beta_eps": 0, "k": 2}}), 2,
     "alpha_eps, beta_eps and k give a base sample size of 0"),
    ("predict-too-few-weights", lambda t: ["predict", "--model", _model(t), "--data",
                                           _write(t, "three.csv", "a,b,c,y\n1,2,3,1\n")],
     2, "m.json holds 3 weights, but"),
    ("mc-r-2", lambda t: ["mc-bound", "--r", "2"], 2, "r must be >= 3 (a Radon number), got 2"),
    ("mc-h-negative", lambda t: ["mc-bound", "--h", "-1"], 2, "h must be >= 0 (a tree height)"),
    ("mc-config-r-2", lambda t: ["mc-bound", "--config", _write(t, "mc.json", '{"mc": {"r": 2}}')],
     2, "r must be >= 3"),
    ("bounds-r-2", lambda t: ["bounds", "--r", "2"], 2, "r must be >= 3"),
    ("bounds-h-min-negative", lambda t: ["bounds", "--h-min", "-1"], 2, "h_min must be >= 0"),
    ("train-h-negative", lambda t: ["train", "--n", "200", "--h", "-1"], 2, "h must be >= 0"),
    ("train-epochs-0", lambda t: ["train", "--n", "200", "--epochs", "0"], 2,
     "learner.epochs must be >= 1, got 0"),
    ("learner-epochs-0", lambda t: _config(t, {"learner": {"epochs": 0}}), 2,
     "learner.epochs must be >= 1, got 0"),
    ("mc-delta-base-1", lambda t: ["mc-bound", "--delta-base", "1.0"], 2, "delta_base"),
    ("predict-no-model", lambda t: ["predict", "--model", str(t / "none.json"), "--data",
                                    str(_write_tiny_csv(t))], 2, "none.json"),
    ("predict-no-data", lambda t: ["predict", "--model", _model(t), "--data",
                                   str(t / "none.csv")], 2, "none.csv'"),
    ("empty-csv", lambda t: ["train", "--data", _write(t, "empty.csv", "")], 3, "empty.csv"),
    ("svmlight-blank-lines", lambda t: ["train", "--data", _write(t, "blank.svm", "\n \n\n"),
                                        "--format", "svmlight"], 3, "blank.svm: no data rows"),
    ("svmlight-bad-label", lambda t: ["train", "--data", _write(t, "bad.svm", "x 1:2\n"),
                                      "--format", "svmlight"], 3, "bad.svm: line 1: bad label"),
    ("label-only-csv-train", lambda t: ["train", "--data", _write(t, "y.csv", "label\n1\n0\n")],
     3, "y.csv: line 1: need at least one feature column"),
    ("label-only-csv-predict", lambda t: ["predict", "--model", _model(t), "--data",
                                          _write(t, "y.csv", "label\n1\n0\n")],
     3, "y.csv: line 1: need at least one feature column"),
    ("csv-nan-cell", lambda t: ["train", "--data", _write(t, "n.csv", "a,y\n1,1\nnan,0\n")],
     3, "n.csv: line 3: non-finite value 'nan'"),
    ("csv-overflowing-cell", lambda t: ["predict", "--model", _model(t), "--data",
                                        _write(t, "o.csv", "a,b,y\n1,-1e999,1\n")],
     3, "o.csv: line 2: non-finite value '-1e999'"),
    ("svmlight-inf-value", lambda t: ["train", "--data", _write(t, "i.svm", "1 1:2\n-1 2:inf\n"),
                                      "--format", "svmlight"], 3,
     "i.svm: line 2: non-finite value in '2:inf'"),
    ("svmlight-nan-label", lambda t: ["train", "--data", _write(t, "l.svm", "nan 1:2\n"),
                                      "--format", "svmlight"], 3,
     "l.svm: line 1: non-finite label 'nan'"),
    ("not-utf8", lambda t: ["train", "--data", _write_bytes(t, "b.csv", b"a,y\n\xff,1\n")], 3,
     "b.csv: not UTF-8 text"),
    ("benchmark-error-names-the-file", lambda t: _config(t, {
        "dataset": {"source": "file", "path": str(_write_overflowing_csv(t))},
        "learner": {"loss": "hinge"}, "cv_folds": 2, "n_min": 10}), 3,
     "overflow the scores <w, x> (a score is not finite) (data file "),
    ("training-error-names-the-file", lambda t: [
        "train", "--data", _write(t, "big.csv", "a,y\n" + "1e308,1\n-1e308,-1\n" * 10),
        "--n-min", "5"], 3, "(data file "),
]


@pytest.mark.parametrize(
    "argv, code, named", [case[1:] for case in EXIT_CASES], ids=[case[0] for case in EXIT_CASES]
)
def test_exit_code_branches(tmp_path, capsys, argv, code, named):
    assert main(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
