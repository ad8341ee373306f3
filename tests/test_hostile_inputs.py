"""A seeded sweep of hostile inputs through the command line.

Every config field of ``benchmark``, ``mc-bound`` and ``bounds`` and every
``train`` flag takes, in turn, a wrong type, a negative number, zero, 10**12,
10**400, NaN and a wrong container; data files of random rows (stdlib
``random`` at fixed seeds) get a NaN, an infinite or an overflowing cell, a
ragged row, a byte-order mark, a huge svmlight index or no content.  Each
case runs ``cli.main`` in-process and must end with exit 0, 2 (config) or 3
(data), print no traceback, and on an error name the field or the file.
"""

import json
import random
import re

import pytest

from radon_machine.cli import main

# A wrong type, a negative, zero, large, past float range, NaN, a wrong container.
HOSTILE = {"str": "x", "neg": -1, "zero": 0, "1e12": 10**12, "1e400": 10**400,
           "nan": float("nan"), "list": [1]}

SYNTH = {"source": "synthetic-classification", "n": 300, "d": 2, "noise": 0.1, "seed": 1}
BENCHMARK = {"dataset": SYNTH, "learner": {"epochs": 1}, "cv_folds": 2, "n_min": 20}
BENCHMARK_FIELDS = [
    "algorithms", "cv_folds", "h", "n_min", "seed", "workers", "out",
    *(f"dataset.{key}" for key in ("source", "n", "d", "noise", "seed")),
    "dataset.noise_sd",  # on a regression dataset
    "dataset.path", "dataset.format",  # on a file dataset
    *(f"learner.{key}" for key in ("loss", "reg_lambda", "epochs", "learning_rate0", "fit_bias")),
    *(f"bounds.{key}" for key in ("alpha_eps", "beta_eps", "k", "kappa", "delta_base")),
    "dataset", "learner", "bounds",
]
MC_FIELDS = ["r", "h", "delta_base", "trials", "seed", "workers"]
BOUNDS_FIELDS = ["alpha_eps", "beta_eps", "k", "kappa", "delta_base", "r", "h_min", "h_max",
                 "c_workers"]
TRAIN_FLAGS = ["--n", "--d", "--noise", "--noise-sd", "--synth", "--algorithm", "--h", "--n-min",
               "--loss", "--reg-lambda", "--epochs", "--learning-rate0", "--seed", "--workers",
               "--data", "--format", "--out"]
TRAIN = ["train", "--n", "300", "--d", "2", "--epochs", "1", "--n-min", "20"]

# The names stderr may give a field, beyond its own: a flag's error names its
# config key, and the cell cap names n * d.
ALIASES = {
    "dataset.source": ("dataset source",),
    "dataset.d": ("dataset.n * d",),
    "--n": ("dataset.n",), "--d": ("dataset.d", "dataset.n * d"), "--noise": ("dataset.noise",),
    "--noise-sd": ("dataset.noise_sd",), "--h": ("h",), "--n-min": ("n_min",),
    "--reg-lambda": ("learner.reg_lambda",), "--epochs": ("learner.epochs",),
    "--learning-rate0": ("learner.learning_rate0",), "--seed": ("seed",),
    "--workers": ("workers",), "--data": ("dataset.path",),
}


def _set(config: dict, dotted: str, value) -> dict:
    config = json.loads(json.dumps(config))
    *sections, key = dotted.split(".")
    node = config
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return config


def _benchmark_config(field: str, value, tmp_path) -> dict:
    base = dict(BENCHMARK)
    if field == "dataset.noise_sd":
        base["dataset"] = {**SYNTH, "source": "synthetic-regression"}
        del base["dataset"]["noise"]
        base["learner"] = {"loss": "squared"}
    elif field in ("dataset.path", "dataset.format"):
        base["dataset"] = {"source": "file", "path": str(_csv(tmp_path, 0, None))}
    elif field.startswith("bounds."):
        base["bounds"] = {"alpha_eps": 0.0, "beta_eps": 1.0}
    return _set(base, field, value)


def _config_cases():
    for field in BENCHMARK_FIELDS:
        for label, value in HOSTILE.items():
            yield pytest.param(
                lambda t, f=field, v=value: ["benchmark", "--config", _write_json(
                    t, _benchmark_config(f, v, t))],
                field, id=f"benchmark {field}={label}")
    for section, fields, command, base in (
        ("mc", MC_FIELDS, "mc-bound", {"trials": 1000}),
        ("bounds", BOUNDS_FIELDS, "bounds", {}),
    ):
        for field in fields:
            for label, value in HOSTILE.items():
                yield pytest.param(
                    lambda t, s=section, f=field, v=value, c=command, b=base: [
                        c, "--config", _write_json(t, {s: {**b, f: v}})],
                    field, id=f"{command} {field}={label}")
    for flag in TRAIN_FLAGS:
        for label, value in HOSTILE.items():
            text = value if isinstance(value, str) else json.dumps(value)
            yield pytest.param(
                lambda t, f=flag, x=text: [*TRAIN, "--out", str(t / "m.json"), f, x],
                flag, id=f"train {flag}={label}")


def _write_json(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _rows(seed: int, n: int = 60):
    rng = random.Random(seed)
    return [[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.choice((-1, 1))] for _ in range(n)]


def _csv(tmp_path, seed: int, hostile: str | None):
    """A CSV of 60 random rows; ``hostile`` names what is wrong with it."""
    rng = random.Random(1000 + seed)
    lines = [",".join(map(repr, row)) for row in _rows(seed)]
    i, j = rng.randrange(len(lines)), rng.randrange(3)
    if hostile in ("nan", "inf", "-inf", "1e308", "1e400", "Infinity"):
        cells = lines[i].split(",")
        cells[j] = hostile
        lines[i] = ",".join(cells)
    elif hostile == "ragged":
        lines[i] = lines[i].rsplit(",", 1)[0]
    text = "a,b,y\n" + "\n".join(lines) + "\n"
    if hostile == "bom":
        text = "\ufeff" + text
    if hostile == "empty":
        text = ""
    path = tmp_path / f"data-{seed}-{hostile}.csv"
    path.write_text(text, encoding="utf-8")
    return path


def _svmlight(tmp_path, seed: int, hostile: str):
    rng = random.Random(2000 + seed)
    lines = [f"{y} 1:{a!r} 2:{b!r}" for a, b, y in _rows(seed)]
    i = rng.randrange(len(lines))
    if hostile in ("nan", "inf", "-inf", "1e308", "1e400"):
        lines[i] = f"{lines[i]} 2:{hostile}" if rng.random() < 0.5 else f"{hostile} 1:0.5"
    elif hostile == "huge-index":
        lines[i] += f" {10**rng.randrange(9, 40)}:1"
    elif hostile == "ragged":
        lines[i] += " 3:"
    text = "\n".join(lines) + "\n"
    if hostile == "bom":
        text = "\ufeff" + text
    if hostile == "empty":
        text = ""
    path = tmp_path / f"data-{seed}-{hostile}.svm"
    path.write_text(text, encoding="utf-8")
    return path


FILE_HOSTILE = ["nan", "inf", "-inf", "1e308", "1e400", "ragged", "bom", "empty"]


def _file_cases():
    for seed in range(3):
        for hostile in [*FILE_HOSTILE, "Infinity"]:
            for command in ("train", "predict"):
                yield pytest.param(
                    lambda t, s=seed, h=hostile, c=command: _file_argv(c, t, _csv(t, s, h), "csv"),
                    None, id=f"{command} csv {hostile} seed={seed}")
        for hostile in [*FILE_HOSTILE, "huge-index"]:
            for command in ("train", "predict"):
                yield pytest.param(
                    lambda t, s=seed, h=hostile, c=command: _file_argv(
                        c, t, _svmlight(t, s, h), "svmlight"),
                    None, id=f"{command} svmlight {hostile} seed={seed}")


def _file_argv(command, tmp_path, path, fmt):
    if command == "train":
        return [*TRAIN, "--data", str(path), "--format", fmt, "--out", str(tmp_path / "m.json")]
    model = tmp_path / "model.json"
    model.write_text('{"weights": [0.5, -0.5, 0.0], "fit_bias": true}')
    return ["predict", "--model", str(model), "--data", str(path), "--format", fmt]


@pytest.mark.parametrize("argv, field", [*_config_cases(), *_file_cases()])
def test_hostile_input_ends_with_a_documented_exit_code(tmp_path, monkeypatch, capsys, argv, field):
    monkeypatch.chdir(tmp_path)  # outputs named by a hostile value land here
    args = argv(tmp_path)
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects the flag's text
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        names = (field, *ALIASES.get(field, ())) if field else (args[args.index("--data") + 1],)
        if field in ("--data", "--out"):
            names += (args[-1],)  # an OSError names the path
        assert any(re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", err) for n in names), err
