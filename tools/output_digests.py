"""Print SHA-256 digests of the package's outputs, to compare two source trees bit for bit.

    python3 tools/output_digests.py [--root DIR]

Imports ``radon_machine`` from ``DIR/src`` and ``perfbench/workloads.py``
from ``DIR/perfbench`` (``DIR`` defaults to this repository), so running the
tool once with each tree's root and comparing the two outputs shows whether
a change kept every output's bits.  It prints one ``<name> <sha256>`` line per
output, then an ``all`` line digesting the lines above it:

- ``benchmark``: ``run_benchmark`` reports over a small synthetic matrix,
  the three losses, and squared loss again at ``reg_lambda`` 0 (the lstsq
  path of its exact solve), with the bias column on and off at seeds 1-3,
  with one worker and with two, digested by ``workloads.report_digest`` (which
  drops the timing fields) after the ``config`` echo is removed, since the
  config's fields may differ between trees while its values do not;
- ``radon_machine``: the root weights of ``radon_machine`` on a small
  synthetic matrix with logistic and hinge loss, at the default reg_lambda
  and at 0 (where a step's regulariser term reg_lambda * w is a signed
  zero), bias on and off, with one worker and with two, trained for 3
  epochs so that each partition's step count carries across epoch starts
  into its decaying step size.  Its SGD trains the partitions one train()
  call at a time with one worker and in the lock-step kernel with two, so
  the two lines of a learner show that both paths give the same bits;
- ``radon_machine trace``: the ``repr`` of the non-timing trace fields
  (``hypotheses_per_level``, ``pin_fallbacks``, ``max_cert_residual`` and
  ``n_subset``) of each of those fits.  One worker folds one radon_point
  call per group and two workers one stacked solve per level, so the two
  lines of a learner show that both folds give the same trace;
- ``train``: the model file ``radon-machine train --workers 2`` writes for
  each of ``base``, ``radon`` and ``avg`` with each of those learners, bias
  on and off;
- ``mc``: the ``MC_CSV_COLUMNS`` keys of the rows of
  ``mc_confidence(4, 2, 0.125, 1000)`` at seeds 1-3, where r * delta_base =
  0.5 makes every bound an exact power of two, and of
  ``mc_confidence(5, 2, 0.07, 1000)``, where it is 0.35, so that the bits of
  how the bound is computed count too;
- ``mc trace``: the ``pin_fallbacks`` and ``max_cert_residual`` keys of the
  same rows (null where a row has none, as at level 0);
- ``bounds``: the rows of ``bounds_table`` for each ``k`` and ``kappa`` in
  1-3, over ``r`` from 3 to 12 at ``delta_base`` 1/(2r), heights 0-40,
  ``c_workers`` 1, 4 and 1000, and ``(alpha_eps, beta_eps)`` (0, 1) and
  (2.5, 0.7), read through ``repr`` so every float's bits count;
- ``fit squared chunked`` and ``fit squared reg_lambda=0 chunked``: one
  digest each of the weights of ``fit`` with ``radon`` and ``avg``, squared
  loss at ``reg_lambda`` 0.1 and at 0 (lstsq), bias on and off, on 30,000
  synthetic rows.  The inputs above are small enough that the exact solve
  gathers each run of partitions in one chunk; here it takes several
  (``learners.EXACT_GATHER_FLOATS``).

It runs in a few seconds on one CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOSSES = ("logistic", "hinge", "squared")
ALGORITHMS = ("base", "radon", "avg")
SEEDS = (1, 2, 3)
WORKERS = (1, 2)
MC_TRACE_KEYS = ("pin_fallbacks", "max_cert_residual")


def _variants(loss: str, unregularised: bool = False) -> list[tuple[str, float | None]]:
    """(name, reg_lambda) of each run of ``loss``; None keeps the default.
    Squared loss, which then solves by lstsq, and any loss with
    ``unregularised`` also run at reg_lambda 0."""
    zero = unregularised or loss == "squared"
    return [(loss, None), *([(f"{loss} reg_lambda=0", 0.0)] if zero else [])]


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _dataset(loss: str, seed: int) -> dict:
    if loss == "squared":
        return {"source": "synthetic-regression", "n": 1500, "d": 3, "noise_sd": 0.3, "seed": seed}
    return {"source": "synthetic-classification", "n": 1500, "d": 3, "noise": 0.1, "seed": seed}


def benchmark_digests(
    rm, workloads, losses=LOSSES, seeds=SEEDS, workers=WORKERS
) -> dict[str, str]:
    """report_digest of each CV report, less its ``config`` echo."""
    digests = {}
    for loss in losses:
        for variant, reg_lambda in _variants(loss):
            learner = {"loss": loss, "epochs": 1}
            if reg_lambda is not None:
                learner["reg_lambda"] = reg_lambda
            for fit_bias in (True, False):
                for seed in seeds:
                    for count in workers:
                        config = rm.ExperimentConfig.from_dict(
                            {
                                "dataset": _dataset(loss, seed),
                                "learner": {**learner, "fit_bias": fit_bias},
                                "cv_folds": 3,
                                "n_min": 20,
                                "seed": seed,
                                "workers": count,
                            }
                        )
                        report = rm.run_benchmark(config)
                        report.pop("config")
                        name = f"benchmark {variant} bias={fit_bias} seed={seed} workers={count}"
                        digests[name] = workloads.report_digest(report)
    return digests


def radon_machine_digests(rm, losses=LOSSES[:2], workers=WORKERS) -> dict[str, str]:
    """Digest of the root weights, and of the non-timing trace, of each
    radon_machine fit."""
    data, _ = rm.synth_classification(1500, 3, 0.1, seed=5)
    digests = {}
    for loss in losses:
        for variant, reg_lambda in _variants(loss, unregularised=True):
            learner = {"loss": loss, "epochs": 3}
            if reg_lambda is not None:
                learner["reg_lambda"] = reg_lambda
            for fit_bias in (True, False):
                spec = rm.LearnerSpec(**learner, fit_bias=fit_bias)
                r = rm.radon_number(spec.hypothesis_dim(data.dim))
                for count in workers:
                    cfg = rm.RadonConfig(r=r, h=2, seed=5, n_min=20, workers=count)
                    root, trace = rm.radon_machine(spec, data, cfg)
                    name = f"{variant} bias={fit_bias} workers={count}"
                    digests[f"radon_machine {name}"] = _sha256(root.weights.tobytes())
                    fields = (trace.hypotheses_per_level, trace.pin_fallbacks,
                              trace.max_cert_residual, trace.n_subset)
                    digests[f"radon_machine trace {name}"] = _sha256(repr(fields).encode())
    return digests


def train_digests(cli, losses=LOSSES, algorithms=ALGORITHMS) -> dict[str, str]:
    """Digest of each model file ``radon-machine train`` writes."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "model.json"
        for algorithm in algorithms:
            for loss in losses:
                for variant, reg_lambda in _variants(loss):
                    synth = "regression" if loss == "squared" else "classification"
                    args = ["train", "--synth", synth, "--n", "2000", "--d", "3", "--loss", loss,
                            "--epochs", "2", "--algorithm", algorithm, "--n-min", "20",
                            "--seed", "4", "--workers", "2", "--out", str(out)]
                    if reg_lambda is not None:
                        args += ["--reg-lambda", str(reg_lambda)]
                    for fit_bias in (True, False):
                        with contextlib.redirect_stdout(io.StringIO()):
                            code = cli.main(args if fit_bias else [*args, "--no-bias"])
                        if code != 0:
                            raise RuntimeError(f"train exited {code}: {' '.join(args)}")
                        name = f"train {algorithm} {variant} bias={fit_bias}"
                        digests[name] = _sha256(out.read_bytes())
    return digests


def mc_digests(rm, seeds=SEEDS) -> dict[str, str]:
    """Digest of the CSV columns, and one of the trace keys, of the rows of
    each mc_confidence(r, h, delta_base, 1000) run at each seed."""
    runs = {"": (4, 2, 0.125), " r=5 delta_base=0.07": (5, 2, 0.07)}
    tables = {
        f"{name} seed={seed}": rm.mc_confidence(*run, 1000, seed)["rows"]
        for name, run in runs.items()
        for seed in seeds
    }
    groups = {"mc": rm.experiments.MC_CSV_COLUMNS, "mc trace": MC_TRACE_KEYS}
    return {
        f"{group}{name}": _sha256(
            json.dumps([{key: row.get(key) for key in keys} for row in rows], sort_keys=True).encode()
        )
        for group, keys in groups.items()
        for name, rows in tables.items()
    }


def bounds_digests(rm, exponents=(1, 2, 3)) -> dict[str, str]:
    """Digest of the bounds_table rows of each (k, kappa) over the grid above."""
    digests = {}
    for k in exponents:
        for kappa in exponents:
            tables = [
                rm.bounds_table(
                    rm.ComplexityParams(alpha_eps=alpha, beta_eps=beta, k=k, kappa=kappa),
                    r, 1.0 / (2 * r), range(41), c_workers,
                )
                for alpha, beta in ((0.0, 1.0), (2.5, 0.7))
                for r in range(3, 13)
                for c_workers in (1, 4, 1000)
            ]
            blob = json.dumps(tables, sort_keys=True).encode()
            digests[f"bounds k={k} kappa={kappa}"] = _sha256(blob)
    return digests


def chunked_fit_digests(rm) -> dict[str, str]:
    """Digest of the root weights of the squared-loss fits whose exact
    solves span several gathered chunks, one line per reg_lambda."""
    data, _ = rm.synth_regression(30_000, 8, 0.3, seed=6)
    digests = {}
    for variant, reg_lambda in (("squared", 0.1), ("squared reg_lambda=0", 0.0)):
        weights = []
        for fit_bias in (True, False):
            spec = rm.LearnerSpec(loss="squared", reg_lambda=reg_lambda, fit_bias=fit_bias)
            r = rm.radon_number(spec.hypothesis_dim(data.dim))
            cfg = rm.RadonConfig(r=r, h=2, seed=6, n_min=20, workers=1)
            for algorithm in ("radon", "avg"):
                weights.append(rm.fit(algorithm, spec, data, cfg)[0].weights.tobytes())
        digests[f"fit {variant} chunked"] = _sha256(b"".join(weights))
    return digests


def _import_tree(root: Path):
    """radon_machine, its cli and perfbench's workloads from the tree at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    import radon_machine
    from radon_machine import cli

    return radon_machine, cli, workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="source tree to digest")
    args = parser.parse_args(argv)
    rm, cli, workloads = _import_tree(args.root.resolve())
    digests = {
        **benchmark_digests(rm, workloads),
        **radon_machine_digests(rm),
        **train_digests(cli),
        **mc_digests(rm),
        **bounds_digests(rm),
        **chunked_fit_digests(rm),
    }
    lines = [f"{name} {digest}" for name, digest in digests.items()]
    lines.append(f"all {_sha256(chr(10).join(lines).encode())}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
