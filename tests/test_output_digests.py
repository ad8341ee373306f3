"""tools/output_digests.py: one digest per output, equal across worker counts, blind to timings."""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def test_prints_one_digest_per_output_and_a_digest_of_them(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", [*sys.path])
    assert output_digests.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    digests = dict(line.rsplit(" ", 1) for line in lines)
    # four learners (squared loss at its default reg_lambda and at 0) in the
    # benchmark and train digests; two SGD learners, each at its default
    # reg_lambda and at 0, in the radon_machine ones, each with its root and
    # its trace; two mc_confidence runs, each with its CSV columns and its
    # trace keys; one bounds table per (k, kappa)
    assert len(digests) == len(lines) == (
        4 * 2 * 3 * 2 + 2 * 2 * 2 * 2 * 2 + 3 * 4 * 2 + 2 * 2 * 3 + 3 * 3 + 1
    )
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests.values())
    assert digests.pop("all") == hashlib.sha256("\n".join(lines[:-1]).encode()).hexdigest()
    for name, digest in digests.items():
        if name.endswith("workers=1"):  # radon_machine's per-partition path included
            assert digests[name.replace("workers=1", "workers=2")] == digest
    # all else distinct, but for one pair of trace lines: unregularised
    # logistic and default hinge without a bias fold with no pin fallback
    # and the same worst residual, 2 ulps of 1, at both levels
    assert len(set(digests.values())) == len(digests) - 4 * 2 * 3 - 2 * 2 * 2 * 2 - 1


def test_report_digest_skips_the_config_echo_and_timings(monkeypatch):
    def tree(extra_field, metric):
        def run_benchmark(config):
            return {
                "config": {**config, **extra_field},
                "algorithms": {"base": {"metric_mean": metric, "total_s_mean": id(config)}},
            }

        return SimpleNamespace(
            ExperimentConfig=SimpleNamespace(from_dict=dict), run_benchmark=run_benchmark
        )

    monkeypatch.setattr(sys, "path", [*sys.path])
    _, _, workloads = output_digests._import_tree(output_digests.ROOT)

    def digests(rm):
        return output_digests.benchmark_digests(rm, workloads, ("hinge",), (1,), (1,))

    parent = digests(tree({"retired_field": False}, 0.75))
    assert parent == digests(tree({}, 0.75))
    assert parent != digests(tree({}, 0.7500000000000001))
