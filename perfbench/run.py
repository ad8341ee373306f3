"""Benchmark of the radon_machine package, run from the repository root:

    python3 perfbench/run.py --workload fit-logistic --seed 1 --seconds 20 --trace 0

It imports the package from ``src/``, builds the workload's inputs from the
seed, runs two warm-up operations, then repeats the workload's operation for
``--seconds`` seconds with tracing off, timing a reference loop around each
operation, and checks every output, warm-up included.  With ``--trace 1``
it also runs one traced operation and reports per-layer metrics instead of
end-to-end ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full results,
the host record and the spans are written under ``perfbench/out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import radon_machine  # noqa: E402
from spans import Tracer, aggregation_metrics, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for section in ("end_to_end", "per_layer")
    for metric in BENCHMARK[section]
}
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]

# Set-up is repeated and its median reported: twice before the operations,
# then once after every SETUP_EVERY timed operations.  The host's speed
# drifts over seconds, so repeats spread over the run agree better from run
# to run than repeats made back to back.
SETUP_BEFORE = 2
SETUP_EVERY = 4

# Operations run and checked before timing starts: the first calls are
# slower (lazy imports, first pool start, cold caches) on every workload.
WARMUP_OPS = 2

# The host's speed swings by up to 2x for seconds at a time (likely other
# tenants on the same cores), so a run's median wall time mostly measures
# the host.  A fixed pure-Python loop is timed before and after every
# operation, and each operation is reported as a multiple of the loop time
# around it.  A single-process workload is pinned to one CPU, so that its
# operations and the loop run on the same core and see the same contention.
REFERENCE_LOOPS = 1_000_000

# One set-up, timed in a fresh interpreter so that the benchmark process's
# own memory, and so peak_rss_mb, does not depend on how many ran.
SETUP_PROBE = (
    "import sys, time; t = time.perf_counter(); import radon_machine; "
    "from pathlib import Path; from workloads import WORKLOADS; "
    "WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), Path(sys.argv[3])); "
    "print(time.perf_counter() - t)"
)


class CertificationError(Exception):
    """A Radon point seen by the traced run failed its certificate."""


def setup_seconds(workload_name: str, seed: int, work_dir: Path) -> float:
    """Seconds a fresh interpreter takes to import radon_machine and build the inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, workload_name, str(seed), str(work_dir)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip())


def reference_seconds() -> float:
    """Wall time of the reference loop; it uses nothing from the package."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def host_record() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "radon_machine").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_at_start": Path("/proc/loadavg").read_text().split()[:3],
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child.

    Pages a forked worker shares with this process count in both, so the
    sum is an upper bound on the pair's joint peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Ledger:
    """Runs operations, checks each output, and counts the failures."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.quality = 0.0
        self._fingerprint = None

    def run(self, fn, *args, **kwargs):
        """Time ``fn`` and check its output; returns (seconds, output or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises counts as failed
            seconds = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self._fail([f"{type(exc).__name__}: {exc}"])
            return seconds, None
        seconds = time.perf_counter() - start
        quality, fingerprint, problems = self.workload.evaluate(self.inputs, output)
        if self._fingerprint is None:
            self._fingerprint, self.quality = fingerprint, quality
        elif fingerprint != self._fingerprint:
            problems = problems + ["output differs from the run's first operation"]
        if problems:
            self._fail(problems)
        return seconds, output

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)


def trace_layers(workload, inputs, seed, work_dir, ledger, op_times, outputs):
    """The traced part of a --trace 1 run.

    Returns the per-layer metrics, the self time by layer of the traced
    operation, and its spans.
    """
    variant = workload.traced_variant
    op_median = statistics.median(op_times)
    # The untraced reference for the traced variant: the timed median when
    # the variant is the timed operation itself, else one extra run.
    untraced_s = ledger.run(workload.op, inputs, **variant)[0] if variant else op_median

    tracer = Tracer()
    with tracer.installed(), tracer.root("setup") as setup_root:
        workload.build(seed, work_dir)
    traced = {}

    def traced_op():
        with tracer.installed(), tracer.root("op") as traced["root"]:
            output = workload.op(inputs, **variant)
        traced["worst"], traced["attempts"], problems = tracer.certify_all()
        if problems:
            raise CertificationError(f"{len(problems)} points, first: {problems[0]}")
        return output

    ledger.run(traced_op)
    if "worst" not in traced:  # the operation raised before certification
        traced["worst"], traced["attempts"], _ = tracer.certify_all()
    op_root = traced["root"]
    per_layer = dict.fromkeys(PER_LAYER, 0.0)
    per_layer.update(layer_metrics(tracer, op_root, setup_root))
    _, _, start, end, _ = tracer.spans[op_root]
    self_s = tracer.self_times(op_root)
    accounting = {
        "op_wall_s": end - start,
        "self_s": self_s,
        "unaccounted_s": (end - start) - sum(self_s.values()),
    }
    per_layer["trace.overhead_frac"] = (end - start) / untraced_s - 1.0
    per_layer["radon_points.max_cert_residual"] = traced["worst"]
    per_layer["radon_points.pin_attempts_per_point"] = traced["attempts"]

    if variant:
        # fit-logistic asks whether the pool pays off, so its phase times
        # come from the AggregationTrace of the timed two-worker fits.
        calls = [(out[1], wall) for out, wall in zip(outputs, op_times) if out is not None]
        if calls:
            per_layer.update(aggregation_metrics(calls, statistics.median))
        per_layer["aggregation.worker_speedup"] = untraced_s / op_median
    return per_layer, accounting, tracer.to_rows()


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    if Path(radon_machine.__file__).resolve().parent != SRC / "radon_machine":
        raise ImportError(f"radon_machine was imported from {radon_machine.__file__}, not {SRC}")
    workload = WORKLOADS[workload_name]
    if workload.single_process:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    host = host_record()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    per_layer = accounting = span_rows = None
    try:
        inputs = workload.build(seed, work_dir)
        probe_dir = work_dir / "probe"
        setup_times = [
            setup_seconds(workload_name, seed, probe_dir) for _ in range(SETUP_BEFORE)
        ]

        ledger = Ledger(workload, inputs)
        warmup_times = [ledger.run(workload.op, inputs)[0] for _ in range(WARMUP_OPS)]
        op_times, outputs = [], []
        start = time.perf_counter()
        ref_times = [reference_seconds()]
        while True:
            op_s, output = ledger.run(workload.op, inputs)
            ref_times.append(reference_seconds())
            op_times.append(op_s)
            outputs.append(output)
            if time.perf_counter() - start >= seconds:
                break
            if len(op_times) % SETUP_EVERY == 0:
                setup_times.append(setup_seconds(workload_name, seed, probe_dir))
        op_vs_ref = [
            op_s / ((before + after) / 2.0)
            for op_s, before, after in zip(op_times, ref_times, ref_times[1:])
        ]
        end_to_end = {
            "op_vs_ref": statistics.median(op_vs_ref),
            "quality": ledger.quality,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        }
        if trace:
            per_layer, accounting, span_rows = trace_layers(
                workload, inputs, seed, work_dir, ledger, op_times, outputs
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": per_layer if trace else end_to_end,
    }
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    details = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "host": host,
        "setup_times_s": setup_times,
        "warmup_times_s": warmup_times,
        "op_times_s": op_times,
        "op_s_median": statistics.median(op_times),
        "ref_times_s": ref_times,
        "op_vs_ref": op_vs_ref,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "traced_op": accounting,
        "problems": ledger.problems,
        **{key: result[key] for key in ("correct", "attempted", "failed")},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    if span_rows is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(span_rows) + "\n")
    result["metrics"] = {
        name: {"value": value, "unit": UNITS[name]} for name, value in result["metrics"].items()
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
