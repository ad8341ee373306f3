"""Span recording around the calls between radon_machine's modules.

``Tracer`` replaces, for the duration of a ``with`` block, every binding
through which one package module (or the package namespace the benchmark
calls) reaches a public function of another module: ``aggregation.train``,
``aggregation.radon_point``, ``experiments.load_dataset`` and so on.  Each
call then records a span (id, name, start, end, parent id).  Nothing in the
package changes; the bindings are restored when the block ends.

The spans feed ``layer_metrics``, which derives the per-layer numbers the
benchmark reports, and ``self_times``, which shows that the self time of
every span in an operation adds up to the operation's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time

import numpy as np

import radon_machine as rm
from radon_machine import (
    aggregation,
    bounds,
    cli,
    datasets,
    experiments,
    learners,
    metrics,
    radon_points,
)

# The layers are the package modules that do measurable work on the
# workloads; bounds and cli do none and get no spans of their own.
LAYERS = {
    "datasets": datasets,
    "learners": learners,
    "radon_points": radon_points,
    "aggregation": aggregation,
    "metrics": metrics,
    "experiments": experiments,
}
# Every namespace whose bindings to those functions get wrapped; ``rm`` is
# the package namespace the benchmark itself calls through.
CALLER_MODULES = (rm, bounds, cli, *LAYERS.values())

# Public functions that are also traced when called from their own module.
INTRA_MODULE = {"experiments.partition_checksum"}

# A Radon point fails certification when certify() exceeds this share of
# (1 + largest input coordinate magnitude).
CERT_RTOL = 1e-9

def _public_functions() -> dict:
    """Original function object -> span name, for every public function."""
    names = {}
    for layer, module in LAYERS.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                names[obj] = f"{layer}.{attr}"
    return names


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (id, name, start, end, parent)
        self.attrs: dict[int, dict] = {}
        self.radon_sets: list[tuple[np.ndarray, rm.RadonCertificate]] = []
        # Span id -> seconds the hooks of its children took inside it.
        self.hook_s: dict[int | None, float] = {}
        self._stack: list[int] = []
        self._hooks = {
            "learners.train": self._on_train,
            "datasets.load_dataset": self._on_load,
            "metrics.auc": self._on_auc,
            "radon_points.radon_point": self._on_radon_point,
            "aggregation.radon_machine": self._on_radon_machine,
        }

    @contextlib.contextmanager
    def installed(self):
        names = _public_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        patched = []
        try:
            for module in CALLER_MODULES:
                for attr, obj in list(vars(module).items()):
                    if not inspect.isfunction(obj) or obj not in wrappers:
                        continue
                    own = obj.__module__ == module.__name__
                    if own and names[obj] not in INTRA_MODULE:
                        continue
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself, in layer "perfbench"."""
        sid = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, f"perfbench.{name}", start, time.perf_counter())

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (sid, name, start, end, parent)

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, time.perf_counter())
            if hook is not None:
                parent = self._stack[-1] if self._stack else None
                hook_start = time.perf_counter()
                hook(sid, signature.bind(*args, **kwargs).arguments, result)
                spent = time.perf_counter() - hook_start
                self.hook_s[parent] = self.hook_s.get(parent, 0.0) + spent
            return result

        return traced

    # Hooks run after the span closed, inside the caller's span; own_times
    # moves their cost out of the caller's self time into layer "trace".
    def _on_train(self, sid, arguments, result):
        spec, data = arguments["spec"], arguments["data"]
        # Squared loss takes the exact normal-equations path at the small
        # dimensions used here; every other loss runs per-example SGD.
        exact = spec.loss == "squared"
        self.attrs[sid] = {"exact": exact, "sgd_steps": 0 if exact else spec.epochs * data.n_rows}

    def _on_load(self, sid, arguments, result):
        self.attrs[sid] = {"rows": result.n_rows}

    def _on_auc(self, sid, arguments, result):
        self.attrs[sid] = {"rows": int(np.size(arguments["scores"]))}

    def _on_radon_point(self, sid, arguments, result):
        self.radon_sets.append((np.array(arguments["points"], dtype=np.float64), result))

    def _on_radon_machine(self, sid, arguments, result):
        self.attrs[sid] = {"trace": result[1]}

    def certify_all(self) -> tuple[float, float, list[str]]:
        """Certify every Radon point seen.

        Returns the worst certify() residual, the mean number of pin
        positions tried per point, and one message per point whose residual
        exceeds the tolerance.  The winning pin is the first coefficient
        that equals 1.0 exactly.
        """
        worst, attempts, problems = 0.0, 0, []
        for points, cert in self.radon_sets:
            residual = radon_points.certify(points, cert)
            worst = max(worst, residual)
            limit = CERT_RTOL * (1.0 + float(np.abs(points).max()))
            if not residual <= limit:
                problems.append(f"Radon point certificate residual {residual:.3g} > {limit:.3g}")
            pins = np.flatnonzero(cert.lam == 1.0)
            attempts += int(pins[0]) + 1 if pins.size else cert.lam.size
        mean_attempts = attempts / len(self.radon_sets) if self.radon_sets else 0.0
        return worst, mean_attempts, problems

    def subtree(self, root: int) -> list[tuple]:
        """Spans of the tree under ``root``, root included, in start order."""
        inside = {root}
        out = [self.spans[root]]
        for span in self.spans[root + 1 :]:
            if span[4] in inside:
                inside.add(span[0])
                out.append(span)
        return out

    def own_times(self, spans: list[tuple]) -> dict[int, float]:
        """Span id -> self time, for a subtree in start order: the span's
        duration minus its children's and minus their hooks."""
        own = {sid: end - start - self.hook_s.get(sid, 0.0) for sid, _, start, end, _ in spans}
        for _, _, start, end, parent in spans[1:]:
            own[parent] -= end - start
        return own

    def self_times(self, root: int) -> dict[str, float]:
        """Self time summed by layer over the tree under ``root``, with hook
        time as layer "trace"; the values add up to the root's duration."""
        spans = self.subtree(root)
        own = self.own_times(spans)
        by_layer = {"trace": sum(self.hook_s.get(sid, 0.0) for sid, *_ in spans)}
        for sid, name, *_ in spans:
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + own[sid]
        return by_layer

    def to_rows(self) -> list[list]:
        """Spans as [id, name, start_s, end_s, parent], times from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        return [[s[0], s[1], s[2] - origin, s[3] - origin, s[4]] for s in self.spans]


def aggregation_metrics(calls, combine) -> dict[str, float]:
    """Phase times of radon_machine calls, given as (AggregationTrace, wall
    seconds) pairs and combined by ``combine``; pool overhead is the wall
    time the three phases leave over."""
    return {
        "aggregation.partition_s": combine(t.wall_time_partition for t, _ in calls),
        "aggregation.learn_s": combine(t.wall_time_learning for t, _ in calls),
        "aggregation.fold_s": combine(t.wall_time_aggregation for t, _ in calls),
        "aggregation.pool_overhead_s": combine(
            wall - t.wall_time_partition - t.wall_time_learning - t.wall_time_aggregation
            for t, wall in calls
        ),
    }


def layer_metrics(tracer: Tracer, op_root: int, setup_root: int) -> dict[str, float]:
    """Per-layer metrics from one traced set-up and one traced operation.

    A metric whose layer did no work on the workload reads 0.  Aggregation
    phase times are sums over the operation's radon_machine calls.
    """
    spans = tracer.subtree(op_root)
    own = tracer.own_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def total(name):
        return float(sum(end - start for _, _, start, end, _ in by_name.get(name, ())))

    def count(name):
        return float(len(by_name.get(name, ())))

    def self_total(name):
        return float(sum(own[span[0]] for span in by_name.get(name, ())))

    def attr_sum(name, key):
        return float(sum(tracer.attrs[span[0]][key] for span in by_name.get(name, ())))

    def per(numerator, denominator, scale):
        return scale * numerator / denominator if denominator else 0.0

    trains = [
        (tracer.attrs[sid]["exact"], end - start)
        for sid, _, start, end, _ in by_name.get("learners.train", ())
    ]
    sgd_s = sum(seconds for exact, seconds in trains if not exact)
    exact_s = [seconds for exact, seconds in trains if exact]
    calls = [
        (tracer.attrs[sid]["trace"], end - start)
        for sid, _, start, end, _ in by_name.get("aggregation.radon_machine", ())
    ]
    synth = [span for span in tracer.subtree(setup_root) if span[1].startswith("datasets.synth_")]
    sgd_steps = attr_sum("learners.train", "sgd_steps")

    metrics = {
        "datasets.load_s": total("datasets.load_dataset"),
        "datasets.load_us_per_row": per(
            total("datasets.load_dataset"), attr_sum("datasets.load_dataset", "rows"), 1e6
        ),
        "datasets.kfold_s": total("datasets.kfold"),
        "datasets.synth_s": float(sum(end - start for _, _, start, end, _ in synth)),
        "aggregation.partitions": float(sum(t.hypotheses_per_level[0] for t, _ in calls)),
        "aggregation.levels": float(sum(len(t.hypotheses_per_level) - 1 for t, _ in calls)),
        "learners.train_calls": count("learners.train"),
        "learners.sgd_steps": sgd_steps,
        "learners.sgd_us_per_step": per(sgd_s, sgd_steps, 1e6),
        "learners.exact_solve_us": 1e6 * statistics.median(exact_s) if exact_s else 0.0,
        "learners.predict_s": total("learners.predict_score"),
        "radon_points.points": count("radon_points.radon_point"),
        "radon_points.us_per_point": per(
            total("radon_points.radon_point"), count("radon_points.radon_point"), 1e6
        ),
        "metrics.auc_s": total("metrics.auc"),
        "metrics.auc_us_per_row": per(total("metrics.auc"), attr_sum("metrics.auc", "rows"), 1e6),
        "experiments.checksum_s": total("experiments.partition_checksum"),
        "experiments.cv_self_s": self_total("experiments.run_benchmark"),
        "experiments.mc_self_s": self_total("experiments.mc_confidence"),
    }
    metrics.update(aggregation_metrics(calls, lambda values: float(sum(values))))
    return metrics
