"""Condense perfbench results into one BENCH_<tag>.json at the repository root.

    python3 tools/bench_condense.py --tag <tag> [--src perfbench/out]

Reads every end-to-end result file ``<workload>-seed<n>-trace0.json`` under
``--src`` (as written by ``perfbench/run.py``) and writes, per workload, the
number of runs and their seeds, the median of the runs' ``op_vs_ref`` with
its minimum, quartiles (``q1``, ``q3``; numpy's default linear
interpolation) and maximum, and the median of each other end-to-end metric.
Traced result files ``<workload>-seed<n>-trace1.json`` add, per workload,
their count and seeds and the median of each per-layer metric under
``per_layer``.  The host record is taken from the runs, without the load
average; runs of different source trees (``src_sha256``) or hosts are
refused, so one file describes one tree on one host.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("cpu_count", "python", "numpy", "commit", "src_sha256")


def _by_workload(results: list[dict]) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for result in sorted(results, key=lambda r: r["seed"]):
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def condense(results: list[dict], tag: str, traced: list[dict] = ()) -> dict:
    if not results:
        raise ValueError("no end-to-end result files found")
    everything = [*results, *traced]
    hosts = {json.dumps({key: r["host"].get(key) for key in HOST_KEYS}) for r in everything}
    if len(hosts) > 1:
        raise ValueError(f"results come from {len(hosts)} different hosts or source trees")

    workloads = {}
    for name, runs in sorted(_by_workload(results).items()):
        values = {key: [r["end_to_end"][key] for r in runs] for key in runs[0]["end_to_end"]}
        ratios = values.pop("op_vs_ref")
        # quantiles() needs two values; a single run is its own quartiles.
        spread = ratios if len(ratios) > 1 else ratios * 2
        q1, _, q3 = statistics.quantiles(spread, n=4, method="inclusive")
        workloads[name] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "seconds": sorted({r["seconds"] for r in runs}),
            "cpus_usable": sorted({r["host"]["cpus_usable"] for r in runs}),
            "op_vs_ref": {
                "median": statistics.median(ratios),
                "min": min(ratios),
                "q1": q1,
                "q3": q3,
                "max": max(ratios),
            },
            **{key: statistics.median(vals) for key, vals in sorted(values.items())},
            "failed_ops": sum(r["failed"] for r in runs),
        }
    for name, runs in sorted(_by_workload(traced).items()):
        workloads.setdefault(name, {}).update(
            traced_runs=len(runs),
            traced_seeds=[r["seed"] for r in runs],
            per_layer={
                key: statistics.median(r["per_layer"][key] for r in runs)
                for key in sorted(runs[0]["per_layer"])
            },
        )
    host = {key: results[0]["host"].get(key) for key in HOST_KEYS}
    return {"tag": tag, "host": host, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "perfbench" / "out")
    args = parser.parse_args(argv)
    paths = sorted(args.src.glob("*-seed*-trace0.json"))
    traced_paths = sorted(args.src.glob("*-seed*-trace1.json"))
    try:
        summary = condense(
            [json.loads(p.read_text()) for p in paths],
            args.tag,
            [json.loads(p.read_text()) for p in traced_paths],
        )
    except ValueError as exc:
        print(f"bench_condense: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{len(paths)} runs and {len(traced_paths)} traced runs -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
