"""Condense perfbench results into one BENCH_<tag>.json at the repository root.

    python3 tools/bench_condense.py --tag <tag> [--src perfbench/out]
    python3 tools/bench_condense.py --compare BENCH_<parent>.json BENCH_<change>.json

Reads every end-to-end result file ``<workload>-seed<n>-trace0.json`` under
``--src`` (as written by ``perfbench/run.py``) and writes, per workload, the
number of runs and their seeds, the median of the runs' ``op_vs_ref`` with
its minimum, quartiles (``q1``, ``q3``; numpy's default linear
interpolation) and maximum, the median of each other end-to-end metric,
and every run's end-to-end values by seed under ``per_seed``.
Traced result files ``<workload>-seed<n>-trace1.json`` add, per workload,
their count and seeds and the median of each per-layer metric under
``per_layer``.  The host record is taken from the runs, without the load
average; runs of different source trees (``src_sha256``) or hosts are
refused, so one file describes one tree on one host.

``--compare`` prints, for each workload and end-to-end metric of two such
files, the parent's and the change's medians, the parent's interquartile
range and how many seed-matched pairs the change won (ties count for
neither), with each metric's direction taken from BENCHMARK.json.  A gain
holds when the change won at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range.  Standard library only.
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


def _quartiles(values: list[float]) -> tuple[float, float]:
    # quantiles() needs two values; a single run is its own quartiles.
    spread = values if len(values) > 1 else values * 2
    q1, _, q3 = statistics.quantiles(spread, n=4, method="inclusive")
    return q1, q3


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
        q1, q3 = _quartiles(ratios)
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
            "per_seed": {str(r["seed"]): r["end_to_end"] for r in runs},
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


def compare(parent: dict, change: dict, better: dict[str, str]) -> list[dict]:
    """One row per workload and end-to-end metric that both condensed files
    hold by seed; ``better`` maps a metric to "lower" or "higher"."""
    rows = []
    for name in sorted(set(parent["workloads"]) & set(change["workloads"])):
        old, new = parent["workloads"][name], change["workloads"][name]
        if "per_seed" not in old or "per_seed" not in new:
            raise ValueError(f"{name}: a file has no per_seed values; condense its runs again")
        seeds = sorted(set(old["per_seed"]) & set(new["per_seed"]), key=int)
        if not seeds:
            raise ValueError(f"{name}: the two files share no seed")
        for metric in sorted(set(old["per_seed"][seeds[0]]) & set(new["per_seed"][seeds[0]])):
            direction = better.get(metric)
            if direction not in ("lower", "higher"):
                raise ValueError(f"no direction for metric {metric!r} in BENCHMARK.json")
            sign = 1.0 if direction == "higher" else -1.0
            before = [old["per_seed"][s][metric] for s in seeds]
            after = [new["per_seed"][s][metric] for s in seeds]
            q1, q3 = _quartiles(before)
            wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
            gap = sign * (statistics.median(after) - statistics.median(before))
            rows.append({
                "workload": name,
                "metric": metric,
                "better": direction,
                "pairs": len(seeds),
                "parent_median": statistics.median(before),
                "change_median": statistics.median(after),
                "parent_iqr": q3 - q1,
                "wins": wins,
                "gain": 10 * wins >= 9 * len(seeds) and gap > q3 - q1,
            })
    return rows


def _print_comparison(rows: list[dict]) -> None:
    print("workload      metric        better  pairs  parent_median  change_median  "
          "parent_iqr   won    gain")
    for row in rows:
        print(
            f"{row['workload']:<13} {row['metric']:<13} {row['better']:<7} {row['pairs']:>5}  "
            f"{row['parent_median']:>13.6g}  {row['change_median']:>13.6g}  "
            f"{row['parent_iqr']:>10.4g}  {row['wins']:>2}/{row['pairs']:<2}  "
            f"{'yes' if row['gain'] else 'no'}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tag", help="names the output file BENCH_<tag>.json")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                      help="compare two BENCH_<tag>.json files pair by pair")
    parser.add_argument("--src", type=Path, default=ROOT / "perfbench" / "out")
    args = parser.parse_args(argv)
    if args.compare:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        try:
            rows = compare(
                *(json.loads(path.read_text()) for path in args.compare),
                {metric["name"]: metric["better"] for metric in declared},
            )
        except ValueError as exc:
            print(f"bench_condense: {exc}", file=sys.stderr)
            return 2
        _print_comparison(rows)
        return 0
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
