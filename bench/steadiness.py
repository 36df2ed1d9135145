#!/usr/bin/env python3
"""Run the benchmark once per seed and measure how steady it is.

    python3 bench/steadiness.py --out set1.json                 # seeds 1-10
    python3 bench/steadiness.py --first-seed 11 --out set2.json
    python3 bench/steadiness.py --compare set1.json set2.json
    python3 bench/steadiness.py --trace 1 --runs 2 --out traced.json

For each workload and metric it reports the median of the runs and the
spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  An
end-to-end metric is steady when its spread stays below a third of its
bound in BENCHMARK.json.  The benchmark contract does not hold setup_s
to its bound within a set, only across sets; its spread is shown all
the same.  Every run takes `run_seconds` from BENCHMARK.json.
`--compare` checks that no median of the second set is worse than the
first by more than the bound, and that every count repeats exactly.  The pass-time tail pools the pass samples of all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES, run_once, tail  # noqa: E402


BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def spec() -> dict:
    return {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def summarize(values) -> dict:
    if any(v is None for v in values):
        return {"values": values, "median": None, "spread": None}
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median,
            "spread": (q3 - q1) / median if median else 0.0}


def measure(args) -> dict:
    metrics = spec()
    seconds = BENCH["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace,
              "seeds": list(range(args.first_seed,
                                  args.first_seed + args.runs)),
              "workloads": {}}
    for workload in WORKLOAD_NAMES:
        results, passes = [], []
        for seed in report["seeds"]:
            code, result, samples = run_once(workload, seed, seconds,
                                             args.trace)
            if result is None:
                raise SystemExit(f"{workload} seed {seed}: exit code {code}, "
                                 "no result")
            results.append(result)
            passes += samples
        entry = {key: summarize([r["metrics"][key]["value"] for r in results])
                 for key in results[0]["metrics"]}
        pass_tail = tail(passes)
        entry["_runs"] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "pass_s_tail": None if pass_tail is None else {
                "percentile": pass_tail[0], "value": pass_tail[1],
                "samples": len(passes)},
        }
        report["workloads"][workload] = entry
        for key, summary in entry.items():
            if key.startswith("_"):
                continue
            bound = metrics.get(key, {}).get("bound")
            flag = ""
            if metrics.get(key, {}).get("unit") == "count":
                flag = ("repeats exactly" if len(set(summary["values"])) == 1
                        else "COUNTS DIFFER")
            elif bound and summary["spread"] is not None:
                flag = ("OVER BOUND" if summary["spread"] > bound else
                        "over a third of bound"
                        if summary["spread"] > bound / 3 else "steady")
            print(f"{workload:<9} {key:<45} median {summary['median']!s:>22}"
                  f"  spread {summary['spread']!s:>22}  {flag}", flush=True)
        print(f"{workload:<9} runs {entry['_runs']}", flush=True)
    return report


def compare(first_path, second_path) -> int:
    metrics = spec()
    first = json.loads(Path(first_path).read_text())["workloads"]
    second = json.loads(Path(second_path).read_text())["workloads"]
    status = 0
    for workload, entry in first.items():
        for key, a in entry.items():
            if key.startswith("_") or key not in second.get(workload, {}):
                continue
            b = second[workload][key]
            m = metrics.get(key, {})
            if m.get("unit") == "count":
                ok = a["values"] == b["values"]
                verdict = "repeats exactly" if ok else "COUNTS DIFFER"
            elif "bound" in m:
                change = (b["median"] - a["median"]) / a["median"]
                worse = change if m["better"] == "lower" else -change
                ok = worse <= m["bound"]
                verdict = (f"change {change:+.2%} (bound {m['bound']:.0%}) "
                           + ("ok" if ok else "WORSE"))
            else:
                continue
            status |= not ok
            print(f"{workload:<9} {key:<45} {verdict}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    report = measure(args)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
