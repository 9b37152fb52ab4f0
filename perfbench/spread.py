"""Run the benchmark once per seed, in one or more sets of seeds, and
summarise each end-to-end metric per set: median, quartiles, and the
quartile spread as a share of the median, set against the bound in
BENCHMARK.json.  With two or more sets it also gives each metric's
median change from the first set to the last.  Then it makes one
traced run per workload, at the first seed, for the per-layer metrics.

    python3 perfbench/spread.py --workload infer_eval --seeds 1-10 \\
        [--seeds 11-20] [--out FILE]

Runs are sequential, each a separate ``perfbench/run.py`` process with
the ``run_seconds`` of BENCHMARK.json.  The file --out writes is the
format of BENCH_baseline.json, which this command made with every
workload and the seed sets 1-10 and 11-20.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run.py process, plus its record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.work_dir(workload, seed, bool(trace)),
                           "record.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    print(workload, seed, json.dumps(
        {k: round(v["value"], 4) for k, v in line["metrics"].items()}),
        file=sys.stderr)
    return {"line": line, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=run.workloads.NAMES)
    parser.add_argument("--seeds", action="append",
                        help="a seed range such as 1-10; repeat for "
                             "more sets (default 1-10)")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    sets = args.seeds or ["1-10"]
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    end_to_end, reported, per_layer = {}, {}, {}
    provenance = None
    for workload in args.workload:
        results, figures = [], {}
        for seeds in sets:
            runs = [run_once(workload, seed, seconds, 0)
                    for seed in seeds_of(seeds)]
            results.append({
                "seeds": seeds,
                "failed": sum(r["line"]["failed"] for r in runs),
                "attempted": sum(r["line"]["attempted"] for r in runs),
                "metrics": {n: summary([r["line"]["metrics"][n]["value"]
                                        for r in runs]) for n in bounds},
            })
            for r in runs:
                for name, value in r["record"]["reported"].items():
                    figures.setdefault(name, []).append(value)
        first, last = results[0]["metrics"], results[-1]["metrics"]
        end_to_end[workload] = {
            "sets": results,
            "median_change": {n: last[n]["median"] / first[n]["median"] - 1
                              for n in bounds},
        }
        reported[workload] = figures
        for result in results:
            for name, s in result["metrics"].items():
                print(f"{workload} {result['seeds']} {name} median "
                      f"{s['median']:.6g} spread {s['spread']:.4f} = "
                      f"{s['spread'] / bounds[name]:.2f} of bound "
                      f"{bounds[name]}")
        if len(results) > 1:
            for name, change in end_to_end[workload]["median_change"].items():
                print(f"{workload} {name} median change {change:+.4f}")
        traced = run_once(workload, seeds_of(sets[0])[0], seconds, 1)
        per_layer[workload] = {"seed": seeds_of(sets[0])[0],
                               "failed": traced["line"]["failed"],
                               "attempted": traced["line"]["attempted"],
                               "metrics": traced["line"]["metrics"]}
        provenance = {k: v for k, v in traced["record"]["provenance"].items()
                      if k != "seed"}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "what": (
                    "end_to_end: per workload, one untraced run per seed "
                    f"in each set of seeds ({', '.join(sets)}), "
                    f"--seconds {seconds}; spread = (q3 - q1) / median; "
                    "median_change = last set's median / first set's "
                    "median - 1.  reported: the per-workload figures of "
                    "every seed, sets in order.  per_layer: one traced run "
                    "per workload at the first seed."),
                "provenance": provenance, "end_to_end": end_to_end,
                "reported": reported, "per_layer": per_layer,
            }, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
