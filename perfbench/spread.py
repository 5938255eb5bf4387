#!/usr/bin/env python3
"""Repeat one workload over several seeds and report how steady it is.

Usage, from the repository root:

    python3 perfbench/spread.py --workload sweep-export --runs 10

Runs ``run.py`` once per seed (``--first-seed``, ``--first-seed + 1``, ...),
one run at a time, and prints for each metric of the run's JSON line the
median of the runs, its quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile distance as a share of the median, next to the metric's
bound in BENCHMARK.json.  For the pass timings it also pools every pass of
every run and prints the median, the highest percentile with at least ten
samples above it, and the sample count.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, DEFAULT_SECONDS, ROOT, tail_percentile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    pooled: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        path = next(line.split(": ", 1)[1] for line in lines
                    if line.startswith("results: "))
        for p in json.loads((ROOT / path).read_text())["passes"]:
            if not p["traced"]:
                for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                    pooled.setdefault(name, []).append(p[name])
        print(f"seed {seed}: " + "  ".join(
            f"{n} {m['value']:.6g}" for n, m in result["metrics"].items()
            if n in bounds and bounds[n] is not None), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s, trace {args.trace}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"bound {bound}  " + ("steady" if share < bound / 3 else
                                  "within bound" if share <= bound else "TOO WIDE"))
        print(f"  {name:40s} median {median:12.6g} {units[name]:10s} "
              f"q1 {q1:10.6g} q3 {q3:10.6g} spread {share:7.2%}  {verdict}")
    for name, samples in pooled.items():
        tp = tail_percentile(samples)
        print(f"  pooled {name:12s} median {statistics.median(samples):.6g} "
              + (f"p{tp[0]} {tp[1]:.6g} " if tp else "") + f"n={len(samples)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
