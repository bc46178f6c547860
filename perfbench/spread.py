"""Repeat the benchmark and print each end-to-end metric's spread next to its bound.

    python3 perfbench/spread.py --workload live-race --runs 10 [--first-seed 1] [--seconds N]

Runs ``perfbench/run.py`` once per seed (seeds ``first-seed .. first-seed +
runs - 1``) from the checkout root and prints, for every end-to-end
metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance as a share
of the median, and the metric's bound from ``BENCHMARK.json``.  A spread
above a third of its bound is flagged: set bounds from these figures, not
the other way round.  ``setup_s`` is listed but its spread is not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        result = run_once(args.workload, seed, args.seconds)
        wall = time.perf_counter() - start
        results.append(result)
        values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        print(f"seed {seed}: {wall:.1f} s correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, failed shares {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    worst = 0.0
    for metric in config["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        gated = name != "setup_s"
        flag = "  > bound/3" if gated and share > metric["bound"] / 3 else ""
        if gated:
            worst = max(worst, share / metric["bound"])
        print(f"{name:<20} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {share:>8.4f} {metric['bound']:>6}{flag}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
