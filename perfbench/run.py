"""Benchmark entry point.

    python3 perfbench/run.py --workload live-race --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` the program
runs as its own process (``repro-serve`` for the serving workloads, the
training worker for ``train-epoch``) and the last line of standard output
is a JSON object with the end-to-end metrics.  With ``--trace 1`` the
workload runs inside this process with spans around the program's layers
and the last line carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import check_checkout, pin_blas  # noqa: E402

pin_blas()

WORKLOADS = ("live-race", "scenario-sweep", "train-epoch")


def run_serving(workload: str, seed: int, seconds: float) -> dict:
    """A serving workload against ``repro-serve`` launched as a subprocess."""
    from common import (
        cpu_seconds,
        e2e_metrics,
        latency_summary,
        model_store,
        new_run_dir,
        peak_rss_mb,
        steal_share,
        steal_ticks,
        stop_process,
    )
    from repro.serving import ForecastClient, ServerError
    from serve import launch_measured, workload_module

    module = workload_module(workload)
    run_dir = new_run_dir()
    try:
        store = model_store(run_dir)
        inputs = module.Inputs(seed)
        proc, port, setup_s, setup_all = launch_measured(run_dir, store)
        try:
            client = ForecastClient(port=port, timeout_s=120.0)
            reference = module.warm_up(inputs, client)
            cpu0, steal0 = cpu_seconds(proc.pid), steal_ticks()
            peaks = []
            try:
                ops, rounds, timed_s = module.run_rounds(
                    inputs, client, seconds, after_first=lambda: peaks.append(peak_rss_mb(proc.pid))
                )
            except (ServerError, OSError) as exc:
                raise SystemExit(f"perfbench: {workload} operation failed: {exc}") from exc
            cpu_s = cpu_seconds(proc.pid) - cpu0
            stolen = steal_share(steal0, steal_ticks())
            peaks.append(peak_rss_mb(proc.pid))
        finally:
            stop_process(proc)
        failures, details = module.check(inputs, reference, rounds)
        latencies = [end - start for start, end in ops]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "attempted": module.attempted_ops(inputs, len(rounds)),
        "completed": len(latencies),
        "failures": failures,
        # the gateway keeps memory from every closed session, so the peak at
        # the end of the run grows with the number of rounds a host fits in
        # it; the bounded peak is the one after the first timed round
        "metrics": e2e_metrics(latencies, timed_s, cpu_s, peaks[0], setup_s),
        "report": {
            "rounds": len(rounds),
            "timed_s": timed_s,
            "host_steal_share": stolen,
            "setup_launches_s": setup_all,
            "peak_rss_end_of_run_mb": peaks[-1],
            "latency": latency_summary(latencies),
            **details,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()

    from common import host_fingerprint

    if args.trace:
        import traced

        outcome = traced.run(args.workload, args.seed, args.seconds)
    elif args.workload == "train-epoch":
        import train

        outcome = train.run(args.seed, args.seconds)
    else:
        outcome = run_serving(args.workload, args.seed, args.seconds)

    failures = {name: errors for name, errors in outcome["failures"].items() if errors}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        "attempted": outcome["attempted"],
        "failed": outcome["attempted"] - outcome["completed"],
        "checks": {name: ("FAIL: " + "; ".join(errors[:3])) if errors else "ok"
                   for name, errors in outcome["failures"].items()},
        **outcome["report"],
    }
    print(json.dumps(report, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": outcome["attempted"],
                "failed": outcome["attempted"] - outcome["completed"],
                "metrics": outcome["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
