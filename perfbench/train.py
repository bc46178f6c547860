"""``train-epoch`` end-to-end run: training workers as program processes.

Three workers are launched one after another; each launch is one set-up
sample, and each worker then runs a third of the timed phase: a warm-up
epoch, then a timed fit from the same seed with the epoch count the first
worker chose (at least two).  Spreading the timed steps over three
processes keeps one process's memory layout or one noisy stretch of the
host from setting the run's figures; the three fits are identical
computations, so their loss histories must agree exactly.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import checks
from common import (
    BENCH_DIR,
    e2e_metrics,
    latency_summary,
    new_run_dir,
    peak_rss_mb,
    program_env,
    simulate_race,
    steal_share,
    steal_ticks,
    stop_process,
)

#: three training races and one validation race per seed
RACES = 4
WORKERS = 3


def save_races(run_dir: Path, seed: int) -> Path:
    data = run_dir / "races"
    data.mkdir()
    for i in range(RACES):
        simulate_race(seed, "train-epoch", str(i)).save(str(data / f"race{i}.npz"))
    return data


def launch_worker(data: Path, seed: int, run_dir: Path) -> Tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it is ready."""
    start = time.perf_counter()
    stderr = open(run_dir / "worker.stderr", "ab")
    try:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "train_worker.py"), str(data), str(seed)],
            env=program_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
        )
    finally:
        stderr.close()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line or not json.loads(line).get("ready"):
        stop_process(proc)
        raise SystemExit("perfbench: training worker failed to start; see worker.stderr")
    return proc, ready


def run_worker(
    data: Path, seed: int, run_dir: Path, seconds: float, probes: bool, epochs: Optional[int]
) -> Tuple[dict, float, float]:
    """One worker's share: returns its result, set-up time and peak RSS."""
    proc, ready = launch_worker(data, seed, run_dir)
    try:
        proc.stdin.write(json.dumps({"seconds": seconds, "probes": probes, "epochs": epochs}) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the training worker died; see worker.stderr")
        peak = peak_rss_mb(proc.pid)
        proc.wait(timeout=60)
    finally:
        stop_process(proc)
    return json.loads(line), ready, peak


def check(results: List[dict]) -> dict:
    """Checks over every worker's result; the first one carries the probes."""
    probed = results[0]
    failures = {
        "gradients": checks.check_gradients(probed["grad_analytic"], probed["grad_numeric"]),
        "loss_history": [e for r in results for e in checks.check_loss_history(r["train_loss"], r["val_loss"])],
        "same_seed_history": checks.check_same_history(*probed["histories"]),
    }
    for other in results[1:]:
        failures["same_seed_history"] += checks.check_same_history(
            probed["train_loss"] + probed["val_loss"], other["train_loss"] + other["val_loss"]
        )
    return failures


def run(seed: int, seconds: float) -> dict:
    run_dir = new_run_dir()
    try:
        data = save_races(run_dir, seed)
        results, setups, peaks = [], [], []
        steal0 = steal_ticks()
        for i in range(WORKERS):
            epochs = results[0]["epochs"] if results else None
            result, ready, peak = run_worker(data, seed, run_dir, seconds / WORKERS, probes=i == 0, epochs=epochs)
            results.append(result)
            setups.append(ready)
            peaks.append(peak)
        stolen = steal_share(steal0, steal_ticks())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steps = [end - start for r in results for start, end in r["steps"]]
    timed_s = sum(r["timed_s"] for r in results)
    cpu_s = sum(r["cpu_s"] for r in results)
    return {
        "attempted": sum(r["epochs"] * r["batches_per_epoch"] for r in results),
        "completed": len(steps),
        "failures": check(results),
        "metrics": e2e_metrics(steps, timed_s, cpu_s, max(peaks), statistics.median(setups)),
        "report": {
            "epochs_per_worker": [r["epochs"] for r in results],
            "batches_per_epoch": results[0]["batches_per_epoch"],
            "timed_s": timed_s,
            "host_steal_share": stolen,
            "warm_epoch_s": [r["warm_epoch_s"] for r in results],
            "setup_launches_s": setups,
            "latency": latency_summary(steps),
            "train_loss": results[0]["train_loss"],
            "val_loss": results[0]["val_loss"],
        },
    }
