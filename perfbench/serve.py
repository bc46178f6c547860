"""Launching ``repro-serve`` as a program subprocess and timing its set-up."""

from __future__ import annotations

import json
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

from common import MODEL_NAME, program_env, stop_process

#: launches per run whose median is ``setup_s``: one launch per run ranged
#: from 1.73 to 2.28 s on the 2-CPU reference host
SETUP_LAUNCHES = 3
READY_TIMEOUT_S = 120.0


def workload_module(workload: str):
    """The module driving one serving workload (``live`` or ``scenario``)."""
    if workload == "live-race":
        import live

        return live
    if workload == "scenario-sweep":
        import scenario

        return scenario
    raise ValueError(f"not a serving workload: {workload}")


def server_config(store: Path) -> dict:
    """Gateway defaults (in-process, journal on, 5 ms window), model preloaded."""
    return {"store": str(store), "host": "127.0.0.1", "port": 0, "preload": [MODEL_NAME]}


def launch_server(run_dir: Path, store: Path) -> Tuple[subprocess.Popen, int, float]:
    """Start ``repro-serve``; returns ``(process, port, seconds until ready)``.

    Ready means the gateway printed its listening line, which it does after
    imports, artifact load and preload: the first request can be sent.
    """
    config = run_dir / "serve.json"
    config.write_text(json.dumps(server_config(store)), encoding="utf-8")
    stderr = open(run_dir / "serve.stderr", "ab")
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.server", "--config", str(config)],
            env=program_env(),
            cwd=str(run_dir),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
    finally:
        stderr.close()
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        deadline = start + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            if not selector.select(timeout=max(deadline - time.perf_counter(), 0.0)):
                stop_process(proc)
                raise RuntimeError("repro-serve did not become ready in time")
            chunk = proc.stdout.read1(4096)
            if not chunk:
                stop_process(proc)
                raise RuntimeError("repro-serve exited before listening; see serve.stderr")
            line += chunk
    ready = time.perf_counter() - start
    text = line.decode("utf-8", "replace")
    try:
        port = int(text.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    except (IndexError, ValueError) as exc:
        stop_process(proc)
        raise RuntimeError(f"unexpected repro-serve banner: {text!r}") from exc
    return proc, port, ready


def launch_measured(run_dir: Path, store: Path) -> Tuple[subprocess.Popen, int, float, List[float]]:
    """Launch ``SETUP_LAUNCHES`` gateways one after another; keep the last.

    Returns the kept process, its port, the median set-up time and every
    launch's set-up time.
    """
    times: List[float] = []
    for i in range(SETUP_LAUNCHES):
        proc, port, ready = launch_server(run_dir, store)
        times.append(ready)
        if i + 1 < SETUP_LAUNCHES:
            stop_process(proc)
    return proc, port, statistics.median(times), times
