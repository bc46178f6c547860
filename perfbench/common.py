"""Shared plumbing of the benchmark: paths, host fingerprint, process
accounting, statistics, seeded inputs and the fitted model fixture.

Everything here runs from the root of a source checkout: the program is
imported from ``src/`` and every file the benchmark writes lives under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"

#: every program process (and the benchmark itself) runs single-threaded
#: BLAS: with two threads on a 2-CPU host, training burned 19-19.8 s of CPU
#: for 10-10.9 s of wall time and the timings followed the host's load
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MODEL_NAME = "ranknet-oracle"
EVENT, YEAR = "Indy500", 2018
#: RankNet-Oracle at the Table IV shape
MODEL_SHAPE = dict(encoder_length=60, decoder_length=2, hidden_dim=40, num_layers=2)
#: the model fixture is fitted from these races, whatever the workload seed
FIT_RACE_SEEDS = (9001, 9002, 9003, 9004, 9005, 9006)
FIT_EPOCHS = 3
FIT_WINDOWS = 1500

CLK_TCK = os.sysconf("SC_CLK_TCK")


def pin_blas() -> None:
    """Pin this process's BLAS threads; call before numpy is imported."""
    os.environ.update(PINNED_ENV)


def program_env() -> Dict[str, str]:
    """Environment of a program subprocess: pinned BLAS, ``src`` importable."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def check_checkout() -> None:
    """Refuse to run outside a checkout that holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}; run from a checkout root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seed(seed: int, *tags: str) -> int:
    """A 32-bit seed derived from the workload seed and a purpose tag."""
    digest = hashlib.sha256(json.dumps([int(seed), *tags]).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


# ----------------------------------------------------------------------
# host and process accounting
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # older numpy builds
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {key: os.environ.get(key) for key in sorted(PINNED_ENV)},
        "numpy": np.__version__,
        "numpy_blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
    }


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def steal_ticks() -> tuple:
    """``(steal, total)`` CPU ticks of the whole host from ``/proc/stat``.

    On a virtual machine, time stolen by the hypervisor is the main source
    of run-to-run noise; each run reports its share of the timed phase.
    """
    with open("/proc/stat", "r", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before: tuple, after: tuple) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop_process(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Terminate a program process and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=grace_s)
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: Sequence[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With fewer than forty samples no percentile is a tail, so none is
    reported.
    """
    n = len(samples)
    if n < 40:
        return {"samples": n, "percentile": None, "value": None}
    ordered = sorted(samples)
    # largest p (in whole percent) such that n * (1 - p/100) >= 10
    pct = min(99.9, int(100 * (1 - 10 / n) * 10) / 10)
    index = min(n - 1, int(round(pct / 100 * (n - 1))))
    return {"samples": n, "percentile": pct, "value": ordered[index], "beyond": n - 1 - index}


def latency_summary(latencies_s: Sequence[float]) -> dict:
    ms = [x * 1e3 for x in latencies_s]
    tail = tail_percentile(ms)
    return {"p50_ms": statistics.median(ms), "tail": tail}


def e2e_metrics(
    latencies_s: Sequence[float],
    timed_s: float,
    cpu_s: float,
    peak_mb: float,
    setup_s: float,
) -> Dict[str, dict]:
    ops = len(latencies_s)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_p50_ms": {"value": statistics.median(latencies_s) * 1e3, "unit": "ms"},
        "throughput_per_s": {"value": ops / timed_s, "unit": "1/s"},
        "cpu_ms_per_op": {"value": cpu_s * 1e3 / ops, "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


# ----------------------------------------------------------------------
# seeded inputs and the model fixture
# ----------------------------------------------------------------------
def simulate_race(seed: int, *tags: str, full_field: bool = False):
    """One Indy500 race (33 cars, 200 laps) from a derived seed.

    With ``full_field`` no car retires, so every lap carries all 33 cars
    and the work per lap does not depend on the seed; the seed still
    decides pit stops, cautions and the running order.
    """
    from dataclasses import replace

    import numpy as np

    from repro.simulation import RaceSimulator, track_for_year
    from repro.simulation.caution import CautionGenerator
    from repro.simulation.driver import generate_field

    track = track_for_year(EVENT, YEAR)
    rng = np.random.default_rng(derive_seed(seed, *tags))
    if not full_field:
        return RaceSimulator(track, event=EVENT, year=YEAR, seed=rng).run()
    drivers = [replace(d, reliability=1.0) for d in generate_field(track.num_cars, rng)]
    cautions = CautionGenerator(track, rng, retirement_prob=0.0)
    return RaceSimulator(track, event=EVENT, year=YEAR, drivers=drivers, seed=rng, caution_generator=cautions).run()


def _fixture_key() -> str:
    """Content hash of the program sources and of this fit recipe."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()[:16]


def fit_model():
    """RankNet-Oracle fitted from the fixed fixture races."""
    from repro.data.features import build_race_features
    from repro.models import RankNetForecaster

    series = [
        s
        for seed in FIT_RACE_SEEDS
        for s in build_race_features(simulate_race(seed, "fit"))
    ]
    model = RankNetForecaster(
        variant="oracle",
        epochs=FIT_EPOCHS,
        batch_size=64,
        max_train_windows=FIT_WINDOWS,
        seed=0,
        **MODEL_SHAPE,
    )
    return model.fit(series)


def model_store(run_dir: Path) -> Path:
    """A fresh artifact store holding the fitted model, inside ``run_dir``.

    The fit runs once per checkout and source state (keyed by a hash of
    ``src/``); every run then copies the cached store so session journals
    never outlive the run that wrote them.
    """
    from repro.artifacts import ArtifactStore

    cached = WORK / f"model-{_fixture_key()}"
    if not cached.is_dir():
        WORK.mkdir(parents=True, exist_ok=True)
        staging = WORK / f"staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        ArtifactStore(str(staging)).save_model(MODEL_NAME, fit_model())
        os.replace(staging, cached)
    store = run_dir / "store"
    shutil.copytree(cached, store)
    return store


def new_run_dir() -> Path:
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir
