"""``--trace 1``: the workload in this process, once plain and once traced.

The serving workloads run the gateway in-process (``ForecastServer`` on a
thread) with the same client as the end-to-end run; ``train-epoch`` runs
the training job in-process.  The untraced pass gives the baseline for
``trace.overhead_ms``; the traced pass records spans around the program's
public functions (see ``spans.py``) and yields the per-layer metrics.
Both passes must pass the workload's correctness checks and return
byte-identical outputs, since instrumentation may not change results.
"""

from __future__ import annotations

import http.client
import json
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

import checks
from common import BENCH_DIR, model_store, new_run_dir, program_env
from spans import Tracer, attribute, totals_in, traced_generator

#: per-layer metrics and their units, as ``BENCHMARK.json`` lists them
PER_LAYER = {
    metric["name"]: metric["unit"]
    for metric in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
}

IMPORTS = {
    "serving": "import repro.serving.server",
    "train": "import repro.nn, repro.models.deep.rankmodel, repro.data.windows, repro.data.loader",
}
IMPORT_REPEATS = 3
#: traced self times plus unattributed time must add up to the operation
#: time within this share
ACCOUNTING_TOLERANCE = 0.05


def import_ms(statement: str) -> float:
    """Median wall time of ``statement`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=program_env(), capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(out.stdout.strip()) * 1e3)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# span plans: where each layer's public functions are looked up
# ----------------------------------------------------------------------
def _gemm_probe(tracer: Tracer):
    import numpy as np

    def probe(args, kwargs):
        x, w = args[0], args[1]
        dtype = kwargs.get("dtype") or (kwargs["out"].dtype if kwargs.get("out") is not None else np.float64)
        m, k = int(np.prod(np.shape(x)[:-1])), np.shape(x)[-1]
        n = np.shape(w)[-1]
        counters = tracer.counters
        counters["gemm.calls"] += 1
        counters["gemm.flop"] += 2.0 * m * k * n
        counters["gemm.bytes"] += (m * k + k * n + m * n) * np.dtype(dtype).itemsize
        return None

    return probe


def _engine_probe(tracer: Tracer):
    def probe(args, kwargs):
        engine, requests = args[0], args[1]
        timings, stats = engine.timings, engine.stats
        rows = sum(request.n_samples for request in requests)

        def after(_result):
            now_t, now_s = engine.timings, engine.stats
            c = tracer.counters
            c["engine.submits"] += 1
            c["engine.rows"] += rows
            c["engine.decode_s"] += now_t["decode_s"] - timings["decode_s"]
            c["engine.warmup_s"] += now_t["warmup_s"] - timings["warmup_s"]
            c["engine.warmup_steps"] += now_s["warmup_steps"] - stats["warmup_steps"]
            c["cache.hits"] += now_s["cache_hits"] - stats["cache_hits"]
            c["cache.misses"] += now_s["cache_misses"] - stats["cache_misses"]

        return after

    return probe


def _service_probe(tracer: Tracer):
    def probe(args, kwargs):
        tracer.counters["service.batches"] += 1
        tracer.counters["service.requests"] += len(args[1])
        return None

    return probe


def _byte_counter(key: str, from_result: bool):
    def wrapper(tracer: Tracer, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if from_result:
                tracer.counters[key] += len(result)
            else:
                body = kwargs.get("body", args[3] if len(args) > 3 else None)
                tracer.counters[key] += len(body or b"")
            return result

        return counted

    return wrapper


def install_kernels(tracer: Tracer) -> None:
    from repro.nn import gru, inference, recurrent

    for module in (recurrent, gru, inference):
        tracer.patch(module, "stable_matmul", "nn.kernels.gemm", probe=_gemm_probe(tracer))


def install_serving(tracer: Tracer) -> None:
    from repro.artifacts.store import ArtifactStore
    from repro.data import features
    from repro.scenarios.engine import ScenarioEngine
    from repro.serving import client, wire
    from repro.serving.engine import FleetForecaster
    from repro.serving.journal import SessionJournal
    from repro.serving.scheduler import MicroBatchScheduler
    from repro.serving.server import ForecastGateway
    from repro.serving.service import ForecastService
    from repro.serving.sessions import RaceSession
    from repro.simulation.live import LiveRaceForecaster
    from repro.simulation.race import RaceSimulator

    patch = tracer.patch
    patch(ArtifactStore, "load_model", "artifacts.store.load")
    patch(ForecastGateway, "handle", "serving.server.handle")
    patch(RaceSession, "observe_lap", "serving.sessions.observe")
    patch(LiveRaceForecaster, "forecast_at", "simulation.live.forecast_at")
    patch(features.LiveFeatureBuilder, "observe_lap", "data.features.live")
    patch(features.LiveFeatureBuilder, "series", "data.features.live")
    patch(features, "build_race_features", "data.features.race")
    patch(FleetForecaster, "submit", "serving.engine.submit", probe=_engine_probe(tracer))
    patch(SessionJournal, "record_lap", "serving.journal.record")
    for name in ("encode_array", "decode_array", "lap_record_to_wire", "scenario_start_to_wire",
                 "scenario_race_to_wire", "scenario_summary_to_wire"):
        patch(wire, name, "serving.wire.codec")
    patch(client, "_lap_record_to_wire", "serving.wire.codec")
    patch(MicroBatchScheduler, "collect", "serving.scheduler.wait", wait=True)
    patch(ForecastService, "submit", "serving.service.submit", probe=_service_probe(tracer))
    patch(RaceSimulator, "run", "simulation.race.run")
    patch(ScenarioEngine, "run_job", "scenarios.engine.job")
    patch(http.client.HTTPConnection, "request", "", wrapper=_byte_counter("wire.request_bytes", False))
    patch(http.client.HTTPResponse, "read", "", wrapper=_byte_counter("wire.response_bytes", True))
    patch(http.client.HTTPResponse, "read1", "", wrapper=_byte_counter("wire.response_bytes", True))
    install_kernels(tracer)


def install_train(tracer: Tracer) -> None:
    import trainjob
    from repro.data.loader import BatchLoader
    from repro.models.deep.rankmodel import RankSeqModel
    from repro.nn import trainer
    from repro.nn.optimizers import Adam
    from repro.nn.recurrent import StackedLSTM

    patch = tracer.patch
    patch(trainjob, "make_windows", "data.windows.make")
    patch(trainer.Trainer, "fit", "nn.trainer.fit")
    patch(trainer, "clip_grad_norm", "nn.trainer.clip")
    patch(RankSeqModel, "loss_and_backward", "models.deep.rankmodel.loss_and_backward")
    patch(RankSeqModel, "validation_loss", "models.deep.rankmodel.validation")
    patch(StackedLSTM, "forward_sequence", "nn.recurrent.forward_sequence")
    patch(StackedLSTM, "backward_sequence", "nn.recurrent.backward_sequence")
    patch(Adam, "step", "nn.optimizers.step")
    patch(BatchLoader, "__iter__", "", wrapper=traced_generator("data.loader.batch"))
    install_kernels(tracer)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, ops: List[Tuple[float, float]], window, setup_spans) -> Tuple[dict, dict, dict]:
    """Per-layer values, their sample counts, and the time accounting."""
    n = len(ops)
    spans = tracer.spans
    c = tracer.counters
    acc = attribute(spans, ops)

    def total(name):
        ms, count = totals_in(spans, name, window)
        return ms / n, count

    def own(name):
        return acc["self_ms"].get(name, 0.0) / n, totals_in(spans, name, window)[1]

    def ratio(num, den):
        return (num / den if den else 0.0), int(den)

    values = {
        "artifacts.store.load_ms": totals_in(setup_spans, "artifacts.store.load"),
        "serving.engine.decode_ms": (c["engine.decode_s"] * 1e3 / n, int(c["engine.submits"])),
        "serving.engine.warmup_ms": (c["engine.warmup_s"] * 1e3 / n, int(c["engine.submits"])),
        "serving.engine.rows_per_submit": ratio(c["engine.rows"], c["engine.submits"]),
        "serving.engine.warmup_steps": (c["engine.warmup_steps"] / n, int(c["engine.submits"])),
        "serving.cache.hit_ratio": ratio(c["cache.hits"], c["cache.hits"] + c["cache.misses"]),
        "nn.kernels.gemm_calls": (c["gemm.calls"] / n, int(c["gemm.calls"])),
        "nn.kernels.gemm_ms": total("nn.kernels.gemm"),
        "nn.kernels.gemm_mflop": (c["gemm.flop"] / 1e6 / n, int(c["gemm.calls"])),
        "nn.kernels.gemm_mb_moved": (c["gemm.bytes"] / 1e6 / n, int(c["gemm.calls"])),
        "data.features.live_ms": total("data.features.live"),
        "data.features.race_ms": total("data.features.race"),
        "serving.journal.record_ms": total("serving.journal.record"),
        "serving.server.handle_self_ms": own("serving.server.handle"),
        "serving.wire.codec_ms": total("serving.wire.codec"),
        "serving.wire.request_kb": (c["wire.request_bytes"] / 1024 / n, n),
        "serving.wire.response_kb": (c["wire.response_bytes"] / 1024 / n, n),
        "serving.sessions.observe_self_ms": own("serving.sessions.observe"),
        "serving.scheduler.wait_ms": own("serving.scheduler.wait"),
        "serving.scheduler.requests_per_batch": ratio(c["service.requests"], c["service.batches"]),
        "serving.service.submit_ms": total("serving.service.submit"),
        "simulation.race.run_ms": total("simulation.race.run"),
        "scenarios.engine.job_self_ms": own("scenarios.engine.job"),
        "models.deep.rankmodel.loss_and_backward_ms": total("models.deep.rankmodel.loss_and_backward"),
        "nn.recurrent.forward_sequence_ms": total("nn.recurrent.forward_sequence"),
        "nn.recurrent.backward_sequence_ms": total("nn.recurrent.backward_sequence"),
        "nn.optimizers.step_ms": total("nn.optimizers.step"),
        "nn.trainer.clip_ms": total("nn.trainer.clip"),
        "data.loader.batch_ms": total("data.loader.batch"),
        "nn.trainer.self_ms": own("nn.trainer.fit"),
        "data.windows.make_ms": totals_in(setup_spans, "data.windows.make"),
        "trace.unattributed_ms": (acc["unattributed_ms"] / n, n),
    }
    epochs = c.get("train.epochs", 0)
    val_ms, _ = totals_in(spans, "models.deep.rankmodel.validation", window)
    values["models.deep.rankmodel.validation_ms"] = ((val_ms / epochs if epochs else 0.0), int(epochs))
    accounting = {
        "ops": n,
        "op_total_ms": acc["op_total_ms"],
        "self_ms_per_op": {name: ms / n for name, ms in sorted(acc["self_ms"].items(), key=lambda kv: -kv[1])},
        "unattributed_ms_per_op": acc["unattributed_ms"] / n,
        "sum_self_plus_unattributed_over_op": (sum(acc["self_ms"].values()) + acc["unattributed_ms"])
        / acc["op_total_ms"],
        "accounting_error": acc["accounting_error"],
    }
    if set(values) | {"repro.import_ms", "trace.overhead_ms"} != set(PER_LAYER):
        raise RuntimeError("the traced run and BENCHMARK.json list different per-layer metrics")
    counts = {name: count for name, (_value, count) in values.items()}
    return {name: value for name, (value, _count) in values.items()}, counts, accounting


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def serving_pass(module, inputs, store, seconds: float, tracer=None):
    """One in-process gateway: warm-up, then the timed rounds."""
    from repro.serving import ForecastClient
    from repro.serving.server import ForecastServer, ServerConfig
    from serve import server_config

    setup_spans: list = []
    config = ServerConfig.from_dict(server_config(store))
    if tracer is not None:
        tracer.clear()
    with ForecastServer(config) as server:
        server.start()
        if tracer is not None:
            setup_spans = list(tracer.spans)
        client = ForecastClient(port=server.port, timeout_s=120.0)
        reference = module.warm_up(inputs, client)
        if tracer is not None:
            tracer.clear()
        ops, rounds, _timed_s = module.run_rounds(inputs, client, seconds)
        window = (ops[0][0], ops[-1][1])
    return reference, ops, rounds, window, setup_spans


def run_serving(workload: str, seed: int, seconds: float) -> dict:
    from serve import workload_module

    module = workload_module(workload)
    run_dir = new_run_dir()
    tracer = Tracer()
    try:
        store = model_store(run_dir)
        inputs = module.Inputs(seed)
        reference, plain_ops, plain_rounds, _w, _s = serving_pass(module, inputs, store, seconds)
        install_serving(tracer)
        try:
            traced_ref, ops, rounds, window, setup_spans = serving_pass(module, inputs, store, seconds, tracer)
        finally:
            tracer.uninstall()
        failures, details = module.check(inputs, reference, plain_rounds)
        traced_failures, _ = module.check(inputs, traced_ref, rounds)
        for name, errors in traced_failures.items():
            failures[f"traced_{name}"] = errors
        failures["traced_matches_untraced"] = _same_outputs(workload, plain_rounds[0], rounds[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    values, counts, accounting = layer_metrics(tracer, ops, window, setup_spans)
    values["repro.import_ms"], counts["repro.import_ms"] = import_ms(IMPORTS["serving"]), IMPORT_REPEATS
    return _finish(values, counts, accounting, ops, plain_ops, failures, module.attempted_ops(inputs, len(rounds)),
                   details=details)


def _same_outputs(workload: str, plain, traced) -> List[str]:
    if workload == "live-race":
        errors = checks.check_identical_samples(plain, traced)
        if len(plain) != len(traced):
            errors.append("traced and untraced sessions emitted different origins")
        return errors
    return checks.check_same_documents(plain, traced)


def run_train(seed: int, seconds: float) -> dict:
    import train
    import trainjob

    run_dir = new_run_dir()
    tracer = Tracer()
    try:
        data = train.save_races(run_dir, seed)
        install_train(tracer)
        try:
            job = trainjob.TrainJob(data, seed)
        finally:
            tracer.uninstall()
        setup_spans = list(tracer.spans)
        plain = job.run(seconds)
        install_train(tracer)
        try:
            tracer.clear()
            # the same epoch count as the plain pass, so both fits must agree exactly
            result = job.run(seconds, epochs=plain["epochs"])
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    tracer.counters["train.epochs"] = result["epochs"]
    failures = train.check([result])
    failures["traced_matches_untraced"] = checks.check_same_history(
        plain["train_loss"] + plain["val_loss"], result["train_loss"] + result["val_loss"]
    )
    ops = [tuple(op) for op in result["steps"]]
    plain_ops = [tuple(op) for op in plain["steps"]]
    values, counts, accounting = layer_metrics(tracer, ops, tuple(result["window"]), setup_spans)
    values["repro.import_ms"], counts["repro.import_ms"] = import_ms(IMPORTS["train"]), IMPORT_REPEATS
    attempted = result["epochs"] * result["batches_per_epoch"]
    return _finish(values, counts, accounting, ops, plain_ops, failures, attempted, details={"epochs": result["epochs"]})


def _finish(values, counts, accounting, ops, plain_ops, failures, attempted, details) -> dict:
    traced_p50 = statistics.median(end - start for start, end in ops) * 1e3
    plain_p50 = statistics.median(end - start for start, end in plain_ops) * 1e3
    values["trace.overhead_ms"] = traced_p50 - plain_p50
    counts["trace.overhead_ms"] = len(ops)
    share = accounting["sum_self_plus_unattributed_over_op"]
    failures["trace_accounting"] = (
        [] if abs(share - 1.0) <= ACCOUNTING_TOLERANCE
        else [f"self times plus unattributed time are {share:.3f} of the operation time"]
    )
    metrics: Dict[str, dict] = {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}
    return {
        "attempted": attempted,
        "completed": len(ops),
        "failures": failures,
        "metrics": metrics,
        "report": {
            "traced_p50_ms": traced_p50,
            "untraced_p50_ms": plain_p50,
            "per_layer": {name: {"value": values[name], "unit": unit, "samples": counts[name]}
                          for name, unit in PER_LAYER.items()},
            "accounting": accounting,
            **details,
        },
    }


def run(workload: str, seed: int, seconds: float) -> dict:
    if workload == "train-epoch":
        return run_train(seed, seconds)
    return run_serving(workload, seed, seconds)
