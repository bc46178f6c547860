"""``scenario-sweep``: one client POSTs a caution-hazard grid to ``/v1/scenarios``.

One operation is one streamed ``scenario-race`` event; its time runs from
the previous streamed event (the ``scenario-start`` event for the first
race) to its own arrival.  A round is one whole request; the timed phase
runs whole rounds, all with the same seed, until ``--seconds`` have passed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import checks
from common import EVENT, MODEL_NAME, YEAR, derive_seed

HAZARD_SCALES = [0.5, 1.0, 2.0]
#: an odd number of distinct races per round puts the median operation inside
#: one race's samples instead of on the boundary between two
REPLICAS = 3
JOBS = len(HAZARD_SCALES) * REPLICAS
FIELD = set(range(1, 34))


class Inputs:
    def __init__(self, seed: int) -> None:
        self.seed = derive_seed(seed, "scenario-sweep")
        self.spec = {
            "scenario": "caution-hazard-sweep",
            "kind": "caution",
            "races": [{"event": EVENT, "year": YEAR}],
            "replicas": REPLICAS,
            # cautions retire no car, so the forecast work of a race varies
            # less with the seed
            "grid": {"caution_hazard_scale": HAZARD_SCALES, "caution_retirement_prob": [0.0]},
            "forecast": {
                "model": MODEL_NAME,
                "origins": {"start": 20, "stop": 180, "stride": 20},
                "horizon": 2,
                "n_samples": 10,
            },
        }


def stream_round(inputs: Inputs, client, ops: List[Tuple[float, float]]) -> List[dict]:
    """One whole scenario request; appends each race event's interval."""
    events: List[dict] = []
    previous = time.perf_counter()
    for document in client.scenario_stream(inputs.spec, inputs.seed):
        now = time.perf_counter()
        if document.get("kind") == "scenario-race":
            ops.append((previous, now))
        previous = now
        events.append(document)
    return events


def warm_up(inputs: Inputs, client) -> List[dict]:
    return stream_round(inputs, client, [])


def run_rounds(inputs: Inputs, client, seconds: float, after_first=None):
    ops: List[Tuple[float, float]] = []
    rounds: List[List[dict]] = []
    start = time.perf_counter()
    while True:
        rounds.append(stream_round(inputs, client, ops))
        if after_first is not None and len(rounds) == 1:
            after_first()
        if time.perf_counter() - start >= seconds:
            break
    return ops, rounds, time.perf_counter() - start


def check(inputs: Inputs, reference: List[dict], rounds: List[List[dict]]) -> Tuple[Dict[str, list], dict]:
    from repro.scenarios.spec import POINTS_TABLE

    failures = {"stream": [], "same_seed_identical": []}
    for events in rounds:
        failures["stream"] += checks.check_scenario_stream(events, JOBS, FIELD, POINTS_TABLE)
        failures["same_seed_identical"] += checks.check_same_documents(reference, events)
    races = [e for e in rounds[0] if e.get("kind") == "scenario-race"]
    return failures, {"races_per_round": len(races), "rounds": len(rounds)}


def attempted_ops(inputs: Inputs, rounds: int) -> int:
    return rounds * JOBS
