"""``live-race``: one client streams a simulated Indy500 race into a session.

One operation is one lap POST to ``/v1/sessions/<id>/lap``.  A round is one
whole race (200 laps, 33 cars) in a fresh session, closed with a drain;
the timed phase runs whole rounds until ``--seconds`` have passed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import checks
from common import EVENT, MODEL_NAME, YEAR, derive_seed, simulate_race

HORIZON = 2
N_SAMPLES = 100
MIN_HISTORY = 10
#: the oracle reads future covariates: an origin is final only once the
#: shift lag (2) plus the horizon have been observed
DELAY = 2 + HORIZON
#: laps of the untimed warm-up session (same seed as the timed sessions)
WARMUP_LAPS = 40


class Inputs:
    """The race the client streams, derived from the workload seed."""

    def __init__(self, seed: int) -> None:
        from repro.serving import wire

        self.race = simulate_race(seed, "live-race", full_field=True)
        self.session_seed = derive_seed(seed, "live-session")
        # records are put in wire form once, outside the timed phase
        self.laps = [
            (lap, [wire.lap_record_to_wire(record) for record in records])
            for lap, records in self.race.iter_laps()
        ]
        self.laps_per_car = {car: len(self.race.car_laps(car)) for car in self.race.car_ids()}

    def open(self, client):
        return client.open_session(
            MODEL_NAME,
            horizon=HORIZON,
            n_samples=N_SAMPLES,
            min_history=MIN_HISTORY,
            rng=self.session_seed,
            delay=DELAY,
            event=EVENT,
            year=YEAR,
        )


def stream_round(inputs: Inputs, client, ops: List[Tuple[float, float]]) -> checks.Emitted:
    """One whole race in a fresh session; appends each lap POST's interval."""
    emitted: checks.Emitted = []
    session = inputs.open(client)
    for lap, records in inputs.laps:
        start = time.perf_counter()
        emitted.extend(session.lap(lap, records))
        ops.append((start, time.perf_counter()))
    emitted.extend(session.close(drain=True))
    return emitted


def warm_up(inputs: Inputs, client) -> checks.Emitted:
    """A partial session with the timed sessions' seed, closed undrained."""
    emitted: checks.Emitted = []
    session = inputs.open(client)
    for lap, records in inputs.laps[:WARMUP_LAPS]:
        emitted.extend(session.lap(lap, records))
    session.close(drain=False)
    return emitted


def run_rounds(inputs: Inputs, client, seconds: float, after_first=None):
    """Timed phase: whole races until ``seconds`` have passed.

    ``after_first`` is called once, when the first race has ended.
    """
    ops: List[Tuple[float, float]] = []
    rounds: List[checks.Emitted] = []
    start = time.perf_counter()
    while True:
        rounds.append(stream_round(inputs, client, ops))
        if after_first is not None and len(rounds) == 1:
            after_first()
        if time.perf_counter() - start >= seconds:
            break
    return ops, rounds, time.perf_counter() - start


def check(inputs: Inputs, reference: checks.Emitted, rounds: List[checks.Emitted]) -> Tuple[Dict[str, list], dict]:
    race = inputs.race
    expected = checks.expected_origins(inputs.laps_per_car, MIN_HISTORY, HORIZON, race.num_laps)
    ranks = checks.ranks_from_elapsed(race.car_id, race.lap, race.elapsed_time)
    scores = checks.forecast_scores(rounds[0], ranks, HORIZON)
    failures = {
        "origins": checks.check_live_origins(rounds[0], expected, N_SAMPLES, HORIZON),
        "skill": checks.check_forecast_skill(scores),
        "same_seed_identical": checks.check_identical_samples(reference, rounds[0]),
    }
    for other in rounds[1:]:
        failures["same_seed_identical"] += checks.check_identical_samples(rounds[0], other)
    return failures, {
        "origins_expected": len(expected),
        "origins_emitted": len(rounds[0]),
        "scores": scores,
    }


def attempted_ops(inputs: Inputs, rounds: int) -> int:
    return rounds * len(inputs.laps)
