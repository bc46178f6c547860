"""Correctness checks of the benchmark's workload outputs.

Every check is a pure function over plain data (numpy arrays, wire
documents, loss lists) that returns a list of failure messages, empty when
the output is correct.  None of them copies the program's current output:
expected values come from the documented session rules, from ranks this
module recomputes from cumulative lap times, from the benchmark's own
aggregation of streamed events, or from central finite differences.
``test_perfbench_checks.py`` feeds each check deliberately corrupted
outputs.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

Emitted = List[Tuple[int, Dict[int, np.ndarray]]]


# ----------------------------------------------------------------------
# live-race
# ----------------------------------------------------------------------
def ranks_from_elapsed(
    car_id: np.ndarray, lap: np.ndarray, elapsed: np.ndarray
) -> Dict[Tuple[int, int], int]:
    """``(car, lap) -> rank``: order of cumulative time among a lap's cars."""
    ranks: Dict[Tuple[int, int], int] = {}
    for this_lap in np.unique(lap):
        rows = np.flatnonzero(lap == this_lap)
        order = rows[np.argsort(elapsed[rows], kind="stable")]
        for position, row in enumerate(order, start=1):
            ranks[(int(car_id[row]), int(this_lap))] = position
    return ranks


def expected_origins(
    laps_per_car: Mapping[int, int], min_history: int, horizon: int, total_laps: int
) -> Dict[int, set]:
    """Origins an open-ended, drained session emits, with their cars.

    Session rules (``docs/wire-protocol.md``, ``RaceSession``): origins run
    from ``min_history`` up to ``last lap - horizon - 1`` (the drain bound
    of an open-ended session); a car is forecast at origin ``O`` when its
    series reaches past ``O + 1``; an origin with no such car is consumed
    without being emitted.  (``delay`` decides *when* an origin is emitted,
    not *whether*.)
    """
    out: Dict[int, set] = {}
    for origin in range(min_history, total_laps - horizon):
        cars = {car for car, laps in laps_per_car.items() if origin < laps - 1}
        if cars:
            out[origin] = cars
    return out


def check_live_origins(
    emitted: Emitted, expected: Mapping[int, set], n_samples: int, horizon: int
) -> List[str]:
    errors: List[str] = []
    seen: Dict[int, int] = {}
    for origin, forecasts in emitted:
        seen[origin] = seen.get(origin, 0) + 1
        want = expected.get(origin)
        if want is None:
            errors.append(f"origin {origin} emitted but not promised by the session rules")
            continue
        if set(forecasts) != want:
            missing = sorted(want - set(forecasts))
            extra = sorted(set(forecasts) - want)
            errors.append(f"origin {origin}: cars missing {missing}, unexpected {extra}")
        for car, samples in forecasts.items():
            samples = np.asarray(samples)
            if samples.shape != (n_samples, horizon):
                errors.append(f"origin {origin} car {car}: shape {samples.shape}")
            elif not np.all(np.isfinite(samples)):
                errors.append(f"origin {origin} car {car}: non-finite samples")
    duplicates = sorted(o for o, count in seen.items() if count > 1)
    if duplicates:
        errors.append(f"origins emitted more than once: {duplicates[:5]}")
    missing = sorted(set(expected) - set(seen))
    if missing:
        errors.append(f"{len(missing)} promised origins never emitted, first {missing[:5]}")
    return errors


def forecast_scores(
    emitted: Emitted, ranks: Mapping[Tuple[int, int], int], horizon: int
) -> Dict[str, float]:
    """Mean absolute rank error of the forecasts and of two naive predictors.

    The series of a car holds lap ``i + 1`` at index ``i``, so step ``h`` of
    origin ``O`` forecasts the rank at lap ``O + 1 + h``.  The forecast is
    the sample median.  ``midfield`` predicts the middle of the field
    running that lap; ``current`` (reported, not gated) keeps the rank at
    the origin lap.
    """
    field_size: Dict[int, int] = {}
    for _car, lap in ranks:
        field_size[lap] = field_size.get(lap, 0) + 1
    model, midfield, current = [], [], []
    for origin, forecasts in emitted:
        for car, samples in forecasts.items():
            samples = np.asarray(samples)
            for step in range(1, horizon + 1):
                actual = ranks.get((car, origin + 1 + step))
                if actual is None:
                    continue
                lap = origin + 1 + step
                model.append(abs(float(np.median(samples[:, step - 1])) - actual))
                midfield.append(abs((field_size[lap] + 1) / 2.0 - actual))
                now = ranks.get((car, origin + 1))
                if now is not None:
                    current.append(abs(now - actual))
    if not model:
        return {"pairs": 0, "model_mae": math.nan, "midfield_mae": math.nan, "current_mae": math.nan}
    return {
        "pairs": len(model),
        "model_mae": float(np.mean(model)),
        "midfield_mae": float(np.mean(midfield)),
        "current_mae": float(np.mean(current)) if current else math.nan,
    }


def check_forecast_skill(scores: Mapping[str, float]) -> List[str]:
    """The forecasts must beat the mid-field predictor."""
    if not scores["pairs"]:
        return ["no forecast could be scored"]
    if not scores["model_mae"] < scores["midfield_mae"]:
        return [
            f"forecast MAE {scores['model_mae']:.3f} does not beat the mid-field "
            f"predictor's {scores['midfield_mae']:.3f}"
        ]
    return []


def check_identical_samples(reference: Emitted, other: Emitted) -> List[str]:
    """Every origin both runs emitted carries byte-identical samples."""
    errors: List[str] = []
    ref = dict(reference)
    compared = 0
    for origin, forecasts in other:
        if origin not in ref:
            continue
        compared += 1
        if set(ref[origin]) != set(forecasts):
            errors.append(f"origin {origin}: car sets differ between sessions")
            continue
        for car, samples in forecasts.items():
            if np.asarray(samples).tobytes() != np.asarray(ref[origin][car]).tobytes():
                errors.append(f"origin {origin} car {car}: samples differ between sessions")
                break
    if compared == 0:
        errors.append("the two sessions share no origin to compare")
    return errors


# ----------------------------------------------------------------------
# scenario-sweep
# ----------------------------------------------------------------------
def _params_key(result: dict) -> str:
    return json.dumps(result["params"], sort_keys=True)


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b


def aggregate_races(results: Sequence[dict]) -> List[dict]:
    """The benchmark's own per-grid-point aggregation of race results."""
    groups: Dict[str, List[dict]] = {}
    for result in results:
        groups.setdefault(_params_key(result), []).append(result)
    rows = []
    for group in groups.values():
        winners = [r["winner"] for r in group]
        counts = {car: winners.count(car) for car in winners}
        row = {
            "races": len(group),
            "mean_caution_laps": sum(r["caution_laps"] for r in group) / len(group),
            "mean_pit_stops": sum(r["pit_stops"] for r in group) / len(group),
            "mean_lead_changes": sum(r["lead_changes"] for r in group) / len(group),
            "mean_finishers": sum(r["finishers"] for r in group) / len(group),
            "distinct_winners": len(counts),
            "top_winner": min(counts, key=lambda car: (-counts[car], car)),
        }
        maes = [r["forecast"]["mean_mae"] for r in group if r.get("forecast")]
        if maes:
            row["mean_forecast_mae"] = sum(maes) / len(maes)
        rows.append(row)
    return rows


def check_scenario_stream(
    events: Sequence[dict], jobs: int, field: set, points_table: Sequence[int]
) -> List[str]:
    """Stream shape, per-race invariants and the summary's aggregation."""
    errors: List[str] = []
    kinds = [event.get("kind") for event in events]
    if "error" in kinds:
        errors.append("the stream carries an error event")
    if kinds.count("scenario-start") != 1 or kinds[:1] != ["scenario-start"]:
        errors.append("the stream must open with exactly one scenario-start event")
    if kinds.count("scenario-summary") != 1 or kinds[-1:] != ["scenario-summary"]:
        errors.append("the stream must close with exactly one scenario-summary event")
    races = [event for event in events if event.get("kind") == "scenario-race"]
    if len(races) != jobs:
        errors.append(f"{len(races)} race events for {jobs} jobs")
    indices = sorted(event.get("index") for event in races)
    if indices != list(range(len(races))):
        errors.append(f"race event indices are not 0..{len(races) - 1} once each")
    n = len(field)
    table = [points_table[min(i, len(points_table) - 1)] for i in range(n)]
    results = [event["result"] for event in races]
    for i, result in enumerate(results):
        points = {int(car): int(pts) for car, pts in result["points"].items()}
        if set(points) != field or result["starters"] != n:
            errors.append(f"race {i}: the classification is not a permutation of the field")
            continue
        if sorted(points.values(), reverse=True) != table:
            errors.append(f"race {i}: points do not follow one finishing order")
        podium = result["podium"]
        if len(set(podium)) != 3 or [points.get(car) for car in podium] != table[:3]:
            errors.append(f"race {i}: podium {podium} disagrees with the classification")
        elif result["winner"] != podium[0]:
            errors.append(f"race {i}: winner {result['winner']} is not first on the podium")
        forecast = result.get("forecast")
        if forecast is not None:
            maes = forecast["mae"]
            if not maes or not all(math.isfinite(x) for x in maes):
                errors.append(f"race {i}: forecast errors missing or non-finite")
            elif not _close(forecast["mean_mae"], float(np.mean(maes))):
                errors.append(f"race {i}: mean forecast error disagrees with its origins")
    summaries = [event for event in events if event.get("kind") == "scenario-summary"]
    if summaries and not errors:
        summary = summaries[0]["summary"]
        if summary["races"] != len(results):
            errors.append("summary race count disagrees with the race events")
        rows = aggregate_races(results)
        if len(rows) != len(summary["rows"]):
            errors.append("summary has a different number of grid points")
        for mine, theirs in zip(rows, summary["rows"]):
            for key, value in mine.items():
                if not _close(value, theirs.get(key)):
                    errors.append(f"summary row {theirs.get('point')}: {key} {theirs.get(key)} != {value}")
        maes = [r["forecast"]["mean_mae"] for r in results if r.get("forecast")]
        if maes and not _close(summary["forecast_mae"], sum(maes) / len(maes)):
            errors.append("summary forecast error disagrees with the race events")
    return errors


def check_same_documents(reference: Sequence[dict], other: Sequence[dict]) -> List[str]:
    """Same seed, same documents: canonical JSON must match event by event."""
    if len(reference) != len(other):
        return [f"{len(other)} events where the reference run streamed {len(reference)}"]
    for i, (a, b) in enumerate(zip(reference, other)):
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            return [f"event {i} differs from the same-seed reference run"]
    return []


# ----------------------------------------------------------------------
# train-epoch
# ----------------------------------------------------------------------
def check_gradients(
    analytic: Sequence[float], numeric: Sequence[float], rtol: float = 1e-4, atol: float = 1e-7
) -> List[str]:
    """Back-propagated gradient entries against central finite differences."""
    errors = []
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        if not abs(a - n) <= atol + rtol * max(abs(a), abs(n)):
            errors.append(f"gradient entry {i}: backprop {a:.6e} vs finite difference {n:.6e}")
    if len(analytic) != len(numeric) or not analytic:
        errors.append("gradient probe is empty or unpaired")
    return errors


def check_loss_history(train_loss: Sequence[float], val_loss: Sequence[float]) -> List[str]:
    errors = []
    if len(train_loss) < 2:
        errors.append("fewer than two epochs trained")
    if not all(math.isfinite(x) for x in list(train_loss) + list(val_loss)):
        errors.append("non-finite loss")
    elif len(train_loss) >= 2 and not train_loss[-1] < train_loss[0]:
        errors.append(f"last epoch's loss {train_loss[-1]:.4f} is not below the first's {train_loss[0]:.4f}")
    return errors


def check_same_history(a: Sequence[float], b: Sequence[float]) -> List[str]:
    if list(a) != list(b):
        return ["the same seed gave a different loss history"]
    return []
