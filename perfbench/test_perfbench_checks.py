"""Tests of the benchmark itself: each correctness check must reject a
deliberately corrupted output, and the span accounting must add up.

Run with ``python -m pytest perfbench -q``; the checks are pure functions,
so no program process is started.
"""

import copy
import threading
import time

import numpy as np
import pytest

import checks
from spans import Tracer, attribute

HORIZON, N_SAMPLES = 2, 5
POINTS = (50, 40, 35, 32, 30, 28)


# ----------------------------------------------------------------------
# live-race
# ----------------------------------------------------------------------
def _race(cars=4, laps=12, retire=None):
    """Columnar race with cumulative times; car ``retire[0]`` stops after ``retire[1]`` laps."""
    rng = np.random.default_rng(0)
    car_id, lap, elapsed = [], [], []
    totals = {car: 0.35 * car for car in range(1, cars + 1)}
    for this_lap in range(1, laps + 1):
        for car in range(1, cars + 1):
            if retire and car == retire[0] and this_lap > retire[1]:
                continue
            totals[car] += 40.0 + rng.normal(0, 0.5)
            car_id.append(car)
            lap.append(this_lap)
            elapsed.append(totals[car])
    return np.array(car_id), np.array(lap), np.array(elapsed)


def _laps_per_car(car_id):
    return {int(car): int((car_id == car).sum()) for car in np.unique(car_id)}


def _perfect_emission(car_id, lap, elapsed, min_history=3):
    """Forecasts that put every sample on the true future rank."""
    ranks = checks.ranks_from_elapsed(car_id, lap, elapsed)
    expected = checks.expected_origins(_laps_per_car(car_id), min_history, HORIZON, int(lap.max()))
    emitted = []
    for origin, cars in sorted(expected.items()):
        forecasts = {}
        for car in sorted(cars):
            truth = [ranks.get((car, origin + 1 + step), 1) for step in range(1, HORIZON + 1)]
            forecasts[car] = np.tile(np.array(truth, dtype=float), (N_SAMPLES, 1))
        emitted.append((origin, forecasts))
    return emitted, expected, ranks


def test_ranks_follow_cumulative_time():
    car_id, lap, elapsed = _race()
    ranks = checks.ranks_from_elapsed(car_id, lap, elapsed)
    for this_lap in range(1, 13):
        rows = lap == this_lap
        order = car_id[rows][np.argsort(elapsed[rows])]
        assert [ranks[(int(car), this_lap)] for car in order] == list(range(1, len(order) + 1))


def test_expected_origins_drop_retired_cars():
    expected = checks.expected_origins({1: 12, 2: 6}, 3, HORIZON, 12)
    assert sorted(expected) == list(range(3, 10))
    assert expected[4] == {1, 2} and expected[5] == {1}


def test_live_checks_accept_a_correct_emission():
    car_id, lap, elapsed = _race(retire=(3, 7))
    emitted, expected, ranks = _perfect_emission(car_id, lap, elapsed)
    assert checks.check_live_origins(emitted, expected, N_SAMPLES, HORIZON) == []
    assert checks.check_forecast_skill(checks.forecast_scores(emitted, ranks, HORIZON)) == []
    assert checks.check_identical_samples(emitted, copy.deepcopy(emitted)) == []


@pytest.mark.parametrize(
    "corrupt",
    ["drop_origin", "duplicate_origin", "swap_car", "drop_car", "bad_shape", "nan", "extra_origin"],
)
def test_live_origin_check_rejects_corruption(corrupt):
    car_id, lap, elapsed = _race(retire=(3, 7))
    emitted, expected, _ = _perfect_emission(car_id, lap, elapsed)
    origin, forecasts = emitted[2]
    if corrupt == "drop_origin":
        del emitted[2]
    elif corrupt == "duplicate_origin":
        emitted.append(emitted[2])
    elif corrupt == "swap_car":
        forecasts[99] = forecasts.pop(max(forecasts))
    elif corrupt == "drop_car":
        forecasts.pop(min(forecasts))
    elif corrupt == "bad_shape":
        forecasts[min(forecasts)] = forecasts[min(forecasts)][:, :1]
    elif corrupt == "nan":
        forecasts[min(forecasts)][0, 0] = np.nan
    elif corrupt == "extra_origin":
        emitted.append((origin + 100, forecasts))
    assert checks.check_live_origins(emitted, expected, N_SAMPLES, HORIZON)


def test_skill_check_rejects_a_forecast_worse_than_midfield():
    car_id, lap, elapsed = _race(cars=6)
    emitted, _, ranks = _perfect_emission(car_id, lap, elapsed)
    # invert every forecast: leaders forecast last and vice versa
    inverted = [(o, {car: 7.0 - s for car, s in f.items()}) for o, f in emitted]
    assert checks.check_forecast_skill(checks.forecast_scores(inverted, ranks, HORIZON))


def test_identity_check_rejects_one_changed_sample():
    car_id, lap, elapsed = _race()
    emitted, _, _ = _perfect_emission(car_id, lap, elapsed)
    other = copy.deepcopy(emitted)
    car = min(other[-1][1])
    other[-1][1][car][0, 0] = np.nextafter(other[-1][1][car][0, 0], np.inf)
    assert checks.check_identical_samples(emitted, other)


# ----------------------------------------------------------------------
# scenario-sweep
# ----------------------------------------------------------------------
FIELD = set(range(1, 7))


def _race_doc(order, params, forecast_maes=(1.0, 2.0)):
    points = {str(car): POINTS[i] for i, car in enumerate(order)}
    return {
        "params": params, "winner": order[0], "podium": list(order[:3]), "starters": len(order),
        "finishers": len(order), "caution_laps": len(params) * 3 + order[0], "pit_stops": 12,
        "lead_changes": order[1], "points": points,
        "forecast": {"mae": list(forecast_maes), "mean_mae": float(np.mean(forecast_maes))},
    }


def _stream():
    orders = [[1, 2, 3, 4, 5, 6], [2, 1, 3, 5, 4, 6], [6, 5, 4, 3, 2, 1], [3, 1, 2, 4, 6, 5]]
    params = [{"caution_hazard_scale": 0.5}] * 2 + [{"caution_hazard_scale": 2.0}] * 2
    results = [_race_doc(order, p, (1.0 + i, 2.0)) for i, (order, p) in enumerate(zip(orders, params))]
    rows = []
    for label, group in (("a", results[:2]), ("b", results[2:])):
        row = {"point": label, **checks.aggregate_races(group)[0]}
        rows.append(row)
    maes = [r["forecast"]["mean_mae"] for r in results]
    summary = {"races": 4, "rows": rows, "forecast_mae": float(np.mean(maes))}
    events = [{"kind": "scenario-start", "races": 4}]
    events += [{"kind": "scenario-race", "index": i, "result": r} for i, r in enumerate(results)]
    events.append({"kind": "scenario-summary", "summary": summary})
    return events


def _check(events):
    return checks.check_scenario_stream(events, 4, FIELD, POINTS)


def test_scenario_check_accepts_a_consistent_stream():
    assert _check(_stream()) == []


@pytest.mark.parametrize(
    "corrupt",
    ["duplicate_race", "drop_race", "swap_car", "podium", "summary_mean", "summary_winner",
     "error_event", "second_summary", "forecast_mean"],
)
def test_scenario_check_rejects_corruption(corrupt):
    events = _stream()
    result = events[2]["result"]
    if corrupt == "duplicate_race":
        events.insert(2, copy.deepcopy(events[1]))
        del events[4]
    elif corrupt == "drop_race":
        del events[3]
    elif corrupt == "swap_car":
        result["points"]["9"] = result["points"].pop("6")
    elif corrupt == "podium":
        result["podium"] = [result["podium"][1], result["podium"][0], result["podium"][2]]
    elif corrupt == "summary_mean":
        events[-1]["summary"]["rows"][0]["mean_pit_stops"] += 0.5
    elif corrupt == "summary_winner":
        events[-1]["summary"]["rows"][1]["top_winner"] = 1
    elif corrupt == "error_event":
        events.insert(-1, {"kind": "error", "error": {"code": "internal"}})
    elif corrupt == "second_summary":
        events.append(copy.deepcopy(events[-1]))
    elif corrupt == "forecast_mean":
        result["forecast"]["mean_mae"] += 1e-3
    assert _check(events)


def test_same_documents_rejects_a_changed_event():
    events = _stream()
    other = copy.deepcopy(events)
    assert checks.check_same_documents(events, other) == []
    other[1]["result"]["pit_stops"] += 1
    assert checks.check_same_documents(events, other)
    assert checks.check_same_documents(events, other[:-1])


# ----------------------------------------------------------------------
# train-epoch
# ----------------------------------------------------------------------
def test_gradient_check_rejects_a_perturbed_gradient():
    analytic = [0.5, -1e-3, 2.0]
    numeric = [0.5 + 1e-9, -1e-3, 2.0 - 1e-8]
    assert checks.check_gradients(analytic, numeric) == []
    assert checks.check_gradients([0.5, -1e-3, 2.0 * 1.01], numeric)
    assert checks.check_gradients([], [])


def test_loss_checks_reject_bad_histories():
    assert checks.check_loss_history([0.7, 0.4, 0.3], [0.5, 0.45, 0.44]) == []
    assert checks.check_loss_history([0.7, 0.8], [0.5, 0.5])
    assert checks.check_loss_history([0.7, float("nan")], [0.5, 0.5])
    assert checks.check_loss_history([0.7], [0.5])
    assert checks.check_same_history([0.7, 0.4], [0.7, 0.4]) == []
    assert checks.check_same_history([0.7, 0.4], [0.7, 0.4 + 1e-15])


# ----------------------------------------------------------------------
# span accounting
# ----------------------------------------------------------------------
def test_self_times_and_unattributed_add_up_across_a_wait():
    tracer = Tracer()
    worker_ran = threading.Event()

    def leaf():
        time.sleep(0.01)

    def work():
        leaf_traced()
        time.sleep(0.005)

    leaf_traced = tracer.span("leaf", leaf)
    work_traced = tracer.span("work", work)

    def waiting():
        thread = threading.Thread(target=lambda: (work_traced(), worker_ran.set()))
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    wait_traced = tracer.span("wait", waiting, wait=True)
    start = time.perf_counter()
    time.sleep(0.005)
    wait_traced()
    time.sleep(0.005)
    end = time.perf_counter()
    assert worker_ran.is_set()
    accounting = attribute(tracer.spans, [(start, end)])
    self_ms = accounting["self_ms"]
    assert self_ms["leaf"] >= 9.0 and self_ms["work"] >= 4.0
    assert accounting["accounting_error"] == pytest.approx(0.0, abs=1e-9)
    total = sum(self_ms.values()) + accounting["unattributed_ms"]
    assert total == pytest.approx(accounting["op_total_ms"], rel=1e-9)
    assert accounting["unattributed_ms"] >= 9.0


def test_unlinked_overlap_shows_as_accounting_error():
    spans = [(1, "a", 0.0, 1.0, None), (2, "b", 0.5, 1.0, None)]
    accounting = attribute(spans, [(0.0, 1.0)])
    assert accounting["accounting_error"] == pytest.approx(0.5)


def test_patch_and_uninstall_restore_the_original():
    class Owner:
        def method(self):
            return 3

        @staticmethod
        def helper():
            return 4

    tracer = Tracer()
    original = Owner.__dict__["method"]
    tracer.patch(Owner, "method", "m")
    tracer.patch(Owner, "helper", "h")
    assert Owner().method() == 3 and Owner.helper() == 4
    assert [span[1] for span in tracer.spans] == ["m", "h"]
    tracer.uninstall()
    assert Owner.__dict__["method"] is original and isinstance(Owner.__dict__["helper"], staticmethod)
