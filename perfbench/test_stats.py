"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""
import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402


# -----------------------------------------------------------------------------
# percentile rule
# -----------------------------------------------------------------------------
@pytest.mark.parametrize("count,expected", [
    (19, None), (20, 50), (24, 58), (30, 66), (31, 67), (50, 80), (100, 90),
    (1000, 99)])
def test_tail_percentile(count, expected):
    assert stats.tail_percentile(count) == expected


@pytest.mark.parametrize("count", range(20, 301))
def test_tail_percentile_keeps_ten_above(count):
    p = stats.tail_percentile(count)
    values = list(range(count))
    above = sum(v > stats.nearest_rank(values, p) for v in values)
    assert above >= stats.TAIL_MIN_ABOVE
    # one percentile higher would leave fewer than ten above
    if p < 99:
        above_next = sum(v > stats.nearest_rank(values, p + 1) for v in values)
        assert above_next < stats.TAIL_MIN_ABOVE


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(values, 50) == 3.0
    assert stats.nearest_rank(values, 80) == 4.0
    assert stats.nearest_rank(values, 81) == 5.0
    assert stats.nearest_rank(values, 0) == 1.0
    assert stats.nearest_rank(values, 100) == 5.0


def test_relative_spread_matches_statistics():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.1, 9.9, 10.4]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / med)


# -----------------------------------------------------------------------------
# self time from nested spans
# -----------------------------------------------------------------------------
def test_self_times_nested():
    spans = [
        ("run", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),     # grandchild: only reduces a
        ("c", 5.0, 9.0, 0),
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_clip_and_overlap():
    spans = [
        ("p", 0.0, 4.0, -1),
        ("x", -1.0, 2.0, 0),    # starts before the parent: clipped to 2
        ("y", 1.0, 3.0, 0),     # overlaps x: only [2, 3] is new
        ("z", 3.5, 6.0, 0),     # runs past the parent: clipped to 0.5
    ]
    assert stats.self_times(spans)[0] == pytest.approx(0.5)


def test_self_times_sum_to_root_duration():
    spans = [("r", 0.0, 7.0, -1), ("a", 1.0, 3.0, 0), ("b", 1.5, 2.5, 1),
             ("c", 4.0, 6.5, 0), ("d", 4.5, 5.0, 3), ("e", 5.0, 6.0, 3)]
    assert sum(stats.self_times(spans)) == pytest.approx(7.0)


# -----------------------------------------------------------------------------
# bound comparison
# -----------------------------------------------------------------------------
SPECS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
         {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def test_worse_by_direction():
    assert stats.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert stats.worse_by(0.0, 0.0, "lower") == 0.0
    assert stats.worse_by(0.0, 1.0, "lower") == math.inf


def test_compare_runs_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    noisy = [8.0, 12.0, 10.0, 9.0, 11.0, 10.0, 8.5, 11.5, 10.0, 10.0]
    rows = {r["metric"]: r for r in stats.compare_runs(
        {"wall_s": steady, "rate": steady},
        {"wall_s": [v * 1.2 for v in steady], "rate": [v * 1.05 for v in steady]},
        SPECS)}
    assert rows["wall_s"]["verdict"] == "regressed"
    assert rows["rate"]["verdict"] == "ok"
    # within the bound, but the parent's own spread is wider than the bound
    rows = {r["metric"]: r for r in stats.compare_runs(
        {"wall_s": noisy}, {"wall_s": [v * 1.05 for v in noisy]}, SPECS)}
    assert rows["wall_s"]["verdict"] == "unresolved"
    # every change run beating every parent run resolves a noisy metric
    rows = {r["metric"]: r for r in stats.compare_runs(
        {"wall_s": noisy}, {"wall_s": [v / 2 for v in noisy]}, SPECS)}
    assert rows["wall_s"]["verdict"] == "ok"


def test_compare_runs_bound_edge():
    parent = [10.0] * 10
    just_inside = stats.compare_runs({"wall_s": parent}, {"wall_s": [10.99] * 10},
                                     SPECS[:1])
    just_outside = stats.compare_runs({"wall_s": parent}, {"wall_s": [11.01] * 10},
                                      SPECS[:1])
    assert just_inside[0]["verdict"] == "ok"
    assert just_outside[0]["verdict"] == "regressed"


# -----------------------------------------------------------------------------
# the metric tables agree with BENCHMARK.json
# -----------------------------------------------------------------------------
def test_metric_tables_match_benchmark_json():
    import run
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: unit for k, (unit, _) in run.PER_LAYER.items()}
    assert {w["name"] for w in bench["workloads"]} == set(run.workloads.WORKLOADS)


# -----------------------------------------------------------------------------
# tracing rebinds imported names and restores them
# -----------------------------------------------------------------------------
def test_tracer_rebinds_and_restores():
    import hamconc.decompose as dec
    import hamconc.transport as tr
    from hamconc import DiscreteMeasure, ProductSpace
    from tracing import Tracer

    original = dec.transport_distance
    tracer = Tracer()
    sp = ProductSpace(2, 3)
    mu = DiscreteMeasure(sp, {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    nu = DiscreteMeasure(sp, {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 1, 0): 0.5})
    with tracer:
        assert dec.transport_distance is not original
        assert tr.transport_distance is dec.transport_distance
        dec.transport_distance(mu, nu)
    assert dec.transport_distance is original
    summary = tracer.summary()
    assert summary["transport.solves"] == 1
    assert summary["transport.cells"] == 2 * 3
    assert summary["transport_distance.calls"] == 1
    # mismatch_matrix runs inside transport_distance: a child span
    assert summary["mismatch_matrix.calls"] == 1
    assert summary["transport.self_s"] == pytest.approx(
        summary["transport_distance.incl_s"])
