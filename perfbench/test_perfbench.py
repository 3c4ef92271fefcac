"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import types

import pytest

import stats
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- percentiles and spread ------------------------------------------------
def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 90) == pytest.approx(3.7)
    assert stats.median([5.0]) == 5.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0


def test_fastest_takes_each_steps_minimum_over_samples():
    samples = [[1.0, 5.0, 3.0], [2.0, 4.0, 3.5], [1.5, 6.0, 2.5]]
    assert stats.fastest(samples) == [1.0, 4.0, 2.5]
    assert stats.fastest([[0.5, 0.25]]) == [0.5, 0.25]
    with pytest.raises(ValueError):
        stats.fastest([])
    with pytest.raises(ValueError):
        stats.fastest([[1.0, 2.0], [1.0]])


# -- digests -------------------------------------------------------------------
def test_row_digest_ignores_key_order_and_sees_values():
    a = [{"scheme": "ui-ua", "latency": 10.5}]
    b = [{"latency": 10.5, "scheme": "ui-ua"}]
    c = [{"latency": 10.25, "scheme": "ui-ua"}]
    assert stats.digest_rows(a) == stats.digest_rows(b)
    assert stats.digest_rows(a) != stats.digest_rows(c)
    assert stats.digest_rows(a) != stats.digest_rows(a + a)


def test_digest_accepts_numpy_scalars():
    np = pytest.importorskip("numpy")
    assert (stats.digest_rows([{"x": np.float64(1.5), "n": np.int64(3)}])
            == stats.digest_rows([{"x": 1.5, "n": 3}]))


def test_result_body_matches_the_servers_serialization():
    """The benchmark states the served wire format itself; today it
    agrees with the server's own canonical body."""
    sys.path.insert(0, SRC)
    try:
        service = pytest.importorskip("repro.serve.service")
    finally:
        sys.path.remove(SRC)
    result = [{"scheme": "mi-ma-ec", "degree": 4, "latency": 123.25}]
    assert stats.result_body("ab" * 32, result) == \
        service.result_body("ab" * 32, result)


# -- self time -----------------------------------------------------------
def test_self_time_subtracts_spans_and_aggregates():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def step():
        clock.advance(1.0)

    stepper = t.aggregate(step, "step", "network")

    def inner():
        clock.advance(2.0)
        for _ in range(3):
            stepper()

    inner_span = t.span(inner, "inner", "sim")

    def outer():
        clock.advance(0.5)
        inner_span()
        clock.advance(0.25)

    t.span(outer, "outer", "core")()
    by_name = {s["name"]: s for s in t.spans}
    assert by_name["outer"]["self"] == pytest.approx(0.75)
    assert by_name["inner"]["self"] == pytest.approx(2.0)
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert t.aggs["step"] == ["network", 3, 3.0, 3.0]
    assert t.self_time_by_layer() == pytest.approx(
        {"core": 0.75, "sim": 2.0, "network": 3.0})
    # Self times add up to the root's wall time.
    assert sum(t.self_time_by_layer().values()) == pytest.approx(5.75)


def test_hand_opened_span_closes_with_its_enclosing_call():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def work():
        t.open_span("section:a", "analysis")
        clock.advance(1.0)

    t.span(work, "report", "analysis")()
    names = [s["name"] for s in t.spans]
    assert names == ["section:a", "report"]
    assert tracer.section_times(t) == {"a": 1.0}
    assert not t.stack


def test_close_span_out_of_order_is_refused():
    t = tracer.Tracer(clock=FakeClock())
    first = t.open_span("a", "bench")
    t.open_span("b", "bench")
    with pytest.raises(RuntimeError):
        t.close_span(first)


def test_wrapper_records_span_even_when_the_call_raises():
    t = tracer.Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.span(boom, "boom", "core")()
    assert [s["name"] for s in t.spans] == ["boom"]
    assert not t.stack


def test_patch_function_reaches_from_imports_and_uninstalls(monkeypatch):
    def original():
        return "real"

    owner = types.ModuleType("repro._pb_owner")
    owner.fn = original
    importer = types.ModuleType("repro._pb_importer")
    importer.fn_alias = original
    monkeypatch.setitem(sys.modules, "repro._pb_owner", owner)
    monkeypatch.setitem(sys.modules, "repro._pb_importer", importer)
    t = tracer.Tracer(clock=FakeClock())
    t.patch_function(owner, "fn", lambda fn: t.aggregate(fn, "fn", "core"))
    assert owner.fn() == "real" and importer.fn_alias() == "real"
    assert t.aggs["fn"][1] == 2
    t.uninstall()
    assert owner.fn is original and importer.fn_alias is original


def test_trace_files_are_json(tmp_path):
    clock = FakeClock()
    t = tracer.Tracer(run_id="r1", clock=clock)
    t.span(lambda: clock.advance(0.002), "call", "sim")()
    t.aggregate(lambda: None, "tick", "network")()
    t.write_jsonl(str(tmp_path / "t.jsonl"))
    t.write_chrome(str(tmp_path / "t.trace.json"))
    lines = [json.loads(x) for x in
             (tmp_path / "t.jsonl").read_text().splitlines()]
    assert lines[0]["name"] == "call" and lines[0]["run"] == "r1"
    assert lines[1]["aggregate"] == "tick"
    chrome = json.loads((tmp_path / "t.trace.json").read_text())
    event = chrome["traceEvents"][0]
    assert event["ph"] == "X" and event["dur"] == pytest.approx(2000.0)
