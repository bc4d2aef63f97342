"""Fast tests of the benchmark's own helpers (no program code runs)."""

import asyncio
import json
import os

import pbstats
import pbtrace
import wl_serve


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert pbstats.tail_percentile(19) is None
    assert pbstats.tail_percentile(20) == 50.0
    assert pbstats.tail_percentile(100) == 90.0
    assert pbstats.tail_percentile(999) == 90.0
    assert pbstats.tail_percentile(1000) == 99.0
    assert pbstats.tail_percentile(10_000) == 99.9
    summary = pbstats.summarize([float(v) for v in range(1, 1001)])
    assert summary == {"count": 1000, "p50": 500.5, "tail_p": 99.0, "tail": 990.0}
    assert pbstats.summarize([1.0, 2.0, 3.0])["tail"] is None


def test_self_time_subtracts_nested_and_adjacent_children():
    # outer [0, 40] holds a [10, 20] (holding g [12, 15]) and b [20, 30].
    ticks = iter([0, 10, 12, 15, 20, 20, 30, 40])
    tracer = pbtrace.Tracer(clock=lambda: next(ticks))
    g = tracer.wrap(lambda: None, "g")
    a = tracer.wrap(lambda: g(), "a")
    b = tracer.wrap(lambda: None, "b")
    tracer.span("outer", 7, lambda: (a(), b()))
    table = tracer.table()
    assert {name: row["self_ns"] for name, row in table.items()} == {
        "outer": 20, "a": 7, "g": 3, "b": 10,
    }
    spans = {s[0]: s for s in tracer.spans()}
    assert all(s[5] == 7 for s in spans.values())  # one request throughout
    lines, metrics = pbtrace.layer_report(table, 40)
    # No layer spans here: everything is the unattributed remainder.
    assert metrics["unattributed.self_pct"] == (100.0, "%")


def test_open_loop_times_sessions_from_due_time_under_a_stall(monkeypatch):
    monkeypatch.setattr(wl_serve, "OPEN_RATE", 100.0)  # due every 10 ms
    stall = 0.15

    class Client:
        calls = 0

        async def run_session(self, implementation, spec):
            Client.calls += 1
            if Client.calls == 1:
                await asyncio.sleep(stall)
            return {"type": "verdict"}

    class Conn:
        client = Client()

    class Sessions:
        def implementation(self, index):
            return index

        def verify(self, index, frame):
            return True

    result = pbstats.Result()
    latency, lag = asyncio.run(wl_serve.open_loop([Conn()], Sessions(), 5, result))
    assert result.attempted == 5 and result.correct
    # Session i was due i*10 ms after the first, but could only start
    # once the stalled first session ended: its latency counts the wait.
    for i, seconds in enumerate(latency):
        assert seconds >= stall - i * 0.01 - 0.005
    assert max(lag) < stall


def test_failed_share_counts_wrong_outputs():
    result = pbstats.Result()
    for ok in (True, True, False, True):
        result.op(ok, "wrong verdict")
    assert (result.attempted, result.failed) == (4, 1)
    assert pbstats.failed_share(result.attempted, result.failed) == 0.25
    assert not result.correct
    assert pbstats.failed_share(0, 0) == 1.0
    clean = pbstats.Result()
    clean.op(True)
    clean.check(False, "bundle built twice")
    assert clean.failed == 0 and not clean.correct


def test_benchmark_json_lists_every_per_layer_metric():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")
    with open(path) as fh:
        config = json.load(fh)
    produced = pbtrace.per_layer(pbtrace.layer_report({}, 1)[1], {}, {})
    declared = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert declared == {name: unit for name, (_v, unit) in produced.items()}
