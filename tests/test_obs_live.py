"""Streaming telemetry: sink crash-safety, rotation, windows, snapshots.

The live half of ``repro.obs`` exists for processes that never exit, so
its tests centre on mid-flight behaviour: a trace file must be readable
while the server is still writing it, a killed writer must cost at most
one (counted) torn line, rotation must never split a span tree across
segments, and manifest snapshots must stay schema-identical and monotone
so ledger records from a long session remain comparable.
"""

import json

import pytest

from repro import obs
from repro.obs.live import (
    AccessLog,
    MetricsWindow,
    StreamingTraceSink,
    snapshot_manifest,
)
from repro.obs.tracing import SpanNode


def fake_clock(start=0.0):
    """A manually advanced clock: ``clock.advance(dt)`` then ``clock()``."""
    state = {"now": start}

    def clock():
        return state["now"]

    clock.advance = lambda dt: state.__setitem__("now", state["now"] + dt)
    return clock


def make_request_tree(i):
    """One served request: a root span with a nested predict span."""
    root = SpanNode("serve/request", attrs={"request": f"req-{i:06d}"},
                    start=float(i), end=i + 1.0)
    child = SpanNode("serve/predict", attrs={"points": 10},
                     start=i + 0.1, end=i + 0.9)
    root.children.append(child)
    return root


class TestStreamingSink:
    def test_trace_is_readable_mid_flight(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(path, header={"command": "serve"})
        sink.emit(make_request_tree(0))
        sink.emit(make_request_tree(1))
        # The sink is still open — no final metrics line yet — but every
        # emitted line is complete, so a strict read already succeeds.
        mid = obs.read_trace(path, strict=True)
        assert mid.header["command"] == "serve"
        assert [r.name for r in mid.roots] == ["serve/request"] * 2
        assert [c.name for r in mid.roots for c in r.children] == \
            ["serve/predict"] * 2
        assert mid.skipped_lines == 0
        assert mid.metrics == {}
        sink.close()
        sealed = obs.read_trace(path)
        assert sealed.metrics["type"] == "metrics"
        assert sink.closed

    def test_parents_precede_children_in_emission_order(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with StreamingTraceSink(path) as sink:
            for i in range(3):
                sink.emit(make_request_tree(i))
        spans = [json.loads(line) for line in path.read_text().splitlines()
                 if json.loads(line).get("type") == "span"]
        assert [s["id"] for s in spans] == list(range(6))
        for s in spans:
            if s["parent"] is not None:
                assert s["parent"] < s["id"]

    def test_torn_final_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(path, header={"command": "serve"})
        for i in range(3):
            sink.emit(make_request_tree(i))
        # Simulate a writer killed mid-record: a partial JSON object with
        # no newline at the end of the file.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "id": 99, "par')
        with pytest.raises(ValueError):
            obs.read_trace(path, strict=True)
        recovered = obs.read_trace(path, strict=False)
        assert recovered.skipped_lines == 1
        assert len(recovered.roots) == 3  # every complete span survives
        assert all(len(r.children) == 1 for r in recovered.roots)

    def test_corruption_before_the_final_line_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with StreamingTraceSink(path) as sink:
            sink.emit(make_request_tree(0))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]  # tear a span in the middle of the file
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            obs.read_trace(path, strict=False)

    def test_rotated_segments_are_independent_complete_traces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(
            path, header={"command": "serve"}, max_bytes=400,
            metrics_snapshot=lambda: {"counters": {"requests_total": 1.0}})
        for i in range(6):
            sink.emit(make_request_tree(i))
        assert len(sink.rotations) >= 2
        assert sink.rotations[0].name == "trace.001.jsonl"
        sink.close()
        all_roots = []
        for segment in [*sink.rotations, path]:
            data = obs.read_trace(segment, strict=True)
            # Each sealed segment is a complete, self-describing trace:
            # header first, metrics line last, no span torn across files.
            assert data.header["command"] == "serve"
            assert data.metrics["counters"] == {"requests_total": 1.0}
            for root in data.roots:
                assert [c.name for c in root.children] == ["serve/predict"]
            all_roots.extend(data.roots)
        assert len(all_roots) == 6  # nothing lost, nothing duplicated
        assert sink.spans_emitted == 12

    def test_rotation_happens_only_between_subtrees(self, tmp_path):
        # Even a subtree far larger than max_bytes lands in one segment.
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(path, max_bytes=100)
        root = make_request_tree(0)
        for j in range(20):
            root.children.append(
                SpanNode(f"serve/stage-{j}", start=0.0, end=0.1))
        sink.emit(root)
        sink.close()
        segment = sink.rotations[0] if sink.rotations else path
        data = obs.read_trace(segment)
        assert len(data.roots) == 1
        assert len(data.roots[0].children) == 21


class TestLiveCollector:
    def test_streams_and_drops_completed_roots(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(path)
        clock = fake_clock()
        col = obs.Collector(clock=clock, sink=sink)
        for i in range(5):
            root = col.start_span("serve/request", {"request": i})
            clock.advance(0.25)
            child = col.start_span("serve/predict")
            clock.advance(0.5)
            col.end_span(child)
            col.end_span(root)
        # Memory stays O(open spans): everything has been streamed out.
        assert col.roots == []
        assert sink.spans_emitted == 10
        sink.close()
        data = obs.read_trace(path)
        assert len(data.roots) == 5
        assert data.roots[0].children[0].duration == pytest.approx(0.5)

    def test_buffered_events_are_drained_with_the_roots(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(path)
        col = obs.Collector(clock=fake_clock(), sink=sink)
        root = col.start_span("serve/request")
        col.record_event("failure", stage="serve", error="boom")
        col.end_span(root)
        assert col.events == []
        sink.close()
        data = obs.read_trace(path)
        assert [e["type"] for e in data.events] == ["failure"]
        assert data.events[0]["error"] == "boom"

    def test_without_a_sink_it_is_a_plain_collector(self):
        col = obs.Collector(clock=fake_clock())
        root = col.start_span("serve/request")
        col.end_span(root)
        assert [r.name for r in col.roots] == ["serve/request"]


class TestMetricsWindow:
    def test_rates_and_latency_quantiles(self):
        clock = fake_clock()
        registry = obs.MetricsRegistry()
        window = MetricsWindow(registry, clock=clock)
        clock.advance(2.0)
        for _ in range(10):
            registry.inc("requests_total")
        for ms in range(1, 101):
            registry.observe("serve/latency_s", ms / 1000.0)
        snap = window.snapshot()
        assert snap["counters"]["requests_total"] == 10.0
        assert snap["window"]["elapsed_s"] == pytest.approx(2.0)
        assert snap["window"]["rates"]["requests_total"] == pytest.approx(5.0)
        latency = snap["latency"]["serve/latency_s"]
        assert latency["count"] == 100
        assert latency["p50"] == pytest.approx(0.050)
        assert latency["p90"] == pytest.approx(0.090)
        assert latency["p99"] == pytest.approx(0.099)

    def test_zero_elapsed_window_reports_zero_rates(self):
        clock = fake_clock()
        registry = obs.MetricsRegistry()
        window = MetricsWindow(registry, clock=clock)
        registry.inc("requests_total", 7.0)
        snap = window.snapshot()  # clock has not advanced
        assert snap["window"]["elapsed_s"] == 0.0
        assert snap["window"]["rates"]["requests_total"] == 0.0

    def test_rates_are_per_window_not_cumulative(self):
        clock = fake_clock()
        registry = obs.MetricsRegistry()
        window = MetricsWindow(registry, clock=clock)
        clock.advance(1.0)
        registry.inc("requests_total", 8.0)
        first = window.snapshot()
        clock.advance(4.0)
        registry.inc("requests_total", 8.0)
        second = window.snapshot()
        assert first["window"]["rates"]["requests_total"] == 8.0
        assert second["window"]["rates"]["requests_total"] == 2.0
        assert second["counters"]["requests_total"] == 16.0


class TestAccessLog:
    def test_one_flushed_record_per_request(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path)
        log.log(request="req-000001", method="POST", path="/predict",
                status=200, points=10)
        # Flushed immediately: readable before close, e.g. by tail -f.
        first = json.loads(path.read_text().splitlines()[0])
        assert first["request"] == "req-000001"
        log.log(request="req-000002", method="GET", path="/healthz",
                status=200, points=0)
        log.close()
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["path"] for r in records] == ["/predict", "/healthz"]
        assert log.records_written == 2


class TestSnapshotManifest:
    def test_successive_snapshots_are_monotone_and_schema_identical(self):
        base = snapshot_manifest(
            obs.build_manifest("serve"), metrics={"requests_total": 0.0},
            wall_time_s=1.0, extra={"seed": 3, "requests_served": 0})
        # A CPU reading ahead of the process clock stands in for a later
        # one, so the snapshots below read a *smaller* CPU time.
        base["cpu_time_s"] = 1e9
        first = snapshot_manifest(
            base, metrics={"requests_total": 4.0}, wall_time_s=2.5,
            extra={"requests_served": 4})
        # A later snapshot reporting a *smaller* wall/cpu reading (clock
        # skew, duplicated flush) must never move the manifest backwards.
        second = snapshot_manifest(
            first, metrics={"requests_total": 9.0}, wall_time_s=2.0,
            extra={"requests_served": 9})
        assert set(first) == set(second) == set(base)
        assert second["wall_time_s"] == 2.5
        assert second["cpu_time_s"] == 1e9
        assert second["requests_served"] == 9
        assert second["metrics"]["requests_total"] == 9.0
        # Identity fields survive untouched; the base is never mutated.
        assert second["command"] == "serve"
        assert second["seed"] == 3
        assert base["requests_served"] == 0
        assert base["wall_time_s"] == 1.0

    def test_snapshot_defaults_keep_previous_cost_readings(self):
        base = snapshot_manifest(obs.build_manifest("serve"), wall_time_s=3.0)
        snap = snapshot_manifest(base)  # no new wall reading supplied
        assert snap["wall_time_s"] == 3.0
        # Process CPU time only grows.
        assert snap["cpu_time_s"] >= base["cpu_time_s"]
