"""Unit tests for repro.obs: the tracer and the metrics registry."""

import pytest

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    current_tracer,
    install,
    installed,
    uninstall,
)
from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


class TestTracer:
    def test_events_carry_both_timestamps(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.t += 1.5
        event = tracer.instant(42.0, "sim", "dispatch", track="engine")
        assert event.ts == 42.0
        assert event.wall == pytest.approx(1.5)
        assert event.ph == "I"

    def test_to_dict_omits_unset_fields(self):
        tracer = Tracer(clock=FakeClock())
        record = tracer.instant(1.0, "sim", "x").to_dict()
        assert "track" not in record and "dur" not in record
        assert "args" not in record
        record = tracer.complete(1.0, "power", "span", dur=0.5,
                                 track="machine", args={"sid": 1}).to_dict()
        assert record["dur"] == 0.5
        assert record["args"] == {"sid": 1}

    def test_counter_wraps_value(self):
        tracer = Tracer(clock=FakeClock())
        event = tracer.counter(2.0, "power", "watts", 10.5, track="watts")
        assert event.ph == "C"
        assert event.args == {"value": 10.5}

    def test_ring_buffer_keeps_recent_and_counts_dropped(self):
        tracer = Tracer(capacity=3, clock=FakeClock())
        for k in range(5):
            tracer.instant(float(k), "sim", "e")
        assert len(tracer) == 3
        assert [e.ts for e in tracer] == [2.0, 3.0, 4.0]
        assert tracer.dropped == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_category_filter_gates(self):
        tracer = Tracer(categories={"core"}, clock=FakeClock())
        assert tracer.gate("core") is tracer
        assert tracer.gate("sim") is None
        unrestricted = Tracer(clock=FakeClock())
        assert unrestricted.gate("anything") is unrestricted

    def test_flush_hooks_run_once_per_flush(self):
        tracer = Tracer(clock=FakeClock())
        calls = []
        tracer.add_flush_hook(lambda: calls.append(1))
        tracer.flush()
        tracer.flush()
        assert calls == [1, 1]

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.gate("sim") is None
        assert NULL_TRACER.instant(0.0, "sim", "x") is None
        assert NULL_TRACER.wall() == 0.0
        assert len(NULL_TRACER) == 0
        assert list(NULL_TRACER) == []
        assert not NullTracer.enabled and Tracer.enabled


class TestInstall:
    def teardown_method(self):
        uninstall()

    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_install_and_uninstall(self):
        tracer = Tracer()
        previous = install(tracer)
        assert previous is NULL_TRACER
        assert current_tracer() is tracer
        uninstall()
        assert current_tracer() is NULL_TRACER

    def test_installed_context_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        install(outer)
        with installed(inner) as active:
            assert active is inner
            assert current_tracer() is inner
        assert current_tracer() is outer

    def test_installed_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with installed(Tracer()):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        gauge = registry.gauge("g")
        gauge.set(2.5)
        assert gauge.value == 2.5
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        assert hist.count == 1 and hist.mean == 0.5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert "x" in registry and len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_bucket_edges(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(1.0)    # == bound: lands in the first bucket
        hist.observe(1.001)  # just past it: second bucket
        hist.observe(99.0)   # overflow bucket
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.total == pytest.approx(101.001)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["buckets"] == [1.0]
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["sum"] == 0.5

    def test_default_buckets_strictly_increasing(self):
        assert all(a < b for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))

    def test_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.reset()
        assert len(registry) == 0

    def test_repr_smoke(self):
        assert "c=1" in repr(Counter("c")) or "c" in repr(Counter("c"))
        assert "Gauge" in repr(Gauge("g"))
        assert "Histogram" in repr(Histogram("h"))


class TestJsonlSink:
    def _emit_n(self, tracer, n):
        for k in range(n):
            tracer.instant(float(k), "sim", "e", track="engine",
                           args={"seq": k})

    def test_sink_receives_events_the_ring_drops(self, tmp_path):
        from repro.obs import JsonlSink
        from repro.obs.export import read_events_jsonl

        path = tmp_path / "stream.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(capacity=3, sink=sink, clock=FakeClock())
            self._emit_n(tracer, 10)
            tracer.flush()
        assert len(tracer) == 3  # ring kept only the suffix...
        assert tracer.dropped == 7
        records = read_events_jsonl(path)
        assert len(records) == 10  # ...but the sink kept everything
        assert [r["args"]["seq"] for r in records] == list(range(10))

    def test_ring_and_streaming_modes_produce_identical_jsonl(self, tmp_path):
        """For a bounded run, streaming through a ring-buffered tracer
        writes byte-for-byte what an unbounded tracer exports."""
        from repro.obs import JsonlSink
        from repro.obs.export import write_events_jsonl

        streamed = tmp_path / "streamed.jsonl"
        with JsonlSink(streamed) as sink:
            ring = Tracer(capacity=4, sink=sink, clock=FakeClock())
            self._emit_n(ring, 25)
            ring.flush()

        unbounded = Tracer(clock=FakeClock())
        self._emit_n(unbounded, 25)
        buffered = tmp_path / "buffered.jsonl"
        write_events_jsonl(unbounded.events, buffered)

        assert streamed.read_bytes() == buffered.read_bytes()

    @staticmethod
    def _emit_mixed(tracer, clock):
        """Every emit method, templated shapes and fallback cases alike:
        odd labels, int/bool/non-finite stamps, a non-str category, a
        stepping wall clock with long float reprs."""
        nan, inf = float("nan"), float("inf")
        for k in range(3):
            clock.t += 0.1 + 0.2 * k
            tracer.instant(k * 0.1, "sim", "dispatch", track="engine",
                           args={"seq": k})
            tracer.counter(k * 0.1, "power", "watts", 5.0 + k, track="watts")
            tracer.complete(k * 0.1, "power", "span", 0.1, track="machine",
                            args={"sid": k, "components": {"cpu": 1 / 3}})
            tracer.begin(k * 0.5, "core", "100% \"odd\" \\ énergie")
            tracer.end(k * 0.5, "core", "100% \"odd\" \\ énergie",
                       track="ü%s")
        tracer.instant(2, "sim", "int-ts")
        tracer.instant(True, "sim", "bool-ts")
        tracer.instant(nan, "sim", "nan-ts", args={"x": nan})
        tracer.complete(1.0, "power", "inf-dur", inf, track="machine")
        tracer.complete(1.0, "power", "int-dur", 2)
        tracer.instant(-inf, "sim", "neg-inf-ts")
        tracer.replay({"ts": 2.0, "cat": None, "name": "no-cat",
                       "ph": "I", "dur": 0.5})
        clock.t = 7  # a frozen integer clock from here on
        tracer.instant(3.0, "core", "int-wall", args={"seq": 3})

    def test_streamed_mixed_shapes_match_batch_export(self, tmp_path):
        """Streaming and batch export share one line function: for every
        event shape, fallback cases included, the files are
        byte-identical and equal ``json.dumps(record, sort_keys=True)``."""
        import json

        from repro.obs import JsonlSink
        from repro.obs.export import write_events_jsonl

        streamed = tmp_path / "streamed.jsonl"
        with JsonlSink(streamed) as sink:
            clock = FakeClock(0)
            ring = Tracer(capacity=4, sink=sink, clock=clock)
            self._emit_mixed(ring, clock)
            ring.flush()

        clock = FakeClock(0)
        unbounded = Tracer(clock=clock)
        self._emit_mixed(unbounded, clock)
        buffered = tmp_path / "buffered.jsonl"
        write_events_jsonl(unbounded.events, buffered)

        assert streamed.read_bytes() == buffered.read_bytes()
        assert buffered.read_text(encoding="utf-8") == "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in unbounded.events)

    def test_flush_flushes_sink(self, tmp_path):
        from repro.obs import JsonlSink

        path = tmp_path / "stream.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink=sink, clock=FakeClock())
        tracer.instant(0.0, "sim", "e")
        tracer.flush()
        # Readable before close: flush() pushed it to disk.
        assert path.read_text().count("\n") == 1
        sink.close()

    def test_sink_count_tracks_writes(self, tmp_path):
        from repro.obs import JsonlSink

        with JsonlSink(tmp_path / "s.jsonl") as sink:
            tracer = Tracer(sink=sink, clock=FakeClock())
            self._emit_n(tracer, 5)
            assert sink.count == 5
