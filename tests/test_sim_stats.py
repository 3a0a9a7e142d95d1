"""Measurement utilities (counters, windowed rates, traces)."""

import pytest

from repro.errors import SimulationError
from repro.sim.stats import IntervalCounter, WindowedRate
from repro.sim.trace import TraceRecorder


class TestIntervalCounter:
    def test_count_in_window(self):
        counter = IntervalCounter()
        for t in (0.5, 1.5, 2.5, 3.5):
            counter.record(t)
        assert counter.count == 4
        assert counter.count_in(1.0, 3.0) == 2
        assert counter.count_in(0.0, 10.0) == 4

    def test_boundaries_half_open(self):
        counter = IntervalCounter()
        counter.record(1.0)
        counter.record(2.0)
        # (start, end] semantics.
        assert counter.count_in(1.0, 2.0) == 1
        assert counter.count_in(0.0, 1.0) == 1

    def test_rate(self):
        counter = IntervalCounter()
        for t in range(10):
            counter.record(float(t))
        assert counter.rate(0.0, 9.0) == pytest.approx(1.0)

    def test_rejects_time_reversal(self):
        counter = IntervalCounter()
        counter.record(5.0)
        with pytest.raises(SimulationError):
            counter.record(4.0)

    def test_rejects_bad_window(self):
        with pytest.raises(SimulationError):
            IntervalCounter().rate(2.0, 1.0)


class TestWindowedRate:
    def test_series_buckets(self):
        rate = WindowedRate(width=1.0)
        for t in (0.5, 1.2, 1.8, 2.5):
            rate.record(t)
        centers, values = rate.series(0.0, 3.0)
        assert list(values) == [1.0, 2.0, 1.0]
        assert list(centers) == [0.5, 1.5, 2.5]

    def test_empty_series(self):
        rate = WindowedRate(width=1.0)
        _, values = rate.series(0.0, 2.0)
        assert list(values) == [0.0, 0.0]

    def test_validation(self):
        with pytest.raises(SimulationError):
            WindowedRate(width=0.0)
        with pytest.raises(SimulationError):
            WindowedRate().series(3.0, 1.0)


class TestTraceRecorder:
    def test_emit_and_query(self):
        trace = TraceRecorder()
        trace.emit(1.0, "msg_sent", "a", request_id=1, size_mb=0.5)
        trace.emit(2.0, "msg_recv", "b", request_id=1, size_mb=0.5)
        trace.emit(3.0, "compute", "b", request_id=2, duration=0.1)
        assert len(trace) == 3
        assert len(trace.by_kind("msg_sent")) == 1
        assert len(trace.by_node("b")) == 2
        assert len(trace.for_request(1)) == 2

    def test_detail_payload(self):
        trace = TraceRecorder()
        trace.emit(0.0, "compute", "n", what="merge", degree=4)
        record = trace.by_kind("compute")[0]
        assert record.detail == {"what": "merge", "degree": 4}

    def test_clear(self):
        trace = TraceRecorder()
        trace.emit(0.0, "x", "n")
        trace.clear()
        assert len(trace) == 0
