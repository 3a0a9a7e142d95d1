"""Observability subsystem: tracing, metrics, and the determinism contract.

The load-bearing claims, each asserted here:

* same seed => byte-identical exported JSONL traces, including runs
  with injected faults and timeout-modelled detection (hypothesis
  sweeps the scenario space);
* serial and process-pool ``control_sweep`` export byte-identical
  cell traces;
* the ``ControlTimeline`` is bit-identical with tracing enabled and
  disabled — the tracer observes, never perturbs — and every epoch
  record carries a frozen metrics snapshot in both modes;
* the Chrome trace export is valid JSON in trace-event shape;
* detection spans measure exactly what ``DetectionRecord`` records;
* the wall-clock lint holds for the tree and catches violations.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PlanningSession
from repro.control import ControlLoop, flash_crowd
from repro.errors import ControlError, PlanningError
from repro.obs import (
    NULL_OBS,
    NULL_TRACER,
    MetricsRegistry,
    MetricsSnapshot,
    NullTracer,
    Obs,
    Stopwatch,
    Tracer,
)
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop

WORK = dgemm_mflop(200)
REPO_ROOT = Path(__file__).resolve().parent.parent

FAULTS = "crash:target=busiest-child,at=8"
DETECTION = "timeout=0.5,retries=1,threshold=3,grace=2"


def small_loop(**overrides):
    """A fast-running controller over a 10-node pool."""
    defaults = dict(
        pool=NodePool.uniform_random(10, low=80, high=400, seed=7),
        app_work=WORK,
        trace=flash_crowd(base=3, peak=20, at=8, rise=2, fall=6),
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1},
        epochs=8,
        epoch_duration=2.0,
        initial_fraction=0.4,
        seed=5,
    )
    defaults.update(overrides)
    return ControlLoop(**defaults)


def traced_run(**overrides):
    """Run a small loop with a fresh tracer; return (timeline, obs)."""
    obs = Obs()
    timeline = small_loop(obs=obs, **overrides).run()
    return timeline, obs


class TestProbe:
    def test_null_tracer_is_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.event(1.0, "cat", "name", key=1)
        assert tracer.begin(1.0, "cat", "name") == -1
        tracer.end(2.0, -1)
        tracer.span(1.0, 2.0, "cat", "name")
        tracer.sample(1.0, "metric", 3.0)
        tracer.clear()

    def test_null_obs_is_shared_and_disabled(self):
        assert NULL_OBS.enabled is False
        assert NULL_OBS.tracer is NULL_TRACER
        assert NULL_OBS.metrics is None

    def test_obs_defaults_to_live_tracer_and_registry(self):
        obs = Obs()
        assert obs.enabled is True
        assert isinstance(obs.tracer, Tracer)
        assert isinstance(obs.metrics, MetricsRegistry)

    def test_stopwatch_accumulates_and_resets(self):
        watch = Stopwatch()
        with watch:
            pass
        assert watch.total >= 0.0
        first = watch.total
        with watch:
            with watch:  # nesting must not double-count into infinity
                pass
        assert watch.total >= first
        watch.reset()
        assert watch.total == 0.0


class TestTracer:
    def test_span_lifecycle_and_filters(self):
        tracer = Tracer()
        span = tracer.begin(1.0, "epoch", "simulate", index=0)
        tracer.event(1.5, "fault", "crash", target="n1")
        tracer.end(2.0, span)
        tracer.sample(2.0, "served_rate", 12.5)
        assert len(tracer) == 3
        (recorded,) = tracer.spans()
        assert (recorded.ts, recorded.dur) == (1.0, 1.0)
        (event,) = tracer.events()
        assert event.cat == "fault"

    def test_jsonl_is_compact_sorted_and_wall_free(self):
        _, obs = traced_run()
        text = obs.tracer.to_jsonl()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == len(obs.tracer)
        for line in lines:
            record = json.loads(line)
            assert "wall" not in record
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )

    def test_jsonl_wall_profile_is_opt_in_metadata(self):
        _, obs = traced_run()
        profiled = obs.tracer.to_jsonl(include_wall=True)
        assert profiled != obs.tracer.to_jsonl()
        assert any(
            "wall" in json.loads(line) for line in profiled.splitlines()
        )

    def test_chrome_export_is_valid_trace_event_json(self):
        _, obs = traced_run(faults=FAULTS, detection=DETECTION)
        data = json.loads(obs.tracer.to_chrome())
        events = data["traceEvents"]
        phases = {event["ph"] for event in events}
        assert {"X", "i", "C", "M"} <= phases
        for event in events:
            assert event["pid"] == 1
            if event["ph"] == "X":
                assert event["dur"] >= 0.0

    def test_tracer_clear_empties_records(self):
        tracer = Tracer()
        tracer.event(0.0, "cat", "name")
        tracer.clear()
        assert len(tracer) == 0


class TestMetricsOnTimeline:
    def test_every_epoch_record_carries_a_snapshot(self):
        timeline = small_loop().run()
        for record in timeline.records:
            assert isinstance(record.metrics, MetricsSnapshot)
            assert record.metrics.value("conversations_served") is not None

    def test_snapshots_match_record_fields(self):
        timeline = small_loop().run()
        for record in timeline.records:
            snapshot = record.metrics
            assert snapshot.value("offered_clients") == record.offered
            assert snapshot.value("served_rate") == record.served_rate
            assert snapshot.value("deployed_nodes") == record.deployed_nodes
            assert snapshot.value("spares") == record.spares

    def test_detection_metrics_reach_the_snapshot(self):
        timeline = small_loop(
            epochs=10, faults=FAULTS, detection=DETECTION
        ).run()
        final = timeline.records[-1].metrics
        assert final.value("faults_injected") == 1
        assert final.value("detections_confirmed") == 1
        stats = final.histogram("detection_latency")
        assert stats is not None and stats.count == 1
        assert stats.total == pytest.approx(
            timeline.mean_detection_latency
        )


class TestDeterminism:
    def test_timeline_bit_identical_with_and_without_tracing(self):
        traced, _ = traced_run(faults=FAULTS, detection=DETECTION, epochs=10)
        plain = small_loop(faults=FAULTS, detection=DETECTION, epochs=10).run()
        assert traced == plain

    def test_repeated_runs_export_identical_bytes(self):
        _, first = traced_run(faults=FAULTS, detection=DETECTION)
        _, second = traced_run(faults=FAULTS, detection=DETECTION)
        assert first.tracer.to_jsonl() == second.tracer.to_jsonl()
        assert first.tracer.to_chrome() == second.tracer.to_chrome()

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        fault_at=st.floats(min_value=2.0, max_value=12.0),
        detected=st.booleans(),
    )
    @settings(max_examples=5, deadline=None)
    def test_same_scenario_same_bytes(self, seed, fault_at, detected):
        """Any (seed, fault time, detection mode) scenario traces
        byte-identically across two independent runs."""
        kwargs = dict(
            epochs=6,
            seed=seed,
            faults=f"crash:target=busiest-child,at={fault_at}",
        )
        if detected:
            kwargs["detection"] = DETECTION
        _, first = traced_run(**kwargs)
        _, second = traced_run(**kwargs)
        assert first.tracer.to_jsonl() == second.tracer.to_jsonl()

    def test_reused_loop_traces_identically_across_runs(self):
        loop = small_loop(obs=True)
        first_timeline = loop.run()
        first = loop.obs.tracer.to_jsonl()
        second_timeline = loop.run()
        assert loop.obs.tracer.to_jsonl() == first
        assert first_timeline == second_timeline


class TestSweepTracing:
    def test_serial_and_pooled_sweeps_trace_identically(self):
        session = PlanningSession()
        pool = NodePool.uniform_random(10, low=80, high=400, seed=7)
        kwargs = dict(
            traces=["flash:base=3,peak=20,at=8"],
            policies=("reactive",),
            seeds=(0, 1),
            epochs=5,
            epoch_duration=2.0,
            obs=True,
            faults=FAULTS,
            detection=DETECTION,
        )
        serial = session.control_sweep(
            pool, WORK, parallel=False, **kwargs
        )
        pooled = session.control_sweep(
            pool, WORK, parallel=True, max_workers=2, **kwargs
        )
        for cell_serial, cell_pooled in zip(serial, pooled):
            assert cell_serial.trace_jsonl is not None
            assert cell_serial.trace_jsonl == cell_pooled.trace_jsonl
            assert cell_serial.timeline == cell_pooled.timeline

    def test_untraced_sweep_leaves_trace_jsonl_none(self):
        session = PlanningSession()
        pool = NodePool.uniform_random(8, low=80, high=400, seed=7)
        cells = session.control_sweep(
            pool, WORK, traces=["constant:level=5"], seeds=(0,),
            epochs=3, epoch_duration=2.0, parallel=False,
        )
        assert cells[0].trace_jsonl is None

    def test_sweep_rejects_non_bool_obs(self):
        session = PlanningSession()
        pool = NodePool.uniform_random(8, low=80, high=400, seed=7)
        with pytest.raises(PlanningError, match="obs must be a bool"):
            session.control_sweep(
                pool, WORK, traces=["constant:level=5"], obs=Obs()
            )


class TestDetectionSpans:
    def test_detection_span_matches_detection_record(self):
        timeline, obs = traced_run(
            epochs=10, faults=FAULTS, detection=DETECTION
        )
        detections = [
            detection
            for record in timeline.records
            for detection in record.detections
        ]
        assert detections, "scenario must confirm at least one failure"
        spans = [
            span for span in obs.tracer.spans() if span.cat == "detection"
        ]
        assert len(spans) == len(detections)
        for span, detection in zip(spans, detections):
            assert span.name == detection.node
            args = dict(span.args)
            assert args["latency"] == detection.latency
            assert span.dur == pytest.approx(detection.latency)

    def test_fault_events_record_the_injection(self):
        _, obs = traced_run(epochs=10, faults=FAULTS)
        faults = [
            event for event in obs.tracer.events() if event.cat == "fault"
        ]
        assert len(faults) == 1
        assert faults[0].name == "crash"


class TestLoopObsArgument:
    def test_true_builds_a_fresh_obs(self):
        loop = small_loop(obs=True)
        assert loop.obs.enabled is True

    def test_none_and_false_disable(self):
        assert small_loop(obs=None).obs is NULL_OBS
        assert small_loop(obs=False).obs is NULL_OBS

    def test_rejects_foreign_objects(self):
        with pytest.raises(ControlError):
            small_loop(obs=object())

    def test_overhead_seconds_still_measures(self):
        loop = small_loop(epochs=4)
        loop.run()
        assert loop.overhead_seconds > 0.0


class TestWallclockLint:
    def test_source_tree_is_clean(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_wallclock.py")],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_lint_catches_a_violation(self, tmp_path):
        offender = tmp_path / "repro" / "control"
        offender.mkdir(parents=True)
        (offender / "bad.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n"
        )
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "check_wallclock.py"),
                str(tmp_path),
            ],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "time.time" in result.stdout

    def test_lint_allows_obs_package(self, tmp_path):
        allowed = tmp_path / "repro" / "obs"
        allowed.mkdir(parents=True)
        (allowed / "probe.py").write_text(
            "from time import perf_counter\n"
        )
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "check_wallclock.py"),
                str(tmp_path),
            ],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestCliTrace:
    def test_trace_subcommand_writes_chrome_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            [
                "trace", "--nodes", "8", "--dgemm", "200",
                "--trace", "constant:level=6",
                "--epochs", "4", "--epoch-duration", "2",
                "--output", str(output),
                "--metrics-output", str(metrics),
            ]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert data["traceEvents"]
        lines = metrics.read_text().splitlines()
        assert len(lines) == 4
        assert {"counters", "gauges", "histograms"} <= set(
            json.loads(lines[0])
        )
        assert "wrote" in capsys.readouterr().out
