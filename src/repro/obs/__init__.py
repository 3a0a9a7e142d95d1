"""Deterministic tracing and metrics (``repro.obs``).

The observability substrate of the control plane:

* :mod:`repro.obs.trace` — a :class:`~repro.obs.trace.Tracer`
  recording typed spans/events keyed by **simulation time**, with
  exporters to byte-identical JSONL and to the Chrome
  ``chrome://tracing`` / Perfetto trace-event format;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry whose
  frozen per-epoch :class:`~repro.obs.metrics.MetricsSnapshot` rides
  on every :class:`~repro.control.loop.EpochRecord`;
* :mod:`repro.obs.probe` — the near-zero-cost instrumentation layer:
  the module-level :data:`~repro.obs.probe.NULL_OBS` handle (disabled
  sites pay one attribute check), and the
  :class:`~repro.obs.probe.Stopwatch` that centralizes every
  wall-clock read the overhead telemetry needs.

**Determinism contract**: same seed ⇒ bit-identical trace and
snapshots, serial or process-pool; wall-clock lives only in
clearly-marked profiling fields (``TraceSpan.wall``,
``Stopwatch.total``) that never enter a
:class:`~repro.control.loop.ControlTimeline` — and this package is
the only one allowed to read the wall clock at all
(``tools/check_wallclock.py`` lints the rest of the tree).

Enable tracing on a controller run by passing an :class:`Obs`::

    from repro.obs import Obs

    obs = Obs()
    timeline = session.control_run(pool, work, trace=trace, obs=obs)
    open("trace.json", "w").write(obs.tracer.to_chrome())
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramStats,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.probe import NULL_OBS, NULL_TRACER, NullTracer, Obs, Stopwatch
from repro.obs.trace import (
    Tracer,
    TraceEvent,
    TraceFlow,
    TraceSample,
    TraceSpan,
)

__all__ = [
    "Obs",
    "NULL_OBS",
    "NullTracer",
    "NULL_TRACER",
    "Stopwatch",
    "Tracer",
    "TraceEvent",
    "TraceSpan",
    "TraceSample",
    "TraceFlow",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "MetricsRegistry",
    "MetricsSnapshot",
]
