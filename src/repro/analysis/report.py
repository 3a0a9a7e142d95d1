"""Plain-text rendering of experiment results.

The benchmark harness regenerates every table and figure of the paper as
text: :func:`ascii_table` for tables, :func:`ascii_chart` for the load
curves (one character column per sample, scaled rows).  Keeping output
textual makes the benchmarks diff-able and keeps the library free of
plotting dependencies.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["ascii_table", "ascii_chart", "format_rate", "render_timeline"]

#: Characters of an epoch's reason a timeline row keeps before eliding.
REASON_WIDTH = 44

#: Plot area of a load-curve chart, in character rows and columns.
CHART_HEIGHT = 12
CHART_WIDTH = 64


def format_rate(value: float) -> str:
    """Compact requests/s formatting (3 significant-ish digits)."""
    if value >= 100:
        return f"{value:.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a boxed, column-aligned table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return (
            "| "
            + " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
            + " |"
        )

    separator = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out: list[str] = []
    if title:
        out.append(title)
    out.append(separator)
    out.append(line(list(headers)))
    out.append(separator)
    for row in str_rows:
        out.append(line(row))
    out.append(separator)
    return "\n".join(out)


def render_timeline(timeline) -> str:
    """Render a :class:`~repro.control.loop.ControlTimeline` as a table.

    One row per control epoch — offered clients, served rate, modeled
    capacity, deployment size, the effective migration downtime paid
    (with the itemized step count), the migration's wall window and the
    policy verdict — followed by the timeline's one-line summary.
    Redeploys are flagged with ``*`` in the act column.  The ``win``
    column is where a concurrent schedule shows: step windows that
    overlap sum to more than the wall window, so ``down/steps`` of
    ``0.30/3`` next to ``win 0.15`` means three drains ran side by
    side; under a serial schedule the window always equals the summed
    step durations.  Epochs whose simulate stage took injected faults
    prefix their reason with the fault summary (``!crash(node-3)``).

    Under timeout-modelled detection the markers separate *injected-at*
    from *detected-at*: ``!crash(x)`` still flags the epoch the fault
    schedule landed the (silent) crash, while ``>dead(x)`` flags the
    epoch the control plane *confirmed* it — with the measured
    injection-to-confirmation latency in the ``detect`` column
    (``fp`` for a false positive, which never matched an injection).
    ``?suspect(x)`` marks epochs that ended with ``x`` inside its
    grace window, and ``~evict(x)`` the epoch a persistently degraded
    server was drained-and-replaced.

    The numeric columns read from each epoch's frozen
    :class:`~repro.obs.MetricsSnapshot` (``record.metrics``), falling
    back to the record fields for timelines recorded before snapshots
    existed — both views are fed from the same deterministic
    simulation state, so a rendered table never mixes sources.

    Hybrid-population runs add a split in the ``pop(c+f)`` column:
    ``12+40134`` means 12 discretely simulated cohort clients plus a
    fluid mass of ~40134 carried analytically (``clients`` stays the
    total the trace offered).  All-discrete runs show ``-``.
    """

    def column(record, name, attribute):
        snapshot = getattr(record, "metrics", None)
        if snapshot is not None:
            value = snapshot.value(name)
            if value is not None:
                return value
        return getattr(record, attribute)

    rows = []
    for record in timeline.records:
        reason = record.reason
        for name in getattr(record, "evictions", ()):
            reason = f"~evict({name}) {reason}"
        suspects = getattr(record, "suspects", ())
        if suspects:
            reason = f"?suspect({','.join(suspects)}) {reason}"
        for detection in getattr(record, "detections", ()):
            reason = f">dead({detection.node}) {reason}"
        for fault in getattr(record, "faults", ()):
            marker = "!" if fault.applied else "?"
            reason = f"{marker}{fault.kind}({fault.target}) {reason}"
        if len(reason) > REASON_WIDTH:
            reason = reason[: REASON_WIDTH - 1] + "…"
        steps = getattr(record, "migration_steps", ())
        down = (
            f"{record.migration_seconds:.2f}/{len(steps)}"
            if steps
            else "-"
        )
        window = (
            f"{record.migration_window:.2f}"
            if steps and getattr(record, "migration_window", 0.0) > 0.0
            else "-"
        )
        detections = getattr(record, "detections", ())
        detect = (
            "/".join(
                f"{d.latency:.2f}" if d.latency is not None else "fp"
                for d in detections
            )
            if detections
            else "-"
        )
        fluid_mass = getattr(record, "fluid_clients", 0.0)
        population = (
            f"{getattr(record, 'cohort_clients', 0)}+{fluid_mass:.0f}"
            if fluid_mass > 0.0
            else "-"
        )
        rows.append(
            [
                record.index,
                f"{record.start:.0f}",
                column(record, "offered_clients", "offered"),
                population,
                format_rate(column(record, "served_rate", "served_rate")),
                format_rate(column(record, "capacity", "capacity")),
                column(record, "deployed_nodes", "deployed_nodes"),
                column(record, "spares", "spares"),
                f"{column(record, 'busiest_utilization', 'busiest_utilization'):.2f}",
                down,
                window,
                detect,
                ("*" if record.applied else " ") + record.action,
                reason,
            ]
        )
    table = ascii_table(
        headers=[
            "epoch", "t", "clients", "pop(c+f)", "req/s", "cap", "nodes",
            "spare", "util", "down/steps", "win", "detect", "act", "reason",
        ],
        rows=rows,
        title=(
            f"Control timeline — policy={timeline.policy} "
            f"trace={timeline.trace_name} seed={timeline.seed} "
            f"migration={getattr(timeline, 'migration', '?')}"
        ),
    )
    return f"{table}\n{timeline.describe()}"


def ascii_chart(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    title: str = "",
) -> str:
    """Render one or more load curves (clients, req/s) as a character plot.

    Each series gets a marker (``*``, ``o``, ``+``, ``x``, ...); axes are
    scaled to the combined data range.  Good enough to show the shape of
    a load curve — which is exactly what the reproduction must match.
    """
    height, width = CHART_HEIGHT, CHART_WIDTH
    markers = "*o+x@#%&"
    all_x = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    all_y = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    if all_x.size == 0:
        return "(no data)"
    x_min, x_max = float(all_x.min()), float(all_x.max())
    y_min, y_max = 0.0, float(all_y.max())
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, (xs, ys)) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            col = int((float(x) - x_min) / x_span * (width - 1))
            row = int((float(y) - y_min) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker

    out: list[str] = []
    if title:
        out.append(title)
    top_label = f"{y_max:.1f} req/s"
    out.append(top_label)
    for row in grid:
        out.append("|" + "".join(row))
    out.append("+" + "-" * width)
    out.append(
        f" {x_min:.0f}{' ' * max(1, width - len(f'{x_min:.0f}') - len(f'{x_max:.0f}'))}"
        f"{x_max:.0f}  (clients)"
    )
    legend = "  ".join(
        f"{markers[i % len(markers)]} = {label}"
        for i, label in enumerate(series)
    )
    out.append(legend)
    return "\n".join(out)
