"""Time-varying workload traces — the control plane's demand signal.

The paper plans a deployment once, for a fixed client population.  A live
platform sees nothing of the sort: load ramps up through the morning,
bursts around deadlines, and occasionally a *flash crowd* multiplies it in
seconds.  A :class:`Trace` models that as a deterministic function from
simulation time to a **target closed-loop client population** — the same
unit of load as the paper's §5.1 protocol (one client = one request at a
time in a continual loop), so every trace level is directly comparable
with the load-curve figures.

Traces are:

* **pure** — ``level(t)`` depends on ``t`` only, never on call order, so
  a controller can sample the same trace twice (e.g. the oracle policy
  peeking ahead) without perturbing anything;
* **composable** — ``+`` superimposes traces and :meth:`Trace.scale`
  reshapes them;
* **deterministic** — no trace draws random numbers, so the
  determinism contract of :mod:`repro.workloads.loadgen` holds here
  too: the same trace gives the same levels and bit-identical runs;
* **replayable** — :func:`replay` turns a recorded
  :class:`~repro.workloads.loadgen.RampResult` client series back into a
  trace, closing the measure → replay loop.

Constructors: :func:`constant`, :func:`piecewise`, :func:`ramp`,
:func:`diurnal`, :func:`burst`, :func:`flash_crowd`, :func:`replay`, and
:func:`from_spec` for the CLI's compact ``name:key=value,...`` syntax.

**Hybrid fluid/discrete populations.**  Any spec accepts two extra keys,
``population=`` (a multiplier taking a demo-sized shape to 10⁵–10⁶
clients) and ``cohort=`` (how many of those clients are simulated as
real discrete conversations).  The result is a :class:`HybridTrace`:
``level(t)`` is the *total* population, ``cohort_level(t)`` the sampled
discrete slice the engine runs per-message, and ``fluid_level(t)`` the
remainder carried analytically by
:class:`repro.sim.fluid.FluidPopulation`.  Hybrid specs round-trip
exactly: ``from_spec(trace.name)`` rebuilds the same trace, spec string
and all.  Programmatic construction goes through :class:`HybridTrace`.

A small **fixture library** of named :func:`piecewise` scenarios ships
with the package (:func:`fixture` / :func:`fixtures`): real-world-shaped
step functions — a Wikipedia-style flash crowd, a Black-Friday double
wave, an office-hours workday — resolvable by name through
:func:`from_spec` (bare ``wikipedia_flash`` or parameterized
``fixture:name=wikipedia_flash,scale=2``) so sweeps and the CLI get
scenario diversity without hand-writing step lists.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from repro.errors import ControlError

__all__ = [
    "Trace",
    "HybridTrace",
    "constant",
    "piecewise",
    "ramp",
    "diurnal",
    "burst",
    "flash_crowd",
    "replay",
    "fixture",
    "fixtures",
    "from_spec",
]


class Trace:
    """A deterministic client-population target over simulation time.

    Wraps a real-valued function of time; :meth:`level` floors and clamps
    it to a non-negative integer client count.  Combinators return new
    traces and never mutate.
    """

    __slots__ = ("_fn", "name")

    def __init__(self, fn: Callable[[float], float], name: str = "trace"):
        self._fn = fn
        self.name = name

    # ------------------------------------------------------------------ #

    def level(self, t: float) -> int:
        """Target client population at time ``t`` (non-negative integer)."""
        return max(0, int(math.floor(self._fn(t))))

    def __call__(self, t: float) -> int:
        return self.level(t)

    def sample(self, start: float, end: float, step: float) -> list[int]:
        """Levels at ``start, start+step, ...`` strictly below ``end``.

        An empty window (``end == start``) contains no sample points and
        returns ``[]``.
        """
        if step <= 0.0:
            raise ControlError(f"sample step must be > 0, got {step}")
        if end < start:
            raise ControlError(f"bad sample window: ({start}, {end})")
        count = max(0, int(math.ceil((end - start) / step - 1e-12)))
        return [self.level(start + i * step) for i in range(count)]

    def peak(self, start: float, end: float, step: float = 1.0) -> int:
        """Highest sampled level over ``[start, end)`` (must be non-empty)."""
        levels = self.sample(start, end, step)
        if not levels:
            raise ControlError(
                f"cannot take the peak of an empty window ({start}, {end})"
            )
        return max(levels)

    # ------------------------------------------------------------------ #
    # combinators

    def __add__(self, other: "Trace") -> "Trace":
        if not isinstance(other, Trace):
            return NotImplemented
        fn_a, fn_b = self._fn, other._fn
        return Trace(
            lambda t: fn_a(t) + fn_b(t), f"{self.name}+{other.name}"
        )

    def scale(self, factor: float) -> "Trace":
        """This trace with every level multiplied by ``factor``."""
        _require_finite(factor=factor)
        if factor < 0.0:
            raise ControlError(f"scale factor must be >= 0, got {factor}")
        fn = self._fn
        return Trace(lambda t: fn(t) * factor, f"{self.name}*{factor:g}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r})"


# ---------------------------------------------------------------------- #
# constructors


def _require_finite(**values: float) -> None:
    """Refuse NaN and infinities, naming the argument: each would fail
    mid-run, or run on a meaningless level."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ControlError(f"{name} must be finite, got {value!r}")


def constant(level: int) -> Trace:
    """A fixed client population — the paper's own (static) scenario."""
    _require_finite(level=level)
    if level < 0:
        raise ControlError(f"level must be >= 0, got {level}")
    return Trace(lambda t: float(level), f"constant({level})")


def piecewise(steps: Sequence[tuple[float, int]]) -> Trace:
    """A step function: ``steps`` are ``(start_time, level)`` pairs.

    Times must be non-negative and strictly increasing; before the first
    step the level is the first step's level.
    """
    if not steps:
        raise ControlError("piecewise trace needs at least one step")
    if not all(math.isfinite(t) and math.isfinite(level) for t, level in steps):
        raise ControlError(
            f"steps must be finite (time, level) pairs, got {list(steps)!r}"
        )
    times = [float(t) for t, _ in steps]
    levels = [int(level) for _, level in steps]
    if min(levels) < 0:
        raise ControlError(f"levels must be >= 0, got {min(levels)}")
    if times[0] < 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ControlError(
            f"step times must be >= 0 and strictly increasing, got {times}"
        )

    def fn(t: float) -> float:
        level = levels[0]
        for start, step_level in zip(times, levels):
            if t >= start:
                level = step_level
            else:
                break
        return float(level)

    return Trace(fn, f"piecewise({len(steps)} steps)")


def ramp(
    start_level: int, end_level: int, t_start: float, t_end: float
) -> Trace:
    """Linear growth (or decline) between two instants, flat outside."""
    _require_finite(
        start_level=start_level, end_level=end_level,
        t_start=t_start, t_end=t_end,
    )
    if min(start_level, end_level) < 0:
        raise ControlError("levels must be >= 0")
    if t_end <= t_start:
        raise ControlError(f"need t_start < t_end, got ({t_start}, {t_end})")

    def fn(t: float) -> float:
        if t <= t_start:
            return float(start_level)
        if t >= t_end:
            return float(end_level)
        frac = (t - t_start) / (t_end - t_start)
        return start_level + (end_level - start_level) * frac

    return Trace(fn, f"ramp({start_level}->{end_level})")


def diurnal(
    base: int, peak: int, period: float, phase: float = 0.0
) -> Trace:
    """A sinusoidal day/night cycle between ``base`` and ``peak``."""
    _require_finite(base=base, peak=peak, period=period, phase=phase)
    if not (0 <= base <= peak):
        raise ControlError(f"need 0 <= base <= peak, got ({base}, {peak})")
    if period <= 0.0:
        raise ControlError(f"period must be > 0, got {period}")
    mid = (base + peak) / 2.0
    amp = (peak - base) / 2.0

    def fn(t: float) -> float:
        return mid - amp * math.cos(2.0 * math.pi * (t - phase) / period)

    return Trace(fn, f"diurnal({base}..{peak},T={period:g})")


def burst(base: int, burst_level: int, at: float, duration: float) -> Trace:
    """A rectangular burst: ``burst_level`` clients during the window."""
    _require_finite(
        base=base, burst_level=burst_level, at=at, duration=duration
    )
    if min(base, burst_level) < 0:
        raise ControlError("levels must be >= 0")
    if duration <= 0.0:
        raise ControlError(f"duration must be > 0, got {duration}")

    def fn(t: float) -> float:
        return float(burst_level if at <= t < at + duration else base)

    return Trace(fn, f"burst({base}->{burst_level}@{at:g})")


def flash_crowd(
    base: int, peak: int, at: float, rise: float = 5.0, fall: float = 30.0
) -> Trace:
    """A flash crowd: sudden linear rise to ``peak``, exponential decay.

    Level is ``base`` before ``at``, climbs linearly to ``peak`` over
    ``rise`` seconds, then relaxes back towards ``base`` with time
    constant ``fall`` — the canonical shape of a link going viral.
    """
    _require_finite(base=base, peak=peak, at=at, rise=rise, fall=fall)
    if not (0 <= base <= peak):
        raise ControlError(f"need 0 <= base <= peak, got ({base}, {peak})")
    if rise <= 0.0 or fall <= 0.0:
        raise ControlError(
            f"rise and fall must be > 0, got ({rise}, {fall})"
        )

    def fn(t: float) -> float:
        if t < at:
            return float(base)
        if t < at + rise:
            return base + (peak - base) * (t - at) / rise
        return base + (peak - base) * math.exp(-(t - at - rise) / fall)

    return Trace(fn, f"flash({base}->{peak}@{at:g})")


def replay(result: object, window: float = 1.0) -> Trace:
    """Replay the client series of a recorded ramp experiment.

    Accepts a :class:`~repro.workloads.loadgen.RampResult` (or anything
    with a per-bucket ``clients`` array) and holds each bucket's client
    count for ``window`` seconds; beyond the recording the last level
    persists, so a replayed run can outlive the original.
    """
    clients = list(getattr(result, "clients", result))
    _require_finite(window=window, **{
        f"clients[{index}]": count for index, count in enumerate(clients)
    })
    levels = [int(c) for c in clients]
    if not levels:
        raise ControlError("cannot replay an empty client series")
    if window <= 0.0:
        raise ControlError(f"window must be > 0, got {window}")
    last = len(levels) - 1

    def fn(t: float) -> float:
        if t < 0.0:
            return float(levels[0])
        return float(levels[min(int(t / window), last)])

    return Trace(fn, f"replay({len(levels)} buckets)")


# ---------------------------------------------------------------------- #
# hybrid fluid/discrete populations


class HybridTrace(Trace):
    """A trace split into a discrete sampled cohort and a fluid remainder.

    ``population`` multiplies the base shape (so a demo-sized fixture can
    describe 10⁶ clients without rewriting its steps); ``cohort`` caps how
    many of the resulting clients the engine simulates as real closed-loop
    conversations.  The partition is over the **floored** total —
    ``cohort_level(t) + fluid_level(t) == level(t)`` exactly — so a cohort
    at least as large as the peak level leaves zero fluid mass and the
    hybrid run degenerates to the ordinary all-discrete simulation.

    It *is a* :class:`Trace` (``level`` reports the total population), so
    everything that samples traces — policies peeking ahead, capacity
    planning, reports — sees the true demand without knowing about the
    split.
    """

    __slots__ = ("population", "cohort")

    def __init__(
        self, base: Trace, population: float = 1.0, cohort: int = 16
    ):
        if not isinstance(base, Trace):
            raise ControlError(
                f"hybrid base must be a Trace, got {type(base).__name__}"
            )
        _require_finite(population=population, cohort=cohort)
        if population <= 0.0:
            raise ControlError(
                f"population multiplier must be > 0, got {population}"
            )
        if cohort < 1:
            raise ControlError(f"cohort must be >= 1, got {cohort}")
        base_fn = base._fn
        factor = float(population)
        if factor == 1.0:
            fn = base_fn
        else:
            def fn(t: float) -> float:
                return base_fn(t) * factor
        super().__init__(
            fn,
            f"hybrid({base.name},population={factor:g},cohort={int(cohort)})",
        )
        self.population = factor
        self.cohort = int(cohort)

    def cohort_level(self, t: float) -> int:
        """Discrete clients to actually run at ``t`` (≤ ``cohort``)."""
        return min(self.cohort, self.level(t))

    def fluid_level(self, t: float) -> float:
        """Client mass carried by the fluid model at ``t``.

        Exactly ``level(t) - cohort_level(t)`` — the partition covers the
        floored total, so the two halves always recombine to ``level``.
        """
        return float(self.level(t) - self.cohort_level(t))


# ---------------------------------------------------------------------- #
# fixture library

#: Named piecewise scenarios, each a list of ``(start_time, level)``
#: steps over a few simulated minutes.  Shapes are stylized from real
#: arrival traces, scaled to client counts a demo-size pool can serve.
_FIXTURES: dict[str, tuple[tuple[float, int], ...]] = {
    # A page goes viral (the Wikipedia flash-crowd shape): a quiet
    # baseline multiplies tenfold within half a minute, then decays in
    # steps as the link ages off front pages.
    "wikipedia_flash": (
        (0.0, 4), (25.0, 18), (35.0, 40), (55.0, 28), (75.0, 16),
        (100.0, 8), (125.0, 5),
    ),
    # Doors-open retail surge with a second evening wave and a deep
    # overnight trough — two distinct peaks stress scale-up *and*
    # scale-down decisions in one run.
    "black_friday": (
        (0.0, 6), (20.0, 24), (40.0, 36), (60.0, 18), (80.0, 32),
        (105.0, 14), (130.0, 5),
    ),
    # An office-hours workday in miniature: morning ramp, lunch dip,
    # afternoon plateau, evening wind-down.
    "workday": (
        (0.0, 3), (15.0, 12), (35.0, 24), (55.0, 16), (70.0, 26),
        (95.0, 20), (115.0, 8), (135.0, 4),
    ),
}


def fixtures() -> tuple[str, ...]:
    """Names of the shipped trace fixtures, sorted."""
    return tuple(sorted(_FIXTURES))


def fixture(name: str, scale: float = 1.0) -> Trace:
    """A named :func:`piecewise` fixture, optionally level-scaled.

    ``scale`` multiplies every level (e.g. ``scale=2`` doubles the
    crowd), so one shape serves pools of different capacities.
    """
    steps = _FIXTURES.get(name)
    if steps is None:
        raise ControlError(
            f"unknown trace fixture {name!r}; "
            f"available fixtures: {', '.join(fixtures())}"
        )
    _require_finite(scale=scale)
    trace = piecewise(list(steps))
    if scale != 1.0:
        trace = trace.scale(scale)
    trace.name = f"fixture:{name}" + (f"*{scale:g}" if scale != 1.0 else "")
    return trace


# ---------------------------------------------------------------------- #
# CLI spec parsing


_SPEC_BUILDERS: dict[str, tuple[Callable[..., Trace], dict[str, type]]] = {
    "constant": (constant, {"level": int}),
    "ramp": (
        ramp,
        {"start_level": int, "end_level": int, "t_start": float,
         "t_end": float},
    ),
    "diurnal": (
        diurnal, {"base": int, "peak": int, "period": float, "phase": float}
    ),
    "burst": (
        burst, {"base": int, "burst_level": int, "at": float,
                "duration": float},
    ),
    "flash": (
        flash_crowd,
        {"base": int, "peak": int, "at": float, "rise": float, "fall": float},
    ),
}


def from_spec(spec: str) -> Trace:
    """Build a trace from a compact ``name:key=value,...`` string.

    The CLI's trace syntax::

        constant:level=20
        ramp:start_level=5,end_level=60,t_start=10,t_end=50
        diurnal:base=5,peak=40,period=120
        burst:base=5,burst_level=50,at=30,duration=20
        flash:base=5,peak=60,at=30,rise=5,fall=30
        piecewise:steps=0/4|30/40|60/4
        wikipedia_flash
        fixture:name=black_friday,scale=1.5
        diurnal:base=4,peak=10,period=160,population=100000,cohort=24

    ``piecewise`` steps are ``time/level`` pairs joined by ``|``; a bare
    fixture name (see :func:`fixtures`) resolves from the shipped
    library, with ``fixture:name=...,scale=...`` for level scaling.
    The compact forms ``fixture:black_friday`` and
    ``fixture:black_friday*1.5`` are accepted too — they are exactly
    what :attr:`Trace.name` reports for a fixture trace, so fixture
    specs round-trip: ``from_spec(fixture(n, s).name)`` rebuilds an
    equivalent trace.

    Every keyed form additionally accepts ``population=`` (a ``> 0``
    multiplier applied to the shape) and/or ``cohort=`` (``>= 1``
    discrete sampled clients, default 16): their presence upgrades the
    result to a :class:`HybridTrace` whose ``name`` is the spec string
    itself, so hybrid specs round-trip exactly through
    ``from_spec(trace.name)``.
    """
    name, _, body = spec.partition(":")
    name = name.strip().lower()
    if name in _FIXTURES and not body.strip():
        return fixture(name)
    if name == "fixture" and body.strip() and "=" not in body:
        # Compact (round-trippable) form: "fixture:NAME" or
        # "fixture:NAME*SCALE" — the spelling of Trace.name.
        raw_name, star, raw_scale = body.strip().partition("*")
        scale = _spec_float("scale", raw_scale) if star else 1.0
        return fixture(raw_name.strip(), scale=scale)
    kwargs: dict[str, str] = {}
    if body.strip():
        for item in body.split(","):
            key, separator, value = item.partition("=")
            if not separator or not key.strip():
                raise ControlError(
                    f"trace spec expects key=value items, got {item!r}"
                )
            # Accept dashed keys like every other key=value CLI surface.
            key = key.strip().replace("-", "_")
            if key in kwargs:
                raise ControlError(f"duplicate trace spec key {key!r}")
            kwargs[key] = value.strip()
    # Hybrid keys are grammar-wide, not per-builder: pop them before any
    # builder sees (and rejects) them.
    raw_population = kwargs.pop("population", None)
    raw_cohort = kwargs.pop("cohort", None)
    trace = _build_base(name, kwargs)
    if raw_population is None and raw_cohort is None:
        return trace
    population = 1.0
    if raw_population is not None:
        population = _spec_float("population", raw_population)
    cohort = 16
    if raw_cohort is not None:
        try:
            cohort = int(raw_cohort)
        except ValueError as exc:
            raise ControlError(
                f"trace option cohort={raw_cohort!r} is not a valid int"
            ) from exc
    trace = HybridTrace(trace, population=population, cohort=cohort)
    # The spec itself is the canonical name: exact round-trip through
    # from_spec(trace.name).
    trace.name = spec
    return trace


def _spec_float(key: str, raw: str) -> float:
    """A spec's float option, refused unless finite (``1e309`` is
    infinite), naming the option."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise ControlError(
            f"trace option {key}={raw!r} is not a valid float"
        ) from exc
    _require_finite(**{key: value})
    return value


def _build_base(name: str, kwargs: dict[str, str]) -> Trace:
    """Dispatch the keyed spec forms (fixture / piecewise / builders)."""
    if name == "fixture":
        fixture_name = kwargs.pop("name", "")
        raw_scale = kwargs.pop("scale", "1.0")
        if kwargs:
            raise ControlError(
                "fixture trace only takes name=... and scale=..., got "
                f"{sorted(kwargs)}"
            )
        return fixture(fixture_name, scale=_spec_float("scale", raw_scale))
    if name == "piecewise":
        raw = kwargs.pop("steps", "")
        if kwargs:
            raise ControlError(
                f"piecewise trace only takes steps=..., got {sorted(kwargs)}"
            )
        steps = []
        for pair in raw.split("|"):
            if not pair.strip():
                continue
            parts = pair.split("/")
            try:
                if len(parts) != 2:
                    raise ValueError(f"{pair!r} is not one time/level pair")
                time, level = float(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ControlError(
                    f"piecewise steps must be time/level pairs joined by "
                    f"'|', got {raw!r}: {exc}"
                ) from exc
            steps.append((time, level))
        return piecewise(steps)
    if name not in _SPEC_BUILDERS:
        raise ControlError(
            f"unknown trace type {name!r}; expected one of "
            f"{sorted([*_SPEC_BUILDERS, 'piecewise', 'fixture'])} "
            f"or a fixture name ({', '.join(fixtures())})"
        )
    builder, fields = _SPEC_BUILDERS[name]
    unknown = sorted(set(kwargs) - set(fields))
    if unknown:
        raise ControlError(
            f"unknown trace option(s) {unknown} for {name!r}; "
            f"valid options: {sorted(fields)}"
        )
    converted: dict[str, object] = {}
    for key, value in kwargs.items():
        if fields[key] is float:
            converted[key] = _spec_float(key, value)
            continue
        try:
            converted[key] = fields[key](value)
        except ValueError as exc:
            raise ControlError(
                f"trace option {key}={value!r} is not a valid "
                f"{fields[key].__name__}"
            ) from exc
    try:
        return builder(**converted)
    except TypeError as exc:
        raise ControlError(
            f"trace {name!r} is missing required options "
            f"(valid options: {sorted(fields)}): {exc}"
        ) from exc
