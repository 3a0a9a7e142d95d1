"""Host-speed probe: a short, fixed pure-Python kernel that calls no repro code.

The benchmark host runs all code up to ~1.6x slower in phases lasting
seconds to minutes.  Timing the probe next to every op tells how fast
the host ran just then; an op's time is normalized as
``raw x REF_MS / probe``, with the mean of the probes on both sides of
the op, so a slow phase does not read as a slow program.
"""

from __future__ import annotations

from time import perf_counter

#: The kernel's time (ms) in the benchmark host's fast phase; normalized
#: times read as times on a host running at that speed.
REF_MS = 1.0


def reference_kernel() -> int:
    """About 1 ms of integer and dict work in the interpreter."""
    acc = 0
    table = {}
    for i in range(8_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    return acc


def probe(samples: list) -> float:
    """Time one kernel call; append the time (ms) to ``samples`` and return it."""
    start = perf_counter()
    reference_kernel()
    elapsed = (perf_counter() - start) * 1e3
    samples.append(elapsed)
    return elapsed


def factors(probes: list) -> list:
    """Normalization factor of each op between consecutive ``probes``."""
    return [2 * REF_MS / (a + b) for a, b in zip(probes, probes[1:])]
