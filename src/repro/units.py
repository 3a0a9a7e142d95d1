"""Unit conventions and the DGEMM work helper.

The paper (and therefore this library) uses a small, fixed unit system:

========== ================= =====================================
Quantity   Unit              Notes
========== ================= =====================================
data size  Mb (megabit)      message sizes ``Sreq``, ``Srep``
bandwidth  Mb/s              homogeneous link bandwidth ``B``
work       MFlop             ``Wreq``, ``Wrep``, ``Wpre``, ``Wapp``
power      MFlop/s           node computing power ``w``
time       second            all model outputs
rate       requests/second   throughputs ``rho``
========== ================= =====================================

All public model functions take and return values in these units.
:func:`dgemm_mflop` gives the work of the paper's DGEMM workloads in
MFlop, the model's work unit.
"""

from __future__ import annotations

__all__ = ["dgemm_mflop"]


def dgemm_mflop(n: int, m: int | None = None, k: int | None = None) -> float:
    """MFlop cost of a dense matrix multiply ``C = A(nxk) * B(kxm)``.

    Uses the standard ``2*n*m*k`` flop count (multiply + add per inner-loop
    iteration).  Called with a single argument it models the paper's square
    ``DGEMM nxn`` workloads.
    """
    if m is None:
        m = n
    if k is None:
        k = n
    if n <= 0 or m <= 0 or k <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {(n, m, k)}")
    return 2.0 * n * m * k / 1e6
