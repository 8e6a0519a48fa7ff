"""A fixed reference kernel that scales latencies to one machine speed.

The benchmark runs on shared machines whose speed drifts by up to ~1.8x over
tens of seconds while the load average stays low: CPU time tracks wall time,
so the cause is contention for the core and its caches, not descheduling.
The kernel below slows down with the machine.  It mixes the three kinds of
work the workloads do: interpreter loops, gathers and axpys on a
4096-amplitude vector, and small Kronecker products.  It uses no package
code, so a change to the package never moves it.

A latency ``t`` measured between kernel times ``r0`` and ``r1`` is reported
as ``t * REFERENCE_S / mean(r0, r1)``: the latency on a machine where the
kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.010

_AMPS = np.exp(1j * np.arange(4096) / 4096)
_INDEX = np.arange(4096, dtype=np.uint64)
_BLOCK = np.eye(2, dtype=complex)


def _kernel() -> float:
    acc = 0
    for k in range(30000):
        acc = (acc * 31 + k) & 0xFFFF
    z = _AMPS
    for k in range(100):
        z = 0.6 * z + 0.8j * z[_INDEX ^ np.uint64(k)]
    m = _BLOCK
    for _ in range(300):
        m = np.kron(_BLOCK, m[:2, :2])
    return acc + float(z[0].real) + float(m[0, 0].real)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class Scaler:
    """Scales each latency by the kernel times measured just before and after it."""

    def __init__(self):
        self.kernel_s: list = [kernel_seconds()]

    def scale(self, latency: float) -> float:
        before = self.kernel_s[-1]
        self.kernel_s.append(kernel_seconds())
        return latency * REFERENCE_S / ((before + self.kernel_s[-1]) / 2.0)
