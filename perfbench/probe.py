"""A fixed reference computation that gauges the machine's current speed.

On a shared virtual machine the speed of a vCPU drifts by half over tens
of minutes, with the load of other tenants; process CPU time drifts with
it.  Timing metrics are therefore reported at a reference speed: each run
times this kernel every quarter second of job time, and three times before
each set-up interpreter, and scales its job times and its set-up time by
the kernel's reference time (spec.json) over its mean time in the jobs and
in the set-up respectively.  The mean, not the median: brief stalls slow
the jobs as much as they slow the probe runs they hit.

The kernel is a frozen, self-contained forward-mode dual-number gradient of
a gas-piston-like generator, the same kind of Python work as ltk's hot path
but independent of ltk, so that no change to ltk can move it.
"""

from __future__ import annotations

import math
import time


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v = v
        self.d = d

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, self.d + o.d)
        return _Dual(self.v + o, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v - o.v, self.d - o.d)
        return _Dual(self.v - o, self.d)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, self.v * o.d + self.d * o.v)
        return _Dual(self.v * o, self.d * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _Dual):
            inv = 1.0 / o.v
            return _Dual(self.v * inv, (self.d - self.v * o.d * inv) * inv)
        return _Dual(self.v / o, self.d / o)


def _exp(x):
    v = math.exp(x.v)
    return _Dual(v, v * x.d)


def _generator(x):
    S, V, pi, pS, pV, ppi = x
    u = _exp(S / 1.5) / V
    v = pi / 1.2
    return pV * v + ppi * (u / V - 0.5 * v) + pS * 0.5 * v * v / (u / 1.5)


_POINT = (0.3, 1.1, 0.2, -0.7, 0.4, 0.9)


def probe_seconds(rounds: int = 300) -> float:
    """Wall time of ``rounds`` full dual-number gradients of the generator."""
    start = time.perf_counter()
    for _ in range(rounds):
        for i in range(len(_POINT)):
            x = [_Dual(v) for v in _POINT]
            x[i] = _Dual(_POINT[i], 1.0)
            _generator(x)
    return time.perf_counter() - start
