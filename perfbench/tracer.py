"""Outside-in tracing of ltk's public functions.

The tracer rebinds each traced function, under every name that any loaded
``ltk`` module holds it by (``from .diffkit import grad`` makes a separate
binding in each importing module), to a wrapper that counts calls and
accumulates total and self time.  Self time is a call's duration minus the
time spent in traced calls nested inside it.  Coarse boundaries also record
a span (id, parent span, job, name, start, end).  Everything stays in memory
until :meth:`Tracer.dump`.  ltk itself is not modified: :meth:`uninstall`
restores every binding.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time


def _grad_passes(f, *args, **kwargs) -> int:
    """Dual passes of one grad call: one per coordinate of a dual-safe f."""
    return f.dim if f.dual_safe else 0


# (module, function, stat name, span name or None, extra counter)
TARGETS = (
    ("ltk.cli", "main", "cli", "command", None),
    ("ltk.cli", "run", "cli", "command", None),
    ("ltk.portsys", "simulate", "portsys.simulate", "simulate", None),
    ("ltk.portsys", "validate", "portsys.validate", "validate", None),
    ("ltk.portsys", "interconnect", "portsys.interconnect", "interconnect",
     None),
    ("ltk.dynamics", "flow_transport_check", "dynamics.flow_transport",
     "flow_transport", None),
    ("ltk.dynamics", "integrate", "dynamics.integrate", "integrate", None),
    ("ltk.dynamics", "rk4_step", "dynamics.rk4_step", None, None),
    ("ltk.submanifold", "membership_residual", "submanifold.membership",
     None, None),
    ("ltk.submanifold", "liouville_point", "submanifold.liouville_point",
     None, None),
    ("ltk.geometry", "euler_residual", "geometry.euler_residual", None, None),
    ("ltk.brackets", "degree_check", "brackets.degree_check", None, None),
    ("ltk.brackets", "poisson", "brackets.poisson", None, None),
    ("ltk.diffkit", "grad", "diffkit.grad", None, _grad_passes),
    ("ltk.diffkit", "fd_grad", "diffkit.fd_grad", None, None),
    ("ltk.diffkit", "dirderiv", "diffkit.dirderiv", None, None),
)


class Tracer:
    """Call counts, self times and spans of ltk's public functions."""

    def __init__(self):
        self.stats = {}          # name -> [calls, total_s, self_s, extra]
        self.spans = []
        self.job = None          # index of the job being run, for spans
        self._frames = []        # [start, child_s] of the open traced calls
        self._open_spans = []
        self._undo = []
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name: str, span: str = None, extra=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frames, spans, open_spans = self._frames, self.spans, self._open_spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            if extra is not None:
                stat[3] += extra(*args, **kwargs)
            record = None
            if span is not None:
                record = {"id": len(spans),
                          "parent": open_spans[-1] if open_spans else None,
                          "job": self.job, "name": span}
                spans.append(record)
                open_spans.append(record["id"])
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[0]
                stat[1] += duration
                stat[2] += duration - frame[1]
                if frames:
                    frames[-1][1] += duration
                if record is not None:
                    open_spans.pop()
                    record["start"] = frame[0] - self._t0
                    record["end"] = end - self._t0

        return traced

    def _rebind(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "ltk" and not modname.startswith("ltk."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        """Rebind every target, and wrap the functions compile_fn returns."""
        for modname, attr, name, span, extra in TARGETS:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._wrap(original, name, span, extra))

        compile_fn = sys.modules["ltk.exprlang"].compile_fn

        def compile_traced(*args, **kwargs):
            compiled = compile_fn(*args, **kwargs)
            return dataclasses.replace(
                compiled, fn=self._wrap(compiled.fn, "exprlang.eval"))

        self._rebind(compile_fn, self._wrap(
            functools.wraps(compile_fn)(compile_traced), "exprlang.compile"))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        """A span opened by the benchmark itself around one job."""
        self.job = job
        record = {"id": len(self.spans),
                  "parent": self._open_spans[-1] if self._open_spans else None,
                  "job": job, "name": name,
                  "start": time.perf_counter() - self._t0}
        self.spans.append(record)
        self._open_spans.append(record["id"])
        try:
            yield
        finally:
            self._open_spans.pop()
            record["end"] = time.perf_counter() - self._t0
            self.job = None

    def count(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def extra(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0, 0])[3]

    def dump(self, path, **more):
        """Write stats and spans as JSON, with any extra top-level entries."""
        stats = {name: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                        "extra": s[3]} for name, s in self.stats.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(more, stats=stats, spans=self.spans),
                                   indent=1) + "\n")
