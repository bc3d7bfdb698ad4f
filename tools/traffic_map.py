"""Which lines of ltk only the tests reach: a line traffic map.

    python3 tools/traffic_map.py

Runs one pass through the job deck of each perfbench workload, through
perfbench's own job stream and ``Runner`` at seed 7 (read-only: nothing under
``perfbench/`` is written), under a ``sys.settrace`` line tracer limited to
``src/ltk``.  Then runs the tier-1 tests under the same tracer, in a fresh
interpreter, so that neither run sees the other's caches.  Prints the line
counts of both and, per function, the lines that only the tests reach:
the candidates for code that no command runs.

The deck's 10k-step README simulate job runs the same lines as its
300-step jobs and is skipped.  Tier-1 under the tracer takes three to
four minutes on a 2-CPU VM (200-222 s measured), the whole map a few
seconds more.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "ltk") + "/"
# The simulate jobs of at least this many steps: the README job.
README_STEPS = 10000
SEED = 7


class LineTracer:
    """The (file, function, line) triples of ``src/ltk`` that run while
    it is installed.  A function is named by its name and the line it
    starts on (``co_qualname`` needs Python 3.11)."""

    def __init__(self):
        self.reached = set()

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.reached.add((code.co_filename[len(PACKAGE):],
                              f"{code.co_name}:{code.co_firstlineno}",
                              frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def trace_workloads() -> set:
    """The lines one deck pass of each workload reaches, its jobs run and
    checked as ``perfbench/run.py`` runs them."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(SRC)]
    import jobs
    from run import Runner

    tracer = LineTracer()
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        for workload in jobs.WORKLOADS:
            workdir = Path(tmp) / workload
            workdir.mkdir()
            with tracer.installed():     # the first imports ltk, as pytest
                runner = Runner(workdir)
            failed = 0
            deck = itertools.islice(jobs.jobs(workload, SEED, workdir),
                                    jobs.cycle_length(workload))
            for job in deck:
                if job.rk4_steps >= README_STEPS:
                    continue
                with tracer.installed():
                    _, code, stderr = runner.invoke(job)
                    failed += runner.check(job, code, stderr)[0]
            print(f"{workload} seed {SEED}: one deck, {failed} jobs failed",
                  file=sys.stderr)
    return tracer.reached


def trace_tests(out: Path):
    """Run tier-1 under the tracer and write the lines it reaches to
    ``out`` as JSON."""
    import pytest
    tracer = LineTracer()
    with tracer.installed():
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--tb=line",
                              "--continue-on-collection-errors",
                              str(ROOT / "tests")])
    out.write_text(json.dumps({"status": int(status),
                               "reached": sorted(tracer.reached)}))


def _ranges(lines) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests-to", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    if args.tests_to:
        trace_tests(args.tests_to)
        return 0

    workloads = trace_workloads()
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        out = Path(tmp) / "tier1.json"
        # the tests' own report goes to stderr, the map alone to stdout
        subprocess.run([sys.executable, "-B", __file__, "--tests-to",
                        str(out)], check=True, cwd=ROOT, stdout=sys.stderr)
        tier1 = json.loads(out.read_text())
    tests = {tuple(t) for t in tier1["reached"]}

    only = {}
    for path, function, line in tests - workloads:
        only.setdefault((path, function), []).append(line)
    print(f"tier-1 (pytest exit status {tier1['status']}) reaches "
          f"{len(tests)} lines of src/ltk, one deck of each workload at "
          f"seed {SEED} {len(workloads)}; {sum(map(len, only.values()))} "
          f"lines in {len(only)} functions only tier-1 reaches:")
    for (path, function), lines in sorted(only.items()):
        print(f"  {path} {function}: {_ranges(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
