"""The ltk benchmark: run one workload from a seed, check it, print metrics.

    python3 perfbench/run.py --workload sim_builtin --seed 1 --seconds 22 --trace 0

Run from any directory; ltk is imported from ``src/`` next to this
directory, in-process, and driven only through its CLI entry points
``ltk.cli.main(argv)`` and ``ltk.cli.run(path)``.  Load is one client in a
closed loop: the next job starts when the previous one has finished and its
output has been checked.  Checks run outside the timed region.  The job
timing metrics, setup_s included, are scaled to a reference machine speed
gauged by probe.py during the run.

``--trace 0`` runs whole passes through the workload's job deck, as many
as take ``--seconds`` of job wall time at the reference machine speed
(spec.json gives the seconds of one pass), and reports the end-to-end
metrics.  So every run at a given ``--seconds`` does the same number of
jobs in the same mix, however fast the machine is at the time.
``--trace 1`` runs one pass through the deck, so that every kind of job
is traced and counts repeat exactly for a seed, each job once untraced and
once traced, and reports the per-layer metrics; ``--seconds`` does not
apply to it.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, each metric exactly a ``value``
and a ``unit``, with the names and units declared in BENCHMARK.json.  The
lines before it are a readable summary, which also gives each scaled timing
metric as measured, before scaling.

A job fails when it exits non-zero or its output fails a check.  Failing by
the documented membership-guard abort (exit 1, "left the state surface") is
the program reporting a known limitation, so it leaves ``correct`` true;
any other failure, a wrong output, or a rerun that does not reproduce its
output bytes makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs
from probe import probe_seconds
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_tmp"
TRACE_OUT = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 12
# Job seconds between two runs of the speed probe.
PROBE_EVERY_S = 0.25
# numpy is imported before the clock starts: its import takes twice as
# long as ltk's own and drifted by about a third between sets of runs.
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import numpy; t = time.perf_counter(); import ltk, ltk.cli; "
                "print(time.perf_counter() - t)")


def declared_units() -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def import_ltk():
    """Import ltk and ltk.cli from SRC in this process."""
    sys.path.insert(0, str(SRC))
    import ltk.cli                                  # noqa: F401
    origin = Path(sys.modules["ltk"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ltk was imported from {origin}, not {SRC}")


def time_setup() -> tuple:
    """(import seconds, probe seconds) of SETUP_REPEATS fresh interpreters,
    the speed probe run three times before each."""
    imports, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes += [probe_seconds() for _ in range(3)]
        imports.append(_import_in_fresh_interpreter())
    return imports, probes


def _import_in_fresh_interpreter() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    """Runs jobs through ltk's CLI and checks their outputs."""

    def __init__(self, workdir: Path):
        import checks
        import ltk.cli
        self.checks = checks
        self.cli = ltk.cli
        self.workdir = workdir
        # One buffer for the whole run: ltk's logging handler keeps the
        # stream it first sees.
        self.stderr = io.StringIO()

    def _prepare(self, job):
        job.output.unlink(missing_ok=True)
        if job.config is not None:
            (self.workdir / "job.json").write_text(json.dumps(job.config))
        if job.side_config is not None:
            (self.workdir / "side.json").write_text(json.dumps(job.side_config))

    def invoke(self, job) -> tuple:
        """Run one job; returns (wall seconds, exit code, stderr text)."""
        self._prepare(job)
        self.stderr.seek(0)
        self.stderr.truncate()
        with contextlib.redirect_stderr(self.stderr):
            start = time.perf_counter()
            try:
                if job.config is not None:
                    code = self.cli.run(str(self.workdir / "job.json"))
                else:
                    code = self.cli.main(job.argv)
            except SystemExit as exc:            # argparse rejects the argv
                code = exc.code
            elapsed = time.perf_counter() - start
        return elapsed, code, self.stderr.getvalue()

    def _twin(self, job) -> bytes:
        twin = job.expect["twin"]
        if twin["side_config"] is not None:
            (self.workdir / "twin.json").write_text(
                json.dumps(twin["side_config"]))
        (self.workdir / "twin.csv").unlink(missing_ok=True)
        with contextlib.redirect_stderr(self.stderr):
            code = self.cli.main(twin["argv"])
        if code != 0:
            raise RuntimeError(f"built-in twin exited {code}: "
                               f"{self.stderr.getvalue().strip()}")
        return (self.workdir / "twin.csv").read_bytes()

    def check(self, job, code: int, stderr: str) -> tuple:
        """(failed, problems) of a finished job; problems make it incorrect."""
        if code == 1 and self.checks.BOUNDS["guard_abort_marker"] in stderr:
            return True, []
        if code != 0:
            return True, [f"exit {code}: {stderr.strip()[-300:]}"]
        data = job.output.read_bytes()
        if job.command != "simulate":
            problems = self.checks.check_report(job.expect, data)
        else:
            problems = self.checks.check_simulate(job.expect, data)
            if not problems and "twin" in job.expect:
                try:
                    problems = self.checks.check_twin(job.expect, data,
                                                      self._twin(job))
                except (RuntimeError, ValueError) as err:
                    problems = [str(err)]
        return bool(problems), problems


def _tail(times: list) -> tuple:
    """(value, percentile, jobs beyond) of the highest percentile of job
    time that still has at least 10 jobs beyond it (the maximum when the run
    has 10 jobs or fewer)."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _describe(job) -> str:
    return f"job {job.index} {job.command} {job.system}"


def timed_run(workload: str, seed: int, seconds: float, setup: tuple,
              workdir: Path) -> dict:
    runner = Runner(workdir)
    times, steps_done, failed, problems, aborts = [], 0, 0, [], 0
    rerun = True
    probes, probed_at = [probe_seconds()], 0.0
    pass_s = jobs.SPEC["workloads"][workload]["pass_s"]
    passes = max(1, round(seconds / pass_s))
    n_jobs = passes * jobs.cycle_length(workload)
    for job in itertools.islice(jobs.jobs(workload, seed, workdir), n_jobs):
        if sum(times) - probed_at >= PROBE_EVERY_S:
            probes.append(probe_seconds())
            probed_at = sum(times)
        elapsed, code, stderr = runner.invoke(job)
        times.append(elapsed)
        job_failed, job_problems = runner.check(job, code, stderr)
        if rerun and not job_failed:
            # The first completed job runs again, untimed: same bytes out.
            rerun = False
            first = job.output.read_bytes()
            runner.invoke(job)
            if job.output.read_bytes() != first:
                job_problems.append("rerun of the first job changed its "
                                    "output bytes")
                job_failed = True
        failed += job_failed
        aborts += job_failed and not job_problems
        steps_done += 0 if job_failed else job.rk4_steps
        problems += [f"{_describe(job)}: {p}" for p in job_problems]

    probes.append(probe_seconds())
    # Times at the reference speed, by the mean probe time over the jobs
    # and over the set-up: see probe.py.
    reference = jobs.SPEC["probe"]["reference_s"]
    scale = reference / statistics.mean(probes)
    setup_times, setup_probes = setup
    setup_scale = reference / statistics.mean(setup_probes)
    tail, pct, beyond = _tail(times)
    measured = {"setup_s": statistics.median(setup_times),
                "rk4_steps_per_s": steps_done / sum(times),
                "job_p50_s": statistics.median(times), "job_tail_s": tail}
    metrics = {
        "setup_s": measured["setup_s"] * setup_scale,
        "rk4_steps_per_s": measured["rk4_steps_per_s"] / scale,
        "job_p50_s": measured["job_p50_s"] * scale,
        "job_tail_s": measured["job_tail_s"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    print(f"{workload} seed {seed}: {len(times)} jobs "
          f"({passes} passes through the deck) in "
          f"{sum(times):.2f} s of job time, {failed} failed ({aborts} "
          f"membership-guard aborts)")
    print(f"  speed probe mean {statistics.mean(probes):.6f} s over "
          f"{len(probes)} probes in the jobs, "
          f"{statistics.mean(setup_probes):.6f} s in the set-up; job times "
          f"below are scaled by {scale:.4f}, setup_s by {setup_scale:.4f}; "
          "as measured: "
          + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    print(f"  {'failed_ratio':40s} {failed / len(times):<24} ratio "
          f"(failed / attempted in the JSON line)")
    print(f"  job_tail_s is the p{pct:.1f} job time, with {beyond} of "
          f"{len(times)} jobs beyond it")
    return _result(problems, len(times), failed, metrics)


def trace_run(workload: str, seed: int, workdir: Path,
              out_path: Path = None) -> dict:
    """Run one deck pass, each job untraced and traced; per-layer metrics.

    The two runs of a job alternate in order from job to job, so that
    neither side always runs on warm caches; their outputs must be
    byte-identical.
    """
    runner = Runner(workdir)
    tracer = Tracer()
    n_jobs = jobs.cycle_length(workload)
    plain_s, traced_s, output_bytes, failed, problems = 0.0, 0.0, 0, 0, []

    def traced(job):
        tracer.install()
        try:
            with tracer.span("job", job.index):
                return runner.invoke(job)
        finally:
            tracer.uninstall()

    for job, _ in zip(jobs.jobs(workload, seed, workdir), range(n_jobs)):
        first, second = (runner.invoke, traced) if job.index % 2 == 0 \
            else (traced, runner.invoke)
        elapsed, code, stderr = first(job)
        outcome = (code, _digest(job.output))
        elapsed2, code2, stderr2 = second(job)
        if (code2, _digest(job.output)) != outcome:
            problems.append(f"{_describe(job)}: traced output differs from "
                            f"the untraced output")
        if job.index % 2:
            elapsed, elapsed2, code, stderr = elapsed2, elapsed, code2, stderr2
        plain_s += elapsed
        traced_s += elapsed2
        if job.output.exists():
            output_bytes += job.output.stat().st_size
        job_failed, job_problems = runner.check(job, code, stderr)
        failed += job_failed
        problems += [f"{_describe(job)}: {p}" for p in job_problems]

    # The layers of spec.json name the metrics: "<traced name>.<stat>",
    # or one of the ratios and totals below.
    steps = tracer.count("dynamics.rk4_step")
    derived = {
        "diffkit.passes_per_rk4_step":
            tracer.extra("diffkit.grad") / steps if steps else 0.0,
        "submanifold.membership_per_rk4_step":
            tracer.count("submanifold.membership") / steps if steps else 0.0,
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": traced_s / plain_s,
    }
    stat = {"calls": tracer.count, "self_s": tracer.self_s,
            "passes": tracer.extra}
    metrics = {}
    for name in jobs.SPEC["layers"]:
        if name in derived:
            metrics[name] = derived[name]
        else:
            traced_name, kind = name.rsplit(".", 1)
            metrics[name] = stat[kind](traced_name)

    out_path = out_path or TRACE_OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(out_path, workload=workload, seed=seed, jobs=n_jobs,
                untraced_s=plain_s, traced_s=traced_s)
    print(f"{workload} seed {seed}: {n_jobs} jobs traced, {failed} failed; "
          f"job time {plain_s:.2f} s untraced, {traced_s:.2f} s traced; "
          f"stats and spans in {out_path}")
    return _result(problems, n_jobs, failed, metrics)


def _digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.exists() else None


def _result(problems: list, attempted: int, failed: int,
            metrics: dict) -> dict:
    for problem in problems:
        print(f"INCORRECT {problem}")
    units = declared_units()
    out = {name: {"value": value, "unit": units[name]}
           for name, value in metrics.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ltk" / "__init__.py").is_file():
        print(f"perfbench: no ltk sources at {SRC}", file=sys.stderr)
        return 2
    import_ltk()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            result = trace_run(args.workload, args.seed, workdir)
        else:
            result = timed_run(args.workload, args.seed, args.seconds,
                               time_setup(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:<24} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
