"""One workload in one process: set up, run jobs, check every answer.

`run.py` starts this script with the environment that makes the work
deterministic (see run.py) and reads the JSON object it prints last.

Modes:
  setup  prepare the workload and stop; reports the set-up time
  run    prepare, then run whole job cycles back to back for --seconds
  trace  prepare, then the set-up builds and one job cycle untraced, and
         the same again traced
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

import workloads
from tracer import Tracer, layer_readings

CALIBRATE_EVERY_S = 0.05
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop of set, dict and tuple work,
    the kind of work qlogic does.  Taken between jobs, it tracks the host's
    speed, which drifts during a run."""
    t0 = perf_counter()
    sets = [frozenset(range(i, i + 9)) for i in range(96)]
    d: dict = {}
    for a in sets:
        for b in sets[::3]:
            c = a & b
            if c:
                d[c] = d.get(c, 0) + len(a | b)
    sorted(d.items(), key=lambda kv: (kv[1], tuple(kv[0])))
    return (perf_counter() - t0) * 1e3


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_MIN_BEYOND samples beyond it (nearest
    rank); the median when no percentile has that many."""
    xs = sorted(values)
    n = len(xs)
    best = (50.0, -(-n // 2))
    for p in TAIL_LADDER:
        rank = max(1, -(-int(p * 10) * n // 1000))  # ceil(p/100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (p, rank)
    p, rank = best
    return xs[rank - 1], p, n - rank


class Runner:
    """Runs jobs, times them, checks the answers and keeps the tallies.

    A calibration loop runs between jobs whenever CALIBRATE_EVERY_S has
    passed since the last one, so the loops sample the host's speed all
    through the run, and every job lies between two of them."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        # (kind, job ms, index of the first calibration after the job)
        self.samples: list[tuple[str, float, int]] = []
        self.calibrations: list[float] = []
        self.calibrate()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def run(self, job, stdout_bytes: list | None = None) -> float:
        self.attempted += 1
        reason = None
        t0 = perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a crash counts as a failed job, not a failed run
            dt = perf_counter() - t0
            reason = f"{type(exc).__name__}: {exc}"
        else:
            dt = perf_counter() - t0
            try:
                reason = job.check(result)
            except Exception as exc:
                reason = f"unreadable answer ({type(exc).__name__}: {exc})"
            if stdout_bytes is not None:
                stdout_bytes[0] += job.stdout_bytes(result)
        if reason is not None:
            key = f"{job.kind}: {reason}"[:200]
            self.failures[key] = self.failures.get(key, 0) + 1
        self.samples.append((job.kind, dt * 1e3, len(self.calibrations)))
        if perf_counter() - self._last_cal >= CALIBRATE_EVERY_S:
            self.calibrate()
        return dt

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())
        self._last_cal = perf_counter()

    def brackets(self) -> list[float]:
        """For each job, the mean of the calibrations just before and just
        after it: the host's speed around that job."""
        cal = self.calibrations
        return [(cal[i - 1] + cal[i]) / 2 for _, _, i in self.samples]


def host_info() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def end_to_end(runner: Runner) -> dict:
    """Job metrics of a run in ms and in calibration units: job_p50_cal and
    job_tail_cal are taken over each job's time divided by its bracketing
    calibrations, job_mean_cal is the mean job time over the mean bracket."""
    ms = [m for _, m, _ in runner.samples]
    brackets = runner.brackets()
    cal = [m / b for m, b in zip(ms, brackets)]
    calib = statistics.median(runner.calibrations)
    tail_ms, p, beyond = tail(ms)
    return {
        "job_p50_ms": statistics.median(ms),
        "job_tail_ms": tail_ms,
        "job_tail_percentile": p,
        "job_tail_beyond": beyond,
        "jobs": len(ms),
        "jobs_per_s": len(ms) / (sum(ms) / 1e3),
        "failed_frac": runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_p50_cal": statistics.median(cal),
        "job_tail_cal": tail(cal)[0],
        "job_mean_cal": statistics.fmean(ms) / statistics.fmean(brackets),
        "host.calib_ms": calib,
    }


def per_kind(runner: Runner) -> dict:
    """Median time of each kind of job, in ms and in calibration units."""
    kinds: dict = {}
    for (kind, m, _), b in zip(runner.samples, runner.brackets()):
        kinds.setdefault(kind, []).append((m, m / b))
    return {
        kind: {"n": len(v), "p50_ms": statistics.median(m for m, _ in v),
               "p50_cal": statistics.median(c for _, c in v)}
        for kind, v in sorted(kinds.items())
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True, help="wall clock when the process was started")
    args = ap.parse_args(argv)

    plan = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    out = {"sizes": plan.sizes, "problems": plan.problems, "host": host_info()}
    if args.mode == "trace":
        out.update(trace(plan))
        print(json.dumps(out))
        return 0

    jobs = plan.jobs(plan.build())
    setup_s = time.time() - args.t0
    out["setup_s"] = setup_s
    out["setup_calib_ms"] = statistics.median(calibrate() for _ in range(5))
    if args.mode == "run":
        runner = Runner()
        start = perf_counter()
        while True:  # whole cycles, so every run has the same job mix
            for job in jobs:
                runner.run(job)
            if perf_counter() - start >= args.seconds:
                break
        runner.calibrate()
        out.update(attempted=runner.attempted, failed=runner.failed,
                   failures=runner.failures, metrics=end_to_end(runner),
                   per_kind=per_kind(runner))
    print(json.dumps(out))
    return 0


def timed_pass(runner: Runner, plan, stdout_bytes: list | None = None) -> float:
    """The set-up builds and one job cycle, in calibration units (divided by
    the median calibration loop taken during the pass)."""
    first = len(runner.calibrations)
    runner.calibrate()
    t0 = perf_counter()
    built = plan.build()
    elapsed = perf_counter() - t0
    for job in plan.jobs(built):
        elapsed += runner.run(job, stdout_bytes)
    runner.calibrate()
    return elapsed * 1e3 / statistics.median(runner.calibrations[first:])


def trace(plan) -> dict:
    """One pass untraced, then the same pass traced: the counts repeat
    exactly for a fixed seed, and the ratio of the two passes, each in
    calibration units so that host drift between them cancels, is the
    tracing overhead."""
    runner = Runner()
    untraced = timed_pass(runner, plan)
    stdout_bytes = [0]
    with Tracer() as tr:
        traced = timed_pass(runner, plan, stdout_bytes)
    tr.values["cli.stdout_bytes"] = stdout_bytes[0]
    metrics, absent = layer_readings(tr)
    metrics["host.calib_ms"] = statistics.median(runner.calibrations)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "metrics": metrics,
        "absent": absent + tr.absent,
        "cycle_jobs": runner.attempted // 2,
    }


if __name__ == "__main__":
    sys.exit(main())
