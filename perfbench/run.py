"""qlogic benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from its `src/`.
Each workload runs in fresh single-threaded processes (worker.py): a closed
loop with one client that runs jobs back to back and checks every answer.

--trace 0 prints the end-to-end metrics: set-up time (the median of three
set-ups, each in its own process, see setup_seconds) and the job timings
of one untraced run of --seconds.  Job times are also reported divided by a pure-Python
calibration loop interleaved with the jobs (`*_cal`), which cancels most
of the host's drift in speed.  --trace 1 prints the per-layer metrics of
one job cycle, timed from outside the library (tracer.py).

Every line but the last is information for people; the last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quantum_build", "classical_build", "frame_enumerate", "formula_eval")
SETUPS = 3
DEADLINE_S = 170
# set-up seconds are reported at this calibration-loop time (a typical value
# on the 2-vCPU host the benchmark was designed on), see setup_seconds()
CALIB_REF_MS = 2.0

# end-to-end metrics on the result line: (name, unit)
GATED = [
    ("setup_s", "s"),
    ("job_p50_cal", "calib"),
    ("job_mean_cal", "calib"),
    ("peak_rss_mb", "MB"),
]
# every end-to-end metric, printed on the information line: (name, unit)
REPORTED = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("job_p50_cal", "calib"),
    ("job_tail_cal", "calib"),
    ("job_mean_cal", "calib"),
    ("host.calib_ms", "ms"),
]


def child_env(seed: int) -> dict:
    """Deterministic work: string hashing (and with it set iteration order
    in the closure loops) follows the seed, BLAS/OpenMP use one thread, and
    qlogic is imported from the checkout's src/."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=str(seed % 2**32),
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def setup_seconds(runs: list[dict]) -> float:
    """Median over the set-ups of their wall seconds scaled to the reference
    host speed: times CALIB_REF_MS / the calibration loop measured in the
    same process right after its set-up.  The host's speed drifts by up to
    1.75x between runs, which raw set-up times would carry into the metric."""
    return statistics.median(
        r["setup_s"] * CALIB_REF_MS / r["setup_calib_ms"] for r in runs
    )


class ChildFailed(Exception):
    pass


def spawn(mode: str, args, workdir: Path, deadline: float) -> dict:
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir),
    ]
    t0 = time.time()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=child_env(args.seed), cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qlogic" / "__init__.py").is_file():
        print(f"error: no qlogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / str(os.getpid())
    try:
        if args.trace:
            runs = [spawn("trace", args, work / "trace", deadline)]
        else:
            runs = [spawn("setup", args, work / f"setup{k}", deadline) for k in range(SETUPS - 1)]
            runs.append(spawn("run", args, work / "run", deadline))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    last = runs[-1]
    problems = [p for r in runs for p in r["problems"]]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {**last["host"], "commit": commit(), "src_sha256": src_digest()},
        "sizes": last["sizes"],
        "failures": last["failures"],
        "problems": problems,
    }
    metrics = dict(last["metrics"])
    if args.trace:
        import tracer

        info["absent"] = last["absent"]
        info["cycle_jobs"] = last["cycle_jobs"]
        info["layers"] = {
            name: {"value": metrics[name], "unit": unit, "moves": tracer.MOVES[name.split(".")[0]]}
            for name, unit in tracer.per_layer_units()
        }
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in tracer.per_layer_units()}
    else:
        metrics["setup_s"] = setup_seconds(runs)
        info["setup_runs_s"] = [r["setup_s"] for r in runs]
        info["setup_calib_ms"] = [r["setup_calib_ms"] for r in runs]
        info["tail"] = {"percentile": metrics["job_tail_percentile"],
                        "samples": metrics["jobs"], "beyond": metrics["job_tail_beyond"]}
        info["end_to_end"] = {name: {"value": metrics[name], "unit": unit}
                              for name, unit in REPORTED}
        info["per_kind"] = last["per_kind"]
        result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in GATED}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": last["failed"] == 0 and not problems,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
