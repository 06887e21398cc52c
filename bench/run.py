"""The dynell benchmark: one workload per run, every pass in a fresh process.

    python3 bench/run.py --workload check-default --seed 0 --seconds 30 --trace 0

A run first starts SETUP_STARTS workers that stop once their inputs are
ready, to time set-up; then passes run one at a time (closed loop, one child
process, no threads) until --seconds have elapsed, and at least MIN_PASSES
times.  Every pass gets the same inputs, derived from --seed.  The outputs
of the first pass are checked independently (verify.py) and every later
pass must write the same bytes.

While a worker runs, this process times a fixed kernel every few
milliseconds: the host's speed, measured outside the measured process.
Set-up and pass times are scaled by the mean speed over their own interval
to nominal host speed.  With --trace 0 the last line of stdout is the run's
JSON result with the end-to-end metrics: setup_s, the median normalised
set-up time (import of dynell and building the inputs); pass_s, the median
normalised pass time; and peak_rss_mb, the largest peak RSS of a pass.
With --trace 1 the passes run traced and the result holds the per-layer
metrics.  A full record, with the raw wall times, the speeds and the host
and version details, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import verify
import workloads as wl
from tracer import PER_LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("check-default", "skew-calculus", "point-eval")
MIN_PASSES = 3
SETUP_STARTS = 24  # set-up-only worker starts per run, before the passes
PASS_TIMEOUT_S = 120
# While a worker runs, this process, pinned to the worker's CPU, times a
# fixed kernel every PROBE_INTERVAL_S; PROBE_NOMINAL_S is the kernel's time
# with the host at full speed (close to its fastest readings on the
# reference host) and sets the unit of the normalised times.
PROBE_INTERVAL_S = 0.005
PROBE_NOMINAL_S = 1.0e-4
# Pass times move more with the host's speed than the kernel's time does
# (the kernel's working set stays in cache, the program's does not): log
# pass wall time against log speed has slopes of -1.0 to -1.5 pooled over a
# workload's runs, and of the exponents tried (1, 1.25, 1.5, 1.75) 1.5 gave
# the steadiest run medians.  Set-up times follow the speed about one to one
# (pooled slopes -1.05 to -1.14).
PASS_SPEED_EXPONENT = 1.5
SETUP_SPEED_EXPONENT = 1.0


def worker_env() -> dict:
    """This environment without the program's configuration file, which
    would change what `dynell check` runs."""
    return {k: v for k, v in os.environ.items() if k != "DYNELL_CONFIG"}


def _probe_kernel():
    """About 0.1 ms of Python integer arithmetic: no allocation that reaches
    the garbage collector, no numpy, a working set of a few cache lines."""
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    return acc


def probe_once() -> tuple:
    """One probe sample: (CLOCK_MONOTONIC at its start, its duration)."""
    at = time.monotonic()
    t0 = time.perf_counter()
    _probe_kernel()
    return at, time.perf_counter() - t0


def window_speed(samples: list, start: float, end: float) -> tuple:
    """The host's mean speed relative to nominal over [start, end], from the
    probe samples taken then (from all samples if none fell inside), and
    the time those samples took from a worker sharing the CPU."""
    window = [d for at, d in samples if start <= at <= end]
    speed = statistics.fmean(PROBE_NOMINAL_S / d for d in window or [d for _, d in samples])
    return speed, sum(window)


def at_nominal_speed(wall_s: float, probe_s: float, speed: float, exponent: float) -> float:
    """A worker's wall time without the probe's share of its CPU, scaled to
    nominal host speed."""
    return (wall_s - probe_s) * speed**exponent


def git_sha(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_pass(job: dict, work: Path) -> dict:
    """Start one worker and probe the host's speed from this process until
    it ends.  Returns the worker's result with the wall times of
    interpreter start-up and set-up, and the set-up and pass times at
    nominal host speed."""
    spawned_at = time.monotonic()
    samples = []
    with open(work / "stderr.txt", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
            stdout=subprocess.DEVNULL, stderr=err, env=worker_env(),
        )
        try:
            while proc.poll() is None:
                if time.monotonic() - spawned_at > PASS_TIMEOUT_S:
                    raise RuntimeError(f"pass took longer than {PASS_TIMEOUT_S} s")
                time.sleep(PROBE_INTERVAL_S)
                samples.append(probe_once())
        finally:
            proc.kill()
            proc.wait()
    stderr = (work / "stderr.txt").read_text(encoding="utf-8")
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed (exit {proc.returncode}):\n{stderr}")
    with open(job["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["start_wall_s"] = result["started_at"] - spawned_at
    result["setup_wall_s"] = result["ready_at"] - result["started_at"]
    speed, probe_s = window_speed(samples, result["started_at"], result["ready_at"])
    result["setup_speed"] = speed
    result["setup_s"] = at_nominal_speed(result["setup_wall_s"], probe_s, speed, SETUP_SPEED_EXPONENT)
    if "pass_end" in result:
        speed, probe_s = window_speed(samples, result["pass_start"], result["pass_end"])
        result["pass_speed"] = speed
        result["pass_nominal_s"] = at_nominal_speed(
            result["pass_s"], probe_s, speed, PASS_SPEED_EXPONENT)
    result["probe_samples"] = len(samples)
    return result


def verify_output(workload: str, seed: int, size: int, path: Path, result: dict) -> verify.Verdict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if workload == "check-default":
        return verify.verify_cli_doc(doc, size, result["grid_r"])
    if workload == "skew-calculus":
        return verify.verify_reports(doc, size)
    return verify.verify_point_eval(doc, wl.point_eval_contexts(seed, size), seed)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: int | None = None, min_passes: int = MIN_PASSES,
                 setup_starts: int = SETUP_STARTS) -> dict:
    """Time set-up in `setup_starts` fresh workers, then run passes for
    `seconds`, verify them, and return the run record."""
    size = wl.FULL_SIZE[workload] if size is None else size
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = RESULTS_DIR / tag
    work.mkdir(parents=True, exist_ok=True)
    job = {
        "src": str(ROOT / "src"), "workload": workload, "seed": seed, "size": size,
        "trace": trace, "setup_only": True, "output": str(work / "output.json"),
        "result": str(work / "result.json"), "trace_file": str(RESULTS_DIR / f"trace-{tag}.npz"),
    }

    # the workers inherit this process's CPU: the probe and the worker share it
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        setups = []
        for _ in range(0 if trace else setup_starts):
            setups.append(run_pass(job, work))
            Path(job["result"]).unlink()
        job["setup_only"] = False
        passes, digests = [], []
        started = time.monotonic()
        while len(passes) < min_passes or time.monotonic() - started < seconds:
            passes.append(run_pass(job, work))
            out = Path(job["output"])
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
            if len(passes) == 1:
                verdict = verify_output(workload, seed, size, out, passes[0])
            out.unlink()
            Path(job["result"]).unlink()
    finally:
        os.sched_setaffinity(0, cpus)
    (work / "stderr.txt").unlink()
    work.rmdir()

    problems = list(verdict.problems)
    if len(set(digests)) != 1:
        problems.append(f"passes wrote {len(set(digests))} different outputs")
    exit_codes = {p.get("exit_code") for p in passes}
    if workload == "check-default":
        skipped = sum(verdict.skipped_by_family.values())
        ran_enough = verdict.attempted - skipped >= 0.9 * verdict.attempted
        expect = 0 if verdict.failed == skipped and ran_enough else 1
        if exit_codes != {expect}:
            problems.append(f"dynell check exited {sorted(exit_codes)}, expected {expect}")

    record = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "grid_seed": wl.CHECK_DEFAULT_GRID_SEED if workload == "check-default" else seed,
        "seconds": seconds, "passes": len(passes),
        "correct": not problems, "problems": problems[:20],
        "attempted": verdict.attempted * len(passes), "failed": verdict.failed * len(passes),
        "per_pass": {"attempted": verdict.attempted, "failed": verdict.failed,
                     "skip_causes": dict(verdict.skip_causes)},
        "pass_s": [p["pass_nominal_s"] for p in passes],
        "pass_wall_s": [p["pass_s"] for p in passes],
        "pass_speed": [p["pass_speed"] for p in passes],
        "setup_s": [p["setup_s"] for p in setups],
        "setup_wall_s": [p["setup_wall_s"] for p in setups],
        "setup_speed": [p["setup_speed"] for p in setups],
        "probe_samples": [p["probe_samples"] for p in setups + passes],
        "pass_setup_wall_s": [p["setup_wall_s"] for p in passes],
        "start_wall_s": [p["start_wall_s"] for p in setups + passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "host": {
            "git_sha": git_sha(ROOT), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(), "platform": platform.platform(),
        },
    }
    if trace:
        record["metrics"] = layer_metrics(passes, verdict)
        record["trace"] = passes[-1]["trace"]
        record["trace_file"] = job["trace_file"]
    else:
        record["metrics"] = {
            "setup_s": {"value": statistics.median(record["setup_s"]), "unit": "s"},
            "pass_s": {"value": statistics.median(record["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": max(record["peak_rss_mb"]), "unit": "MB"},
        }
    return record


def layer_metrics(passes: list, verdict: verify.Verdict) -> dict:
    """Median over the traced passes of each layer metric (counts repeat)."""
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name.endswith(".skipped"):
            value = verdict.skipped_by_family[name.split(".")[1]]
        else:
            value = statistics.median(p["layers"][name] for p in passes)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dynell" / "__init__.py").is_file():
        print(f"error: no dynell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
