"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py '<job as JSON>'

The job names the workload, seed, size, whether to trace, whether to stop
after set-up, and the files to write: the pass output, the result (timings,
peak RSS, layer metrics) and, when tracing, the spans.  ``started_at``
(main() begins, with the interpreter and numpy loaded), ``ready_at``
(inputs ready), ``pass_start`` and ``pass_end`` are CLOCK_MONOTONIC
readings, comparable with the parent's probe samples.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np  # noqa: F401  (loaded before started_at: not part of set-up)


def main(job: dict) -> int:
    started_at = time.monotonic()
    name, seed, size = job["workload"], job["seed"], job["size"]
    sys.path.insert(0, job["src"])
    import workloads as wl

    if name == "check-default":
        state = wl.setup_check_default(size, job["output"])
        run, dump = wl.run_check_default, None
    elif name == "skew-calculus":
        state = wl.setup_skew(seed, size)
        run, dump = wl.run_skew, wl.dump_skew
    else:
        state = wl.setup_point_eval(seed, size)
        run, dump = wl.run_point_eval, wl.dump_point_eval
    ready_at = time.monotonic()
    result = {"started_at": started_at, "ready_at": ready_at}
    if job["setup_only"]:
        return _write(job, result)

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result["pass_start"] = time.monotonic()
    t0 = time.perf_counter()
    if tracer:
        out = tracer.span("bench.pass", "bench", run, state)
    else:
        out = run(state)
    result["pass_s"] = time.perf_counter() - t0
    result["pass_end"] = time.monotonic()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        result["layers"], result["trace"] = tracer.metrics()
        tracer.dump(job["trace_file"])
    if dump is None:
        result["exit_code"] = out
        # untimed, after the trace is taken: R at the grid's first point,
        # for the verifier's mpmath oracle
        result["grid_r"] = wl.grid_r_sample(size)
    else:
        dump(out, job["output"])
    return _write(job, result)


def _write(job: dict, result: dict) -> int:
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
