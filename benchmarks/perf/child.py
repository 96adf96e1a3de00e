"""One measurement process: set-up, one cold and one warm-up repetition, then
calibrated timed repetitions for a fixed number of seconds.

Started fresh by ``run.py`` for every measurement (thread-backed engines have
slow modes that persist for the life of a process), pinned to one CPU (the
program is GIL-bound; PE threads are the program's own).  Prints one JSON
object on the last line of standard output.

Modes:

* ``plain``   -- nothing installed; the only source of end-to-end numbers.
* ``spans``   -- layer-boundary wrappers from :mod:`spans` installed before any
  ``Job`` exists; adds the span summary, exact counters and the raw spans of
  the first timed repetition.
* ``tracer``  -- ``repro.trace.attach`` on every ``Job`` (the program's own
  tracer, for ``trace.attach_overhead``).
* ``delay``   -- a busy-wait in front of the methods named by ``--delay``
  (``run.py --sensitivity``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
MIN_REPS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "spans", "tracer", "delay"), default="plain")
    ap.add_argument("--delay", default="", help="Class.method=seconds[,...]")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's perf_counter() just before it started this process")
    ap.add_argument("--cpu", type=int, required=True)
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args()

    os.sched_setaffinity(0, {args.cpu})
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print("benchmarks/perf: src/repro is missing; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))

    import estimator
    import workloads

    recorder = None
    traced_jobs: list = []
    if args.mode in ("spans", "delay"):
        import spans

        recorder = spans.Recorder()
        if args.mode == "spans":
            recorder.install_spans()
            recorder.active = True
        else:
            recorder.install_delays({
                name: float(seconds)
                for name, seconds in (item.split("=") for item in args.delay.split(","))
            })
    elif args.mode == "tracer":
        from repro.runtime.launcher import Job
        from repro.trace import attach as trace_attach

        plain_init = Job.__init__

        def traced_init(job, *a, **kw):
            plain_init(job, *a, **kw)
            trace_attach(job)
            traced_jobs.append(job)

        Job.__init__ = traced_init

    workload = workloads.WORKLOADS[args.workload]
    rep = workload.build(args.seed)
    if args.mode == "spans":
        rep = recorder.span(rep, "rep", "bench")
    first = rep()  # cold: fills the worker pool, numpy first-touch, lazy imports
    setup_s = time.perf_counter() - args.spawned_at
    rep()  # warm-up, untimed
    if args.mode == "spans":
        recorder.reset()
    traced_jobs.clear()

    walls: list[float] = []
    host: dict[str, list[float]] = {}
    failed = drift = 0
    job_counters = {"reservations": 0, "busy_virtual_us": 0.0, "barrier_episodes": 0,
                    "retries": 0, "launches": 0, "trace_events": 0}
    calibs = [estimator.calibration_kernel()]
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        # Collect the previous repetition's Job cycles outside the timed window,
        # so a repetition pays only for the garbage it makes itself.
        gc.collect()
        if recorder is not None:
            recorder.rep = len(walls)
            recorder.keep_raw = bool(args.spans_out) and not walls
        t0 = time.perf_counter()
        try:
            result = rep()
            ok = result.ok and result.digest == first.digest
            drift += result.virtual_us != first.virtual_us
            for key, value in result.host.items():
                host.setdefault(key, []).append(value)
        except Exception as exc:  # a repetition that raises is a failed repetition
            print(f"repetition raised: {exc!r}", file=sys.stderr)
            ok = False
        walls.append(time.perf_counter() - t0)
        calibs.append(estimator.calibration_kernel())
        failed += not ok
        jobs = recorder.jobs if args.mode == "spans" else traced_jobs
        for job in jobs:
            job_counters["launches"] += 1
            for group in job.network.timelines().values():
                for tl in group:
                    job_counters["reservations"] += tl.reservations
                    job_counters["busy_virtual_us"] += tl.busy_time
            barriers = [job.barrier, *job.groups.barriers()]
            job_counters["barrier_episodes"] += sum(b.generation for b in barriers)
            if job.faults is not None:
                job_counters["retries"] += job.faults.summary().get("retries", 0)
            if job.tracer is not None:
                job_counters["trace_events"] += job.tracer.count()
        jobs.clear()

    out = {
        "workload": args.workload,
        "mode": args.mode,
        "setup_s": setup_s,
        "walls": walls,
        "calibs": calibs,
        "costs": estimator.calibrated_costs(walls, calibs),
        "attempted": len(walls),
        "failed": failed,
        "virtual_drift_reps": drift,
        "first_ok": bool(first.ok),
        "virtual_us": first.virtual_us,
        "digest": first.digest,
        "ops_per_rep": first.ops,
        "extras": first.extras,
        "host_p25": {k: estimator.quantile(v, 0.25) for k, v in host.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_counters": job_counters,
    }
    if args.mode == "spans":
        recorder.active = False
        out["span_summary"] = recorder.summary()
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w") as fh:
                json.dump({
                    "workload": args.workload,
                    "seed": args.seed,
                    "fields": ["id", "name", "layer", "start_s", "end_s", "parent",
                               "rep", "thread"],
                    "note": "raw spans of the first timed repetition; ids are per thread",
                    "spans": recorder.raw_spans(),
                    "summary": out["span_summary"],
                }, fh)
        recorder.uninstall()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
