"""The repo benchmark: six workloads, two clocks, outside-in layer spans.

Driver form (one workload, one JSON object on the last line)::

    python3 benchmarks/perf/run.py --workload himeno --seed 7 --seconds 12 --trace 0

Suite forms (every workload, one ``workload/metric value unit`` line each)::

    python3 benchmarks/perf/run.py --seed 2015              # end-to-end pass
    python3 benchmarks/perf/run.py --seed 2015 --traced     # plus per-layer pass
    python3 benchmarks/perf/run.py --aa                     # same code twice, must agree
    python3 benchmarks/perf/run.py --sensitivity            # does it measure?

This process only orchestrates: every measurement runs in a fresh child
(``child.py``), one at a time, pinned to one CPU.  See README.md for the
definition of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import estimator  # noqa: E402
from spans import LAYERS  # noqa: E402

#: Fresh measurement processes per end-to-end number.  Many short children
#: rather than few long ones: a threaded repetition's slow mode (GIL convoy)
#: sets in about two seconds into a process and then persists, so 8 x 1.5 s
#: keeps the pooled median in the undisturbed mode where 3 x 4 s did not.
CHILDREN = 8
#: Children per mode (plain, spans, tracer) in the per-layer pass.
TRACED_CHILDREN = 2
DEFAULT_SECONDS = 12  # BENCHMARK.json's run_seconds
#: Bytes of one whole-array transfer of the section workloads (100x80x100 float32).
CONTIG_BYTES = 3_200_000
DEFAULT_SEED = 2015
WORKLOAD_NAMES = ("section_put", "section_get", "himeno", "lock_dht", "kv_service",
                  "event_scale")

#: name -> (unit, bound).  All lower-is-better.
END_TO_END = {
    "host_cost": ("calib", 0.10),
    "setup_s": ("s", 0.25),
}

#: The per-layer metrics the driver form reports (``--trace 1``): the ones
#: that are a number on every workload.  ``--traced`` prints these and the
#: workload-specific ones (``null`` where they do not apply).  name -> better.
PER_LAYER = {
    **{f"{layer}.calls": "lower" for layer in LAYERS},
    **{f"{layer}.self_share": "lower" for layer in LAYERS},
    "bench.closure": "higher",
    "bench.calib_ms": "lower",
    "bench.peak_rss_mb": "lower",
    "bench.span_overhead": "lower",
    "trace.attach_overhead": "lower",
    "trace.events": "lower",
    "virtual_us": "lower",
    "virtual_drift_reps": "lower",
    "ops_per_rep": "higher",
    "engine.convoy_ratio": "lower",
    "sim.timeline.reservations": "lower",
    "sim.timeline.busy_virtual_us": "lower",
    "sim.price.us_per_call": "lower",
    "runtime.memory.bytes": "lower",
    "runtime.memory.copy_floor_ratio": "lower",
    "runtime.memory.scatter_floor_ratio": "lower",
    "runtime.memory.contig_floor_ratio": "lower",
    "runtime.sync.barrier_episodes": "lower",
    "runtime.sync.wait_share": "lower",
    "runtime.launch.cost": "lower",
    "check.reservations_match": "higher",
    "check.barrier_episodes_match": "higher",
    **{f"comm.prim.{op}_{size}_us": "lower"
       for op in ("put", "get", "copy") for size in (8, 4096, 1 << 20)},
    "comm.prim.iput_1024_us": "lower",
    "comm.prim.amo_us": "lower",
    "comm.prim.barrier_16_us": "lower",
}

#: Sensitivity injections: methods delayed, workloads predicted to move, and
#: workloads predicted not to.  The delay is sized so every mover's host_cost
#: should rise by at least SENSITIVITY_TARGET (twice its bound).
SENSITIVITY_TARGET = 0.20
SENSITIVITY = (
    ("runtime.memory",
     ("PEMemory.scatter_at", "PEMemory.gather_at", "PEMemory.write_at", "PEMemory.read_at"),
     ("section_put", "section_get"), ("lock_dht", "event_scale")),
    ("comm.atomic", ("OneSidedLayer.atomic",),
     ("lock_dht", "kv_service"), ("section_put",)),
)


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def pinned_cpu() -> int:
    return max(os.sched_getaffinity(0))


def run_child(script: str, argv: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *argv],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{script} {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, mode: str = "plain",
            delay: str = "", spans_out: str = "") -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:.3f}",
            "--mode", mode, "--cpu", str(pinned_cpu()),
            "--spawned-at", repr(time.perf_counter())]
    if delay:
        argv += ["--delay", delay]
    if spans_out:
        argv += ["--spans-out", spans_out]
    return run_child("child.py", argv, timeout=seconds + 60)


def measure_pool(workload: str, seed: int, seconds: float, children: int = CHILDREN,
                 mode: str = "plain", delay: str = "") -> list[dict]:
    return [measure(workload, seed, seconds / children, mode, delay)
            for _ in range(children)]


# ---------------------------------------------------------------------------
# estimators over children
# ---------------------------------------------------------------------------


def host_cost(children: list[dict]) -> float:
    """Median of the calibrated repetition costs pooled over fresh processes."""
    return estimator.pooled([c["costs"] for c in children])["median"]


def end_to_end(children: list[dict]) -> dict:
    return {
        "host_cost": host_cost(children),
        "setup_s": statistics.median(c["setup_s"] for c in children),
    }


def outcome(children: list[dict]) -> tuple[bool, int, int]:
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    same = len({c["digest"] for c in children}) == 1
    correct = failed == 0 and same and all(c["first_ok"] for c in children)
    return correct, attempted, failed


def _per_rep(total: float, reps: int):
    value = total / reps
    return int(value) if float(value).is_integer() else value


def layer_metrics(plain: list[dict], spanned: list[dict], tracer: list[dict],
                  prims: dict) -> dict:
    """Every per-layer metric; ``None`` where it does not apply."""
    reps = sum(c["attempted"] for c in spanned)
    wall = sum(w for c in spanned for w in c["walls"])
    calib_s = statistics.median(x for c in spanned for x in c["calibs"])
    spans: dict = {}  # (layer, name) -> Counter(calls, duration_s, self_s)
    waits, counts, jc = Counter(), Counter(), Counter()
    for c in spanned:
        summary = c["span_summary"]
        for key, fields in summary["spans"].items():
            spans.setdefault(tuple(key.split(":", 1)), Counter()).update(fields)
        waits.update({tuple(k.split(":", 1)): v for k, v in summary["waits"].items()})
        counts.update(summary["counts"])
        jc.update(c["job_counters"])
    extras = spanned[0]["extras"]

    def span(name: str, field: str = "calls") -> float:
        return sum(v[field] for (_, n), v in spans.items() if n == name)

    def per_call_us(name: str, field: str):
        calls = span(name)
        return span(name, field) / calls * 1e6 if calls else None

    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = _per_rep(
            sum(v["calls"] for (lay, _), v in spans.items() if lay == layer), reps)
        m[f"{layer}.self_share"] = sum(
            v["self_s"] for (lay, _), v in spans.items() if lay == layer) / wall
    all_self = sum(v["self_s"] for v in spans.values())
    m["bench.closure"] = all_self / wall

    pool = estimator.pooled([c["costs"] for c in plain])
    plain_cost = pool["median"]
    m["virtual_us"] = plain[0]["virtual_us"]
    m["virtual_drift_reps"] = sum(c["virtual_drift_reps"] for c in [*plain, *spanned, *tracer])
    m["ops_per_rep"] = plain[0]["ops_per_rep"]
    m["bench.calib_ms"] = statistics.median(
        x for c in plain for x in c["calibs"]) * 1e3
    m["bench.peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in plain)
    m["bench.span_overhead"] = host_cost(spanned) / plain_cost - 1.0
    m["trace.attach_overhead"] = host_cost(tracer) / plain_cost - 1.0
    m["trace.events"] = _per_rep(sum(c["job_counters"]["trace_events"] for c in tracer),
                                 sum(c["attempted"] for c in tracer))
    m["engine.convoy_ratio"] = pool["mean"] / pool["p25"]
    m["engine.rep_cost_p90"] = pool["p90"]

    # exact counters, and the program's own counters they must equal
    m["sim.timeline.reservations"] = _per_rep(counts["reservations"], reps)
    m["sim.timeline.busy_virtual_us"] = jc["busy_virtual_us"] / reps
    m["runtime.memory.bytes"] = _per_rep(counts["memory_bytes"], reps)
    m["runtime.sync.barrier_episodes"] = _per_rep(counts["barrier_episodes"], reps)
    m["comm.retries"] = jc["retries"]
    m["check.reservations_match"] = int(counts["reservations"] == jc["reservations"])
    m["check.barrier_episodes_match"] = int(
        counts["barrier_episodes"] == jc["barrier_episodes"])

    body_s = span("pe_body", "duration_s")
    parked = sum(d for (_, n), d in waits.items()
                 if n.endswith(("barrier_wait", "wait_value", "wait_until", "block_until")))
    m["runtime.sync.wait_share"] = parked / body_s if body_s else 0.0
    launch_self = sum(span(n, "self_s") for n in (
        "caf.launch", "Job.__init__", "Job.run", "CafRuntime.startup",
        "ThreadRunMixin.run", "WorkerPool.submit"))
    m["runtime.launch.cost"] = launch_self / jc["launches"] / calib_s

    # caf
    hits = sum(v for k, v in extras.items() if k.endswith("plan_hits"))
    misses = sum(v for k, v in extras.items() if k.endswith("plan_misses"))
    m["caf.plan_cache.hit_rate"] = hits / (hits + misses) if hits + misses else None
    logical = counts["logical_calls"]
    m["caf.logical_calls"] = _per_rep(logical, reps) if logical else None
    if "naive_logical_calls" in extras:
        stats_calls = sum(v for k, v in extras.items() if k.endswith("logical_calls"))
        m["check.logical_calls_match"] = int(logical == stats_calls * reps)
        m["caf.naive_over_2dim_virtual"] = extras["naive_virtual_us"] / extras["2dim_virtual_us"]
    else:
        m["check.logical_calls_match"] = None
        m["caf.naive_over_2dim_virtual"] = None
    acquires = counts["lock_acquires"]
    m["caf.locks.acquires"] = _per_rep(acquires, reps) if acquires else None
    m["caf.locks.atomics_per_acquire"] = (
        counts["lock_atomics"] / acquires if acquires else None)

    # comm: host microseconds per logical call in each regime of the section
    # workloads (unit runs = naive policy, strided lines = 2dim policy).
    m["comm.atomic.us_per_call"] = per_call_us("OneSidedLayer.atomic", "self_s")
    section = "naive_logical_calls" in extras
    for label, kind in (("naive", "runs"), ("2dim", "lines")):
        calls = counts[f"plan_{kind}_calls"]
        m[f"comm.{label}.us_per_call"] = (
            counts[f"plan_{kind}_s"] / calls * 1e6 if section and calls else None)
    contig_s = span("OneSidedLayer.put", "duration_s") + span("OneSidedLayer.get", "duration_s")
    m["comm.contig.gb_per_s"] = (
        extras["contig_logical_calls"] * CONTIG_BYTES * reps / contig_s / 1e9
        if section and contig_s else None)
    m["sim.price.us_per_call"] = per_call_us("price", "duration_s")

    # engine: the event engine's own wall seconds per run, from the plain child
    walls_p25 = {k: statistics.median(c["host_p25"][k] for c in plain)
                 for k in plain[0]["host_p25"]}
    for prog in ("himeno", "dht"):
        per_step = {}
        for pes in (64, 1024):
            key = f"{prog}_wall_s_{pes}"
            per_step[pes] = (walls_p25[key] * 1e6 / extras[f"{prog}_steps_{pes}"]
                             if key in walls_p25 else None)
            m[f"engine.event.{prog}_us_per_pe_step_{pes}"] = per_step[pes]
        m[f"engine.event.flatness_{prog}"] = (
            per_step[1024] / per_step[64] if per_step[64] else None)
    steps = [v for k, v in extras.items() if "_steps_" in k]
    m["engine.event.steps"] = sum(steps) if steps else None

    # explore: everything a hand-off costs is either scheduler self time or
    # the gap nobody's span covers while control changes threads.
    yields = counts["yields"]
    m["explore.yields"] = _per_rep(yields, reps) if yields else None
    explore_self = sum(v["self_s"] for (lay, _), v in spans.items() if lay == "explore")
    m["explore.us_per_yield"] = (
        (explore_self + max(wall - all_self, 0.0)) / yields * 1e6 if yields else None)

    # bench (applications)
    for key in ("p50_virtual_us", "p99_virtual_us", "cache_hit_rate", "ops_per_virtual_s"):
        m[f"kvservice.{key}"] = extras.get(key)
    m["himeno.mflops_virtual"] = extras.get("mflops_virtual")
    sweep = span("himeno._jacobi_sweep", "self_s")
    m["himeno.compute_share"] = sweep / all_self if sweep else None
    m.update(prims)
    return m


# ---------------------------------------------------------------------------
# metric catalogue
# ---------------------------------------------------------------------------

_SUFFIX_UNITS = (
    ("_share", "share"), ("_ratio", "ratio"),
    ("_us", "us"), ("us_per_call", "us"), ("us_per_yield", "us"), ("_overhead", "ratio"),
    ("hit_rate", "ratio"), ("_match", "bool"),
)
_UNITS = {
    "virtual_us": "virt_us", "sim.timeline.busy_virtual_us": "virt_us",
    "kvservice.p50_virtual_us": "virt_us", "kvservice.p99_virtual_us": "virt_us",
    "kvservice.ops_per_virtual_s": "1/virt_s", "himeno.mflops_virtual": "virt_mflops",
    "bench.closure": "ratio", "bench.calib_ms": "ms", "runtime.memory.bytes": "bytes",
    "bench.peak_rss_mb": "MB", "failed_frac": "fraction",
    "runtime.launch.cost": "calib", "engine.rep_cost_p90": "calib",
    "comm.contig.gb_per_s": "GB/s", "caf.naive_over_2dim_virtual": "ratio",
    "caf.locks.atomics_per_acquire": "ratio", "engine.event.flatness_himeno": "ratio",
    "engine.event.flatness_dht": "ratio",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name in _UNITS:
        return _UNITS[name]
    if "_us_per_pe_step_" in name:
        return "us"
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def untraced_pass(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    children = measure_pool(workload, seed, seconds)
    return end_to_end(children), children


def traced_pass(workload: str, seed: int, seconds: float, spans_out: str = "") -> dict:
    """Plain, spanned and tracer-attached children, a third of the time per
    mode, plus the workload-independent primitive table."""
    share = seconds / (3 * TRACED_CHILDREN)
    plain = [measure(workload, seed, share) for _ in range(TRACED_CHILDREN)]
    spanned = [measure(workload, seed, share, "spans", spans_out=spans_out if i == 0 else "")
               for i in range(TRACED_CHILDREN)]
    tracer = [measure(workload, seed, share, "tracer") for _ in range(TRACED_CHILDREN)]
    prims = run_child("prims.py", ["--cpu", str(pinned_cpu())], timeout=120)
    metrics = layer_metrics(plain, spanned, tracer, prims)
    metrics["_outcome"] = outcome([*plain, *spanned, *tracer])
    return metrics


def print_lines(workload: str, metrics: dict) -> None:
    for name, value in metrics.items():
        if name.startswith("_"):
            continue
        shown = "null" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value))
        print(f"{workload}/{name} {shown} {unit_of(name)}")
    sys.stdout.flush()


def driver(args) -> int:
    if args.trace:
        metrics = traced_pass(args.workload, args.seed, args.seconds,
                              str(HERE / "out" / f"trace_{args.workload}.json"))
        correct, attempted, failed = metrics.pop("_outcome")
        names = list(PER_LAYER)
    else:
        metrics, children = untraced_pass(args.workload, args.seed, args.seconds)
        correct, attempted, failed = outcome(children)
        names = list(END_TO_END)
    print_lines(args.workload, metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }))
    return 0


def suite(args) -> dict:
    """Every workload; returns ``{workload: {"end_to_end", "per_layer", ...}}``."""
    results = {}
    for workload in WORKLOAD_NAMES:
        e2e, children = untraced_pass(workload, args.seed, args.seconds)
        correct, attempted, failed = outcome(children)
        row = {
            "end_to_end": e2e, "correct": correct, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            # the most common first-repetition value: lock_dht's can drift
            "virtual_us": statistics.mode(c["virtual_us"] for c in children),
            "digests": sorted({c["digest"] for c in children}),
            "virtual_drift_reps": sum(c["virtual_drift_reps"] for c in children),
            "ops_per_rep": children[0]["ops_per_rep"],
            "samples": attempted, "children": len(children),
            "calib_ms": statistics.median(x for c in children for x in c["calibs"]) * 1e3,
        }
        print_lines(workload, {**e2e, "failed_frac": row["failed_frac"],
                               "virtual_us": row["virtual_us"],
                               "virtual_drift_reps": row["virtual_drift_reps"],
                               "ops_per_rep": row["ops_per_rep"], "samples": attempted})
        if args.traced:
            layers = traced_pass(workload, args.seed, args.seconds,
                                 str(HERE / "out" / f"trace_{workload}.json"))
            layers.pop("_outcome")
            row["per_layer"] = layers
            print_lines(workload, layers)
        results[workload] = row
    return results


def aa(args) -> int:
    """The acceptance check: the same code, measured twice, must agree."""
    first, second = suite(args), suite(args)
    bad = []
    for workload in WORKLOAD_NAMES:
        a, b = first[workload], second[workload]
        for name, (_, bound) in END_TO_END.items():
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            diff = abs(y - x) / x
            verdict = "ok" if diff <= bound else "DIFFERS"
            print(f"aa {workload}/{name} A={x:.6g} B={y:.6g} diff={diff:.4f} "
                  f"bound={bound} {verdict}")
            if diff > bound:
                bad.append(f"{workload}/{name}")
        exact = a["digests"] == b["digests"] and len(a["digests"]) == 1
        print(f"aa {workload}/virtual digest A={a['digests']} B={b['digests']} "
              f"failed A={a['failed']} B={b['failed']} "
              f"{'ok' if exact and not a['failed'] + b['failed'] else 'DIFFERS'}")
        if not exact or a["failed"] or b["failed"]:
            bad.append(f"{workload}/virtual")
    print("aa: " + ("pass" if not bad else "FAIL " + " ".join(bad)))
    return 1 if bad else 0


def sensitivity(args) -> int:
    """Does it measure?  Delay one layer; the predicted workloads must move
    beyond their bound, the bypass workloads must not, virtual time never."""
    bound = END_TO_END["host_cost"][1]
    baselines: dict[str, list[dict]] = {}

    def baseline(workload: str) -> list[dict]:
        if workload not in baselines:
            baselines[workload] = measure_pool(workload, args.seed, args.seconds)
        return baselines[workload]

    bad = []
    for label, methods, movers, bypass in SENSITIVITY:
        # One delay for the whole injection, sized so that every predicted
        # mover should rise by at least the target: calls per repetition of the
        # delayed methods from a spanned probe, cost per repetition from the
        # plain baseline.
        delay_s = 0.0
        for workload in movers:
            probe = measure(workload, args.seed, args.seconds / CHILDREN, "spans")
            calls = sum(v["calls"] for k, v in probe["span_summary"]["spans"].items()
                        if k.split(":", 1)[1] in methods) / probe["attempted"]
            base = baseline(workload)
            rep_s = host_cost(base) * statistics.median(x for c in base for x in c["calibs"])
            delay_s = max(delay_s, SENSITIVITY_TARGET * rep_s / calls)
            print(f"sensitivity {label}: {workload} makes {calls:.0f} delayed calls in a "
                  f"{rep_s * 1e3:.1f} ms repetition")
        delay = ",".join(f"{m}={delay_s:.9f}" for m in methods)
        print(f"sensitivity {label}: {delay_s * 1e6:.2f} us in front of {', '.join(methods)}")
        for workload in (*movers, *bypass):
            base = baseline(workload)
            slowed = measure_pool(workload, args.seed, args.seconds, mode="delay", delay=delay)
            change = host_cost(slowed) / host_cost(base) - 1.0
            moved = change > bound
            expected = workload in movers
            same_virtual = {c["digest"] for c in base} == {c["digest"] for c in slowed}
            ok = moved == expected and same_virtual
            print(f"sensitivity {label} {workload}: host_cost {change:+.3f} "
                  f"(expected {'> ' if expected else '<= '}{bound}) "
                  f"virtual {'unchanged' if same_virtual else 'CHANGED'} "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                bad.append(f"{label}:{workload}")
    print("sensitivity: " + ("pass" if not bad else "FAIL " + " ".join(bad)))
    return 1 if bad else 0


def write_manifest(results: dict, args) -> None:
    import numpy

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(REPO / "src"))
    import workloads

    rows = []
    for workload, row in results.items():
        for name, (unit, bound) in END_TO_END.items():
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "bound": bound,
                "value": row["end_to_end"][name],
                "estimator": {
                    "host_cost": "median of calibrated rep costs pooled over children",
                    "setup_s": "median over children of spawn -> end of cold rep",
                }[name],
                "command": [*spec["command"], "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", "0"],
                "paths": spec["paths"], "seed": args.seed,
                "parameters": workloads.WORKLOADS[workload].params,
                "why": workloads.WORKLOADS[workload].why,
                "ops_per_rep": row["ops_per_rep"], "virtual_us": row["virtual_us"],
                "children": row["children"], "pooled_samples": row["samples"],
                "seconds": args.seconds, "bench.calib_ms": row["calib_ms"],
                "host_cores": os.cpu_count(), "pinned_cpu": pinned_cpu(),
                "python": platform.python_version(), "numpy": numpy.__version__,
            })
    (HERE / "manifest.json").write_text(json.dumps({"rows": rows}, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="suite: add the per-layer pass")
    ap.add_argument("--aa", action="store_true", help="suite twice; fail if they disagree")
    ap.add_argument("--sensitivity", action="store_true", help="inject layer delays")
    ap.add_argument("--write-manifest", action="store_true",
                    help="suite: record this host's rows in manifest.json")
    args = ap.parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print("benchmarks/perf: src/repro is missing; nothing to measure", file=sys.stderr)
        return 2
    if args.workload:
        return driver(args)
    if args.aa:
        return aa(args)
    if args.sensitivity:
        return sensitivity(args)
    results = suite(args)
    if args.write_manifest:
        write_manifest(results, args)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
