"""Weak-scaling benchmark: the event engine at thousands of PEs.

The thread-per-PE engine tops out around a few hundred PEs (OS thread
stacks, context-switch storms); the discrete-event engine runs the same
virtual-time model with one Python frame per runnable PE.  This module
measures that: two communication workloads written as generator bodies
(:mod:`repro.engine.steps`), swept over 64/256/1024/4096 PEs on the
event engine, with host wall-clock *per PE step* as the figure of merit.

Workloads
---------

* ``himeno`` — the Himeno halo-exchange cadence: a ring exchange of
  face buffers in two half-duplex phases (all PEs put right, barrier;
  all put left, barrier) followed by a ``gosa`` allreduce priced with
  :meth:`~repro.sim.netmodel.NetworkModel.reduction_cost`.  The
  half-duplex split keeps every ``tx``/``rx`` timeline single-writer
  per phase, so threaded execution is schedule-independent and the
  64-PE equivalence gate can demand *bit-identical* virtual times.
* ``dht`` — the Fig 9 distributed-hash-table update loop: a remote
  fetch-add reserving a slot plus a put of the value.  The gate variant
  rotates writers (one active PE per node per sub-phase) so the per-node
  atomic-unit timelines stay single-writer; the scale variant lets every
  PE update a hashed owner each round (multi-writer — event-engine only,
  where heap order makes it deterministic anyway).

Equivalence gate
----------------

Unless ``--no-gate`` is given, both workloads run at 64 PEs on the
threaded and event engines, which must give identical per-PE results
(including each PE's final virtual clock) and identical trace digests —
the engines must agree bit-for-bit wherever both can run.

Output
------

Results land in the ``scale`` section of ``BENCH_wallclock.json`` (or
``--out``); ``--baseline FILE --max-regression 0.25`` compares the
measured ``wall_us_per_pe_step`` against a committed envelope, and
``--max-flatness R`` bounds the 1024-PE over 64-PE ratio of it per
workload; either fails the run (the CI ``scale-smoke`` job).
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bench.harness import host_info, update_bench_json
from repro.engine.steps import BarrierStep, alloc
from repro.explore.harness import trace_digest
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach
from repro.trace.events import attach as trace_attach

#: Symmetric heap per PE for scale runs — the workloads are tiny on
#: purpose (a 4096-PE job allocates one of these per PE).
SCALE_HEAP_BYTES = 1 << 15

DEFAULT_PES = (64, 256, 1024, 4096)
#: A sweep point is timed in samples: back-to-back runs totalling at
#: least ``SAMPLE_MIN_WALL_S``, read as their mean.  The points take
#: samples in turn until each has ``SWEEP_MIN_SAMPLES`` totalling
#: ``SWEEP_MIN_WALL_S``; its row is the median sample.  Host speed
#: drifts by tens of percent over tens of milliseconds, so the fastest
#: of many ~7 ms 64-PE runs catches short fast windows that a ~130 ms
#: 1024-PE run averages over, and made the flatness ratio noise-bound.
SAMPLE_MIN_WALL_S = 0.1
SWEEP_MIN_SAMPLES = 3
SWEEP_MIN_WALL_S = 0.6
GATE_PES = 64

_DHT_SLOTS = 32


def _mix64(x: int) -> int:
    """splitmix64 finalizer (deterministic owner hashing)."""
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# Workload step programs
# ---------------------------------------------------------------------------


def make_himeno_body(layer, iters: int, face_elems: int, slots: list) -> Callable:
    """Ring halo exchange + gosa reduction as a generator body.

    ``slots`` is a job-shared list (one cell per PE) carrying the local
    gosa contributions between the deposit barrier and the index-order
    sum — the Python stand-in for the reduction's data plane, whose
    virtual cost is charged via ``reduction_cost``.
    """
    job = layer.job
    n = job.num_pes
    red_cost = job.network.reduction_cost(n, 8, layer.profile)

    def index_order_sum() -> float:
        gosa = 0.0
        for v in slots:  # not sum(): compensated from 3.12; digests pin this order
            gosa += v
        return gosa

    def body():
        ctx = current()
        pe = ctx.pe
        right = (pe + 1) % n
        left = (pe - 1) % n
        face_r = np.full(face_elems, pe + 0.25, dtype=np.float64)
        face_l = np.full(face_elems, pe + 0.75, dtype=np.float64)
        ghosts = yield from alloc(layer, (2 * face_elems,), np.float64)
        gosa = 0.0
        for it in range(iters):
            # Phase 1 (half-duplex): everyone sends its right face into
            # the right neighbour's low ghost region.  Only the last PE
            # of each node crosses nodes — one writer per tx/rx timeline.
            layer.put(ghosts, face_r, right, offset=0)
            yield BarrierStep(layer)
            # Phase 2: everyone sends its left face the other way.
            layer.put(ghosts, face_l, left, offset=face_elems)
            yield BarrierStep(layer)
            # Jacobi-ish residual over the received ghosts.
            slots[pe] = float(ghosts.local.sum()) / face_elems
            yield BarrierStep(layer)
            # One PE per iteration computes the sum, the rest adopt it.
            gosa = job.collectives.agree(ctx, f"gosa:{it}", index_order_sum)
            ctx.clock.advance(red_cost)
            yield BarrierStep(layer)
        return round(gosa, 9), ctx.clock.now

    return body


def himeno_steps_per_pe(iters: int) -> int:
    """Engine slices per PE: the allocation barrier plus four barriers
    per iteration (two halo phases, deposit, combine)."""
    return 1 + 4 * iters


def make_dht_body(layer, rounds: int, single_writer: bool) -> Callable:
    """Fig-9 DHT update loop (fetch-add + put) as a generator body.

    ``single_writer=True`` is the equivalence-gate variant: sub-phases
    rotate through ``cores_per_node`` residues so at most one PE per
    node issues an atomic per sub-phase (per-node ``amo`` timelines stay
    single-writer ⇒ threaded runs are schedule-independent).
    ``single_writer=False`` is the weak-scaling variant: every PE
    updates a hashed owner every round.
    """
    job = layer.job
    n = job.num_pes
    width = job.machine.cores_per_node if single_writer else 1
    val = np.array([1], dtype=np.int64)

    def body():
        ctx = current()
        pe = ctx.pe
        counts = yield from alloc(layer, (_DHT_SLOTS,), np.int64)
        table = yield from alloc(layer, (_DHT_SLOTS,), np.int64)
        for rnd in range(rounds):
            for sub in range(width):
                if pe % width == sub:
                    if single_writer:
                        owner = (pe + 1 + rnd) % n
                    else:
                        owner = _mix64(pe * 1000003 + rnd) % n
                    slot = (pe + rnd) % _DHT_SLOTS
                    layer.atomic(counts, owner, slot, "fadd", 1)
                    layer.put(table, val, owner, offset=slot)
                yield BarrierStep(layer)
        return int(counts.local.sum()), ctx.clock.now

    return body


def dht_steps_per_pe(rounds: int, single_writer: bool, cores_per_node: int) -> int:
    width = cores_per_node if single_writer else 1
    return 2 + rounds * width


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_workload(
    workload: str,
    num_pes: int,
    *,
    engine: Any = "event",
    iters: int = 2,
    machine: str = "stampede",
    with_trace: bool = False,
    single_writer: bool = False,
) -> dict:
    """Build a job, run one workload, and return results + timings."""
    job = Job(num_pes, machine, heap_bytes=SCALE_HEAP_BYTES, engine=engine)
    layer = shmem_attach(job)
    tracer = trace_attach(job) if with_trace else None
    if workload == "himeno":
        slots = [0.0] * num_pes
        body = make_himeno_body(layer, iters, 64, slots)
        steps_per_pe = himeno_steps_per_pe(iters)
    elif workload == "dht":
        body = make_dht_body(layer, iters, single_writer)
        steps_per_pe = dht_steps_per_pe(
            iters, single_writer, job.machine.cores_per_node
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; expected himeno/dht")
    t0 = time.perf_counter()
    results = job.run(body)
    wall_s = time.perf_counter() - t0
    total_steps = num_pes * steps_per_pe
    return {
        "workload": workload,
        "pes": num_pes,
        "engine": job.engine.name,
        "results": results,
        "wall_s": round(wall_s, 6),
        "steps_per_pe": steps_per_pe,
        "wall_us_per_pe_step": round(wall_s * 1e6 / total_steps, 3),
        "max_virtual_us": round(max(r[1] for r in results), 6),
        "digest": trace_digest(tracer) if tracer is not None else None,
    }


def equivalence_gate(num_pes: int = GATE_PES, iters: int = 2) -> dict:
    """Threaded-vs-event bitwise agreement on the shared sizes.

    Raises :class:`AssertionError` on any mismatch; returns the gate
    record for the JSON report.
    """
    gate: dict = {"pes": num_pes, "iters": iters, "workloads": {}}
    for workload, kwargs in (
        ("himeno", {}),
        ("dht", {"single_writer": True}),
    ):
        runs = {
            name: run_workload(
                workload, num_pes, engine=name, iters=iters,
                with_trace=True, **kwargs,
            )
            for name in ("threaded", "event")
        }
        t, e = runs["threaded"], runs["event"]
        if t["results"] != e["results"]:
            diverged = [
                pe for pe, (a, b) in enumerate(zip(t["results"], e["results"]))
                if a != b
            ]
            raise AssertionError(
                f"{workload}@{num_pes}: threaded/event results diverge on "
                f"PE(s) {diverged[:8]}: "
                f"{t['results'][diverged[0]]} != {e['results'][diverged[0]]}"
            )
        if t["digest"] != e["digest"]:
            raise AssertionError(
                f"{workload}@{num_pes}: trace digests diverge "
                f"({t['digest'][:16]} != {e['digest'][:16]})"
            )
        gate["workloads"][workload] = {
            "virtual_identical": True,
            "digest_identical": True,
            "digest": t["digest"],
            "max_virtual_us": t["max_virtual_us"],
        }
    return gate


def _sample(workload: str, num_pes: int, iters: int) -> dict:
    """One timing sample of a sweep point: back-to-back runs until they
    total ``SAMPLE_MIN_WALL_S``.  Returns the first run's record, timed
    as their mean, with ``runs`` set to their count."""
    kwargs = {"single_writer": False} if workload == "dht" else {}
    runs = []
    while not runs or sum(r["wall_s"] for r in runs) < SAMPLE_MIN_WALL_S:
        gc.collect()  # the previous Job (a cycle), outside the timing
        runs.append(run_workload(workload, num_pes, engine="event", iters=iters, **kwargs))
    rec = runs[0]
    wall_s = sum(r["wall_s"] for r in runs) / len(runs)
    rec["wall_s"] = round(wall_s, 6)
    rec["wall_us_per_pe_step"] = round(wall_s * 1e6 / (num_pes * rec["steps_per_pe"]), 3)
    rec["runs"] = len(runs)
    return rec


def sweep(
    pes_list=DEFAULT_PES, *, iters: int = 2, quick: bool = False
) -> list[dict]:
    """Event-engine weak-scaling sweep; one record per (workload, size),
    the median of its samples (see ``SAMPLE_MIN_WALL_S``), with
    ``samples`` and ``repeats`` (runs over all samples) counted."""
    if quick:
        iters = min(iters, 2)
    points: dict[tuple[str, int], list[dict]] = {
        (workload, num_pes): [] for num_pes in pes_list for workload in ("himeno", "dht")
    }

    def done(samples: list[dict]) -> bool:
        return (len(samples) >= SWEEP_MIN_SAMPLES
                and sum(r["wall_s"] * r["runs"] for r in samples) >= SWEEP_MIN_WALL_S)

    # Round-robin, so every size samples the same stretch of host time.
    while not all(map(done, points.values())):
        for (workload, num_pes), samples in points.items():
            if not done(samples):
                samples.append(_sample(workload, num_pes, iters))
    records: list[dict] = []
    for samples in points.values():
        samples.sort(key=lambda r: r["wall_s"])
        rec = samples[(len(samples) - 1) // 2]
        rec["samples"] = len(samples)
        rec["repeats"] = sum(r["runs"] for r in samples)
        for key in ("runs", "results", "digest"):
            rec.pop(key)
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------


def check_regression(
    records: list[dict], baseline_path: str | Path, max_regression: float
) -> list[str]:
    """Compare ``wall_us_per_pe_step`` against a committed envelope.

    Returns human-readable violation strings (empty = pass).  Sweep
    points missing from the baseline pass (new sizes are not
    regressions).
    """
    baseline = json.loads(Path(baseline_path).read_text())
    envelope = {
        (b["workload"], b["pes"]): b["wall_us_per_pe_step"]
        for b in baseline.get("sweep", [])
    }
    violations = []
    for rec in records:
        limit = envelope.get((rec["workload"], rec["pes"]))
        if limit is None:
            continue
        allowed = limit * (1.0 + max_regression)
        if rec["wall_us_per_pe_step"] > allowed:
            violations.append(
                f"{rec['workload']}@{rec['pes']}: "
                f"{rec['wall_us_per_pe_step']:.3f} us/step > "
                f"{allowed:.3f} (baseline {limit:.3f} "
                f"+{max_regression:.0%})"
            )
    return violations


def flatness(records: list[dict]) -> dict[str, float]:
    """Per workload, 1024-PE over 64-PE ``wall_us_per_pe_step`` (1.0 =
    per-step host cost independent of PE count)."""
    cost = {(r["workload"], r["pes"]): r["wall_us_per_pe_step"] for r in records}
    return {
        w: round(cost[w, 1024] / c, 3)
        for (w, pes), c in cost.items() if pes == 64 and (w, 1024) in cost
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.scale",
        description="Event-engine weak-scaling sweep + engine equivalence gate",
    )
    parser.add_argument(
        "--pes", default=None,
        help="comma-separated PE counts (default 64,256,1024,4096)",
    )
    parser.add_argument("--iters", type=int, default=2, help="iterations/rounds")
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest meaningful run (CI smoke)",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="skip the 64-PE threaded-vs-event bitwise gate",
    )
    parser.add_argument(
        "--out", default=None, metavar="JSON",
        help="write/merge the scale section into this wallclock JSON",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="JSON",
        help="committed scale baseline to compare against",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional per-PE-step slowdown vs baseline",
    )
    parser.add_argument(
        "--max-flatness", type=float, default=None, metavar="R",
        help="fail if 1024-PE / 64-PE us-per-PE-step exceeds R on a workload",
    )
    ns = parser.parse_args(argv)

    if ns.pes is not None:
        pes_list = tuple(int(p) for p in ns.pes.split(","))
    elif ns.quick:
        pes_list = (64, 1024)
    else:
        pes_list = DEFAULT_PES

    section: dict = {
        "generated_by": "python -m repro.bench.scale",
        "engine": "event",
        "host": host_info(),
    }
    if not ns.no_gate:
        gate = equivalence_gate(min(GATE_PES, min(pes_list)), iters=ns.iters)
        section["gate"] = gate
        for workload, rec in gate["workloads"].items():
            print(
                f"gate {workload}@{gate['pes']}: virtual times and trace "
                f"digests identical (threaded == event)"
            )
    records = sweep(pes_list, iters=ns.iters, quick=ns.quick)
    section["sweep"] = records
    for rec in records:
        print(
            f"{rec['workload']:>7} pes={rec['pes']:>5} wall={rec['wall_s']:>8.3f}s "
            f"{rec['wall_us_per_pe_step']:>8.3f} us/PE-step "
            f"virtual_max={rec['max_virtual_us']:.1f}us"
        )
    section["flatness"] = ratios = flatness(records)
    if ns.out:
        path = update_bench_json(ns.out, "scale", section)
        print(f"scale section written to {path}")
    rc = 0
    for workload, ratio in ratios.items():
        print(f"flatness {workload}: 1024-PE / 64-PE us per PE-step = {ratio:.3f}")
        if ns.max_flatness is not None and ratio > ns.max_flatness:
            print(f"FLATNESS: {workload} {ratio:.3f} > {ns.max_flatness}")
            rc = 1
    if ns.baseline:
        violations = check_regression(records, ns.baseline, ns.max_regression)
        if violations:
            for v in violations:
                print(f"REGRESSION: {v}")
            return 1
        print(f"regression gate passed (max +{ns.max_regression:.0%} vs baseline)")
    return rc


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
