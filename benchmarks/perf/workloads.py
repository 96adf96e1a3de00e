"""The six benchmark workloads.

Each workload is ``build(seed) -> rep``: ``build`` generates every input from
the seed (the program never sees the seed itself, only the generated inputs)
and ``rep()`` runs the program once and returns a :class:`RepResult` -- the
virtual elapsed time, a digest of the program's outputs, whether the data
check passed, the exact count of simulated operations, and workload-specific
virtual-side extras.  Virtual numbers must repeat bit-exactly from one
``rep()`` to the next; the harness treats any difference as a failed rep.

Only the default execution path is used: no ``REPRO_NO_BATCH`` /
``REPRO_NO_VECTOR``, no process engine.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import caf
from repro.bench import kvservice, microbench, scale
from repro.bench.dht import dht_benchmark
from repro.bench.harness import (
    UHCAF_CRAY_SHMEM,
    UHCAF_CRAY_SHMEM_2DIM,
    UHCAF_CRAY_SHMEM_NAIVE,
    UHCAF_MV2X_SHMEM,
    pair_partner,
    pair_world_size,
)
from repro.bench.himeno import GRID_SIZES, himeno_caf, himeno_serial
from repro.caf.runtime import current_runtime
from repro.runtime.context import current

MACHINE = "stampede"

# -- section_put / section_get ---------------------------------------------
SECTION_SHAPE = (100, 80, 100)
SECTION_KEY = np.s_[0:100:2, 0:80:2, 0:100:4]  # A(1:100:2, 1:80:2, 1:100:4)
SECTION_ASSIGNMENTS = 40
CONTIG_TRANSFERS = 16
# -- himeno -------------------------------------------------------------------
HIMENO_IMAGES = 16
HIMENO_GRID = "S"
HIMENO_ITERATIONS = 6
# -- lock_dht -----------------------------------------------------------------
LOCK_IMAGES = 8
LOCK_ACQUIRES = 128
LOCK_LAUNCHES = 2
DHT_UPDATES = 512
DHT_SLOTS = 128
# -- kv_service -----------------------------------------------------------------
KV_IMAGES = 4
KV_OPS = 128
KV_MIXES = (("read_heavy", 0.95, 0.05, False), ("balanced", 0.50, 0.50, True))
# -- event_scale ----------------------------------------------------------------
EVENT_PES = (64, 1024)
EVENT_ITERS = 2


@dataclass
class RepResult:
    virtual_us: float
    digest: str
    ok: bool
    ops: int
    #: virtual-side extras: exact, identical in every repetition
    extras: dict = field(default_factory=dict)
    #: host-side extras: wall seconds the program reports about itself
    host: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    build: Callable[[int], Callable[[], RepResult]]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# section_put / section_get: one inter-node pair out of 17 PEs; image 1 drives
# the data plane, everybody else idles in the closing barrier.
# ---------------------------------------------------------------------------


def _section_launch(direction: str, config, phase: str, values: np.ndarray,
                    expect: float):
    """One launch of one phase; returns ``(virtual_us, checksum_ok, stats)``."""
    nbytes = int(np.prod(SECTION_SHAPE)) * 4
    key = SECTION_KEY if phase != "contig" else np.s_[...]
    iters = SECTION_ASSIGNMENTS if phase != "contig" else CONTIG_TRANSFERS

    def kernel():
        ctx = current()
        a = caf.coarray(SECTION_SHAPE, np.float32)
        partner = pair_partner(ctx.pe, 1)
        # A fresh symmetric heap is already zero, so only the image that is
        # read from fills its array: touching 3.2 MB on all 17 images would make
        # page faults, not the data plane, the bulk of the launch.
        if direction == "get" and ctx.pe == pair_partner(0, 1):
            a[...] = values
        caf.sync_all()
        t0 = ctx.clock.now
        got = 0.0
        if partner is not None:
            if direction == "put":
                payload = values[key]
                for _ in range(iters):
                    a.on(partner + 1)[key] = payload
            else:
                for _ in range(iters):
                    got = float(a.on(partner + 1)[key].sum(dtype=np.float64))
        elapsed = ctx.clock.now - t0
        caf.sync_all()
        stats = dict(current_runtime().my_stats)
        landed = float(a.local.sum(dtype=np.float64)) if ctx.pe == pair_partner(0, 1) else 0.0
        return elapsed, got, landed, stats

    results = caf.launch(
        kernel, pair_world_size(1), MACHINE,
        heap_bytes=2 * nbytes + (1 << 18), **config.launch_kwargs(),
    )
    initiator, target = results[0], results[pair_partner(0, 1)]
    seen = target[2] if direction == "put" else initiator[1]
    return initiator[0], seen == expect, initiator[3]


def _build_section(direction: str):
    def build(seed: int):
        rng = np.random.default_rng([seed, 1])
        values = rng.random(SECTION_SHAPE, dtype=np.float32)
        expect_section = float(values[SECTION_KEY].sum(dtype=np.float64))
        expect_full = float(values.sum(dtype=np.float64))
        phases = (
            ("naive", UHCAF_CRAY_SHMEM_NAIVE, expect_section),
            ("2dim", UHCAF_CRAY_SHMEM_2DIM, expect_section),
            ("contig", UHCAF_CRAY_SHMEM, expect_full),
        )

        def rep() -> RepResult:
            virt, ok, ops, extras = 0.0, True, 0, {}
            for phase, config, expect in phases:
                v, good, stats = _section_launch(direction, config, phase, values, expect)
                virt += v
                ok = ok and good
                calls = sum(stats.get(k, 0) for k in
                            ("putmem_calls", "iput_calls", "getmem_calls", "iget_calls"))
                ops += calls
                extras[f"{phase}_virtual_us"] = v
                extras[f"{phase}_logical_calls"] = calls
                extras[f"{phase}_plan_hits"] = stats.get("plan_cache_hits", 0)
                extras[f"{phase}_plan_misses"] = stats.get("plan_cache_misses", 0)
            return RepResult(virt, _digest(virt, ok), ok, ops, extras)

        return rep

    return build


# ---------------------------------------------------------------------------
# himeno: one --full Fig 10 cell.  The seed picks the relaxation factor (an
# input the virtual time does not depend on) and the serial solver is the
# independent reference for gosa.
# ---------------------------------------------------------------------------


def _build_himeno(seed: int):
    omega = float(np.random.default_rng([seed, 2]).uniform(0.7, 0.9))
    reference = himeno_serial(GRID_SIZES[HIMENO_GRID], HIMENO_ITERATIONS, omega)
    nx, ny, nz = GRID_SIZES[HIMENO_GRID]
    # per iteration: one co_sum and one sync_all on every image, plus one halo
    # plane put per neighbour link direction
    ops = HIMENO_ITERATIONS * (2 * HIMENO_IMAGES + 2 * (HIMENO_IMAGES - 1))

    def rep() -> RepResult:
        r = himeno_caf(MACHINE, UHCAF_MV2X_SHMEM, num_images=HIMENO_IMAGES,
                       grid=HIMENO_GRID, iterations=HIMENO_ITERATIONS, omega=omega)
        ok = bool(np.isclose(r.gosa, reference[1], rtol=1e-9, atol=0.0))
        return RepResult(r.elapsed_us, _digest(r.elapsed_us, r.gosa), ok, ops, {
            "mflops_virtual": r.mflops,
            "cells": (nx - 2) * (ny - 2) * (nz - 2),
        })

    return rep


# ---------------------------------------------------------------------------
# lock_dht: Fig 8 twice, then Fig 9 single-writer.  Atomic path only.
# ---------------------------------------------------------------------------


def _build_lock_dht(seed: int):
    dht_seed = int(np.random.default_rng([seed, 3]).integers(1, 1 << 30))
    acquires = LOCK_LAUNCHES * LOCK_IMAGES * LOCK_ACQUIRES

    def rep() -> RepResult:
        locks = [
            microbench.lock_contention_time(MACHINE, UHCAF_CRAY_SHMEM, LOCK_IMAGES,
                                            acquires=LOCK_ACQUIRES)
            for _ in range(LOCK_LAUNCHES)
        ]
        dht = dht_benchmark(MACHINE, UHCAF_CRAY_SHMEM, LOCK_IMAGES,
                            updates_per_image=DHT_UPDATES, slots_per_image=DHT_SLOTS,
                            seed=dht_seed, single_writer=True)
        # Contended MCS hand-off on free-running threads is schedule-dependent:
        # while sizing, 1 launch in 24 gave 875.3 instead of 874.3 virtual us and
        # one gave about 1190.  Only the single-writer DHT time is exact, so only
        # it enters the digest; the harness counts reps whose total drifted.
        ok = dht > 0.0 and all(math.isfinite(v) and v > 0.0 for v in locks)
        return RepResult(sum(locks) + dht, _digest(dht), ok, acquires + DHT_UPDATES,
                         {"lock_acquires": acquires, "dht_updates": DHT_UPDATES})

    return rep


# ---------------------------------------------------------------------------
# kv_service: open loop in virtual time (latency counted from the due arrival),
# one simulation at a time on the host.
# ---------------------------------------------------------------------------


def _build_kv_service(seed: int):
    cell_seeds = np.random.default_rng([seed, 4]).integers(1, 1 << 30, size=len(KV_MIXES))
    specs = [
        kvservice.WorkloadSpec(ops=KV_OPS, read_frac=r, write_frac=w,
                               seed=int(s), disjoint=disjoint)
        for (_, r, w, disjoint), s in zip(KV_MIXES, cell_seeds)
    ]

    def rep() -> RepResult:
        virt, ok, parts, lat, hits, total, ops = 0.0, True, [], [], 0, 0, 0
        for spec in specs:
            results = kvservice.run_cell(spec, images=KV_IMAGES, machine=MACHINE)
            agg = kvservice.aggregate(results, spec)
            virt += max(r["elapsed"] for r in results)
            ok = (ok and agg["lost"] == [] and agg["ops"] == KV_OPS * KV_IMAGES
                  and all(r["stat"] == 0 for r in results))
            parts.append([(r["lat"], r["pairs"]) for r in results])
            lat += [v for r in results for v in r["lat"]]
            hits += sum(r["hits"] for r in results)
            total += sum(r["hits"] + r["misses"] for r in results)
            ops += agg["ops"]
        pct = kvservice.percentiles(lat)
        return RepResult(virt, _digest(parts), ok, ops, {
            "p50_virtual_us": pct["p50"],
            "p99_virtual_us": pct["p99"],
            "cache_hit_rate": hits / total,
            "ops_per_virtual_s": ops / virt * 1e6,
        })

    return rep


# ---------------------------------------------------------------------------
# event_scale: no threads at all.  The step programs take no free inputs, so
# the seed only names the run.
# ---------------------------------------------------------------------------


def _build_event_scale(seed: int):
    def rep() -> RepResult:
        virt, ok, parts, ops, extras, host = 0.0, True, [], 0, {}, {}
        for workload in ("himeno", "dht"):
            for pes in EVENT_PES:
                r = scale.run_workload(workload, pes, engine="event", iters=EVENT_ITERS)
                results = r["results"]
                virt += max(x[1] for x in results)
                if workload == "himeno":
                    ok = ok and len({x[0] for x in results}) == 1
                else:
                    ok = ok and sum(x[0] for x in results) == pes * EVENT_ITERS
                parts.append(results)
                steps = pes * r["steps_per_pe"]
                ops += steps
                extras[f"{workload}_steps_{pes}"] = steps
                host[f"{workload}_wall_s_{pes}"] = r["wall_s"]
        return RepResult(virt, _digest(parts), ok, ops, extras, host)

    return rep


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "section_put",
        "write side of the data plane: caf plan cache, comm batch path, sim pricers, memory scatter",
        {"engine": "threaded", "pes": 17, "profile": "cray-shmem", "shape": SECTION_SHAPE,
         "section": "A(1:100:2,1:80:2,1:100:4)", "phases": ["naive", "2dim", "contig"],
         "assignments": SECTION_ASSIGNMENTS, "contig_transfers": CONTIG_TRANSFERS},
        _build_section("put"),
    ),
    Workload(
        "section_get",
        "same layers read-wise (plan get, gather, push_batch); catches put gains paid for by shared code",
        {"engine": "threaded", "pes": 17, "profile": "cray-shmem", "shape": SECTION_SHAPE,
         "section": "A(1:100:2,1:80:2,1:100:4)", "phases": ["naive", "2dim", "contig"],
         "assignments": SECTION_ASSIGNMENTS, "contig_transfers": CONTIG_TRANSFERS},
        _build_section("get"),
    ),
    Workload(
        "himeno",
        "barrier + co_sum + plane-put cadence over numpy Jacobi; engine wake-ups and sync, little data plane",
        {"engine": "threaded", "images": HIMENO_IMAGES, "grid": HIMENO_GRID,
         "iterations": HIMENO_ITERATIONS, "profile": "mvapich2x-shmem"},
        _build_himeno,
    ),
    Workload(
        "lock_dht",
        "atomic path only (comm.atomic, sim.amo, atomic_rmw_timed, MCS hand-off); no bulk transfers",
        {"engine": "threaded", "images": LOCK_IMAGES, "lock_launches": LOCK_LAUNCHES,
         "acquires": LOCK_ACQUIRES, "dht_updates": DHT_UPDATES, "dht_slots": DHT_SLOTS,
         "single_writer": True, "profile": "cray-shmem"},
        _build_lock_dht,
    ),
    Workload(
        "kv_service",
        "cooperative scheduler hand-offs, replicated table, TAS locks, hot-key cache; reads beside writes",
        {"engine": "cooperative/VirtualTimeOrder", "images": KV_IMAGES, "ops_per_image": KV_OPS,
         "mixes": [m[0] for m in KV_MIXES], "zipf_s": 1.1, "mean_interarrival_virtual_us": 300.0,
         "loop": "open, in virtual time"},
        _build_kv_service,
    ),
    Workload(
        "event_scale",
        "event-engine dispatch at 64 and 1024 PEs, no threads; threading or GIL changes must not move it",
        {"engine": "event", "programs": ["himeno", "dht"], "pes": list(EVENT_PES),
         "iters": EVENT_ITERS},
        _build_event_scale,
    ),
)}
