"""YCSB-style KV service workload on the replicated DHT.

The source paper measures the Fig-9 DHT closed-loop: every image issues
its next update the instant the previous one completes.  Production KV
services are open-loop — requests arrive on their own schedule (here a
seeded Poisson process priced in virtual time), key popularity is
Zipf-skewed, and the mix of reads/writes/scans is a workload parameter.
This module builds that service on :class:`ReplicatedHashTable`:

* **Traffic generator** — :func:`generate_stream` is a pure function of
  ``(spec, pe)``: Zipf-skewed key ranks via inverse-CDF sampling, the
  read/write/scan mix honoured *exactly* over the stream
  (largest-remainder apportionment + a seeded shuffle), and Poisson
  arrivals as an exponential inter-arrival cumsum.  Same seed ⇒ the
  identical op stream on every engine.
* **Hot-key cache** — each initiator keeps a small map of
  ``key → (value, bucket-version token)``.  A hit revalidates with one
  remote atomic read (:meth:`ReplicatedHashTable.probe_version`) — the
  cache-coherence rule is *version match or miss*, and the initiator's
  own writes invalidate its entry.  On the skewed read-heavy mix this
  keeps the service ahead of the arrival process, which is what pulls
  the p99 down (open-loop latency includes queueing delay).
* **Live resharding** — mid-stream, image 1 grows the bucket ring
  (:meth:`grow_ring`) while every image keeps serving its stream;
  images drain re-homed entries opportunistically when they observe the
  new epoch.  The gate: zero lost acknowledged writes across the move.
* **History recording** — with ``record=True`` every op lands in a
  :class:`repro.bench.kvhistory.Recorder`; the linearizability corpus
  (``tests/integration/test_kv_linearizable.py``) replays these under
  schedule exploration and crash injection.

``python -m repro.bench.kvservice`` runs the percentile grid (two Zipf
skews × two mixes), the cache-on/off p99 comparison and the
reshard-under-load gate; ``--out FILE`` merges a ``kvservice`` section
into that wallclock JSON (``BENCH_wallclock.json`` holds the committed
one).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro import caf
from repro.bench.dht import ReplicatedHashTable
from repro.bench.harness import update_bench_json
from repro.bench.kvhistory import Recorder
from repro.runtime.context import current

#: Default symmetric heap for service runs.
HEAP_BYTES = 1 << 19

_KINDS = ("read", "write", "scan")


# ---------------------------------------------------------------------------
# Traffic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One service workload configuration (shared by every initiator;
    the per-PE streams differ only through the PE's seed stream)."""

    ops: int = 128
    #: Distinct key ranks per initiator's popularity distribution.
    keyspace: int = 48
    #: Zipf exponent: rank r is drawn with weight 1/r**zipf_s.
    zipf_s: float = 1.1
    read_frac: float = 0.95
    write_frac: float = 0.05
    scan_frac: float = 0.0
    #: Consecutive ranks fetched by one scan (a non-atomic multi-get).
    scan_len: int = 4
    #: Mean of the exponential inter-arrival distribution (virtual µs).
    mean_interarrival_us: float = 300.0
    seed: int = 2015
    #: Offset each PE's keys into a disjoint range — required by the
    #: acked-ledger verification (and the reshard and fault-cell gates).
    disjoint: bool = False

    def fractions(self) -> tuple[float, float, float]:
        fr = (self.read_frac, self.write_frac, self.scan_frac)
        if any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError(f"mix fractions must be >= 0 and sum to 1, got {fr}")
        return fr


@dataclass(frozen=True)
class KVOp:
    """One generated request: ``arrival`` is relative virtual µs since
    the stream epoch; ``rank`` is the popularity rank (0 = hottest) and
    ``key`` the table key it maps to."""

    kind: str  # "read" | "write" | "scan"
    rank: int
    key: int
    arrival: float


def kind_counts(spec: WorkloadSpec) -> tuple[int, int, int]:
    """Exact per-kind op counts: largest-remainder apportionment of the
    mix fractions over ``spec.ops`` (ties broken toward lower kind
    index), so the generated mix matches the spec exactly, not just in
    expectation."""
    fr = spec.fractions()
    raw = [f * spec.ops for f in fr]
    base = [math.floor(x) for x in raw]
    short = spec.ops - sum(base)
    order = sorted(range(3), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return tuple(base)


def zipf_cdf(keyspace: int, s: float) -> np.ndarray:
    """CDF over ranks 1..keyspace with weights 1/r**s."""
    w = 1.0 / np.arange(1, keyspace + 1, dtype=np.float64) ** s
    return np.cumsum(w) / w.sum()


def generate_stream(spec: WorkloadSpec, pe: int) -> list[KVOp]:
    """The PE's op stream — a pure function of ``(spec, pe)``.

    No engine, scheduler, or clock state is consulted, so the same
    seed yields the bit-identical stream under every execution engine
    (a property the test suite asserts by running this inside kernels
    on two engines)."""
    rng = np.random.default_rng([spec.seed, pe])
    counts = kind_counts(spec)
    kinds = np.repeat(np.arange(3), counts)
    kinds = kinds[rng.permutation(spec.ops)]
    cdf = zipf_cdf(spec.keyspace, spec.zipf_s)
    ranks = np.searchsorted(cdf, rng.random(spec.ops), side="right")
    arrivals = np.cumsum(rng.exponential(spec.mean_interarrival_us, spec.ops))
    offset = pe * spec.keyspace if spec.disjoint else 0
    return [
        KVOp(_KINDS[int(k)], int(r), offset + int(r), float(a))
        for k, r, a in zip(kinds, ranks, arrivals)
    ]


def percentiles(latencies) -> dict[str, float]:
    """Nearest-rank p50/p95/p99 (virtual µs)."""
    s = sorted(latencies)
    if not s:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def pct(p: float) -> float:
        return round(s[min(len(s) - 1, math.ceil(p / 100 * len(s)) - 1)], 6)

    return {"p50": pct(50), "p95": pct(95), "p99": pct(99)}


# ---------------------------------------------------------------------------
# The service kernel (threaded / cooperative engines)
# ---------------------------------------------------------------------------


def _cached_get(table: ReplicatedHashTable, cache: dict | None, key: int,
                capacity: int, bug_stale: bool) -> tuple[int | None, bool]:
    """One read through the initiator's hot-key cache.

    Coherence rule: a hit must revalidate its bucket-version token with
    one remote atomic read; any mutation of the bucket (a write from
    any image, a reshard migration) bumps the version, so a match
    proves currency.  ``bug_stale=True`` is the seeded negative for the
    linearizability corpus: it serves the cached value *without* the
    probe, which the checker must reject once another image writes."""
    if cache is not None and key in cache:
        value, token = cache[key]
        if bug_stale or table.probe_version(token):
            return value, True
        del cache[key]
    value, token = table.get_versioned(key)
    if cache is not None:
        if token is not None and (key in cache or len(cache) < capacity):
            cache[key] = (value, token)
        else:
            cache.pop(key, None)
    return value, False


def _service_kernel(spec: WorkloadSpec, slots: int, locks: int,
                    ring_images: int | None, cache_capacity: int,
                    grow_to: int | None, grow_at: int | None,
                    record: bool, bug_stale: bool) -> dict:
    """One image's service loop: admit requests open-loop at their
    arrival times, serve against the replicated table, and (when a ring
    is configured) drain re-homed buckets as soon as the grown epoch is
    observed.  Latency of an op is response − arrival: when the service
    falls behind the arrival process the queueing delay is part of the
    number, exactly as a production tail-latency measurement."""
    me = caf.this_image()
    table = ReplicatedHashTable(slots, locks, ring_images=ring_images)
    stream = generate_stream(spec, me)
    rec = Recorder(me) if record else None
    cache: dict | None = {} if cache_capacity > 0 else None
    ctx = current()
    t0 = ctx.clock.now
    lat: list[float] = []
    kinds: list[str] = []
    hits = misses = moved = 0
    drained_epoch = table.ring_epoch()
    for idx, op in enumerate(stream):
        if grow_at is not None and idx == grow_at and me == 1:
            table.grow_ring(grow_to)
        arrival = t0 + op.arrival
        if ctx.clock.now < arrival:
            ctx.clock.advance(arrival - ctx.clock.now)
        invoke = ctx.clock.now
        if op.kind == "write":
            value = (me << 24) | (idx + 1)
            table.put(op.key, value)
            if cache is not None:
                cache.pop(op.key, None)  # write-invalidation of own entry
            if rec is not None:
                rec.record("put", op.key, value, invoke, ctx.clock.now)
        elif op.kind == "read":
            value, hit = _cached_get(table, cache, op.key, cache_capacity,
                                     bug_stale)
            hits += hit
            misses += not hit
            if rec is not None:
                rec.record("get", op.key, value, invoke, ctx.clock.now, hit=hit)
        else:  # scan: an uncached, non-atomic multi-get of consecutive ranks
            base = op.key - op.rank
            for j in range(spec.scan_len):
                k = base + (op.rank + j) % spec.keyspace
                inv_j = ctx.clock.now
                v = table.get(k)
                if rec is not None:
                    rec.record("get", k, v, inv_j, ctx.clock.now)
        lat.append(ctx.clock.now - arrival)
        kinds.append(op.kind)
        if ring_images is not None and table.ring_epoch() > drained_epoch:
            moved += table.reshard_drain()
            drained_epoch = table.ring_epoch()
    if ring_images is not None:
        table.refresh_ring()
        if table.ring_epoch() > drained_epoch:
            moved += table.reshard_drain()
    elapsed = ctx.clock.now - t0
    stat = [0]
    caf.sync_all(stat=stat)
    lost = table.verify_acked_puts() if spec.disjoint else []
    acked_last: dict[int, int] = {}
    for k, v in table.put_acked:
        acked_last[k] = v
    pairs = [(k, table.get(k)) for k in sorted(acked_last)]
    return {
        "lat": lat,
        "kinds": kinds,
        "ops": len(stream),
        "hits": hits,
        "misses": misses,
        "moved": moved,
        "elapsed": elapsed,
        "lost": lost,
        "acked": len(table.put_acked),
        "pairs": pairs,
        "stat": stat[0],
        "failed": list(caf.failed_images()),
        "epoch": table.ring_epoch(),
        "records": rec.records if rec is not None else None,
    }


def run_cell(
    spec: WorkloadSpec,
    *,
    images: int = 4,
    machine: str = "stampede",
    slots: int = 256,
    locks: int = 8,
    ring_images: int | None = None,
    cache_capacity: int = 16,
    grow_to: int | None = None,
    grow_at: int | None = None,
    record: bool = False,
    bug_stale: bool = False,
    engine: Any = "vt",
    survivable: bool = False,
    faults: Any = None,
    watchdog_s: float | None = None,
) -> list:
    """Launch one service run; returns the per-image kernel dicts.

    The benchmark grid uses ``engine="vt"`` — cooperative execution
    under :class:`~repro.explore.VirtualTimeOrder`, which always runs
    the PE furthest behind in virtual time.  That is discrete-event
    order for the lock-based service code, so the open-loop latency
    percentiles are both physically meaningful (no phantom queueing
    from causality lifts across PEs with divergent clocks) and
    reproducible bit-for-bit run to run.  ``engine`` is passed straight
    to :func:`caf.launch` (``Scheduler(RandomWalk(seed))`` explores one
    interleaving, ``"threaded"`` free-runs)."""
    return caf.launch(
        _service_kernel,
        images,
        machine,
        heap_bytes=HEAP_BYTES,
        lock_algorithm="tas",
        engine=engine,
        survivable=survivable,
        faults=faults,
        watchdog_s=watchdog_s,
        args=(spec, slots, locks, ring_images, cache_capacity,
              grow_to, grow_at, record, bug_stale),
    )


def aggregate(results: list, spec: WorkloadSpec) -> dict:
    """Fold per-image kernel dicts into one metrics record."""
    live = [r for r in results if r is not None]
    lat = [v for r in live for v in r["lat"]]
    read_lat = [
        v for r in live for v, k in zip(r["lat"], r["kinds"]) if k == "read"
    ]
    ops = sum(r["ops"] for r in live)
    elapsed = max(r["elapsed"] for r in live)
    hits = sum(r["hits"] for r in live)
    misses = sum(r["misses"] for r in live)
    return {
        "images": len(results),
        "ops": ops,
        "elapsed_us": round(elapsed, 3),
        "throughput_ops_per_s": round(ops / elapsed * 1e6, 1) if elapsed else 0.0,
        "latency_us": percentiles(lat),
        "read_latency_us": percentiles(read_lat),
        "cache_hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        "moved": sum(r["moved"] for r in live),
        "lost": [m for r in live for m in r["lost"]],
        "acked": sum(r["acked"] for r in live),
        "epoch": max(r["epoch"] for r in live),
    }


# ---------------------------------------------------------------------------
# The benchmark suite
# ---------------------------------------------------------------------------

#: The percentile grid: two Zipf skews × two read/write mixes.
GRID_SKEWS = (1.1, 0.3)
GRID_MIXES = (
    ("read_heavy", (0.95, 0.05, 0.0)),
    ("balanced", (0.50, 0.45, 0.05)),
)


def _grid_spec(quick: bool, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        ops=48 if quick else 128,
        keyspace=48,
        mean_interarrival_us=300.0,
        seed=seed,
    )


def run_suite(*, quick: bool = False, seed: int = 2015, images: int = 4,
              machine: str = "stampede") -> dict:
    """Run the full kvservice benchmark; returns the JSON section.

    Raises :class:`AssertionError` when a gate fails: cache-on p99 must
    beat cache-off on the skewed read-heavy mix, and the reshard run
    must move entries and lose zero acked writes."""
    t_start = time.perf_counter()
    base = _grid_spec(quick, seed)
    cells = []
    for skew in GRID_SKEWS:
        for mix_name, (r, w, s) in GRID_MIXES:
            spec = replace(base, zipf_s=skew, read_frac=r, write_frac=w,
                           scan_frac=s)
            agg = aggregate(run_cell(spec, images=images, machine=machine),
                            spec)
            agg.update(zipf_s=skew, mix=mix_name, cache="on")
            cells.append(agg)

    # Cache ablation on the skewed read-heavy mix: the arrival rate is
    # set between the cached and uncached service rates, so the
    # uncached run falls behind and its p99 inflates with queueing
    # delay while the cached run keeps up — the production tail-latency
    # story, measured open-loop.
    hot = replace(base, ops=96, zipf_s=GRID_SKEWS[0], keyspace=16,
                  read_frac=GRID_MIXES[0][1][0],
                  write_frac=GRID_MIXES[0][1][1], scan_frac=0.0,
                  mean_interarrival_us=3.0)
    cached = aggregate(run_cell(hot, images=images, machine=machine), hot)
    uncached = aggregate(
        run_cell(hot, images=images, machine=machine, cache_capacity=0), hot
    )
    cache_cmp = {
        "zipf_s": hot.zipf_s,
        "mix": "read_heavy",
        "cached_p99_us": cached["latency_us"]["p99"],
        "uncached_p99_us": uncached["latency_us"]["p99"],
        "cached_hit_rate": cached["cache_hit_rate"],
        "p99_speedup": round(
            uncached["latency_us"]["p99"] / cached["latency_us"]["p99"], 3
        ) if cached["latency_us"]["p99"] else None,
    }
    if not cached["latency_us"]["p99"] < uncached["latency_us"]["p99"]:
        raise AssertionError(
            f"hot-key cache did not reduce p99 on the skewed read-heavy "
            f"mix: {cache_cmp}"
        )

    # Reshard under load: disjoint keys (exact acked-ledger check),
    # grow the ring mid-stream while all images keep serving.
    reshard_spec = replace(base, disjoint=True, keyspace=32,
                           read_frac=0.5, write_frac=0.5, scan_frac=0.0)
    res = run_cell(reshard_spec, images=images, machine=machine,
                   ring_images=2, grow_to=images,
                   grow_at=max(2, reshard_spec.ops // 3))
    reshard = aggregate(res, reshard_spec)
    reshard.update(ring_images=2, grow_to=images)
    if reshard["lost"]:
        raise AssertionError(
            f"reshard under load lost acked writes: {reshard['lost'][:4]}"
        )
    if not (reshard["moved"] > 0 and reshard["epoch"] == 1):
        raise AssertionError(
            f"reshard did not happen under load: moved={reshard['moved']} "
            f"epoch={reshard['epoch']}"
        )

    section = {
        "images": images,
        "machine": machine,
        "quick": quick,
        "seed": seed,
        "cells": cells,
        "cache_comparison": cache_cmp,
        "reshard": reshard,
        "wall_s": None,
    }
    section["wall_s"] = round(time.perf_counter() - t_start, 3)
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.kvservice",
        description="KV service workload: open-loop Zipf traffic with "
                    "hot-key caching and live resharding on the "
                    "replicated DHT.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller streams (CI smoke)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--images", type=int, default=4)
    parser.add_argument("--machine", default="stampede")
    parser.add_argument("--out", default=None, metavar="JSON",
                        help="wallclock JSON to merge the kvservice "
                             "section into (not written without it)")
    args = parser.parse_args(argv)
    section = run_suite(quick=args.quick, seed=args.seed, images=args.images,
                        machine=args.machine)
    for cell in section["cells"]:
        lat = cell["latency_us"]
        print(f"zipf={cell['zipf_s']:<4} mix={cell['mix']:<11} "
              f"tput={cell['throughput_ops_per_s']:>9} ops/s  "
              f"p50={lat['p50']:>8.1f}  p95={lat['p95']:>8.1f}  "
              f"p99={lat['p99']:>8.1f} us  "
              f"hit={cell['cache_hit_rate']:.2f}")
    cmp_ = section["cache_comparison"]
    print(f"cache p99: {cmp_['cached_p99_us']} us vs uncached "
          f"{cmp_['uncached_p99_us']} us ({cmp_['p99_speedup']}x)")
    rs = section["reshard"]
    print(f"reshard: moved={rs['moved']} epoch={rs['epoch']} "
          f"acked={rs['acked']} lost={len(rs['lost'])}")
    if args.out:
        print(f"wrote {update_bench_json(args.out, 'kvservice', section)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
