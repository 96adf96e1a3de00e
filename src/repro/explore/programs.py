"""The correctness corpus: small PGAS programs with known race status.

Each :class:`ExploreProgram` runs a kernel under one engine and
reduces the outcome to a *canonical digest* — a SHA-256 over the
program's semantically meaningful results only.  Schedule-dependent
incidentals (virtual timestamps, freed-heap residue such as MCS queue
nodes) are deliberately excluded: for a race-free program the digest
must be bit-identical across every legal interleaving and under every
fault plan the retry layer absorbs, so it can only cover state the
memory model actually pins down.

Race-free corpus (digest must never vary):

* ``dht``    — the PR-1 distributed hash table; keys are chosen with
  pairwise-distinct home slots so the final table layout (not just the
  multiset of counters) is schedule-independent.
* ``himeno`` — the Fig-10 stencil, XS grid, 2 iterations.
* ``locks``  — a lock-protected shared counter.
* ``events`` — an event-ordered ping-pong.
* ``kvservice`` — the open-loop KV service workload over disjoint
  per-image key ranges (caches on; final acked state is pinned by each
  image's own program order).
* ``collectives`` — team ``co_sum`` plus a rotating ``co_broadcast``.

Survivable corpus (race-free, launched with ``survivable=True``; a
crashed image leaves the survivors running in degraded mode, and the
digest covers the survivors' authoritative pairs):

* ``rdht``   — the replicated DHT over TAS locks, disjoint key ranges.
* ``kv_reshard`` — the KV service with a mid-stream ring grow
  2 → images, so a crash can land anywhere in the reshard window.

Seeded racy corpus (some schedule must diverge — the PR-2 sanitizer
negatives as executable programs):

* ``missing_quiet``     — relaxed-ordering put signalled by an atomic
  flag with no intervening quiet; scheduler mode can deliver the flag
  before the data.
* ``unordered_conflict`` — two images put to the same word between the
  same pair of barriers; the final value is whoever lands last.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from repro import caf
from repro.bench.dht import DistributedHashTable, ReplicatedHashTable, _mix
from repro.bench.harness import CafConfig
from repro.bench.himeno import himeno_caf
from repro.explore.scheduler import spin_hint

#: Backend used by every caf-kernel program (the paper's headline
#: configuration: CAF over the OpenSHMEM layer).
_CONFIG = CafConfig("explore-shmem", backend="shmem")

_DHT_SLOTS = 8

#: Watchdog deadline of a run under a fault plan: far above any
#: legitimate stall, far below CI patience.
FAULT_DEADLINE_S = 60.0

#: Workload seed of the programs that seed from their fault plan when
#: run without one.
_SEED = 2015


def _digest(obj: Any) -> str:
    """Canonical digest of a JSON-able result object."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class ProgramRun(NamedTuple):
    """What one run of a corpus program reports."""

    digest: str
    #: The slowest PE's virtual microseconds.
    elapsed_us: float
    #: A :class:`~repro.trace.events.Tracer` when ``trace=True`` was
    #: asked for and the program supports tracing, else ``None``.
    tracer: Any = None
    #: Survivable programs only: the per-image result dicts (``None``
    #: for a failed image), each carrying ``lost``/``acked``/``pairs``/
    #: ``stat``/``failed``.
    results: list | None = None


@dataclass(frozen=True, slots=True)
class ExploreProgram:
    """One corpus entry.

    ``run(engine, images=..., machine=..., trace=..., faults=...)``
    executes the kernel under the given ``engine=`` value (a fresh
    :class:`~repro.explore.Scheduler`, or ``"threaded"``) and returns a
    :class:`ProgramRun`.  ``survivable`` programs run with the
    failed-images model on.
    """

    name: str
    racy: bool
    default_images: int
    description: str
    run: Callable[..., ProgramRun]
    survivable: bool = False


def _deadline(faults: Any) -> float | None:
    return None if faults is None else FAULT_DEADLINE_S


def _survivor_run(results: list, tracer: Any = None) -> ProgramRun:
    survivors = [r for r in results if r is not None]
    return ProgramRun(
        _digest(sorted(p for r in survivors for p in r["pairs"])),
        max(r["elapsed"] for r in survivors),
        tracer,
        results,
    )


def _caf_program(ordering: str = "caf", survivable: bool = False,
                 lock_algorithm: str | None = None):
    """Make a corpus runner from a zero-argument SPMD kernel.

    The job is built the way :func:`caf.launch` builds it, plus an
    optional plain tracer (no sanitizer pass — the racy corpus must be
    allowed to finish so the harness can diff the divergent traces).
    The digest covers every image's return value."""

    def wrap(kernel: Callable[[], Any]) -> Callable[..., ProgramRun]:
        def run(engine: Any, *, images: int, machine: str,
                trace: bool = False, faults: Any = None) -> ProgramRun:
            from repro.caf import attach as caf_attach
            from repro.runtime.launcher import Job

            job = Job(images, machine, faults=faults, engine=engine,
                      watchdog_s=_deadline(faults), survivable=survivable)
            rt = caf_attach(job, backend=_CONFIG.backend, ordering=ordering,
                            lock_algorithm=lock_algorithm)
            tracer = None
            if trace:
                from repro.trace.events import attach as trace_attach

                tracer = trace_attach(job)

            def spmd_main() -> Any:
                rt.startup()
                return kernel()

            results = job.run(spmd_main)
            if survivable:
                return _survivor_run(results, tracer)
            elapsed = max(c.clock.now for c in job.pe_contexts.values())
            return ProgramRun(_digest(results), elapsed, tracer)

        return run

    return wrap


# ---------------------------------------------------------------------------
# Race-free corpus
# ---------------------------------------------------------------------------


def _dht_distinct_keys(n_images: int, slots: int, count: int) -> list[int]:
    """First ``count`` natural keys with pairwise-distinct (image, slot)
    homes.  Distinct homes mean no probing, so the final table *layout*
    is schedule-independent, not just the counter multiset."""
    keys: list[int] = []
    seen: set[tuple[int, int]] = set()
    k = 1
    while len(keys) < count:
        h = _mix(k)
        home = (h % n_images + 1, (h >> 20) % slots)
        if home not in seen:
            seen.add(home)
            keys.append(k)
        k += 1
    return keys


@_caf_program()
def _run_dht() -> Any:
    me = caf.this_image()
    n = caf.num_images()
    table = DistributedHashTable(_DHT_SLOTS, locks_per_image=2)
    keys = _dht_distinct_keys(n, _DHT_SLOTS, 2 * n)
    caf.sync_all()
    # Every image touches every key (maximum lock contention); the
    # final counter for each key is therefore 3 * num_images.
    for k in keys[me - 1 :] + keys[: me - 1]:
        table.update(k, 1)
        table.update(k, 2)
    caf.sync_all()
    return table.keys.local.tolist(), table.values.local.tolist()


def _run_himeno(
    engine: Any,
    *,
    images: int,
    machine: str,
    trace: bool = False,
    faults: Any = None,
) -> ProgramRun:
    res = himeno_caf(
        machine, _CONFIG, images, grid="XS", iterations=2,
        faults=faults, watchdog_s=_deadline(faults), engine=engine,
    )
    # Float bit pattern, not repr: the digest must catch 1-ulp drift.
    return ProgramRun(_digest([res.gosa.hex(), res.iterations]), res.elapsed_us)


@_caf_program()
def _run_locks() -> Any:
    rounds = 3
    counter = caf.coarray((1,), np.int64)
    counter[:] = 0
    lck = caf.lock_type()
    caf.sync_all()
    for _ in range(rounds):
        caf.lock(lck, 1)
        v = int(counter.on(1)[0])
        counter.on(1)[0] = v + 1
        caf.unlock(lck, 1)
    caf.sync_all()
    # Every schedule must observe exactly rounds * images increments.
    return int(counter.on(1)[0])


@_caf_program()
def _run_events() -> Any:
    rounds = 3
    me = caf.this_image()
    data = caf.coarray((1,), np.int64)
    data[:] = 0
    ping = caf.event_type()
    pong = caf.event_type()
    caf.sync_all()
    seen: list[int] = []
    if me == 1:
        value = 0
        for _ in range(rounds):
            value += 1
            data.on(2)[0] = value
            ping.post(2)
            pong.wait()
            value = int(data.local[0])
            seen.append(value)
    elif me == 2:
        for _ in range(rounds):
            ping.wait()
            got = int(data.local[0])
            seen.append(got)
            data.on(1)[0] = got * 2
            pong.post(1)
    caf.sync_all()
    return seen


@_caf_program()
def _run_collectives() -> Any:
    me = caf.this_image()
    n = caf.num_images()
    vec = np.arange(8, dtype=np.float64) * me + 3
    team = caf.form_team(1 + (me - 1) % 2)
    caf.sync_all()
    for r in range(2):
        with caf.change_team(team):
            caf.co_sum(vec)  # team allreduce
        caf.co_broadcast(vec, 1 + r % n)
        vec += me
    caf.sync_all()
    # Float bit patterns: every image's vector, so any divergence shows.
    return [float(x).hex() for x in vec]


# ---------------------------------------------------------------------------
# Seeded racy corpus (the PR-2 sanitizer negatives, executable)
# ---------------------------------------------------------------------------


@_caf_program(ordering="relaxed")
def _run_missing_quiet() -> Any:
    me = caf.this_image()
    data = caf.coarray((8,), np.int64)
    flag = caf.coarray((1,), np.int64)
    data[:] = 0
    flag[:] = 0
    caf.sync_all()
    snapshot = None
    if me == 1:
        # BUG under relaxed ordering: no quiet between the data put
        # and the flag — the atomic can overtake the payload.
        data.on(2)[:] = np.arange(1, 9, dtype=np.int64)
        caf.atomic_define(flag, 2, 1)
    elif me == 2:
        while caf.atomic_ref(flag, 2) != 1:
            spin_hint()
        snapshot = data.local.tolist()
    caf.sync_all()
    return snapshot


@_caf_program(ordering="relaxed")
def _run_unordered_conflict() -> Any:
    me = caf.this_image()
    data = caf.coarray((4,), np.int64)
    data[:] = 0
    caf.sync_all()
    # BUG: both images store to the same word in the same segment;
    # the survivor is whichever delivery the schedule orders last.
    data.on(1)[0] = me
    caf.sync_all()
    return int(data.on(1)[0])


def _run_kvservice(
    engine: Any,
    *,
    images: int,
    machine: str,
    trace: bool = False,
    faults: Any = None,
) -> ProgramRun:
    """The KV service workload in its race-free configuration: every
    initiator streams against its own disjoint key range, so each key's
    final value is pinned by that image's own program order (its last
    acked put) no matter how the schedule interleaves the bucket locks.
    The digest covers the acked-ledger re-reads and op/ack counts only;
    cache hit counts are deliberately excluded (version bumps from
    bucket-colliding keys make them schedule-dependent, which is
    incidental, not semantic)."""
    from repro.bench.kvservice import WorkloadSpec
    from repro.bench.kvservice import run_cell as kv_run_cell

    spec = WorkloadSpec(
        ops=10, keyspace=8, zipf_s=1.0, read_frac=0.6, write_frac=0.4,
        scan_frac=0.0, mean_interarrival_us=2.0, seed=31, disjoint=True,
    )
    results = kv_run_cell(
        spec, images=images, machine=machine, engine=engine, faults=faults,
        watchdog_s=_deadline(faults),
    )
    canon = [
        {"pairs": r["pairs"], "ops": r["ops"], "acked": r["acked"],
         "lost": r["lost"]}
        for r in results
    ]
    return ProgramRun(_digest(canon), max(r["elapsed"] for r in results))


# ---------------------------------------------------------------------------
# Survivable corpus
# ---------------------------------------------------------------------------


@_caf_program(survivable=True, lock_algorithm="tas")
def _run_rdht() -> Any:
    """Each image writes 6 counters into its own disjoint key range (so
    the acked-ledger check is an exact equality), then — in degraded
    mode if a crash fired — verifies every acked write is still
    readable and reports its locally-authoritative pairs."""
    from repro.runtime.context import current

    me = caf.this_image()
    table = ReplicatedHashTable(32, locks_per_image=4)
    rng = np.random.default_rng(77 + me)
    keys = (me << 24) + rng.integers(0, 1 << 24, size=6)
    caf.sync_all()
    ctx = current()
    t0 = ctx.clock.now
    for k in keys:
        table.update(int(k))
    stat = [0]
    caf.sync_all(stat=stat)
    return {
        "lost": table.verify_acked(),
        "acked": len(table.acked),
        "pairs": table.authoritative_items(),
        "stat": stat[0],
        "failed": list(caf.failed_images()),
        "elapsed": ctx.clock.now - t0,
    }


def _run_kv_reshard(
    engine: Any,
    *,
    images: int,
    machine: str,
    trace: bool = False,
    faults: Any = None,
) -> ProgramRun:
    """Open-loop mixed read/write streams over disjoint key ranges
    (exact acked-ledger verification) with a ring grow 2 → ``images``
    early in the stream.  The workload seed is the fault plan's."""
    from repro.bench.kvservice import WorkloadSpec
    from repro.bench.kvservice import run_cell as kv_run_cell

    spec = WorkloadSpec(
        ops=8, keyspace=16, zipf_s=1.0, read_frac=0.5, write_frac=0.5,
        scan_frac=0.0, mean_interarrival_us=2.0,
        seed=_SEED if faults is None else getattr(faults, "plan", faults).seed,
        disjoint=True,
    )
    results = kv_run_cell(
        spec, images=images, machine=machine, ring_images=2, grow_to=images,
        grow_at=max(2, spec.ops // 3), engine=engine, survivable=True,
        faults=faults, watchdog_s=_deadline(faults),
    )
    return _survivor_run(results)


PROGRAMS: dict[str, ExploreProgram] = {
    p.name: p
    for p in (
        ExploreProgram(
            "dht", False, 3,
            "distributed hash table, distinct-home keys, full contention",
            _run_dht,
        ),
        ExploreProgram(
            "himeno", False, 4,
            "Himeno XS stencil, 2 iterations, halo puts + co_sum",
            _run_himeno,
        ),
        ExploreProgram(
            "locks", False, 3,
            "lock-protected shared counter, 3 increments per image",
            _run_locks,
        ),
        ExploreProgram(
            "events", False, 2,
            "event-ordered ping-pong, 3 rounds",
            _run_events,
        ),
        ExploreProgram(
            "kvservice", False, 3,
            "open-loop KV service, disjoint key ranges, hot-key caches on",
            _run_kvservice,
        ),
        ExploreProgram(
            "missing_quiet", True, 2,
            "relaxed put signalled by an atomic flag without a quiet",
            _run_missing_quiet,
        ),
        ExploreProgram(
            "unordered_conflict", True, 2,
            "two images put to the same word between the same barriers",
            _run_unordered_conflict,
        ),
        ExploreProgram(
            "collectives", False, 4,
            "team co_sum plus rotating co_broadcast, 2 rounds",
            _run_collectives,
        ),
        ExploreProgram(
            "rdht", False, 4,
            "replicated hash table over TAS locks, disjoint key ranges",
            _run_rdht, survivable=True,
        ),
        ExploreProgram(
            "kv_reshard", False, 4,
            "KV service, disjoint key ranges, ring grown 2 -> images",
            _run_kv_reshard, survivable=True,
        ),
    )
}


def get_program(name: str) -> ExploreProgram:
    try:
        return PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown explore program {name!r}; available: {sorted(PROGRAMS)}"
        ) from None
