"""Chaos harness: seeded fault schedules over the paper's benchmarks.

``python -m repro.chaos`` runs the DHT, lock, and Himeno kernels under
deterministic :class:`~repro.sim.faults.FaultPlan` schedules and
enforces the invariant that makes fault injection a correctness tool
rather than noise — for every schedule, exactly one of:

* **bit-identity** — the run completes and its result digest equals the
  fault-free baseline's, at *strictly larger* virtual time whenever
  anything was injected (retransmission and latency cost virtual time;
  they must never corrupt data);
* **clean abort** — the run raises a :class:`JobFailure` whose root
  cause is structured (:class:`TransientCommError`,
  :class:`InjectedCrash`, :class:`HangError`, or
  :class:`OutOfMemoryError`), with every PE thread joined;
* **degraded-but-correct** — a ``survivable=True`` run over the
  replicated DHT completes *without* the crashed PE: survivors see
  ``STAT_FAILED_IMAGE``, re-read every acknowledged write intact (zero
  lost acked writes), and the merged survivor data digest is identical
  across execution engines (:func:`run_survivable_cell`).

Anything else — a digest mismatch (silent corruption), an unstructured
failure, or a wall-clock hang (caught by the watchdog, and by
``pytest-timeout`` in CI) — is a violation.

Digests are built from scheduler-independent quantities only (sorted
key/value pairs, a lock-guarded counter's total, the fixed-order
Himeno residual), so the gate is exact even though thread interleaving
varies between runs; the strict virtual-time check additionally uses
kernels whose *elapsed* time is deterministic (barrier-closed, with
injected costs far above scheduler noise).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.launcher import JobFailure
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    HangError,
    InjectedCrash,
    TransientCommError,
)
from repro.util.allocator import OutOfMemoryError

#: Root causes that count as a *clean, structured* abort.
STRUCTURED_CAUSES = (
    TransientCommError,
    InjectedCrash,
    HangError,
    OutOfMemoryError,
)

TARGETS = ("dht", "locks", "himeno", "collectives")

#: Targets for the survivable (failed-images) gate.
SURVIVABLE_TARGETS = ("rdht", "kvservice")

#: Watchdog deadline for harness runs: far above any legitimate stall,
#: far below CI patience.
DEFAULT_DEADLINE_S = 60.0


# ---------------------------------------------------------------------------
# Kernels (digest, elapsed virtual us) — every digest input is
# scheduler-independent.
# ---------------------------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _dht_kernel(updates: int, slots: int, seed: int):
    from repro import caf
    from repro.bench.dht import EMPTY_KEY, DistributedHashTable
    from repro.runtime.context import current

    table = DistributedHashTable(slots, locks_per_image=4)
    me = caf.this_image()
    rng = np.random.default_rng(seed + me)
    keys = rng.integers(0, 1 << 30, size=updates)
    caf.sync_all()
    ctx = current()
    t0 = ctx.clock.now
    for k in keys:
        table.update(int(k))
    caf.sync_all()
    elapsed = ctx.clock.now - t0
    karr = table.keys.local
    varr = table.values.local
    mask = karr != EMPTY_KEY
    pairs = sorted(zip(karr[mask].tolist(), varr[mask].tolist()))
    return pairs, elapsed


def _locks_kernel(rounds: int):
    from repro import caf
    from repro.runtime.context import current

    counter = caf.coarray((1,), np.int64)
    counter[:] = 0
    lck = caf.lock_type()
    caf.sync_all()
    ctx = current()
    t0 = ctx.clock.now
    for _ in range(rounds):
        caf.lock(lck, 1)
        v = int(counter.on(1)[0])
        counter.on(1)[0] = v + 1
        caf.unlock(lck, 1)
    caf.sync_all()
    elapsed = ctx.clock.now - t0
    total = int(counter.on(1)[0])  # post-barrier: final value everywhere
    return total, elapsed


def _run_dht(images: int, machine: str, faults, deadline_s: float, quick: bool):
    from repro import caf

    updates, slots = (6, 32) if quick else (12, 64)
    results = caf.launch(
        _dht_kernel,
        images,
        machine,
        faults=faults,
        watchdog_s=deadline_s,
        args=(updates, slots, 77),
    )
    pairs = sorted(p for r in results for p in r[0])
    elapsed = max(r[1] for r in results)
    return _digest(pairs), elapsed


def _run_locks(images: int, machine: str, faults, deadline_s: float, quick: bool):
    from repro import caf

    rounds = 4 if quick else 8
    results = caf.launch(
        _locks_kernel,
        images,
        machine,
        faults=faults,
        watchdog_s=deadline_s,
        args=(rounds,),
    )
    totals = {r[0] for r in results}
    if len(totals) != 1 or totals != {rounds * images}:
        # A lost update under faults IS the corruption this harness
        # exists to catch — fold it into the digest so the gate trips.
        return _digest(sorted(r[0] for r in results)), max(r[1] for r in results)
    return _digest([rounds * images]), max(r[1] for r in results)


def _run_himeno(images: int, machine: str, faults, deadline_s: float, quick: bool):
    from repro.bench.harness import UHCAF_CRAY_SHMEM
    from repro.bench.himeno import himeno_caf

    res = himeno_caf(
        machine,
        UHCAF_CRAY_SHMEM,
        images,
        grid="XS",
        iterations=2 if quick else 3,
        faults=faults,
        watchdog_s=deadline_s,
    )
    # float.hex(): the bit pattern, not a rounded rendering.
    return _digest([float(res.gosa).hex()]), res.elapsed_us


def _collectives_kernel(rounds: int, seed: int):
    from repro import caf
    from repro.runtime.context import current

    me = caf.this_image()
    n = caf.num_images()
    vec = np.arange(8, dtype=np.float64) * me + seed
    team = caf.form_team(1 + (me - 1) % 2)
    caf.sync_all()
    ctx = current()
    t0 = ctx.clock.now
    for r in range(rounds):
        with caf.change_team(team):
            caf.co_sum(vec)  # team allreduce
        caf.co_broadcast(vec, 1 + r % n)
        vec += me
    caf.sync_all()
    return vec.tolist(), ctx.clock.now - t0


def _run_collectives(images, machine, faults, deadline_s, quick):
    from repro import caf

    rounds = 2 if quick else 4
    results = caf.launch(
        _collectives_kernel,
        images,
        machine,
        faults=faults,
        watchdog_s=deadline_s,
        args=(rounds, 3),
    )
    # Every image holds the same broadcast-then-incremented vector
    # modulo the deterministic per-image tail increment; fold the full
    # per-image matrix so any divergence trips the digest.
    vecs = [[float(x).hex() for x in r[0]] for r in results]
    return _digest(vecs), max(r[1] for r in results)


_RUNNERS = {
    "dht": _run_dht,
    "locks": _run_locks,
    "himeno": _run_himeno,
    "collectives": _run_collectives,
}


# ---------------------------------------------------------------------------
# The survivable (failed-images) gate
# ---------------------------------------------------------------------------


def _rdht_kernel(updates: int, slots: int, seed: int):
    """Replicated-DHT kernel for survivable runs.

    Each image writes ``updates`` counters into its own disjoint key
    range (so the acked-ledger check is an exact equality), then — in
    degraded mode if a crash fired — verifies every acked write is
    still readable and reports its locally-authoritative pairs.
    """
    from repro import caf
    from repro.bench.dht import ReplicatedHashTable
    from repro.runtime.context import current

    me = caf.this_image()
    table = ReplicatedHashTable(slots, locks_per_image=4)
    rng = np.random.default_rng(seed + me)
    keys = (me << 24) + rng.integers(0, 1 << 24, size=updates)
    caf.sync_all()
    ctx = current()
    t0 = ctx.clock.now
    for k in keys:
        table.update(int(k))
    stat = [0]
    caf.sync_all(stat=stat)
    lost = table.verify_acked()
    return {
        "lost": lost,
        "acked": len(table.acked),
        "pairs": table.authoritative_items(),
        "stat": stat[0],
        "failed": list(caf.failed_images()),
        "elapsed": ctx.clock.now - t0,
    }


def _engine(name, seed):
    """The ``--engines`` column as an ``engine=`` value: ``cooperative``
    is a seeded walk, pinning one exact interleaving per cell."""
    if name == "cooperative":
        from repro.explore import RandomWalk, Scheduler

        return Scheduler(RandomWalk(seed))
    return name


def _run_rdht(images, machine, faults, deadline_s, quick, engine, seed):
    from repro import caf

    updates, slots = (6, 32) if quick else (12, 64)
    return caf.launch(
        _rdht_kernel,
        images,
        machine,
        survivable=True,
        lock_algorithm="tas",
        faults=faults,
        watchdog_s=deadline_s,
        args=(updates, slots, 77),
        engine=_engine(engine, seed),
    )


def _run_kvservice(images, machine, faults, deadline_s, quick, engine, seed):
    """KV service workload under the survivable gate: open-loop mixed
    read/write streams over disjoint key ranges (exact acked-ledger
    verification) with a mid-stream ring grow, so the crash can land
    anywhere in the reshard window.  The kernel's result dicts carry
    the same ``lost``/``acked``/``pairs``/``stat``/``failed`` contract
    as the rdht kernel."""
    from repro.bench.kvservice import WorkloadSpec
    from repro.bench.kvservice import run_cell as kv_run_cell

    spec = WorkloadSpec(
        ops=8 if quick else 16,
        keyspace=16,
        zipf_s=1.0,
        read_frac=0.5,
        write_frac=0.5,
        scan_frac=0.0,
        mean_interarrival_us=2.0,
        seed=seed,
        disjoint=True,
    )
    return kv_run_cell(
        spec,
        images=images,
        machine=machine,
        ring_images=2,
        grow_to=images,
        grow_at=max(2, spec.ops // 3),
        engine=_engine(engine, seed),
        survivable=True,
        faults=faults,
        watchdog_s=deadline_s,
    )


_SURVIVABLE_RUNNERS = {
    "rdht": _run_rdht,
    "kvservice": _run_kvservice,
}


def survivable_crash_plan(seed: int, victim: int = 1, at: int = 40) -> FaultPlan:
    """A schedule that kills one PE mid-run of a survivable job: the
    survivors must complete in degraded mode with zero lost acked
    writes."""
    return FaultPlan(seed=seed, crash_at={victim: at})


def run_survivable_cell(
    target: str,
    plan: FaultPlan,
    *,
    images: int = 4,
    machine: str = "stampede",
    deadline_s: float = DEFAULT_DEADLINE_S,
    quick: bool = False,
    engines: tuple[str, ...] = ("threaded", "cooperative"),
) -> ChaosOutcome:
    """Run one survivable target under one crash schedule on each
    engine and apply the degraded-mode gate:

    * the job must *complete* (no ``JobFailure``) with the crashed PE's
      result slot ``None`` and every survivor reporting
      ``STAT_FAILED_IMAGE``;
    * **zero lost acknowledged writes** — every survivor's acked-ledger
      re-read must match exactly;
    * the merged survivor data digest must be identical across the
      engines (schedule-stable degraded state).

    A plan whose crash never fires must instead produce the fault-free
    result on every engine (status ``identical``).
    """
    if target not in SURVIVABLE_TARGETS:
        raise ValueError(
            f"unknown survivable target {target!r}; "
            f"choose from {SURVIVABLE_TARGETS}"
        )
    runner = _SURVIVABLE_RUNNERS[target]
    digests: dict[str, str] = {}
    crashed: dict[str, int] = {}
    for engine in engines:
        inj = FaultInjector(plan, images)
        try:
            results = runner(
                images, machine, inj, deadline_s, quick, engine, plan.seed
            )
        except JobFailure as jf:
            return ChaosOutcome(
                target, "survivable-crash", plan.seed, "violation",
                detail=f"[{engine}] survivable job aborted: {jf.__cause__!r}",
                injected=inj.summary(),
            )
        dead = [i for i, r in enumerate(results) if r is None]
        survivors = [r for r in results if r is not None]
        crashed[engine] = len(dead)
        lost = [m for r in survivors for m in r["lost"]]
        if lost:
            return ChaosOutcome(
                target, "survivable-crash", plan.seed, "violation",
                detail=f"[{engine}] lost acked writes: {lost[:4]}",
                injected=inj.summary(),
            )
        if dead:
            bad_stat = [r["stat"] for r in survivors if r["stat"] == 0]
            if bad_stat or any(not r["failed"] for r in survivors):
                return ChaosOutcome(
                    target, "survivable-crash", plan.seed, "violation",
                    detail=f"[{engine}] crash fired but survivors saw no "
                           f"STAT_FAILED_IMAGE",
                    injected=inj.summary(),
                )
        digests[engine] = _digest(
            sorted(p for r in survivors for p in r["pairs"])
        )
    if len(set(digests.values())) != 1:
        return ChaosOutcome(
            target, "survivable-crash", plan.seed, "violation",
            detail=f"survivor digests differ across engines: {digests}",
        )
    if len(set(crashed.values())) != 1:
        return ChaosOutcome(
            target, "survivable-crash", plan.seed, "violation",
            detail=f"crash fired on some engines only: {crashed}",
        )
    status = "degraded" if next(iter(crashed.values())) else "identical"
    detail = "" if status == "degraded" else "crash index beyond run length"
    return ChaosOutcome(
        target, "survivable-crash", plan.seed, status, detail=detail,
        injected=inj.summary(),
    )


# ---------------------------------------------------------------------------
# Schedules and the gate
# ---------------------------------------------------------------------------


def mixed_plan(seed: int) -> FaultPlan:
    """The default chaos schedule: transient failures the retry layer
    must absorb plus latency jitter, no escalation."""
    return FaultPlan(
        seed=seed,
        transient_rate=0.15,
        max_failures=2,
        latency_rate=0.25,
        latency_us=120.0,
    )


def crash_plan(seed: int) -> FaultPlan:
    """A schedule that kills one PE mid-run: must abort cleanly."""
    return FaultPlan(seed=seed, crash_at={1: 23}, latency_rate=0.1, latency_us=40.0)


def escalate_plan(seed: int) -> FaultPlan:
    """A schedule whose transients exhaust the retry budget somewhere:
    must abort with a structured TransientCommError."""
    return FaultPlan(seed=seed, transient_rate=0.1, escalate_rate=0.04)


@dataclass
class ChaosOutcome:
    """The gate's verdict for one (target, schedule) cell."""

    target: str
    schedule: str
    seed: int
    status: str  # "identical" | "aborted" | "degraded" | "violation"
    detail: str = ""
    injected: dict = field(default_factory=dict)
    elapsed_us: float | None = None
    baseline_us: float | None = None

    @property
    def ok(self) -> bool:
        return self.status != "violation"


def run_cell(
    target: str,
    schedule: str,
    plan: FaultPlan,
    baseline: tuple[str, float],
    *,
    images: int = 4,
    machine: str = "stampede",
    deadline_s: float = DEFAULT_DEADLINE_S,
    quick: bool = False,
) -> ChaosOutcome:
    """Run one target under one fault schedule and apply the gate."""
    runner = _RUNNERS[target]
    inj = FaultInjector(plan, images)
    base_digest, base_elapsed = baseline
    try:
        digest, elapsed = runner(images, machine, inj, deadline_s, quick)
    except JobFailure as jf:
        cause = jf.__cause__
        if isinstance(cause, STRUCTURED_CAUSES):
            return ChaosOutcome(
                target, schedule, plan.seed, "aborted",
                detail=f"{type(cause).__name__}: {cause}",
                injected=inj.summary(),
            )
        return ChaosOutcome(
            target, schedule, plan.seed, "violation",
            detail=f"unstructured failure: {cause!r}",
            injected=inj.summary(),
        )
    stats = inj.summary()
    if digest != base_digest:
        return ChaosOutcome(
            target, schedule, plan.seed, "violation",
            detail="silent corruption: result digest differs from fault-free baseline",
            injected=stats, elapsed_us=elapsed, baseline_us=base_elapsed,
        )
    if stats.get("injected_ops", 0) > 0 and not elapsed > base_elapsed:
        return ChaosOutcome(
            target, schedule, plan.seed, "violation",
            detail=(
                f"virtual time not strictly larger under injection "
                f"({elapsed} vs baseline {base_elapsed})"
            ),
            injected=stats, elapsed_us=elapsed, baseline_us=base_elapsed,
        )
    return ChaosOutcome(
        target, schedule, plan.seed, "identical",
        injected=stats, elapsed_us=elapsed, baseline_us=base_elapsed,
    )


def run_target(
    target: str,
    seeds: list[int],
    *,
    images: int = 4,
    machine: str = "stampede",
    deadline_s: float = DEFAULT_DEADLINE_S,
    quick: bool = False,
    with_aborts: bool = True,
) -> list[ChaosOutcome]:
    """The full schedule matrix for one target: a fault-free baseline,
    one mixed schedule per seed, and (``with_aborts``) a crash and an
    escalation schedule that must abort cleanly."""
    runner = _RUNNERS[target]
    baseline = runner(images, machine, None, deadline_s, quick)
    out = []
    for seed in seeds:
        out.append(
            run_cell(
                target, "mixed", mixed_plan(seed), baseline,
                images=images, machine=machine, deadline_s=deadline_s, quick=quick,
            )
        )
    if with_aborts:
        seed0 = seeds[0] if seeds else 1
        for name, plan in (
            ("crash", crash_plan(seed0)),
            ("escalate", escalate_plan(seed0)),
        ):
            cell = run_cell(
                target, name, plan, baseline,
                images=images, machine=machine, deadline_s=deadline_s, quick=quick,
            )
            if cell.status == "identical" and not cell.injected.get(
                "crashes", 0
            ) and name == "crash":
                # The crash index never fired (short run): not a
                # violation, but note it so thin coverage is visible.
                cell.detail = "crash index beyond run length (no crash fired)"
            out.append(cell)
    return out


__all__ = [
    "ChaosOutcome",
    "DEFAULT_DEADLINE_S",
    "STRUCTURED_CAUSES",
    "SURVIVABLE_TARGETS",
    "TARGETS",
    "crash_plan",
    "escalate_plan",
    "mixed_plan",
    "run_cell",
    "run_survivable_cell",
    "run_target",
    "survivable_crash_plan",
]
