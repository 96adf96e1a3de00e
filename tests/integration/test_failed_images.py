"""Failed-images model: survivable crashes, degraded collectives,
lock recovery, the replicated DHT, and engine-identical degradation.

The gate this suite enforces mirrors the ``degraded`` outcome of the
explorer's survivable fault cells: a ``survivable=True`` job that loses a PE must *complete* in
degraded mode — survivors observe ``STAT_FAILED_IMAGE``, collectives
shrink to the survivor set, dead-held locks are recovered, and the
replicated DHT loses **zero acknowledged writes** — and the degraded
execution must be schedule-stable (bit-identical virtual times and
trace digests across the threaded, cooperative, and event engines for
phase-structured programs).
"""

import random
import threading

import numpy as np
import pytest

from repro import caf
from repro.bench.dht import ReplicatedHashTable
from repro.engine.steps import BarrierStep, Done, alloc_array_step
from repro.explore import RandomWalk, Scheduler
from repro.runtime.context import current
from repro.runtime.failures import (
    DEFAULT_DETECT_US,
    STAT_FAILED_IMAGE,
    FailedImageRegistry,
    ImageFailedError,
)
from repro.runtime.launcher import Job, JobFailure
from repro.shmem import attach as shmem_attach
from repro.sim.faults import FaultPlan, InjectedCrash
from repro.trace.events import attach as trace_attach, trace_digest

HEAP = 1 << 15
ELEMS = 8
ENGINES = ("threaded", "cooperative", "event")


# ---------------------------------------------------------------------------
# Registry and fault-plan validation
# ---------------------------------------------------------------------------


def test_registry_basics():
    reg = FailedImageRegistry(4)
    assert reg.failed_pes() == ()
    assert reg.survivors() == (0, 1, 2, 3)
    assert reg.mark_failed(2)
    assert not reg.mark_failed(2)  # idempotent
    assert reg.is_failed(2) and not reg.is_failed(1)
    assert reg.count == 1
    assert reg.failed_pes() == (2,)
    assert reg.survivors((1, 2, 3)) == (1, 3)
    with pytest.raises(ValueError):
        reg.mark_failed(4)


@pytest.mark.parametrize("field", ["crash_at", "alloc_fail_at"])
def test_fault_plan_rejects_bad_sites(field):
    with pytest.raises(ValueError):
        FaultPlan(seed=1, **{field: {0: -1}})
    with pytest.raises(ValueError):
        FaultPlan(seed=1, **{field: {-1: 5}})
    with pytest.raises(ValueError):
        FaultPlan(seed=1, **{field: {0: 1.5}})


# ---------------------------------------------------------------------------
# Default mode is untouched; survivable mode degrades
# ---------------------------------------------------------------------------


def _stat_kernel():
    stat = [0]
    caf.sync_all(stat=stat)
    if caf.this_image() == 2:
        raise InjectedCrash("test crash")
    out = [stat[0]]
    out.append(caf.sync_all())
    return out, caf.failed_images(), caf.image_status(2)


def test_default_mode_crash_still_aborts():
    with pytest.raises(JobFailure) as ei:
        caf.launch(_stat_kernel, 3, heap_bytes=HEAP)
    assert isinstance(ei.value.__cause__, InjectedCrash)


def test_survivable_crash_degrades():
    results = caf.launch(_stat_kernel, 3, heap_bytes=HEAP, survivable=True)
    assert results[1] is None  # image 2 (PE 1) died; no result
    for r in (results[0], results[2]):
        (pre, post), failed, status2 = r
        # The first stat races with the crash (which fires right after
        # that barrier); the second is deterministically degraded.
        assert pre in (0, STAT_FAILED_IMAGE)
        assert post == STAT_FAILED_IMAGE
        assert failed == (2,)
        assert status2 == STAT_FAILED_IMAGE
    # A fresh job sees a fresh registry.
    clean = caf.launch(
        lambda: (caf.sync_all(), caf.failed_images()), 3,
        heap_bytes=HEAP, survivable=True,
    )
    assert all(r[1] == () for r in clean)


def test_fault_free_survivable_matches_baseline():
    # With no failures the registry stays empty and a survivable run is
    # bit-identical to the default mode: same results, same trace
    # digest (phase-structured program, so the digest is
    # schedule-independent).
    def run(survivable):
        job = Job(5, heap_bytes=HEAP, survivable=survivable)
        layer = shmem_attach(job)
        tracer = trace_attach(job)
        results = job.run(_make_body(layer, _make_script(13, 5, 6)))
        return results, trace_digest(tracer)

    assert run(False) == run(True)


# ---------------------------------------------------------------------------
# Initiator-side detection: RMA to a failed image
# ---------------------------------------------------------------------------


def _detect_kernel():
    me = caf.this_image()
    arr = caf.coarray((4,), np.int64)
    caf.sync_all()
    if me == 3:
        raise InjectedCrash("boom")
    caf.sync_all()  # released by excision; image 3 is marked by now
    ctx = current()
    t0 = ctx.clock.now
    try:
        arr.on(3)[0]
        return ("no-error", 0.0)
    except ImageFailedError as e:
        return ((e.op, e.target), ctx.clock.now - t0)


def test_rma_to_failed_image_raises_and_prices_detection():
    results = caf.launch(_detect_kernel, 3, heap_bytes=HEAP, survivable=True)
    for r in (results[0], results[1]):
        (op, target), dt = r
        assert target == 2  # 0-based PE of image 3
        assert dt == pytest.approx(DEFAULT_DETECT_US)


# ---------------------------------------------------------------------------
# Degraded collectives: survivors only
# ---------------------------------------------------------------------------


def _co_sum_kernel():
    me = caf.this_image()
    arr = np.array([float(me)])
    caf.sync_all()
    if me == 3:
        raise InjectedCrash("boom")
    caf.sync_all()
    caf.co_sum(arr)
    vec = np.array([float(me)] * 2)
    caf.co_broadcast(vec, 1)
    return float(arr[0]), vec.tolist()


def test_collectives_complete_among_survivors():
    results = caf.launch(_co_sum_kernel, 4, heap_bytes=HEAP, survivable=True)
    assert results[2] is None
    for r in (results[0], results[1], results[3]):
        total, vec = r
        assert total == 1 + 2 + 4  # image 3's contribution excised
        assert vec == [1.0, 1.0]


def test_broadcast_from_failed_root_raises():
    def kernel():
        me = caf.this_image()
        caf.sync_all()
        if me == 1:
            raise InjectedCrash("boom")
        caf.sync_all()
        vec = np.array([float(me)])
        try:
            caf.co_broadcast(vec, 1)  # root is dead
            return "no-error"
        except ImageFailedError as e:
            return e.target

    results = caf.launch(kernel, 3, heap_bytes=HEAP, survivable=True)
    assert results[0] is None
    assert results[1] == results[2] == 0


# ---------------------------------------------------------------------------
# Lock recovery from a dead holder
# ---------------------------------------------------------------------------


def _lock_recovery_kernel():
    me = caf.this_image()
    lck = caf.lock_type()
    counter = caf.coarray((1,), np.int64)
    counter[:] = 0
    caf.sync_all()
    if me == 2:
        caf.lock(lck, 1)
        caf.sync_images([1])  # image 1 now knows the lock is held
        raise InjectedCrash("dies holding lck[1]")
    if me == 1:
        caf.sync_images([2])
        # Must not deadlock: the dead holder's lock is recovered (its
        # crash hook force-releases, or the TAS spin steals from the
        # marked-failed holder).
        caf.lock(lck, 1)
        counter.on(1)[0] = 41
        caf.unlock(lck, 1)
        caf.lock(lck, 1)  # reacquirable afterwards
        v = int(counter.on(1)[0]) + 1
        counter.on(1)[0] = v
        caf.unlock(lck, 1)
        # sync_images with the dead partner: stat= reports instead of
        # raising.
        stat = [0]
        caf.sync_images([2], stat=stat)
        return v, stat[0]
    return "idle"


@pytest.mark.parametrize("algorithm", ["tas", "mcs"])
def test_lock_recovery_from_dead_holder(algorithm):
    results = caf.launch(
        _lock_recovery_kernel, 3, heap_bytes=HEAP,
        survivable=True, lock_algorithm=algorithm, watchdog_s=30.0,
    )
    assert results[0] == (42, STAT_FAILED_IMAGE)
    assert results[1] is None
    assert results[2] == "idle"


# ---------------------------------------------------------------------------
# Engine-identical degradation (phase-structured step programs)
# ---------------------------------------------------------------------------


def _make_script(seed: int, num_pes: int, phases: int):
    rng = random.Random(seed)
    script = []
    for _ in range(phases):
        active = rng.randrange(num_pes)
        ops = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("put", "get", "atomic", "delay"))
            ops.append((kind, rng.randrange(num_pes), rng.randint(1, ELEMS)))
        script.append((active, ops))
    return script


def _make_body(layer, script):
    def body():
        ctx = current()
        pe = ctx.pe
        payload = np.arange(ELEMS, dtype=np.int64) + pe

        def run_phase(arr, i):
            if i == len(script):
                return Done((int(arr.local.sum()), ctx.clock.now))
            active, ops = script[i]
            if pe == active:
                for kind, target, k in ops:
                    try:
                        if kind == "put":
                            layer.put(arr, payload[:k], target, offset=0)
                        elif kind == "get":
                            layer.get(arr, k, target, offset=0)
                        elif kind == "atomic":
                            layer.atomic(arr, target, 0, "fadd", k)
                        else:
                            ctx.clock.advance(float(k))
                    except ImageFailedError:
                        pass  # degraded mode: skip ops to the dead PE
            return BarrierStep(layer, lambda: run_phase(arr, i + 1))

        return alloc_array_step(layer, (ELEMS,), np.int64,
                                lambda a: run_phase(a, 0))

    return body


def _run_survivable(engine_name, seed, num_pes, phases, plan, walk_seed=None):
    kwargs = {"faults": plan, "survivable": True, "heap_bytes": HEAP}
    walk = seed if walk_seed is None else walk_seed
    engine = (Scheduler(RandomWalk(walk)) if engine_name == "cooperative"
              else engine_name)
    job = Job(num_pes, engine=engine, **kwargs)
    layer = shmem_attach(job)
    tracer = trace_attach(job)
    results = job.run(_make_body(layer, _make_script(seed, num_pes, phases)))
    return results, job.failed.failed_pes(), trace_digest(tracer)


@pytest.mark.parametrize("seed,crash", [(11, {2: 3}), (23, {0: 5}), (47, {3: 1})])
def test_survivor_digests_identical_across_engines(seed, crash):
    plan = FaultPlan(seed=seed, crash_at=crash)
    runs = {
        name: _run_survivable(name, seed, num_pes=5, phases=6, plan=plan)
        for name in ENGINES
    }
    results, failed, digest = runs["threaded"]
    victim = next(iter(crash))
    assert failed == (victim,)
    assert results[victim] is None
    assert sum(r is not None for r in results) == 4
    for name in ENGINES[1:]:
        assert runs[name] == runs["threaded"], (
            f"{name} degraded run diverges from threaded (seed {seed})"
        )
    # Stability across *explorer schedules*: a different cooperative
    # interleaving of the same crash plan must yield the same digest.
    other = _run_survivable("cooperative", seed, num_pes=5, phases=6,
                            plan=plan, walk_seed=seed + 1000)
    assert other == runs["threaded"], (
        f"cooperative walk {seed + 1000} diverges (seed {seed})"
    )


# ---------------------------------------------------------------------------
# Replicated DHT: crash-at-every-op-index sweep
# ---------------------------------------------------------------------------


def _rdht_kernel(updates, slots, seed):
    me = caf.this_image()
    table = ReplicatedHashTable(slots, locks_per_image=2)
    rng = np.random.default_rng(seed + me)
    keys = (me << 24) + rng.integers(0, 1 << 24, size=updates)
    caf.sync_all()
    for k in keys:
        table.update(int(k))
    stat = [0]
    caf.sync_all(stat=stat)
    return {
        "lost": table.verify_acked(),
        "pairs": table.authoritative_items(),
        "stat": stat[0],
    }


def test_rdht_fault_free_replicates():
    results = caf.launch(
        _rdht_kernel, 3, heap_bytes=1 << 17, survivable=True,
        lock_algorithm="tas", args=(4, 16, 5),
    )
    assert all(r["lost"] == [] and r["stat"] == 0 for r in results)
    pairs = sorted(p for r in results for p in r["pairs"])
    assert len(pairs) == 12  # 3 writers x 4 distinct keys, primaries only
    assert all(v == 1 for _, v in pairs)


def test_rdht_crash_sweep_never_loses_acked_writes():
    """Kill PE 1 at every (sampled) op index; survivors must finish with
    zero lost acked writes and no leaked threads."""
    baseline_threads = threading.active_count()
    crashed_runs = 0
    for at in range(1, 140, 7):
        plan = FaultPlan(seed=9, crash_at={1: at})
        results = caf.launch(
            _rdht_kernel, 3, heap_bytes=1 << 17, survivable=True,
            lock_algorithm="tas", watchdog_s=30.0,
            faults=plan, args=(4, 16, 5),
        )
        survivors = [r for r in results if r is not None]
        dead = len(results) - len(survivors)
        assert dead in (0, 1)
        crashed_runs += dead
        for r in survivors:
            assert r["lost"] == [], f"lost acked writes with crash_at {at}"
            # stat is 0 when the crash fired only after the final
            # barrier (e.g. inside the victim's own verification reads).
            assert r["stat"] in (0, STAT_FAILED_IMAGE)
        assert threading.active_count() <= baseline_threads + 1, (
            f"leaked threads after crash_at {at}"
        )
    assert crashed_runs >= 5  # the sweep must actually exercise crashes


def test_rdht_lookup_fails_over_to_replica():
    def kernel():
        me = caf.this_image()
        table = ReplicatedHashTable(16, locks_per_image=2)
        caf.sync_all()
        # Image 1 writes a key homed on image 2, which then dies.
        key = None
        if me == 1:
            for cand in range(1, 4096):
                if table.home(cand)[0] == 2:
                    key = cand
                    break
            table.update(key, 7)
        caf.sync_all()
        if me == 2:
            raise InjectedCrash("primary dies")
        caf.sync_all()
        if me == 1:
            return table.lookup(key)  # must come from the replica
        return "survivor"

    results = caf.launch(
        kernel, 3, heap_bytes=1 << 17, survivable=True,
        lock_algorithm="tas",
    )
    assert results[0] == 7
    assert results[1] is None
