"""Linearizability corpus for the KV service workload.

Three layers of evidence, per the PR-10 gate:

* **Checker units** — the Wing–Gong search itself, exercised on
  hand-written histories: sequential and overlapping-but-legal
  histories pass, a stale read after a completed write fails, a read
  of a never-written value fails, and distinct keys never constrain
  each other.
* **Explored corpus** — the real service kernel (shared Zipf keyspace,
  concurrent readers/writers, hot-key caches on every initiator) runs
  under ``@schedules`` exploration; every interleaving's merged
  history must be linearizable.  This is what certifies the cache
  coherence rule: a hit's version probe is its linearization point, so
  any stale-beyond-invalidation hit would surface here as an
  unlinearizable read.
* **Crash + reshard injection** — survivable runs that lose an image
  mid-stream (and runs that grow the bucket ring mid-stream) must
  still produce linearizable survivor histories with zero lost acked
  writes.

Plus the seeded negative: a deliberately coherence-broken cache
(``bug_stale=True`` serves hits without the version probe) must be
*rejected* by the checker — proving the gate can fail.
"""

import pytest

from repro import caf
from repro.bench.kvhistory import (
    HistRecord,
    LinReport,
    Recorder,
    check_linearizable,
    merge,
)
from repro.bench.kvservice import WorkloadSpec, _cached_get, run_cell
from repro.explore import schedules
from repro.runtime.context import current
from repro.sim.faults import FaultPlan


def _rec(pe, op, key, value, invoke, response, hit=False):
    return HistRecord(pe, op, key, value, invoke, response, hit)


# ---------------------------------------------------------------------------
# Checker units
# ---------------------------------------------------------------------------


class TestChecker:
    def test_empty_history(self):
        report = check_linearizable([])
        assert report.ok and report.total_ops == 0

    def test_sequential_history(self):
        report = check_linearizable([
            _rec(1, "get", 7, None, 0.0, 1.0),
            _rec(1, "put", 7, 10, 2.0, 3.0),
            _rec(2, "get", 7, 10, 4.0, 5.0),
        ])
        assert report.ok
        assert report.witness[7] == [0, 1, 2]

    def test_concurrent_read_may_see_either_side(self):
        # The get overlaps the put: observing the old value or the new
        # one are both legal linearisations.
        for seen in (None, 10):
            report = check_linearizable([
                _rec(1, "put", 3, 10, 0.0, 4.0),
                _rec(2, "get", 3, seen, 1.0, 2.0),
            ])
            assert report.ok, seen

    def test_stale_read_after_completed_write_rejected(self):
        # put(10) responded before the second get invoked, yet it still
        # observed the initial value: no linearisation exists.
        report = check_linearizable([
            _rec(1, "put", 3, 9, 0.0, 1.0),
            _rec(2, "get", 3, 9, 2.0, 3.0),
            _rec(1, "put", 3, 10, 4.0, 5.0),
            _rec(2, "get", 3, 9, 6.0, 7.0),
        ])
        assert not report.ok
        assert report.bad_key == 3

    def test_read_of_unwritten_value_rejected(self):
        report = check_linearizable([
            _rec(1, "put", 5, 1, 0.0, 1.0),
            _rec(2, "get", 5, 42, 2.0, 3.0),
        ])
        assert not report.ok

    def test_keys_checked_independently(self):
        # A violation on key 9 is reported as key 9 even when key 1's
        # sub-history is fine; and cross-key ordering imposes nothing.
        report = check_linearizable([
            _rec(1, "put", 1, 5, 0.0, 1.0),
            _rec(2, "get", 1, 5, 8.0, 9.0),
            _rec(1, "put", 9, 6, 2.0, 3.0),
            _rec(2, "get", 9, None, 4.0, 5.0),
        ])
        assert not report.ok and report.bad_key == 9

    def test_write_write_race_resolves_either_order(self):
        for seen in (7, 8):
            report = check_linearizable([
                _rec(1, "put", 2, 7, 0.0, 3.0),
                _rec(2, "put", 2, 8, 1.0, 4.0),
                _rec(3, "get", 2, seen, 5.0, 6.0),
            ])
            assert report.ok, seen

    def test_recorder_rejects_negative_interval(self):
        rec = Recorder(1)
        with pytest.raises(ValueError):
            rec.record("get", 1, None, 5.0, 4.0)

    def test_merge_flattens_and_sorts(self):
        a = [_rec(1, "put", 1, 5, 2.0, 3.0)]
        b = [_rec(2, "get", 1, 5, 0.0, 1.0)]
        merged = merge([a, b, None])
        assert [r.pe for r in merged] == [2, 1]


# ---------------------------------------------------------------------------
# The explored corpus: concurrent service histories
# ---------------------------------------------------------------------------

#: Shared hot keyspace, concurrent writers, caches on: the config whose
#: every explored interleaving must linearize.
CORPUS_SPEC = WorkloadSpec(
    ops=16, keyspace=5, zipf_s=1.0, read_frac=0.7, write_frac=0.3,
    scan_frac=0.0, mean_interarrival_us=2.0, seed=77,
)


def _corpus_report(engine, spec=CORPUS_SPEC, **kw) -> LinReport:
    results = run_cell(spec, images=3, record=True, engine=engine, **kw)
    history = merge(r["records"] for r in results if r is not None)
    assert history, "service run produced an empty history"
    return check_linearizable(history)


@schedules(n=50, seed=4100)
def test_corpus_linearizable_under_exploration(schedule):
    report = _corpus_report(schedule())
    assert report.ok, (
        f"history not linearizable at key {report.bad_key}: "
        f"{report.bad_ops}"
    )


@schedules(n=6, seed=4600)
def test_corpus_with_scans_linearizable(schedule):
    spec = WorkloadSpec(
        ops=15, keyspace=6, zipf_s=0.8, read_frac=0.6, write_frac=0.2,
        scan_frac=0.2, scan_len=3, mean_interarrival_us=2.0, seed=78,
    )
    report = _corpus_report(schedule(), spec)
    assert report.ok, (report.bad_key, report.bad_ops)


@schedules(n=8, seed=5200)
def test_crash_injected_histories_linearizable(schedule):
    # Disjoint key ranges (survivor reads never depend on the dead
    # image's unrecorded writes); the crash exercises replica failover
    # and dead-lock recovery under the reads the checker audits.
    spec = WorkloadSpec(
        ops=14, keyspace=8, zipf_s=1.0, read_frac=0.6, write_frac=0.4,
        scan_frac=0.0, mean_interarrival_us=2.0, seed=79, disjoint=True,
    )
    plan = FaultPlan(seed=11, crash_at={2: 25})
    results = run_cell(spec, images=3, record=True, engine=schedule(),
                       survivable=True, faults=plan, watchdog_s=60.0)
    survivors = [r for r in results if r is not None]
    assert len(survivors) == 2, "crash did not fire"
    lost = [m for r in survivors for m in r["lost"]]
    assert lost == [], f"lost acked writes: {lost}"
    report = check_linearizable(merge(r["records"] for r in survivors))
    assert report.ok, (report.bad_key, report.bad_ops)


@schedules(n=8, seed=6300)
def test_reshard_histories_linearizable(schedule):
    # Shared keyspace, caches on, ring grown mid-stream: migration
    # tombstones bump bucket versions, so cached entries for moved keys
    # must miss — any stale hit would break linearizability here.
    spec = WorkloadSpec(
        ops=16, keyspace=6, zipf_s=1.0, read_frac=0.6, write_frac=0.4,
        scan_frac=0.0, mean_interarrival_us=2.0, seed=80,
    )
    results = run_cell(spec, images=4, record=True, engine=schedule(),
                       ring_images=2, grow_to=4, grow_at=5)
    epochs = [r["epoch"] for r in results]
    assert max(epochs) == 1, f"ring never grew: {epochs}"
    report = check_linearizable(merge(r["records"] for r in results))
    assert report.ok, (report.bad_key, report.bad_ops)


# ---------------------------------------------------------------------------
# ROADMAP P1: a lost acked write across ring grow + crash, replayable
# ---------------------------------------------------------------------------


def _p1_cell(pct_seed: int):
    """The chaos survivable kvservice cell (seed 2015: PE 1 crashes
    mid-stream while the bucket ring grows from 2 to 4 images) under
    one PCT schedule; returns ``(steps, lost acked writes, dead PEs)``."""
    from repro import chaos
    from repro.explore import PCTStrategy, Scheduler
    from repro.sim.faults import FaultInjector

    sched = Scheduler(PCTStrategy(pct_seed))
    results = chaos._run_kvservice(
        4, "stampede", FaultInjector(chaos.survivable_crash_plan(2015), 4),
        30.0, True, sched, 2015,
    )
    lost = [m for r in results if r is not None for m in r["lost"]]
    dead = [pe for pe, r in enumerate(results) if r is None]
    return sched.steps, lost, dead


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP G-i: lost acked write across ring grow + crash")
def test_p1_witness_loses_no_acked_write():
    # Today PCT seed 24 loses the acked write (64, 67108872, 0).
    _, lost, _ = _p1_cell(24)
    assert lost == []


def test_p1_witness_schedules_are_pinned():
    # PCT 24 and 33 lose the write, PCT 5 does not; the step counts pin
    # the schedules so the witness stays the same interleaving.
    cells = {seed: _p1_cell(seed) for seed in (24, 33, 5)}
    assert {seed: steps for seed, (steps, _, _) in cells.items()} == {
        24: 901, 33: 867, 5: 780,
    }
    assert all(dead == [1] for _, _, dead in cells.values())
    assert cells[5][1] == []


# ---------------------------------------------------------------------------
# The seeded stale-cache negative
# ---------------------------------------------------------------------------


def _stale_cache_kernel(bug: bool):
    """Deterministic stale-hit scenario, built on the service's own
    cache path: image 1 warms its cache, image 2 overwrites the key,
    image 1 reads again.  With the coherence probe intact the second
    read misses (version changed) and observes the new value; with
    ``bug=True`` the hit skips the probe and serves the stale value —
    which is non-linearizable under *every* schedule because the
    barriers order the write's response before the read's invocation."""
    from repro.bench.dht import ReplicatedHashTable

    me = caf.this_image()
    table = ReplicatedHashTable(64, locks_per_image=4)
    rec = Recorder(me)
    cache: dict = {}
    ctx = current()

    def read(key):
        t0 = ctx.clock.now
        value, hit = _cached_get(table, cache, key, 8, bug)
        rec.record("get", key, value, t0, ctx.clock.now, hit=hit)

    def write(key, value):
        t0 = ctx.clock.now
        table.put(key, value)
        cache.pop(key, None)
        rec.record("put", key, value, t0, ctx.clock.now)

    if me == 2:
        write(7, 100)
    caf.sync_all()
    if me == 1:
        read(7)  # warms the cache with 100
    caf.sync_all()
    if me == 2:
        write(7, 200)
    caf.sync_all()
    if me == 1:
        read(7)  # probe ⇒ miss ⇒ 200; bug ⇒ stale 100
    caf.sync_all()
    return rec.records


@pytest.mark.parametrize("bug", [False, True])
def test_stale_cache_negative(bug):
    results = caf.launch(
        _stale_cache_kernel, 3, machine="stampede", heap_bytes=1 << 17,
        lock_algorithm="tas", args=(bug,),
    )
    report = check_linearizable(merge(results))
    if bug:
        assert not report.ok, "checker accepted a stale cache hit"
        assert report.bad_key == 7
    else:
        assert report.ok, (report.bad_key, report.bad_ops)
        gets = [r.value for r in results[0] if r.op == "get"]
        assert gets == [100, 200], gets  # probe caught the invalidation
