"""Virtual barrier and collective agreement."""

import threading

import pytest

from repro.runtime.context import PEContext, set_current
from repro.runtime.launcher import Job, JobAborted
from repro.runtime.sync import CollectiveMismatch, CollectiveState, VirtualBarrier


def _contexts(n: int) -> list[PEContext]:
    job = Job(n, "stampede")
    return [PEContext(job, pe) for pe in range(n)]


def test_barrier_reconciles_clocks():
    n = 4
    ctxs = _contexts(n)
    for i, c in enumerate(ctxs):
        c.clock.advance(float(i * 10))
    barrier = VirtualBarrier(n, aborted=lambda: False)
    results = [None] * n

    def worker(i):
        results[i] = barrier.wait(ctxs[i], cost=2.0)

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert all(r == pytest.approx(32.0) for r in results)  # max(30) + 2
    assert all(c.clock.now == pytest.approx(32.0) for c in ctxs)


def test_barrier_is_reusable():
    n = 3
    ctxs = _contexts(n)
    barrier = VirtualBarrier(n, aborted=lambda: False)
    outs = []

    def worker(i):
        barrier.wait(ctxs[i], cost=1.0)
        ctxs[i].clock.advance(5.0)
        outs.append(barrier.wait(ctxs[i], cost=1.0))

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert all(o == pytest.approx(7.0) for o in outs)  # 1 + 5 + 1


def test_barrier_abort_releases_waiters():
    ctxs = _contexts(2)
    flag = threading.Event()
    barrier = VirtualBarrier(2, aborted=flag.is_set)

    def worker():
        with pytest.raises(JobAborted):
            barrier.wait(ctxs[0])

    t = threading.Thread(target=worker)
    t.start()
    flag.set()
    t.join(timeout=5)
    assert not t.is_alive()


@pytest.mark.parametrize("engine, waits", [("threaded", True), ("event", False), ("vt", False)])
def test_engine_chooses_the_barrier_condition(engine, waits):
    # Only the threaded engine's barrier_wait waits on a barrier's
    # condition; elsewhere arrivals and exclusions lock and notify nothing.
    job = Job(3, "stampede", heap_bytes=64, engine=engine)
    ctxs = [PEContext(job, pe) for pe in range(3)]
    for c, t in zip(ctxs, (5.0, 2.0, 9.0)):
        c.clock.advance(t)
    for bar in (job.barrier, job.groups.get((0, 1, 2)).barrier):
        assert isinstance(bar._cond, threading.Condition) is waits
        want = max(ctxs[0].clock.now, ctxs[2].clock.now) + 1.0
        assert bar.arrive(ctxs[0], 1.0) == (0, False)
        assert bar.arrive(ctxs[2], 1.0) == (0, False)
        assert bar.exclude(1)  # the excision completes the episode
        assert bar.generation == 1 and bar.depart(ctxs[0], 0) == want


def test_barrier_validation():
    with pytest.raises(ValueError):
        VirtualBarrier(0, aborted=lambda: False)


def test_collective_agreement_first_arriver_wins():
    n = 4
    ctxs = _contexts(n)
    state = CollectiveState(n, aborted=lambda: False)
    calls = []
    results = [None] * n

    def worker(i):
        def compute():
            calls.append(i)
            return f"value-from-{i}"

        results[i] = state.agree(ctxs[i], "alloc:x", compute)

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert len(calls) == 1
    assert len(set(results)) == 1
    assert state._entries == {}  # garbage collected after all served


def test_collective_sequences_stay_aligned():
    n = 2
    ctxs = _contexts(n)
    state = CollectiveState(n, aborted=lambda: False)
    out = [[], []]

    def worker(i):
        for k in range(5):
            out[i].append(state.agree(ctxs[i], f"op{k}", lambda k=k: k * 100))

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert out[0] == out[1] == [0, 100, 200, 300, 400]


def test_collective_mismatch_detected():
    n = 2
    ctxs = _contexts(n)
    state = CollectiveState(n, aborted=lambda: False)
    state.agree(ctxs[0], "alloc:(4,)", lambda: 1)
    with pytest.raises(CollectiveMismatch):
        state.agree(ctxs[1], "alloc:(8,)", lambda: 2)


def test_single_pe_collective_short_circuits():
    ctxs = _contexts(1)
    state = CollectiveState(1, aborted=lambda: False)
    assert state.agree(ctxs[0], "x", lambda: 7) == 7
    assert state._entries == {}
