"""Timeline (serialized resource) semantics."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.resources import Timeline


def test_first_reservation_starts_at_earliest():
    t = Timeline()
    start, end = t.reserve(5.0, 2.0)
    assert (start, end) == (5.0, 7.0)


def test_back_to_back_serializes():
    t = Timeline()
    t.reserve(0.0, 3.0)
    start, end = t.reserve(1.0, 2.0)  # wants 1.0 but resource busy to 3.0
    assert start == 3.0 and end == 5.0


def test_gap_preserved_when_idle():
    t = Timeline()
    t.reserve(0.0, 1.0)
    start, _ = t.reserve(10.0, 1.0)
    assert start == 10.0


def test_zero_duration_ok():
    t = Timeline()
    start, end = t.reserve(2.0, 0.0)
    assert start == end == 2.0


def test_rejects_negative():
    t = Timeline()
    with pytest.raises(ValueError):
        t.reserve(-1.0, 1.0)
    with pytest.raises(ValueError):
        t.reserve(0.0, -1.0)


def test_accounting():
    t = Timeline("x")
    t.reserve(0.0, 2.0)
    t.reserve(0.0, 3.0)
    assert t.busy_time == 5.0
    assert t.reservations == 2
    t.reset()
    assert t.busy_time == 0.0
    assert t.next_free == 0.0


@settings(max_examples=50, deadline=None)
@given(
    reqs=st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 10)), min_size=1, max_size=40
    )
)
def test_reservations_never_overlap(reqs):
    t = Timeline()
    intervals = [t.reserve(e, d) for e, d in reqs]
    intervals.sort()
    for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
        assert e0 <= s1 + 1e-9


def test_thread_safety_total_busy():
    t = Timeline()
    n_threads, per_thread = 8, 200

    def worker():
        for _ in range(per_thread):
            t.reserve(0.0, 1.0)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert t.busy_time == pytest.approx(n_threads * per_thread)
    assert t.next_free == pytest.approx(n_threads * per_thread)


def test_reserve_chain_is_atomic_under_threads():
    """Chains priced concurrently on one timeline never interleave.  Each
    chain starts at the free time its thread last saw, so most take the
    closed form; a reservation landing between a chain's first call and
    its ``push_batch`` would overlap the chain and leave ``next_free``
    short of ``busy_time`` (quarter-microsecond slots keep both exact)."""
    t = Timeline()
    n_threads, chains, count, d = 8, 2000, 16, 0.25
    offsets = d * np.arange(count)

    def worker():
        for _ in range(chains):
            e = t.next_free
            t.reserve_chain(e, d, count, e + count * d, lambda s: s + offsets)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    total = n_threads * chains * count
    assert t.reservations == total
    assert t.busy_time == t.next_free == total * d
