"""PE memory: writes, strided scatter/gather, atomics, waiting."""

import threading

import numpy as np
import pytest

from repro.runtime.launcher import JobAborted
from repro.runtime.memory import PEMemory


def test_write_read_roundtrip():
    m = PEMemory(256)
    data = np.arange(16, dtype=np.uint8)
    m.write(10, data, timestamp=1.0)
    assert np.array_equal(m.read(10, 16), data)
    assert m.last_write_time == 1.0


def test_write_accepts_bytes_and_arrays():
    m = PEMemory(64)
    m.write(0, b"\x01\x02\x03", timestamp=0.5)
    m.write(3, np.array([9], dtype=np.int8), timestamp=0.7)
    assert list(m.read(0, 4)) == [1, 2, 3, 9]


def test_write_typed_array_viewed_as_bytes():
    m = PEMemory(64)
    m.write(0, np.array([1, 2], dtype=np.int64), timestamp=0.0)
    assert m.read(0, 16).view(np.int64).tolist() == [1, 2]


def test_out_of_range_rejected():
    m = PEMemory(32)
    with pytest.raises(IndexError):
        m.write(30, np.zeros(4, dtype=np.uint8), timestamp=0.0)
    with pytest.raises(IndexError):
        m.read(-1, 4)
    with pytest.raises(IndexError):
        m.read(30, 4)


def test_read_scalar():
    m = PEMemory(64)
    m.write(8, np.array([12345], dtype=np.int64), timestamp=0.0)
    assert m.read_scalar(8, np.int64) == 12345


def test_local_view_zero_copy():
    m = PEMemory(64)
    view = m.local_view(0, 8)
    view[:] = 7
    assert list(m.read(0, 8)) == [7] * 8


def test_write_strided_scatter():
    m = PEMemory(256)
    data = np.array([1, 2, 3], dtype=np.int32)
    m.write_strided(offset=4, stride_bytes=12, elem_size=4, data=data, timestamp=0.0)
    for i, expect in enumerate([1, 2, 3]):
        assert m.read(4 + 12 * i, 4).view(np.int32)[0] == expect
    # untouched gaps stay zero
    assert m.read(8, 4).view(np.int32)[0] == 0


def test_write_strided_bounds_checked():
    m = PEMemory(32)
    with pytest.raises(IndexError):
        m.write_strided(0, 16, 8, np.zeros(4, dtype=np.int64), timestamp=0.0)


def test_write_strided_validates_elem_size():
    m = PEMemory(64)
    with pytest.raises(ValueError):
        m.write_strided(0, 8, 3, np.zeros(4, dtype=np.uint8), timestamp=0.0)


def test_read_strided_gather():
    m = PEMemory(128)
    m.write(0, np.arange(16, dtype=np.int64), timestamp=0.0)
    out = m.read_strided(offset=0, stride_bytes=16, elem_size=8, nelems=4)
    assert out.view(np.int64).tolist() == [0, 2, 4, 6]


def test_strided_roundtrip_matches_numpy():
    m = PEMemory(1024)
    data = np.arange(20, dtype=np.float64)
    m.write_strided(16, 24, 8, data, timestamp=0.0)
    back = m.read_strided(16, 24, 8, 20)
    assert np.array_equal(back.view(np.float64), data)


def test_atomic_rmw_returns_old():
    m = PEMemory(64)
    m.write(0, np.array([10], dtype=np.int64), timestamp=0.0)
    old = m.atomic_rmw(0, np.int64, lambda v: v + 5, timestamp=1.0)
    assert old == 10
    assert m.read_scalar(0, np.int64) == 15


def test_atomic_rmw_concurrent_increments():
    m = PEMemory(64)
    n_threads, per = 8, 500

    def worker():
        for _ in range(per):
            m.atomic_rmw(0, np.int64, lambda v: v + 1, timestamp=0.0)

    ts = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert m.read_scalar(0, np.int64) == n_threads * per


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.float64])
def test_atomic_rmw_timed_matches_byte_slice_reference(dtype):
    """Aligned words go through the whole-heap typed view, unaligned ones
    through a byte slice; both must agree with a byte-slice reference on
    a heap whose size is not a multiple of the word."""
    dt = np.dtype(dtype)
    m = PEMemory(60)
    ref = (np.arange(60) * 37 % 251).astype(np.uint8)
    m.write(0, ref, timestamp=0.0)
    ref_times: dict = {}
    ref_seq: dict = {}

    def fn(old):
        if dt.kind == "f":
            return dt.type(old * 0.5 + 1.0)
        return dt.type(old ^ dt.type(0x5A5A))

    # 48 is the last aligned word (bytes 48-56); 52 the last unaligned fit.
    steps = [(0, 2.0), (48, 1.0), (3, 5.0), (52, 0.5), (48, 0.25), (0, 7.0), (3, 1.5), (8, 3.0)]
    for offset, ts in steps:
        key = dt if offset % 2 else dtype  # both dtype spellings work
        old, prev_time, seq = m.atomic_rmw_timed(offset, key, fn, timestamp=ts)
        word = ref[offset : offset + 8].view(dt)
        want = word[0].copy()
        word[0] = fn(want)
        want_prev = ref_times.get(offset, 0.0)
        ref_times[offset] = max(ts, want_prev)
        ref_seq[offset] = ref_seq.get(offset, 0) + 1
        assert type(old) is type(want) and old.tobytes() == want.tobytes()
        assert prev_time == want_prev
        assert seq == ref_seq[offset]
        assert m.word_time(offset) == ref_times[offset]
        assert np.array_equal(m.read(0, 60), ref)
    # The returned old value is a snapshot, not a view of the heap.
    old, _, _ = m.atomic_rmw_timed(48, dtype, fn, timestamp=9.0)
    snapshot = old.tobytes()
    m.write(48, bytes(255 - b for b in snapshot), timestamp=9.5)
    assert old.tobytes() == snapshot
    for offset in (53, 56, -1):
        with pytest.raises(IndexError):
            m.atomic_rmw_timed(offset, dtype, fn, timestamp=0.0)


def test_accumulate_elementwise():
    m = PEMemory(64)
    m.write(0, np.array([1.0, 2.0], dtype=np.float64), timestamp=0.0)
    m.accumulate(0, np.float64, np.array([10.0, 20.0]), np.add, timestamp=0.0)
    assert m.read(0, 16).view(np.float64).tolist() == [11.0, 22.0]


def test_wait_until_wakes_on_write():
    m = PEMemory(64)
    result = {}

    def waiter():
        ts = m.wait_until(
            lambda: m.read_scalar(0, np.int64) == 42, aborted=lambda: False
        )
        result["ts"] = ts

    t = threading.Thread(target=waiter)
    t.start()
    m.write(0, np.array([42], dtype=np.int64), timestamp=3.5)
    t.join(timeout=5)
    assert not t.is_alive()
    assert result["ts"] == 3.5


def test_wait_until_immediate_when_satisfied():
    m = PEMemory(64)
    m.write(0, np.array([1], dtype=np.int64), timestamp=2.0)
    ts = m.wait_until(lambda: True, aborted=lambda: False)
    assert ts == 2.0


def test_wait_until_aborts():
    m = PEMemory(64)
    flag = threading.Event()

    def waiter():
        with pytest.raises(JobAborted):
            m.wait_until(lambda: False, aborted=flag.is_set, poll_interval=0.01)

    t = threading.Thread(target=waiter)
    t.start()
    flag.set()
    t.join(timeout=5)
    assert not t.is_alive()


def test_size_validation():
    with pytest.raises(ValueError):
        PEMemory(0)
