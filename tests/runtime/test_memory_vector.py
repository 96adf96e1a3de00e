"""Unit tests for the int64-index form of the batched heap primitives.

Planned sections reach ``scatter_at``/``gather_at`` as a strided view
(``tests/comm/test_plan_view.py``); their index form remains for
callers that hold per-element offsets.  It must byte-match the
per-offset ``write_at``/``read_at`` primitives on both index
representations — element indices into the ``elem_size`` view
(``expanded=False``) and per-byte offsets (``expanded=True``).
"""

import numpy as np
import pytest

from repro.runtime.memory import PEMemory

HEAP = 1 << 12


def _filled(n=HEAP):
    mem = PEMemory(n)
    mem.write(0, (np.arange(n) % 251).astype(np.uint8), 1.0)
    return mem


# ---------------------------------------------------------------------------
# gather_at
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("elem_size", [2, 4, 8])
def test_gather_at_view_path_matches_read_at(elem_size):
    mem = _filled()
    offsets = np.array([0, 16, 8, 128, 16], dtype=np.int64) * elem_size
    via_read = mem.read_at(offsets, elem_size)
    index = offsets // elem_size
    lo = int(offsets.min())
    hi = int(offsets.max()) + elem_size
    via_gather = mem.gather_at(index, elem_size=elem_size, lo=lo, hi=hi)
    assert via_gather.dtype == np.uint8
    assert via_gather.tobytes() == via_read.tobytes()


def test_gather_at_byte_path_matches_read_at():
    mem = _filled()
    elem_size = 3  # no reinterpret view exists: byte-expanded path
    offsets = np.array([5, 77, 11, 300], dtype=np.int64)
    via_read = mem.read_at(offsets, elem_size)
    index = (offsets[:, None] + np.arange(elem_size)[None, :]).reshape(-1)
    via_gather = mem.gather_at(
        index, elem_size=elem_size, lo=5, hi=303, expanded=True
    )
    assert via_gather.tobytes() == via_read.tobytes()


def test_gather_at_elem_size_one():
    mem = _filled()
    index = np.array([9, 3, 3, 511], dtype=np.int64)
    out = mem.gather_at(index, elem_size=1, lo=3, hi=512)
    assert out.tolist() == [9 % 251, 3, 3, 511 % 251]


def test_gather_at_returns_copy():
    mem = _filled()
    index = np.array([0, 1], dtype=np.int64)
    out = mem.gather_at(index, elem_size=1, lo=0, hi=2)
    out[:] = 0
    assert mem.read(0, 2).tolist() == [0, 1]


@pytest.mark.parametrize("lo,hi", [(-1, 8), (0, HEAP + 1)])
def test_gather_at_bounds(lo, hi):
    mem = _filled()
    with pytest.raises(IndexError):
        mem.gather_at(np.array([0], dtype=np.int64), elem_size=8, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# scatter_at
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("elem_size", [2, 4, 8])
def test_scatter_at_view_path_matches_write_at(elem_size):
    offsets = np.array([0, 16, 128, 48], dtype=np.int64) * elem_size
    data = np.arange(offsets.size * elem_size, dtype=np.uint8) + 100
    via_write = _filled()
    via_write.write_at(offsets, elem_size, data, 2.0)
    via_scatter = _filled()
    via_scatter.scatter_at(
        offsets // elem_size,
        data,
        2.0,
        elem_size=elem_size,
        lo=int(offsets.min()),
        hi=int(offsets.max()) + elem_size,
    )
    assert via_scatter.read(0, HEAP).tobytes() == via_write.read(0, HEAP).tobytes()


def test_scatter_at_byte_path_matches_write_at():
    elem_size = 6
    offsets = np.array([1, 71, 19], dtype=np.int64)
    data = np.arange(offsets.size * elem_size, dtype=np.uint8)
    via_write = _filled()
    via_write.write_at(offsets, elem_size, data, 2.0)
    via_scatter = _filled()
    index = (offsets[:, None] + np.arange(elem_size)[None, :]).reshape(-1)
    via_scatter.scatter_at(
        index, data, 2.0, elem_size=elem_size, lo=1, hi=77, expanded=True
    )
    assert via_scatter.read(0, HEAP).tobytes() == via_write.read(0, HEAP).tobytes()


def test_scatter_at_accepts_typed_data():
    mem = PEMemory(64)
    vals = np.array([1.5, -2.25], dtype=np.float64)
    mem.scatter_at(np.array([1, 3], dtype=np.int64), vals, 2.0, elem_size=8, lo=8, hi=32)
    assert float(mem.read_scalar(8, np.float64)) == 1.5
    assert float(mem.read_scalar(24, np.float64)) == -2.25


def test_scatter_at_publishes_timestamp():
    mem = PEMemory(64)
    assert mem.last_write_time == 0.0
    mem.scatter_at(np.array([0], dtype=np.int64), np.zeros(1), 7.5, elem_size=8, lo=0, hi=8)
    assert mem.last_write_time == 7.5
    # A write stamped earlier must not move the watermark backwards.
    mem.scatter_at(np.array([1], dtype=np.int64), np.zeros(1), 3.0, elem_size=8, lo=8, hi=16)
    assert mem.last_write_time == 7.5


@pytest.mark.parametrize("lo,hi", [(-8, 8), (0, HEAP + 8)])
def test_scatter_at_bounds(lo, hi):
    mem = _filled()
    with pytest.raises(IndexError):
        mem.scatter_at(
            np.array([0], dtype=np.int64), np.zeros(1), 1.0, elem_size=8, lo=lo, hi=hi
        )
