"""Every engine's PE heaps are page-aligned views into zeroed slabs.

``zeroed_heaps`` cuts a job's heaps at a page-rounded stride from a few
bounded anonymous mappings (slabs).  What must hold on the threaded, ``"vt"``
and event memories alike: heaps never overlap, an access reaching a
heap's last byte leaves the next heap untouched and one element further
is refused, a non-positive size is a ``ValueError``, and the largest
job each engine accepts still builds with the default heap.
"""

import numpy as np
import pytest

from repro.engine.base import Engine
from repro.engine.event import EventEngine
from repro.runtime import memory
from repro.runtime.launcher import Job
from repro.runtime.memory import PAGE_BYTES, zeroed_heaps

ENGINES = ["threaded", "vt", "event"]
HEAP = 5000  # not a page multiple: every heap is followed by slack


def _span(mem) -> tuple[int, int]:
    start = mem._buf.ctypes.data
    return start, start + mem.nbytes


@pytest.fixture(params=ENGINES)
def memories(request):
    return Job(4, heap_bytes=HEAP, engine=request.param).memories


def test_heaps_are_page_aligned_and_disjoint(memories):
    spans = sorted(_span(m) for m in memories)
    assert all(start % PAGE_BYTES == 0 for start, _ in spans)
    assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    for i, a in enumerate(memories):
        assert a._buf.size == HEAP and not a._buf.any()
        for b in memories[i + 1:]:
            assert not np.shares_memory(a._buf, b._buf)


WORD = np.full(8, 0xFF, dtype=np.uint8)


def _write(mem, shift: int) -> None:
    mem.write(HEAP - 8 + shift, WORD, 1.0)


def _write_strided(mem, shift: int) -> None:
    mem.write_strided(HEAP - 8 - 3 * 16 + shift, 16, 8, np.tile(WORD, 4), 1.0)


def _scatter_at(mem, shift: int) -> None:
    last = (HEAP + shift) // 8 - 1
    mem.scatter_at(np.array([last]), WORD, 1.0, elem_size=8, lo=8 * last, hi=8 * last + 8)


@pytest.mark.parametrize("access", [_write, _write_strided, _scatter_at])
def test_last_byte_stays_inside_its_heap(memories, access):
    for k in range(len(memories) - 1):
        access(memories[k], 0)
        assert memories[k].read(HEAP - 8, 8).tolist() == WORD.tolist()
        assert not memories[k + 1]._buf.any()
        with pytest.raises(IndexError):
            access(memories[k], 8)
    assert not memories[-1]._buf.any()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("heap_bytes", [0, -8])
def test_non_positive_heap_rejected(engine, heap_bytes):
    with pytest.raises(ValueError, match="memory size must be positive"):
        Job(2, heap_bytes=heap_bytes, engine=engine)


@pytest.mark.parametrize(
    "num_pes,engine", [(Engine.max_pes, None), (EventEngine.max_pes, "event")]
)
def test_largest_job_builds_with_default_heap(num_pes, engine):
    job = Job(num_pes, engine=engine)
    assert len(job.memories) == num_pes
    assert not job.memories[-1].read(job.heap_bytes - 8, 8).any()


def test_heap_larger_than_a_slab_gets_its_own(monkeypatch):
    monkeypatch.setattr(memory, "SLAB_BYTES", 4 * PAGE_BYTES)
    shared = zeroed_heaps(5, HEAP)  # two 8 KiB strides per slab
    assert len({id(h.base) for h in shared}) == 3
    alone = zeroed_heaps(3, 5 * PAGE_BYTES)
    assert len({id(h.base) for h in alone}) == 3
    assert all(h.size == 5 * PAGE_BYTES and not h.any() for h in alone)
