"""Allocation sizes are exact integers: a shape whose byte count passes
2**63 is refused, never wrapped into a tiny block.

``(2**32, 2**32)`` float64 elements are 2**67 bytes; an ``int64``
product wraps that to 0, which the allocator rounds up to one aligned
block at offset 0 — an array every later put overruns into whatever
was allocated next.
"""

import numpy as np
import pytest

from repro import caf
from repro.engine.steps import alloc
from repro.runtime.context import current
from repro.runtime.launcher import Job, JobFailure
from repro.runtime.sync import CollectiveMismatch
from repro.shmem import attach as shmem_attach
from repro.util.allocator import OutOfMemoryError, array_nbytes

HUGE = (2**32, 2**32)
HEAP = 64 * 1024
NPES = 2


def _assert_every_pe_out_of_memory(exc_info):
    failures = exc_info.value.failures
    assert sorted(pe for pe, _ in failures) == list(range(NPES))
    for _, exc in failures:
        assert isinstance(exc, OutOfMemoryError)


def test_array_nbytes_is_exact():
    assert array_nbytes(HUGE, 8) == 2**67
    assert array_nbytes((np.int64(2**40), np.int64(2**40)), 8) == 2**83
    assert array_nbytes((), 4) == 4
    assert array_nbytes((3, 0, 5), 8) == 0


def test_event_engine_refuses_a_wrapping_shape():
    job = Job(NPES, "stampede", heap_bytes=HEAP, engine="event")
    layer = shmem_attach(job)

    def body():
        yield from alloc(layer, HUGE, np.float64)
        return "allocated"

    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    _assert_every_pe_out_of_memory(exc_info)


def test_threaded_engine_refuses_a_wrapping_shape_and_keeps_neighbours():
    job = Job(NPES, "stampede", heap_bytes=HEAP, engine="threaded")
    layer = shmem_attach(job)

    def kernel():
        me = current().pe
        small = layer.alloc_array((4,), np.float64)
        small.local[:] = me
        layer.barrier_all()
        try:
            layer.alloc_array(HUGE, np.float64)
        finally:
            # Whatever the huge request did, the small array is intact.
            assert list(small.local) == [float(me)] * 4
        return "allocated"

    with pytest.raises(JobFailure) as exc_info:
        job.run(kernel)
    _assert_every_pe_out_of_memory(exc_info)


def test_coarray_refuses_a_wrapping_shape():
    def kernel():
        caf.coarray(HUGE, np.float64)
        return "allocated"

    with pytest.raises(JobFailure) as exc_info:
        caf.launch(kernel, NPES, heap_bytes=1 << 20)
    _assert_every_pe_out_of_memory(exc_info)


# ---------------------------------------------------------------------------
# The per-layer allocation layout memo (keyed on the ``(shape, dtype)``
# arguments) must not change what an allocation accepts or refuses.
# ---------------------------------------------------------------------------


def test_list_and_numpy_integer_shapes_still_allocate():
    job = Job(NPES, "stampede", heap_bytes=HEAP, engine="event")
    layer = shmem_attach(job)

    def body():
        shapes = []
        for shape in ([2, 3], [2, 3], np.int64(5), np.int64(5), (np.int32(2), 3)):
            arr = yield from alloc(layer, shape, np.float64)
            shapes.append(arr.shape)
        return shapes

    assert job.run(body) == [[(2, 3), (2, 3), (5,), (5,), (2, 3)]] * NPES


def test_negative_dimension_raises_on_every_call():
    layer = shmem_attach(Job(NPES, "stampede", heap_bytes=HEAP))
    for shape in ((2, -1), (2, -1), [-3], [-3], np.int64(-1), np.int64(-1)):
        with pytest.raises(ValueError, match="negative dimension"):
            layer.alloc_array(shape, np.int64)


def test_different_dtypes_under_one_shape_still_mismatch():
    job = Job(NPES, "stampede", heap_bytes=HEAP, engine="event")
    layer = shmem_attach(job)

    def body():
        # Every PE first allocates both pairs, so both layouts are memoized.
        yield from alloc(layer, (4,), np.int64)
        yield from alloc(layer, (4,), np.float64)
        yield from alloc(layer, (4,), np.float64 if current().pe else np.int64)
        return "allocated"

    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    ((pe, exc),) = exc_info.value.failures
    assert pe == 1 and isinstance(exc, CollectiveMismatch)
