"""A single-element co-indexed access is the planned access.

``a.on(j)[k]`` and ``a.on(j)[k] = v`` with a subscript that names one
element are issued directly as one ``getmem``/``putmem``.  Every planner
would emit exactly that call (one length-1 contiguous run), so the
implicit form must match the explicit ``get(k, algorithm=p)`` /
``put(k, v, algorithm=p)`` form bit for bit: value, every PE's final
clock, the get/put counters and the trace records.
"""

import numpy as np
import pytest

from repro import caf, trace
from repro.caf.runtime import attach as caf_attach
from repro.caf.runtime import current_runtime
from repro.caf.strided import ALGORITHMS
from repro.runtime.context import current
from repro.runtime.launcher import Job

COUNTERS = ("getmem_calls", "get_elems", "putmem_calls", "put_elems")

#: (shape, dtype, element subscripts): plain, negative and NumPy-integer
#: keys on a 1-D array, full-rank tuples on 2-D and 3-D arrays.
CASES = [
    ((7,), np.int64, [3, -1, np.int64(5)]),
    ((3, 4), np.float64, [(1, 2), (-1, -4), (np.int64(2), 3)]),
    ((2, 3, 4), np.int32, [(1, 2, 3), (0, -1, np.int32(2)), (-2, 0, 0)]),
]


def _canon(v):
    a = np.asarray(v)
    return a.dtype.str, a.shape, a.tobytes()


def _kernel(algorithm):
    me, n = caf.this_image(), caf.num_images()
    nxt = me % n + 1
    arrays = []
    for shape, dtype, keys in CASES:
        a = caf.coarray(shape, dtype)
        a[...] = (np.arange(int(np.prod(shape))).reshape(shape) + 100 * me).astype(dtype)
        arrays.append((a, keys))
    caf.sync_all()
    seen = []
    for a, keys in arrays:
        ref = a.on(nxt)
        rank = len(a.shape)

        def get(k):
            return ref[k] if algorithm is None else ref.get(k, algorithm=algorithm)

        def put(k, v):
            if algorithm is None:
                ref[k] = v
            else:
                ref.put(k, v, algorithm=algorithm)

        for i, k in enumerate(keys):
            v = get(k)
            seen.append(_canon(v))
            # A Python scalar, a 0-d array and a full-rank one-element array.
            put(k, [int(v) + me, np.asarray(v + 1), np.full((1,) * rank, v + 2)][i % 3])
            seen.append(_canon(get(k)))
    caf.sync_all()
    stats = current_runtime().my_stats
    return (
        seen,
        current().clock.now.hex(),
        [stats[c] for c in COUNTERS],
        [_canon(a.local) for a, _ in arrays],
    )


def _run(profile, ordering, strided, algorithm):
    job = Job(3, "stampede", engine="vt")
    rt = caf_attach(job, profile=profile, ordering=ordering, strided=strided)
    # Sync capture records every quiet, so a dropped ordering quiet shows.
    tracer = trace.attach(job, capture_sync=True)

    def main():
        rt.startup()
        return _kernel(algorithm)

    results = job.run(main)
    records = [[(e.op, e.target, e.nbytes, e.addr) for e in evs] for evs in tracer.events]
    return results, records, rt.plan_cache_info()


@pytest.mark.parametrize("ordering", ["caf", "relaxed"])
@pytest.mark.parametrize("profile", ["cray-shmem", "mvapich2x-shmem"])
@pytest.mark.parametrize("planner", ALGORITHMS)
def test_scalar_access_equals_explicit_planner(planner, profile, ordering):
    implicit, implicit_records, cache = _run(profile, ordering, planner, None)
    explicit, explicit_records, _ = _run(profile, ordering, planner, planner)
    assert implicit == explicit  # values, clocks (float.hex), counters, heaps
    assert implicit_records == explicit_records
    for _, _, counters, _ in implicit:
        assert counters[0] > 0 and counters[2] > 0
    # Scalar accesses never touch the plan cache.
    assert cache["entries"] == 0
    assert cache["hits"] == cache["misses"] == 0


@pytest.mark.parametrize("explicit", [False, True])
def test_invalid_scalar_access_raises_todays_errors(explicit):
    """Out-of-range indices and values that are not one element fall
    through to the planned path and raise its exception types."""

    def kernel():
        me, n = caf.this_image(), caf.num_images()
        nxt = me % n + 1
        a = caf.coarray((4,), np.int64)
        b = caf.coarray((2, 3), np.int64)
        caf.sync_all()
        kw = {"algorithm": "naive"} if explicit else {}
        for arr, key in ((a, 4), (a, -5), (a, (1, 1)), (b, (2, 0)), (b, (0, -4))):
            with pytest.raises(IndexError):
                arr.on(nxt).get(key, **kw)
            with pytest.raises(IndexError):
                arr.on(nxt).put(key, 1, **kw)
        for arr, key, value in (
            (a, 1, [1, 2]),
            (b, (1, 1), np.ones(2)),
            (b, (1, 1), np.ones(1)),  # one element, but not full rank
            (a, 1, np.ones((1, 1))),  # one element, rank above the array's
        ):
            with pytest.raises(ValueError):
                arr.on(nxt).put(key, value, **kw)
        caf.sync_all()
        return True

    assert all(caf.launch(kernel, num_images=2))


def test_bool_subscript_is_not_an_index():
    """``True`` is an ``int`` subclass but not an element index: NumPy
    reads ``a[True]`` as a mask (shape ``(1, 4)`` here), so a co-indexed
    access must not quietly take element/row 1 of the target."""

    def kernel():
        me, n = caf.this_image(), caf.num_images()
        nxt = me % n + 1
        a = caf.coarray((4,), np.int64)
        b = caf.coarray((2, 4), np.int64)
        caf.sync_all()
        assert a.local[True].shape == (1, 4)
        for arr, key in ((a, True), (a, np.bool_(False)), (b, True), (b, (True, 0))):
            with pytest.raises(TypeError):
                arr.on(nxt)[key]
            with pytest.raises(TypeError):
                arr.on(nxt)[key] = 1
        caf.sync_all()
        return True

    assert all(caf.launch(kernel, num_images=2))
