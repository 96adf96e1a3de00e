"""One :class:`~repro.comm.base.BatchSpec` placed at concrete array bases.

A spec holds a plan's section as a strided view *relative to the array
base*; ``OneSidedLayer.execute_plan_put``/``execute_plan_get`` place it
at the array's byte offset and copy through that one view.  These tests
pin the placement against the explicit per-element byte offsets of the
section: on aligned and unaligned bases, for element sizes with no
unsigned-integer view, and for one spec reused at several bases, where
nothing about a base may stick to the spec.
"""

from dataclasses import astuple

import numpy as np

from repro.caf import rma
from repro.caf.strided import make_plan, normalize_selection
from repro.comm.base import BatchSpec
from repro.comm.heap import SymmetricArray
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach

# Two 3-element lines with element stride 2 over a (2, 10) array:
# elements {0, 2, 4} and {10, 12, 14} relative to the array base.
SHAPE = (2, 10)
KEY = np.s_[0:2, 0:6:2]
ELEMS = np.array([0, 2, 4, 10, 12, 14], dtype=np.int64)
BLOCK = 512
BACKGROUND = 0xA5


def lines_spec(elem_size=8):
    return BatchSpec(
        kind="lines",
        ncalls=2,
        nelems_per_call=3,
        stride=2,
        shape=(2, 3),
        strides=(10 * elem_size, 2 * elem_size),
        min_elem=0,
        max_elem=14,
    )


def payload(dtype, seed):
    """Random bytes in the selection's shape (floats may carry NaN bits)."""
    size = ELEMS.size * dtype.itemsize
    raw = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8)
    return raw.view(dtype).reshape(2, 3)


def expected_block(shifts, datas, elem_size):
    """The target block after writing each payload at its shift, element
    by element at the section's explicit byte offsets."""
    block = np.full(BLOCK, BACKGROUND, dtype=np.uint8)
    for shift, data in zip(shifts, datas):
        raw = data.reshape(-1).view(np.uint8)
        for k, elem in enumerate(ELEMS):
            at = shift + int(elem) * elem_size
            block[at : at + elem_size] = raw[k * elem_size : (k + 1) * elem_size]
    return block.tobytes()


def move(spec, dtype, shifts, engine="threaded"):
    """PE 0 puts one payload per shift into PE 1's block with ``spec``,
    then gets each back.  Returns (PE 1's block bytes, fetched arrays,
    payloads)."""
    dtype = np.dtype(dtype)
    datas = [payload(dtype, [dtype.itemsize, shift, i]) for i, shift in enumerate(shifts)]
    job = Job(2, "stampede", heap_bytes=1 << 14, engine=engine)
    layer = shmem_attach(job, "cray-shmem")

    def body():
        me = current().pe
        handle = layer.shmalloc_array((BLOCK,), np.uint8)
        block = job.memories[me].local_view(handle.byte_offset, BLOCK)
        block[:] = BACKGROUND
        arrays = [SymmetricArray(layer, handle.byte_offset + s, SHAPE, dtype) for s in shifts]
        layer.barrier_all()
        got = []
        if me == 0:
            for arr, data in zip(arrays, datas):
                layer.execute_plan_put(arr, data, 1, spec)
            layer.quiet()
            got = [layer.execute_plan_get(arr, 1, spec) for arr in arrays]
        layer.barrier_all()
        return block.tobytes(), got

    results = job.run(body)
    return results[1][0], results[0][1], datas


def test_aligned_base_uses_element_view_index():
    spec = lines_spec()
    # The fixture is the spec the planner compiles for this section.
    sels, _ = normalize_selection(SHAPE, KEY)
    plan = make_plan(sels, SHAPE, "2dim", iput_native=True)
    assert astuple(rma.build_spec(plan, sels, SHAPE, 8)) == astuple(spec)
    block, got, datas = move(spec, "f8", [16])  # 16 bytes = 2 elements
    assert block == expected_block([16], datas, 8)
    assert got[0].shape == (2, 3) and got[0].dtype == np.float64
    assert got[0].tobytes() == datas[0].tobytes()


def test_unaligned_base_byte_expands():
    spec = lines_spec()
    block, got, datas = move(spec, "f8", [17])
    assert block == expected_block([17], datas, 8)
    assert got[0].tobytes() == datas[0].tobytes()
    # The write covers exactly [base, base + 14 * 8 + 8) at the extremes.
    touched = np.flatnonzero(np.frombuffer(block, np.uint8) != BACKGROUND)
    assert touched.min() >= 17 and touched.max() < 17 + 14 * 8 + 8


def test_viewless_elem_size_byte_expands():
    spec = lines_spec(elem_size=3)
    block, got, datas = move(spec, "V3", [9])  # 9 % 3 == 0, but no integer view
    assert block == expected_block([9], datas, 3)
    assert got[0].dtype == np.dtype("V3")
    assert got[0].tobytes() == datas[0].tobytes()


def test_missing_rel_elem_byte_expands():
    # A spec is geometry only: integers and tuples, no per-element array.
    assert not any(isinstance(v, np.ndarray) for v in astuple(lines_spec()))


def test_memo_hits_and_invalidates_per_base():
    spec = lines_spec()
    before = astuple(spec)
    # Base 16, then moved past the array to 176, then back to 16: each
    # placement lands at its own base, threaded and with deferred
    # delivery alike.
    shifts = [16, 176, 16]
    for engine in ("threaded", "vt"):
        block, got, datas = move(spec, "f8", shifts, engine=engine)
        assert block == expected_block(shifts, datas, 8)
        # The later write to base 16 wins; base 176 keeps its own.
        assert got[0].tobytes() == datas[2].tobytes() == got[2].tobytes()
        assert got[1].tobytes() == datas[1].tobytes()
    assert astuple(spec) == before


def test_expanded_rel_cached_across_bases():
    spec = lines_spec()
    before = astuple(spec)
    block, got, datas = move(spec, "f8", [17, 25 + 160])
    assert block == expected_block([17, 25 + 160], datas, 8)
    assert [g.tobytes() for g in got] == [d.tobytes() for d in datas]
    assert astuple(spec) == before  # nothing about either base stuck to it


def test_elem_size_required():
    # Strides are compiled for one itemsize: another itemsize is another spec.
    sels, _ = normalize_selection(SHAPE, KEY)
    plan = make_plan(sels, SHAPE, "2dim", iput_native=True)
    spec3, spec8 = (astuple(rma.build_spec(plan, sels, SHAPE, n)) for n in (3, 8))
    assert spec3 == astuple(lines_spec(elem_size=3))
    assert spec3 != spec8
