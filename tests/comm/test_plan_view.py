"""A planned section moves through one strided view of the target heap,
exactly as the plan's calls would move it one by one.

Hypothesis draws regular sections (1-4 dimensions, steps 1-5) over
int8, float32, float64, complex128 and a 16-byte void dtype, on array
bases that are aligned to the element size and on bases that are not.
Each draw runs twice on the same SHMEM layer: once through
``repro.caf.rma`` (one :class:`~repro.comm.base.BatchSpec`, one copy
per access) and once through the per-call loops of
:mod:`tests.caf.oracle`.  Target bytes, fetched bytes, stats, virtual
clocks and trace footprints must match exactly, on the threaded engine
and under ``engine="vt"``, whose deferred delivery copies the payload.
One spec serves two arrays at different bases, so nothing about a base
may stick to the spec.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import trace
from repro.caf import rma
from repro.caf.strided import make_plan, normalize_selection
from repro.comm.heap import SymmetricArray
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach
from tests.caf import oracle
from tests.caf.oracle import touched

DTYPES = ("i1", "f4", "f8", "c16", "V16")
POLICIES = ("naive", "2dim", "alldim", "lastdim", "matrix", "auto")
PROFILES = ("cray-shmem", "mvapich2x-shmem")


@st.composite
def sections(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(ndim))
    key = []
    for extent in shape:
        start = draw(st.integers(0, extent - 1))
        step = draw(st.integers(1, 5))
        stop = draw(st.integers(start + 1, extent))
        key.append(slice(start, stop, step))
    return (
        shape,
        tuple(key),
        draw(st.sampled_from(DTYPES)),
        draw(st.sampled_from((0, 1, 3, 8))),  # base shift past a 16-byte boundary
        draw(st.sampled_from(POLICIES)),
        draw(st.sampled_from(PROFILES)),
    )


def _run(engine, case, put, get):
    """One two-PE job: PE 0 writes the section on PE 1 at two bases with
    one spec, then reads both back.  Returns per-PE fingerprints and
    what the trace says each PE touched."""
    shape, key, dtype_name, shift, policy, profile = case
    dtype = np.dtype(dtype_name)
    job = Job(2, "stampede", heap_bytes=1 << 16, engine=engine)
    layer = shmem_attach(job, profile)
    tracer = trace.attach(job, capture_sync=True)
    sels, sel_shape = normalize_selection(shape, key)
    plan = make_plan(sels, shape, policy, iput_native=layer.profile.iput_native)
    spec = rma.plan_spec(layer, plan, sels, shape, dtype.itemsize)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    rng = np.random.default_rng([len(shape), shift, dtype.itemsize])
    # Random bytes: float draws carry NaNs with arbitrary payload bits.
    payloads = [
        rng.integers(0, 256, int(np.prod(sel_shape)) * dtype.itemsize, dtype=np.uint8)
        .view(dtype).reshape(sel_shape)
        for _ in range(2)
    ]

    def body():
        me = current().pe
        mem = job.memories[me]
        handles = [layer.shmalloc_array((nbytes + 16,), np.uint8) for _ in range(2)]
        blocks = [mem.local_view(h.byte_offset, nbytes + 16) for h in handles]
        arrays = [SymmetricArray(layer, h.byte_offset + extra, shape, dtype)
                  for h, extra in zip(handles, (shift, shift + 5))]
        for block in blocks:
            block[:] = 0xA5  # background the section must leave alone
        layer.barrier_all()
        stats, got = Counter(), []
        if me == 0:
            for arr, data in zip(arrays, payloads):
                put(layer, arr, 1, plan, sels, data, stats, spec=spec)
            layer.quiet()
            got = [get(layer, arr, 1, plan, sels, stats, spec=spec).tobytes() for arr in arrays]
        layer.barrier_all()
        return current().clock.now, dict(stats), got, [b.tobytes() for b in blocks]

    return job.run(body), touched(tracer)


def _assert_matches_oracle(engine, case):
    batched = _run(engine, case, rma.execute_put, rma.execute_get)
    per_call = _run(engine, case, oracle.execute_put, oracle.execute_get)
    assert batched == per_call


@pytest.mark.parametrize("engine", ["threaded", "vt"])
@settings(max_examples=30, deadline=None)
@given(case=sections())
# A line plan over an aligned float64 base (the element-wide view).
@example(case=((6, 16), (slice(0, 6, 2), slice(1, 16, 3)), "f8", 0, "2dim", "cray-shmem"))
# The same plan on unaligned bases: no byte-expanded index needed.
@example(case=((6, 16), (slice(0, 6, 2), slice(1, 16, 3)), "f8", 3, "2dim", "cray-shmem"))
# Elements with no unsigned-integer view, per-element runs.
@example(case=((5, 4, 6), (slice(0, 5, 2), slice(1, 4), slice(0, 6, 5)), "c16", 8,
               "naive", "mvapich2x-shmem"))
@example(case=((3, 2, 4, 5), (slice(0, 3), slice(0, 2), slice(1, 4, 2), slice(0, 5, 4)),
               "V16", 1, "auto", "cray-shmem"))
def test_section_matches_the_per_call_oracle(engine, case):
    _assert_matches_oracle(engine, case)

