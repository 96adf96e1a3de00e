"""The host work of one planned section access, pinned as exact counts.

A planned put or get moves the section through one strided view of the
target heap: no per-element index arrays, no marshalling copy of the
payload.  Wall-clock timings drift from run to run; these counts do
not.  For the paper's 50 x 40 x 25 float32 section under the naive plan
(50,000 one-element runs) and the ``2dim`` plan (lines), on the event
engine after one warm-up access:

* ``sys.setprofile`` counts the ``call`` events whose code lives in the
  ``repro`` package;
* ``tracemalloc`` (which sees NumPy's data buffers) counts how many
  payload-sized buffers the access holds at its peak: none for a put of
  a strided payload, one — the result — for a get;
* the cached :class:`~repro.comm.base.BatchSpec` holds no array at all,
  only a handful of integers per dimension.

With per-element index arrays, the same accesses made 28 / 25 (naive
put / get) and 28 / 28 (``2dim``) calls, every put made one marshalling
copy, a ``2dim`` get held two payload buffers, and each spec held two
arrays of 50,000 entries.
"""

import os
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

import repro
from repro.caf import rma
from repro.caf.strided import make_plan, normalize_selection
from repro.engine.steps import BarrierStep, alloc
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach

SHAPE = (100, 80, 100)
KEY = np.s_[0:100:2, 0:80:2, 0:100:4]
_PKG = os.path.dirname(repro.__file__) + os.sep

#: Exact repro calls of one access, and payload-sized buffers alive at
#: its peak; the same for both plans.
CALLS = {"put": 25, "get": 24}
COPIES = {"put": 0, "get": 1}


def _repro_calls(op) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_PKG):
            calls += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return calls


def _payload_buffers(op, nbytes: int) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = op()  # noqa: F841 -- a get's result stays alive: it is the one copy
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) // nbytes


def _measure(policy: str, direction: str):
    job = Job(2, "stampede", heap_bytes=4 << 20, engine="event")
    layer = shmem_attach(job, "cray-shmem")
    sels, sel_shape = normalize_selection(SHAPE, KEY)
    plan = make_plan(sels, SHAPE, policy, iput_native=True)
    spec = rma.plan_spec(layer, plan, sels, SHAPE, 4)
    # A strided payload, as a section-to-section assignment hands over.
    payload = np.arange(np.prod(SHAPE), dtype=np.float32).reshape(SHAPE)[KEY]
    out = {}

    def body():
        arr = yield from alloc(layer, SHAPE, np.float32)
        if current().pe == 0:
            stats = Counter()
            if direction == "put":
                def op():
                    rma.execute_put(layer, arr, 1, plan, sels, payload, stats, spec=spec)
            else:
                def op():
                    return rma.execute_get(layer, arr, 1, plan, sels, stats, spec=spec)
            op()  # warm-up: builds the plan's pricer
            out["calls"] = _repro_calls(op)
            out["copies"] = _payload_buffers(op, payload.nbytes)
        yield BarrierStep(layer)

    job.run(body)
    return plan, spec, out


@pytest.mark.parametrize("direction", ["put", "get"])
@pytest.mark.parametrize("policy", ["naive", "2dim"])
def test_planned_access_work_counts(policy, direction):
    plan, spec, out = _measure(policy, direction)
    assert (plan.kind, plan.num_calls) == (
        ("runs", 50 * 40 * 25) if policy == "naive" else ("lines", 50 * 25)
    )
    assert out["copies"] == COPIES[direction]
    assert out["calls"] == CALLS[direction]
    # The cached spec is geometry, not data: ints and per-dimension tuples.
    for field in astuple(spec):
        assert isinstance(field, (int, str, tuple)), type(field)
        assert not isinstance(field, tuple) or len(field) == len(SHAPE)
