"""The host work of one PE-step, pinned as exact call counts.

Wall-clock timings drift from run to run; the number of Python calls a
step makes does not.  ``sys.setprofile`` counts every ``call`` event
whose code lives in the ``repro`` package (generator resumptions
included), so the counts do not depend on the interpreter's own helpers
and read the same on every supported Python.  A step's cost is the
difference between a run of 10 loop iterations and a run of 0, over
64 PEs on the event engine; both runs share the allocation and one
warm-up iteration, which builds the route pricers.

The layers skip engine hooks that do nothing (``decision``/``drain``
on engines that keep the base no-op, ``jitter`` without a fault plan),
a barrier arrival takes no lock bracket on a one-PE-at-a-time engine,
``quiet`` and the barrier's departure merge the clock inline and
``clock.now`` is a plain attribute.  Before that, the same counts were 11,540 / 23,140 /
23,700: 18, 36 and 37 calls per PE-step for a barrier step, put +
barrier and AMO + barrier.
"""

import os
import sys

import numpy as np
import pytest

import repro
from repro.engine.steps import BarrierStep, alloc
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach
from repro.sim.faults import FaultPlan

PES = 64
ITERS = 10
_PKG = os.path.dirname(repro.__file__) + os.sep

#: Exact repro calls over PES x ITERS steps; per PE-step that is about
#: 8, 22 and 23 (a releasing arrival and a node-crossing put do a
#: little more).
STEP_CALLS = {"barrier": 5140, "put": 14180, "amo": 14740}


def _ops(layer):
    return {
        "barrier": lambda arr, peer: None,
        "put": lambda arr, peer: layer.put(arr, 1, peer),
        "amo": lambda arr, peer: layer.atomic(arr, peer, 0, "fadd", 1),
    }


def _repro_calls(kind: str, iters: int) -> int:
    job = Job(PES, heap_bytes=1 << 16, engine="event")
    layer = shmem_attach(job)
    op = _ops(layer)[kind]

    def body():
        arr = yield from alloc(layer, (1,), np.int64)
        peer = (current().pe + 1) % PES  # PE 15 -> 16 crosses a node
        for _ in range(1 + iters):  # the first iteration warms the pricers
            op(arr, peer)
            yield BarrierStep(layer)

    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_PKG):
            calls += 1

    sys.setprofile(profile)
    try:
        job.run(body)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("kind", sorted(STEP_CALLS))
def test_repro_calls_per_pe_step(kind):
    calls = _repro_calls(kind, ITERS) - _repro_calls(kind, 0)
    per_step = calls / (PES * ITERS)
    assert calls == STEP_CALLS[kind], f"{kind}: {per_step:.3f} repro calls per PE-step"


@pytest.mark.parametrize("engine", ["threaded", "event"])
def test_free_running_engines_bind_no_hooks(engine):
    layer = shmem_attach(Job(2, heap_bytes=1 << 12, engine=engine))
    assert layer._decide is None
    assert layer._drain is None
    assert layer._jitter is None


def test_cooperative_engine_binds_its_hooks():
    job = Job(2, heap_bytes=1 << 12, engine="vt")
    layer = shmem_attach(job)
    assert layer._decide == job.engine.decision
    assert layer._drain == job.engine.drain
    assert layer._jitter is None  # no fault plan


@pytest.mark.parametrize("engine", ["threaded", "event", "vt"])
def test_fault_plan_binds_jitter(engine):
    job = Job(2, heap_bytes=1 << 12, engine=engine,
              faults=FaultPlan(seed=3, latency_rate=0.5))
    assert shmem_attach(job)._jitter == job.engine.jitter
