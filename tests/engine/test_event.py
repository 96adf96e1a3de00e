"""EventEngine behaviour: steps, waits, deadlock and failure reporting."""

import numpy as np
import pytest

from repro.engine import DelayStep, Done, WaitStep, WouldBlock, drive
from repro.engine import DeadlockError
from repro.engine.steps import BarrierStep, alloc_array_step
from repro.runtime.context import current
from repro.runtime.launcher import Job, JobFailure
from repro.shmem import attach as shmem_attach

HEAP = 1 << 15


def _job(n, engine="event"):
    job = Job(n, heap_bytes=HEAP, engine=engine)
    return job, shmem_attach(job)


def test_plain_bodies_still_run():
    job, layer = _job(4)

    def body():
        return current().pe * 10

    assert job.run(body) == [0, 10, 20, 30]


def test_delay_step_advances_virtual_clock():
    job, _ = _job(3)

    def body():
        ctx = current()
        return DelayStep(5.5, lambda: Done(ctx.clock.now))

    assert job.run(body) == [5.5] * 3


def test_wait_step_wakes_on_remote_write():
    job, layer = _job(2)

    def body():
        ctx = current()

        def ready(flag):
            if ctx.pe == 0:
                layer.put(flag, np.array([7], dtype=np.int64), 1)
                return Done("writer")
            return WaitStep(layer, flag, "eq", 7, lambda: Done(int(flag.local[0])))

        return alloc_array_step(layer, (1,), np.int64, ready)

    assert job.run(body) == ["writer", 7]


def test_inline_blocking_wait_raises_wouldblock():
    job, layer = _job(2)

    def body():
        ctx = current()

        def go(flag):
            if ctx.pe == 1:
                layer.wait_until(flag, "eq", 1)  # inline: only PE 1 ever here
            return Done(None)

        return alloc_array_step(layer, (1,), np.int64, go)

    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    (pe, exc), = exc_info.value.failures
    assert pe == 1
    assert isinstance(exc, WouldBlock)


def test_unreleasable_barrier_is_deadlock():
    job, layer = _job(3)

    def body():
        if current().pe == 0:
            return Done("skipped the barrier")
        return BarrierStep(layer, lambda: Done("released"))

    with pytest.raises(DeadlockError, match=r"PE\(s\) \[1, 2\]"):
        job.run(body)


def test_failure_aborts_parked_pes():
    """A crash must not hang PEs already parked at the barrier."""
    job, layer = _job(4)

    def body():
        def after_alloc(_flag):
            if current().pe == 3:
                raise RuntimeError("boom on PE 3")
            return BarrierStep(layer, lambda: Done("released"))

        return alloc_array_step(layer, (1,), np.int64, after_alloc)

    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    records = [(pe, type(e).__name__, str(e)) for pe, e in exc_info.value.failures]
    assert records == [(3, "RuntimeError", "boom on PE 3")]


def test_drive_and_event_agree_on_one_pe_program():
    def make_body(layer):
        def body():
            ctx = current()
            return DelayStep(
                2.0,
                lambda: alloc_array_step(
                    layer, (4,), np.float64,
                    lambda arr: Done((arr.local.shape, ctx.clock.now)),
                ),
            )

        return body

    outs = []
    for engine in ("threaded", "event"):
        job, layer = _job(1, engine=engine)
        outs.append(job.run(make_body(layer)))
    assert outs[0] == outs[1]


def test_drive_rejects_unknown_step():
    class Weird:
        pass

    assert drive(Weird()) is not None  # non-steps pass through untouched
    assert drive(Done(5)) == 5
