"""The park/wake core shared by the deterministic engines: one counter
set that means the same thing on ``engine="event"`` and ``engine="vt"``,
and one deadlock report that stays bounded at scale and names the
failed images."""

import numpy as np
import pytest

from repro.engine import BarrierStep, DelayStep, DeadlockError, WaitStep, alloc
from repro.runtime.context import current
from repro.runtime.launcher import Job, JobFailure
from repro.shmem import attach as shmem_attach
from repro.sim.faults import FaultPlan
from tests.engine.test_event_wakeups import HEAP, SEVEN

SHARED = ("parks", "polls", "wakes", "dirty", "max_parked")


def _three_barriers(layer):
    for _ in range(3):
        yield BarrierStep(layer)
    return current().clock.now


def _delayed_writer(layer):
    """PE 1 waits for its flag; PE 0 sets it after a virtual-time delay,
    so that both engines park PE 1 before the write lands."""
    flag = yield from alloc(layer, (1,), np.int64)
    if current().pe == 0:
        yield DelayStep(5.0)
        layer.atomic(flag, 1, 0, "set", 7)
        return None
    yield WaitStep(layer, flag, "eq", 7)
    return int(flag.local[0]), current().clock.now


def _run(engine, num_pes, program):
    job = Job(num_pes, heap_bytes=HEAP, engine=engine)
    layer = shmem_attach(job)
    results = job.run(lambda: program(layer))
    return results, {key: job.engine.stats[key] for key in SHARED}


@pytest.mark.parametrize("num_pes, program, expected", [
    # Three non-final arrivers park at each of three barriers.
    (4, _three_barriers, dict(parks=9, polls=9, wakes=9, dirty=0, max_parked=3)),
    # One park at the alloc barrier, one value wait woken by one write.
    (2, _delayed_writer, dict(parks=2, polls=3, wakes=2, dirty=1, max_parked=1)),
])
def test_shared_counters_mean_one_thing_on_both_engines(num_pes, program, expected):
    event_results, event_stats = _run("event", num_pes, program)
    vt_results, vt_stats = _run("vt", num_pes, program)
    assert event_results == vt_results
    assert event_stats == vt_stats == expected


def _deadlock(job, body) -> DeadlockError:
    """The DeadlockError a run raises: directly (event engine) or as one
    of the job's failures (cooperative engine)."""
    with pytest.raises((DeadlockError, JobFailure)) as exc_info:
        job.run(body)
    exc = exc_info.value
    if isinstance(exc, JobFailure):
        exc = next(e for _, e in exc.failures if isinstance(e, DeadlockError))
    return exc


def test_deadlock_report_is_bounded_at_scale():
    job = Job(1024, heap_bytes=1024, engine="event")
    layer = shmem_attach(job)

    def body():
        if current().pe == 0:
            return "skipped the barrier"
        return (yield BarrierStep(layer))

    report = str(_deadlock(job, body))
    assert len(report) < 2048
    head, *lines = report.split("\n")
    assert "1023 parked PE(s) [1, 2, 3, ..., 1021, 1022, 1023]" in head
    assert "failed PE(s): none" in head
    gen = f"barrier(sync_id={job.barrier.sync_id}, gen=0)"
    assert lines == [
        f"  PE 1 blocked in {gen}", f"  PE 2 blocked in {gen}",
        f"  PE 3 blocked in {gen}", "  ... 1017 more",
        f"  PE 1021 blocked in {gen}", f"  PE 1022 blocked in {gen}",
        f"  PE 1023 blocked in {gen}",
    ]


@pytest.mark.parametrize("engine", ["event", "vt"])
def test_deadlock_report_names_the_failed_images(engine):
    """PE 0 crashes (survivable) before writing PE 1's flag; PE 1's wait
    names no target, so nothing can release it."""
    job = Job(2, heap_bytes=HEAP, engine=engine, survivable=True,
              faults=FaultPlan(seed=1, crash_at={0: 1}))
    layer = shmem_attach(job)

    def body():
        flag = yield from alloc(layer, (1,), np.int64)
        if current().pe == 0:
            layer.put(flag, SEVEN, 1)  # counted op 1: the crash site
            raise AssertionError("PE 0 should have crashed in the put")
        yield WaitStep(layer, flag, "eq", 7)

    report = str(_deadlock(job, body))
    assert job.failed.failed_pes() == (0,)
    assert "1 parked PE(s) [1]; failed PE(s): [0]" in report
    assert "  PE 1 blocked in wait_until(offset=" in report
