"""EventEngine wake-ups: every PEMemory mutation path reaches a parked
waiter through the dirty list, polls stay proportional to the traffic
that can change a waiter's value, and crashes fail or resume waiters."""

import re

import numpy as np
import pytest

from repro.collectives import team_reduce_step
from repro.engine import DelayStep, Done, WaitStep
from repro.engine import DeadlockError
from repro.engine.steps import BarrierStep, alloc_array_step
from repro.runtime.context import current
from repro.runtime.failures import ImageFailedError
from repro.runtime.launcher import Job, JobFailure
from repro.shmem import attach as shmem_attach
from repro.sim.faults import FaultPlan

HEAP = 1 << 15
STAMP = 42.0  # virtual completion time of the waking write
SEVEN = np.array([7], dtype=np.int64)

#: name -> deposit an int64 7 at byte offset ``off`` of ``mem``.
MUTATIONS = {
    "write": lambda mem, off: mem.write(off, SEVEN, STAMP),
    "write_at": lambda mem, off: mem.write_at(np.array([off]), 8, SEVEN, STAMP),
    "write_strided": lambda mem, off: mem.write_strided(off, 8, 8, SEVEN, STAMP),
    "scatter_at": lambda mem, off: mem.scatter_at(
        np.array([off // 8]), SEVEN, STAMP, elem_size=8, lo=off, hi=off + 8
    ),
    "atomic_rmw_timed": lambda mem, off: mem.atomic_rmw_timed(
        off, np.int64, lambda old: old + 7, STAMP
    ),
    "accumulate": lambda mem, off: mem.accumulate(off, np.int64, SEVEN, np.add, STAMP),
}


def _wake_once(engine, mutate, word):
    """PE 1 waits for its flag to become 7; PE 0 deposits the 7 straight
    into PE 1's memory through one mutation path."""
    job = Job(2, heap_bytes=HEAP, engine=engine)
    layer = shmem_attach(job)

    def body():
        ctx = current()

        def ready(flag):
            def deposit():
                mutate(job.memories[1], flag.byte_offset)
                return Done(None)

            if ctx.pe == 0:
                # Delay in virtual time so that, on the event heap, PE 1
                # has parked before the write lands.
                return DelayStep(5.0, deposit)
            t_parked = ctx.clock.now
            return WaitStep(
                layer, flag, "eq", 7,
                lambda: Done((int(flag.local[0]), t_parked, ctx.clock.now)),
                word=word,
            )

        return alloc_array_step(layer, (1,), np.int64, ready)

    return job, job.run(body)


@pytest.mark.parametrize("word", [False, True])
@pytest.mark.parametrize("path", sorted(MUTATIONS))
def test_every_mutation_path_wakes_a_parked_waiter(path, word):
    job, results = _wake_once("event", MUTATIONS[path], word)
    value, t_parked, t_woken = results[1]
    assert value == 7
    # word=True merges the word's *atomic* timestamp, which only the
    # atomic path publishes; everything else merges last_write_time.
    stamped = not word or path == "atomic_rmw_timed"
    assert t_woken == (STAMP if stamped else t_parked)
    stats = job.engine.stats
    # The alloc barrier parks PE 0 once; the value wait parks PE 1 once.
    assert (stats["parks"], stats["wakes"], stats["dirty"]) == (2, 2, 1)
    assert stats["polls"] == 3  # the probes that parked them + one re-poll
    # Same values as a thread blocked in wait_until.
    assert _wake_once("threaded", MUTATIONS[path], word)[1] == results


def _allreduce_stats(num_pes, algo):
    job = Job(num_pes, heap_bytes=HEAP, engine="event")
    layer = shmem_attach(job)
    members = tuple(range(num_pes))

    def body():
        data = np.array([current().pe], dtype=np.int64)
        return team_reduce_step(
            layer, members, data, np.add,
            lambda res: Done(int(np.asarray(res)[0])), algorithm=algo,
        )

    assert job.run(body) == [sum(members)] * num_pes
    return job.engine.stats


@pytest.mark.parametrize("algo", ["binomial", "recdbl"])
def test_polls_track_notifications_not_pe_count(algo):
    """Exact and wall-clock-free: a parked waiter is re-polled only when
    its own memory was written, so polls per member follow the
    algorithm's rounds (log2: 9/6 = 1.5x from 64 to 512 PEs for recdbl),
    not the number of parked PEs (8x)."""
    per_member = {}
    for num_pes in (64, 512):
        stats = _allreduce_stats(num_pes, algo)
        assert stats["parks"] > 0
        assert stats["wakes"] == stats["parks"]
        assert stats["polls"] <= stats["parks"] + stats["dirty"]
        assert stats["heap_pushes"] == stats["heap_pops"] - num_pes
        per_member[num_pes] = stats["polls"] / num_pes
    assert per_member[512] <= 1.5 * per_member[64]


def _crash_job(hook_writes):
    """PE 0 crashes on its first put.  PE 1 waits on a flag with
    ``target=0``; PE 2 waits on its own flag with no target."""
    job = Job(3, heap_bytes=HEAP, engine="event", survivable=True,
              faults=FaultPlan(seed=1, crash_at={0: 1}))
    layer = shmem_attach(job)
    flags = []
    if hook_writes:
        # A failure hook (lock recovery, say) that satisfies the waits.
        job.failure_hooks.append(lambda dead: [
            job.memories[pe].write(flags[0].byte_offset, SEVEN, STAMP)
            for pe in (1, 2)
        ])

    def body():
        ctx = current()

        def ready(flag):
            def doomed_put():
                layer.put(flag, SEVEN, 1)  # counted op 1: the crash site
                raise AssertionError("PE 0 should have crashed in the put")

            flags.append(flag)
            if ctx.pe == 0:
                return DelayStep(5.0, doomed_put)
            return WaitStep(
                layer, flag, "eq", 7,
                lambda: Done((int(flag.local[0]), ctx.clock.now)),
                target=0 if ctx.pe == 1 else -1,
            )

        return alloc_array_step(layer, (1,), np.int64, ready)

    return job, body


def test_waiter_on_crashed_target_raises_image_failed():
    job, body = _crash_job(hook_writes=False)
    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    (pe, exc), = exc_info.value.failures
    assert pe == 1
    assert isinstance(exc, ImageFailedError)
    assert (exc.op, exc.target) == ("wait", 0)
    assert job.failed.failed_pes() == (0,)


def test_waiters_satisfied_by_failure_hook_resume_normally():
    job, body = _crash_job(hook_writes=True)
    results = job.run(body)
    assert results == [None, (7, STAMP), (7, STAMP)]
    assert job.failed.failed_pes() == (0,)
    assert job.engine.stats["parks"] == 4  # 2 at the alloc barrier, 2 waits


def test_deadlock_report_names_what_each_pe_waits_on():
    job = Job(3, heap_bytes=HEAP, engine="event")
    layer = shmem_attach(job)

    def body():
        ctx = current()

        def ready(flag):
            if ctx.pe == 0:
                return Done(None)
            if ctx.pe == 1:
                return BarrierStep(layer, lambda: Done(None))
            return WaitStep(layer, flag, "ge", 3, lambda: Done(None), target=0)

        return alloc_array_step(layer, (1,), np.int64, ready)

    with pytest.raises(DeadlockError) as exc_info:
        job.run(body)
    head, *lines = str(exc_info.value).split("\n")
    assert "PE(s) [1, 2]" in head
    # One line per parked PE, in the cooperative DeadlockError format.
    assert lines[0] == (
        f"  PE 1 blocked in barrier(sync_id={job.barrier.sync_id}, gen=1)"
    )
    assert re.fullmatch(
        r"  PE 2 blocked in wait_until\(offset=\d+, ge 3, target=0\)", lines[1]
    )
