"""CooperativeEngine wake-ups: a parked PE is re-polled only when its
wake source changes — its own memory (every mutation path, delivered
puts, ``quiet`` drains, remote atomics), its barrier's generation, or a
PE failure — while a bare ``block_until`` keeps being polled; polls stay
proportional to that traffic, not to the number of parked PEs."""

import threading

import numpy as np
import pytest

from repro.explore import Scheduler, Strategy
from repro.runtime.context import current
from repro.runtime.failures import ImageFailedError
from repro.runtime.launcher import Job, JobFailure
from repro.shmem import attach as shmem_attach
from repro.sim.faults import FaultPlan
from tests.engine.test_event_wakeups import HEAP, MUTATIONS, SEVEN, STAMP
from tests.explore.test_golden_traces import FIG8_CELLS, run_fig8


class _HighestPE(Strategy):
    """Run the highest-numbered runnable PE; deliver a put only when no
    PE can run.  PE 1 therefore parks before PE 0 makes its move."""

    name = "highest"

    def choose(self, step, choices):
        runnable = [t for t in choices if t[0] == "p"]
        return runnable[-1] if runnable else choices[0]


def _cooperative():
    return Scheduler(_HighestPE())


def _wake_once(engine, wake, word=False):
    """PE 1 waits for its flag to become 7; PE 0 makes it 7 through
    ``wake(layer, job, flag)``."""
    job = Job(2, heap_bytes=HEAP, engine=engine)
    layer = shmem_attach(job)

    def body():
        ctx = current()
        flag = layer.alloc_array((1,), np.int64)
        if ctx.pe == 0:
            wake(layer, job, flag)
            return None
        t_parked = ctx.clock.now
        layer.wait_until(flag, "eq", 7, word=word)
        return int(flag.local[0]), t_parked, ctx.clock.now

    return job, job.run(body)


def _assert_value_wake(stats):
    assert stats["dirty"] == 1  # the one write that landed while parked
    assert stats["wakes"] == stats["parks"]
    assert stats["polls"] <= stats["parks"] + stats["dirty"]


@pytest.mark.parametrize("word", [False, True])
@pytest.mark.parametrize("path", sorted(MUTATIONS))
def test_every_mutation_path_wakes_a_parked_waiter(path, word):
    def wake(layer, job, flag):
        job.engine.decision(current(), "mutate", 1)  # lets PE 1 park first
        MUTATIONS[path](job.memories[1], flag.byte_offset)

    job, results = _wake_once(_cooperative(), wake, word)
    value, t_parked, t_woken = results[1]
    assert value == 7
    stamped = not word or path == "atomic_rmw_timed"
    assert t_woken == (STAMP if stamped else t_parked)
    assert isinstance(job.memories[1]._cond, threading.Condition)
    _assert_value_wake(job.engine.stats)
    # Same values as a thread blocked in wait_until.
    assert _wake_once("threaded", wake, word)[1] == results


LAYER_WAKES = {
    # Delivered as an ``n0`` token once PE 0 has nothing left to run.
    "delivered_put": lambda layer, job, flag: layer.put(flag, SEVEN, 1),
    # Delivered by PE 0's own quiet, before any ``n0`` token is chosen.
    "quiet_drain": lambda layer, job, flag: (
        layer.put(flag, SEVEN, 1), layer.quiet()
    ),
    "remote_atomic": lambda layer, job, flag: layer.atomic(flag, 1, 0, "set", 7),
}


@pytest.mark.parametrize("path", sorted(LAYER_WAKES))
def test_layer_paths_wake_a_parked_waiter(path):
    job, results = _wake_once(_cooperative(), LAYER_WAKES[path])
    assert results[1][0] == 7
    stats = job.engine.stats
    _assert_value_wake(stats)
    assert ("n0" in job.engine.trace) == (path == "delivered_put")
    assert stats["deliveries"] == (0 if path == "remote_atomic" else 1)
    assert _wake_once("threaded", LAYER_WAKES[path])[1] == results


def test_barrier_release_wakes_parked_arrivers():
    rounds, n = 3, 3

    def run(engine):
        job = Job(n, heap_bytes=HEAP, engine=engine)
        layer = shmem_attach(job)

        def body():
            for _ in range(rounds):
                layer.barrier_all()
            return current().clock.now

        return job, job.run(body)

    job, results = run(_cooperative())
    assert results == run("threaded")[1]
    stats = job.engine.stats
    # Every non-final arriver parks and is woken by the generation
    # change alone: no notification, no re-poll.
    assert stats["parks"] == stats["wakes"] == rounds * (n - 1)
    assert stats["polls"] == stats["parks"]
    assert stats["dirty"] == 0
    assert 0 < stats["switches"] <= stats["steps"]


def test_target_death_fails_a_parked_wait():
    job = Job(2, heap_bytes=HEAP, engine=_cooperative(), survivable=True,
              faults=FaultPlan(seed=1, crash_at={0: 1}))
    layer = shmem_attach(job)

    def body():
        flag = layer.alloc_array((1,), np.int64)
        if current().pe == 0:
            layer.put(flag, SEVEN, 1)  # counted op 1: the crash site
            raise AssertionError("PE 0 should have crashed in the put")
        layer.wait_until(flag, "eq", 7, target=0)

    with pytest.raises(JobFailure) as exc_info:
        job.run(body)
    (pe, exc), = exc_info.value.failures
    assert pe == 1
    assert isinstance(exc, ImageFailedError)
    assert (exc.op, exc.target) == ("wait", 0)
    assert job.failed.failed_pes() == (0,)
    # PE 1 was parked when PE 0 died: the failure marked it dirty.
    assert job.engine.stats["dirty"] == 1


def test_bare_block_until_is_polled_every_step():
    box = []
    job = Job(2, heap_bytes=HEAP, engine=_cooperative())

    def body():
        ctx = current()
        if ctx.pe == 1:
            job.engine.block_until(1, lambda: bool(box), "box")
            return box[0], len(job.engine.trace)
        box.append("set")  # no memory write, no notification
        job.engine.decision(ctx, "after-set", -1)
        return "done", len(job.engine.trace)

    (_, pe0_steps), (value, pe1_steps) = job.run(body)
    assert value == "set"
    # PE 1 was re-polled at PE 0's decision point and ran before PE 0
    # could finish.
    assert pe1_steps < pe0_steps


def test_polls_per_step_do_not_grow_with_parked_pes():
    """Exact and wall-clock-free: with every waiter re-polled each step
    the ratio would be the number of parked PEs (about 6x larger at 48
    images than at 8)."""
    per_step = {}
    for images, acquires in FIG8_CELLS:
        sched, _ = run_fig8(images, acquires)
        stats = sched.stats
        assert stats["parks"] > 0
        assert stats["wakes"] == stats["parks"]
        assert stats["polls"] <= stats["parks"] + stats["dirty"]
        per_step[images] = stats["polls"] / stats["steps"]
    assert per_step[48] <= 1.1 * per_step[8]
