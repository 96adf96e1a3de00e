"""SPMD launcher: contexts, results, failure propagation."""

import numpy as np
import pytest

from repro.runtime.context import NotInSpmdRegion, current, current_or_none
from repro.runtime.launcher import Job, run_spmd


def test_results_indexed_by_pe():
    out = run_spmd(lambda: current().pe * 10, num_pes=5)
    assert out == [0, 10, 20, 30, 40]


def test_contexts_are_thread_local():
    def kernel():
        ctx = current()
        assert ctx.job.num_pes == 3
        return (ctx.pe, ctx.clock.now)

    out = run_spmd(kernel, num_pes=3)
    assert [pe for pe, _ in out] == [0, 1, 2]


def test_no_context_outside_spmd():
    assert current_or_none() is None
    with pytest.raises(NotInSpmdRegion):
        current()


def test_context_cleared_after_run():
    run_spmd(lambda: None, num_pes=2)
    assert current_or_none() is None


def test_args_and_kwargs_forwarded():
    def kernel(a, b=0):
        return a + b + current().pe

    out = run_spmd(kernel, num_pes=2, args=(100,), kwargs={"b": 10})
    assert out == [110, 111]


def test_failure_propagates_with_pe_id():
    def kernel():
        if current().pe == 2:
            raise KeyError("broken")

    with pytest.raises(RuntimeError, match="PE 2 failed"):
        run_spmd(kernel, num_pes=4)


def test_failure_during_barrier_does_not_deadlock():
    def kernel():
        job = current().job
        if current().pe == 0:
            raise ValueError("early death")
        job.barrier.wait(current())

    with pytest.raises(RuntimeError, match="PE 0 failed"):
        run_spmd(kernel, num_pes=4)


def test_first_failing_pe_reported():
    def kernel():
        raise ValueError(f"pe {current().pe}")

    with pytest.raises(RuntimeError, match="PE 0 failed"):
        run_spmd(kernel, num_pes=3)


def test_job_validation():
    with pytest.raises(ValueError):
        Job(0)
    with pytest.raises(ValueError):
        Job(5000)


def test_memories_sized_by_heap():
    job = Job(2, heap_bytes=1 << 16)
    assert all(m.nbytes == 1 << 16 for m in job.memories)
    assert job.symmetric_allocator.capacity == 1 << 16


def test_get_layer_unknown():
    job = Job(1)
    with pytest.raises(RuntimeError, match="not attached"):
        job.get_layer("shmem")


def test_machine_object_accepted(test_machine):
    job = Job(4, test_machine)
    assert job.topology.num_nodes == 2


def test_memories_are_independent():
    def kernel():
        ctx = current()
        mem = ctx.job.memories[ctx.pe]
        mem.write(0, np.array([ctx.pe + 1], dtype=np.int64), timestamp=0.0)
        return None

    job = Job(3)
    job.run(kernel)
    vals = [int(m.read_scalar(0, np.int64)) for m in job.memories]
    assert vals == [1, 2, 3]


# ---------------------------------------------------------------------------
# run_spmd passthroughs (regression: faults/watchdog_s were silently
# dropped before they were forwarded to Job)
# ---------------------------------------------------------------------------


def test_run_spmd_forwards_faults_and_watchdog():
    from repro.sim.faults import FaultPlan

    def kernel():
        job = current().job
        return (job.faults is not None, job.watchdog.deadline_s)

    out = run_spmd(
        kernel, num_pes=2,
        faults=FaultPlan(seed=3, transient_rate=0.1),
        watchdog_s=7.5,
    )
    assert out == [(True, 7.5), (True, 7.5)]


def test_run_spmd_forwards_scheduler():
    from repro.explore import RandomWalk, Scheduler

    sched = Scheduler(RandomWalk(0))

    def kernel():
        return current().job.engine is sched

    assert run_spmd(kernel, num_pes=2) == [False, False]
    sched2 = Scheduler(RandomWalk(0))

    def kernel2():
        return current().job.engine is sched2

    assert run_spmd(kernel2, num_pes=2, engine=sched2) == [True, True]


# ---------------------------------------------------------------------------
# Boundary validation and reuse
# ---------------------------------------------------------------------------


def test_single_pe_job_runs():
    def kernel():
        current().job.barrier.wait(current())  # trivially releases
        return current().pe

    assert run_spmd(kernel, num_pes=1) == [0]


def test_max_pes_boundary():
    from repro.engine import Engine

    job = Job(Engine.max_pes, heap_bytes=4096)
    assert job.num_pes == Engine.max_pes
    with pytest.raises(ValueError, match=r"num_pes must be in"):
        Job(Engine.max_pes + 1, heap_bytes=4096)
    with pytest.raises(ValueError, match=r"num_pes must be in"):
        Job(0)


def test_every_pe_failing_is_fully_reported():
    from repro.runtime.launcher import JobFailure

    def kernel():
        raise RuntimeError(f"boom {current().pe}")

    with pytest.raises(JobFailure) as ei:
        run_spmd(kernel, num_pes=3)
    assert [pe for pe, _ in ei.value.failures] == [0, 1, 2]
    assert all(str(e) == f"boom {pe}" for pe, e in ei.value.failures)


def test_job_run_reuse():
    job = Job(2)
    first = job.run(lambda: current().pe + 1)
    second = job.run(lambda: current().pe * 10)
    assert first == [1, 2]
    assert second == [0, 10]
