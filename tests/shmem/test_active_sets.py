"""OpenSHMEM active-set collectives (PE_start, logPE_stride, PE_size)."""

import numpy as np
import pytest

from repro import shmem
from repro.runtime.context import current
from repro.runtime.groups import active_set_pes
from repro.runtime.launcher import Job
from repro.sim.faults import FaultPlan
from repro.trace.events import attach as trace_attach


def test_active_set_expansion():
    assert active_set_pes(0, 0, 4, 8) == (0, 1, 2, 3)
    assert active_set_pes(1, 1, 3, 8) == (1, 3, 5)
    assert active_set_pes(0, 2, 2, 8) == (0, 4)
    with pytest.raises(ValueError):
        active_set_pes(0, 0, 0, 8)
    with pytest.raises(ValueError):
        active_set_pes(4, 1, 4, 8)  # escapes the job
    with pytest.raises(ValueError):
        active_set_pes(0, -1, 2, 8)


def test_subset_barrier_only_synchronizes_members():
    def kernel():
        from repro.runtime.context import current

        me = shmem.my_pe()
        if me % 2 == 0:
            current().clock.advance(100.0 * (me + 1))
            shmem.barrier(0, 1, 3)  # PEs 0, 2, 4
            return current().clock.now
        return current().clock.now

    out = shmem.launch(kernel, num_pes=6)
    # members leave with a common (max-based) time, non-members untouched
    members = [out[0], out[2], out[4]]
    assert len({round(t, 6) for t in members}) == 1
    assert members[0] >= 500.0
    assert out[1] < 1.0 and out[3] < 1.0


def test_subset_barrier_is_the_one_barrier_body():
    """An active-set barrier is ``team_barrier``: a fault plan's barrier
    latency fires in it, and a profile-mode tracer (no sync capture)
    records it like every other barrier."""

    def kernel():
        if shmem.my_pe() < 2:
            shmem.barrier(0, 0, 2)
        return current().clock.now

    def run(faults):
        job = Job(3, heap_bytes=1 << 15, faults=faults)
        shmem.attach(job)
        tracer = trace_attach(job)
        return job.run(kernel), tracer.count("barrier")

    clean, traced = run(None)
    slow, traced_slow = run(FaultPlan(seed=4, latency_rate=1.0, latency_us=40.0))
    assert traced == traced_slow == 2  # one record per member
    assert slow[0] > clean[0] and slow[1] > clean[1]
    assert slow[2] == clean[2]  # the non-member drew nothing


def test_subset_reduction():
    def kernel():
        me = shmem.my_pe()
        src = shmem.shmalloc_array((2,), np.int64)
        dst = shmem.shmalloc_array((2,), np.int64)
        src.local[:] = [me, me * me]
        shmem.barrier_all()
        if me % 2 == 1:  # PEs 1, 3, 5
            shmem.sum_to_all_set(dst, src, 2, pe_start=1, log_pe_stride=1, pe_size=3)
        shmem.barrier_all()
        return list(dst.local)

    out = shmem.launch(kernel, num_pes=6)
    assert out[1] == [1 + 3 + 5, 1 + 9 + 25]
    assert out[3] == out[1] and out[5] == out[1]
    assert out[0] == [0, 0]  # non-members untouched


def test_subset_max():
    def kernel():
        me = shmem.my_pe()
        src = shmem.shmalloc_array((1,), np.int64)
        dst = shmem.shmalloc_array((1,), np.int64)
        src.local[0] = (me + 1) * 7
        shmem.barrier_all()
        if me < 2:
            shmem.max_to_all_set(dst, src, 1, pe_start=0, log_pe_stride=0, pe_size=2)
        shmem.barrier_all()
        return int(dst.local[0])

    out = shmem.launch(kernel, num_pes=4)
    assert out[0] == out[1] == 14
    assert out[2] == 0


def test_nonmember_barrier_rejected():
    def kernel():
        me = shmem.my_pe()
        if me == 3:
            shmem.barrier(0, 0, 2)  # PEs 0,1 only
        else:
            shmem.barrier(0, 0, 2) if me < 2 else None

    with pytest.raises(RuntimeError, match="does not belong"):
        shmem.launch(kernel, num_pes=4)


def test_disjoint_sets_interleave():
    """Two disjoint active sets barrier independently and repeatedly."""

    def kernel():
        me = shmem.my_pe()
        set_args = (0, 0, 2) if me < 2 else (2, 0, 2)
        for _ in range(5):
            shmem.barrier(*set_args)
        return True

    assert all(shmem.launch(kernel, num_pes=4))
