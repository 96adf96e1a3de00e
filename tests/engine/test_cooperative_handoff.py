"""CooperativeEngine hand-off: a switch grants the next PE its turn and
wakes it through its ``Condition`` on the engine lock.  An abort must
wake every PE that awaits its turn, and a turn that is never handed on
must trip the watchdog in the "scheduler wait"."""

import threading
import time

import pytest

from repro.explore import Scheduler, VirtualTimeOrder, spin_hint
from repro.runtime.context import current
from repro.runtime.launcher import JobAborted, JobFailure, run_spmd
from repro.sim.faults import HangError

#: Far below any watchdog deadline these jobs run with.
PROMPT_S = 5.0


def test_abort_while_awaiting_turn_unwinds_every_thread():
    unwound, lock = [], threading.Lock()

    def body():
        ctx = current()
        try:
            ctx.clock.advance(1.0 + ctx.pe)
            spin_hint()  # hands the turn on: every PE is inside the body
            if ctx.pe == 0:
                raise RuntimeError("boom")  # PE 0 runs again first; the others await it
            spin_hint()
        except JobAborted:
            with lock:
                unwound.append(ctx.pe)
            raise

    sched = Scheduler(VirtualTimeOrder())
    t0 = time.monotonic()
    with pytest.raises(JobFailure) as ei:
        run_spmd(body, 4, engine=sched, watchdog_s=60.0)
    assert time.monotonic() - t0 < PROMPT_S
    assert [pe for pe, _ in ei.value.failures] == [0]
    assert sorted(unwound) == [1, 2, 3]
    assert sched.trace == ["p0", "p1", "p2", "p3", "p0"]


def test_stuck_turn_trips_the_watchdog_in_scheduler_wait():
    def body():
        ctx = current()
        if ctx.pe == 0:  # holds the first turn and never reaches a decision point
            while not ctx.job.aborted():
                time.sleep(0.01)
        spin_hint()

    t0 = time.monotonic()
    with pytest.raises(JobFailure) as ei:
        run_spmd(body, 2, engine=Scheduler(VirtualTimeOrder()), watchdog_s=0.3)
    assert time.monotonic() - t0 < PROMPT_S
    cause = ei.value.__cause__
    assert isinstance(cause, HangError)
    assert cause.report.blocked_pes() == (1,)
    assert "scheduler wait" in cause.report.render()
