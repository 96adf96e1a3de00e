"""Execution engines: how a job's PEs actually run.

One :class:`Engine` instance per :class:`~repro.runtime.launcher.Job`
owns scheduling decisions, remote-deposit delivery, blocking, the fault
pipeline, and the SPMD driver loop.  See :mod:`repro.engine.base` for
the interface, and:

* :class:`ThreadedEngine` — one pooled OS thread per PE (default);
* :class:`CooperativeEngine` — the deterministic scheduler: one PE
  runs at a time, a strategy picks who is next
  (``repro.explore.Scheduler`` is this class; ``"vt"`` builds one
  under the seedless virtual-time order);
* :class:`EventEngine` — a single-threaded virtual-time event heap
  driving step programs, written as generators
  (:mod:`repro.engine.steps`); weak-scales to thousands of PEs.

The two deterministic engines park PEs in one core,
:mod:`repro.engine.sched`: one wait model, one counter set, and one
bounded :class:`DeadlockError` report.

Select with ``Job(..., engine="event")`` / ``run_spmd(..., engine=...)``
or by passing an instance (``engine=Scheduler(RandomWalk(7))``).
"""

from repro.engine.base import Engine, EngineError, WouldBlock, resolve_engine
from repro.engine.cooperative import CooperativeEngine
from repro.engine.event import EventEngine
from repro.engine.pool import WorkerPool, shared_pool
from repro.engine.sched import DeadlockError
from repro.engine.steps import (
    BarrierStep,
    DelayStep,
    Done,
    Step,
    WaitStep,
    alloc,
    alloc_array_step,
    as_steps,
    drive,
)
from repro.engine.threaded import ThreadedEngine

__all__ = [
    "BarrierStep",
    "CooperativeEngine",
    "DeadlockError",
    "DelayStep",
    "Done",
    "Engine",
    "EngineError",
    "EventEngine",
    "Step",
    "ThreadedEngine",
    "WaitStep",
    "WorkerPool",
    "WouldBlock",
    "alloc",
    "alloc_array_step",
    "as_steps",
    "drive",
    "resolve_engine",
    "shared_pool",
]
