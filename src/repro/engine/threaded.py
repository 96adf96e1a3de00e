"""The thread-per-PE engine (today's default behaviour, pooled).

Each PE body runs on its own OS thread (leased from the shared
:class:`~repro.engine.pool.WorkerPool`); blocking primitives park on
condition variables exactly as before, guarded by the job's wall-clock
:class:`~repro.sim.faults.Watchdog`.  Virtual times, trace contents,
and failure semantics are unchanged from the pre-engine launcher.
"""

from __future__ import annotations

import threading
import time
import typing

from repro.engine.base import Engine
from repro.engine.pool import shared_pool
from repro.engine.steps import drive
from repro.runtime.context import PEContext, set_current
from repro.sim.faults import InjectedCrash

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import Job


class ThreadRunMixin:
    """Shared ``run`` implementation for thread-backed engines.

    Subclass hooks: :meth:`_task_start` / :meth:`_task_exit` bracket
    each PE body on its worker thread; :meth:`_collect_failures` may
    append engine-detected failures after all bodies exit.
    """

    def _task_start(self, pe: int) -> None:
        pass

    def _task_exit(self, pe: int) -> None:
        pass

    def _collect_failures(self, failures: list) -> None:
        pass

    def run(self, job: "Job", fn, args, kwargs) -> list:
        from repro.runtime.launcher import JobAborted, JobFailure

        kwargs = kwargs or {}
        results: list = [None] * job.num_pes
        failures: list[tuple[int, BaseException]] = []
        failures_lock = threading.Lock()
        done = threading.Event()
        remaining = [job.num_pes]

        def make_pe_main(pe: int):
            def pe_main() -> None:
                thread = threading.current_thread()
                saved_name = thread.name
                thread.name = f"pe-{pe}"
                ctx = PEContext(job, pe)
                set_current(ctx)
                try:
                    self._task_start(pe)
                    results[pe] = drive(fn(*args, **kwargs))
                except JobAborted:
                    pass  # secondary failure; the root cause is recorded
                except BaseException as exc:  # noqa: BLE001 - must not leak
                    if job.survivable and isinstance(exc, InjectedCrash):
                        # Survivable mode: the crash makes this PE a
                        # failed image (registry mark, lock recovery,
                        # barrier excision) instead of aborting the job.
                        try:
                            self.on_pe_failed(ctx, exc)
                        except BaseException as handler_exc:  # noqa: BLE001
                            with failures_lock:
                                failures.append((pe, handler_exc))
                            job.abort()
                    else:
                        with failures_lock:
                            failures.append((pe, exc))
                        job.abort()
                finally:
                    self._task_exit(pe)
                    set_current(None)
                    thread.name = saved_name
                    with failures_lock:
                        remaining[0] -= 1
                        if remaining[0] == 0:
                            done.set()

            return pe_main

        pool = shared_pool()
        for pe in range(job.num_pes):
            pool.submit(make_pe_main(pe))
        done.wait()
        self._collect_failures(failures)
        if failures:
            failure = JobFailure(failures)
            raise failure from failure.failures[0][1]
        return results


class ThreadedEngine(ThreadRunMixin, Engine):
    """Free-running threads; no schedule control, eager delivery."""

    name = "threaded"
    eager_delivery = True

    # -- schedule hooks: free-running threads decide nothing -----------
    def spin_yield(self, ctx, op: str, target: int) -> None:
        # Let the lock holder's thread make progress before retrying.
        time.sleep(0.0002)

    # -- blocking hooks -------------------------------------------------
    def barrier_wait(self, ctx, barrier, gen: int) -> None:
        from repro.runtime.launcher import JobAborted

        wd = getattr(ctx.job, "watchdog", None)
        guard = (
            wd.watch(ctx.pe, f"barrier(sync_id={barrier.sync_id}, gen={gen})")
            if wd is not None
            else None
        )
        cond = barrier._cond
        with cond:
            try:
                if guard is not None:
                    guard.__enter__()
                while barrier._generation == gen:
                    if barrier._aborted():
                        raise JobAborted("job aborted while in barrier")
                    if guard is not None:
                        guard.poll()
                    cond.wait(timeout=0.05)
            finally:
                if guard is not None:
                    guard.__exit__(None, None, None)

    def wait_value(self, ctx, mem, predicate, what: str,
                   target: int = -1) -> float:
        job = ctx.job
        wd = job.watchdog
        if wd is None:
            return mem.wait_until(predicate, aborted=job.aborted)
        with wd.watch(ctx.pe, what, target, ctx) as guard:
            return mem.wait_until(predicate, aborted=job.aborted, watch=guard.poll)
