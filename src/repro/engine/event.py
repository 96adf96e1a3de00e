"""The discrete-event engine: no OS threads, a virtual-time heap.

PE bodies are step programs (:mod:`repro.engine.steps`), usually
generators yielding a :class:`Step` wherever a thread engine would
park.  All PEs run on one OS thread; the runnable PE with the smallest
``(virtual time, pe)`` key is popped off a binary heap, O(log n) per
decision.  Each step's handler calls the *same* layer primitives the
blocking drivers run inline (``_barrier_arrive``/``_barrier_depart``,
the ``wait_until`` probe and merge, ``clock.advance``), so virtual
times and trace digests are bit-identical to theirs by construction.

Parked PEs live in the :class:`~repro.engine.sched.ParkCore` shared
with the cooperative engine.  A barrier's releasing arrival departs
first, then the parked arrivers in arrival order; after each event the
dirty value waiters are re-polled.  A raising PE aborts the job unless
it is a survivable crash, whose failure wake-up re-dispatches each
waiter on the dead PE.  An inline blocking primitive raises
:class:`~repro.engine.base.WouldBlock`: express it as a step instead.
"""

from __future__ import annotations

import heapq
import typing
from types import GeneratorType

from repro.engine.base import Engine, WouldBlock
from repro.engine.sched import ParkCore, value_or_failed
from repro.engine.steps import BarrierStep, DelayStep, Done, Step, WaitStep, as_steps
from repro.runtime.context import PEContext, set_current
from repro.runtime.failures import raise_image_failed
from repro.sim.faults import InjectedCrash

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import Job


def _merge(ctx, mem, off: int, word: bool) -> None:
    """A satisfied wait's clock merge, as ``wait_until`` performs it."""
    ctx.clock.merge(mem.word_time(off) if word else mem.last_write_time)


class EventEngine(Engine):
    """Single-threaded discrete-event execution over a virtual-time heap."""

    name = "event"
    eager_delivery = True
    max_pes = 16384
    #: One OS thread, and arrivers park on the heap: no barrier lock.
    barrier_cond = None

    def __init__(self) -> None:
        super().__init__()
        #: Counters of the last :meth:`run` (see docs/API.md).
        self.stats: dict[str, int] = {}

    def make_memories(self, num_pes: int, heap_bytes: int) -> list:
        self._core = ParkCore(num_pes)
        return self._core.memories(heap_bytes)

    # -- schedule hooks -------------------------------------------------
    def decision(self, ctx, op: str, target: int) -> None:
        pass  # eager execution between steps; nothing to decide

    def spin_yield(self, ctx, op: str, target: int) -> None:
        raise WouldBlock(f"EventEngine cannot spin inline on {op!r}; "
                         f"return a DelayStep and retry in the continuation")

    # -- blocking hooks (inline forms are errors here) ------------------
    def barrier_wait(self, ctx, barrier, gen: int) -> None:
        raise WouldBlock("EventEngine cannot block inline in a barrier; return a "
                         "BarrierStep (only the releasing arrival may call barrier_all "
                         "directly, and which PE releases is schedule-dependent)")

    def wait_value(self, ctx, mem, predicate, what: str,
                   target: int = -1) -> float:
        if predicate():
            return mem.last_write_time
        raise WouldBlock(f"EventEngine cannot block inline on {what}; return a WaitStep")

    # ------------------------------------------------------------------
    def run(self, job: "Job", fn, args, kwargs) -> list:
        from repro.runtime.launcher import JobAborted, JobFailure

        kwargs = kwargs or {}
        n = job.num_pes
        results: list = [None] * n
        failures: list[tuple[int, BaseException]] = []
        ctxs = [PEContext(job, pe) for pe in range(n)]
        heap: list[tuple[float, int]] = [(0.0, pe) for pe in range(n)]
        push, pop = heapq.heappush, heapq.heappop
        pending: list = [lambda: fn(*args, **kwargs)] * n  # each heap entry's thunk
        core = self._core
        dirty, park_barrier = core.dirty, core.park_barrier
        failed = job.failed.is_failed if job.survivable else None
        pops = 0

        def release(bar, gen: int) -> None:
            """Depart and reschedule everyone parked in episode ``(bar, gen)``.
            The depart path takes each departer's context as an argument
            and reads no thread-local one, so the releaser's stays set."""
            for p_pe, p_ctx, p_layer, p_t_start, p_cont in core.release((bar, gen)):
                p_layer._barrier_depart(p_ctx, p_t_start, gen, bar)
                pending[p_pe] = p_cont
                push(heap, (p_ctx.clock.now, p_pe))

        try:
            while heap:
                _, pe = pop(heap)
                pops += 1
                ctx = ctxs[pe]
                set_current(ctx)
                try:
                    # Step routing stays inside the guard: steps run layer
                    # code that can fail like the body itself.
                    step = pending[pe]()
                    while True:
                        cls = type(step)
                        if cls is BarrierStep:
                            layer, bar = step.layer, step.barrier
                            t_start, gen, released = layer._barrier_arrive(
                                ctx, bar, step.npes
                            )
                            if bar is None:
                                bar = layer.job.barrier
                            if released:
                                layer._barrier_depart(ctx, t_start, gen, bar)
                                pending[pe] = step.cont
                                push(heap, (ctx.clock.now, pe))
                                release(bar, gen)
                            else:
                                park_barrier((bar, gen), (pe, ctx, layer, t_start, step.cont))
                        elif cls is WaitStep:
                            mem, predicate, off = step.layer._wait_probe(
                                step.ivar, step.cmp, step.value, step.offset
                            )
                            if predicate():
                                _merge(ctx, mem, off, step.word)
                                step = step.cont()  # continue in this slice
                                continue
                            target = step.target
                            shown = f", target={target}" if target >= 0 else ""
                            what = f"wait_until(offset={off}, {step.cmp} {step.value!r}{shown})"
                            if failed is not None and target >= 0 and failed(target):
                                raise_image_failed(ctx, "wait", target, job.failed, job.tracer)
                            core.park_value(pe, value_or_failed(predicate, failed, target),
                                            what, (ctx, mem, off, step))
                        elif cls is DelayStep:
                            ctx.clock.advance(step.delay_us)
                            pending[pe] = step.cont
                            push(heap, (ctx.clock.now, pe))
                        elif cls is Done:
                            results[pe] = step.value
                        elif isinstance(step, Step):
                            raise TypeError(f"unknown step type {cls.__name__}")
                        elif cls is GeneratorType:
                            step = as_steps(step)
                            continue
                        else:
                            results[pe] = step  # non-steps are final values
                        break
                except JobAborted:
                    continue  # secondary failure; root cause recorded
                except BaseException as exc:  # noqa: BLE001 - collect all
                    if not (job.survivable and isinstance(exc, InjectedCrash)):
                        failures.append((pe, exc))
                        job.abort()
                        continue
                    # Survivable: depart the episodes the excision
                    # released, then the failure wake-up.
                    for bar, gen in self.on_pe_failed(ctx, exc):
                        release(bar, gen)
                    core.fail()
                if dirty:
                    for w_pe, (w_ctx, mem, off, step) in core.wake_dirty():
                        if failed is not None and step.target >= 0 and failed(step.target):
                            # Re-dispatch the step: its probe resumes the
                            # PE if the value arrived, else fails the wait.
                            pending[w_pe] = lambda step=step: step
                        else:
                            _merge(w_ctx, mem, off, step.word)
                            pending[w_pe] = step.cont
                        push(heap, (w_ctx.clock.now, w_pe))
        finally:
            set_current(None)
            # Every push is popped (the loop drains the heap) and a PE
            # holds at most one entry, so pushes and depth are derived.
            self.stats = {"heap_pops": pops, "heap_pushes": pops - n,
                          "heap_max": n, **core.counts()}

        if not job.aborted() and (core.episodes or any(core.values)):
            raise core.deadlock("event heap drained: nothing can release a parked PE",
                                job.failed.failed_pes())
        if failures:
            failure = JobFailure(failures)
            raise failure from failure.failures[0][1]
        return results
