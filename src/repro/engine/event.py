"""The discrete-event engine: no OS threads, a virtual-time heap.

PE bodies are step programs (:mod:`repro.engine.steps`), usually
generators: eager Python between blocking points, yielding a
:class:`Step` wherever a thread engine would park.  The engine trampolines all PEs on one OS thread,
dispatching the runnable PE with the smallest ``(virtual time, pe)``
key off a binary heap — O(log n) per decision, so weak-scaling sweeps
at thousands of PEs cost thousands of Python frames, not thousands of
thread stacks.

Equivalence with the threaded engine is structural, not coincidental:
every step's handler calls the *same* layer primitives the blocking
driver runs inline (``_barrier_arrive``/``_barrier_depart``,
``wait_until``'s probe + ``last_write_time`` merge, ``clock.advance``),
so the float arithmetic — and therefore virtual times and trace
digests — is bit-identical on any program both engines can run.

Blocking semantics:

* **barrier** — arrivers park in a per-barrier list (a barrier has one
  open generation at a time); the releasing arrival departs itself,
  then departs and reschedules every parked PE at the common release
  time (ties broken by PE rank).
* **value wait** — a PE parks only on its own memory, one slot per PE.
  The engine's memories swap the condition variable for a
  :class:`_NotifySink`: every mutation path ends in ``notify_all()``,
  which here lists the owning PE as *dirty* if it is parked, and after
  each event only dirty PEs are re-polled — a wait costs the same
  however many PEs exist.  No lock is needed: all PEs share one OS
  thread and a slice never yields inside a memory operation.
* **failure** — a raising PE is recorded and the job aborts; already
  parked PEs whose barrier never releases are dropped exactly as a
  blocked thread observing the abort flag would be, and the engine
  raises the same :class:`~repro.runtime.launcher.JobFailure`.
* **deadlock** — an empty heap with parked PEs and no abort is reported
  as :class:`EventDeadlock` naming every parked PE (the event-engine
  analogue of the wall-clock watchdog, which never needs to arm here).

Calling an inline blocking primitive (``barrier_all`` as a non-final
arriver, ``wait_until`` on an unsatisfied value, a lock spin loop)
raises :class:`~repro.engine.base.WouldBlock` — express those points as
steps instead.
"""

from __future__ import annotations

import heapq
import typing
from types import GeneratorType

from repro.engine.base import Engine, EngineError, WouldBlock
from repro.engine.steps import BarrierStep, DelayStep, Done, Step, WaitStep, as_steps
from repro.runtime.context import PEContext, set_current
from repro.runtime.failures import raise_image_failed
from repro.runtime.memory import PEMemory
from repro.sim.faults import InjectedCrash

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import Job


class EventDeadlock(EngineError):
    """Every runnable PE is parked and no release can ever come."""


class _NotifySink:
    """A PE memory's condition variable on one OS thread: nothing can
    interleave with a ``with mem._cond:`` block, so enter/exit do
    nothing, and ``notify_all()`` lists the owning PE as dirty (to be
    re-polled after the current event) if it is parked on a value."""

    __slots__ = ("pe", "waiting", "dirty")

    def __init__(self, pe: int, waiting: list, dirty: list) -> None:
        self.pe = pe
        self.waiting = waiting
        self.dirty = dirty

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def notify_all(self) -> None:
        if self.waiting[self.pe] is not None:
            self.dirty.append(self.pe)


class _EventPEMemory(PEMemory):
    """A :class:`PEMemory` whose lock/notify hook is a :class:`_NotifySink`."""

    def __init__(self, nbytes: int, sink: _NotifySink) -> None:
        self._sink = sink  # read by the _make_cond hook in the base __init__
        super().__init__(nbytes)

    def _make_cond(self):
        return self._sink


class _Waiter:
    """A PE parked on a local-value predicate (its :class:`WaitStep`).

    ``step.target`` is the remote PE whose write is awaited (when
    known; -1 otherwise) — survivable jobs fail the wait with
    ``ImageFailedError`` if that PE dies.
    """

    __slots__ = ("ctx", "mem", "predicate", "elem_offset", "step")

    def __init__(self, ctx, mem, predicate, elem_offset, step) -> None:
        self.ctx = ctx
        self.mem = mem
        self.predicate = predicate
        self.elem_offset = elem_offset
        self.step = step

    def merge_write_time(self) -> None:
        """The merge a woken thread performs in ``wait_until``."""
        if self.step.word:
            self.ctx.clock.merge(self.mem.word_time(self.elem_offset))
        else:
            self.ctx.clock.merge(self.mem.last_write_time)

    def describe(self) -> str:
        step = self.step
        target = f", target={step.target}" if step.target >= 0 else ""
        return (f"wait_until(offset={self.elem_offset}, "
                f"{step.cmp} {step.value!r}{target})")


def _make_wait_failure(w: _Waiter, dead: int, job):
    """Continuation that fails a parked waiter whose partner died.

    The predicate is re-checked first: the dead PE's failure hooks (lock
    handoff, forced releases) may have satisfied the wait while the
    crash was being processed — then the waiter resumes normally.
    """

    def thunk():
        if w.predicate():
            w.merge_write_time()
            return w.step.cont()
        raise_image_failed(w.ctx, "wait", dead, job.failed, job.tracer)

    return thunk


class EventEngine(Engine):
    """Single-threaded discrete-event execution over a virtual-time heap."""

    name = "event"
    eager_delivery = True
    max_pes = 16384

    def __init__(self) -> None:
        super().__init__()
        #: Counters of the last :meth:`run` (see docs/API.md).
        self.stats: dict[str, int] = {}

    def make_memories(self, num_pes: int, heap_bytes: int) -> list:
        # Waiter slot per PE, and PEs written to while parked.
        self._waiting: list = [None] * num_pes
        self._dirty: list[int] = []
        return [
            _EventPEMemory(heap_bytes, _NotifySink(pe, self._waiting, self._dirty))
            for pe in range(num_pes)
        ]

    # -- schedule hooks -------------------------------------------------
    def decision(self, ctx, op: str, target: int) -> None:
        pass  # eager execution between steps; nothing to decide

    def spin_yield(self, ctx, op: str, target: int) -> None:
        raise WouldBlock(
            f"EventEngine cannot spin inline on {op!r}; "
            f"return a DelayStep and retry in the continuation"
        )

    # -- blocking hooks (inline forms are errors here) ------------------
    def barrier_wait(self, ctx, barrier, gen: int) -> None:
        raise WouldBlock(
            "EventEngine cannot block inline in a barrier; return a "
            "BarrierStep (only the releasing arrival may call barrier_all "
            "directly, and which PE releases is schedule-dependent)"
        )

    def wait_value(self, ctx, mem, predicate, what: str,
                   target: int = -1) -> float:
        if predicate():
            return mem.last_write_time
        raise WouldBlock(
            f"EventEngine cannot block inline on {what}; return a WaitStep"
        )

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
        # Slots indexed by PE: the thunk its heap entry runs, its waiter.
        pending: list = [lambda: fn(*args, **kwargs)] * n
        waiting, dirty = self._waiting, self._dirty
        waiting[:] = [None] * n
        dirty.clear()
        parked: dict = {}  # barrier -> arrivers of its open generation
        pops = parks = repolls = wakes = notified = max_parked = 0

        def release(bar, gen: int) -> None:
            """Depart and reschedule everyone parked on ``bar``."""
            nonlocal max_parked
            plist = parked.pop(bar, ())
            if len(plist) > max_parked:
                max_parked = len(plist)
            for p_pe, p_ctx, p_layer, p_t_start, p_cont in plist:
                set_current(p_ctx)
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
                    # Step routing stays inside the guard: steps run
                    # layer code (barrier jitter, wait probes,
                    # continuations) that can fail like the body itself.
                    step = pending[pe]()
                    while True:
                        cls = type(step)
                        if cls is BarrierStep:
                            layer = step.layer
                            bar = step.barrier
                            if bar is None:
                                bar = layer.job.barrier
                            t_start, gen, released = layer._barrier_arrive(
                                ctx, step.barrier, step.npes
                            )
                            if released:
                                layer._barrier_depart(ctx, t_start, gen, bar)
                                pending[pe] = step.cont
                                push(heap, (ctx.clock.now, pe))
                                release(bar, gen)
                            else:
                                plist = parked.get(bar)
                                if plist is None:
                                    plist = parked[bar] = []
                                plist.append(
                                    (pe, ctx, layer, t_start, step.cont)
                                )
                        elif cls is WaitStep:
                            mem, predicate, elem_offset = step.layer._wait_probe(
                                step.ivar, step.cmp, step.value, step.offset
                            )
                            if predicate():
                                if step.word:
                                    ctx.clock.merge(mem.word_time(elem_offset))
                                else:
                                    ctx.clock.merge(mem.last_write_time)
                                step = step.cont()  # continue in this slice
                                continue
                            if (
                                step.target >= 0
                                and job.survivable
                                and job.failed.is_failed(step.target)
                            ):
                                raise_image_failed(
                                    ctx, "wait", step.target, job.failed,
                                    job.tracer,
                                )
                            waiting[pe] = _Waiter(
                                ctx, mem, predicate, elem_offset, step
                            )
                            parks += 1
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
                    # Survivable mode: registry mark + barrier excision;
                    # an excision that released a barrier episode
                    # departs its parked survivors, and waiters on the
                    # dead PE fail with a structured ImageFailedError
                    # instead of deadlocking.
                    for bar, gen in self.on_pe_failed(ctx, exc):
                        release(bar, gen)
                    for w_pe, w in enumerate(waiting):
                        if w is not None and w.step.target == pe:
                            waiting[w_pe] = None
                            pending[w_pe] = _make_wait_failure(w, pe, job)
                            push(heap, (w.ctx.clock.now, w_pe))
                if dirty:
                    # Re-poll only the parked PEs this event wrote to
                    # (any wake order: the heap key is (t, pe)).
                    notified += len(dirty)
                    for w_pe in dirty:
                        w = waiting[w_pe]
                        if w is None:
                            continue  # woken by an earlier write of this event
                        repolls += 1
                        if w.predicate():
                            waiting[w_pe] = None
                            wakes += 1
                            w.merge_write_time()
                            pending[w_pe] = w.step.cont
                            push(heap, (w.ctx.clock.now, w_pe))
                    dirty.clear()
        finally:
            set_current(None)
            # Every push is popped (the loop drains the heap) and a PE
            # holds at most one entry, so pushes and depth are derived.
            self.stats = {
                "heap_pops": pops, "heap_pushes": pops - n, "heap_max": n,
                "parks": parks, "polls": parks + repolls, "wakes": wakes,
                "dirty": notified,
                "max_parked": max([max_parked, *map(len, parked.values())]),
            }

        stuck = {
            p[0]: f"barrier(sync_id={bar.sync_id}, gen={bar.generation})"
            for bar, plist in parked.items() for p in plist
        }
        stuck.update(
            (w.ctx.pe, w.describe()) for w in waiting if w is not None
        )
        if stuck and not job.aborted():
            lines = [
                f"event heap drained with PE(s) {sorted(stuck)} still parked "
                f"and no failure recorded: a barrier or wait can never be "
                f"released"
            ]
            lines += [f"  PE {pe} blocked in {stuck[pe]}" for pe in sorted(stuck)]
            raise EventDeadlock("\n".join(lines))
        if failures:
            failure = JobFailure(failures)
            raise failure from failure.failures[0][1]
        return results
