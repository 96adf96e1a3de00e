"""The cooperative engine: a deterministic scheduler (shuttle/Coyote style).

Threaded jobs interleave PEs wherever the OS preempts them; a
cooperative job serializes them instead.  Every PE thread still exists
(leased from the shared pool like the threaded engine's), but exactly
one runs at a time: at each *decision point* (the same
sync/communication points the tracer and the fault injector hook) the
running task re-enters the engine, which consults a
:class:`~repro.explore.scheduler.Strategy` to pick who runs next.  One
strategy seed therefore names one exact interleaving, replayable
bit-for-bit from a recorded choice list.

The engine also models OpenSHMEM's weak completion order *explicitly*:
a ``put``'s bytes do not land at the target during the call.  They are
enqueued on the initiator's delivery queue (:meth:`deposit`), and the
queue's head becomes an extra schedulable choice (``n<pe>`` tokens) —
the "network" delivering one message.  ``quiet`` force-flushes the
caller's queue (:meth:`drain` — exactly what ``shmem_quiet`` promises),
atomics bypass the queue (the NIC atomic unit is not write-buffered),
and same-initiator delivery is FIFO, which subsumes ``shmem_fence``.  A
missing-quiet bug thus produces genuinely divergent schedules instead
of relying on wall-clock luck.

Choice tokens
-------------
``p<i>``  — run PE *i* until its next decision point.
``n<i>``  — deliver the oldest pending put of initiator PE *i*.

Tokens are built once per PE at bind; the choice list is the runnable
``p`` tokens, then the pending ``n`` tokens, each in ascending PE order.

Blocking primitives (barrier waits, ``wait_until``) go through
:meth:`CooperativeEngine.block_until`; a blocked task is not offered as
a choice until its predicate holds, re-evaluated only when the task's
*wake source* changes, so a hand-off costs the same however many tasks
are parked.  If no task is runnable and no delivery is pending, the run
has genuinely deadlocked and the engine raises :class:`DeadlockError`
with a report naming every blocked task — instantly, where the threaded
engine would idle until the watchdog.

:mod:`repro.explore` re-exports the class as ``Scheduler`` next to the
strategies; this module must not import that package (its ``__init__``
pulls in ``caf`` and ``bench``).
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import compress
from typing import Callable

from repro.engine.base import Engine
from repro.engine.threaded import ThreadRunMixin
from repro.runtime.failures import raise_image_failed
from repro.runtime.launcher import JobAborted
from repro.runtime.memory import PEMemory

#: Step ceiling per schedule: far above any explore program, low enough
#: that a livelocked schedule fails fast instead of spinning forever.
DEFAULT_MAX_STEPS = 100_000


def _summary(choices: list[str]) -> str:
    """A choice list for an error message: its length, and its first
    and last three tokens (a list can hold one token per PE)."""
    shown = choices if len(choices) <= 6 else [*choices[:3], "...", *choices[-3:]]
    return f"{len(choices)} choices [{', '.join(shown)}]"


class DeadlockError(RuntimeError):
    """No runnable task and no pending delivery: the schedule deadlocked."""


class ScheduleLimitError(RuntimeError):
    """The schedule exceeded ``max_steps`` decision points (livelock guard)."""


class _WakeCondition(threading.Condition):
    """A PE memory's condition variable whose ``notify_all()`` also
    lists the owning PE as dirty when it is parked on a value (the
    event engine's notify sink, but a real lock: PE threads unwind
    concurrently after an abort)."""

    def __init__(self, pe: int, on_memory: list, dirty: set, counts: dict) -> None:
        super().__init__()
        self._pe, self._on_memory, self._dirty, self._counts = pe, on_memory, dirty, counts

    def notify_all(self) -> None:
        super().notify_all()
        if self._on_memory[self._pe]:
            self._dirty.add(self._pe)
            self._counts["dirty"] += 1


class _WakeMemory(PEMemory):
    """A :class:`PEMemory` whose condition variable is a :class:`_WakeCondition`."""

    def __init__(self, nbytes: int, cond: _WakeCondition) -> None:
        self._wake_cond = cond  # read by the _make_cond hook in the base __init__
        super().__init__(nbytes)

    def _make_cond(self):
        return self._wake_cond


class CooperativeEngine(ThreadRunMixin, Engine):
    """Serializes a job's PE threads under a strategy.

    One-shot, like every engine: pass it as ``Job(..., engine=...)``
    and run that job once.  The executed choice sequence is left in
    :attr:`trace` for replay, its counters in :attr:`stats`.
    """

    name = "cooperative"
    #: Puts become separately-schedulable deliveries (weak completion).
    eager_delivery = False

    def __init__(self, strategy, *, max_steps: int = DEFAULT_MAX_STEPS) -> None:
        super().__init__()
        self.strategy = strategy
        self.max_steps = int(max_steps)
        self.trace: list[str] = []
        self.steps = 0
        self.done = False
        #: Set when the engine itself killed the run from a task-exit
        #: path (deadlock among the survivors): ``(pe, exception)``.
        self.failure: tuple[int, BaseException] | None = None
        self._lock = threading.Lock()
        self._events: list[threading.Event] = []
        self._queues: list[deque] = []
        self._registered: set[int] = set()
        self._finished: set[int] = set()
        self._blocked: dict[int, tuple[Callable[[], bool], str]] = {}
        self._on_memory: list[bool] = []  # per PE: parked on its own memory
        self._dirty: set[int] = set()  # parked PEs to re-poll
        self._episodes: dict[tuple, list[int]] = {}  # (barrier, gen) -> PEs
        self._polled: dict[int, Callable[[], bool]] = {}  # no wake source
        self._counts = dict.fromkeys(("switches", "deliveries", "parks", "polls", "wakes", "dirty"), 0)

    def make_memories(self, num_pes: int, heap_bytes: int) -> list:
        self._on_memory = [False] * num_pes
        sink = (self._on_memory, self._dirty, self._counts)
        return [_WakeMemory(heap_bytes, _WakeCondition(pe, *sink)) for pe in range(num_pes)]

    def bind(self, job) -> None:
        super().bind(job)
        self.strategy.bind_job(job)  # clock-aware strategies read PE clocks
        n = self.num_pes = job.num_pes
        self._events = [threading.Event() for _ in range(n)]
        self._queues = [deque() for _ in range(n)]
        self._ptok = [f"p{t}" for t in range(n)]
        self._ntok = [f"n{t}" for t in range(n)]
        self._runnable = [True] * n  # neither finished nor parked

    @property
    def stats(self) -> dict[str, int]:
        """Exact counters of the run (see docs/API.md)."""
        return {"steps": self.steps, **self._counts}

    # -- decision points ------------------------------------------------
    def decision(self, ctx, op: str, target: int) -> None:
        self.yield_point(ctx.pe, op, target)

    def spin_yield(self, ctx, op: str, target: int) -> None:
        self.yield_point(ctx.pe, op, target, spin=True)

    def yield_point(
        self, pe: int, op: str = "", target: int = -1, *, spin: bool = False
    ) -> None:
        """The running PE is about to issue ``op``; let the strategy
        decide who proceeds."""
        if self.job.aborted():
            raise JobAborted(f"job aborted at {op} decision point")
        self._hand_off(pe, spin)

    # -- delivery -------------------------------------------------------
    def deposit(self, ctx, deliver: Callable[[], None]) -> None:
        """Enqueue a put's target-side deposit for later delivery."""
        self._queues[ctx.pe].append(deliver)

    def drain(self, ctx) -> None:
        """``quiet``: deliver every pending put of ``ctx.pe``, in order."""
        with self._lock:
            q = self._queues[ctx.pe]
            self._counts["deliveries"] += len(q)
            while q:
                q.popleft()()

    # -- blocking -------------------------------------------------------
    def block_until(self, pe: int, predicate: Callable[[], bool], reason: str = "", *, wake=None) -> None:
        """Park the running PE until ``predicate()`` holds.

        The PE is offered as a choice again once it does.  ``wake`` is
        what can make it hold, and the predicate is re-evaluated only
        when that changes: ``pe``'s own memory (after a write to it), a
        ``(barrier, generation)`` episode (once the generation moves),
        or ``None`` (after every step).  A PE failure re-polls every
        parked PE whatever its wake source.
        """
        if self.job.aborted():
            raise JobAborted(f"job aborted entering {reason or 'block'}")
        self._hand_off(pe, False, (predicate, reason, wake))

    def barrier_wait(self, ctx, barrier, gen: int) -> None:
        self.block_until(ctx.pe, lambda: barrier._generation != gen,
                         f"barrier(sync_id={barrier.sync_id}, gen={gen})", wake=(barrier, gen))

    def wait_value(self, ctx, mem, predicate, what: str,
                   target: int = -1) -> float:
        job = self.job
        if target >= 0 and job.survivable:
            # Unblock on either the awaited value or the target's death;
            # re-raising happens on this PE's own thread, not inside the
            # predicate evaluation under the engine lock.
            registry = job.failed

            def value_or_failed() -> bool:
                return predicate() or registry.is_failed(target)

            self.block_until(ctx.pe, value_or_failed, what, wake=mem)
            if not predicate() and registry.is_failed(target):
                raise_image_failed(ctx, "wait", target, registry, job.tracer)
            return mem.last_write_time
        self.block_until(ctx.pe, predicate, what, wake=mem)
        return mem.last_write_time

    def on_pe_failed(self, ctx, exc) -> list:
        released = super().on_pe_failed(ctx, exc)
        # The registry mark may satisfy any survivable wait.
        self._dirty.update(self._blocked)
        self._counts["dirty"] += len(self._blocked)
        return released

    # -- run (ThreadRunMixin hooks) -------------------------------------
    def _task_start(self, pe: int) -> None:
        """First call from each PE thread; returns when the PE is picked."""
        if self.done:
            raise RuntimeError("this engine's job already ran; it is one-shot")
        with self._lock:
            self._registered.add(pe)
            if len(self._registered) == self.num_pes:
                nxt = self._pick()
                if nxt == pe:
                    return
                self._counts["switches"] += 1
                self._events[nxt].set()
        self._await_turn(pe)

    def _task_exit(self, pe: int) -> None:
        """Final call from each PE thread (normal return or unwind).

        Never raises: a deadlock among the survivors is recorded in
        :attr:`failure` and the job aborted, so :meth:`_collect_failures`
        can report it as a :class:`JobFailure` after joining.
        """
        with self._lock:
            if pe in self._finished:
                return
            self._finished.add(pe)
            self._runnable[pe] = False
            if self._blocked.pop(pe, None) is not None:
                self._on_memory[pe] = False
                self._polled.pop(pe, None)
            if len(self._finished) == self.num_pes:
                # End of job completes all outstanding puts (finalize
                # semantics), deterministically in PE order.
                for q in self._queues:
                    self._counts["deliveries"] += len(q)
                    while q:
                        q.popleft()()
                self.done = True
                return
            if self.job.aborted():
                self._wake_all()
                return
            try:
                nxt = self._pick()
            except (DeadlockError, ScheduleLimitError) as exc:
                self.failure = (pe, exc)
                self.job.abort()
                self._wake_all()
                return
            if nxt is not None:
                self._counts["switches"] += 1
                self._events[nxt].set()

    def _collect_failures(self, failures: list) -> None:
        # A deadlock detected while a task was exiting has no thread of
        # its own to raise in; fold it into the failure records.
        if self.failure is not None:
            pe, _ = self.failure
            if not any(p == pe for p, _ in failures):
                failures.append(self.failure)

    # -- internals ------------------------------------------------------
    def _hand_off(self, pe: int, spin: bool, wait: tuple | None = None) -> None:
        """Let the strategy pick who runs next; returns once it is
        ``pe`` again.  ``wait`` is a ``(predicate, reason, wake)`` that
        keeps ``pe`` out of the choices until the predicate holds."""
        with self._lock:
            self.strategy.note_yield(self._ptok[pe], spin)
            if wait is not None and not wait[0]():
                self._park(pe, *wait)
            nxt = self._pick()
            if nxt == pe:
                return
            if nxt is not None:
                self._counts["switches"] += 1
                self._events[nxt].set()
        self._await_turn(pe)

    def _park(self, pe: int, predicate, reason: str, wake) -> None:
        self._blocked[pe] = (predicate, reason)
        self._runnable[pe] = False
        self._counts["parks"] += 1
        self._counts["polls"] += 1  # the probe that parked it
        if isinstance(wake, tuple):
            self._episodes.setdefault(wake, []).append(pe)
        elif wake is not None and wake is self.job.memories[pe]:
            self._on_memory[pe] = True
        else:
            self._polled[pe] = predicate

    def _unpark(self, pe: int) -> None:
        del self._blocked[pe]
        self._on_memory[pe] = False
        self._polled.pop(pe, None)
        self._runnable[pe] = True
        self._counts["wakes"] += 1

    def _wake_ready(self) -> None:
        """Unpark every parked PE whose wake source fired and whose
        predicate now holds (lock held)."""
        blocked = self._blocked
        if self._dirty:  # list(): atomic copy, threads unwinding an abort may write
            dirty = [t for t in list(self._dirty) if t in blocked]
            self._dirty.clear()
            self._counts["polls"] += len(dirty)
            for t in dirty:
                if blocked[t][0]():
                    self._unpark(t)
        if self._episodes:
            for key in [k for k in self._episodes if k[0]._generation != k[1]]:
                for t in self._episodes.pop(key):
                    if t in blocked:  # not woken via _dirty, not exited
                        self._unpark(t)
        if self._polled:
            self._counts["polls"] += len(self._polled)
            for t in [t for t, pred in self._polled.items() if pred()]:
                self._unpark(t)

    def _pick(self) -> int | None:
        """Pick the next PE to run (lock held).  Deliveries chosen by
        the strategy are executed inline; returns None when every task
        has finished."""
        while True:
            if self._blocked:
                self._wake_ready()
            choices = [*compress(self._ptok, self._runnable),
                       *compress(self._ntok, self._queues)]
            if not choices:
                if len(self._finished) == self.num_pes:
                    return None
                raise DeadlockError(self._deadlock_report())
            if self.steps >= self.max_steps:
                raise ScheduleLimitError(
                    f"schedule exceeded {self.max_steps} steps "
                    f"(livelocked spin loop?); {_summary(choices)}"
                )
            token = self.strategy.choose(self.steps, choices)
            if token not in choices:
                raise RuntimeError(
                    f"strategy returned {token!r} at step {self.steps}, "
                    f"not one of the {_summary(choices)}"
                )
            self.steps += 1
            self.trace.append(token)
            if token[0] == "n":
                self._counts["deliveries"] += 1
                self._queues[int(token[1:])].popleft()()
                continue
            return int(token[1:])

    def _deadlock_report(self) -> str:
        lines = [
            f"deadlock after {self.steps} steps: no runnable task, "
            f"no pending delivery ({len(self._finished)}/{self.num_pes} "
            f"PEs finished)"
        ]
        for t in sorted(self._blocked):
            lines.append(f"  PE {t} blocked in {self._blocked[t][1] or '<unnamed wait>'}")
        return "\n".join(lines)

    def _wake_all(self) -> None:
        for ev in self._events:
            ev.set()

    def _await_turn(self, pe: int) -> None:
        ev = self._events[pe]
        aborted = self.job.aborted
        with self.job.watchdog.watch(pe, "scheduler wait") as guard:
            while not ev.wait(timeout=0.1):
                if aborted():
                    raise JobAborted("job aborted while awaiting schedule turn")
                guard.poll()
        ev.clear()
        if aborted():
            raise JobAborted("job aborted while awaiting schedule turn")
