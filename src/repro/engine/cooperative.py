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

Blocking primitives (barrier waits, ``wait_until``) go through
:meth:`CooperativeEngine.block_until`; a blocked task is simply not
offered as a choice until its predicate holds.  If no task is runnable
and no delivery is pending, the run has genuinely deadlocked and the
engine raises :class:`DeadlockError` with a report naming every blocked
task — instantly, where the threaded engine would idle until the
watchdog.

:mod:`repro.explore` re-exports the class as ``Scheduler`` next to the
strategies; this module must not import that package (its ``__init__``
pulls in ``caf`` and ``bench``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from repro.engine.base import Engine
from repro.engine.threaded import ThreadRunMixin
from repro.runtime.launcher import JobAborted

#: Step ceiling per schedule: far above any explore program, low enough
#: that a livelocked schedule fails fast instead of spinning forever.
DEFAULT_MAX_STEPS = 100_000


class DeadlockError(RuntimeError):
    """No runnable task and no pending delivery: the schedule deadlocked."""


class ScheduleLimitError(RuntimeError):
    """The schedule exceeded ``max_steps`` decision points (livelock guard)."""


class CooperativeEngine(ThreadRunMixin, Engine):
    """Serializes a job's PE threads under a strategy.

    One-shot, like every engine: pass it as ``Job(..., engine=...)``
    and run that job once.  The executed choice sequence is left in
    :attr:`trace` for replay.
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

    def bind(self, job) -> None:
        super().bind(job)
        self.strategy.bind_job(job)  # clock-aware strategies read PE clocks
        self.num_pes = job.num_pes
        self._events = [threading.Event() for _ in range(job.num_pes)]
        self._queues = [deque() for _ in range(job.num_pes)]

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
            while q:
                q.popleft()()

    # -- blocking -------------------------------------------------------
    def block_until(self, pe: int, predicate: Callable[[], bool], reason: str = "") -> None:
        """Park the running PE until ``predicate()`` holds.

        The predicate is re-evaluated after every step (other tasks'
        progress or message deliveries may satisfy it); the PE is only
        offered as a choice again once it does.
        """
        if self.job.aborted():
            raise JobAborted(f"job aborted entering {reason or 'block'}")
        self._hand_off(pe, False, (predicate, reason))

    def barrier_wait(self, ctx, barrier, gen: int) -> None:
        self.block_until(
            ctx.pe,
            lambda: barrier._generation != gen,
            f"barrier(sync_id={barrier.sync_id}, gen={gen})",
        )

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

            self.block_until(ctx.pe, value_or_failed, what)
            if not predicate() and registry.is_failed(target):
                from repro.runtime.failures import raise_image_failed

                raise_image_failed(ctx, "wait", target, registry, job.tracer)
            return mem.last_write_time
        self.block_until(ctx.pe, predicate, what)
        return mem.last_write_time

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
            self._blocked.pop(pe, None)
            if len(self._finished) == self.num_pes:
                # End of job completes all outstanding puts (finalize
                # semantics), deterministically in PE order.
                for q in self._queues:
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
        ``pe`` again.  ``wait`` is a ``(predicate, reason)`` that keeps
        ``pe`` out of the choices until the predicate holds."""
        with self._lock:
            self.strategy.note_yield(f"p{pe}", spin)
            if wait is not None and not wait[0]():
                self._blocked[pe] = wait
            nxt = self._pick()
            if nxt == pe:
                return
            if nxt is not None:
                self._events[nxt].set()
        self._await_turn(pe)

    def _pick(self) -> int | None:
        """Pick the next PE to run (lock held).  Deliveries chosen by
        the strategy are executed inline; returns None when every task
        has finished."""
        while True:
            for t in sorted(self._blocked):
                predicate, _ = self._blocked[t]
                if predicate():
                    del self._blocked[t]
            choices = [
                f"p{t}"
                for t in range(self.num_pes)
                if t not in self._finished and t not in self._blocked
            ]
            choices += [f"n{t}" for t in range(self.num_pes) if self._queues[t]]
            if not choices:
                if len(self._finished) == self.num_pes:
                    return None
                raise DeadlockError(self._deadlock_report())
            if self.steps >= self.max_steps:
                raise ScheduleLimitError(
                    f"schedule exceeded {self.max_steps} steps "
                    f"(livelocked spin loop?); last choices: {choices}"
                )
            token = self.strategy.choose(self.steps, choices)
            if token not in choices:
                raise RuntimeError(
                    f"strategy returned {token!r}, not one of {choices}"
                )
            self.steps += 1
            self.trace.append(token)
            if token[0] == "n":
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
