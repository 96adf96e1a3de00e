"""The cooperative engine: a deterministic scheduler (shuttle/Coyote style).

Every PE thread still exists (leased from the shared pool), but exactly
one runs at a time: at each *decision point* (the sync and
communication points the tracer and the fault injector hook) the
running task asks a :class:`~repro.explore.scheduler.Strategy` who runs
next, so one strategy seed names one replayable interleaving.  Weak
completion is explicit: a ``put`` waits on the initiator's FIFO
delivery queue (:meth:`deposit`), ``quiet`` flushes it (:meth:`drain`),
atomics bypass it.  Choice tokens, built once per PE at bind: ``p<i>``
runs PE *i* to its next decision point, ``n<i>`` delivers initiator
*i*'s oldest put; the choice list is the runnable ``p`` tokens, then
the pending ``n`` tokens, each in ascending PE order.  Under
``VirtualTimeOrder`` no list is built: its pick comes off a ``(clock,
PE)`` heap of the runnable PEs, and a turn holder that is still the
least keeps its turn without taking the engine lock.  A switch is one
``Condition`` hand-off: the picker grants the next PE its turn and
waits on its own condition, which releases the engine lock.  A blocked
task waits in the :class:`~repro.engine.sched.ParkCore` shared with the
event engine until its wake source fires and its predicate holds.

:mod:`repro.explore` re-exports the class as ``Scheduler``; this module
must not import that package (its ``__init__`` pulls in ``caf``).
"""

from __future__ import annotations

import threading
from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
from itertools import compress
from typing import Callable

from repro.engine.base import Engine, EngineError
from repro.engine.sched import ParkCore, value_or_failed
from repro.engine.threaded import ThreadRunMixin
from repro.runtime.failures import raise_image_failed
from repro.runtime.launcher import JobAborted

#: Step ceiling per schedule up to 64 PEs, and per 64 PEs above that
#: (the default ``max_steps``): far above any explore program, low
#: enough that a livelocked schedule fails fast instead of spinning.
DEFAULT_MAX_STEPS = 100_000


def _summary(choices: list[str]) -> str:
    """A choice list for an error message: its length, and its first
    and last three tokens (a list can hold one token per PE)."""
    shown = choices if len(choices) <= 6 else [*choices[:3], "...", *choices[-3:]]
    return f"{len(choices)} choices [{', '.join(shown)}]"


class ScheduleLimitError(RuntimeError):
    """The schedule exceeded ``max_steps`` decision points (livelock guard)."""


class CooperativeEngine(ThreadRunMixin, Engine):
    """Serializes a job's PE threads under a strategy.  One-shot, like
    every engine; the executed choices are left in :attr:`trace` for
    replay, the counters in :attr:`stats`."""

    name = "cooperative"
    #: Puts become separately-schedulable deliveries (weak completion).
    eager_delivery = False
    #: One PE runs at a time and barrier arrivers park in the engine, so
    #: an arrival locks and notifies nothing.
    barrier_cond = None

    def __init__(self, strategy, *, max_steps: int | None = None) -> None:
        super().__init__()
        self.strategy = strategy
        #: None until :meth:`bind` scales the default with the PE count.
        self.max_steps = None if max_steps is None else int(max_steps)
        self.trace: list[str] = []
        self.steps = 0
        self.done = False
        #: Set when the engine itself killed the run from a task-exit
        #: path (deadlock among the survivors): ``(pe, exception)``.
        self.failure: tuple[int, BaseException] | None = None
        self._lock = threading.Lock()
        self._conds: list[threading.Condition] = []  # per PE, on the engine lock
        self._queues: list[deque] = []
        self._registered: set[int] = set()
        self._finished: set[int] = set()
        self._counts = dict.fromkeys(("switches", "deliveries"), 0)

    def make_memories(self, num_pes: int, heap_bytes: int) -> list:
        self._core = ParkCore(num_pes)
        return self._core.memories(heap_bytes, threading.RLock)

    def bind(self, job) -> None:
        super().bind(job)
        self.strategy.bind_job(job)  # clock-aware strategies read PE clocks
        n = self.num_pes = job.num_pes
        if self.max_steps is None:
            self.max_steps = DEFAULT_MAX_STEPS * max(n, 64) // 64
        from repro.explore.scheduler import VirtualTimeOrder  # late: it imports this module

        # A subclass may override choose, so only the class itself gets the heap.
        vt = self._vt = type(self.strategy) is VirtualTimeOrder
        if vt:
            self._pick = self._pick_vt
        self._aborted = job._abort.is_set  # read at every decision
        self._pending: list[int] | None = [] if vt else None  # initiators, a lazy min-heap
        self._cur: int | None = None  # the PE whose turn it is
        self._conds = [threading.Condition(self._lock) for _ in range(n)]
        self._granted = [False] * n  # set by the picker, cleared by the woken PE
        self._queues = [deque() for _ in range(n)]
        self._ptok = [f"p{t}" for t in range(n)]
        self._ntok = [f"n{t}" for t in range(n)]
        self._runnable = [True] * n  # neither finished nor parked

    @property
    def stats(self) -> dict[str, int]:
        """Exact counters of the run (see docs/API.md)."""
        return {"steps": self.steps, **self._counts, **self._core.counts()}

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
        if self._aborted():
            raise JobAborted(f"job aborted at {op} decision point")
        if not (self._vt and self._keeps_turn(pe)):
            self._hand_off(pe, spin)

    # -- delivery -------------------------------------------------------
    def deposit(self, ctx, deliver: Callable[[], None]) -> None:
        """Enqueue a put's target-side deposit for later delivery."""
        q = self._queues[ctx.pe]
        if not q and self._pending is not None:
            heappush(self._pending, ctx.pe)
        q.append(deliver)

    def drain(self, ctx) -> None:
        """``quiet``: deliver every pending put of ``ctx.pe``, in order."""
        q = self._queues[ctx.pe]
        if not q:
            return  # only the turn holder touches its own queue
        with self._lock:
            self._counts["deliveries"] += len(q)
            while q:
                q.popleft()()

    # -- blocking -------------------------------------------------------
    def block_until(self, pe: int, predicate: Callable[[], bool], reason: str = "", *, wake=None) -> None:
        """Park the running PE until ``predicate()`` holds.

        ``wake`` is what can make it hold, and the PE is re-checked only
        when that changes: ``pe``'s own memory (after a write to it), a
        ``(barrier, generation)`` episode (once the generation moves; the
        report names it by that key), or ``None`` (every step).
        """
        if self._aborted():
            raise JobAborted(f"job aborted entering {reason or 'block'}")
        if not predicate():
            self._hand_off(pe, False, (predicate, reason, wake))
        elif not (self._vt and self._keeps_turn(pe)):
            self._hand_off(pe, False)

    def barrier_wait(self, ctx, barrier, gen: int) -> None:
        self.block_until(ctx.pe, lambda: barrier._generation != gen,
                         "barrier", wake=(barrier, gen))

    def wait_value(self, ctx, mem, predicate, what: str,
                   target: int = -1) -> float:
        job = self.job
        failed = job.failed.is_failed if job.survivable else None
        self.block_until(ctx.pe, value_or_failed(predicate, failed, target), what, wake=mem)
        # A dead target raises here, on this PE's thread, not under the engine lock.
        if failed is not None and target >= 0 and not predicate() and failed(target):
            raise_image_failed(ctx, "wait", target, job.failed, job.tracer)
        return mem.last_write_time

    def on_pe_failed(self, ctx, exc) -> list:
        released = super().on_pe_failed(ctx, exc)
        self._core.fail()
        return released

    # -- run (ThreadRunMixin hooks) -------------------------------------
    def _task_start(self, pe: int) -> None:
        """First call from each PE thread; returns when the PE is picked."""
        if self.done:
            raise RuntimeError("this engine's job already ran; it is one-shot")
        with self._lock:
            self._registered.add(pe)
            if len(self._registered) == self.num_pes:
                # Every context exists now; nobody holds the turn yet.
                self._clocks = [self.job.pe_contexts[p].clock for p in range(self.num_pes)]
                self._ready = [(c.now, p) for p, c in enumerate(self._clocks)]
                heapify(self._ready)
                if self._switch(pe):
                    return
            self._await_turn(pe)

    def _task_exit(self, pe: int) -> None:
        """Final call from each PE thread (normal return or unwind).

        Never raises: a deadlock among the survivors is recorded in
        :attr:`failure` and the job aborted, for :meth:`_collect_failures`."""
        with self._lock:
            if pe in self._finished:
                return
            if not self._runnable[pe]:
                self._core.forget(pe)  # unwound while parked
            self._finished.add(pe)
            self._runnable[pe] = False
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
                self._switch(pe)
            except (EngineError, ScheduleLimitError) as exc:
                self.failure = (pe, exc)
                self.job.abort()
                self._wake_all()

    def _collect_failures(self, failures: list) -> None:
        # A deadlock found by an exiting task has no thread to raise in.
        if self.failure is not None:
            pe, _ = self.failure
            if not any(p == pe for p, _ in failures):
                failures.append(self.failure)

    # -- internals ------------------------------------------------------
    def _keeps_turn(self, pe: int) -> bool:
        """Count a ``VirtualTimeOrder`` decision without the engine lock
        when :meth:`_pick_vt` could only pick ``pe`` again: ``pe`` holds the
        turn, no put is pending, nothing :meth:`ParkCore.ready` could wake,
        its ``(clock, PE)`` is below the ready heap's top, and a step is
        left.  Only the turn holder runs, so the state it reads is stable."""
        if self._cur != pe or self._pending or self.steps >= self.max_steps:
            return False
        core, ready = self._core, self._ready
        if core.dirty or core.polled or (
                core.episodes and any(bar._generation != gen for bar, gen in core.episodes)):
            return False
        if ready and not (self._clocks[pe].now, pe) < ready[0]:
            return False
        self.steps += 1
        self.trace.append(self._ptok[pe])
        return True

    def _hand_off(self, pe: int, spin: bool, wait: tuple | None = None) -> None:
        """Let the strategy pick who runs next; returns once it is ``pe``
        again.  A ``(predicate, reason, wake)`` ``wait`` (its predicate
        just failed) parks ``pe``."""
        with self._lock:
            self.strategy.note_yield(self._ptok[pe], spin)
            if wait is not None:
                predicate, reason, wake = wait
                self._runnable[pe] = False
                if isinstance(wake, tuple):
                    self._core.park_barrier(wake, (pe,))
                elif wake is not None and wake is self.job.memories[pe]:
                    self._core.park_value(pe, predicate, reason)
                else:
                    self._core.park_polled(pe, predicate, reason)
            if not self._switch(pe):
                self._await_turn(pe)

    def _switch(self, pe: int) -> bool:
        """Pick who runs next and grant it the turn (lock held); True if it is ``pe``."""
        nxt = self._pick()
        if nxt == pe:
            return True
        if nxt is not None:
            self._counts["switches"] += 1
            self._granted[nxt] = True
            self._conds[nxt].notify()
        return False

    def _choices(self) -> list[str]:
        return [*compress(self._ptok, self._runnable), *compress(self._ntok, self._queues)]

    def _stop(self, choices: list[str]) -> None:
        """No choice left (None: every task finished) or no step left."""
        if not choices:
            if len(self._finished) == self.num_pes:
                return None
            raise self._core.deadlock(
                f"deadlock after {self.steps} steps: no runnable task, no pending "
                f"delivery ({len(self._finished)}/{self.num_pes} PEs finished)",
                self.job.failed.failed_pes())
        raise ScheduleLimitError(
            f"schedule exceeded {self.max_steps} steps "
            f"(livelocked spin loop?); {_summary(choices)}"
        )

    def _pick(self) -> int | None:
        """Pick the next PE to run (lock held), executing chosen deliveries
        inline; None when every task has finished."""
        while True:
            for pe in self._core.ready():
                self._runnable[pe] = True
            choices = self._choices()
            if not choices or self.steps >= self.max_steps:
                return self._stop(choices)
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

    def _pick_vt(self) -> int | None:
        """:meth:`_pick` under ``VirtualTimeOrder``, same tokens, no choice
        list: the lowest pending initiator's delivery, else the least
        ``(clock, PE)`` of the turn holder and the ready heap (the other
        runnable PEs, keyed when queued: only a running PE moves its clock)."""
        ready, clocks, queues, pending = self._ready, self._clocks, self._queues, self._pending
        cur = self._cur if self._cur is not None and self._runnable[self._cur] else None
        while True:
            for pe in self._core.ready():
                self._runnable[pe] = True
                heappush(ready, (clocks[pe].now, pe))
            while pending and not queues[pending[0]]:
                heappop(pending)  # emptied by a quiet
            if not (ready or pending or cur is not None) or self.steps >= self.max_steps:
                return self._stop(self._choices())
            self.steps += 1
            if pending:
                self.trace.append(self._ntok[pending[0]])
                self._counts["deliveries"] += 1
                queues[pending[0]].popleft()()
                continue
            if cur is not None:
                key = (clocks[cur].now, cur)
                if not ready or key < ready[0]:
                    self.trace.append(self._ptok[cur])
                    return cur
                key = heapreplace(ready, key)
            else:
                key = heappop(ready)
            now, pe = key
            if clocks[pe].now != now:
                raise EngineError(
                    f"PE {pe} was queued at virtual time {now!r} but its clock reads "
                    f"{clocks[pe].now!r}: another PE moved it")
            self._cur = pe
            self.trace.append(self._ptok[pe])
            return pe

    def _wake_all(self) -> None:
        """Wake every waiting PE (lock held); each sees the abort."""
        for cond in self._conds:
            cond.notify()

    def _await_turn(self, pe: int) -> None:
        """Wait (lock held) until ``pe`` is granted the turn.  The wait
        releases the engine lock; the watchdog guards only a wait that
        outlasts its first 0.1 s, so a switch never pays for it."""
        granted, aborted, wait = self._granted, self._aborted, self._conds[pe].wait
        if not granted[pe] and not aborted():
            wait(0.1)
            if not granted[pe]:
                with self.job.watchdog.watch(pe, "scheduler wait") as guard:
                    while not granted[pe] and not aborted():
                        guard.poll()
                        wait(0.1)
        granted[pe] = False
        if aborted():
            raise JobAborted("job aborted while awaiting schedule turn")
