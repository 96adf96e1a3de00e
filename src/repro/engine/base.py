"""The :class:`Engine` interface.

An engine owns *how* the PEs of one :class:`~repro.runtime.launcher.Job`
execute: what happens at a schedule decision point, how a put's remote
deposit lands, how a PE blocks (barrier park, value wait, lock spin),
how the fault plan is consulted, and how the SPMD bodies themselves are
driven.  The communication layers are engine-agnostic — they never
branch on which engine runs them, they call through the job's engine:

========================  =============================================
hook                      what the layers ask of the engine
========================  =============================================
``decision``              a schedule decision point (every RMA/sync)
``deposit`` / ``drain``   hand over a put's remote deposit / force the
                          caller's deposits to land (``quiet``)
``spin_yield``            one iteration of a lock spin-retry loop
``barrier_wait``          park a non-final barrier arriver
``wait_value``            park in ``OneSidedLayer.wait_until``
``priced`` / ``jitter`` / the fault plan and the retransmission
``alloc_check``           pipeline
``run``                   the body of ``Job.run``
========================  =============================================

Three engines exist:

* :class:`~repro.engine.threaded.ThreadedEngine` — one (pooled) OS
  thread per PE, blocking on condition variables.
* :class:`~repro.engine.cooperative.CooperativeEngine` — the
  deterministic scheduler (``repro.explore.Scheduler`` is this class):
  pooled threads, exactly one running, a strategy picks who is next.
* :class:`~repro.engine.event.EventEngine` — no OS threads: PE bodies
  are step programs (see :mod:`repro.engine.steps`) driven off a
  virtual-time event heap.

The fault plane lives on the base class because it is engine-neutral:
the injector's decisions depend only on per-PE operation indices, and
retransmission backoff is priced in virtual time, so the same pipeline
serves all engines bit-identically.  Without a fault plan, :meth:`bind`
swaps ``priced`` and ``alloc_check`` for module-level pass-throughs and
layers skip ``jitter``; they also skip base no-op ``decision``/``drain``.
"""

from __future__ import annotations

import threading
import typing
from typing import Any, Callable

from repro.sim.faults import InjectedCrash, TransientCommError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import Job


class EngineError(RuntimeError):
    """Engine misuse or engine-detected execution failure."""


class WouldBlock(EngineError):
    """A blocking primitive was reached on a non-blocking engine.

    The :class:`~repro.engine.event.EventEngine` cannot suspend a PE
    mid-call (there is no thread to park); code running on it must
    express blocking points as :mod:`repro.engine.steps` objects
    instead.  Reaching an inline blocking primitive raises this.
    """


def _record_fault(layer, ctx, kind: str, op: str, target: int,
                  t_start: float, calls: int = 1) -> None:
    """Trace one ``fault``/``retry`` record (machinery, never data)."""
    tracer = layer.job.tracer
    if tracer is not None:
        tracer.record(
            ctx.pe, kind, target, 0, t_start, ctx.clock.now,
            calls=max(calls, 1), internal=True, meta=("f", op),
        )


# ---------------------------------------------------------------------------
# No-fault fast paths, installed by Engine.bind when the job carries no
# fault plan.  Module-level plain functions: assigning them to instance
# attributes costs no bound-method indirection at the call sites.
# ---------------------------------------------------------------------------

def _priced_nofaults(ctx, layer, op, target, price, fail_at,
                     src_node=None, dst_node=None):
    if src_node is None:
        return price(ctx.clock.now)
    return price(ctx.clock.now, src_node, dst_node)


def _alloc_check_nofaults(ctx):
    return None


class Engine:
    """Execution-engine interface; see the module docstring.

    Engines are single-job: :meth:`bind` is called once from
    ``Job.__init__`` and pins the engine to that job.
    """

    #: Engine name, as accepted by :func:`resolve_engine`.
    name = "base"

    #: Largest PE count this engine will drive.  Thread-backed engines
    #: keep the historical one-OS-thread-per-PE ceiling; the event
    #: engine raises it (a PE there is a heap entry, not a thread).
    max_pes = 4096

    #: Whether remote deposits land in the target memory during the
    #: initiating call (threaded/event) or become separately-schedulable
    #: deliveries (:meth:`deposit`, cooperative).  Layers cache this as
    #: a plain boolean so the eager hot path never builds a closure.
    eager_delivery = True

    #: What builds each barrier's condition (``VirtualBarrier``): its
    #: arrivals lock and notify it because the threaded engine's
    #: :meth:`barrier_wait` waits on it.  The deterministic engines set
    #: None: their arrivers park in the engine, so an arrival takes no
    #: lock and sends no notify.
    barrier_cond = threading.Condition

    def __init__(self) -> None:
        self.job: "Job | None" = None
        self.faults = None

    # ------------------------------------------------------------------
    def bind(self, job: "Job") -> None:
        """Attach this engine to its job (exactly once)."""
        if self.job is not None and self.job is not job:
            raise EngineError(
                f"{type(self).__name__} is already bound to another job; "
                f"engines are one-shot — build a fresh instance per Job"
            )
        self.job = job
        self.faults = job.faults
        if job.faults is None:
            self.priced = _priced_nofaults
            self.alloc_check = _alloc_check_nofaults

    # ------------------------------------------------------------------
    def make_memories(self, num_pes: int, heap_bytes: int) -> list:
        """The job's per-PE memories (the deterministic engines substitute
        memories whose lock is a :class:`~repro.engine.sched.WakeHook`)."""
        from repro.runtime.memory import PEMemory, zeroed_heaps

        return [PEMemory(heap_bytes, buf) for buf in zeroed_heaps(num_pes, heap_bytes)]

    # ------------------------------------------------------------------
    # Fault injection and retransmission (engine-neutral; see module doc)
    # ------------------------------------------------------------------
    def priced(self, ctx, layer, op: str, target: int, price, fail_at,
               src_node: int | None = None, dst_node: int | None = None):
        """Price one operation through the fault plan.

        ``price(now)`` prices a single attempt starting at virtual time
        ``now`` (pricers and the direct network methods are both valid
        — each call reserves its own timeline bandwidth, so a failed
        attempt consumes wire time like a real retransmission); a
        route-class scalar pricer comes with its node pair and is called
        as ``price(now, src_node, dst_node)``;
        ``fail_at(result)`` extracts the virtual instant the initiator
        learns the attempt failed.  Transient failures retry with
        capped exponential backoff in virtual time; an exhausted budget
        raises :class:`TransientCommError`; a scheduled crash raises
        :class:`InjectedCrash`.  Returns the successful attempt's
        pricing result.  Retry policy constants (``RETRY_LIMIT``,
        ``RETRY_BACKOFF_*``) are read from ``layer``.
        """
        if src_node is not None:
            route_price = price

            def price(now):
                return route_price(now, src_node, dst_node)

        inj = self.faults
        d = inj.decide(ctx.pe, op, target)
        if d is None:
            return price(ctx.clock.now)
        t0 = ctx.clock.now
        if d.crash:
            _record_fault(layer, ctx, "fault", op, target, t0)
            raise InjectedCrash(
                f"PE {ctx.pe} crashed by fault plan at {op} "
                f"(op #{inj.op_index(ctx.pe) - 1}, seed {inj.plan.seed})"
            )
        if d.extra_us:
            ctx.clock.advance(d.extra_us)
        failures = d.failures
        if not failures:
            return price(ctx.clock.now)
        attempts = 0
        backoff = layer.RETRY_BACKOFF_START_US
        while failures and attempts < layer.RETRY_LIMIT:
            # The failed attempt is fully priced: its timeline
            # reservations stand (the wire carried the doomed packet)
            # and the initiator waits until the NACK instant before
            # backing off and retrying.
            ctx.clock.merge(fail_at(price(ctx.clock.now)))
            ctx.clock.advance(backoff)
            backoff = min(backoff * 2.0, layer.RETRY_BACKOFF_MAX_US)
            attempts += 1
            failures -= 1
        if failures:
            inj.note(ctx.pe, "escalations")
            _record_fault(layer, ctx, "fault", op, target, t0, calls=attempts)
            raise TransientCommError(op, ctx.pe, target, attempts)
        result = price(ctx.clock.now)
        inj.note(ctx.pe, "retried_ops")
        inj.note(ctx.pe, "retries", attempts)
        _record_fault(layer, ctx, "retry", op, target, t0, calls=attempts)
        return result

    def jitter(self, ctx, layer, op: str, target: int = -1) -> None:
        """Latency-only injection for collectives (no retransmission:
        the barrier algorithm's own progress is what gets delayed)."""
        inj = self.faults
        d = inj.decide(ctx.pe, op, target)
        if d is None:
            return
        if d.crash:
            _record_fault(layer, ctx, "fault", op, target, ctx.clock.now)
            raise InjectedCrash(
                f"PE {ctx.pe} crashed by fault plan at {op} "
                f"(op #{inj.op_index(ctx.pe) - 1}, seed {inj.plan.seed})"
            )
        if d.extra_us:
            ctx.clock.advance(d.extra_us)

    def alloc_check(self, ctx) -> None:
        """Injected symmetric-heap exhaustion fails *this* PE before it
        reaches the collective, so the allocator metadata is never
        touched by the doomed allocation."""
        self.faults.alloc_check(ctx.pe)

    # ------------------------------------------------------------------
    # Schedule / delivery hooks
    # ------------------------------------------------------------------
    def decision(self, ctx, op: str, target: int) -> None:
        """A schedule decision point (every RMA/sync call).  Free-running
        engines keep this no-op, and layers then skip the call; the
        cooperative engine lets its strategy pick who runs next here."""

    def spin_yield(self, ctx, op: str, target: int) -> None:
        """One iteration of a spin-retry loop (lock acquisition).  Must
        yield execution in whatever way the engine supports."""
        raise NotImplementedError

    def deposit(self, ctx, deliver: Callable[[], None]) -> None:
        """Hand over a put's remote-memory deposit.  Only consulted when
        :attr:`eager_delivery` is False (layers write through directly
        otherwise)."""
        deliver()

    def drain(self, ctx) -> None:
        """Force all of ``ctx.pe``'s handed-over deposits to land
        (the delivery half of ``quiet``)."""

    # ------------------------------------------------------------------
    # Blocking hooks
    # ------------------------------------------------------------------
    def barrier_wait(self, ctx, barrier, gen: int) -> None:
        """Park until barrier ``gen`` releases (non-final arrivers)."""
        raise NotImplementedError

    def wait_value(self, ctx, mem, predicate, what: str,
                   target: int = -1) -> float:
        """Block until ``predicate()`` holds over ``mem``; returns the
        virtual timestamp to merge (the satisfying write's time).

        ``target`` names the remote PE whose write is being waited for,
        when known: survivable jobs then fail the wait immediately with
        :class:`~repro.runtime.failures.ImageFailedError` if that PE is
        (or becomes) a failed image, instead of blocking forever.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Survivable failure handling (see repro.runtime.failures)
    # ------------------------------------------------------------------
    def on_pe_failed(self, ctx, exc) -> list:
        """Convert a survivable crash of ``ctx.pe`` into a failed image.

        Runs on the dying PE, from the engine's crash handler, while the
        PE's context is still current.  In order: mark the registry
        (idempotence guard — a PE dies once), run the job's registered
        failure hooks (e.g. CAF lock recovery releases the dead image's
        held locks, per the Fortran 2018 rule that a failed image's
        locks become unlocked), trace a ``fail`` record for the death
        itself, then excise the PE from the job barrier and every group
        barrier it belongs to so survivors' episode arithmetic completes
        without it.

        Returns the ``(barrier, released_generation)`` pairs whose
        current episode the excision released — the event engine departs
        the continuations parked on those episodes.
        """
        job = self.job
        pe = ctx.pe
        if not job.failed.mark_failed(pe):
            return []
        for hook in job.failure_hooks:
            try:
                hook(pe)
            except Exception:  # recovery must never mask the crash
                pass
        tracer = job.tracer
        if tracer is not None:
            tracer.record(
                ctx.pe, "fail", -1, 0, ctx.clock.now, ctx.clock.now,
                internal=True, meta=("f", "crash"),
            )
        released = []
        barriers = [job.barrier]
        if job.groups is not None:
            barriers.extend(job.groups.barriers())
        for bar in barriers:
            if bar.exclude(pe):
                released.append((bar, bar.generation - 1))
        return released

    # ------------------------------------------------------------------
    def run(self, job: "Job", fn, args, kwargs) -> list:
        """Execute ``fn(*args, **kwargs)`` as every PE; return per-PE
        results (the body of ``Job.run``)."""
        raise NotImplementedError


def resolve_engine(engine: Any) -> Engine:
    """Coerce the ``engine=`` launch parameter to an :class:`Engine`.

    * ``None`` / ``"threaded"`` — a fresh ``ThreadedEngine``;
    * ``"event"`` — a fresh ``EventEngine``;
    * ``"vt"`` — a fresh ``CooperativeEngine`` under
      :class:`~repro.explore.scheduler.VirtualTimeOrder`, the seedless
      deterministic order;
    * an :class:`Engine` instance — used as-is (must be unbound), e.g.
      ``Scheduler(RandomWalk(7))`` for one seeded interleaving.
    """
    if isinstance(engine, Engine):
        return engine
    if engine is None or engine == "threaded":
        from repro.engine.threaded import ThreadedEngine

        return ThreadedEngine()
    if engine == "event":
        from repro.engine.event import EventEngine

        return EventEngine()
    if engine == "vt":
        from repro.engine.cooperative import CooperativeEngine
        from repro.explore.scheduler import VirtualTimeOrder

        return CooperativeEngine(VirtualTimeOrder())
    if isinstance(engine, str):
        raise ValueError(
            f"unknown engine {engine!r}; expected 'threaded', 'event', "
            f"'vt', or an Engine instance"
        )
    raise TypeError(f"engine must be a name or Engine instance, got {engine!r}")
