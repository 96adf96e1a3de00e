"""Virtual-time synchronization building blocks.

* :class:`VirtualBarrier` — a reusable barrier that also reconciles
  virtual clocks: every participant leaves with
  ``max(arrival times) + cost`` where ``cost`` comes from the network
  model's dissemination-barrier pricing.
* :class:`CollectiveState` — SPMD collective agreement.  Symmetric
  allocation (``shmalloc``) must return the same offset on every PE;
  the first PE to reach collective *k* computes the result, the rest
  adopt it, and a fingerprint check catches mismatched collectives
  (different sizes passed to the "same" shmalloc, a classic SPMD bug).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import nullcontext
from typing import Any, Callable

from repro.runtime.context import PEContext


class CollectiveMismatch(RuntimeError):
    """PEs disagreed about the arguments of a collective call."""


class VirtualBarrier:
    """Reusable barrier over ``num_pes`` PEs with clock reconciliation.

    Arrival bookkeeping (:meth:`arrive`) is engine-neutral float
    arithmetic; *how* a non-final arriver parks until release is the
    engine's business (:meth:`~repro.engine.base.Engine.barrier_wait` — a
    condition-variable wait on the threaded engine, a scheduler
    ``block_until`` on the cooperative engine, a heap-parked continuation
    on the event engine).  So the engine also chooses what an arrival
    locks (``make_cond``, its ``barrier_cond``): a condition on the
    threaded engine, whose release notifies it, and nothing on the
    deterministic engines, which run one PE at a time.

    The release time read at departure is stable without further
    locking: generation ``g``'s ``_release_time`` can only be
    overwritten by generation ``g+1``'s release, which requires every
    PE — including all of ``g``'s parked departers — to have arrived
    again, i.e. to have already departed ``g``.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        num_pes: int,
        *,
        aborted: Callable[[], bool],
        members: tuple | None = None,
        make_cond: Callable[[], threading.Condition] | None = threading.Condition,
    ) -> None:
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        self.num_pes = num_pes
        self._aborted = aborted
        #: Participating PEs (``None`` = all job PEs).  Survivable jobs
        #: consult this when excising a failed PE: only barriers the
        #: dead PE belonged to shrink.
        self.members = members
        # The threaded engine's ``barrier_wait`` reaches into ``_cond``
        # and ``_generation`` directly.
        self._cond = make_cond and make_cond()
        self._lock = self._cond or nullcontext()
        self._generation = 0
        self._count = 0
        self._max_arrival = 0.0
        self._release_time = 0.0
        self._last_cost = 0.0
        #: Job-unique identity; with the generation number it names one
        #: barrier *episode* for the sanitizer's happens-before graph.
        self.sync_id = next(VirtualBarrier._ids)

    @property
    def generation(self) -> int:
        """Current episode number (bumped at each release)."""
        return self._generation

    def arrive(self, ctx: PEContext, cost: float = 0.0) -> tuple[int, bool]:
        """Record one arrival; returns ``(generation, released)``.

        The final arriver computes the common release time
        ``max(arrival times) + cost``, resets the episode, bumps the
        generation, and gets ``released=True``; everyone else must park
        via the engine until the generation moves past theirs, then
        call :meth:`depart`.
        """
        with self._lock:
            gen = self._generation
            self._max_arrival = max(self._max_arrival, ctx.clock.now)
            self._count += 1
            self._last_cost = cost
            released = self._count >= self.num_pes
            if released:
                self._release(self._max_arrival + cost)
        return gen, released

    def _release(self, release_time: float) -> None:
        """End the episode at ``release_time`` (lock held) and wake the
        arrivers waiting on the condition, if there is one."""
        self._release_time = release_time
        self._count = 0
        self._max_arrival = 0.0
        self._generation += 1
        if self._cond is not None:
            self._cond.notify_all()

    def exclude(self, pe: int) -> bool:
        """Permanently excise a failed participant from the episode
        arithmetic; returns True if this released the current episode.

        The survivor release time is unchanged by *when* the exclusion
        lands relative to the survivors' arrivals: every arriver of one
        barrier passes the same ``cost``, so whether the last survivor's
        ``arrive`` or this ``exclude`` completes the episode, the
        release time is ``max(survivor arrivals) + cost`` — survivable
        runs stay bit-identical across engines.  (A crashing PE never
        holds an open arrival: the injected crash fires in the barrier's
        jitter pricing, *before* ``arrive``.)
        """
        if self.members is not None and pe not in self.members:
            return False
        with self._lock:
            self.num_pes -= 1
            released = 0 < self.num_pes <= self._count
            if released:
                self._release(self._max_arrival + self._last_cost)
        return released

    def depart(self, ctx: PEContext, gen: int) -> float:
        """Merge the episode's release time into ``ctx``'s clock and
        return it (see the class docstring for why the unlocked read
        is safe)."""
        departure = self._release_time
        ctx.clock.merge(departure)
        return departure

    def wait(self, ctx: PEContext, cost: float = 0.0) -> float:
        """Arrive at the barrier; returns the common departure time.

        ``cost`` is the virtual duration of the barrier algorithm itself
        (e.g. ``NetworkModel.barrier_cost``); the last arriver's value
        is used — callers pass the same constant.  Non-final arrivers
        park through the job engine's ``barrier_wait`` hook.
        """
        gen, released = self.arrive(ctx, cost)
        if not released:
            ctx.job.engine.barrier_wait(ctx, self, gen)
        return self.depart(ctx, gen)


class CollectiveState:
    """First-arriver-computes agreement for collective operations."""

    def __init__(self, num_pes: int, *, aborted: Callable[[], bool]) -> None:
        self.num_pes = num_pes
        self._aborted = aborted
        self._lock = threading.Lock()
        # seq -> (fingerprint, result, pes_served)
        self._entries: dict[int, tuple[str, Any, int]] = {}

    def agree(
        self,
        ctx: PEContext,
        fingerprint: str,
        compute: Callable[[], Any],
        seq: int | None = None,
    ) -> Any:
        """Return the agreed result of this PE's next collective.

        The first PE to arrive runs ``compute()``; later PEs receive the
        stored result.  ``fingerprint`` must match across PEs or
        :class:`CollectiveMismatch` is raised (on the mismatching PE).
        Entries are garbage-collected once all PEs have been served.

        ``seq`` overrides the PE's job-wide collective counter — subset
        groups supply their own per-group sequence so group collectives
        interleave safely with job-wide ones.
        """
        if seq is None:
            seq = ctx.next_collective_seq()
        with self._lock:
            entry = self._entries.get(seq)
            if entry is None:
                result = compute()
                served = 1
                if self.num_pes > 1:
                    self._entries[seq] = (fingerprint, result, served)
                return result
            fp, result, served = entry
            if fp != fingerprint:
                raise CollectiveMismatch(
                    f"collective #{seq}: PE {ctx.pe} called {fingerprint!r} "
                    f"but the first arriver called {fp!r}"
                )
            served += 1
            if served == self.num_pes:
                del self._entries[seq]
            else:
                self._entries[seq] = (fp, result, served)
            return result
