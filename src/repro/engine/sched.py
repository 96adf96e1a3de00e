"""The park/wake core under both deterministic engines (docs/MODEL.md §9).

Every blocking point of the CAF-over-OpenSHMEM mapping is a barrier or
a ``shmem_wait_until`` spin on local memory.  :class:`ParkCore` holds
the PEs parked on them for the event engine (a heap driver) and the
cooperative engine (a thread hand-off driver), keeps the one set of
counters (docs/API.md) and builds the one bounded deadlock report.  The
drivers decide when to poll and what resuming a PE means.
"""

from __future__ import annotations

import threading

from repro.engine.base import EngineError
from repro.runtime.memory import PEMemory, zeroed_heaps


class DeadlockError(EngineError):
    """Every unfinished PE is parked and nothing can release one."""


def value_or_failed(predicate, failed, target: int):
    """A wait's wake test: the value, or a survivable writer's death."""
    if failed is None or target < 0:
        return predicate
    return lambda: predicate() or failed(target)


class WakeHook(threading.Condition):
    """A PE memory's lock and notify hook: ``notify_all()`` lists the
    owning PE as dirty when it is parked on a value.  Nothing waits on a
    hook, so all it uses of a condition is the lock: the one argument the
    drivers pass differently, and None (no condition state at all) on
    the event engine's single OS thread."""

    def __init__(self, pe: int, values: list, dirty: list, lock=None) -> None:
        if lock is not None:
            super().__init__(lock)
        self._lock, self._pe, self._values, self._dirty = lock, pe, values, dirty

    def __enter__(self):
        if self._lock is not None:
            self._lock.acquire()

    def __exit__(self, *exc) -> None:
        if self._lock is not None:
            self._lock.release()

    def notify_all(self) -> None:
        if self._values[self._pe] is not None:
            self._dirty.append(self._pe)


class _HookedMemory(PEMemory):
    def __init__(self, nbytes: int, buf, hook: WakeHook) -> None:
        self._hook = hook  # read by the _make_cond hook in the base __init__
        super().__init__(nbytes, buf)

    def _make_cond(self):
        return self._hook


class ParkCore:
    """The parked PEs of one job: value waiters (one slot per PE,
    re-polled once a write to their own memory marks them dirty),
    barrier episodes in arrival order, and unsourced waiters (re-polled
    at every :meth:`ready`).  A death can end any survivable wait, so
    the failure wake-up notifies every value waiter."""

    def __init__(self, num_pes: int) -> None:
        #: Per PE, ``(predicate, reason, data)`` while parked on a value.
        self.values: list = [None] * num_pes
        self.dirty: list[int] = []  # value waiters notified since the last poll
        #: ``(barrier, generation)`` -> ``[(pe, ...)]`` in arrival order.
        self.episodes: dict = {}
        self.polled: dict = {}  # pe -> (predicate, reason)
        self.parks = self.repolls = self.wakes = self.notified = 0
        self.released = self.max_parked = 0  # episode arrivals: all, most at once

    def memories(self, heap_bytes: int, make_lock=None) -> list:
        """The job's memories, each locked by a ``make_lock()`` if given."""
        return [_HookedMemory(heap_bytes, buf, WakeHook(
            pe, self.values, self.dirty, make_lock and make_lock()))
            for pe, buf in enumerate(zeroed_heaps(len(self.values), heap_bytes))]

    def park_value(self, pe: int, predicate, reason: str, data=None) -> None:
        """Park ``pe`` until a write to its own memory makes ``predicate`` hold."""
        self.values[pe] = (predicate, reason, data)
        self.parks += 1

    def park_barrier(self, key: tuple, arrival: tuple) -> None:
        """Park PE ``arrival[0]`` (the rest is the driver's) in episode ``key``."""
        self.episodes.setdefault(key, []).append(arrival)

    def park_polled(self, pe: int, predicate, reason: str) -> None:
        self.polled[pe] = (predicate, reason)
        self.parks += 1

    def forget(self, pe: int) -> None:
        """Drop ``pe`` wherever it is parked (its thread unwound)."""
        self.values[pe] = None
        self.polled.pop(pe, None)
        for arrivals in self.episodes.values():
            arrivals[:] = [a for a in arrivals if a[0] != pe]

    def release(self, key: tuple) -> list:
        """Unpark episode ``key``: its arrivals, in arrival order."""
        arrivals = self.episodes.pop(key, ())
        self.released += len(arrivals)
        self.max_parked = max(self.max_parked, len(arrivals))
        return arrivals

    def wake_dirty(self) -> list:
        """Re-poll notified value waiters; unpark and return ``(pe, data)`` of those that hold."""
        dirty, values = self.dirty, self.values
        self.notified += len(dirty)
        woken = []
        for pe in dict.fromkeys(dirty):
            w = values[pe]
            if w is not None:
                self.repolls += 1
                if w[0]():
                    values[pe] = None
                    woken.append((pe, w[2]))
        dirty.clear()
        self.wakes += len(woken)
        return woken

    def fail(self) -> None:
        """The failure wake-up: notify every value waiter."""
        self.dirty.extend(pe for pe, w in enumerate(self.values) if w is not None)

    def ready(self) -> list[int]:
        """Unpark and return every PE whose wake source fired and whose
        predicate holds (an episode's, once its generation moved)."""
        woken = [pe for pe, _ in self.wake_dirty()] if self.dirty else []
        if self.episodes:
            for key in [k for k in self.episodes if k[0]._generation != k[1]]:
                woken += [arrival[0] for arrival in self.release(key)]
        if self.polled:
            self.repolls += len(self.polled)
            for pe in [pe for pe, (holds, _) in self.polled.items() if holds()]:
                del self.polled[pe]
                self.wakes += 1
                woken.append(pe)
        return woken

    def counts(self) -> dict[str, int]:
        """The shared counters (docs/API.md): a park is one failed probe."""
        held = [len(a) for a in self.episodes.values()]
        parks = self.parks + self.released + sum(held)
        return {"parks": parks, "polls": parks + self.repolls,
                "wakes": self.wakes + self.released,
                "dirty": self.notified + len(self.dirty),
                "max_parked": max([self.max_parked, *held])}

    def deadlock(self, head: str, failed) -> DeadlockError:
        """The report: counts, failed PEs, and (at most 6) parked PE lines."""
        stuck = sorted([
            *((pe, w[1]) for pe, w in enumerate(self.values) if w is not None),
            *((pe, f"barrier(sync_id={bar.sync_id}, gen={gen})")
              for (bar, gen), arrivals in self.episodes.items() for pe, *_ in arrivals),
            *((pe, reason or "<unnamed wait>") for pe, (_, reason) in self.polled.items()),
        ])
        pes = [str(pe) for pe, _ in stuck]
        lines = [f"  PE {pe} blocked in {reason}" for pe, reason in stuck]
        if len(stuck) > 6:
            pes[3:-3] = ["..."]
            lines[3:-3] = [f"  ... {len(stuck) - 6} more"]
        return DeadlockError("\n".join([
            f"{head}; {len(stuck)} parked PE(s) [{', '.join(pes)}]; "
            f"failed PE(s): {list(failed) or 'none'}", *lines,
        ]))
