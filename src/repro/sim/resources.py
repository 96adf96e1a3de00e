"""Serialized virtual-time resources.

A :class:`Timeline` models a resource that can serve one request at a
time — a NIC injection engine, a NIC atomic unit, a link direction, or a
target CPU servicing active messages.  Requests *reserve* an interval;
overlapping demand queues up in virtual time, which is how the model
produces contention (e.g. the paper's 16-pairs-per-node runs share one
NIC per node and see lower per-pair bandwidth).

Timelines are shared between PE threads and therefore thread-safe.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable

import numpy as np


def chain_last(x: float, deltas: tuple[float, ...], n: int) -> float:
    """``cumsum([x, *deltas * n])[-1]`` bit for bit: the final value of
    ``n`` periods of sequential float additions, for chains whose
    intermediate values nobody reads.

    Inside one binade ``[2**e, 2**(e+1))`` every float is a multiple of
    the ulp, so adding a fixed non-negative delta moves every x in the
    binade by the same rounded step — unless the delta ends in exactly
    half an ulp, where round-half-even makes the step depend on the
    parity of ``x / ulp``.  When one period's rounded step is the same
    taken from ``x`` and from ``nextafter(x, inf)`` (which rules out a
    tie at any of its additions), the chain is an exact arithmetic
    progression until it reaches the binade's top, and that whole
    stretch is one multiply-add.  Everything else — ``x == 0``, a tie,
    a period that crosses the top, a negative delta — takes one scalar
    period.  Host work is therefore O(binades crossed), not O(n).
    """
    x = float(x)
    if n <= 0 or not deltas:
        return x
    monotone = min(deltas) >= 0.0
    k = 0
    while k < n:
        if monotone and 0.0 < x < math.inf:
            top = math.ldexp(1.0, math.frexp(x)[1])
            y = x
            for d in deltas:
                y += d
            x1 = math.nextafter(x, math.inf)
            y1 = x1
            for d in deltas:
                y1 += d
            step = y - x  # exact: y and x share a binade
            if y1 < top and y1 - x1 == step:
                if step == 0.0:
                    return float(x)
                # Whole periods that end below the top; x + j*step is
                # exact there and >= top (faithfully) past it.
                j = min(n - k, int((top - x) / step))
                while x + j * step >= top:
                    j -= 1
                x += j * step
                k += j
                continue
        for d in deltas:
            x += d
        k += 1
    return float(x)  # a Python float even when a delta is np.float64


def _chain_starts(
    earliest: np.ndarray, duration: float, next_free: float
) -> np.ndarray:
    """Start times of back-to-back FCFS reservations, bit-for-bit equal
    to calling :meth:`Timeline.reserve` once per element.

    The recurrence is ``start[k] = max(earliest[k], start[k-1] +
    duration)`` with ``start[-1] + duration`` seeded by ``next_free``.
    Floating-point addition is not associative, so a closed form like
    ``start[0] + k*duration`` would drift by ULPs from the sequential
    path.  The array is instead consumed as alternating stretches:

    * **queue-bound** stretches (each element waits on its predecessor)
      are materialized with ``np.cumsum``, whose running sum performs
      exactly the repeated additions the scalar loop would;
    * **earliest-bound** stretches (each element's earliest time is at
      or past the previous reservation's end, the shape produced by the
      network model's self-synchronized chains) copy ``earliest``
      verbatim, which is what the scalar ``max`` would pick.

    Stretch boundaries for the earliest-bound case come from one O(n)
    precomputed comparison vector plus a binary search per stretch, so
    even pathological alternation stays near-linear — the previous
    pass-per-stretch scheme degenerated to a pass per *element* on
    fully self-synchronized chains (the 2dim-sweep wallclock
    regression).
    """
    n = earliest.shape[0]
    out = np.empty(n, dtype=np.float64)
    free = float(next_free)
    # Positions j where earliest[j+1] < earliest[j] + duration, i.e.
    # where an earliest-bound stretch must end.  Built lazily: fully
    # queue-bound inputs never need it.
    bad = None
    i = 0
    while i < n:
        e0 = earliest[i]
        start = e0 if e0 >= free else free
        out[i] = start
        if i + 1 == n:
            return out
        if earliest[i + 1] >= start + duration:
            # Earliest-bound stretch: out[k] = earliest[k] while each
            # element clears its predecessor's end (identical values,
            # identical comparisons — the adds below replay the scalar
            # path's ``start + duration``).
            if bad is None:
                cons = earliest[1:] >= earliest[:-1] + duration
                bad = np.nonzero(~cons)[0]
            j = int(np.searchsorted(bad, i + 1))
            m = int(bad[j]) + 1 if j < bad.size else n
            out[i + 1 : m] = earliest[i + 1 : m]
            free = float(earliest[m - 1] + duration)
            i = m
            continue
        # Queue-bound stretch: chain[j] assumes the queue never drains;
        # valid while the next element's earliest does not exceed it.
        seg = np.empty(n - i, dtype=np.float64)
        seg[0] = start
        seg[1:] = duration
        chain = np.cumsum(seg)
        late = np.nonzero(earliest[i + 1 : n] > chain[1:])[0]
        if late.size == 0:
            out[i:] = chain
            return out
        j = int(late[0]) + 1
        out[i : i + j] = chain[:j]
        free = float(chain[j])  # == chain[j-1] + duration, the drained queue end
        i += j
    return out


class Timeline:
    """First-come-first-served resource reservation in virtual time."""

    __slots__ = ("name", "_next_free", "_busy_time", "_reservations", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._next_free = 0.0
        self._busy_time = 0.0
        self._reservations = 0
        # Reentrant so that reserve_chain can call reserve and the batch
        # primitives inside its own hold of the lock.
        self._lock = threading.RLock()

    def reserve(self, earliest: float, duration: float) -> tuple[float, float]:
        """Reserve ``duration`` microseconds starting no earlier than
        ``earliest``; returns ``(start, end)``.

        The resource is strictly serialized: the reservation starts at
        ``max(earliest, next_free)`` and pushes ``next_free`` to its end.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if earliest < 0:
            raise ValueError("earliest must be non-negative")
        with self._lock:
            start = max(earliest, self._next_free)
            end = start + duration
            self._next_free = end
            self._busy_time += duration
            self._reservations += 1
            return start, end

    def reserve_batch(self, earliest: np.ndarray, duration: float) -> np.ndarray:
        """Reserve ``len(earliest)`` back-to-back intervals of ``duration``
        each; returns the array of start times.

        Bit-identical to calling :meth:`reserve` once per element in
        order (same ``_next_free``, ``_busy_time`` and start times), but
        under one lock acquisition and vectorized chain arithmetic.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        n = earliest.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.float64)
        with self._lock:
            starts = _chain_starts(earliest, duration, self._next_free)
            self._next_free = float(starts[-1] + duration)
            # busy_time accumulates by repeated addition in the scalar
            # path; chain_last replays those additions exactly.
            self._busy_time = chain_last(self._busy_time, (duration,), n)
            self._reservations += n
            return starts

    def push_batch(self, final_next_free: float, count: int, duration: float) -> None:
        """Account ``count`` reservations whose start times the caller
        already computed (self-synchronized chains that provably never
        queue behind ``_next_free``).

        ``final_next_free`` is the end of the last reservation; the
        caller guarantees it is ``>=`` the current ``_next_free``.
        """
        if count <= 0:
            return
        with self._lock:
            if final_next_free > self._next_free:
                self._next_free = float(final_next_free)
            self._busy_time = chain_last(self._busy_time, (duration,), count)
            self._reservations += count

    def reserve_chain(
        self, earliest: float, duration: float, count: int, last_end: float | None,
        chain: Callable[[float], np.ndarray],
    ) -> np.ndarray | None:
        """Reserve ``count`` back-to-back calls of ``duration`` in one
        hold of the lock, so no other reservation lands inside the chain.

        The first call is reserved at ``earliest``.  If it does not
        queue and the caller has a closed form — ``last_end``, the end
        of the last call when every later call starts at its own
        earliest time — the other ``count - 1`` calls are accounted with
        :meth:`push_batch` and None is returned.  Otherwise
        ``chain(start)`` gives every call's earliest time after a first
        call that started at ``start``; the later calls go through
        :meth:`reserve_batch`, and every call's start is returned.
        """
        with self._lock:
            start, _ = self.reserve(earliest, duration)
            if last_end is not None and start == earliest:
                self.push_batch(last_end, count - 1, duration)
                return None
            starts = chain(start)
            starts[0] = start
            starts[1:] = self.reserve_batch(starts[1:], duration)
            return starts

    @property
    def next_free(self) -> float:
        with self._lock:
            return self._next_free

    @property
    def busy_time(self) -> float:
        """Total reserved virtual time (utilization numerator)."""
        with self._lock:
            return self._busy_time

    @property
    def reservations(self) -> int:
        with self._lock:
            return self._reservations

    def reset(self) -> None:
        with self._lock:
            self._next_free = 0.0
            self._busy_time = 0.0
            self._reservations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Timeline({self.name!r}, next_free={self._next_free:.3f}us)"
