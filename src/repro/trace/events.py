"""Trace event capture.

A :class:`Tracer` keeps one event list per PE (threads never share a
list, so no locking on the hot path).  The communication layers call
:meth:`Tracer.record` when a tracer is attached to their job; with no
tracer attached the cost is one attribute read per operation.

Two capture modes exist:

* **profiling** (default) — data-path operations only, exactly what the
  per-op profile and timeline reports need;
* **sync capture** (``capture_sync=True``) — additionally records the
  synchronization fabric (every ``quiet``/``fence``, barrier episodes
  with their generation, lock acquire/release with lock identity and
  a global per-lock ticket, event/sync-images post/wait channels, and
  per-word atomic sequence numbers) plus precise byte **footprints** on
  data operations.  This is the input the happens-before sanitizer
  (:mod:`repro.trace.sanitizer`) consumes.
"""

from __future__ import annotations

import threading
import typing
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import Job

#: Operation kinds recorded by the layers.  The first eight are the
#: data/profiling ops; the rest are sync-capture-only records plus the
#: fault-injection records (``fault`` — an injected crash or exhausted
#: retry budget; ``retry`` — a transiently-failed operation that
#: succeeded after retransmission, ``calls`` counting the failed
#: attempts).  Fault records are machinery (``internal=True``) and
#: carry ``meta=("f", op)`` naming the faulted operation.
OPS = (
    "put",
    "get",
    "iput",
    "iget",
    "atomic",
    "quiet",
    "barrier",
    "am",
    "fence",
    "lock_acquire",
    "lock_release",
    "post",
    "wait",
    "fault",
    "retry",
    "fail",
)

#: Ops that move payload bytes (conflict candidates for the sanitizer).
DATA_OPS = frozenset({"put", "get", "iput", "iget", "atomic"})

#: O(1) membership check for the hot recording path.
_OPS_SET = frozenset(OPS)

#: Above this many merged intervals a footprint is coarsened to its
#: bounding span (conservative: may over-report overlap, never under-).
FOOTPRINT_CAP = 4096


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One communication operation, in virtual time.

    ``calls`` is the number of logical library calls the event covers:
    1 for ordinary operations, N for one aggregated record emitted by
    the batched plan-execution path in place of N per-call records.

    Sync-capture fields (all empty/defaulted in profiling mode):

    * ``addr`` — starting byte offset of the access in the target PE's
      heap (-1 when not applicable);
    * ``footprint`` — merged, ascending ``(start, length)`` byte
      intervals the operation touches on the target;
    * ``internal`` — the operation is synchronization machinery (lock
      protocol traffic); excluded from data-conflict checks;
    * ``meta`` — op-specific sync payload, a flat JSON-able tuple:
      ``("b", sync_id, generation)`` for barriers,
      ``("la"/"lr", lock_id, image, index, ticket)`` for lock ops,
      ``("po"/"wa", channel, ticket)`` for post/wait,
      ``("a", seq)`` for word atomics (per-word sequence number).
    """

    pe: int
    op: str
    target: int  # target PE (-1 for collectives / quiet)
    nbytes: int
    t_start: float
    t_end: float
    calls: int = 1
    addr: int = -1
    footprint: tuple = ()
    internal: bool = False
    meta: tuple = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


# ---------------------------------------------------------------------------
# Footprint helpers (byte-interval lists over the target heap)
# ---------------------------------------------------------------------------


def contiguous_footprint(addr: int, nbytes: int) -> tuple:
    """Footprint of a contiguous access."""
    return ((int(addr), int(nbytes)),) if nbytes else ()


def strided_footprint(addr: int, stride_bytes: int, elem_size: int, nelems: int) -> tuple:
    """Footprint of a 1-D strided access (``shmem_iput`` shape)."""
    if nelems <= 0:
        return ()
    if stride_bytes == elem_size or nelems == 1:
        return contiguous_footprint(addr, nelems * elem_size)
    if nelems > FOOTPRINT_CAP:  # coarsen: bounding span
        return ((int(addr), int((nelems - 1) * stride_bytes + elem_size)),)
    return tuple((int(addr + i * stride_bytes), int(elem_size)) for i in range(nelems))


def offsets_footprint(offsets: np.ndarray, elem_size: int) -> tuple:
    """Merged footprint of a batched scatter/gather (absolute byte
    offsets, one element of ``elem_size`` bytes each)."""
    if offsets.size == 0:
        return ()
    s = np.sort(np.asarray(offsets, dtype=np.int64))
    ends = s + elem_size
    breaks = np.nonzero(s[1:] > ends[:-1])[0] + 1
    starts = s[np.concatenate(([0], breaks))]
    stops = ends[np.concatenate((breaks - 1, [s.size - 1]))]
    if starts.size > FOOTPRINT_CAP:  # coarsen: bounding span
        return ((int(s[0]), int(ends[-1] - s[0])),)
    return tuple((int(a), int(b - a)) for a, b in zip(starts, stops))


def view_offsets(base: int, shape: tuple[int, ...], strides: tuple[int, ...]) -> np.ndarray:
    """Byte offset of every element of the strided view that starts at
    ``base`` with ``shape`` and byte ``strides``, in C order."""
    offs = np.full(1, base, dtype=np.int64)
    for count, stride in zip(shape, strides):
        offs = (offs[:, None] + np.arange(count, dtype=np.int64) * stride).reshape(-1)
    return offs


def resolve_footprint(fp: tuple) -> tuple:
    """Materialize a deferred footprint descriptor.

    The data plane records footprints as cheap descriptors
    instead of computing the merged interval list inside the hot loop —
    a tuple whose first element is a string tag (real footprints start
    with an ``(offset, length)`` tuple, so the two cannot collide):

    * ``("@str", addr, stride_bytes, elem_size, nelems)`` — a 1-D
      strided access (:func:`strided_footprint` arguments);
    * ``("@view", base, shape, byte_strides, elem_size)`` — a batched
      plan access: the section's strided view of the target heap, its
      first element at byte ``base`` (:func:`view_offsets`).

    Resolution happens once, at trace *read* time (the ``events``
    property), so ``capture_sync=True`` no longer taxes the data path.
    Already-concrete footprints pass through unchanged.
    """
    if not fp or not isinstance(fp[0], str):
        return fp
    tag = fp[0]
    if tag == "@str":
        return strided_footprint(fp[1], fp[2], fp[3], fp[4])
    if tag == "@view":
        return offsets_footprint(view_offsets(fp[1], fp[2], fp[3]), fp[4])
    raise ValueError(f"unknown deferred footprint tag {tag!r}")


class Tracer:
    """Per-job event capture.

    Recording is split into a hot and a cold half: :meth:`record`
    appends one plain tuple to a per-PE pool (no dataclass construction,
    no footprint math), and the :attr:`events` property materializes
    pooled records into :class:`TraceEvent` objects — resolving any
    deferred footprint descriptors — the first time the trace is
    actually read.  Readers (reports, serialization, the sanitizer,
    tests) see exactly the list-of-lists-of-events they always did;
    reading mid-run only guarantees visibility of events recorded
    before the read, as before.
    """

    def __init__(self, job: "Job", capture_sync: bool = False) -> None:
        self.job = job
        self.capture_sync = capture_sync
        self._events: list[list[TraceEvent]] = [[] for _ in range(job.num_pes)]
        self._pool: list[list[tuple]] = [[] for _ in range(job.num_pes)]
        self._mat_lock = threading.Lock()
        # Sync bookkeeping (cold path; one small lock).
        self._tls = threading.local()
        self._sync_lock = threading.Lock()
        self._lock_tickets: dict = {}
        self._lock_holds: dict = {}

    @property
    def events(self) -> list[list[TraceEvent]]:
        """Per-PE event lists (materializes any pooled raw records)."""
        self._materialize()
        return self._events

    def _materialize(self) -> None:
        if not any(self._pool):
            return
        with self._mat_lock:
            for pe, pool in enumerate(self._pool):
                if not pool:
                    continue
                self._pool[pe] = []
                self._events[pe].extend(
                    TraceEvent(
                        pe=r[0], op=r[1], target=r[2], nbytes=r[3],
                        t_start=r[4], t_end=r[5], calls=r[6], addr=r[7],
                        footprint=resolve_footprint(r[8]),
                        internal=r[9], meta=r[10],
                    )
                    for r in pool
                )

    # ------------------------------------------------------------------
    # Sync-capture bookkeeping
    # ------------------------------------------------------------------
    @contextmanager
    def sync_internal(self):
        """Mark operations recorded inside the block as lock/sync
        machinery (``internal=True``) — excluded from conflict checks."""
        depth = getattr(self._tls, "depth", 0)
        self._tls.depth = depth + 1
        try:
            yield
        finally:
            self._tls.depth = depth

    @property
    def in_sync_internal(self) -> bool:
        return getattr(self._tls, "depth", 0) > 0

    def begin_hold(self, key, pe: int) -> int:
        """Assign the next global acquisition ticket for lock ``key``.

        Callers invoke this while holding the lock, so ticket order
        equals true acquisition order.
        """
        with self._sync_lock:
            ticket = self._lock_tickets.get(key, 0) + 1
            self._lock_tickets[key] = ticket
            self._lock_holds[(key, pe)] = ticket
            return ticket

    def end_hold(self, key, pe: int) -> int:
        """The ticket of ``pe``'s current hold of ``key`` (-1 unknown)."""
        with self._sync_lock:
            return self._lock_holds.pop((key, pe), -1)

    # ------------------------------------------------------------------
    def record(
        self,
        pe: int,
        op: str,
        target: int,
        nbytes: int,
        t_start: float,
        t_end: float,
        calls: int = 1,
        *,
        addr: int = -1,
        footprint: tuple = (),
        internal: bool | None = None,
        meta: tuple = (),
    ) -> None:
        if op not in _OPS_SET:
            raise ValueError(f"unknown trace op {op!r}; expected {OPS}")
        if internal is None:
            internal = self.in_sync_internal
        self._pool[pe].append(
            (pe, op, target, nbytes, t_start, t_end, calls, addr, footprint,
             internal, meta)
        )

    # ------------------------------------------------------------------
    def all_events(self) -> list[TraceEvent]:
        """Every event, ordered by start time."""
        out = [e for per_pe in self.events for e in per_pe]
        out.sort(key=lambda e: (e.t_start, e.pe))
        return out

    def count(self, op: str | None = None) -> int:
        if op is None:
            return sum(len(v) for v in self.events)
        return sum(1 for v in self.events for e in v if e.op == op)

    def bytes_moved(self) -> int:
        return sum(e.nbytes for v in self.events for e in v)

    def comm_time(self, pe: int) -> float:
        """Total virtual time PE spent inside communication calls."""
        return sum(e.duration for e in self.events[pe])

    def profile(self):
        """Aggregate per-operation statistics (a renderable table)."""
        from repro.trace.report import render_profile

        return render_profile(self)

    def timeline(self, pe: int, width: int = 72) -> str:
        from repro.trace.report import render_timeline

        return render_timeline(self, pe, width)


def attach(job: "Job", capture_sync: bool = False) -> Tracer:
    """Attach (or return the existing) tracer to a job.

    ``capture_sync=True`` turns on sync-edge capture (see module
    docstring); on an already-attached tracer it upgrades the mode.
    """
    tracer = getattr(job, "tracer", None)
    if tracer is None:
        tracer = Tracer(job, capture_sync=capture_sync)
        job.tracer = tracer
    elif capture_sync:
        tracer.capture_sync = True
    return tracer


def trace_digest(tracer: Tracer) -> str:
    """Digest of a tracer's full event stream, virtual times included.

    Deterministic runs (the cooperative and event engines) replay it
    bit-identically, timestamps and all; the determinism and
    engine-equivalence suites hang off this.
    """
    import hashlib

    h = hashlib.sha256()
    for pe_events in tracer.events:
        for e in pe_events:
            h.update(
                f"{e.pe}|{e.op}|{e.target}|{e.nbytes}|{e.t_start!r}|"
                f"{e.t_end!r}|{e.calls}\n".encode()
            )
        h.update(b"--\n")
    return h.hexdigest()
