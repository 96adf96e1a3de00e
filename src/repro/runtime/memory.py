"""A PE's remotely-accessible memory.

One :class:`PEMemory` per PE backs its symmetric heap, a view into a
zeroed slab (:func:`zeroed_heaps`, docs/MODEL.md §7).  Remote writers
deposit bytes with :meth:`write` (our stand-in for RDMA into a
registered segment); local and remote readers copy out with
:meth:`read`.  Every write publishes a virtual timestamp and notifies a
condition variable, which is how blocking primitives
(``shmem_wait_until``, the MCS lock's local spin on its qnode's
``locked`` field) sleep without busy-waiting and how the waiter's
virtual clock learns *when* the awaited value arrived.

Atomic read-modify-write operations take the same lock as plain
accesses, so atomics are atomic with respect to everything — a stronger
guarantee than hardware gives, but the paper's algorithms only require
atomicity among AMOs on the same 8-byte word.
"""

from __future__ import annotations

import mmap
import threading
from typing import Callable

import numpy as np

PAGE_BYTES = 4096
#: Largest zeroed slab heaps are cut from; a larger heap gets its own.
SLAB_BYTES = 1 << 30


def zeroed_heaps(count: int, nbytes: int) -> list[np.ndarray]:
    """``count`` zero-filled ``nbytes`` heaps, cut at a page-rounded
    stride from anonymous mappings (slabs) of at most ``SLAB_BYTES``:
    zero pages the kernel fills in a page at a time on first touch, not
    a memset per heap (docs/MODEL.md §7)."""
    if nbytes <= 0:
        raise ValueError("memory size must be positive")
    stride = -(-nbytes // PAGE_BYTES) * PAGE_BYTES
    per_slab = max(1, SLAB_BYTES // stride)
    heaps = []
    for first in range(0, count, per_slab):
        n = min(per_slab, count - first)
        slab = np.frombuffer(mmap.mmap(-1, n * stride, flags=mmap.MAP_PRIVATE), np.uint8)
        heaps += [slab[i * stride : i * stride + nbytes] for i in range(n)]
    return heaps


class PEMemory:
    """Byte-addressable, notification-capable memory of one PE: ``buf``
    (``nbytes`` zeroed ``uint8``), or a buffer of its own."""

    def __init__(self, nbytes: int, buf: np.ndarray | None = None) -> None:
        if nbytes <= 0:
            raise ValueError("memory size must be positive")
        self.nbytes = nbytes
        self._buf = np.zeros(nbytes, dtype=np.uint8) if buf is None else buf
        self._cond = self._make_cond()
        self._last_write_time = 0.0
        # Virtual timestamps of the last atomic update per word offset:
        # an atomic that *observes* a value cannot logically complete
        # before the write that produced it (lock handoff causality).
        self._word_times: dict[int, float] = {}
        # Wall-order sequence number of atomic updates per word; the
        # sanitizer chains same-word atomics into happens-before edges.
        self._word_seq: dict[int, int] = {}
        # Whole-heap typed views per atomic dtype, built on first use.
        self._typed: dict = {}

    def _make_cond(self):
        """The lock/notify object; the one hook a subclass overrides
        (the deterministic engines substitute a ``WakeHook``, see
        :mod:`repro.engine.sched`)."""
        return threading.Condition()

    def _note_write(self, timestamp: float) -> None:
        """Publish a write's virtual completion timestamp (called with
        ``self._cond`` held)."""
        if timestamp > self._last_write_time:
            self._last_write_time = timestamp

    # ------------------------------------------------------------------
    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise IndexError(
                f"access [{offset}, {offset + length}) outside heap of {self.nbytes} bytes"
            )

    def _check_strided(
        self,
        offset: int,
        stride_bytes: int,
        elem_size: int,
        nelems: int,
        kind: str = "write",
    ) -> None:
        """Bounds check for a strided access, computed arithmetically —
        no index array is materialized just to take its min/max."""
        last = offset + (nelems - 1) * stride_bytes
        lo = offset if offset <= last else last
        hi = (offset if offset >= last else last) + elem_size
        if lo < 0 or hi > self.nbytes:
            raise IndexError(f"strided {kind} escapes the heap")

    # ------------------------------------------------------------------
    def write(self, offset: int, data: np.ndarray | bytes, timestamp: float) -> None:
        """Deposit ``data`` at ``offset`` and wake any waiters.

        ``timestamp`` is the virtual remote-completion time of the
        transfer; waiters whose predicate becomes true merge it into
        their clocks.
        """
        if type(data) is np.ndarray and data.ndim == 1 and data.flags.c_contiguous:
            size = data.itemsize
            if data.size == 1 and size <= 8 and not offset % size and data.dtype.kind in "iufc":
                self._write_word(offset, data, timestamp)
                return
            raw = data.view(np.uint8)
        elif isinstance(data, (bytes, bytearray)):
            raw = np.frombuffer(data, dtype=np.uint8)
        else:
            raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self._check_range(offset, raw.size)
        with self._cond:
            self._buf[offset : offset + raw.size] = raw
            self._note_write(timestamp)
            self._cond.notify_all()

    def _write_word(self, offset: int, data: np.ndarray, timestamp: float) -> None:
        """:meth:`write` of one aligned numeric element (an 8-byte put):
        stored through the whole-heap typed view the atomics use, which
        copies the element's bytes as they are (NaN payloads included)."""
        dt = data.dtype
        typed = self._typed.get(dt)
        if typed is None:
            typed = self._typed[dt] = self._buf[: self.nbytes - self.nbytes % dt.itemsize].view(dt)
        self._check_range(offset, dt.itemsize)
        with self._cond:
            typed[offset // dt.itemsize] = data[0]
            self._note_write(timestamp)
            self._cond.notify_all()

    def write_strided(
        self,
        offset: int,
        stride_bytes: int,
        elem_size: int,
        data: np.ndarray | bytes,
        timestamp: float,
    ) -> None:
        """Scatter ``nelems`` elements of ``elem_size`` bytes starting at
        ``offset`` with a byte stride, under one lock acquisition — the
        functional half of a native ``shmem_iput``."""
        raw = (
            np.frombuffer(data, dtype=np.uint8)
            if isinstance(data, (bytes, bytearray))
            else np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        )
        if elem_size <= 0 or raw.size % elem_size:
            raise ValueError("data length must be a multiple of elem_size")
        nelems = raw.size // elem_size
        if nelems == 0:
            return
        self._check_strided(offset, stride_bytes, elem_size, nelems)
        with self._cond:
            if stride_bytes >= elem_size:
                dst = np.lib.stride_tricks.as_strided(
                    self._buf[offset:],
                    shape=(nelems, elem_size),
                    strides=(stride_bytes, 1),
                )
                dst[:, :] = raw.reshape(nelems, elem_size)
            else:
                idx = (offset + np.arange(nelems) * stride_bytes)[:, None] + np.arange(elem_size)[None, :]
                self._buf[idx.ravel()] = raw
            self._note_write(timestamp)
            self._cond.notify_all()

    def read_strided(
        self, offset: int, stride_bytes: int, elem_size: int, nelems: int
    ) -> np.ndarray:
        """Gather ``nelems`` strided elements into a contiguous copy —
        the functional half of a native ``shmem_iget``."""
        if nelems < 0 or elem_size <= 0:
            raise ValueError("nelems must be >= 0 and elem_size > 0")
        if nelems == 0:
            return np.empty(0, dtype=np.uint8)
        self._check_strided(offset, stride_bytes, elem_size, nelems, kind="read")
        with self._cond:
            if stride_bytes >= elem_size:
                src = np.lib.stride_tricks.as_strided(
                    self._buf[offset:],
                    shape=(nelems, elem_size),
                    strides=(stride_bytes, 1),
                )
                return np.ascontiguousarray(src).reshape(-1)
            idx = (offset + np.arange(nelems) * stride_bytes)[:, None] + np.arange(elem_size)[None, :]
            return self._buf[idx.ravel()].copy()

    _VIEW_DTYPES = {2: np.uint16, 4: np.uint32, 8: np.uint64}

    def _plan_index(
        self, offsets: np.ndarray, elem_size: int, aligned: bool | None
    ) -> tuple[np.ndarray, int, int, bool]:
        """Compile absolute byte ``offsets`` into the ``(index, lo, hi,
        expanded)`` argument set of :meth:`scatter_at` / :meth:`gather_at`:
        element indices into the ``elem_size`` view when every offset is
        aligned (``aligned=None`` means check here), a byte-expanded
        index otherwise."""
        lo = int(offsets.min())
        hi = int(offsets.max()) + elem_size
        if elem_size == 1:
            return offsets, lo, hi, False
        if elem_size in self._VIEW_DTYPES:
            if aligned is None:
                aligned = not (offsets % elem_size).any()
            if aligned:
                return offsets // elem_size, lo, hi, False
        index = (offsets[:, None] + np.arange(elem_size)[None, :]).ravel()
        return index, lo, hi, True

    def write_at(
        self,
        offsets: np.ndarray,
        elem_size: int,
        data: np.ndarray | bytes,
        timestamp: float,
        *,
        aligned: bool | None = None,
    ) -> None:
        """Scatter one ``elem_size``-byte element per entry of ``offsets``
        (absolute byte offsets): :meth:`scatter_at` for callers that hold
        offsets rather than a precompiled index.

        ``aligned`` may assert that every offset is a multiple of
        ``elem_size``; ``None`` means check here.
        """
        raw = (
            np.frombuffer(data, dtype=np.uint8)
            if isinstance(data, (bytes, bytearray))
            else np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        )
        if elem_size <= 0 or raw.size != offsets.shape[0] * elem_size:
            raise ValueError("data length must equal len(offsets) * elem_size")
        if offsets.shape[0] == 0:
            return
        index, lo, hi, expanded = self._plan_index(offsets, elem_size, aligned)
        self.scatter_at(
            index, raw, timestamp, elem_size=elem_size, lo=lo, hi=hi, expanded=expanded
        )

    def read_at(
        self,
        offsets: np.ndarray,
        elem_size: int,
        *,
        aligned: bool | None = None,
    ) -> np.ndarray:
        """Gather one element per entry of ``offsets`` into a contiguous
        ``uint8`` copy (element order preserved): :meth:`gather_at` for
        callers that hold offsets rather than a precompiled index."""
        if elem_size <= 0:
            raise ValueError("elem_size must be positive")
        if offsets.shape[0] == 0:
            return np.empty(0, dtype=np.uint8)
        index, lo, hi, expanded = self._plan_index(offsets, elem_size, aligned)
        return self.gather_at(index, elem_size=elem_size, lo=lo, hi=hi, expanded=expanded)

    def scatter_at(
        self,
        index: np.ndarray,
        data: np.ndarray,
        timestamp: float,
        *,
        elem_size: int,
        lo: int,
        hi: int,
        expanded: bool = False,
    ) -> None:
        """Scatter a whole transfer plan as one fancy-indexed copy, under
        a **single** lock acquisition and one ``notify_all``.

        For callers that hold a *precomputed* index array (a cached
        :class:`~repro.comm.base.BatchSpec`): ``index`` is already in
        the granularity the copy needs — element indices into the
        ``elem_size``-wide view of the heap (``expanded=False``; byte
        offsets when ``elem_size == 1``), or per-byte offsets
        (``expanded=True``, the path for unaligned bases and view-less
        element sizes).  ``[lo, hi)`` are the absolute byte bounds of
        the access, also precomputed, so the range check is O(1) — no
        per-call min/max/divmod over the index array.
        """
        if lo < 0 or hi > self.nbytes:
            raise IndexError(
                f"batched access [{lo}, {hi}) outside heap of {self.nbytes} bytes"
            )
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        with self._cond:
            if expanded or elem_size == 1:
                self._buf[index] = raw
            else:
                dt = self._VIEW_DTYPES[elem_size]
                usable = self.nbytes - self.nbytes % elem_size
                self._buf[:usable].view(dt)[index] = raw.view(dt)
            self._note_write(timestamp)
            self._cond.notify_all()

    def gather_at(
        self,
        index: np.ndarray,
        *,
        elem_size: int,
        lo: int,
        hi: int,
        expanded: bool = False,
    ) -> np.ndarray:
        """Gather a whole transfer plan into a contiguous ``uint8`` copy
        under one lock; see :meth:`scatter_at` for the ``index``/bounds
        contract."""
        if lo < 0 or hi > self.nbytes:
            raise IndexError(
                f"batched access [{lo}, {hi}) outside heap of {self.nbytes} bytes"
            )
        with self._cond:
            # Fancy indexing already yields a fresh contiguous copy.
            if expanded or elem_size == 1:
                return self._buf[index]
            dt = self._VIEW_DTYPES[elem_size]
            usable = self.nbytes - self.nbytes % elem_size
            return self._buf[:usable].view(dt)[index].view(np.uint8).reshape(-1)

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """Copy ``nbytes`` starting at ``offset`` out of the heap."""
        self._check_range(offset, nbytes)
        with self._cond:
            return self._buf[offset : offset + nbytes].copy()

    def read_scalar(self, offset: int, dtype: np.dtype) -> np.generic:
        """Read one scalar of ``dtype`` at ``offset`` (atomic snapshot)."""
        dt = np.dtype(dtype)
        self._check_range(offset, dt.itemsize)
        with self._cond:
            return self._buf[offset : offset + dt.itemsize].view(dt)[0]

    def local_view(self, offset: int, nbytes: int) -> np.ndarray:
        """A zero-copy view for the *owning* PE's local accesses.

        Mutating the view does not notify waiters; local stores that a
        remote PE may be spinning on must go through :meth:`write`.
        """
        self._check_range(offset, nbytes)
        return self._buf[offset : offset + nbytes]

    # ------------------------------------------------------------------
    def atomic_rmw(
        self,
        offset: int,
        dtype: np.dtype,
        fn: Callable[[np.generic], np.generic | int | float],
        timestamp: float,
    ) -> np.generic:
        """Atomically apply ``fn(old) -> new`` to the scalar at ``offset``.

        Returns the old value.  Waiters are notified because lock
        hand-off protocols (MCS) release by atomically updating words
        other PEs wait on.
        """
        old, _, _ = self.atomic_rmw_timed(offset, dtype, fn, timestamp)
        return old

    def atomic_rmw_timed(
        self,
        offset: int,
        dtype: np.dtype,
        fn: Callable[[np.generic], np.generic | int | float],
        timestamp: float,
    ) -> tuple[np.generic, float, int]:
        """Like :meth:`atomic_rmw`, additionally returning the virtual
        timestamp of the previous atomic update to this word and this
        update's per-word sequence number (1-based, wall order).

        The caller uses the timestamp for causality: an atomic that
        observed a value deposited at time T cannot complete before T
        plus the response leg — this is what makes lock handoff chains
        (MCS release->acquire, test-and-set release->winning retry)
        consume virtual time instead of being free.  The sequence number
        feeds the sanitizer's same-word atomic ordering edges.
        """
        typed = self._typed.get(dtype)
        if typed is None:
            dt = np.dtype(dtype)
            typed = self._typed[dtype] = self._buf[: self.nbytes - self.nbytes % dt.itemsize].view(dt)
        size = typed.itemsize
        self._check_range(offset, size)
        with self._cond:
            if offset % size:
                view = self._buf[offset : offset + size].view(typed.dtype)
                old = view[0].copy()
                view[0] = fn(old)
            else:
                # Integer indexing yields a fresh scalar, not a view.
                i = offset // size
                old = typed[i]
                typed[i] = fn(old)
            prev_time = self._word_times.get(offset, 0.0)
            self._word_times[offset] = prev_time if prev_time > timestamp else timestamp
            seq = self._word_seq.get(offset, 0) + 1
            self._word_seq[offset] = seq
            self._note_write(timestamp)
            self._cond.notify_all()
            return old, prev_time, seq

    def accumulate(
        self,
        offset: int,
        dtype: np.dtype,
        data: np.ndarray,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray],
        timestamp: float,
    ) -> None:
        """Element-wise atomic update (MPI_Accumulate): apply
        ``op(current, data)`` to contiguous elements under one lock."""
        dt = np.dtype(dtype)
        arr = np.ascontiguousarray(data, dtype=dt).reshape(-1)
        self._check_range(offset, arr.nbytes)
        with self._cond:
            view = self._buf[offset : offset + arr.nbytes].view(dt)
            view[:] = op(view, arr)
            self._note_write(timestamp)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def wait_until(
        self,
        predicate: Callable[[], bool],
        *,
        aborted: Callable[[], bool],
        poll_interval: float = 0.05,
        watch: Callable[[], None] | None = None,
    ) -> float:
        """Block until ``predicate()`` holds; return the virtual timestamp
        of the last write observed when it did.

        ``aborted`` is polled so that a crashed sibling PE cannot leave
        this thread blocked forever; it raises through the caller.
        ``watch`` (a watchdog guard's ``poll``) is called once per loop
        iteration and raises past the wall-clock stall deadline.
        """
        with self._cond:
            while not predicate():
                if aborted():
                    from repro.runtime.launcher import JobAborted

                    raise JobAborted("job aborted while waiting on memory")
                if watch is not None:
                    watch()
                self._cond.wait(timeout=poll_interval)
            return self._last_write_time

    @property
    def last_write_time(self) -> float:
        with self._cond:
            return self._last_write_time

    def word_time(self, offset: int) -> float:
        """Virtual timestamp of the last *atomic* update to the word at
        ``offset`` (0.0 if never atomically touched).

        Unlike :attr:`last_write_time` this is per-word: a waiter whose
        protocol guarantees strict post/consume alternation on one flag
        word can merge this instead of the memory-global maximum, making
        its merged clock independent of whether unrelated writes to
        *other* words landed first — the property the collective
        library's trace-digest stability rests on.
        """
        with self._cond:
            return self._word_times.get(offset, 0.0)
