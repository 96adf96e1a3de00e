"""First-fit free-list allocator over a flat byte range.

Used twice in the stack, mirroring the paper's memory organization:

* the **symmetric heap** of every PE (backing ``shmalloc``/``shfree``),
  where the allocator metadata is shared so that every PE receives the
  same offset for the same collective allocation; and
* the **managed non-symmetric heap** carved out of one big symmetric
  allocation at program start, from which coarrays of derived type,
  MCS lock qnodes, and other non-symmetric remotely-accessible objects
  are served (paper Section IV-A and IV-D).

The allocator hands out *offsets*, not pointers; callers combine the
offset with a PE's base buffer.  All blocks are aligned to ``alignment``
bytes (default 16, enough for any NumPy scalar dtype).
"""

from __future__ import annotations

import bisect
import math
import threading


class OutOfMemoryError(MemoryError):
    """Raised when an allocation cannot be satisfied."""


def array_nbytes(shape, itemsize: int) -> int:
    """Exact byte size of an array of ``shape`` (``()`` is one element).

    Python integers, so a huge shape stays huge and the allocator
    refuses it; an ``int64`` product would wrap at 2**63 (or to 0) and
    hand out a tiny block that later accesses overrun.
    """
    return math.prod(map(int, shape)) * itemsize


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class FreeListAllocator:
    """Thread-safe first-fit allocator with coalescing free list.

    Parameters
    ----------
    capacity:
        Total number of bytes managed.
    alignment:
        Every returned offset and every block size is a multiple of this
        power of two.
    """

    def __init__(self, capacity: int, *, alignment: int = 16) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a positive power of two")
        self.capacity = capacity
        self.alignment = alignment
        # Free list: sorted list of (offset, size) with no two adjacent
        # blocks touching (they are always coalesced on free()).  Only the
        # aligned prefix of the range is managed; a ragged tail is unusable.
        usable = capacity - capacity % alignment
        if usable == 0:
            raise ValueError("capacity smaller than one alignment unit")
        self._free: list[tuple[int, int]] = [(0, usable)]
        self._allocated: dict[int, int] = {}  # offset -> size
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; return the offset of the block.

        A zero-byte request is rounded up to one alignment unit so that
        every live allocation has a distinct offset (matching
        ``shmalloc`` semantics where a zero-size request may return a
        unique symmetric address).
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        need = _align_up(max(size, 1), self.alignment)
        with self._lock:
            for i, (off, blk) in enumerate(self._free):
                if blk >= need:
                    if blk == need:
                        del self._free[i]
                    else:
                        self._free[i] = (off + need, blk - need)
                    self._allocated[off] = need
                    return off
        raise OutOfMemoryError(
            f"cannot allocate {size} bytes (aligned {need}) from heap of {self.capacity}"
        )

    def free(self, offset: int) -> None:
        """Release a block previously returned by :meth:`malloc`."""
        with self._lock:
            size = self._allocated.pop(offset, None)
            if size is None:
                raise ValueError(f"free of unallocated offset {offset}")
            idx = bisect.bisect_left(self._free, (offset, 0))
            self._free.insert(idx, (offset, size))
            self._coalesce(idx)

    def _coalesce(self, idx: int) -> None:
        # Merge with successor first, then predecessor.
        if idx + 1 < len(self._free):
            off, size = self._free[idx]
            noff, nsize = self._free[idx + 1]
            if off + size == noff:
                self._free[idx] = (off, size + nsize)
                del self._free[idx + 1]
        if idx > 0:
            poff, psize = self._free[idx - 1]
            off, size = self._free[idx]
            if poff + psize == off:
                self._free[idx - 1] = (poff, psize + size)
                del self._free[idx]

    # ------------------------------------------------------------------
    def size_of(self, offset: int) -> int:
        """Return the (aligned) size of a live allocation."""
        with self._lock:
            try:
                return self._allocated[offset]
            except KeyError:
                raise ValueError(f"offset {offset} is not allocated") from None

    @property
    def bytes_allocated(self) -> int:
        with self._lock:
            return sum(self._allocated.values())

    @property
    def bytes_free(self) -> int:
        with self._lock:
            return sum(size for _, size in self._free)

    @property
    def live_blocks(self) -> int:
        with self._lock:
            return len(self._allocated)

    def check_invariants(self) -> None:
        """Verify the free list is sorted, coalesced, and disjoint from
        live allocations.  Test hook; raises ``AssertionError``."""
        with self._lock:
            prev_end = None
            for off, size in self._free:
                assert size > 0, "empty free block"
                assert off % self.alignment == 0
                assert size % self.alignment == 0
                if prev_end is not None:
                    assert off > prev_end, "free list not sorted/coalesced"
                prev_end = off + size
            spans = sorted(
                [(o, o + s) for o, s in self._allocated.items()]
                + [(o, o + s) for o, s in self._free]
            )
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 <= b0, "overlapping blocks"
            total = sum(b - a for a, b in spans)
            usable = self.capacity - self.capacity % self.alignment
            assert total == usable, f"accounting leak: {total} != {usable}"
