"""Symmetric array handles.

A :class:`SymmetricArray` is the Python analogue of a symmetric address:
one handle, valid on every PE, naming the *same offset* in each PE's
symmetric heap.  RMA calls take the handle plus a target PE — exactly
how ``shmem_putmem(dest, src, n, pe)`` uses the caller's local ``dest``
pointer to name remote memory.
"""

from __future__ import annotations

import math
import typing

import numpy as np

from repro.runtime.context import current

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.comm.base import OneSidedLayer


class SymmetricArray:
    """Handle to a symmetric heap allocation, typed as a NumPy array."""

    __slots__ = ("layer", "byte_offset", "shape", "dtype", "size", "itemsize", "_freed")

    def __init__(
        self,
        layer: "OneSidedLayer",
        byte_offset: int,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> None:
        self.layer = layer
        self.byte_offset = byte_offset
        self.shape = shape
        self.dtype = np.dtype(dtype)
        # Shape and dtype never change: size and itemsize are plain slots.
        self.size = math.prod(shape)
        self.itemsize = self.dtype.itemsize
        self._freed = False

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    def _check_live(self) -> None:
        if self._freed:
            raise ValueError("symmetric array used after shfree")

    def element_offset(self, index: int) -> int:
        """Byte offset (within the heap) of flat element ``index``."""
        self._check_live()
        if not 0 <= index < max(self.size, 1):
            raise IndexError(f"element {index} out of range [0, {self.size})")
        return self.byte_offset + index * self.itemsize

    def check_span(self, start_elem: int, nelems: int, stride: int = 1) -> None:
        """Validate that a strided element span fits inside the array."""
        if self._freed:  # ``_check_live``, inline on the per-operation path
            raise ValueError("symmetric array used after shfree")
        if nelems == 1 and 0 <= start_elem < self.size:
            return  # the scalar case: one in-range element
        if nelems < 0:
            raise ValueError("nelems must be non-negative")
        if nelems == 0:
            return
        if stride == 0:
            raise ValueError("stride must be non-zero")
        last = start_elem + (nelems - 1) * stride
        for edge in (start_elem, last):
            if not 0 <= edge < self.size:
                raise IndexError(
                    f"span start={start_elem} stride={stride} n={nelems} "
                    f"exceeds array of {self.size} elements"
                )

    # ------------------------------------------------------------------
    @property
    def local(self) -> np.ndarray:
        """Zero-copy view of the *calling PE's* instance of the array."""
        self._check_live()
        ctx = current()
        mem = ctx.job.memories[ctx.pe]
        flat = mem.local_view(self.byte_offset, self.nbytes).view(self.dtype)
        return flat.reshape(self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else f"@{self.byte_offset}"
        return f"SymmetricArray(shape={self.shape}, dtype={self.dtype}, {state})"
