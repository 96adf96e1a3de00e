"""Non-symmetric remotely-accessible data (paper Section IV-A).

Coarrays of derived type may have ``allocatable`` components: the
component is allocated *per image*, at image-specific sizes and
addresses, yet must remain remotely accessible.  The paper's scheme —
``shmalloc`` one buffer of equal size on all PEs at startup and manage
non-symmetric allocations out of it — is implemented by the runtime's
*managed heap*; this module provides the user-facing objects:

* :class:`ManagedObject` — one image's allocation, with a
  :class:`~repro.util.bitpack.RemotePointer` other images can use;
* remote access by pointer: :func:`get_remote`, :func:`put_remote`,
  :func:`atomic_remote` — the primitives the MCS lock's qnodes use, and
  what a compiler would emit for ``x[j]%component`` dereferences.
"""

from __future__ import annotations

import numpy as np

from repro.caf.runtime import CafError, CafRuntime
from repro.runtime.context import current
from repro.util.allocator import array_nbytes
from repro.util.bitpack import RemotePointer, pack_remote_pointer, unpack_remote_pointer


class ManagedObject:
    """A non-symmetric, remotely-accessible array owned by this image."""

    def __init__(self, runtime: CafRuntime, shape, dtype) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.runtime = runtime
        self.owner_image = runtime.this_image()
        nbytes = max(1, array_nbytes(self.shape, self.dtype.itemsize))
        self.nbytes = nbytes
        self.offset = runtime.managed_alloc(current().pe, nbytes)
        self._freed = False

    # ------------------------------------------------------------------
    @property
    def local(self) -> np.ndarray:
        """Zero-copy view for the owning image."""
        self._check()
        ctx = current()
        if ctx.pe + 1 != self.owner_image:
            raise CafError(
                f"image {ctx.pe + 1} took a local view of image "
                f"{self.owner_image}'s non-symmetric data; use its remote pointer"
            )
        mem = self.runtime.job.memories[ctx.pe]
        base = self.runtime.managed_byte_offset(self.offset)
        return mem.local_view(base, self.nbytes).view(self.dtype).reshape(self.shape)

    def pointer(self, flags: int = 0) -> RemotePointer:
        """The packed-able remote pointer naming this allocation."""
        self._check()
        return RemotePointer(image=self.owner_image, offset=self.offset, flags=flags)

    def packed(self, flags: int = 0) -> int:
        """64-bit packed remote pointer (fits one remote atomic word)."""
        return pack_remote_pointer(self.owner_image, self.offset, flags)

    def free(self) -> None:
        """Release back to the owner's managed heap (owner only)."""
        self._check()
        ctx = current()
        if ctx.pe + 1 != self.owner_image:
            raise CafError("only the owning image may free non-symmetric data")
        self.runtime.managed_free(ctx.pe, self.offset)
        self._freed = True

    def _check(self) -> None:
        if self._freed:
            raise CafError("managed object used after free")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ManagedObject(image={self.owner_image}, offset={self.offset}, "
            f"shape={self.shape}, dtype={self.dtype})"
        )


# ---------------------------------------------------------------------------
# Access through remote pointers
# ---------------------------------------------------------------------------


def _resolve(rt: CafRuntime, pointer: RemotePointer | int) -> RemotePointer:
    ptr = unpack_remote_pointer(pointer) if isinstance(pointer, int) else pointer
    if ptr.is_nil:
        raise CafError("dereference of nil remote pointer")
    rt.image_to_pe(ptr.image)  # validates
    return ptr


def get_remote(
    rt: CafRuntime, pointer: RemotePointer | int, shape, dtype
) -> np.ndarray:
    """Fetch a non-symmetric object through its remote pointer."""
    ptr = _resolve(rt, pointer)
    dt = np.dtype(dtype)
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    nbytes = array_nbytes(shape, dt.itemsize)
    if ptr.offset % dt.itemsize:
        raise CafError(f"remote pointer offset {ptr.offset} misaligned for {dt}")
    data = rt.layer.get(rt.managed_u8, nbytes, ptr.image - 1, offset=ptr.offset)
    return data.view(dt).reshape(shape)


def put_remote(rt: CafRuntime, pointer: RemotePointer | int, value, dtype) -> None:
    """Store into a non-symmetric object through its remote pointer.

    Completes remotely before returning (CAF ordering, as the runtime's
    co-indexed puts do)."""
    ptr = _resolve(rt, pointer)
    dt = np.dtype(dtype)
    data = np.ascontiguousarray(value, dtype=dt)
    if ptr.offset % dt.itemsize:
        raise CafError(f"remote pointer offset {ptr.offset} misaligned for {dt}")
    rt.layer.put(
        rt.managed_u8,
        data.view(np.uint8).reshape(-1),
        ptr.image - 1,
        offset=ptr.offset,
    )
    if rt.ordering == "caf":
        rt.layer.quiet()


def atomic_remote(
    rt: CafRuntime, pointer: RemotePointer | int, op: str, *operands
) -> int:
    """8-byte atomic on the word a remote pointer names (qnode fields)."""
    ptr = _resolve(rt, pointer)
    if ptr.offset % 8:
        raise CafError(f"remote pointer offset {ptr.offset} misaligned for 8-byte atomic")
    return int(
        rt.layer.atomic(rt.managed_u64, ptr.image - 1, ptr.offset // 8, op, *operands)
    )
