"""A complete OpenSHMEM-1.x-style library over the simulated substrate.

This package is the repo's stand-in for the vendor OpenSHMEM libraries
the paper evaluated (Cray SHMEM, MVAPICH2-X SHMEM).  The API follows the
OpenSHMEM specification's shape with Pythonic signatures:

* symmetric memory: :func:`shmalloc_array` / :func:`shfree` return
  :class:`~repro.shmem.heap.SymmetricArray` handles valid on every PE;
* RMA: :func:`put`, :func:`get`, :func:`iput`, :func:`iget` (1-D
  strided, the paper's building block for multi-dimensional strides);
* ordering: :func:`quiet`, :func:`fence`;
* collectives: :func:`barrier_all`, :func:`broadcast`,
  :func:`sum_to_all` and friends, :func:`fcollect`;
* atomics: :func:`atomic_swap`, :func:`atomic_cswap`,
  :func:`atomic_fadd`, bitwise AMOs — all 8-byte, NIC-offloaded or
  AM-emulated depending on the conduit profile;
* point-to-point sync: :func:`wait_until`;
* global locks: :func:`set_lock` / :func:`clear_lock` /
  :func:`test_lock` — the single-logical-entity semantics the paper
  shows are unsuitable for CAF per-image locks;
* :func:`shmem_ptr` — the intra-node direct load/store fast path the
  paper lists as future work.

Every function resolves the calling thread's PE context, so SPMD user
code reads like a SHMEM program (see ``examples/quickstart.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.runtime.context import current
from repro.runtime.launcher import DEFAULT_HEAP_BYTES, Job
from repro.shmem.constants import (
    CMP_EQ,
    CMP_GE,
    CMP_GT,
    CMP_LE,
    CMP_LT,
    CMP_NE,
)
from repro.comm.heap import SymmetricArray
from repro.shmem.layer import LAYER_NAME, ShmemLayer, default_profile_for
from repro.sim.netmodel import ConduitProfile

__all__ = [
    "SymmetricArray",
    "ShmemLayer",
    "launch",
    "attach",
    "my_pe",
    "num_pes",
    "shmalloc_array",
    "shmalloc",
    "shfree",
    "shrealloc",
    "pe_accessible",
    "addr_accessible",
    "put",
    "get",
    "iput",
    "iget",
    "quiet",
    "fence",
    "barrier_all",
    "barrier",
    "sum_to_all_set",
    "max_to_all_set",
    "broadcast",
    "fcollect",
    "sum_to_all",
    "prod_to_all",
    "min_to_all",
    "max_to_all",
    "and_to_all",
    "or_to_all",
    "xor_to_all",
    "atomic_swap",
    "atomic_cswap",
    "atomic_fadd",
    "atomic_finc",
    "atomic_add",
    "atomic_inc",
    "atomic_fetch",
    "atomic_set",
    "atomic_fetch_and",
    "atomic_fetch_or",
    "atomic_fetch_xor",
    "atomic_and",
    "atomic_or",
    "atomic_xor",
    "wait_until",
    "set_lock",
    "clear_lock",
    "test_lock",
    "shmem_ptr",
    "CMP_EQ",
    "CMP_NE",
    "CMP_GT",
    "CMP_GE",
    "CMP_LT",
    "CMP_LE",
]


def _layer() -> ShmemLayer:
    return current().job.get_layer(LAYER_NAME)


# ---------------------------------------------------------------------------
# Launch / attach
# ---------------------------------------------------------------------------


def attach(job: Job, profile: ConduitProfile | str | None = None) -> ShmemLayer:
    """Attach a SHMEM layer to an existing job (idempotent per job)."""
    if LAYER_NAME in job.layers:
        return job.layers[LAYER_NAME]
    layer = ShmemLayer(job, profile)
    job.layers[LAYER_NAME] = layer
    return layer


def launch(
    fn: Callable[..., Any],
    num_pes: int,
    machine: str = "stampede",
    *,
    profile: ConduitProfile | str | None = None,
    heap_bytes: int | None = None,
    faults: Any = None,
    watchdog_s: float | None = None,
    engine: Any = None,
    survivable: bool = False,
    args: Sequence[Any] = (),
    kwargs: dict[str, Any] | None = None,
) -> list[Any]:
    """Run ``fn`` as an SPMD SHMEM program on ``num_pes`` PEs.

    ``faults`` attaches a deterministic
    :class:`~repro.sim.faults.FaultPlan` (or prebuilt
    :class:`~repro.sim.faults.FaultInjector`); ``watchdog_s`` overrides
    the hang watchdog's wall-clock stall deadline.  ``engine`` selects
    the execution engine (``"threaded"``/``"event"``/``"vt"`` or an
    :class:`~repro.engine.Engine` instance; see :mod:`repro.engine`).
    ``survivable=True`` turns injected crashes into *failed images*
    (Fortran-2018 semantics) instead of job aborts: survivors keep
    running, and operations targeting a failed PE raise
    :class:`~repro.runtime.failures.ImageFailedError`.
    Returns the per-PE return values of ``fn``.
    """
    job = Job(
        num_pes,
        machine,
        heap_bytes=DEFAULT_HEAP_BYTES if heap_bytes is None else heap_bytes,
        faults=faults,
        watchdog_s=watchdog_s,
        engine=engine,
        survivable=survivable,
    )
    attach(job, profile)
    return job.run(fn, args=args, kwargs=kwargs or {})


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------


def my_pe() -> int:
    """This PE's index (0-based), a la ``shmem_my_pe``."""
    return current().pe


def num_pes() -> int:
    """Total PE count, a la ``shmem_n_pes``."""
    return current().job.num_pes


# ---------------------------------------------------------------------------
# Symmetric memory
# ---------------------------------------------------------------------------


def shmalloc_array(shape: int | tuple[int, ...], dtype: Any = np.int64) -> SymmetricArray:
    """Collectively allocate a symmetric array (``shmalloc``)."""
    return _layer().shmalloc_array(shape, dtype)


def shmalloc(nbytes: int) -> SymmetricArray:
    """Collectively allocate ``nbytes`` symmetric bytes (dtype uint8)."""
    return _layer().shmalloc_array((nbytes,), np.uint8)


def shfree(array: SymmetricArray) -> None:
    """Collectively release a symmetric allocation (``shfree``)."""
    _layer().shfree(array)


def shrealloc(array: SymmetricArray, shape) -> SymmetricArray:
    """Collectively resize a symmetric allocation (``shrealloc``);
    local contents are preserved up to the smaller size."""
    return _layer().shrealloc(array, shape)


def pe_accessible(pe: int) -> bool:
    """``shmem_pe_accessible``."""
    return _layer().pe_accessible(pe)


def addr_accessible(array: SymmetricArray, pe: int) -> bool:
    """``shmem_addr_accessible``."""
    return _layer().addr_accessible(array, pe)


def shmem_ptr(array: SymmetricArray, pe: int) -> np.ndarray | None:
    """Direct load/store access to ``array`` on ``pe`` when ``pe`` is on
    the calling PE's node; ``None`` otherwise (``shmem_ptr``)."""
    return _layer().shmem_ptr(array, pe)


# ---------------------------------------------------------------------------
# RMA
# ---------------------------------------------------------------------------


def put(dest: SymmetricArray, value: Any, pe: int, offset: int = 0) -> None:
    """Contiguous put of ``value`` into ``dest`` on ``pe``
    (``shmem_putmem``); returns after *local* completion."""
    _layer().put(dest, value, pe, offset)


def get(src: SymmetricArray, nelems: int, pe: int, offset: int = 0) -> np.ndarray:
    """Blocking contiguous get of ``nelems`` elements (``shmem_getmem``)."""
    return _layer().get(src, nelems, pe, offset)


def iput(
    dest: SymmetricArray,
    value: Any,
    tst: int,
    sst: int,
    nelems: int,
    pe: int,
    offset: int = 0,
) -> None:
    """1-D strided put (``shmem_iput``): write ``nelems`` elements taken
    from ``value`` with source stride ``sst`` to ``dest`` with target
    stride ``tst`` (strides in elements)."""
    _layer().iput(dest, value, tst, sst, nelems, pe, offset)


def iget(
    src: SymmetricArray,
    tst: int,
    sst: int,
    nelems: int,
    pe: int,
    offset: int = 0,
) -> np.ndarray:
    """1-D strided get (``shmem_iget``); returns the gathered elements."""
    return _layer().iget(src, tst, sst, nelems, pe, offset)


# ---------------------------------------------------------------------------
# Ordering & synchronization
# ---------------------------------------------------------------------------


def quiet() -> None:
    """Wait for remote completion of all outstanding puts (``shmem_quiet``)."""
    _layer().quiet()


def fence() -> None:
    """Order outstanding puts per target (``shmem_fence``)."""
    _layer().fence()


def barrier_all() -> None:
    """Global barrier including a quiet (``shmem_barrier_all``)."""
    _layer().barrier_all()


def barrier(pe_start: int, log_pe_stride: int, pe_size: int) -> None:
    """Active-set barrier (``shmem_barrier(PE_start, logPE_stride,
    PE_size)``); every member must call it."""
    _layer().active_set_barrier(pe_start, log_pe_stride, pe_size)


def sum_to_all_set(
    dest: SymmetricArray,
    source: SymmetricArray,
    nelems: int,
    pe_start: int,
    log_pe_stride: int,
    pe_size: int,
) -> None:
    """``shmem_sum_to_all`` over an active set."""
    _layer().active_set_to_all(
        dest, source, nelems, "sum", pe_start, log_pe_stride, pe_size
    )


def max_to_all_set(
    dest: SymmetricArray,
    source: SymmetricArray,
    nelems: int,
    pe_start: int,
    log_pe_stride: int,
    pe_size: int,
) -> None:
    """``shmem_max_to_all`` over an active set."""
    _layer().active_set_to_all(
        dest, source, nelems, "max", pe_start, log_pe_stride, pe_size
    )


def wait_until(ivar: SymmetricArray, cmp: str, value: Any, offset: int = 0) -> None:
    """Block until the local ``ivar[offset]`` satisfies the comparison
    (``shmem_wait_until``)."""
    _layer().wait_until(ivar, cmp, value, offset)


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


def broadcast(dest: SymmetricArray, source: SymmetricArray, nelems: int, root: int) -> None:
    """Broadcast ``nelems`` elements from ``root``'s ``source`` into every
    other PE's ``dest`` (``shmem_broadcast``)."""
    _layer().broadcast(dest, source, nelems, root)


def fcollect(dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
    """Concatenate ``nelems`` elements from every PE, in PE order, into
    ``dest`` on every PE (``shmem_fcollect``)."""
    _layer().fcollect(dest, source, nelems)


def sum_to_all(dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
    """``shmem_sum_to_all`` over all PEs."""
    _layer().to_all(dest, source, nelems, "sum")


def prod_to_all(dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
    """``shmem_prod_to_all`` over all PEs."""
    _layer().to_all(dest, source, nelems, "prod")


def min_to_all(dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
    """``shmem_min_to_all`` over all PEs."""
    _layer().to_all(dest, source, nelems, "min")


def max_to_all(dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
    """``shmem_max_to_all`` over all PEs."""
    _layer().to_all(dest, source, nelems, "max")


def and_to_all(dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
    """``shmem_and_to_all`` over all PEs (integer dtypes)."""
    _layer().to_all(dest, source, nelems, "and")


def or_to_all(dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
    """``shmem_or_to_all`` over all PEs (integer dtypes)."""
    _layer().to_all(dest, source, nelems, "or")


def xor_to_all(dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
    """``shmem_xor_to_all`` over all PEs (integer dtypes)."""
    _layer().to_all(dest, source, nelems, "xor")


# ---------------------------------------------------------------------------
# Atomics (8-byte remote memory operations)
# ---------------------------------------------------------------------------


def atomic_swap(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> Any:
    """Atomic fetch-and-store (``shmem_swap``); returns the old value."""
    return _layer().atomic(target, pe, offset, "swap", value)


def atomic_cswap(
    target: SymmetricArray, cond: Any, value: Any, pe: int, offset: int = 0
) -> Any:
    """Atomic compare-and-swap (``shmem_cswap``); returns the old value."""
    return _layer().atomic(target, pe, offset, "cswap", value, cond)


def atomic_fadd(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> Any:
    """Atomic fetch-and-add (``shmem_fadd``)."""
    return _layer().atomic(target, pe, offset, "fadd", value)


def atomic_finc(target: SymmetricArray, pe: int, offset: int = 0) -> Any:
    """Atomic fetch-and-increment (``shmem_finc``)."""
    return _layer().atomic(target, pe, offset, "fadd", 1)


def atomic_add(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> None:
    """Atomic add, no fetch (``shmem_add``)."""
    _layer().atomic(target, pe, offset, "fadd", value)


def atomic_inc(target: SymmetricArray, pe: int, offset: int = 0) -> None:
    """Atomic increment, no fetch (``shmem_inc``)."""
    _layer().atomic(target, pe, offset, "fadd", 1)


def atomic_fetch(target: SymmetricArray, pe: int, offset: int = 0) -> Any:
    """Atomic fetch (``shmem_fetch``)."""
    return _layer().atomic(target, pe, offset, "fetch")


def atomic_set(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> None:
    """Atomic set (``shmem_set``)."""
    _layer().atomic(target, pe, offset, "set", value)


def atomic_fetch_and(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> Any:
    """Atomic fetch-and-AND (``shmem_fetch_and``)."""
    return _layer().atomic(target, pe, offset, "and", value)


def atomic_fetch_or(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> Any:
    """Atomic fetch-and-OR (``shmem_fetch_or``)."""
    return _layer().atomic(target, pe, offset, "or", value)


def atomic_fetch_xor(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> Any:
    """Atomic fetch-and-XOR (``shmem_fetch_xor``)."""
    return _layer().atomic(target, pe, offset, "xor", value)


def atomic_and(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> None:
    """Atomic AND, no fetch (``shmem_and``)."""
    _layer().atomic(target, pe, offset, "and", value)


def atomic_or(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> None:
    """Atomic OR, no fetch (``shmem_or``)."""
    _layer().atomic(target, pe, offset, "or", value)


def atomic_xor(target: SymmetricArray, value: Any, pe: int, offset: int = 0) -> None:
    """Atomic XOR, no fetch (``shmem_xor``)."""
    _layer().atomic(target, pe, offset, "xor", value)


# ---------------------------------------------------------------------------
# Global locks
# ---------------------------------------------------------------------------


def set_lock(lock: SymmetricArray) -> None:
    """Acquire the single logically-global lock (``shmem_set_lock``)."""
    _layer().set_lock(lock)


def clear_lock(lock: SymmetricArray) -> None:
    """Release the global lock (``shmem_clear_lock``)."""
    _layer().clear_lock(lock)


def test_lock(lock: SymmetricArray) -> bool:
    """Try to acquire; returns True on success (``shmem_test_lock``)."""
    return _layer().test_lock(lock)
