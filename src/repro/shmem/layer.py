"""The OpenSHMEM layer: vendor profile + SHMEM-specific API surface.

The data-path mechanics live in :class:`repro.comm.base.OneSidedLayer`;
this subclass adds what is specifically OpenSHMEM:

* vendor profile selection (Cray SHMEM on the Cray machines,
  MVAPICH2-X SHMEM on Stampede — the libraries the paper used);
* collectives (broadcast / reductions / fcollect);
* the *global* lock API (``shmem_set_lock``) whose single-logical-entity
  semantics the paper shows cannot express CAF's per-image locks;
* ``shmem_ptr`` — intra-node direct load/store access (the paper's
  future-work item, implemented here).
"""

from __future__ import annotations

import typing
from contextlib import nullcontext

import numpy as np

from repro.collectives import team_allgather, team_broadcast, team_reduce
from repro.comm.base import OneSidedLayer
from repro.comm.heap import SymmetricArray
from repro.runtime.context import current
from repro.runtime.launcher import Job, JobAborted
from repro.sim.machines import CRAY_XC30, TITAN
from repro.sim.netmodel import CRAY_SHMEM, MVAPICH2X_SHMEM, ConduitProfile

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.topology import Machine

LAYER_NAME = "shmem"

# Element-wise binary reduction operators, fed to the collective
# algorithm library (every OpenSHMEM reduction is commutative).
_BINARY_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}


def default_profile_for(machine: "Machine") -> ConduitProfile:
    """The vendor SHMEM the paper used on each machine."""
    if machine.name in (CRAY_XC30.name, TITAN.name):
        return CRAY_SHMEM
    return MVAPICH2X_SHMEM


class ShmemLayer(OneSidedLayer):
    """OpenSHMEM over the simulated substrate."""

    LAYER_NAME = LAYER_NAME

    def __init__(self, job: Job, profile: ConduitProfile | str | None = None) -> None:
        if profile is None:
            profile = default_profile_for(job.machine)
        super().__init__(job, profile)

    # -- OpenSHMEM naming ------------------------------------------------
    def shmalloc_array(
        self, shape: int | tuple[int, ...], dtype: np.dtype
    ) -> SymmetricArray:
        return self.alloc_array(shape, dtype)

    def shfree(self, array: SymmetricArray) -> None:
        self.free_array(array)

    def shrealloc(
        self, array: SymmetricArray, shape: int | tuple[int, ...]
    ) -> SymmetricArray:
        """Collective resize (``shrealloc``): allocate the new size,
        copy the overlapping local prefix on every PE, free the old
        allocation.  Returns the new handle."""
        array._check_live()
        new_array = self.alloc_array(shape, array.dtype)
        n = min(array.size, new_array.size)
        if n:
            new_array.local.reshape(-1)[:n] = array.local.reshape(-1)[:n]
        self.free_array(array)
        return new_array

    def pe_accessible(self, pe: int) -> bool:
        """``shmem_pe_accessible``: every PE of the job is reachable."""
        return 0 <= pe < self.job.num_pes

    def addr_accessible(self, array: SymmetricArray, pe: int) -> bool:
        """``shmem_addr_accessible``: live symmetric allocations are
        remotely accessible on every valid PE."""
        return self.pe_accessible(pe) and not array._freed

    # ------------------------------------------------------------------
    def shmem_ptr(self, array: SymmetricArray, pe: int) -> np.ndarray | None:
        """Direct load/store view of ``array`` on ``pe`` if intra-node,
        else ``None`` (``shmem_ptr`` semantics).

        Stores through the view do not wake ``wait_until`` sleepers —
        the same caveat as real hardware, where a CPU store bypasses the
        NIC; use :meth:`put`/atomics when the target waits.
        """
        array._check_live()
        ctx = current()
        self._check_pe(pe)
        if not self.job.topology.same_node(ctx.pe, pe):
            return None
        mem = self.job.memories[pe]
        flat = mem.local_view(array.byte_offset, array.nbytes).view(array.dtype)
        return flat.reshape(array.shape)

    # ------------------------------------------------------------------
    # Active sets (OpenSHMEM 1.x subset collectives)
    # ------------------------------------------------------------------
    def active_set_barrier(
        self, pe_start: int, log_pe_stride: int, pe_size: int
    ) -> None:
        """``shmem_barrier(PE_start, logPE_stride, PE_size)``: quiet +
        barrier over the active set only."""
        from repro.runtime.groups import active_set_pes

        members = active_set_pes(pe_start, log_pe_stride, pe_size, self.job.num_pes)
        pe = current().pe
        if pe not in members:
            raise ValueError(
                f"PE {pe} called a barrier over active set {members} "
                f"it does not belong to"
            )
        self.team_barrier(self.job.groups.get(members).barrier, len(members))

    def active_set_to_all(
        self,
        dest: SymmetricArray,
        source: SymmetricArray,
        nelems: int,
        op: str,
        pe_start: int,
        log_pe_stride: int,
        pe_size: int,
    ) -> None:
        """Reduction over an active set (``shmem_<op>_to_all`` with the
        PE_start/logPE_stride/PE_size triplet)."""
        from repro.runtime.context import current as _current
        from repro.runtime.groups import active_set_pes

        try:
            binary_op = _BINARY_OPS[op]
        except KeyError:
            raise ValueError(
                f"unknown reduction {op!r}; expected {sorted(_BINARY_OPS)}"
            ) from None
        source.check_span(0, nelems)
        dest.check_span(0, nelems)
        ctx = _current()
        members = active_set_pes(pe_start, log_pe_stride, pe_size, self.job.num_pes)
        if ctx.pe not in members:
            raise ValueError(
                f"PE {ctx.pe} called a barrier over active set {members} "
                f"it does not belong to"
            )
        data = np.asarray(source.local).reshape(-1)[:nelems]
        res = team_reduce(self, self._live_pes(members), data, binary_op)
        dest.local.reshape(-1)[:nelems] = res

    # ------------------------------------------------------------------
    # Collectives
    #
    # All four ride on :mod:`repro.collectives`: the algorithm (linear,
    # binomial, recursive doubling, ring, or hierarchical two-level) is
    # chosen per call by the topology-aware cost model, or forced via
    # ``REPRO_COLLECTIVE``.
    # ------------------------------------------------------------------
    def _all_pes(self) -> tuple[int, ...]:
        return tuple(range(self.job.num_pes))

    def _live_pes(self, members: tuple[int, ...]) -> tuple[int, ...]:
        """Degraded-mode collectives: failed PEs are excised from the
        member list (and therefore from the algorithms' tree/ring rank
        maps) before the collective runs.  Callers must only reach a
        collective after a synchronization point has ordered the failure
        (the survivable discipline); in the default mode this is the
        identity."""
        registry = self._failed
        if registry is None:
            return members
        return registry.survivors(members)

    def broadcast(
        self, dest: SymmetricArray, source: SymmetricArray, nelems: int, root: int
    ) -> None:
        """Tree broadcast from ``root``; ``root``'s dest is untouched
        (OpenSHMEM semantics)."""
        self._check_pe(root)
        source.check_span(0, nelems)
        dest.check_span(0, nelems)
        ctx = current()
        data = np.asarray(source.local).reshape(-1)[:nelems]
        pes = self._live_pes(self._all_pes())
        if len(pes) < self.job.num_pes and root not in pes:
            from repro.runtime.failures import raise_image_failed

            raise_image_failed(ctx, "broadcast", root, self._failed,
                               self.job.tracer)
        res = team_broadcast(self, pes, data, root_rank=pes.index(root))
        if ctx.pe != root:
            dest.local.reshape(-1)[:nelems] = res

    def fcollect(self, dest: SymmetricArray, source: SymmetricArray, nelems: int) -> None:
        """Concatenate every PE's ``nelems`` source elements, PE order."""
        source.check_span(0, nelems)
        dest.check_span(0, nelems * self.job.num_pes)
        data = np.asarray(source.local).reshape(-1)[:nelems]
        pes = self._live_pes(self._all_pes())
        res = team_allgather(self, pes, data)
        dest.local.reshape(-1)[: nelems * len(pes)] = res

    def to_all(
        self, dest: SymmetricArray, source: SymmetricArray, nelems: int, op: str
    ) -> None:
        """Reduction over all PEs (``shmem_<op>_to_all``)."""
        try:
            binary_op = _BINARY_OPS[op]
        except KeyError:
            raise ValueError(
                f"unknown reduction {op!r}; expected {sorted(_BINARY_OPS)}"
            ) from None
        if op in ("and", "or", "xor") and not np.issubdtype(source.dtype, np.integer):
            raise TypeError(f"bitwise reduction {op!r} requires an integer dtype")
        source.check_span(0, nelems)
        dest.check_span(0, nelems)
        data = np.asarray(source.local).reshape(-1)[:nelems]
        res = team_reduce(
            self, self._live_pes(self._all_pes()), data, binary_op
        )
        dest.local.reshape(-1)[:nelems] = res

    # ------------------------------------------------------------------
    # Global locks (single logically-global entity — paper Sec. IV-D
    # explains why these cannot implement CAF's per-image locks).
    # ------------------------------------------------------------------
    _LOCK_BACKOFF_START_US = 0.5
    _LOCK_BACKOFF_MAX_US = 64.0

    def _check_lock(self, lock: SymmetricArray) -> None:
        if lock.size < 1 or lock.itemsize != 8:
            raise TypeError("a SHMEM lock must be a symmetric 8-byte integer")

    def _record_shlock(self, op: str, tag: str, lock: SymmetricArray, t_start: float) -> None:
        """Sync-capture record for a SHMEM global lock, keyed by the
        lock word's heap offset (there is no image/index dimension)."""
        tracer = self.job.tracer
        if tracer is None or not tracer.capture_sync:
            return
        ctx = current()
        hold_key = ("shlock", lock.byte_offset)
        if op == "lock_acquire":
            ticket = tracer.begin_hold(hold_key, ctx.pe)
        else:
            ticket = tracer.end_hold(hold_key, ctx.pe)
        tracer.record(
            ctx.pe, op, 0, 0, t_start, ctx.clock.now,
            meta=(tag, f"sh:{lock.byte_offset}", -1, 0, ticket), internal=False,
        )

    def set_lock(self, lock: SymmetricArray) -> None:
        """Acquire; test-and-set with exponential backoff on PE 0's word."""
        self._check_lock(lock)
        ctx = current()
        t_start = ctx.clock.now
        backoff = self._LOCK_BACKOFF_START_US
        tracer = self.job.tracer
        spin = self.engine.spin_yield
        machinery = tracer.sync_internal() if tracer is not None else nullcontext()
        with machinery, self.job.watchdog.watch(
            ctx.pe, f"shmem_set_lock(offset={lock.byte_offset})"
        ) as guard:
            while True:
                if self.job.aborted():
                    raise JobAborted("job aborted while acquiring shmem lock")
                guard.poll()
                old = self.atomic(lock, 0, 0, "cswap", ctx.pe + 1, 0)
                if int(old) == 0:
                    break
                # F2018 rule carried over to shmem locks: a failed image's
                # locks become unlocked.  Steal the word from a dead holder
                # (cswap keyed on the observed owner keeps the steal atomic
                # against a racing survivor).
                holder = int(old) - 1
                if self._failed is not None and self._failed.is_failed(holder):
                    stolen = self.atomic(
                        lock, 0, 0, "cswap", ctx.pe + 1, int(old)
                    )
                    if int(stolen) == int(old):
                        break
                ctx.clock.advance(backoff)
                backoff = min(backoff * 2, self._LOCK_BACKOFF_MAX_US)
                spin(ctx, "lock_spin", 0)  # wall-clock yield; cost is virtual
        self._record_shlock("lock_acquire", "la", lock, t_start)

    def test_lock(self, lock: SymmetricArray) -> bool:
        """One acquisition attempt; True on success."""
        self._check_lock(lock)
        ctx = current()
        t_start = ctx.clock.now
        tracer = self.job.tracer
        machinery = tracer.sync_internal() if tracer is not None else nullcontext()
        with machinery:
            old = self.atomic(lock, 0, 0, "cswap", ctx.pe + 1, 0)
        if int(old) == 0:
            self._record_shlock("lock_acquire", "la", lock, t_start)
            return True
        return False

    def clear_lock(self, lock: SymmetricArray) -> None:
        """Release; must be called by the holder."""
        self._check_lock(lock)
        ctx = current()
        t_start = ctx.clock.now
        self.quiet()  # writes in the critical section complete before release
        tracer = self.job.tracer
        machinery = tracer.sync_internal() if tracer is not None else nullcontext()
        with machinery:
            old = self.atomic(lock, 0, 0, "cswap", 0, ctx.pe + 1)
        if int(old) != ctx.pe + 1:
            raise RuntimeError(
                f"PE {ctx.pe} released a shmem lock it does not hold (owner word={int(old)})"
            )
        self._record_shlock("lock_release", "lr", lock, t_start)
