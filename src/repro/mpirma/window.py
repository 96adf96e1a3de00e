"""MPI-3.0 RMA windows over the simulated substrate.

A :class:`Window` wraps a collectively-allocated array and enforces the
MPI access-epoch discipline: RMA calls are only legal inside a
passive-target epoch (``lock_all``/``unlock_all``) or between fences.
``put`` completes remotely at ``flush``; ``get`` and the atomic calls
block (MPI allows request-based completion, but the paper's comparison
exercises the blocking paths).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

import numpy as np

from repro.comm.base import OneSidedLayer, _FAIL_AT_REMOTE
from repro.comm.heap import SymmetricArray
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.trace.events import contiguous_footprint

LAYER_NAME = "mpirma"

_ACC_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "replace": lambda cur, new: new,
    "band": np.bitwise_and,
    "bor": np.bitwise_or,
    "bxor": np.bitwise_xor,
}


class EpochError(RuntimeError):
    """RMA call outside an access epoch, or mismatched epoch calls."""


class Window:
    """One MPI window: a remotely-accessible array plus epoch state."""

    _ids = itertools.count()

    def __init__(self, layer: "MpiRmaLayer", array: SymmetricArray) -> None:
        self.layer = layer
        self.array = array
        self.win_id = next(Window._ids)
        self._freed = False
        # Epoch state is per PE (each rank opens its own access epochs).
        self._epoch = [False] * layer.job.num_pes
        self._epoch_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _check(self, need_epoch: bool = True) -> int:
        if self._freed:
            raise ValueError("window used after win_free")
        pe = current().pe
        if need_epoch and not self._epoch[pe]:
            raise EpochError(
                "RMA call outside an access epoch; call lock_all() or fence() first"
            )
        return pe

    # -- epochs ---------------------------------------------------------
    def lock_all(self) -> None:
        """Open a passive-target access epoch to all ranks."""
        pe = self._check(need_epoch=False)
        if self._epoch[pe]:
            raise EpochError("lock_all inside an existing epoch")
        current().clock.advance(self.layer.profile.o_barrier_us)
        self._epoch[pe] = True

    def unlock_all(self) -> None:
        """Close the epoch; completes all outstanding operations."""
        pe = self._check(need_epoch=True)
        self.flush_all()
        self._epoch[pe] = False

    def fence(self) -> None:
        """Active-target synchronization: barrier + epoch boundary.

        A fence both closes the previous epoch (completing outstanding
        operations) and opens a new one, so RMA is legal between fences.
        """
        pe = self._check(need_epoch=False)
        self.layer.barrier_all()
        self._epoch[pe] = True

    # -- RMA --------------------------------------------------------------
    def put(self, value: Any, rank: int, offset: int = 0) -> None:
        """``MPI_Put``: remote completion deferred to flush/unlock."""
        self._check()
        self.layer.put(self.array, value, rank, offset)

    def get(self, nelems: int, rank: int, offset: int = 0) -> np.ndarray:
        """``MPI_Get`` + immediate completion (blocking convenience)."""
        self._check()
        return self.layer.get(self.array, nelems, rank, offset)

    def accumulate(self, value: Any, rank: int, offset: int = 0, op: str = "sum") -> None:
        """``MPI_Accumulate``: element-wise atomic update of contiguous
        target elements."""
        self._check()
        try:
            ufunc = _ACC_OPS[op]
        except KeyError:
            raise ValueError(f"unknown accumulate op {op!r}; expected {sorted(_ACC_OPS)}") from None
        layer = self.layer
        layer._check_pe(rank)
        data = layer._coerce(self.array, value)
        self.array.check_span(offset, data.size)
        ctx = current()
        # Accumulates funnel through the target's atomic unit, so like
        # atomics they execute at the chosen step (no delivery queue).
        if layer._decide is not None:
            layer._decide(ctx, "atomic", rank)
        layer._check_failed(ctx, "atomic", rank)
        t_start = ctx.clock.now
        # Priced as a put plus per-element service on the target's
        # atomic unit (MPI implementations funnel accumulates through
        # an ordering point to guarantee element-wise atomicity).
        timing = layer._priced(
            ctx, layer, "atomic", rank,
            layer.job.network.put_pricer(ctx.pe, rank, data.nbytes, layer.profile),
            _FAIL_AT_REMOTE,
        )
        node = layer.job.topology.node_of(rank)
        _, amo_end = layer.job.network.timelines()["amo"][node].reserve(
            timing.remote_complete, data.size * layer.job.machine.amo_process_us
        )
        addr = self.array.element_offset(offset) if data.size else self.array.byte_offset
        layer.job.memories[rank].accumulate(
            addr,
            self.array.dtype,
            data,
            ufunc,
            timestamp=amo_end,
        )
        ctx.clock.merge(timing.local_complete)
        if amo_end > layer._pending[ctx.pe]:
            layer._pending[ctx.pe] = amo_end
        tracer = layer.job.tracer
        if tracer is not None:
            fp = (
                contiguous_footprint(addr, data.nbytes)
                if tracer.capture_sync
                else ()
            )
            tracer.record(
                ctx.pe, "atomic", rank, data.nbytes, t_start, ctx.clock.now,
                addr=addr, footprint=fp,
            )

    def fetch_and_op(self, value: Any, rank: int, offset: int = 0, op: str = "sum") -> Any:
        """``MPI_Fetch_and_op`` on one element (8-byte dtypes)."""
        self._check()
        amo = {"sum": "fadd", "replace": "swap", "band": "and", "bor": "or", "bxor": "xor"}
        try:
            aop = amo[op]
        except KeyError:
            raise ValueError(f"unsupported fetch_and_op {op!r}; expected {sorted(amo)}") from None
        return self.layer.atomic(self.array, rank, offset, aop, value)

    def compare_and_swap(self, value: Any, cond: Any, rank: int, offset: int = 0) -> Any:
        """``MPI_Compare_and_swap`` on one element (8-byte dtypes)."""
        self._check()
        return self.layer.atomic(self.array, rank, offset, "cswap", value, cond)

    # -- completion -------------------------------------------------------
    def flush(self, rank: int) -> None:
        """``MPI_Win_flush``: complete operations targeting ``rank``.

        The simulated completion tracker is per initiator (not per
        target), so this is as strong as :meth:`flush_all`.
        """
        self._check()
        self.layer._check_pe(rank)
        self.layer.quiet()

    def flush_all(self) -> None:
        """``MPI_Win_flush_all``: complete all outstanding operations."""
        self._check()
        self.layer.quiet()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else "live"
        return f"Window(id={self.win_id}, {state}, array={self.array!r})"


class MpiRmaLayer(OneSidedLayer):
    """MPI-3.0 RMA layer: window factory over the shared engine."""

    LAYER_NAME = LAYER_NAME

    def __init__(self, job: Job, profile: str = "mpi3") -> None:
        super().__init__(job, profile)
        self._windows: dict[int, Window] = {}
        self._windows_lock = threading.Lock()

    def win_create(self, array: SymmetricArray) -> Window:
        """Collectively create a window over ``array``."""
        if array.layer is not self:
            raise ValueError("window memory must come from this layer's alloc_array")
        ctx = current()
        win = self.job.collectives.agree(
            ctx, f"win_create:{array.byte_offset}", lambda: Window(self, array)
        )
        self.barrier_all()
        return win

    def win_free(self, win: Window) -> None:
        """Collectively free a window (the backing array stays allocated)."""
        if win.layer is not self:
            raise ValueError("window belongs to a different layer")
        ctx = current()
        self.barrier_all()
        self.job.collectives.agree(
            ctx, f"win_free:{win.win_id}", lambda: setattr(win, "_freed", True)
        )
