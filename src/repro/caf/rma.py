"""Plan execution: turning a :class:`TransferPlan` into library calls.

This is the runtime half of the paper's Section IV-B/IV-C translation:
contiguous runs become ``shmem_putmem``/``shmem_getmem``, strided lines
become ``shmem_iput``/``shmem_iget``.

A plan executes as one batch
(:meth:`~repro.comm.base.OneSidedLayer.execute_plan_put` /
``execute_plan_get``): one aggregate network pricing, one copy through
the section's strided view of the target heap, one tracer record.  The
payload stays in the selection's shape throughout; only the pricing
follows the plan's call order.  Virtual timestamps and all stats are
bit-identical to issuing the plan's calls one by one; that per-call
loop lives in ``tests/caf/oracle.py`` as the reference the invariance
suite compares against.

``stats`` is a :class:`collections.Counter` the runtime passes in; it
records the number of *logical* underlying calls — the quantity the
paper's 50 x 40 x 25 example counts — and is what the strided
benchmarks and tests assert on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.caf.strided import DimSel, TransferPlan, row_strides
from repro.comm.base import BatchSpec, OneSidedLayer
from repro.comm.heap import SymmetricArray

__all__ = [
    "BatchSpec",
    "build_spec",
    "plan_spec",
    "execute_get",
    "execute_put",
]


def build_spec(
    plan: TransferPlan, sels: list[DimSel], shape: tuple[int, ...], itemsize: int
) -> BatchSpec | None:
    """Compile ``plan`` over the selection ``sels`` of an array of
    ``shape`` into a :class:`BatchSpec`: the plan's call shape plus the
    section's strided view, relative to the array base.

    Returns ``None`` for empty plans; every non-empty plan qualifies
    because planners emit uniform runs (one shared length) or uniform
    lines (one shared count and stride).
    """
    if plan.kind is None:
        return None
    rows = row_strides(shape)
    first = sum(s.start * r for s, r in zip(sels, rows))
    last = sum((s.start + (s.count - 1) * s.step) * r for s, r in zip(sels, rows))
    return BatchSpec(
        kind=plan.kind,
        ncalls=plan.num_calls,
        nelems_per_call=plan.per_call,
        stride=plan.stride,
        shape=_sel_shape(sels),
        strides=tuple(s.step * r * itemsize for s, r in zip(sels, rows)),
        min_elem=first,
        max_elem=last,
    )


def _sel_shape(sels: list[DimSel]) -> tuple[int, ...]:
    return tuple(s.count for s in sels)


def _single_call(layer: OneSidedLayer, plan: TransferPlan) -> bool:
    """Single-call plans skip the batch machinery entirely: one run is
    exactly one put/get, one line one iput/iget, with bit-identical
    pricing, stats, and trace.  Non-native single lines only qualify
    when they hold a single element (otherwise the batch path's
    aggregate pricing is the faster shape)."""
    return plan.num_calls == 1 and (
        plan.kind == "runs" or layer.profile.iput_native or plan.per_call == 1
    )


def plan_spec(
    layer: OneSidedLayer, plan: TransferPlan, sels: list[DimSel],
    shape: tuple[int, ...], itemsize: int,
) -> BatchSpec | None:
    """The :class:`BatchSpec` that executing ``plan`` on ``layer`` uses:
    None for single-call plans, which never read one."""
    return None if _single_call(layer, plan) else build_spec(plan, sels, shape, itemsize)


def execute_put(
    layer: OneSidedLayer,
    handle: SymmetricArray,
    pe: int,
    plan: TransferPlan,
    sels: list[DimSel],
    data: np.ndarray,
    stats: Counter,
    spec: BatchSpec | None = None,
) -> None:
    """Write ``data`` (shaped like the selection) to ``pe`` under ``plan``.

    ``spec`` is the plan's compiled :class:`BatchSpec` (pass a cached
    one to skip recompiling); built on the fly when omitted.
    """
    payload = np.broadcast_to(np.asarray(data, dtype=handle.dtype), _sel_shape(sels))
    lines = plan.kind == "lines"
    if _single_call(layer, plan):
        # One run or one line: C order over the selection is call order.
        flat = np.ascontiguousarray(payload).reshape(-1)
        if lines:
            layer.iput(
                handle, flat, tst=plan.stride, sst=1,
                nelems=plan.per_call, pe=pe, offset=int(plan.offsets[0]),
            )
        else:
            layer.put(handle, flat, pe, offset=int(plan.offsets[0]))
    else:
        if spec is None:
            spec = build_spec(plan, sels, handle.shape, handle.itemsize)
        if spec is not None:
            layer.execute_plan_put(handle, payload, pe, spec)
    stats["iput_calls" if lines else "putmem_calls"] += plan.num_calls
    stats["put_elems"] += int(payload.size)


def execute_get(
    layer: OneSidedLayer,
    handle: SymmetricArray,
    pe: int,
    plan: TransferPlan,
    sels: list[DimSel],
    stats: Counter,
    spec: BatchSpec | None = None,
) -> np.ndarray:
    """Read the selection from ``pe`` under ``plan``; returns an array
    shaped like the (unsqueezed) selection."""
    shape = _sel_shape(sels)
    lines = plan.kind == "lines"
    if _single_call(layer, plan):
        if lines:
            flat = layer.iget(
                handle, tst=1, sst=plan.stride, nelems=plan.per_call, pe=pe,
                offset=int(plan.offsets[0]),
            )
        else:
            flat = layer.get(handle, plan.per_call, pe, offset=int(plan.offsets[0]))
        result = flat.reshape(shape)
    else:
        if spec is None:
            spec = build_spec(plan, sels, handle.shape, handle.itemsize)
        if spec is None:  # empty selection: nothing moves
            result = np.empty(shape, dtype=handle.dtype)
        else:
            result = layer.execute_plan_get(handle, pe, spec)
    stats["iget_calls" if lines else "getmem_calls"] += plan.num_calls
    stats["get_elems"] += int(result.size)
    return result
