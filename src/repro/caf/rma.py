"""Plan execution: turning a :class:`TransferPlan` into library calls.

This is the runtime half of the paper's Section IV-B/IV-C translation:
contiguous runs become ``shmem_putmem``/``shmem_getmem``, strided lines
become ``shmem_iput``/``shmem_iget``.  Payload marshalling keeps line
chunks aligned with plan order by moving the base dimension last (plans
enumerate lines in C order over the remaining dimensions).

A plan executes as one batch
(:meth:`~repro.comm.base.OneSidedLayer.execute_plan_put` /
``execute_plan_get``): one aggregate network pricing, one scatter/gather
through a precomputed index array, one tracer record.  Virtual
timestamps and all stats are bit-identical to issuing the plan's calls
one by one; that per-call loop lives in ``tests/caf/oracle.py`` as the
reference the invariance suite compares against.

``stats`` is a :class:`collections.Counter` the runtime passes in; it
records the number of *logical* underlying calls — the quantity the
paper's 50 x 40 x 25 example counts — and is what the strided
benchmarks and tests assert on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.caf.strided import DimSel, TransferPlan
from repro.comm.base import BatchSpec, OneSidedLayer
from repro.comm.heap import SymmetricArray

__all__ = [
    "BatchSpec",
    "build_spec",
    "plan_spec",
    "execute_get",
    "execute_put",
]


def build_spec(plan: TransferPlan, itemsize: int) -> BatchSpec | None:
    """Compile ``plan`` into a :class:`BatchSpec` (per-element byte
    offsets relative to the array base, in plan order).

    Returns ``None`` for empty plans; every non-empty plan qualifies
    because planners emit uniform runs (one shared length) or uniform
    lines (one shared count and stride).
    """
    if plan.kind is None:
        return None
    within = np.arange(plan.per_call, dtype=np.int64) * plan.stride
    elems = (plan.offsets[:, None] + within[None, :]).reshape(-1)
    return BatchSpec(
        kind=plan.kind,
        ncalls=plan.num_calls,
        nelems_per_call=plan.per_call,
        stride=plan.stride,
        rel_index=elems * itemsize,
        min_elem=int(elems.min()),
        max_elem=int(elems.max()),
        rel_elem=elems,
        elem_size=itemsize,
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


def plan_spec(layer: OneSidedLayer, plan: TransferPlan, itemsize: int) -> BatchSpec | None:
    """The :class:`BatchSpec` that executing ``plan`` on ``layer`` uses:
    None for single-call plans, which never read one."""
    return None if _single_call(layer, plan) else build_spec(plan, itemsize)


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
    payload = np.broadcast_to(data, _sel_shape(sels))
    lines = plan.kind == "lines"
    if lines:
        payload = np.moveaxis(payload, plan.base_dim, -1)
    flat = np.ascontiguousarray(payload, dtype=handle.dtype).reshape(-1)
    if _single_call(layer, plan):
        if lines:
            layer.iput(
                handle, flat, tst=plan.stride, sst=1,
                nelems=plan.per_call, pe=pe, offset=int(plan.offsets[0]),
            )
        else:
            layer.put(handle, flat, pe, offset=int(plan.offsets[0]))
    else:
        if spec is None:
            spec = build_spec(plan, handle.itemsize)
        if spec is not None:
            layer.execute_plan_put(handle, flat, pe, spec)
    stats["iput_calls" if lines else "putmem_calls"] += plan.num_calls
    stats["put_elems"] += int(flat.size)


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
    if _single_call(layer, plan):
        if plan.kind == "lines":
            flat = layer.iget(
                handle, tst=1, sst=plan.stride, nelems=plan.per_call, pe=pe,
                offset=int(plan.offsets[0]),
            )
        else:
            flat = layer.get(handle, plan.per_call, pe, offset=int(plan.offsets[0]))
    else:
        if spec is None:
            spec = build_spec(plan, handle.itemsize)
        if spec is None:  # empty selection: nothing moves
            flat = np.empty(0, dtype=handle.dtype)
        else:
            flat = layer.execute_plan_get(handle, pe, spec)
    if plan.kind == "lines":
        # Lines enumerate the base dimension last; move it back.
        base = plan.base_dim
        moved_shape = tuple(c for d, c in enumerate(shape) if d != base) + (shape[base],)
        result = np.ascontiguousarray(np.moveaxis(flat.reshape(moved_shape), -1, base))
        stats["iget_calls"] += plan.num_calls
    else:
        result = flat.reshape(shape)
        stats["getmem_calls"] += plan.num_calls
    stats["get_elems"] += int(result.size)
    return result
