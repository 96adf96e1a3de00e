"""Per-call reference implementation of CAF plan execution.

``repro.caf.rma`` executes a transfer plan as one batch (one aggregate
pricing, one scatter/gather, one trace record).  The contract is that
this is *bit-identical* — virtual clocks, stats, bytes, footprints — to
issuing the plan's library calls one at a time, the way the paper's
Section IV-B/IV-C translation reads.  This module is that one-at-a-time
form, written only against the public ``layer.put/iput/get/iget``, plus
the plumbing the invariance suites share to run a program both ways.
"""

from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro import caf, trace
from repro.caf import rma
from repro.caf.runtime import attach as caf_attach
from repro.caf.runtime import current_runtime
from repro.runtime.context import current
from repro.runtime.launcher import Job


def execute_put(layer, handle, pe, plan, sels, data, stats, spec=None):
    """``rma.execute_put`` as a loop: one ``iput`` per line, or one
    ``put`` per run, in plan order."""
    shape = tuple(s.count for s in sels)
    payload = np.ascontiguousarray(np.broadcast_to(data, shape), dtype=handle.dtype)
    pos = 0
    if plan.lines:
        flat = np.ascontiguousarray(np.moveaxis(payload, plan.base_dim, -1)).reshape(-1)
        for line in plan.lines:
            layer.iput(
                handle, flat[pos : pos + line.count], tst=line.stride, sst=1,
                nelems=line.count, pe=pe, offset=line.offset,
            )
            pos += line.count
        stats["iput_calls"] += len(plan.lines)
    else:
        flat = payload.reshape(-1)
        for run in plan.runs:
            layer.put(handle, flat[pos : pos + run.length], pe, offset=run.offset)
            pos += run.length
        stats["putmem_calls"] += len(plan.runs)
    stats["put_elems"] += int(payload.size)


def execute_get(layer, handle, pe, plan, sels, stats, spec=None):
    """``rma.execute_get`` as a loop: one ``iget`` per line, or one
    ``get`` per run, in plan order."""
    shape = tuple(s.count for s in sels)
    pos = 0
    if plan.lines:
        base = plan.base_dim
        moved_shape = tuple(c for d, c in enumerate(shape) if d != base) + (shape[base],)
        gathered = np.empty(moved_shape, dtype=handle.dtype)
        flat = gathered.reshape(-1)
        for line in plan.lines:
            flat[pos : pos + line.count] = layer.iget(
                handle, tst=1, sst=line.stride, nelems=line.count, pe=pe, offset=line.offset
            )
            pos += line.count
        stats["iget_calls"] += len(plan.lines)
        result = np.ascontiguousarray(np.moveaxis(gathered, -1, base))
    else:
        result = np.empty(shape, dtype=handle.dtype)
        flat = result.reshape(-1)
        for run in plan.runs:
            flat[pos : pos + run.length] = layer.get(handle, run.length, pe, offset=run.offset)
            pos += run.length
        stats["getmem_calls"] += len(plan.runs)
    stats["get_elems"] += int(result.size)
    return result


@contextmanager
def per_call():
    """Route every section access through the per-call loops for the
    duration (the runtime calls ``rma.execute_put/get`` by attribute)."""
    saved = rma.execute_put, rma.execute_get
    rma.execute_put, rma.execute_get = execute_put, execute_get
    try:
        yield
    finally:
        rma.execute_put, rma.execute_get = saved


def two_ways(run):
    """``(run() on the one data plane, run() under the oracle)``."""
    fast = run()
    with per_call():
        return fast, run()


def launch_two_ways(fn, **launch_kwargs):
    """:func:`two_ways` over ``caf.launch(fn, **launch_kwargs)``."""
    return two_ways(lambda: caf.launch(fn, **launch_kwargs))


def fingerprint(*extras):
    """The calling image's ``(clock, stats, *extras)``; stats without
    the plan-cache hit/miss counters."""
    stats = {
        k: v
        for k, v in current_runtime().my_stats.items()
        if not k.startswith("plan_cache")
    }
    return (current().clock.now, stats, *extras)


def assert_identical(results_a, results_b):
    """Per-image fingerprints equal bit for bit (arrays by their bytes;
    nested tuples of arrays allowed)."""

    def canon(x):
        if isinstance(x, np.ndarray):
            return (x.dtype.str, x.shape, x.tobytes())
        if isinstance(x, (tuple, list)):
            return tuple(canon(e) for e in x)
        return x

    assert len(results_a) == len(results_b)
    for image, (a, b) in enumerate(zip(results_a, results_b), start=1):
        assert canon(a) == canon(b), f"image {image} diverged"


def traced_launch(fn, num_images, machine="stampede", args=(), **rt_kwargs):
    """``caf.launch`` with a sync-capture tracer attached; returns
    ``(results, tracer)`` so callers can compare footprints."""
    job = Job(num_images, machine)
    rt = caf_attach(job, **rt_kwargs)
    tracer = trace.attach(job, capture_sync=True)

    def spmd_main(*a):
        rt.startup()
        return fn(*a)

    return job.run(spmd_main, args=args), tracer


def touched(tracer):
    """What each PE's data operations touched, independent of how the
    calls were grouped: ``{(pe, direction, target): (logical calls,
    sorted byte addresses)}``."""
    calls = Counter()
    addrs: dict = {}
    for pe, events in enumerate(tracer.events):
        for ev in events:
            if ev.internal or ev.op not in ("put", "iput", "get", "iget"):
                continue
            key = (pe, "w" if ev.op in ("put", "iput") else "r", ev.target)
            calls[key] += ev.calls
            seen = addrs.setdefault(key, set())
            for start, length in ev.footprint:
                seen.update(range(start, start + length))
    return {key: (calls[key], sorted(addrs[key])) for key in calls}

