"""Trace save/load round-trips."""

import json

import numpy as np
import pytest

from repro import shmem, trace
from repro.runtime.launcher import Job
from repro.trace import serialize


def _make_trace():
    job = Job(3)
    shmem.attach(job)
    tracer = trace.attach(job)

    def kernel():
        me, n = shmem.my_pe(), shmem.num_pes()
        x = shmem.shmalloc_array((32,), np.int64)
        shmem.barrier_all()
        shmem.put(x, np.zeros(32, dtype=np.int64), (me + 1) % n)
        shmem.atomic_fadd(x, 1, pe=0)
        shmem.barrier_all()

    job.run(kernel)
    return tracer


def test_roundtrip(tmp_path):
    tracer = _make_trace()
    path = tmp_path / "trace.json"
    serialize.save(tracer, path)
    events = serialize.load(path)
    assert len(events) == tracer.count()
    originals = tracer.all_events()
    assert events == originals


def test_document_shape(tmp_path):
    tracer = _make_trace()
    doc = serialize.to_dict(tracer)
    assert doc["format"] == serialize.FORMAT_VERSION
    assert doc["num_pes"] == 3
    assert doc["machine"] == "Stampede"
    assert all(len(rec) == 11 for rec in doc["events"])
    assert all(rec[6] >= 1 for rec in doc["events"])
    # the document is valid JSON end to end
    assert json.loads(json.dumps(doc)) == doc


def test_v3_sync_fields_roundtrip(tmp_path):
    """Footprints, internal flags and sync metadata survive save/load."""
    job = Job(2)
    shmem.attach(job)
    tracer = trace.attach(job, capture_sync=True)

    def kernel():
        me = shmem.my_pe()
        x = shmem.shmalloc_array((32,), np.int64)
        shmem.barrier_all()
        if me == 0:
            shmem.put(x, np.arange(8, dtype=np.int64), 1)
            shmem.quiet()
        shmem.barrier_all()

    job.run(kernel)
    path = tmp_path / "trace.json"
    serialize.save(tracer, path)
    events = serialize.load(path)
    assert events == tracer.all_events()
    puts = [e for e in events if e.op == "put"]
    assert puts and puts[0].footprint and puts[0].addr >= 0
    barriers = [e for e in events if e.op == "barrier"]
    assert barriers and all(e.meta and e.meta[0] == "b" for e in barriers)


def test_fault_and_retry_events_roundtrip(tmp_path):
    """Injected faults leave 'fault'/'retry' records in the trace and
    they survive save/load with attempt counts and op metadata."""
    from repro.sim.faults import FaultPlan

    job = Job(
        2,
        faults=FaultPlan(seed=13, transient_rate=0.6, max_failures=2,
                         latency_rate=0.0),
    )
    shmem.attach(job)
    tracer = trace.attach(job)

    def kernel():
        me = shmem.my_pe()
        x = shmem.shmalloc_array((16,), np.int64)
        shmem.barrier_all()
        for _ in range(12):
            shmem.put(x, np.zeros(16, dtype=np.int64), 1 - me)
        shmem.quiet()
        shmem.barrier_all()

    job.run(kernel)
    path = tmp_path / "faulted.json"
    serialize.save(tracer, path)
    events = serialize.load(path)
    assert events == tracer.all_events()
    retries = [e for e in events if e.op == "retry"]
    # 12 puts/PE at a 60% transient rate: retries are certain.
    assert retries
    assert all(e.internal for e in retries)
    assert all(e.meta == ("f", "put") for e in retries)
    assert all(e.calls >= 1 for e in retries)


def test_load_validates(tmp_path):
    tracer = _make_trace()
    doc = serialize.to_dict(tracer)

    # Formats 1-4 are written by nothing; only FORMAT_VERSION loads.
    for fmt in (99, 3, None):
        with pytest.raises(ValueError, match="unsupported trace format"):
            serialize.events_from_dict(dict(doc, format=fmt))

    def rec(pe=0, op="put", t_start=0.0, t_end=1.0, calls=1):
        return [pe, op, 1, 8, t_start, t_end, calls, -1, [], 0, []]

    for bad_rec, match in (
        (rec(pe=7), "outside"),
        (rec(op="warp"), "unknown op"),
        (rec(t_start=5.0), "ends before"),
        (rec(calls=0), "covers 0 calls"),
        (rec()[:6], "has 6 fields"),  # the record shape of formats 1-2
    ):
        with pytest.raises(ValueError, match=match):
            serialize.events_from_dict(dict(doc, events=[bad_rec]))


def test_loaded_events_are_ordered(tmp_path):
    tracer = _make_trace()
    path = tmp_path / "t.json"
    serialize.save(tracer, path)
    events = serialize.load(path)
    assert all(a.t_start <= b.t_start for a, b in zip(events, events[1:]))
