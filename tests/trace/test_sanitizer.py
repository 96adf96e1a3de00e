"""The happens-before ordering sanitizer (seeded violations + clean runs)."""

import json
import time

import numpy as np
import pytest

from repro import caf, shmem, trace
from repro.bench.dht import dht_benchmark
from repro.bench.harness import UHCAF_MV2X_SHMEM
from repro.bench.himeno import himeno_caf
from repro.runtime.launcher import Job, JobAborted
from repro.trace import sanitize as sanitize_cli
from repro.trace.sanitizer import OrderingViolation, check_events, check_tracer
from repro.trace.serialize import FORMAT_VERSION


def _kinds(report):
    return [f.kind for f in report.findings]


# ---------------------------------------------------------------------------
# Seeded violations (the ISSUE's negative tests)
# ---------------------------------------------------------------------------


def test_missing_quiet_detected():
    """Relaxed ordering + atomic flag handshake: the reader is ordered
    after the put (atomics synchronize) but no quiet intervenes, so the
    put may not have landed — the paper's Table II bug, seeded."""

    def kernel():
        me = caf.this_image()
        data = caf.coarray((8,), np.int64)
        flag = caf.coarray((1,), np.int64)
        data[:] = 0
        flag[:] = 0
        caf.sync_all()
        if me == 1:
            data.on(2)[:] = np.arange(8, dtype=np.int64)  # no quiet (relaxed)
            caf.atomic_define(flag, 2, 1)
        else:
            while caf.atomic_ref(flag, 2) != 1:
                time.sleep(0.0005)
            data.on(2).get(...)  # racy read under the weak model
        caf.sync_all()

    with pytest.raises(OrderingViolation) as exc:
        caf.launch(kernel, num_images=2, ordering="relaxed", sanitize=True)
    kinds = _kinds(exc.value.report)
    assert "missing-quiet" in kinds
    assert "unordered-conflict" not in kinds  # the handshake DID order them


def test_unordered_conflict_detected():
    """Two images update the same remote slot with no lock between the
    same pair of barriers: flagged even though quiets are present."""

    def kernel():
        me = caf.this_image()
        data = caf.coarray((4,), np.int64)
        data[:] = 0
        caf.sync_all()
        data.on(1)[0] = me  # both images write image 1's slot 0
        caf.sync_all()

    with pytest.raises(OrderingViolation) as exc:
        caf.launch(kernel, num_images=2, sanitize=True)
    assert "unordered-conflict" in _kinds(exc.value.report)


def test_lock_ordered_update_is_clean():
    """The same conflicting update under a coarray lock passes."""

    def kernel():
        lck = caf.lock_type()
        data = caf.coarray((4,), np.int64)
        data[:] = 0
        caf.sync_all()
        with lck.guard(1):
            v = int(data.on(1)[0])
            data.on(1)[0] = v + 1
        caf.sync_all()
        return int(data.local[0]) if caf.this_image() == 1 else None

    out = caf.launch(kernel, num_images=4, sanitize=True)
    assert out[0] == 4


# ---------------------------------------------------------------------------
# Lock-discipline findings (synthetic traces: the runtime's own locks
# cannot be made to misbehave this way, so the records are seeded)
# ---------------------------------------------------------------------------


def _synthetic_doc(events):
    return {
        "format": FORMAT_VERSION, "num_pes": 2, "machine": "Synthetic",
        "events": events,
    }


def _unquiesced_release_doc():
    return _synthetic_doc(
        [
            [0, "lock_acquire", 1, 0, 0.0, 1.0, 1, -1, [], 0, ["la", 1, 1, 0, 1]],
            [0, "put", 1, 8, 1.0, 2.0, 1, 64, [[64, 8]], 0, []],
            [0, "lock_release", 1, 0, 2.0, 3.0, 1, -1, [], 0, ["lr", 1, 1, 0, 1]],
        ]
    )


def _cross_image_unlock_doc():
    return _synthetic_doc(
        [
            [0, "lock_acquire", 1, 0, 0.0, 1.0, 1, -1, [], 0, ["la", 1, 1, 0, 1]],
            [1, "lock_release", 1, 0, 1.0, 2.0, 1, -1, [], 0, ["lr", 1, 1, 0, 1]],
        ]
    )


def test_unquiesced_release_detected():
    from repro.trace.serialize import events_from_dict

    events = events_from_dict(_unquiesced_release_doc())
    report = check_events(events, 2)
    assert _kinds(report) == ["unquiesced-release"]


def test_cross_image_unlock_detected():
    from repro.trace.serialize import events_from_dict

    events = events_from_dict(_cross_image_unlock_doc())
    report = check_events(events, 2)
    assert _kinds(report) == ["cross-image-unlock"]


def test_unmatched_release_detected():
    from repro.trace.serialize import events_from_dict

    doc = _synthetic_doc(
        [[0, "lock_release", 1, 0, 1.0, 2.0, 1, -1, [], 0, ["lr", 1, 1, 0, 7]]]
    )
    report = check_events(events_from_dict(doc), 2)
    assert _kinds(report) == ["unmatched-release"]


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------


def test_cli_reports_findings(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_unquiesced_release_doc()))
    assert sanitize_cli.main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "unquiesced-release" in out and "1 finding" in out


def test_cli_clean_trace_exits_zero(tmp_path, capsys):
    job = Job(2)
    shmem.attach(job)
    tracer = trace.attach(job, capture_sync=True)

    def kernel():
        me = shmem.my_pe()
        x = shmem.shmalloc_array((8,), np.int64)
        shmem.barrier_all()
        if me == 0:
            shmem.put(x, np.arange(8, dtype=np.int64), 1)
            shmem.quiet()
        shmem.barrier_all()
        if me == 1:
            shmem.get(x, 8, 1)
        shmem.barrier_all()

    job.run(kernel)
    from repro.trace import serialize

    path = tmp_path / "clean.json"
    serialize.save(tracer, path)
    assert sanitize_cli.main([str(path)]) == 0
    assert "0 finding" in capsys.readouterr().out


def test_cli_quiet_flag_and_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_cross_image_unlock_doc()))
    assert sanitize_cli.main([str(path), "--quiet"]) == 1
    assert capsys.readouterr().out == ""
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert sanitize_cli.main([str(garbled)]) == 2
    assert sanitize_cli.main([str(tmp_path / "absent.json")]) == 2


# ---------------------------------------------------------------------------
# Clean kernels: the sanitizer must not cry wolf
# ---------------------------------------------------------------------------


def test_dht_run_is_clean():
    elapsed = dht_benchmark(
        "stampede",
        UHCAF_MV2X_SHMEM,
        num_images=4,
        updates_per_image=6,
        slots_per_image=16,
        sanitize=True,
    )
    assert elapsed > 0


def test_himeno_run_is_clean():
    result = himeno_caf(
        "stampede", UHCAF_MV2X_SHMEM, 3, grid="XS", iterations=2, sanitize=True
    )
    assert result.mflops > 0


def test_locks_events_sync_images_are_clean():
    """Every sync primitive orders its data: lock handoff, event
    post/wait, and pairwise sync_images all pass the sanitizer."""

    def kernel():
        me = caf.this_image()
        data = caf.coarray((4,), np.int64)
        counter = caf.coarray((1,), np.int64)
        ev = caf.event_type()
        lck = caf.lock_type()
        data[:] = 0
        counter[:] = 0
        caf.sync_all()
        with lck.guard(1):
            v = int(counter.on(1)[0])
            counter.on(1)[0] = v + 1
        caf.sync_all()
        if me == 1:
            data.on(2)[:] = 7
            ev.post(2)
        elif me == 2:
            ev.wait()
            assert int(data.on(2).get(...)[0]) == 7
        caf.sync_all()
        if me == 1:
            data.on(2)[:] = 9
            caf.sync_images([2])
        elif me == 2:
            caf.sync_images([1])
            assert int(data.on(2).get(...)[0]) == 9
        caf.sync_all()
        return int(counter.local[0]) if me == 1 else None

    out = caf.launch(kernel, num_images=3, sanitize=True)
    assert out[0] == 3


def test_check_tracer_on_clean_shmem_run():
    job = Job(4)
    shmem.attach(job)
    tracer = trace.attach(job, capture_sync=True)

    def kernel():
        me, n = shmem.my_pe(), shmem.num_pes()
        x = shmem.shmalloc_array((16,), np.int64)
        shmem.barrier_all()
        shmem.put(x, np.full(16, me, dtype=np.int64), (me + 1) % n)
        shmem.quiet()
        shmem.barrier_all()
        shmem.get(x, 16, me)
        shmem.barrier_all()

    job.run(kernel)
    report = check_tracer(tracer)
    assert report.ok, report.render()
    assert report.stats["events"] > 0


# ---------------------------------------------------------------------------
# Fixed lock-path bugs stay fixed
# ---------------------------------------------------------------------------


def test_contended_mcs_release_is_fully_traced():
    """The MCS release's successor-pointer read used to bypass the
    tracer (raw ``memories[pe].read_scalar``); it must now appear as a
    traced local get on the releasing image."""
    job = Job(2)
    caf.attach(job)
    tracer = trace.attach(job, capture_sync=True)

    def kernel():
        rt = caf.current_runtime()
        rt.startup()
        me = caf.this_image()
        lck = caf.lock_type()
        token = caf.coarray((1,), np.int64)
        caf.sync_all()
        if me == 1:
            caf.lock(lck, 1)
            caf.atomic_define(token, 2, 1)  # image 2: start contending
            time.sleep(0.05)  # let it enqueue behind us
            caf.unlock(lck, 1)  # handoff path: reads successor pointer
        else:
            rt.layer.wait_until(token.handle, "eq", 1)
            caf.lock(lck, 1)
            caf.unlock(lck, 1)
        caf.sync_all()

    job.run(kernel)
    local_reads = [
        e for e in tracer.events[0] if e.op == "get" and e.internal and e.target == 0
    ]
    assert local_reads, "successor-pointer read missing from the trace"
    assert all(e.nbytes == 8 and e.t_start == e.t_end for e in local_reads)
    report = check_tracer(tracer)
    assert report.ok, report.render()


def test_tas_acquire_checks_abort_before_first_attempt():
    """An image that starts acquiring after the job aborted must raise
    JobAborted without issuing a single remote atomic (the abort check
    used to run only after a failed cswap + backoff)."""
    job = Job(2)
    caf.attach(job, lock_algorithm="tas")
    tracer = trace.attach(job)

    def kernel():
        rt = caf.current_runtime()
        rt.startup()
        me = caf.this_image()
        lck = caf.lock_type()
        caf.sync_all()
        if me == 1:
            caf.lock(lck, 1)
            raise RuntimeError("boom")
        while not rt.job.aborted():
            time.sleep(0.001)
        try:
            caf.lock(lck, 1)
        except JobAborted:
            return "aborted-cleanly"
        return "acquired-after-abort"

    with pytest.raises(RuntimeError, match="boom"):
        job.run(kernel)
    assert not any(e.op == "atomic" for e in tracer.events[1])
