"""KV service workload: generator properties, reshard crash sweep,
``authoritative_items`` edge cases, and the vt-ordered determinism of
the benchmark cells.

The traffic generator is a pure function of ``(spec, pe)`` — the
Hypothesis properties pin that down (same seed ⇒ identical stream,
also when generated *inside* kernels on different engines), plus the
statistical contracts: the read/write/scan mix is honoured exactly
(largest-remainder apportionment) and the empirical Zipf rank
frequencies track the analytic weights.

The reshard sweep mirrors the PR-9 DHT crash sweep: kill one image at
every (strided) op index while the ring is growing under load; every
surviving image must verify zero lost acked writes, and on a subset of
indices the survivor digests must be engine-identical.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import caf
from repro.bench.dht import DataLossError, ReplicatedHashTable
from repro.bench.kvservice import (
    WorkloadSpec,
    aggregate,
    generate_stream,
    kind_counts,
    percentiles,
    run_cell,
    zipf_cdf,
)
from repro.explore import RandomWalk, Scheduler
from repro.sim.faults import FaultPlan

REPO = Path(__file__).resolve().parents[2]


def _stream_sig(stream):
    return tuple((op.kind, op.rank, op.key, round(op.arrival, 9))
                 for op in stream)


# ---------------------------------------------------------------------------
# Generator properties
# ---------------------------------------------------------------------------

specs = st.builds(
    WorkloadSpec,
    ops=st.integers(1, 96),
    keyspace=st.integers(1, 64),
    zipf_s=st.floats(0.0, 2.5, allow_nan=False),
    read_frac=st.just(0.6),
    write_frac=st.just(0.3),
    scan_frac=st.just(0.1),
    mean_interarrival_us=st.floats(0.5, 1000.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
    disjoint=st.booleans(),
)


class TestGenerator:
    @settings(max_examples=40, deadline=None)
    @given(spec=specs, pe=st.integers(1, 8))
    def test_same_seed_same_stream(self, spec, pe):
        assert _stream_sig(generate_stream(spec, pe)) == _stream_sig(
            generate_stream(spec, pe)
        )

    @settings(max_examples=40, deadline=None)
    @given(spec=specs, pe=st.integers(1, 8))
    def test_stream_shape(self, spec, pe):
        stream = generate_stream(spec, pe)
        assert len(stream) == spec.ops
        arrivals = [op.arrival for op in stream]
        assert all(a > 0 for a in arrivals)
        assert arrivals == sorted(arrivals)
        lo = pe * spec.keyspace if spec.disjoint else 0
        for op in stream:
            assert 0 <= op.rank < spec.keyspace
            assert op.key == lo + op.rank

    @settings(max_examples=40, deadline=None)
    @given(spec=specs, pe=st.integers(1, 8))
    def test_mix_fractions_exact(self, spec, pe):
        stream = generate_stream(spec, pe)
        counts = kind_counts(spec)
        assert sum(counts) == spec.ops
        for kind, want, frac in zip(
            ("read", "write", "scan"), counts,
            (spec.read_frac, spec.write_frac, spec.scan_frac),
        ):
            got = sum(op.kind == kind for op in stream)
            assert got == want
            # Largest-remainder: within one op of the exact fraction.
            assert abs(got - frac * spec.ops) < 1.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), s=st.floats(0.4, 1.6))
    @example(seed=509, s=0.921875)  # z = 4.12 at one rank: failed a 4-sigma envelope
    def test_zipf_rank_frequency(self, seed, s):
        keyspace = 16
        spec = WorkloadSpec(ops=6000, keyspace=keyspace, zipf_s=s,
                            read_frac=1.0, write_frac=0.0, scan_frac=0.0,
                            seed=seed)
        stream = generate_stream(spec, 1)
        freq = np.bincount([op.rank for op in stream], minlength=keyspace)
        emp = freq / len(stream)
        cdf = zipf_cdf(keyspace, s)
        theory = np.diff(cdf, prepend=0.0)
        # Binomial envelope per rank, z set by a false-failure budget: a
        # run makes 16 ranks x 10 examples = 160 two-sided checks, and
        # Bonferroni gives 160 * P(|Z| > 5.5) ~ 6e-6 per run (normal
        # approximation).  A 4-sigma envelope failed about 1 run in 100.
        tol = 5.5 * np.sqrt(theory * (1 - theory) / len(stream)) + 1e-9
        assert np.all(np.abs(emp - theory) <= tol)
        # The skew must actually be monotone on average: hottest rank
        # drawn at least as often as the coldest, strictly for real skew.
        if s >= 0.4:
            assert freq[0] > freq[-1]

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(read_frac=0.9, write_frac=0.3,
                         scan_frac=0.0).fractions()
        with pytest.raises(ValueError):
            WorkloadSpec(read_frac=1.1, write_frac=-0.1,
                         scan_frac=0.0).fractions()


def test_stream_identical_across_engines():
    """The stream generated inside kernels on the threaded and event
    engines matches the host-generated stream exactly."""
    spec = WorkloadSpec(ops=24, keyspace=12, zipf_s=1.1, read_frac=0.7,
                        write_frac=0.2, scan_frac=0.1, seed=99)
    want = _stream_sig(generate_stream(spec, 1))

    def kernel():
        return _stream_sig(generate_stream(spec, 1))

    threaded = caf.launch(kernel, 2, machine="stampede", heap_bytes=1 << 15)
    assert threaded[0] == want and threaded[1] == want

    from repro.engine.steps import Done
    from repro.runtime.launcher import Job

    job = Job(2, "stampede", heap_bytes=1 << 15, engine="event")
    event = job.run(lambda: Done(_stream_sig(generate_stream(spec, 1))))
    assert event[0] == want and event[1] == want


# ---------------------------------------------------------------------------
# Deterministic benchmark cells (VirtualTimeOrder)
# ---------------------------------------------------------------------------


def test_vt_cells_are_reproducible():
    spec = WorkloadSpec(ops=20, keyspace=8, zipf_s=1.0, read_frac=0.8,
                        write_frac=0.2, scan_frac=0.0,
                        mean_interarrival_us=4.0, seed=5)
    a = aggregate(run_cell(spec, images=3), spec)
    b = aggregate(run_cell(spec, images=3), spec)
    assert a == b
    assert a["latency_us"]["p50"] > 0


def test_percentiles_nearest_rank():
    lat = list(range(1, 101))
    p = percentiles(lat)
    assert p == {"p50": 50, "p95": 95, "p99": 99}
    assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


# ---------------------------------------------------------------------------
# Reshard crash sweep (mirrors the PR-9 DHT sweep)
# ---------------------------------------------------------------------------

SWEEP_SPEC = WorkloadSpec(
    ops=10, keyspace=8, zipf_s=1.0, read_frac=0.5, write_frac=0.5,
    scan_frac=0.0, mean_interarrival_us=2.0, seed=9, disjoint=True,
)


def _reshard_crash_run(at: int, engine: str):
    plan = FaultPlan(seed=9, crash_at={2: at})
    how = Scheduler(RandomWalk(plan.seed)) if engine == "cooperative" else engine
    results = run_cell(
        SWEEP_SPEC, images=4, ring_images=2, grow_to=4, grow_at=3,
        engine=how, survivable=True, faults=plan, watchdog_s=60.0,
    )
    survivors = [r for r in results if r is not None]
    lost = [m for r in survivors for m in r["lost"]]
    digest = hashlib.sha256(
        json.dumps(sorted(p for r in survivors for p in r["pairs"]))
        .encode()
    ).hexdigest()
    return len(results) - len(survivors), lost, digest


def test_reshard_crash_at_every_op_index():
    """A crash at any point of the grow→drain window loses zero acked
    writes; on a subset of indices the survivor digests must agree
    between the threaded and cooperative engines."""
    crashed_runs = 0
    for at in range(1, 120, 7):
        dead, lost, digest = _reshard_crash_run(at, "threaded")
        assert lost == [], f"crash_at={at}: lost acked writes {lost[:4]}"
        if dead:
            crashed_runs += 1
        if at in (1, 43, 92):
            dead2, lost2, digest2 = _reshard_crash_run(at, "cooperative")
            assert lost2 == []
            assert dead2 == dead, f"crash_at={at} fired on one engine only"
            assert digest2 == digest, (
                f"crash_at={at}: survivor digests differ across engines"
            )
    assert crashed_runs >= 5, "sweep never reached the crash window"


# ---------------------------------------------------------------------------
# authoritative_items edge cases
# ---------------------------------------------------------------------------


def test_authoritative_items_empty_table():
    def kernel():
        table = ReplicatedHashTable(16, locks_per_image=2)
        caf.sync_all()
        return table.authoritative_items()

    results = caf.launch(kernel, 3, machine="stampede", heap_bytes=1 << 16)
    assert results == [[], [], []]


def test_authoritative_items_all_buckets_on_one_image():
    """``ring_images=1`` homes every key on image 1: image 1 owns all
    primary items, every other image's primary region is empty (the
    replica mirror on image 2 is not authoritative while 1 lives)."""
    def kernel():
        table = ReplicatedHashTable(64, locks_per_image=4, ring_images=1)
        me = caf.this_image()
        caf.sync_all()
        if me == 2:
            for k in range(10):
                table.put(k, 100 + k)
        caf.sync_all()
        return table.authoritative_items()

    results = caf.launch(
        kernel, 3, machine="stampede", heap_bytes=1 << 17,
        lock_algorithm="tas",
    )
    assert sorted(results[0]) == [(k, 100 + k) for k in range(10)]
    assert results[1] == [] and results[2] == []


def test_authoritative_items_double_failure_raises():
    """When an image and its replica host both fail, the survivors'
    digest is missing a bucket range: ``authoritative_items`` must
    raise ``DataLossError``, never silently drop the data."""
    from repro.runtime.failures import ImageFailedError

    def kernel():
        me = caf.this_image()
        table = ReplicatedHashTable(32, locks_per_image=2)
        for i in range(12):
            try:
                table.update((me << 20) + i)
            except ImageFailedError:
                pass  # both copy hosts dead: the write range is lost
        stat = [0]
        for _ in range(8):
            caf.sync_all(stat=stat)
            if len(caf.failed_images()) == 2:
                break
        if len(caf.failed_images()) != 2:
            return "no-crash"
        try:
            table.authoritative_items()
        except DataLossError:
            return "raised"
        return "silent"

    # PEs are 0-based in the fault plan: PEs 2 and 3 are images 3 and
    # 4, and secondary(3) == 4 — a failed image whose replica host has
    # also failed.
    plan = FaultPlan(seed=21, crash_at={2: 30, 3: 34})
    results = caf.launch(
        kernel, 4, machine="stampede", heap_bytes=1 << 17,
        survivable=True, lock_algorithm="tas", faults=plan, watchdog_s=60.0,
        args=(),
    )
    survivors = [r for r in results if r is not None]
    assert len(survivors) == 2
    assert all(r == "raised" for r in survivors), survivors


def test_update_rejected_on_ring_tables():
    def kernel():
        table = ReplicatedHashTable(32, ring_images=2)
        caf.sync_all()
        try:
            table.update(1)
        except ValueError:
            return "rejected"
        finally:
            caf.sync_all()
        return "allowed"

    results = caf.launch(
        kernel, 2, machine="stampede", heap_bytes=1 << 16,
        lock_algorithm="tas",
    )
    assert results == ["rejected", "rejected"]


def test_negative_keys_rejected():
    def kernel():
        table = ReplicatedHashTable(16)
        caf.sync_all()
        with pytest.raises(ValueError):
            table.put(-1, 5)
        with pytest.raises(ValueError):
            table.update(-2)
        caf.sync_all()
        return True

    assert all(caf.launch(kernel, 2, machine="stampede", heap_bytes=1 << 16))


# ---------------------------------------------------------------------------
# The chaos survivable gate, kvservice target
# ---------------------------------------------------------------------------


def test_chaos_kvservice_degraded():
    from repro.chaos import run_survivable_cell, survivable_crash_plan

    out = run_survivable_cell(
        "kvservice", survivable_crash_plan(2015), quick=True
    )
    assert out.status == "degraded", (out.status, out.detail)
    assert out.injected.get("crashes") == 1


def test_chaos_kvservice_no_crash_is_identical():
    from repro.chaos import run_survivable_cell, survivable_crash_plan

    out = run_survivable_cell(
        "kvservice", survivable_crash_plan(7, at=10_000), quick=True
    )
    assert out.status == "identical", (out.status, out.detail)


def test_chaos_unknown_survivable_target():
    from repro.chaos import run_survivable_cell, survivable_crash_plan

    with pytest.raises(ValueError, match="kvservice"):
        run_survivable_cell("nope", survivable_crash_plan(1))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_bench_cli_lists_kvservice_in_help():
    proc = _run_cli("--help")
    assert proc.returncode == 0
    assert "kvservice" in proc.stdout


def test_bench_cli_unknown_target_clear_error():
    proc = _run_cli("no-such-target")
    assert proc.returncode != 0
    err = proc.stderr
    assert "no-such-target" in err and "KeyError" not in err
    assert "kvservice" in err  # the error lists what IS available
