"""Bit-identity of batched plan execution against the per-call oracle:
random sections, inter-node profiles, and the short-circuit paths.

Every workload runs two ways — the one data plane in ``src/`` and the
per-call loops of :mod:`tests.caf.oracle` — and must produce identical
virtual clocks, stats counters, local buffers, fetched sections, and
trace footprints, bit for bit.  A hypothesis property drives random
shapes, slices, dtypes, and strided-translation policies through the
comparison; the deterministic tests pin the short-circuit paths
(zero-length and single-call plans) and the sanitizer on the deferred
footprints.  (``test_batch_invariance.py`` holds the larger scenarios:
17-image round trips, all-initiator intra-node traffic, Himeno.)
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import caf
from repro.caf.runtime import current_runtime
from repro.runtime.context import current
from tests.caf.oracle import (
    assert_identical,
    fingerprint,
    launch_two_ways,
    touched,
    traced_launch,
    two_ways,
)


def _section_kernel(shape, key, dtype_name):
    """Image 1 writes deterministic patterns to the section on image 2
    and reads them back, alternating between two same-shape coarrays —
    both accesses hit one cached ``BatchSpec``, whose strided view is
    placed at a different array base every time."""
    dtype = np.dtype(dtype_name)
    a = caf.coarray(shape, dtype)
    b = caf.coarray(shape, dtype)
    a[...] = 0
    b[...] = 0
    caf.sync_all()
    got = None
    if caf.this_image() == 1:
        sel_shape = tuple(len(range(*s.indices(d))) for s, d in zip(key, shape))
        n = int(np.prod(sel_shape))
        data = (np.arange(n) % 97).reshape(sel_shape).astype(dtype)
        a.on(2)[key] = data
        b.on(2)[key] = data + 1
        got = (np.asarray(a.on(2)[key]), np.asarray(b.on(2)[key]))
        a.on(2)[key] = data + 2
        got += (np.asarray(a.on(2)[key]),)
    caf.sync_all()
    return fingerprint(a.local.copy(), b.local.copy(), got)


@st.composite
def sections(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(ndim))
    key = []
    for d in shape:
        start = draw(st.integers(0, d - 1))
        stop = draw(st.integers(start, d))  # may be empty
        step = draw(st.integers(1, 3))
        key.append(slice(start, stop, step))
    # c16: 16-byte elements, wider than any unsigned-integer word.
    dtype_name = draw(st.sampled_from(["u1", "i2", "f4", "f8", "i8", "c16"]))
    policy = draw(st.sampled_from(["naive", "2dim", "alldim", "lastdim", "auto"]))
    return shape, tuple(key), dtype_name, policy


# Every draw is a small plan (at most 9**3 = 729 elements, nearly all
# under 512).  The pinned examples are multi-call plans of 1 < n < 512
# elements over 8- and 16-byte elements (line plans and per-element run
# plans each).
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sections())
@example(((8, 8), (slice(0, 8, 2), slice(1, 8, 3)), "f8", "2dim"))
@example(((8, 8), (slice(0, 8, 2), slice(1, 8, 3)), "c16", "2dim"))
@example(((6, 5, 4), (slice(0, 6, 2), slice(0, 5), slice(1, 4, 2)), "c16", "naive"))
@example(((9, 7), (slice(1, 9, 3), slice(0, 7, 2)), "i2", "naive"))
def test_random_sections_bit_identical(params):
    shape, key, dtype_name, policy = params
    kw = dict(
        num_images=2,
        profile="cray-shmem",
        strided=policy,
        args=(shape, key, dtype_name),
    )
    (fast, fast_trace), (oracle, oracle_trace) = two_ways(
        lambda: traced_launch(_section_kernel, **kw)
    )
    assert_identical(fast, oracle)
    assert touched(fast_trace) == touched(oracle_trace)


def test_oracle_issues_one_record_per_call(per_call_oracle):
    """The comparison is not vacuous: under the oracle a multi-call plan
    really is traced as one record per library call."""
    shape, key = (8, 8), (slice(0, 8, 2), slice(1, 8, 3))
    _, tracer = traced_launch(
        _section_kernel, 2, profile="cray-shmem", strided="2dim",
        args=(shape, key, "f8"),
    )
    mine = [ev for ev in tracer.events[0] if ev.op in ("iput", "iget")]
    assert mine and all(ev.calls == 1 for ev in mine)
    assert len(mine) == 3 * (3 + 3)  # 3 lines of 4 elements x (3 puts + 3 gets)


@pytest.mark.parametrize("profile", ["cray-shmem", "mvapich2x-shmem", "gasnet"])
def test_inter_node_sections_bit_identical(profile):
    """One inter-node initiator (PEs 0 and 17 live on different nodes),
    shared-timeline pricing paths included."""

    def kernel():
        a = caf.coarray((16, 12), np.float64)
        a[...] = 0.0
        caf.sync_all()
        got = None
        if caf.this_image() == 1:
            tgt = caf.num_images()
            a.on(tgt)[1:15:2, 0:12:3] = np.arange(28.0).reshape(7, 4)
            got = np.asarray(a.on(tgt)[0:16:3, 2:11:2])
        caf.sync_all()
        return fingerprint(a.local.copy(), got)

    kw = dict(num_images=17, machine="stampede", profile=profile, strided="2dim")
    assert_identical(*launch_two_ways(kernel, **kw))


# ---------------------------------------------------------------------------
# Short-circuit paths: zero-length and single-call plans
# ---------------------------------------------------------------------------


def test_zero_length_section_is_free_and_identical():
    def kernel():
        a = caf.coarray((10, 10), np.float64)
        a[...] = 1.0
        caf.sync_all()
        got = None
        if caf.this_image() == 1:
            before = current().clock.now
            a.on(2)[3:3, :] = np.empty((0, 10))
            got = np.asarray(a.on(2)[5:5, 0:10:2])
            assert got.shape == (0, 5)
            assert current().clock.now == before  # nothing priced
        caf.sync_all()
        return fingerprint(a.local.copy(), got)

    kw = dict(num_images=2, machine="stampede", profile="cray-shmem", strided="2dim")
    assert_identical(*launch_two_ways(kernel, **kw))


@pytest.mark.parametrize("profile", ["cray-shmem", "mvapich2x-shmem"])
def test_single_call_plans_bit_identical(profile):
    """Single-line and single-run plans take the scalar short-circuit
    (no batch machinery); timing, stats, and data must still match the
    oracle exactly."""

    def kernel():
        a = caf.coarray((12, 12), np.float64)
        a[...] = 0.0
        caf.sync_all()
        got = None
        if caf.this_image() == 1:
            a.on(2)[4, 0:12:3] = np.arange(4.0)          # one strided line
            a.on(2)[7, :] = np.arange(12.0)              # one contiguous run
            a.on(2)[3, 5] = 42.0                         # single element
            got = (
                np.asarray(a.on(2)[4, 0:12:3]),
                np.asarray(a.on(2)[7, :]),
                float(a.on(2)[3, 5]),
            )
        caf.sync_all()
        return fingerprint(a.local.copy(), got)

    kw = dict(num_images=2, machine="stampede", profile=profile, strided="2dim")
    assert_identical(*launch_two_ways(kernel, **kw))


def test_single_call_stats_counts():
    """The short-circuits must still count one logical call apiece."""

    def kernel():
        a = caf.coarray((12, 12), np.float64)
        a[...] = 0.0
        caf.sync_all()
        stats = {}
        if caf.this_image() == 1:
            a.on(2)[4, 0:12:3] = np.arange(4.0)   # -> 1 iput
            a.on(2)[7, :] = np.arange(12.0)       # -> 1 putmem
            _ = a.on(2)[4, 0:12:3]                # -> 1 iget
            _ = a.on(2)[7, :]                     # -> 1 getmem
            stats = dict(current_runtime().my_stats)
        caf.sync_all()
        return stats

    stats = caf.launch(
        kernel, 2, "stampede", profile="cray-shmem", strided="2dim"
    )[0]
    assert stats["iput_calls"] == 1
    assert stats["putmem_calls"] == 1
    assert stats["iget_calls"] == 1
    assert stats["getmem_calls"] == 1
    assert stats["put_elems"] == 16
    assert stats["get_elems"] == 16


# ---------------------------------------------------------------------------
# Sanitizer on the fast path (deferred footprints must resolve)
# ---------------------------------------------------------------------------


def test_sanitizer_passes_on_fast_path():
    """capture_sync tracing records deferred footprint descriptors; the
    happens-before sanitizer must see them fully materialized and find
    nothing wrong in a clean program."""

    def kernel():
        a = caf.coarray((16, 16), np.float64)
        a[...] = 0.0
        caf.sync_all()
        if caf.this_image() == 1:
            a.on(2)[0:16:2, 0:16:4] = np.arange(32.0).reshape(8, 4)
            a.on(2)[1, :] = np.arange(16.0)
        caf.sync_all()
        if caf.this_image() == 2:
            _ = a.on(1)[0:16:2, 0:16:4]
        caf.sync_all()
        return True

    assert all(
        caf.launch(
            kernel, 2, "stampede",
            profile="cray-shmem", strided="2dim", sanitize=True,
        )
    )
