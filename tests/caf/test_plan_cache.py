"""The runtime's LRU transfer-plan cache: hits, bypasses, keying,
eviction, and safety across deallocate/reallocate cycles."""

from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from repro import caf
from repro.caf.rma import build_spec, plan_spec
from repro.caf.runtime import current_runtime
from repro.caf.strided import make_plan, normalize_selection


def test_repeated_sections_hit_the_cache():
    def kernel():
        me, n = caf.this_image(), caf.num_images()
        a = caf.coarray((8, 8), np.int64)
        a[...] = 0
        caf.sync_all()
        nxt = me % n + 1
        for i in range(5):
            a.on(nxt).put((slice(0, 8, 2), slice(1, 8, 2)), np.full((4, 4), i + me))
            caf.sync_all()
        rt = current_runtime()
        return dict(rt.plan_cache_info(), **{"my_hits": rt.my_stats["plan_cache_hits"]})

    out = caf.launch(kernel, num_images=2, profile="cray-shmem")
    info = out[0]
    assert info["entries"] == 1  # both images share one entry
    # The cache is shared: this image's first access may already hit an
    # entry the sibling inserted, so at least 4 of its 5 accesses hit.
    assert info["my_hits"] >= 4
    assert info["hits"] + info["misses"] == 10  # 5 accesses x 2 images
    assert info["misses"] >= 1


def test_algorithm_override_bypasses_cache():
    def kernel():
        me, n = caf.this_image(), caf.num_images()
        a = caf.coarray((8, 8), np.int64)
        a[...] = 0
        caf.sync_all()
        nxt = me % n + 1
        for _ in range(3):
            a.on(nxt).put((slice(0, 8, 2), slice(1, 8, 2)), 7, algorithm="naive")
            caf.sync_all()
        return current_runtime().plan_cache_info()

    info = caf.launch(kernel, num_images=2)[0]
    assert info["entries"] == 0
    assert info["hits"] == 0
    assert info["misses"] == 0


def test_cache_key_includes_conduit_nativeness_and_itemsize():
    def kernel():
        me, n = caf.this_image(), caf.num_images()
        a = caf.coarray((6, 6), np.int64)
        b = caf.coarray((6, 6), np.int32)  # same shape, different itemsize
        a[...] = 0
        b[...] = 0
        caf.sync_all()
        nxt = me % n + 1
        key = (slice(0, 6, 2), slice(0, 6, 2))
        a.on(nxt).put(key, 1)
        b.on(nxt).put(key, 2)
        caf.sync_all()
        rt = current_runtime()
        native = rt.layer.profile.iput_native
        return [k for k in rt._plan_cache], native

    for profile in ("cray-shmem", "mvapich2x-shmem"):
        keys, native = caf.launch(kernel, num_images=2, profile=profile)[0]
        assert len(keys) == 2  # int64 and int32 entries are distinct
        for k in keys:
            shape, canon, algo, itemsize, key_native = k
            assert key_native == native
            assert itemsize in (4, 8)
        assert {k[3] for k in keys} == {4, 8}


def test_eviction_at_capacity_lru_order():
    def kernel():
        me, n = caf.this_image(), caf.num_images()
        a = caf.coarray((16,), np.int64)
        a[...] = 0
        caf.sync_all()
        if me == 1:  # single image drives the cache deterministically
            keys = [slice(0, 16, 2), slice(1, 16, 2), slice(2, 16, 2)]
            rt = current_runtime()
            for k in keys:
                a.on(2 if n > 1 else 1).put(k, 3)
            assert rt.plan_cache_info()["entries"] == 2  # capacity
            before = rt.my_stats["plan_cache_misses"]
            a.on(2 if n > 1 else 1).put(keys[0], 4)  # evicted -> miss again
            assert rt.my_stats["plan_cache_misses"] == before + 1
            a.on(2 if n > 1 else 1).put(keys[2], 5)  # still resident -> hit
            assert rt.my_stats["plan_cache_hits"] >= 1
        caf.sync_all()
        return True

    assert all(caf.launch(kernel, num_images=2, plan_cache_size=2))


def test_cache_disabled_with_zero_capacity():
    def kernel():
        me, n = caf.this_image(), caf.num_images()
        a = caf.coarray((8,), np.int64)
        a[...] = 0
        caf.sync_all()
        nxt = me % n + 1
        for _ in range(3):
            a.on(nxt).put(slice(0, 8, 2), 5)
            caf.sync_all()
        return current_runtime().plan_cache_info()

    info = caf.launch(kernel, num_images=2, plan_cache_size=0)[0]
    assert info == {"entries": 0, "capacity": 0, "hits": 0, "misses": 0}


@pytest.mark.parametrize("profile", ["cray-shmem", "mvapich2x-shmem"])
def test_dealloc_realloc_never_serves_stale_plan(profile):
    """A cached plan holds offsets relative to the array base, so a new
    allocation of the same shape — living at a different heap offset —
    must still receive its bytes at the right place."""

    def kernel():
        me, n = caf.this_image(), caf.num_images()
        pad = caf.coarray((3,), np.int64)  # shifts the next allocation
        a = caf.coarray((6, 8), np.int64)
        a[...] = -1
        caf.sync_all()
        nxt = me % n + 1
        key = (slice(0, 6, 2), slice(0, 8, 4))
        a.on(nxt).put(key, np.arange(6).reshape(3, 2) + me)
        caf.sync_all()
        first = a.local.copy()
        first_off = a.handle.byte_offset
        a.deallocate()
        pad.deallocate()
        b = caf.coarray((6, 8), np.int64)  # same shape -> cache hit
        b[...] = -1
        caf.sync_all()
        second_off = b.handle.byte_offset
        b.on(nxt).put(key, np.arange(6).reshape(3, 2) + me)
        caf.sync_all()
        rt = current_runtime()
        return first, b.local.copy(), first_off, second_off, rt.my_stats["plan_cache_hits"]

    out = caf.launch(kernel, num_images=2, profile=profile)
    for i, (first, second, off_a, off_b, hits) in enumerate(out):
        prev = (i + 1) % 2
        expect = np.full((6, 8), -1, dtype=np.int64)
        expect[0:6:2, 0:8:4] = np.arange(6).reshape(3, 2) + prev + 1
        assert np.array_equal(first, expect)
        assert np.array_equal(second, expect)
        assert off_a != off_b  # the reallocation really moved
        assert hits >= 1  # and the second put really came from the cache


@pytest.mark.parametrize("profile", ["cray-shmem", "mvapich2x-shmem"])
def test_single_call_entries_hold_no_spec(profile):
    """Single-call plans go straight to put/get/iput/iget, so their cache
    entries compile no BatchSpec; multi-call plans still batch through
    ``build_spec``'s strided view."""

    def kernel():
        me = caf.this_image()
        a = caf.coarray((6, 8), np.int64)
        a[...] = 0
        caf.sync_all()
        got = None
        if me == 1:
            a.on(2)[...] = 7  # one run
            a.on(2)[0:6:2, 3] = 1  # one line (native) or three runs
            a.on(2)[0:6:2, 0:8:4] = np.arange(6).reshape(3, 2)  # always multi-call
            got = a.on(2)[...], a.on(2)[1:6:2, 5]
        caf.sync_all()
        rt = current_runtime()
        return got, list(rt._plan_cache.values())

    (whole, column), entries = caf.launch(kernel, num_images=2, profile=profile)[0]
    want = np.full((6, 8), 7, dtype=np.int64)
    want[0:6:2, 3] = 1
    want[0:6:2, 0:8:4] = np.arange(6).reshape(3, 2)
    assert np.array_equal(whole, want)
    assert np.array_equal(column, want[1:6:2, 5])
    assert len(entries) == 4
    for sels, _, plan, spec in entries:
        if plan.num_calls == 1:
            assert spec is None
        else:
            assert astuple(spec) == astuple(build_spec(plan, sels, (6, 8), 8))
    assert sum(spec is None for *_, spec in entries) == (3 if profile == "cray-shmem" else 1)


def test_non_native_single_line_keeps_its_spec():
    """Without native iput a multi-element line is priced through the
    batch path, so its plan still compiles a spec."""
    sels, _ = normalize_selection((6, 8), (slice(0, 6, 2), 3))
    plan = make_plan(sels, (6, 8), "2dim", iput_native=True)
    assert (plan.kind, plan.num_calls, plan.per_call) == ("lines", 1, 3)
    native, looped = (SimpleNamespace(profile=SimpleNamespace(iput_native=flag))
                      for flag in (True, False))
    assert plan_spec(native, plan, sels, (6, 8), 8) is None
    spec = plan_spec(looped, plan, sels, (6, 8), 8)
    assert astuple(spec) == astuple(build_spec(plan, sels, (6, 8), 8))
    assert (spec.min_elem, spec.shape, spec.strides) == (3, (3, 1), (2 * 8 * 8, 8))
