"""Runtime odds and ends: validation, stats, startup discipline."""

import numpy as np
import pytest

from repro import caf
from repro.caf.runtime import CafRuntime
from repro.runtime.launcher import Job


def test_apis_require_launch():
    """Using the CAF API outside a launched kernel fails clearly."""
    from repro.runtime.context import NotInSpmdRegion

    with pytest.raises(NotInSpmdRegion):
        caf.this_image()


def test_runtime_requires_startup():
    job = Job(1)
    rt = CafRuntime(job)

    def kernel():
        rt.sync_all()

    with pytest.raises(RuntimeError, match="not started"):
        job.run(kernel)


def test_sync_images_rejects_bad_image():
    def kernel():
        caf.sync_images([99])

    with pytest.raises(RuntimeError, match="out of range"):
        caf.launch(kernel, num_images=2)


def test_sync_images_with_self_in_list_is_harmless():
    def kernel():
        me = caf.this_image()
        caf.sync_images([me, me % caf.num_images() + 1])
        return True

    assert all(caf.launch(kernel, num_images=2))


def test_stats_merge_and_reset():
    def kernel():
        rt = caf.current_runtime()
        a = caf.coarray((4,), np.int64)
        caf.sync_all()
        a.on(1)[:] = [1, 2, 3, 4]
        caf.sync_all()
        merged = rt.stats["putmem_calls"]
        rt.reset_stats()
        return (merged, rt.stats["putmem_calls"])

    out = caf.launch(kernel, num_images=3)
    # every image put once; merged counter visible from any image
    assert any(m == 3 for m, _ in out)
    assert all(after == 0 for _, after in out)


def test_naive_ring_stats_count_logical_calls():
    """The naive policy counts one putmem per selected element, on
    every image of a ring, and the neighbour's assignment lands."""
    key = np.s_[0:20:2, 0:16:2, 0:20:4]  # 10 x 8 x 5 elements

    def kernel():
        a = caf.coarray((20, 16, 20), np.float32)
        a[...] = 0
        caf.sync_all()
        a.on(caf.this_image() % caf.num_images() + 1)[key] = 7
        caf.sync_all()
        stats = caf.current_runtime().my_stats
        return stats["putmem_calls"], stats["put_elems"], float(a.local.sum())

    out = caf.launch(kernel, num_images=4, backend="shmem",
                     profile="cray-shmem", strided="naive")
    assert out == [(10 * 8 * 5, 10 * 8 * 5, 7.0 * 10 * 8 * 5)] * 4


def test_managed_byte_offset_math():
    def kernel():
        rt = caf.current_runtime()
        off = rt.managed_alloc(0, 64)
        assert rt.managed_byte_offset(off) == rt.managed_u8.byte_offset + off
        rt.managed_free(0, off)
        return True

    assert all(caf.launch(kernel, num_images=1))


def test_repr_mentions_configuration():
    job = Job(2)
    rt = CafRuntime(job, strided="naive", ordering="relaxed")
    text = repr(rt)
    assert "naive" in text and "relaxed" in text and "shmem" in text


def test_unknown_strided_policy_fails_at_use():
    def kernel():
        a = caf.coarray((8,), np.int64)
        caf.sync_all()
        a.on(1).put(slice(0, 8, 2), 1, algorithm="zigzag")

    with pytest.raises(RuntimeError, match="unknown algorithm"):
        caf.launch(kernel, num_images=1)


def test_launch_returns_per_image_values():
    out = caf.launch(lambda: caf.this_image() ** 2, num_images=4)
    assert out == [1, 4, 9, 16]


def test_kwargs_forwarded_to_kernel():
    def kernel(base, scale=1):
        return base + scale * caf.this_image()

    out = caf.launch(kernel, num_images=2, args=(100,), kwargs={"scale": 10})
    assert out == [110, 120]
