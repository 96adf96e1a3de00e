"""Virtual-time invariance of batched plan execution: the larger
scenarios.

Each scenario runs twice — the one data plane in ``src/`` and the
per-call loops of :mod:`tests.caf.oracle` — and must produce *identical*
virtual clocks, stats counters, and data.  Scenarios are restricted to
deterministic schedules (single RMA initiator for inter-node traffic,
or all-intra-node traffic, where no shared timeline ordering depends on
the thread scheduler).  (``test_vector_invariance.py`` holds the random
sections and the short-circuit paths.)
"""

import numpy as np
import pytest

from repro import caf
from repro.bench.harness import (
    UHCAF_CRAY_SHMEM_2DIM,
    UHCAF_CRAY_SHMEM_NAIVE,
    pair_partner,
    pair_world_size,
)
from repro.bench.himeno import himeno_caf
from repro.runtime.context import current
from tests.caf.oracle import assert_identical, fingerprint, launch_two_ways, two_ways


def _strided_roundtrip_kernel():
    """Image 1 puts/gets strided sections to image num_images (a
    different node when num_images > 16 on stampede)."""
    me, n = caf.this_image(), caf.num_images()
    a = caf.coarray((40, 40), np.float64)
    a[...] = 0.0
    caf.sync_all()
    if me == 1:
        tgt = n
        # strided in both dims -> line plan (iput path on native conduits)
        a.on(tgt).put((slice(0, 40, 2), slice(0, 40, 4)), np.arange(200.0).reshape(20, 10))
        # big contiguous runs -> rendezvous-sized putmem batch
        a.on(tgt).put((slice(0, 40, 2), slice(None)), np.arange(800.0).reshape(20, 40))
        got_lines = np.asarray(a.on(tgt).get((slice(1, 40, 3), slice(0, 40, 4))))
        got_runs = np.asarray(a.on(tgt).get((slice(0, 40, 2), slice(None))))
    else:
        got_lines = got_runs = None
    caf.sync_all()
    return fingerprint(a.local.copy(), got_lines, got_runs)


@pytest.mark.parametrize(
    "profile,strided",
    [
        ("cray-shmem", "2dim"),  # native iput lines + rendezvous runs
        ("cray-shmem", "naive"),  # per-element runs
        ("mvapich2x-shmem", "2dim"),  # non-native iput -> per-element puts
        ("gasnet", "naive"),
    ],
)
def test_strided_rma_virtual_time_invariant(profile, strided):
    kw = dict(num_images=17, machine="stampede", profile=profile, strided=strided)
    assert_identical(*launch_two_ways(_strided_roundtrip_kernel, **kw))


def test_intra_node_rma_invariant():
    """All-images intra-node traffic (no shared timelines => still
    deterministic with many initiators)."""

    def kernel():
        me, n = caf.this_image(), caf.num_images()
        a = caf.coarray((12, 12), np.float64)
        a[...] = float(me)
        caf.sync_all()
        nxt = me % n + 1
        a.on(nxt).put((slice(0, 12, 3), slice(0, 12, 2)), np.full((4, 6), me * 10.0))
        caf.sync_all()
        got = a.on(nxt).get((slice(0, 12, 3), slice(0, 12, 2)))
        caf.sync_all()
        return fingerprint(a.local.copy(), np.asarray(got))

    kw = dict(num_images=4, machine="stampede", profile="cray-shmem", strided="2dim")
    assert_identical(*launch_two_ways(kernel, **kw))


def test_naive_section_matches_oracle():
    """The paper's Section IV-C example, scaled down: a 10 x 8 x 5
    section under the naive policy is 400 logical puts per assignment;
    ten assignments from one inter-node initiator leave clocks, stats,
    and the destination identical to 4000 individual ``putmem`` calls."""
    shape, key = (20, 16, 20), np.s_[0:20:2, 0:16:2, 0:20:4]

    def kernel():
        a = caf.coarray(shape, np.float32)
        a[...] = 0
        caf.sync_all()
        partner = pair_partner(current().pe, 1)
        if partner is not None:
            for _ in range(10):
                a.on(partner + 1)[key] = 7
        caf.sync_all()
        return fingerprint(a.local.copy())

    kw = dict(num_images=pair_world_size(1), machine="stampede",
              **UHCAF_CRAY_SHMEM_NAIVE.launch_kwargs())
    fast, oracle = launch_two_ways(kernel, **kw)
    assert_identical(fast, oracle)
    assert fast[0][1] == {"putmem_calls": 4000, "put_elems": 4000}


def test_himeno_step_virtual_time_invariant():
    """One Himeno halo-exchange cadence, 4 images on one node: gosa,
    MFLOPS and elapsed virtual time must match bit-for-bit."""
    kw = dict(
        machine="stampede",
        config=UHCAF_CRAY_SHMEM_2DIM,
        num_images=4,
        grid=(17, 17, 17),
        iterations=2,
    )
    fast, oracle = two_ways(lambda: himeno_caf(**kw))
    assert fast.gosa == oracle.gosa
    assert fast.elapsed_us == oracle.elapsed_us
    assert fast.mflops == oracle.mflops
