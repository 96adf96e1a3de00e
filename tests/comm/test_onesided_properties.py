"""Property-based invariants of the shared one-sided engine, exercised
through every layer that subclasses it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import gasnet, mpirma, shmem
from repro.runtime.context import current
from repro.runtime.launcher import Job

LAYER_FACTORIES = {
    "shmem": lambda job: shmem.attach(job),
    "gasnet": lambda job: gasnet.attach(job),
    "mpirma": lambda job: mpirma.attach(job),
}

dtypes = st.sampled_from([np.int64, np.float64, np.int32, np.uint8])


@settings(max_examples=20, deadline=None)
@given(
    layer_name=st.sampled_from(sorted(LAYER_FACTORIES)),
    dtype=dtypes,
    size=st.integers(1, 64),
    offset_frac=st.floats(0, 1),
)
def test_put_get_roundtrip_any_layer(layer_name, dtype, size, offset_frac):
    """write-then-read returns the written data at every offset, layer,
    and dtype."""
    offset = int(offset_frac * (size - 1))
    nelems = size - offset

    def kernel():
        layer = current().job.get_layer(layer_name if layer_name != "mpirma" else "mpirma")
        arr = layer.alloc_array((size,), dtype)
        me, n = current().pe, current().job.num_pes
        data = (np.arange(nelems) % 120 + me).astype(dtype)
        layer.put(arr, data, (me + 1) % n, offset)
        layer.barrier_all()
        got = layer.get(arr, nelems, (me + 1) % n, offset)
        peer_data = (np.arange(nelems) % 120 + (me - 1) % n).astype(dtype)
        assert np.array_equal(arr.local[offset:], peer_data)
        assert np.array_equal(got, data)
        return True

    job = Job(2)
    LAYER_FACTORIES[layer_name](job)
    assert all(job.run(kernel))


@pytest.mark.parametrize("layer_name", sorted(LAYER_FACTORIES))
def test_get_result_does_not_alias_target_heap(layer_name):
    """Mutating the array ``get`` returns leaves the target heap alone."""

    def kernel():
        layer = current().job.get_layer(layer_name)
        arr = layer.alloc_array((8,), np.int64)
        me, n = current().pe, current().job.num_pes
        peer = (me + 1) % n
        arr.local[:] = np.arange(8) + 10 * me
        layer.barrier_all()
        for nelems in (1, 4):
            got = layer.get(arr, nelems, peer, 2)
            got[:] = -1
            want = np.arange(2, 2 + nelems) + 10 * peer
            assert np.array_equal(layer.get(arr, nelems, peer, 2), want)
        layer.barrier_all()
        assert np.array_equal(arr.local, np.arange(8) + 10 * me)
        return True

    job = Job(2)
    LAYER_FACTORIES[layer_name](job)
    assert all(job.run(kernel))


@settings(max_examples=15, deadline=None)
@given(
    profile=st.sampled_from(["cray-shmem", "mvapich2x-shmem", "gasnet"]),
    tst=st.integers(1, 5),
    sst=st.integers(1, 5),
    nelems=st.integers(0, 10),
)
def test_iput_equivalent_across_native_and_looped(profile, tst, sst, nelems):
    """Functional results of iput are identical whether the conduit is
    native (one descriptor) or loops over putmem."""
    size = 64

    def kernel():
        layer = current().job.get_layer("shmem") if profile != "gasnet" else current().job.get_layer("gasnet")
        arr = layer.alloc_array((size,), np.int64)
        arr.local[:] = -3
        src = np.arange(60)
        layer.iput(arr, src, tst=tst, sst=sst, nelems=nelems, pe=current().pe)
        layer.quiet()
        expect = np.full(size, -3, dtype=np.int64)
        if nelems:
            expect[: nelems * tst : tst] = src[: nelems * sst : sst]
        assert np.array_equal(arr.local, expect)
        return True

    job = Job(1)
    if profile == "gasnet":
        gasnet.attach(job)
    else:
        shmem.attach(job, profile)
    assert all(job.run(kernel))


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["fadd", "swap", "set", "and", "or", "xor"]), st.integers(0, 255)),
        min_size=1,
        max_size=12,
    )
)
def test_atomic_sequences_match_sequential_semantics(ops):
    """A single-PE sequence of atomics equals plain Python arithmetic."""

    def kernel():
        layer = current().job.get_layer("shmem")
        word = layer.alloc_array((1,), np.int64)
        expect = 0
        for op, v in ops:
            old = int(layer.atomic(word, 0, 0, op, v))
            assert old == expect
            if op == "fadd":
                expect += v
            elif op in ("swap", "set"):
                expect = v
            elif op == "and":
                expect &= v
            elif op == "or":
                expect |= v
            elif op == "xor":
                expect ^= v
        assert int(word.local[0]) == expect
        return True

    job = Job(1)
    shmem.attach(job)
    assert all(job.run(kernel))


@settings(max_examples=10, deadline=None)
@given(n_puts=st.integers(0, 8), nbytes=st.integers(1, 1 << 16))
def test_quiet_clears_pending_and_is_idempotent(n_puts, nbytes):
    def kernel():
        layer = current().job.get_layer("shmem")
        arr = layer.alloc_array((1 << 16,), np.uint8)
        me, n = current().pe, current().job.num_pes
        layer.barrier_all()
        for _ in range(n_puts):
            layer.put(arr, np.zeros(nbytes, dtype=np.uint8), (me + 1) % n)
        layer.quiet()
        assert layer._pending[me] == 0.0
        t = current().clock.now
        layer.quiet()
        assert current().clock.now == t  # second quiet free
        layer.barrier_all()
        return True

    job = Job(2, "stampede", heap_bytes=1 << 18)
    shmem.attach(job)
    assert all(job.run(kernel))


def test_clock_never_regresses_through_any_op_sequence():
    """Virtual clocks are monotone through a mixed workload."""

    def kernel():
        layer = current().job.get_layer("shmem")
        me, n = current().pe, current().job.num_pes
        arr = layer.alloc_array((256,), np.int64)
        checkpoints = [current().clock.now]
        for i in range(10):
            target = (me + 1 + i) % n
            layer.put(arr, np.arange(16), target, offset=16 * (i % 8))
            checkpoints.append(current().clock.now)
            if i % 3 == 0:
                layer.atomic(arr, target, 0, "fadd", 1)
                checkpoints.append(current().clock.now)
            if i % 4 == 0:
                layer.quiet()
                checkpoints.append(current().clock.now)
        layer.barrier_all()
        checkpoints.append(current().clock.now)
        assert all(a <= b for a, b in zip(checkpoints, checkpoints[1:]))
        return True

    job = Job(4)
    shmem.attach(job)
    assert all(job.run(kernel))
