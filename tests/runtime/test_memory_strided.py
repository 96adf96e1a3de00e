"""Native single-line ``iput``/``iget`` (``PEMemory.write_strided`` /
``read_strided``) copy through one element-wide strided view of the heap.

The ``(nelems, elem_size)`` uint8 grid those primitives used before is
kept here as the oracle: for every element size from 1 to 16 bytes, at
aligned and unaligned offsets, and for float payloads that carry NaN
bits, both must leave the same heap bytes and read the same bytes back.
"""

import numpy as np
import pytest

from repro.runtime.memory import PEMemory

HEAP = 4096
NELEMS = 37


def grid(buf, offset, stride_bytes, elem_size, nelems):
    """The byte-grid view the oracle copies through."""
    return np.lib.stride_tricks.as_strided(
        buf[offset:], shape=(nelems, elem_size), strides=(stride_bytes, 1)
    )


def pair(seed):
    """A PEMemory and an oracle buffer holding the same random bytes."""
    background = np.random.default_rng(seed).integers(0, 256, HEAP, dtype=np.uint8)
    return PEMemory(HEAP, buf=background.copy()), background


@pytest.mark.parametrize("elem_size", range(1, 17))
@pytest.mark.parametrize("offset", [0, 3, 8])
@pytest.mark.parametrize("gap", [0, 5])
def test_strided_view_matches_the_byte_grid(elem_size, offset, gap):
    stride = elem_size + gap
    mem, ref = pair(elem_size)
    raw = np.random.default_rng([elem_size, offset, gap]).integers(
        0, 256, NELEMS * elem_size, dtype=np.uint8
    )
    mem.write_strided(offset, stride, elem_size, raw, 1.0)
    grid(ref, offset, stride, elem_size, NELEMS)[:, :] = raw.reshape(NELEMS, elem_size)
    assert mem.local_view(0, HEAP).tobytes() == ref.tobytes()
    got = mem.read_strided(offset + 1, stride, elem_size, NELEMS)
    want = grid(ref, offset + 1, stride, elem_size, NELEMS).reshape(-1)
    assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()


#: Per float width: the unsigned word, its exponent mask, mantissa bits.
NAN_PARTS = {4: (np.uint32, 0x7F800000, 23), 8: (np.uint64, 0x7FF0000000000000, 52)}


def nan_payloads(dtype, n):
    """``n`` elements of ``dtype`` whose every float part is a NaN with
    a random sign and a random non-zero payload (quiet and signalling)."""
    dt = np.dtype(dtype)
    word, exponent, mant = NAN_PARTS[dt.itemsize if dt.kind == "f" else dt.itemsize // 2]
    count = n * dt.itemsize // np.dtype(word).itemsize
    rng = np.random.default_rng(dt.itemsize)
    payload = rng.integers(1, 1 << mant, count, dtype=np.uint64)
    sign = rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(8 * np.dtype(word).itemsize - 1)
    return (payload | np.uint64(exponent) | sign).astype(word).view(dt)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
@pytest.mark.parametrize("offset", [0, 1, 6])
def test_nan_payloads_move_bit_for_bit(dtype, offset):
    data = nan_payloads(dtype, NELEMS)
    assert np.isnan(data).all()
    size, bits = data.itemsize, data.view(np.uint8)
    mem, ref = pair(offset)
    mem.write_strided(offset, 3 * size, size, data, 2.0)
    grid(ref, offset, 3 * size, size, NELEMS)[:, :] = bits.reshape(NELEMS, size)
    assert mem.local_view(0, HEAP).tobytes() == ref.tobytes()
    assert mem.read_strided(offset, 3 * size, size, NELEMS).tobytes() == bits.tobytes()


@pytest.mark.parametrize("stride_bytes", [2, -8])
def test_overlapping_and_backward_strides_keep_element_order(stride_bytes):
    """``stride_bytes < elem_size`` keeps the per-byte index path: later
    elements win where they overlap."""
    mem, ref = pair(7)
    raw = np.arange(10 * 4, dtype=np.uint8)
    mem.write_strided(512, stride_bytes, 4, raw, 1.0)
    for i in range(10):
        start = 512 + i * stride_bytes
        ref[start : start + 4] = raw[4 * i : 4 * i + 4]
    assert mem.local_view(0, HEAP).tobytes() == ref.tobytes()
    got = mem.read_strided(512, stride_bytes, 4, 10)
    want = np.concatenate([ref[512 + i * stride_bytes :][:4] for i in range(10)])
    assert got.tobytes() == want.tobytes()
