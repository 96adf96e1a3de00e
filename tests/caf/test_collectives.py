"""CAF collectives: co_sum / co_min / co_max / co_prod / co_reduce /
co_broadcast over 1-sided communication."""

import numpy as np
import pytest

from repro import caf
from repro.collectives import AlgorithmSelector


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_co_sum_all_images(n):
    def kernel():
        me = caf.this_image()
        arr = np.array([me, 2.0 * me, -me], dtype=np.float64)
        caf.co_sum(arr)
        return arr.tolist()

    out = caf.launch(kernel, num_images=n)
    tot = sum(range(1, n + 1))
    assert all(o == [tot, 2.0 * tot, -tot] for o in out)


def test_co_sum_result_image_only():
    def kernel():
        me = caf.this_image()
        arr = np.array([float(me)])
        caf.co_sum(arr, result_image=2)
        return float(arr[0])

    out = caf.launch(kernel, num_images=4)
    assert out[1] == 10.0  # image 2 holds the result


@pytest.mark.parametrize(
    "algo", ["linear", "binomial", "recdbl", "ring", "hier", None]
)
def test_co_sum_result_image_semantics(algo, monkeypatch):
    """``result_image=j``: image j holds the exact reduction; other
    images' arrays become undefined per the Fortran standard (they hold
    *some* value — don't pin it), but shape and dtype are preserved.
    Holds under every forced algorithm and under auto-selection.  CAF
    collectives take no ``algorithm=``, so the selector is forced."""
    if algo is not None:
        choose = AlgorithmSelector.choose
        monkeypatch.setattr(
            AlgorithmSelector, "choose",
            lambda self, *a, **kw: choose(self, *a, **{**kw, "algorithm": algo}),
        )

    def kernel():
        me = caf.this_image()
        arr = np.array([[me, 10 * me], [100 * me, -me]], dtype=np.int64)
        caf.co_sum(arr, result_image=3)
        return arr

    out = caf.launch(kernel, num_images=6)
    tot = sum(range(1, 7))
    expect = np.array([[tot, 10 * tot], [100 * tot, -tot]], dtype=np.int64)
    assert np.array_equal(out[2], expect), algo  # image 3 == index 2
    for o in out:
        assert o.shape == (2, 2) and o.dtype == np.int64


def test_co_sum_result_image_out_of_range():
    def kernel():
        caf.co_sum(np.array([1.0]), result_image=9)

    with pytest.raises(RuntimeError, match="out of range"):
        caf.launch(kernel, num_images=2)


def test_co_min_max_prod():
    def kernel():
        me = caf.this_image()
        a = np.array([float(me)])
        b = np.array([float(me)])
        c = np.array([float(me)])
        caf.co_min(a)
        caf.co_max(b)
        caf.co_prod(c)
        return (a[0], b[0], c[0])

    out = caf.launch(kernel, num_images=4)
    assert all(o == (1.0, 4.0, 24.0) for o in out)


def test_co_reduce_custom_op():
    def kernel():
        me = caf.this_image()
        arr = np.array([me, me + 10], dtype=np.int64)
        caf.co_reduce(arr, lambda a, b: np.maximum(a, b) - 0)
        return arr.tolist()

    out = caf.launch(kernel, num_images=3)
    assert all(o == [3, 13] for o in out)


def test_co_broadcast():
    def kernel():
        me = caf.this_image()
        arr = np.zeros(4)
        if me == 3:
            arr[:] = [1.0, 2.0, 3.0, 4.0]
        caf.co_broadcast(arr, source_image=3)
        return arr.tolist()

    out = caf.launch(kernel, num_images=5)
    assert all(o == [1.0, 2.0, 3.0, 4.0] for o in out)


def test_co_broadcast_from_image_1():
    def kernel():
        me = caf.this_image()
        arr = np.array([me * 1.0])
        caf.co_broadcast(arr, source_image=1)
        return float(arr[0])

    out = caf.launch(kernel, num_images=4)
    assert out == [1.0, 1.0, 1.0, 1.0]


def test_collectives_on_multidim_arrays():
    def kernel():
        me = caf.this_image()
        arr = np.full((2, 3), float(me))
        caf.co_sum(arr)
        return arr

    out = caf.launch(kernel, num_images=3)
    assert all(np.array_equal(o, np.full((2, 3), 6.0)) for o in out)


def test_integer_dtype_collectives():
    def kernel():
        me = caf.this_image()
        arr = np.array([me, me * me], dtype=np.int64)
        caf.co_sum(arr)
        return arr.tolist()

    out = caf.launch(kernel, num_images=3)
    assert all(o == [6, 14] for o in out)


def test_non_array_rejected():
    def kernel():
        caf.co_sum([1.0, 2.0])

    with pytest.raises(RuntimeError, match="NumPy arrays"):
        caf.launch(kernel, num_images=1)


def test_works_on_gasnet_backend():
    """Collectives use only 1-sided primitives (paper's footnote), so
    they work over a layer with no native reduction support."""

    def kernel():
        me = caf.this_image()
        arr = np.array([float(me)])
        caf.co_sum(arr)
        return float(arr[0])

    out = caf.launch(kernel, num_images=4, backend="gasnet")
    assert out == [10.0] * 4
