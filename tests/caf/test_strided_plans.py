"""Strided transfer planning: the paper's Section IV-C algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caf.rma import build_spec
from repro.caf.strided import (
    ALGORITHMS,
    DimSel,
    estimate_plan_cost,
    make_plan,
    normalize_selection,
    plan_2dim,
    plan_alldim,
    plan_contiguous,
    plan_lastdim,
    plan_matrix,
    plan_naive,
    selection_offsets,
)
from repro.sim.netmodel import CRAY_SHMEM, NetworkModel
from repro.trace.events import view_offsets


def sels_for(shape, key):
    sels, _ = normalize_selection(shape, key)
    return sels


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_full_defaults():
    sels, rshape = normalize_selection((4, 6), (slice(None),))
    assert sels == [DimSel(0, 4, 1), DimSel(0, 6, 1)]
    assert rshape == (4, 6)


def test_normalize_ints_drop_dims():
    sels, rshape = normalize_selection((4, 6, 8), (2, slice(1, 5), 3))
    assert sels == [DimSel(2, 1, 1), DimSel(1, 4, 1), DimSel(3, 1, 1)]
    assert rshape == (4,)


def test_normalize_negative_index():
    sels, _ = normalize_selection((10,), (-1,))
    assert sels == [DimSel(9, 1, 1)]


def test_normalize_ellipsis():
    sels, rshape = normalize_selection((2, 3, 4), (Ellipsis, 1))
    assert rshape == (2, 3)
    assert sels[2] == DimSel(1, 1, 1)


def test_normalize_rejects():
    with pytest.raises(IndexError):
        normalize_selection((4,), (5,))
    with pytest.raises(IndexError):
        normalize_selection((4,), (0, 0))
    with pytest.raises(IndexError):
        normalize_selection((4,), (slice(None, None, -1),))
    with pytest.raises(TypeError):
        normalize_selection((4,), ("x",))
    with pytest.raises(IndexError):
        normalize_selection((4, 4), (Ellipsis, Ellipsis))
    # bool is an int subclass, but NumPy treats it as a mask, not an index
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(TypeError):
            normalize_selection((2, 4), (flag,))


def test_clamped_slices():
    sels, rshape = normalize_selection((5,), (slice(2, 100, 2),))
    assert sels == [DimSel(2, 2, 2)]
    assert rshape == (2,)


# ---------------------------------------------------------------------------
# The paper's running example: X(100,100,100), section (::2, :80:2, ::4).
# Fortran dim order (fastest first): 50, 40, 25 elements.  In C order the
# equivalent array is indexed [::4, 0:80:2, ::2] with the fastest axis
# last: counts (25, 40, 50).
# ---------------------------------------------------------------------------

PAPER_SHAPE = (100, 100, 100)
PAPER_KEY = (slice(0, 100, 4), slice(0, 80, 2), slice(0, 100, 2))


def test_paper_example_naive_call_count():
    """Naive: one call per element = 50 * 40 * 25 = 50,000."""
    plan = plan_naive(sels_for(PAPER_SHAPE, PAPER_KEY), PAPER_SHAPE)
    assert plan.num_calls == 50 * 40 * 25
    assert plan.total_elems == 50000


def test_paper_example_2dim_call_count():
    """2dim: base = dimension with 50 strided elements -> 1 * 40 * 25."""
    plan = plan_2dim(sels_for(PAPER_SHAPE, PAPER_KEY), PAPER_SHAPE)
    assert plan.num_calls == 40 * 25
    assert plan.base_dim == 2  # fastest C axis == Fortran dim 1
    assert all(line.count == 50 for line in plan.lines)
    assert all(line.stride == 2 for line in plan.lines)


def test_base_dim_restricted_to_two_fastest():
    """If the slowest axis has the most elements, 2dim must NOT pick it
    (the paper's locality tradeoff) — but alldim (ablation) does."""
    shape = (100, 8, 8)
    key = (slice(0, 100, 2), slice(0, 8, 2), slice(0, 8, 2))  # counts 50,4,4
    sels = sels_for(shape, key)
    p2 = plan_2dim(sels, shape)
    assert p2.base_dim in (1, 2)
    assert p2.num_calls == 50 * 4
    pall = plan_alldim(sels, shape)
    assert pall.base_dim == 0
    assert pall.num_calls == 4 * 4


def test_2dim_picks_larger_of_last_two():
    shape = (16, 16, 16)
    key = (slice(None), slice(0, 16, 2), slice(0, 16, 4))  # counts 16,8,4
    plan = plan_2dim(sels_for(shape, key), shape)
    assert plan.base_dim == 1
    assert plan.num_calls == 16 * 4


def test_lastdim_always_fastest_axis():
    shape = (16, 16, 16)
    key = (slice(None), slice(0, 16, 2), slice(0, 16, 4))
    plan = plan_lastdim(sels_for(shape, key), shape)
    assert plan.base_dim == 2
    assert plan.num_calls == 16 * 8


def test_contiguous_whole_array():
    shape = (4, 5)
    plan = plan_contiguous(sels_for(shape, (slice(None),)), shape)
    assert plan is not None
    assert plan.runs == tuple([type(plan.runs[0])(0, 20)])


def test_contiguous_row_block():
    shape = (4, 5)
    plan = plan_contiguous(sels_for(shape, (slice(1, 3),)), shape)
    assert plan is not None
    assert len(plan.runs) == 1
    assert plan.runs[0].offset == 5 and plan.runs[0].length == 10


def test_contiguous_single_row_of_2d():
    shape = (4, 5)
    plan = plan_contiguous(sels_for(shape, (2, slice(None))), shape)
    assert plan is not None
    assert plan.runs[0].offset == 10 and plan.runs[0].length == 5


def test_non_contiguous_detected():
    shape = (4, 5)
    assert plan_contiguous(sels_for(shape, (slice(0, 4, 2),)), shape) is None
    assert plan_contiguous(sels_for(shape, (slice(None), slice(0, 4))), shape) is None


def test_naive_uses_runs_when_inner_contiguous():
    shape = (6, 8)
    key = (slice(0, 6, 2), slice(0, 8))
    plan = plan_naive(sels_for(shape, key), shape)
    assert plan.num_calls == 3  # one run per selected row
    assert all(r.length == 8 for r in plan.runs)


def test_matrix_prefers_runs():
    shape = (6, 4, 8)
    key = (slice(None), 2, slice(None))  # halo plane: contiguous pencils
    plan = plan_matrix(sels_for(shape, key), shape)
    assert plan.runs and not plan.lines
    assert plan.num_calls == 6
    # while 2dim would issue lines
    p2 = plan_2dim(sels_for(shape, key), shape)
    assert p2.lines


def test_matrix_falls_back_to_lines_on_strided_inner():
    shape = (8, 8)
    key = (slice(None), slice(0, 8, 2))
    plan = plan_matrix(sels_for(shape, key), shape)
    assert plan.lines


def test_auto_policy():
    shape = (8, 8)
    strided_key = (slice(0, 8, 2), slice(0, 8, 2))
    sels = sels_for(shape, strided_key)
    assert make_plan(sels, shape, "auto", iput_native=True).lines
    assert make_plan(sels, shape, "auto", iput_native=False).runs  # naive
    contig_inner = sels_for(shape, (slice(0, 8, 2), slice(None)))
    assert make_plan(contig_inner, shape, "auto", iput_native=True).runs


def test_make_plan_contiguous_short_circuits_everything():
    shape = (4, 4)
    sels = sels_for(shape, (slice(None),))
    for algo in ("naive", "2dim", "alldim", "lastdim", "matrix", "auto"):
        plan = make_plan(sels, shape, algo, iput_native=True)
        assert plan.algorithm == "contiguous"
        assert plan.num_calls == 1


def test_make_plan_rejects_unknown():
    shape = (4,)
    with pytest.raises(ValueError):
        make_plan(sels_for(shape, (slice(None),)), shape, "zigzag", iput_native=True)
    with pytest.raises(ValueError):
        make_plan(
            sels_for(shape, (slice(0, 4, 2),)), shape, "contiguous", iput_native=True
        )


def test_empty_selection_plans():
    shape = (4, 4)
    sels = sels_for(shape, (slice(0, 0), slice(None)))
    for algo in ALGORITHMS[:-1]:
        plan = make_plan(sels, shape, algo, iput_native=True)
        assert plan.num_calls == 0 or plan.total_elems == 0


# ---------------------------------------------------------------------------
# Property: every plan covers exactly the NumPy-selected offsets,
# in a consistent order, with no overlap.
# ---------------------------------------------------------------------------

shapes = st.lists(st.integers(1, 7), min_size=1, max_size=4).map(tuple)


@st.composite
def shape_and_key(draw):
    shape = draw(shapes)
    key = []
    for extent in shape:
        kind = draw(st.sampled_from(["int", "slice", "full"]))
        if kind == "int":
            key.append(draw(st.integers(0, extent - 1)))
        elif kind == "full":
            key.append(slice(None))
        else:
            start = draw(st.integers(0, extent - 1))
            stop = draw(st.integers(start, extent))
            step = draw(st.integers(1, 3))
            key.append(slice(start, stop, step))
    return shape, tuple(key)


def plan_offsets(plan, sels):
    """Flatten the offsets a plan touches, in payload order."""
    if plan.lines:
        # payload order: remaining dims in C order, base dim last
        out = []
        for line in plan.lines:
            out.extend(line.offset + i * line.stride for i in range(line.count))
        return np.array(out, dtype=np.int64)
    out = []
    for run in plan.runs:
        out.extend(range(run.offset, run.offset + run.length))
    return np.array(out, dtype=np.int64)


@settings(max_examples=120, deadline=None)
@given(data=shape_and_key(), algo=st.sampled_from(["naive", "2dim", "alldim", "lastdim", "matrix", "auto"]))
def test_plans_cover_exactly_the_selection(data, algo):
    shape, key = data
    sels, _ = normalize_selection(shape, key)
    oracle = selection_offsets(sels, shape)
    plan = make_plan(sels, shape, algo, iput_native=True)
    got = plan_offsets(plan, sels)
    # Same multiset, no duplicates, and inside the array.
    assert len(got) == len(oracle)
    assert len(np.unique(got)) == len(got)
    assert sorted(got.tolist()) == sorted(oracle.tolist())
    total = int(np.prod(shape))
    if len(got):
        assert got.min() >= 0 and got.max() < total


@settings(max_examples=60, deadline=None)
@given(data=shape_and_key())
def test_run_plans_preserve_c_order(data):
    """Run-based plans must emit offsets in C iteration order so payload
    chunks align without reordering."""
    shape, key = data
    sels, _ = normalize_selection(shape, key)
    oracle = selection_offsets(sels, shape)
    plan = make_plan(sels, shape, "naive", iput_native=False)
    got = plan_offsets(plan, sels)
    assert got.tolist() == oracle.tolist()


MODEL_PARAMS = {
    "elem_size": 8,
    "o_call_us": 0.2,
    "bandwidth_Bpus": 9700.0,
    "gap_fn": lambda es, sb: NetworkModel._gather_gap(CRAY_SHMEM, es, sb),
}


def per_line_cost(plan, *, elem_size, o_call_us, bandwidth_Bpus, iput_native, gap_fn):
    """``estimate_plan_cost`` as a loop over the per-call view."""
    wire = plan.total_elems * elem_size / bandwidth_Bpus
    if plan.lines:
        if not iput_native:
            return plan.total_elems * o_call_us + wire
        cost = len(plan.lines) * o_call_us + wire
        for line in plan.lines:
            cost += line.count * gap_fn(elem_size, line.stride * elem_size)
        return cost
    return len(plan.runs) * o_call_us + wire


@settings(max_examples=80, deadline=None)
@given(data=shape_and_key(), native=st.booleans())
def test_array_plans_are_the_per_call_plans(data, native):
    """Every planner's offsets array is the per-call plan: read-only
    int64 (a cached plan is shared by every PE thread), compiled by
    ``build_spec`` into a strided view whose elements, taken in plan
    order (line axis last), are the plan's, priced identically."""
    shape, key = data
    sels, _ = normalize_selection(shape, key)
    algos = [a for a in ALGORITHMS if a != "contiguous"]
    if plan_contiguous(sels, shape) is not None:
        algos.append("contiguous")
    for algo in algos:
        plan = make_plan(sels, shape, algo, iput_native=native, model_params=MODEL_PARAMS)
        assert plan.offsets.dtype == np.int64
        assert not plan.offsets.flags.writeable
        assert plan.num_calls == len(plan.runs) + len(plan.lines)
        spec = build_spec(plan, sels, shape, 8)
        want = plan_offsets(plan, sels)
        if spec is None:
            assert want.size == 0
        else:
            elems = view_offsets(spec.min_elem * 8, spec.shape, spec.strides).reshape(spec.shape) // 8
            if plan.kind == "lines":
                elems = np.moveaxis(elems, plan.base_dim, -1)
            assert elems.reshape(-1).tolist() == want.tolist()
            assert (spec.min_elem, spec.max_elem) == (want.min(), want.max())
        got = estimate_plan_cost(plan, iput_native=native, **MODEL_PARAMS)
        assert got.hex() == per_line_cost(plan, iput_native=native, **MODEL_PARAMS).hex()


@pytest.mark.parametrize("algo", ["naive", "2dim", "alldim", "lastdim", "matrix", "model"])
def test_paper_example_cost_is_the_per_line_sum(algo):
    """Thousands of lines: the closed-form sum is still the loop's."""
    sels = sels_for(PAPER_SHAPE, PAPER_KEY)
    plan = make_plan(sels, PAPER_SHAPE, algo, iput_native=True, model_params=MODEL_PARAMS)
    got = estimate_plan_cost(plan, iput_native=True, **MODEL_PARAMS)
    assert got.hex() == per_line_cost(plan, iput_native=True, **MODEL_PARAMS).hex()
