"""A batched plan access records its footprint as the section's strided
view, ``("@view", base, shape, byte_strides, elem_size)``.  Resolving it
must give exactly the merged intervals that ``offsets_footprint`` gives
for the plan's per-element offsets, coarsening above ``FOOTPRINT_CAP``
included, whatever planner enumerated the calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caf.rma import build_spec
from repro.caf.strided import make_plan, normalize_selection
from repro.trace.events import FOOTPRINT_CAP, offsets_footprint, resolve_footprint


def plan_offsets(plan, itemsize, base):
    """Absolute byte offset of every element the plan's calls touch, in
    call order."""
    within = np.arange(plan.per_call, dtype=np.int64) * plan.stride
    return (plan.offsets[:, None] + within[None, :]).reshape(-1) * itemsize + base


def check(shape, key, algo, itemsize, base):
    sels, _ = normalize_selection(shape, key)
    plan = make_plan(sels, shape, algo, iput_native=True)
    spec = build_spec(plan, sels, shape, itemsize)
    fp = ("@view", base + spec.min_elem * itemsize, spec.shape, spec.strides, itemsize)
    want = offsets_footprint(plan_offsets(plan, itemsize, base), itemsize)
    assert resolve_footprint(fp) == want
    return want


@st.composite
def sections(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(ndim))
    key = []
    for extent in shape:
        start = draw(st.integers(0, extent - 1))
        stop = draw(st.integers(start + 1, extent))
        key.append(slice(start, stop, draw(st.integers(1, 5))))
    return shape, tuple(key)


@settings(max_examples=150, deadline=None)
@given(
    section=sections(),
    algo=st.sampled_from(["naive", "2dim", "alldim", "lastdim", "matrix"]),
    itemsize=st.sampled_from([1, 2, 3, 4, 8, 16]),
    base=st.integers(0, 64),
)
def test_view_footprint_is_the_offsets_footprint(section, algo, itemsize, base):
    check(*section, algo, itemsize, base)


@pytest.mark.parametrize("algo", ["naive", "2dim"])
def test_coarsened_above_the_cap(algo):
    """The paper's 50 x 40 x 25 section: 50,000 disjoint elements, well
    past the cap, coarsen to one bounding span either way."""
    want = check((100, 80, 100), np.s_[0:100:2, 0:80:2, 0:100:4], algo, 4, 16)
    assert len(want) == 1 and want[0][0] == 16
    assert 50 * 40 * 25 > FOOTPRINT_CAP
