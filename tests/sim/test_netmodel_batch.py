"""Bit-identity of the batched network pricing vs. sequential loops.

Every ``*_batch`` method must return exactly the final times that N
scalar calls produce under the layer's clock-merge recurrence
(``now_{k+1} = max(now_k, local_k)``), and must leave every resource
timeline in exactly the state the scalar loop leaves it in — down to
the last ULP, since float addition is not associative and the virtual
timestamps downstream are compared bitwise.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.machines import MACHINES
from repro.sim.netmodel import NetworkModel, get_conduit
from repro.sim.resources import Timeline, _chain_starts, chain_last
from repro.sim.topology import Topology

NOW = 3.7254101001  # deliberately un-round starting clock


def fresh_model(machine="stampede", num_pes=48):
    return NetworkModel(Topology(MACHINES[machine], num_pes))


def preload(model, backlog):
    """Create queueing pressure on node 0/1/2 NICs before the batch:
    ``True`` on both engines, ``"tx"``/``"rx"`` on one of them only."""
    tls = model.timelines()
    for node in (0, 1, 2):
        if backlog in (True, "tx"):
            tls["tx"][node].reserve(0.0, 41.03)
        if backlog in (True, "rx"):
            tls["rx"][node].reserve(0.0, 67.9)


def timeline_state(model):
    out = {}
    for name, tls in model.timelines().items():
        out[name] = [(t.next_free, t.busy_time, t.reservations) for t in tls]
    return out


# The scalar oracles hold the memoized scalar pricer that ``model.put``
# and friends call, so long chains stay cheap.


def seq_put(model, src, dst, nbytes, count, conduit, now):
    price = model.put_pricer(src, dst, nbytes, conduit)
    timing = None
    for _ in range(count):
        timing = price(now)
        now = max(now, timing.local_complete)
    return timing


def seq_get(model, src, dst, nbytes, count, conduit, now):
    done = None
    for _ in range(count):
        done = model.get(src, dst, nbytes, conduit, now)
        now = max(now, done)
    return done


def seq_iput(model, src, dst, nelems, elem_size, count, conduit, now, stride_bytes):
    price = model.iput_pricer(src, dst, nelems, elem_size, conduit, stride_bytes)
    timing = None
    for _ in range(count):
        timing = price(now)
        now = max(now, timing.local_complete)
    return timing


def seq_iget(model, src, dst, nelems, elem_size, count, conduit, now, stride_bytes):
    done = None
    for _ in range(count):
        done = model.iget(src, dst, nelems, elem_size, conduit, now, stride_bytes)
        now = max(now, done)
    return done


# PEs 0 and 1 share node 0; PE 20 lives on node 1 (16 cores/node).
PAIRS = {"intra": (0, 1), "inter": (0, 20)}
COUNTS = [1, 2, 3, 7, 50]
CONDUITS = ["cray-shmem", "mvapich2x-shmem", "gasnet", "mpi3"]
BACKLOGS = [False, True, "tx", "rx"]


def send_counts(pair, backlog):
    """COUNTS plus chains long enough to cross many binades (the paper's
    naive 50 x 40 x 25 section is 50,000 puts).  The longest runs only
    where both inter-node closed forms apply (idle engines)."""
    counts = COUNTS + [1250]
    if pair == "inter" and backlog is False:
        counts.append(50_000)
    return counts


def assert_send_matches(op, conduit, count, now, backlog=False, machine="stampede",
                        pair="inter", **shape):
    """``op``'s batch price equals ``count`` scalar calls: both times and
    every timeline's state, bit for bit."""
    a, b = fresh_model(machine), fresh_model(machine)
    preload(a, backlog)
    preload(b, backlog)
    src, dst = PAIRS[pair]
    if op == "put":
        want = seq_put(a, src, dst, shape["nbytes"], count, conduit, now)
        got = b.put_batch(src, dst, shape["nbytes"], count, conduit, now)
    else:
        args = (shape["nelems"], shape["elem_size"])
        want = seq_iput(a, src, dst, *args, count, conduit, now, shape["stride_bytes"])
        got = b.iput_batch(src, dst, *args, count, conduit, now, shape["stride_bytes"])
    assert got.local_complete.hex() == want.local_complete.hex()
    assert got.remote_complete.hex() == want.remote_complete.hex()
    assert timeline_state(a) == timeline_state(b)


@pytest.mark.parametrize("conduit_name", CONDUITS)
@pytest.mark.parametrize("pair", ["intra", "inter"])
@pytest.mark.parametrize("nbytes", [8, 512, 8192, 65536])  # eager + rendezvous
@pytest.mark.parametrize("backlog", BACKLOGS)
def test_put_batch_bit_identical(conduit_name, pair, nbytes, backlog):
    conduit = get_conduit(conduit_name)
    for count in send_counts(pair, backlog):
        assert_send_matches("put", conduit, count, NOW, backlog, pair=pair, nbytes=nbytes)


@pytest.mark.parametrize("conduit_name", CONDUITS)
@pytest.mark.parametrize("pair", ["intra", "inter"])
@pytest.mark.parametrize("nbytes", [8, 4096, 100000])
@pytest.mark.parametrize("backlog", [False, True])
def test_get_batch_bit_identical(conduit_name, pair, nbytes, backlog):
    conduit = get_conduit(conduit_name)
    src, dst = PAIRS[pair]
    for count in COUNTS:
        a, b = fresh_model(), fresh_model()
        preload(a, backlog)
        preload(b, backlog)
        want = seq_get(a, src, dst, nbytes, count, conduit, NOW)
        got = b.get_batch(src, dst, nbytes, count, conduit, NOW)
        assert got == want, (conduit_name, pair, nbytes, count)
        assert timeline_state(a) == timeline_state(b)


@pytest.mark.parametrize("conduit_name", ["cray-shmem", "dmapp-caf"])
@pytest.mark.parametrize("pair", ["intra", "inter"])
@pytest.mark.parametrize("stride_bytes", [8, 160, 4096])
@pytest.mark.parametrize("backlog", BACKLOGS)
def test_iput_batch_bit_identical(conduit_name, pair, stride_bytes, backlog):
    conduit = get_conduit(conduit_name)
    for count in send_counts(pair, backlog):
        assert_send_matches("iput", conduit, count, NOW, backlog, pair=pair,
                            nelems=25, elem_size=8, stride_bytes=stride_bytes)


@pytest.mark.parametrize("conduit_name", ["cray-shmem", "dmapp-caf"])
@pytest.mark.parametrize("pair", ["intra", "inter"])
@pytest.mark.parametrize("backlog", [False, True])
def test_iget_batch_bit_identical(conduit_name, pair, backlog):
    conduit = get_conduit(conduit_name)
    src, dst = PAIRS[pair]
    for count in COUNTS:
        a, b = fresh_model(), fresh_model()
        preload(a, backlog)
        preload(b, backlog)
        want = seq_iget(a, src, dst, 25, 8, count, conduit, NOW, 200)
        got = b.iget_batch(src, dst, 25, 8, count, conduit, NOW, 200)
        assert got == want
        assert timeline_state(a) == timeline_state(b)


def count_reserve_batch(monkeypatch):
    """Count the elements that go through ``Timeline.reserve_batch``."""
    calls = []
    original = Timeline.reserve_batch

    def counted(self, earliest, duration):
        calls.append(int(earliest.shape[0]))
        return original(self, earliest, duration)

    monkeypatch.setattr(Timeline, "reserve_batch", counted)
    return calls


# The rx closed form needs the spacing margin (o - d for eager puts, o for
# iputs) to exceed 4 ulps of the last remote completion.  At a clock near
# 1e9 one ulp is 2**-23 us, so a margin of 3.5 or 4.5 ulps is a real,
# sub-picosecond spacing that the rounding of each step can eat into.
BIG_NOW = 1e9 + 0.123
BIG_ULP = math.ulp(BIG_NOW)


@pytest.mark.parametrize("ulps", [3.5, 4.5])
@pytest.mark.parametrize("op", ["put", "iput"])
def test_send_ulp_margin(monkeypatch, op, ulps):
    base = get_conduit("cray-shmem")
    if op == "put":
        shape = {"nbytes": 8}
        d = 8 / (MACHINES["stampede"].link_bandwidth_Bpus * base.bw_efficiency)
        o = d + ulps * BIG_ULP
    else:
        shape = {"nelems": 25, "elem_size": 8, "stride_bytes": 8}
        o = ulps * BIG_ULP
    conduit = dataclasses.replace(base, name=f"margin-{op}-{ulps}", o_put_us=o)
    calls = count_reserve_batch(monkeypatch)
    assert_send_matches(op, conduit, 200, BIG_NOW, **shape)
    # Below the margin only the rx side falls back to the array path.
    assert calls == ([199] if ulps < 4 else [])


@st.composite
def sends(draw):
    """An inter-node put (with o >= d, the naive phase's shape) or native
    iput chain on an idle or backlogged pair, from a clock that may sit
    just below a power of two."""
    machine = draw(st.sampled_from(sorted(MACHINES)))
    now = draw(st.one_of(
        st.floats(min_value=0.0, max_value=1e9),
        st.integers(-20, 30).map(lambda k: math.nextafter(2.0**k, 0.0)),
    ))
    count = draw(st.integers(2, 300))
    backlog = draw(st.sampled_from(BACKLOGS))
    if draw(st.booleans()):
        conduit = get_conduit(draw(st.sampled_from(CONDUITS)))
        bw = MACHINES[machine].link_bandwidth_Bpus * conduit.bw_efficiency
        top = min(conduit.eager_threshold, int(conduit.o_put_us * bw))
        return "put", conduit, count, now, backlog, machine, {
            "nbytes": draw(st.integers(0, top))}
    conduit = get_conduit(draw(st.sampled_from(["cray-shmem", "dmapp-caf"])))
    return "iput", conduit, count, now, backlog, machine, {
        "nelems": draw(st.integers(0, 64)), "elem_size": draw(st.sampled_from([4, 8])),
        "stride_bytes": draw(st.sampled_from([None, 8, 160, 4096]))}


@settings(max_examples=60, deadline=None)
@given(case=sends())
@example(case=("put", get_conduit("cray-shmem"), 300, math.nextafter(1024.0, 0.0),
               False, "stampede", {"nbytes": 8}))
def test_send_closed_form_property(case):
    op, conduit, count, now, backlog, machine, shape = case
    assert_send_matches(op, conduit, count, now, backlog, machine, **shape)


def test_idle_eager_chain_reserves_no_batch(monkeypatch):
    """The naive phase's shape: 50,000 eager puts on idle engines are
    priced without a per-call array; a backlog still takes the array path."""
    conduit = get_conduit("cray-shmem")

    def refuse(self, earliest, duration):
        raise AssertionError("closed-form chain took the array path")

    monkeypatch.setattr(Timeline, "reserve_batch", refuse)
    idle = fresh_model()
    idle.put_batch(0, 20, 8, 50_000, conduit, NOW)
    state = timeline_state(idle)
    assert state["tx"][0][2] == state["rx"][1][2] == 50_000
    monkeypatch.undo()
    calls = count_reserve_batch(monkeypatch)
    busy = fresh_model()
    preload(busy, True)
    busy.put_batch(0, 20, 8, 50_000, conduit, NOW)
    assert calls == [49_999, 50_000]


def test_batch_rejects_nonpositive_count():
    model = fresh_model()
    conduit = get_conduit("cray-shmem")
    with pytest.raises(ValueError):
        model.put_batch(0, 20, 8, 0, conduit, 0.0)
    with pytest.raises(ValueError):
        model.get_batch(0, 20, 8, -1, conduit, 0.0)


def test_iput_batch_requires_native():
    model = fresh_model()
    with pytest.raises(ValueError, match="native"):
        model.iput_batch(0, 20, 4, 8, 3, get_conduit("mvapich2x-shmem"), 0.0)
    with pytest.raises(ValueError, match="native"):
        model.iget_batch(0, 20, 4, 8, 3, get_conduit("gasnet"), 0.0)


# ---------------------------------------------------------------------------
# Timeline batch primitives
# ---------------------------------------------------------------------------


def seq_reserve(tl, earliest, duration):
    return np.array([tl.reserve(e, duration)[0] for e in earliest])


@pytest.mark.parametrize(
    "earliest",
    [
        np.full(40, 5.0),  # pure queueing
        np.linspace(0.3, 400.0, 40),  # earliest-bound tail
        np.array([10.0, 10.1, 50.0, 50.05, 120.0, 120.2, 121.0]),  # mixed
    ],
)
@pytest.mark.parametrize("duration", [0.0, 0.7531, 13.0])
@pytest.mark.parametrize("backlog", [0.0, 37.7])
def test_reserve_batch_matches_scalar(earliest, duration, backlog):
    a, b = Timeline("a"), Timeline("b")
    if backlog:
        a.reserve(0.0, backlog)
        b.reserve(0.0, backlog)
    want = seq_reserve(a, earliest, duration)
    got = b.reserve_batch(np.asarray(earliest, dtype=np.float64), duration)
    assert np.array_equal(want, got)
    assert a.next_free == b.next_free
    assert a.busy_time == b.busy_time
    assert a.reservations == b.reservations


def test_reserve_batch_scalar_fallback_path():
    # Every element starts a new segment (earliest always beats the
    # drained queue), forcing > 32 passes and the scalar fallback.
    earliest = np.arange(64, dtype=np.float64) * 10.0
    a, b = Timeline("a"), Timeline("b")
    want = seq_reserve(a, earliest, 1.0)
    got = b.reserve_batch(earliest, 1.0)
    assert np.array_equal(want, got)
    assert a.next_free == b.next_free
    assert a.busy_time == b.busy_time


def test_chain_starts_random_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 80))
        earliest = rng.uniform(0.0, 200.0, n)  # non-monotone on purpose
        duration = float(abs(rng.normal(1.0, 3.0)))
        free = float(abs(rng.normal(20, 30)))
        got = _chain_starts(earliest, duration, free)
        # scalar oracle
        out = np.empty(n)
        f = free
        for i, e in enumerate(earliest):
            s = max(e, f)
            out[i] = s
            f = s + duration
        assert np.array_equal(got, out)


@st.composite
def chains(draw):
    """A start, a period of 1-4 deltas and a period count, with starts
    and deltas aimed at the cases the closed form must get right."""
    x = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),  # subnormal
        st.integers(-1070, 60).map(lambda k: math.nextafter(2.0**k, 0.0)),
        st.floats(min_value=0.0, max_value=1e6),
    ))
    ulp = math.ulp(x) if x > 0.0 else 5e-324
    delta = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=0.499).map(lambda f: f * ulp),  # < half ulp
        st.integers(0, 8).map(lambda k: (k + 0.5) * ulp),  # exact half-ulp tie
        st.floats(min_value=0.0, max_value=100.0),
    )
    deltas = tuple(draw(st.lists(delta, min_size=1, max_size=4)))
    return x, deltas, draw(st.integers(0, 10**4))


@settings(max_examples=200, deadline=None)
@given(case=chains())
@example(case=(0.0, (0.1,), 10**4))  # a fresh timeline's busy time
@example(case=(1.0, (2.0**-53,), 10**3))  # a tie at every step
@example(case=(math.nextafter(4.0, 0.0), (0.3, 1e-17), 10**4))  # starts at a binade top
def test_chain_last_is_cumsum(case):
    x, deltas, n = case
    seq = np.empty(1 + len(deltas) * n, dtype=np.float64)
    seq[0] = x
    seq[1:] = np.tile(np.asarray(deltas, dtype=np.float64), n)
    want = float(np.cumsum(seq)[-1])
    assert chain_last(x, deltas, n).hex() == want.hex()


def test_reserve_batch_empty():
    tl = Timeline("t")
    got = tl.reserve_batch(np.empty(0), 1.0)
    assert got.size == 0
    assert tl.reservations == 0
