"""The pricers reproduce the golden price table to the last bit.

The pricer factories (``put_pricer``/``get_pricer``/``iput_pricer``/
``iget_pricer``/``amo_pricer``/``batch_pricer``) are the one
implementation of every closed-form price; the direct methods
(``put``, ``put_batch``, ...) are views of them.  ``golden_prices.json``
holds what the direct methods returned — ``float.hex()`` of every
result and the final state of every resource timeline — *before* they
became delegations (written by ``gen_golden_prices.py``), so a pricer
that drifts by one ULP, or leaves a timeline in a different state,
fails here.  The grid was later widened (every conduit's put/get/amo,
``dmapp-caf`` strided and batch cases, non-native batch puts/gets, a
batch with ``stride_bytes=None``) and those records were written by the
direct methods before the send and fetch closures were merged.
"""

import json
from pathlib import Path

import pytest

from repro.sim.machines import MACHINES
from repro.sim.netmodel import NetworkModel, get_conduit
from repro.sim.topology import Topology

NOW = 7.91287310001  # deliberately un-round starting clock
GOLDEN_PATH = Path(__file__).with_name("golden_prices.json")

PAIRS = [(0, 1), (0, 17), (20, 40)]  # same-node and two inter-node pairs
CONDUITS = ["cray-shmem", "gasnet", "mpi3", "mvapich2x-shmem", "cray-mpich", "dmapp-caf"]
SIZES = [1, 8, 4096, 100_000]
STRIDES = [8, 256, None]
COUNTS = [1, 2, 50]
BATCH_OPS = [
    ("put", {"nbytes": 8}),
    ("put", {"nbytes": 100_000}),  # rendezvous branch
    ("get", {"nbytes": 64}),
    ("iput", {"nelems": 25, "elem_size": 8, "stride_bytes": 160}),
    ("iget", {"nelems": 25, "elem_size": 8, "stride_bytes": 160}),
]
NATIVE_EXTRA = "dmapp-caf"  # Cray-CAF's native conduit: strided + batch grid
#: Batch cases beyond cray-shmem's, keyed with their conduit.
EXTRA_BATCH_OPS = [(NATIVE_EXTRA, op, kw) for op, kw in BATCH_OPS] + [
    ("mvapich2x-shmem", "put", {"nbytes": 8}),  # non-native, eager
    ("mvapich2x-shmem", "put", {"nbytes": 100_000}),  # non-native, rendezvous
    ("mvapich2x-shmem", "get", {"nbytes": 8}),
    ("mvapich2x-shmem", "get", {"nbytes": 100_000}),
    ("cray-shmem", "iput", {"nelems": 25, "elem_size": 8, "stride_bytes": None}),
    ("cray-shmem", "iget", {"nelems": 25, "elem_size": 8, "stride_bytes": None}),
]


def fresh_model(num_pes=48):
    """A model with backlog pressure, so reservations queue rather than
    start free."""
    model = NetworkModel(Topology(MACHINES["stampede"], num_pes))
    tls = model.timelines()
    for node in (0, 1, 2):
        tls["tx"][node].reserve(0.0, 13.37)
        tls["rx"][node].reserve(0.0, 29.1)
        tls["amo"][node].reserve(0.0, 3.21)
        tls["cpu"][node].reserve(0.0, 5.5)
    return model


def _sizes(op, kw):
    return (kw["nbytes"],) if op in ("put", "get") else (kw["nelems"], kw["elem_size"])


def price_direct(model, op, src, dst, conduit, now, count=None, **kw):
    """One price through the direct methods (the golden generator's view)."""
    if op == "amo":
        return model.amo(src, dst, conduit, now)
    extra = {} if op in ("put", "get") else {"stride_bytes": kw.get("stride_bytes")}
    if count is None:
        return getattr(model, op)(src, dst, *_sizes(op, kw), conduit, now, **extra)
    return getattr(model, op + "_batch")(
        src, dst, *_sizes(op, kw), count, conduit, now, **extra
    )


def price_pricer(model, op, src, dst, conduit, now, count=None, **kw):
    """The same price through the pricer factories."""
    if op == "amo":
        return model.amo_pricer(src, dst, conduit)[0](now)
    if count is not None:
        return model.batch_pricer(op, src, dst, count=count, conduit=conduit, **kw)(now)
    extra = () if op in ("put", "get") else (kw.get("stride_bytes"),)
    return getattr(model, op + "_pricer")(src, dst, *_sizes(op, kw), conduit, *extra)(now)


def _hex(result):
    if isinstance(result, float):
        return [result.hex()]
    return [result.local_complete.hex(), result.remote_complete.hex()]


def _record(model, results):
    """Results plus the final ``(next_free, busy_time, reservations)``
    of every timeline, in the JSON's shape."""
    return {
        "results": [h for r in results for h in _hex(r)],
        "timelines": {
            name: [[t.next_free.hex(), t.busy_time.hex(), t.reservations] for t in tls]
            for name, tls in model.timelines().items()
        },
    }


def put_get_case(price, src, dst, conduit_name, nbytes):
    conduit, model, now, out = get_conduit(conduit_name), fresh_model(), NOW, []
    for _ in range(3):  # repeat: queueing state must track exactly
        timing = price(model, "put", src, dst, conduit, now, nbytes=nbytes)
        done = price(model, "get", src, dst, conduit, now, nbytes=nbytes)
        out += [timing, done]
        now = max(now, timing.local_complete, done)
    return _record(model, out)


def strided_case(price, src, dst, stride_bytes, conduit_name="cray-shmem"):
    conduit, model, now, out = get_conduit(conduit_name), fresh_model(), NOW, []
    for nelems in (1, 7, 400):
        kw = dict(nelems=nelems, elem_size=8, stride_bytes=stride_bytes)
        timing = price(model, "iput", src, dst, conduit, now, **kw)
        done = price(model, "iget", src, dst, conduit, now, **kw)
        out += [timing, done]
        now = max(now, timing.local_complete, done)
    return _record(model, out)


def amo_case(price, src, dst, conduit_name):
    conduit, model, now, out = get_conduit(conduit_name), fresh_model(), NOW, []
    for _ in range(4):
        done = price(model, "amo", src, dst, conduit, now)
        out.append(done)
        now = max(now, done) + 0.503
    return _record(model, out)


def batch_case(price, src, dst, count, op, kw, conduit_name="cray-shmem"):
    model = fresh_model()
    conduit = get_conduit(conduit_name)
    return _record(model, [price(model, op, src, dst, conduit, NOW, count=count, **kw)])


def golden_table(price):
    """Every grid point's record, keyed the way the tests look it up."""
    table = {}
    for src, dst in PAIRS:
        for c in CONDUITS[:3]:
            for n in SIZES:
                table[f"put_get/{src}-{dst}/{c}/{n}"] = put_get_case(price, src, dst, c, n)
            table[f"amo/{src}-{dst}/{c}"] = amo_case(price, src, dst, c)
        for s in STRIDES:
            table[f"strided/{src}-{dst}/{s}"] = strided_case(price, src, dst, s)
        for count in COUNTS:
            for i, (op, kw) in enumerate(BATCH_OPS):
                table[f"batch/{src}-{dst}/{count}/{op}{i}"] = batch_case(
                    price, src, dst, count, op, kw
                )
    # The widened grid, appended so the original records keep their place.
    for src, dst in PAIRS:
        for c in CONDUITS[3:]:
            for n in SIZES:
                table[f"put_get/{src}-{dst}/{c}/{n}"] = put_get_case(price, src, dst, c, n)
            table[f"amo/{src}-{dst}/{c}"] = amo_case(price, src, dst, c)
        for s in STRIDES:
            table[f"strided/{src}-{dst}/{s}/{NATIVE_EXTRA}"] = strided_case(
                price, src, dst, s, NATIVE_EXTRA
            )
        for count in COUNTS:
            for i, (c, op, kw) in enumerate(EXTRA_BATCH_OPS):
                table[f"batch/{src}-{dst}/{count}/{c}/{op}{i}"] = batch_case(
                    price, src, dst, count, op, kw, c
                )
    return table


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("conduit_name", CONDUITS)
@pytest.mark.parametrize("nbytes", SIZES)
def test_put_get_pricers_bitwise(golden, src, dst, conduit_name, nbytes):
    got = put_get_case(price_pricer, src, dst, conduit_name, nbytes)
    assert got == golden[f"put_get/{src}-{dst}/{conduit_name}/{nbytes}"]


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("stride_bytes", STRIDES)
def test_strided_pricers_bitwise(golden, src, dst, stride_bytes):
    got = strided_case(price_pricer, src, dst, stride_bytes)
    assert got == golden[f"strided/{src}-{dst}/{stride_bytes}"]


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("conduit_name", CONDUITS)
def test_amo_pricer_bitwise(golden, src, dst, conduit_name):
    assert amo_case(price_pricer, src, dst, conduit_name) == golden[
        f"amo/{src}-{dst}/{conduit_name}"
    ]
    # proc/back must equal the constants of the causality adjustment
    conduit, model = get_conduit(conduit_name), fresh_model()
    _, proc, back = model.amo_pricer(src, dst, conduit)
    m = model._machine
    if model.topology.same_node(src, dst):
        assert (proc, back) == (m.amo_process_us, m.intra_latency_us)
    elif conduit.amo_offload:
        assert (proc, back) == (m.amo_process_us, m.link_latency_us)
    else:
        assert (proc, back) == (
            m.am_attentiveness_us + m.cpu_am_process_us,
            m.link_latency_us,
        )


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("op,kw", BATCH_OPS)
def test_batch_pricer_bitwise(golden, src, dst, count, op, kw):
    i = BATCH_OPS.index((op, kw))
    got = batch_case(price_pricer, src, dst, count, op, kw)
    assert got == golden[f"batch/{src}-{dst}/{count}/{op}{i}"]


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("stride_bytes", STRIDES)
def test_strided_pricers_bitwise_native_extra(golden, src, dst, stride_bytes):
    got = strided_case(price_pricer, src, dst, stride_bytes, NATIVE_EXTRA)
    assert got == golden[f"strided/{src}-{dst}/{stride_bytes}/{NATIVE_EXTRA}"]


@pytest.mark.parametrize("src,dst", PAIRS)
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("i", range(len(EXTRA_BATCH_OPS)))
def test_extra_batch_pricer_bitwise(golden, src, dst, count, i):
    c, op, kw = EXTRA_BATCH_OPS[i]
    got = batch_case(price_pricer, src, dst, count, op, kw, c)
    assert got == golden[f"batch/{src}-{dst}/{count}/{c}/{op}{i}"]


def test_direct_methods_are_views_of_the_pricers(golden):
    """The delegating direct methods read the same table."""
    assert golden_table(price_direct) == golden


def test_pricer_cache_reuses_closures():
    """Scalar pricers are memoized per route class, not per node pair:
    every off-node pair shares one closure, the on-node pairs another."""
    model = fresh_model()
    conduit = get_conduit("cray-shmem")
    put = model.route_pricer("put", False, conduit, nbytes=64)
    assert model.route_pricer("put", False, conduit, nbytes=64) is put
    assert model.route_pricer("put", True, conduit, nbytes=64) is not put
    assert model.route_pricer("put", False, conduit, nbytes=65) is not put
    amo = model.amo_route_pricer(False, conduit)
    assert model.amo_route_pricer(False, conduit) is amo
    # Pricing through the per-PE views of many pairs builds nothing more.
    before = len(model._pricers)
    for src, dst in ((0, 17), (1, 18), (20, 40), (47, 0)):
        model.put_pricer(src, dst, 64, conduit)(NOW)
        model.amo_pricer(src, dst, conduit)[0](NOW)
    assert len(model._pricers) == before
    # The view prices through the shared closure on its own node pair.
    timing = model.put_pricer(20, 40, 64, conduit)(NOW)
    assert model.timelines()["rx"][2].next_free == timing.remote_complete
