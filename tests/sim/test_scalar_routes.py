"""Scalar prices over random PE pairs of a 64-node job, pinned bitwise.

``golden_scalar_routes.json`` (written by ``gen_golden_scalar_routes.py``)
holds, per conduit, a seeded random sequence of scalar ``put``/``get``/
``iput``/``iget``/``amo`` prices on a 1024-PE ``stampede`` topology:
random source and destination PEs, on-node and off-node, from un-round
clocks, with most operations landing on a few shared nodes so later
ones queue behind earlier ones.  It records ``float.hex`` of every
result, every AMO's ``proc``/``back`` causality constants, and the final
``(next_free, busy_time, reservations)`` of every timeline.  Replaying
the sequence through the pricer factories must reproduce all of it:
however the scalar pricers are keyed and memoized, a price that drifts
by one ULP, or a reservation booked on the wrong node's timeline,
fails here.
"""

import json
from pathlib import Path

import pytest

from repro.sim.machines import MACHINES
from repro.sim.netmodel import CONDUITS, NetworkModel, get_conduit
from repro.sim.topology import Topology

GOLDEN_PATH = Path(__file__).with_name("golden_scalar_routes.json")


def replay(machine: str, num_pes: int, conduit_name: str, ops: list) -> dict:
    """Price ``ops`` in order on a fresh model; the record the golden
    file holds for one conduit."""
    model = NetworkModel(Topology(MACHINES[machine], num_pes))
    conduit = get_conduit(conduit_name)
    results = []
    for op, src, dst, now_hex, *sizes in ops:
        now = float.fromhex(now_hex)
        if op == "amo":
            price, proc, back = model.amo_pricer(src, dst, conduit)
            results.append([price(now).hex(), proc.hex(), back.hex()])
            continue
        if op in ("put", "get"):
            price = getattr(model, op + "_pricer")(src, dst, sizes[0], conduit)
        else:
            nelems, elem_size, stride_bytes = sizes
            price = getattr(model, op + "_pricer")(
                src, dst, nelems, elem_size, conduit, stride_bytes
            )
        r = price(now)
        if isinstance(r, float):
            results.append([r.hex()])
        else:
            results.append([r.local_complete.hex(), r.remote_complete.hex()])
    return {
        "results": results,
        "timelines": {
            name: [[t.next_free.hex(), t.busy_time.hex(), t.reservations] for t in tls]
            for name, tls in model.timelines().items()
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_conduit_and_op(golden):
    assert sorted(golden["conduits"]) == sorted(CONDUITS)
    assert Topology(MACHINES[golden["machine"]], golden["num_pes"]).num_nodes == 64
    for name, case in golden["conduits"].items():
        ops = {op for op, *_ in case["ops"]}
        native = get_conduit(name).iput_native
        assert ops == ({"put", "get", "iput", "iget", "amo"} if native
                       else {"put", "get", "amo"})
        cpn = MACHINES[golden["machine"]].cores_per_node
        routes = {src // cpn == dst // cpn for _, src, dst, *_ in case["ops"]}
        assert routes == {True, False}


@pytest.mark.parametrize("conduit_name", sorted(CONDUITS))
def test_scalar_routes_bitwise(golden, conduit_name):
    case = golden["conduits"][conduit_name]
    got = replay(golden["machine"], golden["num_pes"], conduit_name, case["ops"])
    assert got["results"] == case["results"]
    assert got["timelines"] == case["timelines"]
