"""Golden collectives: results, per-PE clocks and trace digests, pinned.

``golden_collectives.json`` records, for a fixed set of event-engine
runs, the sha256 of every PE's results, the ``float.hex`` of every PE's
final virtual clock and the run's trace digest.  It was written by
``gen_golden_collectives.py`` before the collective algorithms and the
scale-benchmark bodies were rewritten from hand-written continuations
into generators, so any change to what an algorithm sends, in what
order, or what it costs fails here:

* every applicable (kind, algorithm) — ``allreduce`` (a reduction with
  ``broadcast=True``) over all five reduction algorithms, ``reduce``
  (root-only) over the two that honor it, ``bcast`` and ``allgather`` —
  on three team shapes, root rank 2, at 4 and 1000 elements.  Each run
  issues the collective twice, at half size and then full size, so the
  first join, the re-join and the scratch growth path are all covered;
* ``scale.run_workload`` himeno and multi-writer dht at 64 and 1024 PEs
  (results digest and ``max_virtual_us``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import scale
from repro.collectives import (
    team_allgather_step,
    team_broadcast_step,
    team_reduce_step,
)
from repro.engine.steps import Done
from repro.trace import trace_digest
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach
from repro.trace.events import attach as trace_attach

GOLDEN_PATH = Path(__file__).with_name("golden_collectives.json")
ROOT_RANK = 2
SIZES = (4, 1000)

#: name -> (job PEs, team members); stampede packs 16 PEs per node.
SHAPES = {
    "13of13": (13, tuple(range(13))),  # one node
    "13of40": (40, tuple(range(1, 40, 3))),  # strided over three nodes
    "10of48": (48, tuple(range(2, 48, 5))),  # strided over three nodes
}

#: kind -> the algorithms it applies to.
KINDS = {
    "allreduce": ("linear", "binomial", "recdbl", "ring", "hier"),
    "reduce": ("linear", "binomial"),
    "bcast": ("linear", "binomial", "hier"),
    "allgather": ("linear", "ring"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _collective(layer, members, kind, algo, data, cont):
    if kind in ("allreduce", "reduce"):
        return team_reduce_step(
            layer, members, data, np.add, cont, root_rank=ROOT_RANK,
            broadcast=kind == "allreduce", algorithm=algo,
        )
    if kind == "bcast":
        return team_broadcast_step(
            layer, members, data, cont, root_rank=ROOT_RANK, algorithm=algo,
        )
    return team_allgather_step(layer, members, data, cont, algorithm=algo)


def collective_entry(kind: str, algo: str, shape: str, nelems: int) -> dict:
    num_pes, members = SHAPES[shape]
    heap = (1 << 14) + 3 * len(members) * nelems * 8
    job = Job(num_pes, "stampede", heap_bytes=heap, engine="event")
    layer = shmem_attach(job)
    tracer = trace_attach(job, capture_sync=True)

    def body():
        ctx = current()
        if ctx.pe not in members:
            return Done(())
        first = (np.arange(nelems // 2) * 3 + ctx.pe * 7).astype(np.float64)
        second = (np.arange(nelems) * 5 - ctx.pe).astype(np.float64)
        return _collective(
            layer, members, kind, algo, first,
            lambda a: _collective(
                layer, members, kind, algo, second,
                lambda b: Done((a, b)),
            ),
        )

    results = job.run(body)
    h = hashlib.sha256()
    for res in results:
        for arr in res:
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"--")
    return {
        "results_sha256": h.hexdigest(),
        "clocks": [ctx.clock.now.hex() for _, ctx in sorted(job.pe_contexts.items())],
        "trace_digest": trace_digest(tracer),
    }


def scale_entry(workload: str, pes: int) -> dict:
    run = scale.run_workload(workload, pes, engine="event")
    return {
        "results_sha256": _sha(repr(run["results"]).encode()),
        "max_virtual_us": run["max_virtual_us"],
    }


ENTRIES = {
    **{
        f"{kind}/{algo}/{shape}/{nelems}": (
            lambda kind=kind, algo=algo, shape=shape, nelems=nelems:
            collective_entry(kind, algo, shape, nelems)
        )
        for kind, algos in KINDS.items()
        for algo in algos
        for shape in SHAPES
        for nelems in SIZES
    },
    **{
        f"scale/{workload}/{pes}": (
            lambda workload=workload, pes=pes: scale_entry(workload, pes)
        )
        for workload in ("himeno", "dht")
        for pes in (64, 1024)
    },
}


def golden_table() -> dict:
    return {key: make() for key, make in ENTRIES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_entry(golden):
    assert sorted(golden) == sorted(ENTRIES)


@pytest.mark.parametrize("key", sorted(ENTRIES))
def test_collective_matches_golden(key, golden):
    assert ENTRIES[key]() == golden[key]
