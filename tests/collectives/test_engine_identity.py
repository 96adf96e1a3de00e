"""Three-engine bit-identity of the collective library.

Every collective must produce bit-identical results AND bit-identical
virtual clocks / trace digests across the threaded, cooperative, and
event engines — the library prices its traffic through the closed-form
idle-lane model and keeps strict post/consume alternation per flag
word, so completion times are a pure function of the algorithm's
happens-before order (see ``repro/collectives/comm.py``).  A hypothesis
property drives random team shapes, dtypes, payload sizes, and forced
algorithms through the comparison, mirroring
``tests/caf/test_vector_invariance.py``; deterministic tests pin
schedule-independence across explorer random walks.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives import (
    team_allgather_step,
    team_broadcast_step,
    team_reduce_step,
)
from repro.engine.steps import Done, drive
from repro.explore import RandomWalk, Scheduler, trace_digest
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach
from repro.trace.events import attach as trace_attach

ENGINES = ("threaded", "cooperative", "event")


def _make_step(layer, members, kind, algo, dtype, nelems, cont):
    pe = current().pe
    data = (np.arange(1, nelems + 1) * 3 + pe * 7).astype(dtype)
    if kind == "reduce":
        return team_reduce_step(layer, members, data, np.add, cont,
                                root_rank=len(members) // 2, algorithm=algo)
    if kind == "bcast":
        return team_broadcast_step(layer, members, data, cont,
                                   root_rank=len(members) // 2, algorithm=algo)
    return team_allgather_step(layer, members, data, cont, algorithm=algo)


def _run_one(engine, num_pes, members, kind, algo, dtype, nelems, seed=11):
    how = Scheduler(RandomWalk(seed=seed)) if engine == "cooperative" else engine
    job = Job(num_pes, "stampede", heap_bytes=1 << 15, engine=how)
    layer = shmem_attach(job)
    tracer = trace_attach(job, capture_sync=True)

    if engine == "event":
        def body():
            if current().pe not in members:
                return Done((None, current().clock.now))
            fin = lambda res: Done((res, current().clock.now))
            return _make_step(layer, members, kind, algo, dtype, nelems, fin)
    else:
        def body():
            if current().pe not in members:
                return None, current().clock.now
            res = drive(_make_step(layer, members, kind, algo, dtype, nelems, Done))
            return res, current().clock.now

    results = job.run(body)
    return (
        [np.asarray(r[0]) if r[0] is not None else None for r in results],
        [r[1] for r in results],
        trace_digest(tracer),
    )


def _assert_identical(num_pes, members, kind, algo, dtype, nelems, seed=11):
    runs = {
        eng: _run_one(eng, num_pes, members, kind, algo, dtype, nelems, seed)
        for eng in ENGINES
    }
    vals0, clocks0, digest0 = runs["threaded"]
    for eng in ENGINES[1:]:
        vals, clocks, digest = runs[eng]
        for a, b in zip(vals0, vals):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), (eng, a, b)
        assert clocks == clocks0, (eng, clocks, clocks0)
        assert digest == digest0, eng
    return runs


ALGOS = st.sampled_from(
    [("reduce", a) for a in ("linear", "binomial", "recdbl", "ring", "hier", None)]
    + [("bcast", a) for a in ("linear", "binomial", "hier", None)]
    + [("allgather", a) for a in ("linear", "ring", None)]
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    num_pes=st.integers(min_value=2, max_value=14),
    kind_algo=ALGOS,
    dtype=st.sampled_from([np.int64, np.float64, np.int32]),
    nelems=st.integers(min_value=1, max_value=48),
)
def test_property_three_engine_identity(data, num_pes, kind_algo, dtype, nelems):
    kind, algo = kind_algo
    base = data.draw(st.integers(min_value=0, max_value=1), label="base")
    stride = data.draw(st.integers(min_value=1, max_value=3), label="stride")
    members = tuple(range(min(base, num_pes - 1), num_pes, stride))
    _assert_identical(num_pes, members, kind, algo, dtype, nelems)


@pytest.mark.parametrize("algo", ["linear", "binomial", "recdbl", "ring", "hier"])
def test_reduce_identity_multi_node(algo):
    """34 PEs over three stampede nodes, strided 12-member team."""
    _assert_identical(34, tuple(range(1, 34, 3)), "reduce", algo, np.int64, 8)


@pytest.mark.parametrize("algo", ["linear", "binomial", "recdbl", "ring", "hier"])
def test_explorer_schedule_independence(algo):
    """One canonical digest across cooperative random-walk schedules —
    the explorer's race-free contract."""
    digests = {
        _run_one("cooperative", 9, tuple(range(9)), "reduce", algo,
                 np.float64, 4, seed=seed)[2]
        for seed in (1, 2, 3)
    }
    assert len(digests) == 1
