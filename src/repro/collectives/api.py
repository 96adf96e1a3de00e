"""Team-scoped collective entry points (step and blocking forms).

Each collective is one private generator (see :mod:`repro.engine.steps`)
that validates, short-circuits the degenerate cases (single member,
zero-size payload — no scratch, no synchronization), joins the team's
:class:`~repro.collectives.comm.TeamComm`, stages the local contribution
into the scratch accumulator, asks the
:class:`~repro.collectives.select.AlgorithmSelector` which algorithm to
run (honoring ``algorithm=``), runs it, reads the result, and takes ONE
trailing team barrier — the only full-team synchronization in any
collective.  The trailing barrier is what lets
the next collective (or the caller) reuse scratch and flag words: every
post has been consumed and every remote read has completed before any
member returns.

The ``*_step`` forms run that generator as a step program ending in
``cont(result)``, for the event engine; the blocking forms trampoline
the same steps inline through :func:`repro.engine.steps.drive`,
executing the exact same layer primitives — which is why results *and*
virtual times are bit-identical across engines.
"""

from __future__ import annotations

import numpy as np

from repro.collectives import algorithms as _alg
from repro.collectives.comm import team_comm
from repro.collectives.select import selector_for
from repro.engine.steps import Done, as_steps, drive


def _flat(values) -> np.ndarray:
    arr = np.ascontiguousarray(values)
    return arr.reshape(-1)


def _check_root(m: int, root_rank: int) -> None:
    if not 0 <= root_rank < m:
        raise ValueError(f"root rank {root_rank} out of range [0, {m})")


# ----------------------------------------------------------------------
# Reduce
# ----------------------------------------------------------------------
def _reduce(layer, members, values, combine, root_rank, broadcast,
            commutative, algorithm):
    members = tuple(int(p) for p in members)
    m = len(members)
    _check_root(m, root_rank)
    data = _flat(values)
    n = data.size
    if m == 1 or n == 0:
        # Degenerate: nothing to exchange — no scratch, no barrier.
        return data.copy()
    nbytes = n * data.itemsize
    comm = yield from team_comm(layer, members, nbytes)
    acc = comm.scratch_view(n, data.dtype)
    comm.put_local(acc, data)
    algo = selector_for(layer).choose(
        "reduce", comm, nbytes,
        broadcast=broadcast, commutative=commutative, algorithm=algorithm,
    )
    if algo == "recdbl":
        yield from _alg.recdbl_reduce(comm, acc, combine)
    elif algo == "ring":
        yield from _alg.ring_reduce(comm, acc, n, combine)
    elif algo == "hier":
        yield from _alg.hier_reduce(comm, acc, combine, root_rank)
    else:
        tree = _alg.linear_reduce if algo == "linear" else _alg.binomial_reduce
        order = _alg.rotated_order(m, root_rank)
        idx = (comm.my_rank() - root_rank) % m
        yield from tree(comm, acc, order, idx, combine, broadcast)
    res = np.asarray(acc.local).copy()
    yield from comm.barrier()
    return res


def team_reduce_step(
    layer,
    members,
    values,
    combine,
    cont,
    *,
    root_rank: int = 0,
    broadcast: bool = True,
    commutative: bool = True,
    algorithm: str | None = None,
):
    """Reduce ``values`` element-wise over the team with ``combine``;
    ``cont(result)`` receives the reduction on the root (and on every
    member when ``broadcast``; otherwise non-root results are
    unspecified partial values)."""
    return as_steps(_reduce(layer, members, values, combine, root_rank,
                            broadcast, commutative, algorithm), cont)


# ----------------------------------------------------------------------
# Broadcast
# ----------------------------------------------------------------------
def _broadcast(layer, members, values, root_rank, algorithm):
    members = tuple(int(p) for p in members)
    m = len(members)
    _check_root(m, root_rank)
    data = _flat(values)
    n = data.size
    if m == 1 or n == 0:
        return data.copy()
    nbytes = n * data.itemsize
    comm = yield from team_comm(layer, members, nbytes)
    acc = comm.scratch_view(n, data.dtype)
    me = comm.my_rank()
    if me == root_rank:
        comm.put_local(acc, data)
    algo = selector_for(layer).choose("bcast", comm, nbytes, algorithm=algorithm)
    if algo == "hier":
        yield from _alg.hier_bcast(comm, acc, root_rank)
    else:
        tree = _alg.linear_bcast if algo == "linear" else _alg.binomial_bcast
        yield from tree(comm, acc, _alg.rotated_order(m, root_rank), (me - root_rank) % m)
    res = np.asarray(acc.local).copy()
    yield from comm.barrier()
    return res


def team_broadcast_step(
    layer,
    members,
    values,
    cont,
    *,
    root_rank: int = 0,
    algorithm: str | None = None,
):
    """Broadcast the root's ``values`` over the team; every member's
    ``cont(result)`` receives the root's payload.  Non-root members pass
    a same-shape/dtype ``values`` (contents ignored)."""
    return as_steps(_broadcast(layer, members, values, root_rank, algorithm), cont)


# ----------------------------------------------------------------------
# Allgather (fcollect)
# ----------------------------------------------------------------------
def _allgather(layer, members, values, algorithm):
    members = tuple(int(p) for p in members)
    m = len(members)
    data = _flat(values)
    n = data.size
    if m == 1 or n == 0:
        return data.copy()
    slice_bytes = n * data.itemsize
    comm = yield from team_comm(layer, members, m * slice_bytes)
    acc = comm.scratch_view(m * n, data.dtype)
    comm.put_local(acc, data, offset=comm.my_rank() * n)
    algo = selector_for(layer).choose(
        "allgather", comm, slice_bytes, algorithm=algorithm,
    )
    gather = _alg.ring_allgather if algo == "ring" else _alg.linear_allgather
    yield from gather(comm, acc, n)
    res = np.asarray(acc.local).copy()
    yield from comm.barrier()
    return res


def team_allgather_step(
    layer,
    members,
    values,
    cont,
    *,
    algorithm: str | None = None,
):
    """Concatenate every member's equal-size ``values`` in team rank
    order; ``cont(result)`` receives the full ``m * n`` array on every
    member."""
    return as_steps(_allgather(layer, members, values, algorithm), cont)


# ----------------------------------------------------------------------
# Blocking forms
# ----------------------------------------------------------------------
def team_reduce(layer, members, values, combine, **kwargs) -> np.ndarray:
    """Blocking :func:`team_reduce_step` (threaded/cooperative
    engines)."""
    return drive(team_reduce_step(layer, members, values, combine, Done, **kwargs))


def team_broadcast(layer, members, values, **kwargs) -> np.ndarray:
    """Blocking :func:`team_broadcast_step`."""
    return drive(team_broadcast_step(layer, members, values, Done, **kwargs))


def team_allgather(layer, members, values, **kwargs) -> np.ndarray:
    """Blocking :func:`team_allgather_step`."""
    return drive(team_allgather_step(layer, members, values, Done, **kwargs))
