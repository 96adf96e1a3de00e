"""``repro.collectives`` — the collective algorithm library.

The paper implements CAF reductions and broadcasts as a single binomial
tree of 1-sided OpenSHMEM puts/gets (Section II footnote).  This package
generalizes that into a library of competing algorithms — linear/flat,
binomial tree, recursive doubling, a bandwidth-optimal ring
(reduce-scatter + allgather), and a hierarchical two-level scheme that
exploits :mod:`repro.sim.topology` node locality — all built from the
same traced 1-sided put/get and atomic post/wait primitives, so every
algorithm runs unchanged on the threaded, cooperative and event
engines and stays visible to the sanitizer.

Selection is cost-model driven: each algorithm has a closed-form pricer
(:meth:`repro.sim.netmodel.NetworkModel.collective_cost`) and
:class:`AlgorithmSelector` picks per (payload, team size, team shape on
the topology, machine profile).  ``REPRO_COLLECTIVE=<algo>`` or the
per-call ``algorithm=`` parameter forces a fixed algorithm as an oracle.

Public API
----------

* step forms (event engine; ``cont(result)`` continues the program):
  :func:`team_reduce_step`, :func:`team_broadcast_step`,
  :func:`team_allgather_step`
* blocking forms (threaded/cooperative engines):
  :func:`team_reduce`, :func:`team_broadcast`, :func:`team_allgather`
* :func:`team_comm` — a generator (``comm = yield from team_comm(layer,
  members, need_bytes)``) that looks up and joins a team's
  :class:`TeamComm`; the algorithms in
  :mod:`repro.collectives.algorithms` are generators over it
* :data:`ALGORITHMS`, :class:`AlgorithmSelector`, :data:`FORCE_ENV`
"""

from repro.collectives.api import (
    team_allgather,
    team_allgather_step,
    team_broadcast,
    team_broadcast_step,
    team_reduce,
    team_reduce_step,
)
from repro.collectives.comm import TeamComm, team_comm
from repro.collectives.select import (
    ALGORITHMS,
    ALLGATHER_ALGORITHMS,
    BCAST_ALGORITHMS,
    FORCE_ENV,
    REDUCE_ALGORITHMS,
    AlgorithmSelector,
    candidates_for,
    selector_for,
)

__all__ = [
    "ALGORITHMS",
    "ALLGATHER_ALGORITHMS",
    "BCAST_ALGORITHMS",
    "FORCE_ENV",
    "REDUCE_ALGORITHMS",
    "AlgorithmSelector",
    "TeamComm",
    "candidates_for",
    "selector_for",
    "team_allgather",
    "team_allgather_step",
    "team_broadcast",
    "team_broadcast_step",
    "team_comm",
    "team_reduce",
    "team_reduce_step",
]
