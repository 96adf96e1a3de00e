"""Cost-model algorithm selection with fixed-algorithm overrides.

:class:`AlgorithmSelector` ranks the candidate algorithms for one
collective call through the closed-form pricer
(:meth:`repro.sim.netmodel.NetworkModel.collective_cost`) and picks the
cheapest, memoizing per (kind, team size, team shape, payload) — the
pricer is pure arithmetic, so the choice depends only on those and the
machine/conduit profile, never on simulation state.

The per-call ``algorithm=`` parameter forces a fixed algorithm (the
"oracle" path for benchmarking and debugging); otherwise the cost-model
argmin runs (ties break toward the earlier candidate).

A forced algorithm that exists but does not apply to the call — a
non-commutative reduction forced to ``ring``, a broadcast forced to
``recdbl`` — falls back to the best generally-applicable candidate
(``binomial`` when available) rather than erroring, so one forced name
can steer a whole sweep.  An unknown name raises ``ValueError``.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.collectives.comm import TeamComm

#: Every algorithm the library implements.
ALGORITHMS: tuple[str, ...] = ("linear", "binomial", "recdbl", "ring", "hier")

#: Candidates per collective kind.  Recursive doubling and ring reorder
#: operands pairwise, so they require commutativity; broadcasts have no
#: operator and allgathers preserve slice order by construction.
REDUCE_ALGORITHMS: tuple[str, ...] = ALGORITHMS
NONCOMMUTATIVE_REDUCE_ALGORITHMS: tuple[str, ...] = ("linear", "binomial")
BCAST_ALGORITHMS: tuple[str, ...] = ("linear", "binomial", "hier")
ALLGATHER_ALGORITHMS: tuple[str, ...] = ("linear", "ring")


def candidates_for(kind: str, commutative: bool = True) -> tuple[str, ...]:
    """The algorithms eligible for one call."""
    if kind == "reduce":
        return REDUCE_ALGORITHMS if commutative else NONCOMMUTATIVE_REDUCE_ALGORITHMS
    if kind == "bcast":
        return BCAST_ALGORITHMS
    if kind == "allgather":
        return ALLGATHER_ALGORITHMS
    raise ValueError(f"unknown collective kind {kind!r}")


class AlgorithmSelector:
    """Per-layer algorithm chooser (one instance per comm layer)."""

    def __init__(self, network, conduit) -> None:
        self._network = network
        self._conduit = conduit
        self._memo: dict[tuple, str] = {}

    def cost(self, algo: str, kind: str, comm: "TeamComm", nbytes: int,
             broadcast: bool = True) -> float:
        """Price one candidate on this team's topology shape."""
        return self._network.collective_cost(
            algo, comm.m, nbytes, self._conduit,
            kind=kind,
            nnodes=comm.nnodes,
            max_per_node=comm.max_per_node,
            # The hierarchical reduction always delivers everywhere.
            broadcast=True if algo == "hier" else broadcast,
            inter_bits=comm.tree_inter_bits,
        )

    def choose(
        self,
        kind: str,
        comm: "TeamComm",
        nbytes: int,
        *,
        broadcast: bool = True,
        commutative: bool = True,
        algorithm: str | None = None,
    ) -> str:
        """The algorithm to run for this call: ``algorithm`` when given
        (see the module docstring for its fallback), else the cost-model
        argmin."""
        cands = candidates_for(kind, commutative)
        if algorithm:
            if algorithm not in ALGORITHMS:
                raise ValueError(
                    f"unknown collective algorithm {algorithm!r}; "
                    f"expected one of {sorted(ALGORITHMS)}"
                )
            if algorithm in cands:
                return algorithm
            return "binomial" if "binomial" in cands else cands[0]
        key = (
            kind, comm.m, comm.nnodes, comm.max_per_node,
            comm.tree_inter_bits, nbytes, broadcast, commutative,
        )
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        best = min(
            cands,
            key=lambda a: self.cost(a, kind, comm, nbytes, broadcast),
        )
        self._memo[key] = best
        return best


def selector_for(layer) -> AlgorithmSelector:
    """The (cached) selector bound to one comm layer's network model."""
    sel = getattr(layer, "_collective_selector", None)
    if sel is None:
        sel = AlgorithmSelector(layer.job.network, layer.profile)
        layer._collective_selector = sel
    return sel
