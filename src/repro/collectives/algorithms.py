"""The competing collective algorithms, as engine-agnostic step programs.

Every algorithm is a generator (see :mod:`repro.engine.steps`) over the
:class:`~repro.collectives.comm.TeamComm` primitives — traced 1-sided
put/get for data, pairwise post/wait (atomic counter + per-word-timed
wait) for synchronization — so one implementation runs unchanged on the
threaded, cooperative, and event engines and is fully visible to the
sanitizer.  No algorithm ever takes a full-team barrier internally:
cost scales with its own critical path, and the single trailing team
barrier lives in the dispatcher (:mod:`repro.collectives.api`).

Conventions shared by all algorithms:

* ``acc`` is the PE's typed scratch accumulator; the caller has already
  staged this PE's contribution into it.
* ``order`` is a tuple of team ranks; ``order[0]`` is the root and
  ``idx`` is this PE's position in it (reductions rotate the rank space
  so any root reuses the root-at-zero tree shape).
* Flag bank 0 signals "data ready" up the reduction, bank 1 signals
  acknowledgements / results down.  Every (flag word, collective)
  pair sees exactly one post and one consuming wait — the strict
  alternation that makes per-word time merges schedule-independent.
* ``combine(a, b)`` is called with a canonical operand order (lower
  tree position / lower virtual rank on the left), so floating-point
  results are bit-identical across engines *and* across the members of
  an exchange.

Reduction algorithms (``linear``, ``binomial``, ``recdbl``, ``ring``,
``hier``) leave the full result in the accumulator of every PE they
promise it to: linear/binomial honor ``broadcast`` (root-only when
false); recursive doubling and ring are inherently all-reduce; the
hierarchical scheme always broadcasts (delivering to everyone satisfies
a root-only contract — non-root values are unspecified either way).
"""

from __future__ import annotations

import typing

import numpy as np

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.collectives.comm import TeamComm


def rotated_order(m: int, root_rank: int) -> tuple[int, ...]:
    """Team ranks rotated so ``root_rank`` sits at position 0."""
    return tuple((root_rank + i) % m for i in range(m))


def _push(comm: "TeamComm", acc, ranks) -> None:
    """Put the accumulator into each of ``ranks`` and post its bank 1."""
    for rank in ranks:
        comm.put_acc(acc, rank)
        comm.post(rank, 1)


def _send_down(comm: "TeamComm", acc, order, v: int, level: int) -> None:
    """Forward the result down the binomial tree over ``order``: to
    position ``v + 2^j`` for every level ``j`` below ``level``, the
    largest subtree first."""
    n = len(order)
    _push(comm, acc, [order[v + (1 << j)] for j in range(level - 1, -1, -1)
                      if v + (1 << j) < n])


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def linear_reduce(comm: "TeamComm", acc, order, idx, combine, broadcast):
    """Flat gather onto the root, combining in rank order; O(m) root
    critical path but minimal small-team overhead."""
    if idx == 0:
        for src in order[1:]:
            yield from comm.wait(src, 0)
            comm.combine_from(acc, src, combine)
        if broadcast:
            _push(comm, acc, order[1:])
        return
    comm.post(order[0], 0)
    if broadcast:
        yield from comm.wait(order[0], 1)


def binomial_reduce(comm: "TeamComm", acc, order, idx, combine, broadcast):
    """Binomial reduction tree, ceil(log2 m) rounds; the paper's own
    CAF reduction shape (Section II footnote).  The tree runs over
    ``order`` (virtual rank = position): child ``v`` posts to
    ``v - lowbit(v)`` once its subtree is combined; with ``broadcast``
    the result flows back down the same tree on bank 1."""
    n = len(order)
    v = idx
    for k in range((n - 1).bit_length()):
        bit = 1 << k
        if v & bit:
            parent = order[v - bit]
            comm.post(parent, 0)
            if broadcast:
                yield from comm.wait(parent, 1)
                _send_down(comm, acc, order, v, k)
            return
        if v + bit < n:
            yield from comm.wait(order[v + bit], 0)
            comm.combine_from(acc, order[v + bit], combine)
    # v == 0: the root now holds the full reduction.
    if broadcast:
        _send_down(comm, acc, order, v, (n - 1).bit_length())


def recdbl_reduce(comm: "TeamComm", acc, combine):
    """Recursive-doubling all-reduce: ceil(log2 m) pairwise full-payload
    exchanges (plus a fold for non-power-of-two teams).  Commutative
    operators only — the pairwise exchange reorders operands."""
    m = comm.m
    r = comm.my_rank()
    p = 1 << (m.bit_length() - 1)  # largest power of two <= m
    rem = m - p
    folded = r < 2 * rem
    if folded and r % 2 == 1:
        # Folded out: contribute to the even partner, then receive the
        # finished result from it.
        comm.post(r - 1, 0)
        yield from comm.wait(r - 1, 1)
        return
    if folded:
        yield from comm.wait(r + 1, 0)
        comm.combine_from(acc, r + 1, combine)
    cv = r // 2 if folded else r - rem
    for k in range(p.bit_length() - 1):
        pcv = cv ^ (1 << k)
        # Inverse of the fold: survivor pcv is rank 2*pcv (absorbed an
        # odd partner) below the fold zone, rank pcv + rem above it.
        pr = 2 * pcv if pcv < rem else pcv + rem
        comm.post(pr, 0)  # my accumulator is readable
        yield from comm.wait(pr, 0)
        data = comm.get_acc(acc, pr)
        comm.post(pr, 1)  # done reading yours
        yield from comm.wait(pr, 1)
        # Partner acked: safe to overwrite my accumulator.  Canonical
        # operand order (lower virtual rank left) makes both partners
        # compute the identical result.
        mine = np.asarray(acc.local)
        comm.put_local(acc, combine(mine, data) if cv < pcv else combine(data, mine))
    if folded:
        _push(comm, acc, [r + 1])


def ring_reduce(comm: "TeamComm", acc, n, combine):
    """Bandwidth-optimal ring all-reduce: reduce-scatter then allgather,
    2(m-1) rounds moving ~n/m elements each.  Commutative operators
    only.  Each round is a 6-step handshake — go-ahead to the left,
    go-ahead from the right, data-ready to the right, data-ready from
    the left, pull, combine — which throttles neighbors to one
    outstanding post per flag word (no PE runs more than one round
    ahead of its reader)."""
    m = comm.m
    r = comm.my_rank()
    left = (r - 1) % m
    right = (r + 1) % m
    bounds = [j * n // m for j in range(m + 1)]
    for t in range(2 * (m - 1)):
        comm.post(left, 1)
        yield from comm.wait(right, 1)
        comm.post(right, 0)
        yield from comm.wait(left, 0)
        scatter = t < m - 1
        c = (r - t - 1) % m if scatter else (r - (t - (m - 1))) % m
        off = bounds[c]
        cnt = bounds[c + 1] - off
        if cnt:
            data = comm.get_acc(acc, left, offset=off, nelems=cnt)
            if scatter:
                mine = np.asarray(acc.local)[off:off + cnt]
                comm.put_local(acc, combine(data, mine), offset=off)
            else:
                comm.put_local(acc, data, offset=off)


def hier_reduce(comm: "TeamComm", acc, combine, root_rank):
    """Two-level reduction: node leaders gather their node's members
    over intra-node links, a binomial tree runs over leaders (NIC
    links), then leaders scatter the result back to their node.  Always
    delivers to every member."""
    r = comm.my_rank()
    group = comm.node_ranks[comm.node_index[r]]
    leader = group[0]
    if r != leader:
        comm.post(leader, 0)
        yield from comm.wait(leader, 1)
        return
    for mr in group[1:]:
        yield from comm.wait(mr, 0)
        comm.combine_from(acc, mr, combine)
    # Root the inter-node tree at the root's node leader so the hot
    # payload path ends where the caller asked.
    root_leader = comm.node_ranks[comm.node_index[root_rank]][0]
    leaders = tuple(g[0] for g in comm.node_ranks)
    order = tuple(sorted(leaders, key=lambda x: (x != root_leader,)))
    yield from binomial_reduce(comm, acc, order, order.index(r), combine, True)
    _push(comm, acc, group[1:])


# ----------------------------------------------------------------------
# Broadcasts
# ----------------------------------------------------------------------
def binomial_bcast(comm: "TeamComm", acc, order, idx):
    """Binomial broadcast tree over ``order`` (root = position 0),
    ceil(log2 m) rounds: each node forwards to ``v + 2^j`` for every
    level below the one it received at, halving the frontier each
    round."""
    v = idx
    if v == 0:
        level = (len(order) - 1).bit_length()
    else:
        level = (v & -v).bit_length() - 1
        yield from comm.wait(order[v & (v - 1)], 1)
    _send_down(comm, acc, order, v, level)


def linear_bcast(comm: "TeamComm", acc, order, idx):
    """Root pushes the payload to every member directly."""
    if idx == 0:
        _push(comm, acc, order[1:])
    else:
        yield from comm.wait(order[0], 1)


def hier_bcast(comm: "TeamComm", acc, root_rank):
    """Two-level broadcast: binomial over one effective leader per node
    (the root stands in for its own node's leader), then each leader
    pushes to its node over intra-node links."""
    r = comm.my_rank()
    root_node = comm.node_index[root_rank]
    nn = comm.nnodes
    node_order = [(root_node + i) % nn for i in range(nn)]

    def eff_leader(ni):
        return root_rank if ni == root_node else comm.node_ranks[ni][0]

    leaders = tuple(eff_leader(ni) for ni in node_order)
    my_node = comm.node_index[r]
    my_leader = eff_leader(my_node)
    if r != my_leader:
        yield from comm.wait(my_leader, 1)
        return
    yield from binomial_bcast(comm, acc, leaders, leaders.index(r))
    _push(comm, acc, [mr for mr in comm.node_ranks[my_node] if mr != r])


# ----------------------------------------------------------------------
# Allgather (fcollect)
# ----------------------------------------------------------------------
def linear_allgather(comm: "TeamComm", acc, n):
    """Every PE pulls every other PE's slice directly: one round of
    full fan-in, best for small teams or tiny payloads."""
    r = comm.my_rank()
    others = [s for s in range(comm.m) if s != r]
    for s in others:
        comm.post(s, 0)  # my slice is staged and readable
    for s in others:
        yield from comm.wait(s, 0)
        data = comm.get_acc(acc, s, offset=s * n, nelems=n)
        comm.put_local(acc, data, offset=s * n)


def ring_allgather(comm: "TeamComm", acc, n):
    """Bandwidth-optimal ring: m-1 rounds, each pulling one slice from
    the left neighbor, with the same one-round-ahead throttle handshake
    as :func:`ring_reduce`."""
    m = comm.m
    r = comm.my_rank()
    left = (r - 1) % m
    right = (r + 1) % m
    for t in range(m - 1):
        comm.post(left, 1)
        yield from comm.wait(right, 1)
        comm.post(right, 0)
        yield from comm.wait(left, 0)
        s = (r - 1 - t) % m
        data = comm.get_acc(acc, left, offset=s * n, nelems=n)
        comm.put_local(acc, data, offset=s * n)
