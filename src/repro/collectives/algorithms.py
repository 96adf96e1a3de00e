"""The competing collective algorithms, as engine-agnostic step programs.

Every algorithm is written in continuation-passing style over the
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


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def linear_reduce(comm: "TeamComm", acc, order, idx, combine, broadcast, cont):
    """Flat gather onto the root, combining in rank order; O(m) root
    critical path but minimal small-team overhead."""
    m = len(order)
    if idx == 0:

        def gather(i):
            if i >= m:
                return finish()
            src = order[i]

            def got():
                comm.combine_from(acc, src, combine)
                return gather(i + 1)

            return comm.wait_step(src, 0, got)

        def finish():
            if broadcast:
                for i in range(1, m):
                    comm.put_acc(acc, order[i])
                    comm.post(order[i], 1)
            return cont()

        return gather(1)
    comm.post(order[0], 0)
    if broadcast:
        return comm.wait_step(order[0], 1, cont)
    return cont()


def binomial_reduce(comm: "TeamComm", acc, order, idx, combine, broadcast, cont):
    """Binomial reduction tree, ceil(log2 m) rounds; the paper's own
    CAF reduction shape (Section II footnote).  The tree runs over
    ``order`` (virtual rank = position): child ``v`` posts to
    ``v - lowbit(v)`` once its subtree is combined; with ``broadcast``
    the result flows back down the same tree on bank 1."""
    n = len(order)
    v = idx

    def down(level):
        for j in range(level - 1, -1, -1):
            cv = v + (1 << j)
            if cv < n:
                comm.put_acc(acc, order[cv])
                comm.post(order[cv], 1)
        return cont()

    def up(k):
        bit = 1 << k
        if bit >= n:
            # v == 0: the root now holds the full reduction.
            return down(k) if broadcast else cont()
        if v & bit:
            comm.post(order[v - bit], 0)
            if not broadcast:
                return cont()
            parent = order[v & (v - 1)]
            return comm.wait_step(parent, 1, lambda: down(k))
        nxt = v + bit
        if nxt < n:

            def got():
                comm.combine_from(acc, order[nxt], combine)
                return up(k + 1)

            return comm.wait_step(order[nxt], 0, got)
        return up(k + 1)

    return up(0)


def recdbl_reduce(comm: "TeamComm", acc, combine, cont):
    """Recursive-doubling all-reduce: ceil(log2 m) pairwise full-payload
    exchanges (plus a fold for non-power-of-two teams).  Commutative
    operators only — the pairwise exchange reorders operands."""
    m = comm.m
    r = comm.my_rank()
    p = 1 << (m.bit_length() - 1)  # largest power of two <= m
    rem = m - p

    def rank_of(cv):
        # Inverse of the fold: survivor cv is rank 2*cv (absorbed an
        # odd partner) below the fold zone, rank cv + rem above it.
        return 2 * cv if cv < rem else cv + rem

    def fold_down():
        if r < 2 * rem and r % 2 == 0:
            comm.put_acc(acc, r + 1)
            comm.post(r + 1, 1)
        return cont()

    def core(cv):
        def round_(bit):
            if bit >= p:
                return fold_down()
            pcv = cv ^ bit
            pr = rank_of(pcv)
            comm.post(pr, 0)  # my accumulator is readable

            def ready():
                data = comm.get_acc(acc, pr)
                comm.post(pr, 1)  # done reading yours

                def acked():
                    # Partner acked: safe to overwrite my accumulator.
                    # Canonical operand order (lower virtual rank left)
                    # makes both partners compute the identical result.
                    mine = np.asarray(acc.local)
                    if cv < pcv:
                        res = combine(mine, data)
                    else:
                        res = combine(data, mine)
                    comm.put_local(acc, res)
                    return round_(bit << 1)

                return comm.wait_step(pr, 1, acked)

            return comm.wait_step(pr, 0, ready)

        return round_(1)

    if r < 2 * rem:
        if r % 2 == 1:
            # Folded out: contribute to the even partner, then receive
            # the finished result from it.
            comm.post(r - 1, 0)
            return comm.wait_step(r - 1, 1, cont)

        def folded():
            comm.combine_from(acc, r + 1, combine)
            return core(r // 2)

        return comm.wait_step(r + 1, 0, folded)
    return core(r - rem)


def ring_reduce(comm: "TeamComm", acc, n, combine, cont):
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

    def round_(t):
        if t >= 2 * (m - 1):
            return cont()
        comm.post(left, 1)

        def go():
            comm.post(right, 0)

            def ready():
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
                return round_(t + 1)

            return comm.wait_step(left, 0, ready)

        return comm.wait_step(right, 1, go)

    return round_(0)


def hier_reduce(comm: "TeamComm", acc, combine, root_rank, cont):
    """Two-level reduction: node leaders gather their node's members
    over intra-node links, a binomial tree runs over leaders (NIC
    links), then leaders scatter the result back to their node.  Always
    delivers to every member."""
    r = comm.my_rank()
    ni = comm.node_index[r]
    group = comm.node_ranks[ni]
    leader = group[0]
    leaders = tuple(g[0] for g in comm.node_ranks)

    if r != leader:
        comm.post(leader, 0)
        return comm.wait_step(leader, 1, cont)

    def gather(i):
        if i >= len(group):
            # Root the inter-node tree at the root's node leader so the
            # hot payload path ends where the caller asked.
            root_leader = comm.node_ranks[comm.node_index[root_rank]][0]
            order = tuple(sorted(leaders, key=lambda x: (x != root_leader,)))
            idx = order.index(r)
            return binomial_reduce(comm, acc, order, idx, combine, True, scatter)

        def got():
            comm.combine_from(acc, group[i], combine)
            return gather(i + 1)

        return comm.wait_step(group[i], 0, got)

    def scatter():
        for mr in group[1:]:
            comm.put_acc(acc, mr)
            comm.post(mr, 1)
        return cont()

    return gather(1)


# ----------------------------------------------------------------------
# Broadcasts
# ----------------------------------------------------------------------
def binomial_bcast(comm: "TeamComm", acc, order, idx, cont):
    """Binomial broadcast tree over ``order`` (root = position 0),
    ceil(log2 m) rounds: each node forwards to ``v + 2^j`` for every
    level below the one it received at, halving the frontier each
    round."""
    n = len(order)
    v = idx

    def send(level):
        for j in range(level - 1, -1, -1):
            cv = v + (1 << j)
            if cv < n:
                comm.put_acc(acc, order[cv])
                comm.post(order[cv], 1)
        return cont()

    if v == 0:
        return send((n - 1).bit_length())
    level = (v & -v).bit_length() - 1
    parent = order[v & (v - 1)]
    return comm.wait_step(parent, 1, lambda: send(level))


def linear_bcast(comm: "TeamComm", acc, order, idx, cont):
    """Root pushes the payload to every member directly."""
    if idx == 0:
        for i in range(1, len(order)):
            comm.put_acc(acc, order[i])
            comm.post(order[i], 1)
        return cont()
    return comm.wait_step(order[0], 1, cont)


def hier_bcast(comm: "TeamComm", acc, root_rank, cont):
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

    def scatter():
        for mr in comm.node_ranks[my_node]:
            if mr != r:
                comm.put_acc(acc, mr)
                comm.post(mr, 1)
        return cont()

    if r == my_leader:
        return binomial_bcast(comm, acc, leaders, leaders.index(r), scatter)
    return comm.wait_step(my_leader, 1, cont)


# ----------------------------------------------------------------------
# Allgather (fcollect)
# ----------------------------------------------------------------------
def linear_allgather(comm: "TeamComm", acc, n, cont):
    """Every PE pulls every other PE's slice directly: one round of
    full fan-in, best for small teams or tiny payloads."""
    m = comm.m
    r = comm.my_rank()
    for s in range(m):
        if s != r:
            comm.post(s, 0)  # my slice is staged and readable

    def fetch(s):
        if s >= m:
            return cont()
        if s == r:
            return fetch(s + 1)

        def got():
            data = comm.get_acc(acc, s, offset=s * n, nelems=n)
            comm.put_local(acc, data, offset=s * n)
            return fetch(s + 1)

        return comm.wait_step(s, 0, got)

    return fetch(0)


def ring_allgather(comm: "TeamComm", acc, n, cont):
    """Bandwidth-optimal ring: m-1 rounds, each pulling one slice from
    the left neighbor, with the same one-round-ahead throttle handshake
    as :func:`ring_reduce`."""
    m = comm.m
    r = comm.my_rank()
    left = (r - 1) % m
    right = (r + 1) % m

    def round_(t):
        if t >= m - 1:
            return cont()
        comm.post(left, 1)

        def go():
            comm.post(right, 0)

            def ready():
                s = (r - 1 - t) % m
                data = comm.get_acc(acc, left, offset=s * n, nelems=n)
                comm.put_local(acc, data, offset=s * n)
                return round_(t + 1)

            return comm.wait_step(left, 0, ready)

        return comm.wait_step(right, 1, go)

    return round_(0)
