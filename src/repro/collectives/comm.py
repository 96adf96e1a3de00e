"""Per-team communication state for the collective library.

A :class:`TeamComm` packages everything a collective algorithm needs
about one team: the member list and cached pe→rank map, the members'
grouping into topology nodes (for the hierarchical algorithm), a small
symmetric *flag* array driving pairwise post/wait synchronization, and
a growable symmetric *scratch* accumulator staging the payload.

Synchronization discipline
--------------------------

Flags are ``2 * m`` int64 words per PE: ``slot = bank * m +
sender_rank``.  Bank 0 carries "data ready" arrivals, bank 1 carries
acknowledgements / results.  A *post* is quiet + remote ``fadd +1``
(release: payload written before the post is visible to the waiter); a
*wait* blocks until the word is positive, then consumes it with a local
``fadd -1``.  Every algorithm keeps **strict post/consume alternation
per word** — at most one outstanding post per (target memory, slot) —
which is exactly the condition under which per-word timestamp merges
(``wait_until(..., word=True)``) are schedule-independent: the merged
clock depends only on the one post the waiter consumed, never on
unordered writes to other words landing wall-clock-early on a blocking
engine.  That is what keeps every algorithm's virtual times bit
identical across the threaded, cooperative, and event engines.

Allocation protocol
-------------------

Flags and scratch live on the symmetric heap and are allocated
*collectively* on first use — job-wide agreement + barrier for the
full team, group agreement + group barrier for subsets.  Scratch grows
by an agreed free+realloc *epoch*; each PE tracks the epoch it has
agreed through so every member burns the same agreement sequence even
when another member races ahead (agreement is first-arriver-computes
and never blocks).
"""

from __future__ import annotations

import itertools
import threading
import typing
import weakref

import numpy as np

from repro.comm.constants import CMP_GE
from repro.comm.heap import SymmetricArray
from repro.engine.steps import BarrierStep, WaitStep
from repro.runtime.context import current

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.comm.base import OneSidedLayer

#: Minimum scratch capacity (bytes) so tiny payloads do not re-allocate.
MIN_SCRATCH_BYTES = 64

_ids = itertools.count(1)

# Shared TeamComm instances, one registry per layer (the comm caches the
# pe->rank map and node grouping once for all members — satellite of
# ISSUE 8: no linear member scans on the per-call path).
_registry: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()
_registry_lock = threading.Lock()


class TeamComm:
    """Shared collective state for one (layer, ordered member tuple)."""

    def __init__(self, layer: "OneSidedLayer", members: tuple[int, ...]) -> None:
        job = layer.job
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate members in team {members}")
        for pe in members:
            if not 0 <= pe < job.num_pes:
                raise ValueError(f"team member {pe} escapes [0, {job.num_pes})")
        self.layer = layer
        self.members = tuple(int(p) for p in members)
        self.m = len(self.members)
        # Cached pe -> team rank map: O(1) lookups on every collective
        # call instead of a linear member scan.
        self.rank_of = {pe: r for r, pe in enumerate(self.members)}
        # Group members by topology node, node order = first appearance
        # in rank order.  The hierarchical algorithm reduces over
        # intra-node links first, then a tree over node leaders.
        topo = job.topology
        by_node: dict[int, list[int]] = {}
        for r, pe in enumerate(self.members):
            by_node.setdefault(topo.node_of(pe), []).append(r)
        self.node_ranks: tuple[tuple[int, ...], ...] = tuple(
            tuple(v) for v in by_node.values()
        )
        self.nnodes = len(self.node_ranks)
        self.max_per_node = max(len(g) for g in self.node_ranks)
        self.node_index = {}
        for ni, g in enumerate(self.node_ranks):
            for r in g:
                self.node_index[r] = ni
        self.full_team = self.m == job.num_pes
        self._tree_inter_bits: tuple[bool, ...] | None = None
        # The group registry keys by the member *set*; TeamComm rank
        # order is this comm's own business.
        self.group = None if self.full_team else job.groups.get(self.members)
        # Collectively agreed on first join (identical on every PE).
        self.comm_id: int | None = None
        self.flags: SymmetricArray | None = None
        # Scratch epochs: append-only [(byte_offset, capacity_bytes)].
        self._epochs: list[tuple[int, int]] = []
        # Per-PE index of the last epoch this PE has agreed through
        # (-1 = not joined).  Each slot is touched only by its owner.
        self._pe_epoch = [-1] * job.num_pes
        self._lock = threading.Lock()

    # -- lookups --------------------------------------------------------
    def my_rank(self) -> int:
        return self.rank_of[current().pe]

    @property
    def tree_inter_bits(self) -> tuple[bool, ...]:
        """Per tree-round link class: entry ``i`` is True when any pair
        the round actually exchanges — ranks ``(v, v + 2^i)`` with ``v``
        aligned to ``2^(i+1)``, the pairing both the binomial tree and
        recursive doubling induce — crosses nodes.  Node-aligned teams
        (whole power-of-two node groups contiguous in rank order) keep
        their low rounds intra-node; misaligned strided teams go
        inter-node at every rank distance.  The cost model prices each
        tree round with this."""
        bits = self._tree_inter_bits
        if bits is None:
            ni = self.node_index
            rounds = max((self.m - 1).bit_length(), 1)
            bits = tuple(
                any(
                    ni[v] != ni[v + (1 << i)]
                    for v in range(0, self.m - (1 << i), 1 << (i + 1))
                )
                for i in range(rounds)
            )
            self._tree_inter_bits = bits
        return bits

    def scratch_view(self, nelems: int, dtype) -> SymmetricArray:
        """Typed symmetric view over the calling PE's current scratch
        epoch (same offset on every member, so the view addresses every
        member's accumulator)."""
        offset, cap = self._epochs[self._pe_epoch[current().pe]]
        dt = np.dtype(dtype)
        if nelems * dt.itemsize > cap:  # pragma: no cover - join() sizes it
            raise ValueError("scratch epoch smaller than requested view")
        return SymmetricArray(self.layer, offset, (nelems,), dt)

    # -- collective state helpers --------------------------------------
    def _agree(self, ctx, fingerprint: str, compute):
        if self.full_team:
            return self.layer.job.collectives.agree(ctx, fingerprint, compute)
        g = self.group
        return g.collectives.agree(
            ctx, fingerprint, compute, seq=g.next_seq(ctx.pe)
        )

    def barrier(self):
        """A team barrier (job barrier for the full team, group barrier
        for subsets)."""
        if self.full_team:
            yield BarrierStep(self.layer)
        else:
            yield BarrierStep(self.layer, barrier=self.group.barrier, npes=self.m)

    # -- join / grow ----------------------------------------------------
    def _fingerprint(self) -> str:
        return f"collcomm:{self.members[0]}+{self.m}"

    def join(self, need_bytes: int):
        """Ensure the calling PE has joined this comm and scratch holds
        at least ``need_bytes``.  Collective on first join and on growth
        (all members call with equal ``need_bytes``)."""
        ctx = current()
        if self._pe_epoch[ctx.pe] < 0:
            layer = self.layer
            job = layer.job
            cap = max(int(need_bytes), MIN_SCRATCH_BYTES)
            layer.engine.alloc_check(ctx)

            def build():
                alloc = job.symmetric_allocator
                comm_id = next(_ids)
                flags_off = alloc.malloc(2 * self.m * 8)
                scratch_off = alloc.malloc(cap)
                return (comm_id, flags_off, scratch_off, cap)

            comm_id, flags_off, scratch_off, agreed_cap = self._agree(
                ctx, f"{self._fingerprint()}:join:{cap}", build
            )
            with self._lock:
                if self.comm_id is None:
                    self.comm_id = comm_id
                    self.flags = SymmetricArray(
                        layer, flags_off, (2 * self.m,), np.dtype(np.int64)
                    )
                    self._epochs.append((scratch_off, agreed_cap))
            # Allocation synchronizes: no member may post to another's
            # flags before that member has agreed on the offsets.
            yield from self.barrier()
            self._pe_epoch[ctx.pe] = 0
        self._grow(ctx, need_bytes)

    def _grow(self, ctx, need_bytes: int) -> None:
        """Advance this PE through grow epochs until its scratch
        capacity covers ``need_bytes``.  Pure function of (per-PE epoch,
        need), so every member burns identical agreement sequences even
        when members race: agreement is first-arriver-computes, the
        earlier epoch's region is dead (the previous collective's
        trailing barrier quiesced it), and the agreed (offset, capacity)
        reaches every member before it stages data."""
        pe = ctx.pe
        job = self.layer.job
        while True:
            epoch = self._pe_epoch[pe]
            old_off, old_cap = self._epochs[epoch]
            if old_cap >= need_bytes:
                return
            new_cap = max(int(need_bytes), 2 * old_cap)

            def build(old_off=old_off, new_cap=new_cap, epoch=epoch):
                alloc = job.symmetric_allocator
                alloc.free(old_off)
                new_off = alloc.malloc(new_cap)
                self._epochs.append((new_off, new_cap))
                return (new_off, new_cap)

            self._agree(
                ctx,
                f"{self._fingerprint()}:grow:{epoch + 1}:{new_cap}",
                build,
            )
            self._pe_epoch[pe] = epoch + 1

    # -- pairwise post/wait --------------------------------------------
    def _record(self, op: str, tag: str, target_pe: int, slot: int, t_start: float) -> None:
        tracer = self.layer.job.tracer
        if tracer is None or not tracer.capture_sync:
            return
        ctx = current()
        # Ticket -1: ordering is carried by the flag word's atomic
        # sequence chain (same convention as CAF events); the record is
        # for lock-step reporting only.
        tracer.record(
            ctx.pe, op, target_pe, 0, t_start, ctx.clock.now,
            meta=(tag, f"tc:{self.comm_id}:{target_pe}:{slot}", -1),
        )

    def post(self, target_rank: int, bank: int) -> None:
        """Signal ``target_rank``: quiet (release) + remote ``fadd +1``
        on the flag word keyed by *this* PE's rank."""
        ctx = current()
        t_start = ctx.clock.now
        slot = bank * self.m + self.rank_of[ctx.pe]
        pe = self.members[target_rank]
        layer = self.layer
        layer.quiet()
        layer.atomic(self.flags, pe, slot, "fadd", 1, uncontended=True)
        self._record("post", "po", pe, slot, t_start)

    def wait(self, sender_rank: int, bank: int):
        """Wait for ``sender_rank``'s post on ``bank``, then consume it.
        The per-word timestamp merge (``word=True``) is sound because
        every word sees strict post/consume alternation."""
        ctx = current()
        t_start = ctx.clock.now
        slot = bank * self.m + sender_rank
        yield WaitStep(self.layer, self.flags, CMP_GE, 1, offset=slot, word=True)
        self.layer.atomic(self.flags, ctx.pe, slot, "fadd", -1, uncontended=True)
        self._record("wait", "wa", ctx.pe, slot, t_start)

    # -- data plane -----------------------------------------------------
    def put_local(self, acc: SymmetricArray, values, offset: int = 0) -> None:
        """Plain local write into this PE's own accumulator (the
        ``scratch.local[...] = ...`` idiom).  Deliberately *not* a traced
        put: the cooperative engine defers traced deliveries until the
        next ``quiet``, and the accumulator must be readable by this PE's
        own next combine immediately.  Remote visibility is release-
        ordered by :meth:`post` (quiet before the flag fadd)."""
        data = np.asarray(values, dtype=acc.dtype).reshape(-1)
        np.asarray(acc.local)[offset:offset + data.size] = data

    def put_acc(self, acc: SymmetricArray, target_rank: int,
                offset: int = 0, nelems: int | None = None) -> None:
        """Put this PE's accumulator span into ``target_rank``'s."""
        n = acc.size - offset if nelems is None else nelems
        if n <= 0:
            return
        data = np.asarray(acc.local)[offset:offset + n]
        self.layer.put(
            acc, data, self.members[target_rank], offset=offset,
            uncontended=True,
        )

    def get_acc(self, acc: SymmetricArray, src_rank: int,
                offset: int = 0, nelems: int | None = None) -> np.ndarray:
        """Get ``src_rank``'s accumulator span."""
        n = acc.size - offset if nelems is None else nelems
        return self.layer.get(
            acc, n, self.members[src_rank], offset=offset, uncontended=True
        )

    def combine_from(self, acc: SymmetricArray, src_rank: int, combine) -> None:
        """``acc <- combine(acc, src_rank's acc)`` (this PE first: the
        lower tree position's accumulated operand stays on the left)."""
        data = self.get_acc(acc, src_rank)
        mine = np.asarray(acc.local)
        self.put_local(acc, combine(mine, data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TeamComm(m={self.m}, nodes={self.nnodes}, "
            f"id={self.comm_id})"
        )


def get_team_comm(layer: "OneSidedLayer", members) -> TeamComm:
    """The shared :class:`TeamComm` for an ordered member tuple
    (created lazily; metadata only — joining is collective)."""
    key = tuple(int(p) for p in members)
    with _registry_lock:
        comms = _registry.get(layer)
        if comms is None:
            comms = {}
            _registry[layer] = comms
        comm = comms.get(key)
        if comm is None:
            comm = TeamComm(layer, key)
            comms[key] = comm
        return comm


def team_comm(layer: "OneSidedLayer", members, need_bytes: int):
    """Look up the team's comm and join/grow it to cover ``need_bytes``
    (``yield from`` it); returns the comm."""
    comm = get_team_comm(layer, members)
    yield from comm.join(need_bytes)
    return comm
