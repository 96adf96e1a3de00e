"""LogGP-style communication cost engine.

This module prices every communication primitive the stack uses, in
virtual microseconds, given

* a :class:`~repro.sim.topology.Topology` (which machine, where each PE
  lives), and
* a :class:`ConduitProfile` — the *software* library doing the
  communication (Cray SHMEM, MVAPICH2-X SHMEM, GASNet, MPI-3.0, or
  Cray's DMAPP-based CAF runtime).

The separation matters because the paper's findings are exactly about
software profiles on shared hardware: on the same Aries fabric, Cray
SHMEM's ``shmem_iput`` is DMAPP-offloaded while a GASNet-based runtime
loops over contiguous puts; on the same InfiniBand fabric, MVAPICH2-X
SHMEM's ``shmem_iput`` is itself a loop of ``putmem`` calls (paper
Section V-B2), and MPI-3.0 passive-target RMA pays a higher
per-message software overhead (Figs 2-3).

Model summary (all times us, sizes bytes):

* **put** (inter-node): charge the conduit's software overhead, then
  reserve the source NIC injection engine and the destination NIC
  reception engine for ``nbytes / effective_bandwidth``; the wire adds
  one-way latency.  Local completion is immediate for eager-sized
  messages (the library buffers them) and at injection end for
  rendezvous-sized ones.  Remote completion is at reception end —
  visible to the initiator only through ``quiet``/``fence``.
* **get**: a request control message travels to the target, whose NIC
  streams the data back; blocking, completes at data arrival.
* **amo**: an 8-byte atomic.  NIC-offloaded conduits serialize on the
  target NIC's atomic unit; AM-emulated conduits (GASNet) serialize on
  the target *CPU* and additionally pay an attentiveness delay — the
  target thread must reach a poll point.  This asymmetry is what makes
  SHMEM-backed CAF locks faster (paper Figs 8-9).
* **iput/iget** (native): one descriptor covers ``nelems`` strided
  elements; the NIC pays a per-element gap on top of the byte time.
* **barrier**: dissemination barrier, ``ceil(log2(n))`` rounds.

Contention falls out of the reservation timelines: 16 pairs driving one
node's NIC share its injection bandwidth, reproducing the 1-pair vs
16-pair separation in the paper's Figures 2, 3, 6 and 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.resources import Timeline, chain_last
from repro.sim.topology import Topology


@dataclass(frozen=True, slots=True)
class TransferTiming:
    """When a one-sided transfer completes, from both ends."""

    local_complete: float  # initiator may reuse its source buffer
    remote_complete: float  # data is visible at the target


@dataclass(frozen=True, slots=True)
class ConduitProfile:
    """Software cost profile of one communication library."""

    name: str
    o_put_us: float  # per-call software overhead, put path
    o_get_us: float  # per-call software overhead, get path
    o_amo_us: float  # per-call software overhead, atomics
    o_barrier_us: float  # per-round software overhead in barriers
    amo_offload: bool  # True: NIC atomic unit; False: AM via target CPU
    iput_native: bool  # True: 1-D strided ops are NIC/DMAPP-offloaded
    iput_elem_gap_us: float  # per-element NIC gap for native strided ops
    eager_threshold: int  # bytes; messages <= this complete locally at once
    rendezvous_extra_us: float  # handshake cost for messages > eager
    bw_efficiency: float  # fraction of link bandwidth the library achieves

    def __post_init__(self) -> None:
        if not 0 < self.bw_efficiency <= 1:
            raise ValueError("bw_efficiency must be in (0, 1]")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be non-negative")


# ---------------------------------------------------------------------------
# Conduit registry.  Overheads calibrated so the paper's orderings hold:
# SHMEM < GASNet < MPI-3.0 on small-message latency; SHMEM above GASNet on
# large-message bandwidth; MVAPICH2-X iput loops over putmem; Cray iput is
# DMAPP-offloaded; GASNet atomics are AM round-trips.
# ---------------------------------------------------------------------------

CRAY_SHMEM = ConduitProfile(
    name="Cray SHMEM",
    o_put_us=0.20,
    o_get_us=0.25,
    o_amo_us=0.20,
    o_barrier_us=0.25,
    amo_offload=True,
    iput_native=True,
    iput_elem_gap_us=0.018,
    eager_threshold=4096,
    rendezvous_extra_us=0.8,
    bw_efficiency=0.97,
)

MVAPICH2X_SHMEM = ConduitProfile(
    name="MVAPICH2-X SHMEM",
    o_put_us=0.25,
    o_get_us=0.30,
    o_amo_us=0.25,
    o_barrier_us=0.30,
    amo_offload=True,
    iput_native=False,  # shmem_iput loops over putmem (paper Sec. V-B2)
    iput_elem_gap_us=0.0,
    eager_threshold=8192,
    rendezvous_extra_us=0.9,
    bw_efficiency=0.95,
)

GASNET = ConduitProfile(
    name="GASNet",
    o_put_us=0.32,
    o_get_us=0.40,
    o_amo_us=0.35,
    o_barrier_us=0.35,
    amo_offload=False,  # remote atomics via active messages
    iput_native=False,
    iput_elem_gap_us=0.0,
    eager_threshold=4096,
    rendezvous_extra_us=1.2,
    bw_efficiency=0.88,
)

MPI3 = ConduitProfile(
    name="MPI-3.0",
    o_put_us=0.90,
    o_get_us=1.00,
    o_amo_us=0.90,
    o_barrier_us=0.45,
    amo_offload=True,
    iput_native=False,
    iput_elem_gap_us=0.0,
    eager_threshold=8192,
    rendezvous_extra_us=1.5,
    bw_efficiency=0.92,
)

CRAY_MPICH = ConduitProfile(
    name="Cray MPICH",
    o_put_us=0.95,
    o_get_us=1.05,
    o_amo_us=0.95,
    o_barrier_us=0.45,
    amo_offload=True,
    iput_native=False,
    iput_elem_gap_us=0.0,
    eager_threshold=8192,
    rendezvous_extra_us=1.4,
    bw_efficiency=0.90,
)

# Cray's own CAF runtime over DMAPP (the Fig 6/8/9 compiler baseline).
# Slightly higher per-call overhead than raw Cray SHMEM (compiler runtime
# bookkeeping), less aggressive strided offload (coarser per-element gap),
# and its lock implementation lives in repro.caf.backends.craycaf.
DMAPP_CAF = ConduitProfile(
    name="Cray CAF (DMAPP)",
    o_put_us=0.31,
    o_get_us=0.35,
    o_amo_us=0.60,
    o_barrier_us=0.28,
    amo_offload=True,
    iput_native=True,
    iput_elem_gap_us=0.060,
    eager_threshold=4096,
    rendezvous_extra_us=1.0,
    bw_efficiency=0.90,
)

CONDUITS: dict[str, ConduitProfile] = {
    "cray-shmem": CRAY_SHMEM,
    "mvapich2x-shmem": MVAPICH2X_SHMEM,
    "gasnet": GASNET,
    "mpi3": MPI3,
    "cray-mpich": CRAY_MPICH,
    "dmapp-caf": DMAPP_CAF,
}


def get_conduit(name: str) -> ConduitProfile:
    """Look up a conduit profile by case-insensitive short name."""
    key = name.lower().replace("_", "-").replace(" ", "-")
    try:
        return CONDUITS[key]
    except KeyError:
        raise KeyError(
            f"unknown conduit {name!r}; available: {sorted(CONDUITS)}"
        ) from None


# ---------------------------------------------------------------------------


class NetworkModel:
    """Prices communication operations on one topology.

    One instance is shared by every PE of a job; all methods are
    thread-safe (the only shared mutable state is in the timelines).
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        m = topology.machine
        n = topology.num_nodes
        self._tx = [Timeline(f"node{i}.tx") for i in range(n)]
        self._rx = [Timeline(f"node{i}.rx") for i in range(n)]
        self._amo = [Timeline(f"node{i}.amo") for i in range(n)]
        self._cpu = [Timeline(f"node{i}.amcpu") for i in range(n)]
        self._machine = m
        # Memoized pricing closures (see "the pricers" below).
        # Plain dict; get/set are GIL-atomic and a lost race merely
        # builds an equivalent closure twice.
        self._pricers: dict[tuple, object] = {}

    # -- helpers ------------------------------------------------------
    def _wire_time(self, nbytes: int, conduit: ConduitProfile) -> float:
        return nbytes / (self._machine.link_bandwidth_Bpus * conduit.bw_efficiency)

    def reset(self) -> None:
        for group in (self._tx, self._rx, self._amo, self._cpu):
            for t in group:
                t.reset()

    def timelines(self) -> dict[str, list[Timeline]]:
        """Expose the resource timelines (for tests and utilization stats)."""
        return {"tx": self._tx, "rx": self._rx, "amo": self._amo, "cpu": self._cpu}

    # -- one-sided data movement: the pricers --------------------------
    #
    # Every price is a deterministic closed form of (operation, src/dst
    # *node* pair, sizes/counts/strides, conduit) plus the initiator
    # clock ``now`` and the mutable timeline state.  The model therefore
    # hands out *pricers*: memoized closures with the now-independent
    # pieces resolved once (wire times, gather gaps, overhead sums,
    # tiled delta templates, branch selection) that do only the
    # remaining float additions per call.  Priced times are NOT cached
    # (they depend on ``now`` and on timeline state, and float addition
    # is not associative).  The pricers are the model; the direct
    # methods further down (``put``, ``put_batch``, ...) are views of
    # them, not a second copy of the arithmetic.
    #
    # A scalar (``count == 1``) pricer serves one *route class*:
    # (operation, on-node or off-node, sizes, conduit).  Which node pair
    # it runs on only selects the timelines it reserves, so the nodes
    # are call arguments, ``price(now, src_node, dst_node)``, and a job
    # holds a few scalar pricers however many PEs it has.  (Memoized
    # per node pair, a 1024-PE job hashing its updates over 64 nodes
    # built a fresh closure on almost every first-touched pair.)  The
    # per-PE factories ``put_pricer``/``get_pricer``/``iput_pricer``/
    # ``iget_pricer``/``amo_pricer`` bind a pair to the route pricer and
    # return ``price(now)``.  Batch pricers (``count >= 2``) keep one
    # closure per node pair: their chains hold the pair's timelines.
    #
    # Transfers are built by two makers each.  :meth:`_make_send1` and
    # :meth:`_make_send` price put and native iput (scalar, batch),
    # :meth:`_make_fetch1` and :meth:`_make_fetch` get and native iget.
    # The contiguous-vs-strided distinction is one per-call shape
    # resolved in :meth:`_transfer_shape`: a native iput is a put with
    # overhead ``o_put_us`` (no rendezvous handshake), duration ``wire +
    # gap`` (``gap`` = ``nelems`` x the per-element gather gap), never
    # eager, and ``+ gap`` on-node; a native iget is a get with duration
    # ``wire + gap``.

    @staticmethod
    def _gather_gap(
        conduit: ConduitProfile, elem_size: int, stride_bytes: int | None
    ) -> float:
        """Per-element gap of a strided descriptor.

        Elements farther apart than a cache line cost the gather/scatter
        engine progressively more (DMA descriptors walk memory with poor
        locality) — the physical basis of the paper's Section IV-C
        tradeoff between minimizing calls and preserving locality.
        """
        gap = conduit.iput_elem_gap_us
        if stride_bytes is None:
            stride_bytes = elem_size
        if stride_bytes > 64:
            gap *= min(5.0, 1.0 + 0.35 * math.log2(stride_bytes / 64))
        return gap

    def _pricer(self, key: tuple, make):
        p = self._pricers.get(key)
        if p is None:
            if len(self._pricers) > 16384:  # unbounded-growth backstop
                self._pricers.clear()
            p = make()
            self._pricers[key] = p
        return p

    @staticmethod
    def _bind(price, src_node: int, dst_node: int):
        """A route-class pricer as ``price(now)`` on one node pair."""
        return lambda now: price(now, src_node, dst_node)

    def route_pricer(
        self,
        op: str,
        local: bool,
        conduit: ConduitProfile,
        *,
        nbytes: int = 0,
        nelems: int = 0,
        elem_size: int = 0,
        stride_bytes: int | None = None,
    ):
        """Scalar pricer of one route class: ``op`` (``put``/``get``/
        ``iput``/``iget``) on-node (``local``) or off-node, with the
        sizes of :meth:`batch_pricer`.  Memoized ``price(now, src_node,
        dst_node)`` returning what :meth:`put_pricer` and friends'
        ``price(now)`` return on that node pair."""

        def make():
            fetch, size, duration, overhead, eager, gap = self._transfer_shape(
                op, conduit, nbytes, nelems, elem_size, stride_bytes
            )
            if fetch:
                return self._make_fetch1(local, size, conduit, duration)
            return self._make_send1(local, size, conduit, overhead, duration, eager, gap)

        return self._pricer(
            (op, local, nbytes, nelems, elem_size, stride_bytes, conduit), make
        )

    def amo_route_pricer(self, local: bool, conduit: ConduitProfile):
        """Scalar atomic pricer of one route class (on-node or
        off-node): memoized ``(price, proc, back)`` with
        ``price(now, src_node, dst_node)``; see :meth:`amo_pricer`."""

        def make():
            m = self._machine
            if local:
                half, amo, dur = 0.5 * conduit.o_amo_us, self._amo, m.amo_process_us

                def price(now: float, src_node: int, dst_node: int) -> float:
                    _, end = amo[dst_node].reserve(now + half, dur)
                    return end

                return price, m.amo_process_us, m.intra_latency_us
            o, L = conduit.o_amo_us, m.link_latency_us
            if conduit.amo_offload:
                amo, dur = self._amo, m.amo_process_us

                def price(now: float, src_node: int, dst_node: int) -> float:
                    _, end = amo[dst_node].reserve(now + o + L, dur)
                    return end + L

                return price, m.amo_process_us, L
            att = m.am_attentiveness_us
            cpu, dur = self._cpu, m.cpu_am_process_us

            def price(now: float, src_node: int, dst_node: int) -> float:
                _, end = cpu[dst_node].reserve(now + o + L + att, dur)
                return end + L

            return price, m.am_attentiveness_us + m.cpu_am_process_us, L

        return self._pricer(("amo", local, conduit), make)

    def put_pricer(self, src: int, dst: int, nbytes: int, conduit: ConduitProfile):
        """Pricer for a contiguous put of ``nbytes`` from PE ``src`` to
        ``dst``: ``price(now) -> TransferTiming``."""
        return self._transfer_pricer("put", src, dst, 1, conduit, nbytes)

    def get_pricer(self, src: int, dst: int, nbytes: int, conduit: ConduitProfile):
        """Pricer for a blocking get (``src`` reads ``nbytes`` from
        ``dst``): ``price(now) -> done``, the time the data is available
        at the initiator."""
        return self._transfer_pricer("get", src, dst, 1, conduit, nbytes)

    def iput_pricer(
        self,
        src: int,
        dst: int,
        nelems: int,
        elem_size: int,
        conduit: ConduitProfile,
        stride_bytes: int | None = None,
    ):
        """Pricer for a *native* 1-D strided put (``shmem_iput``) of
        ``nelems`` elements of ``elem_size`` bytes each, ``stride_bytes``
        apart: ``price(now) -> TransferTiming``.

        Only meaningful when ``conduit.iput_native``; non-native conduits
        must instead loop over puts — that decision is made by the SHMEM
        layer, mirroring how MVAPICH2-X implements ``shmem_iput`` as a
        series of contiguous puts.
        """
        return self._transfer_pricer(
            "iput", src, dst, 1, conduit, 0, nelems, elem_size, stride_bytes
        )

    def iget_pricer(
        self,
        src: int,
        dst: int,
        nelems: int,
        elem_size: int,
        conduit: ConduitProfile,
        stride_bytes: int | None = None,
    ):
        """Pricer for a *native* blocking 1-D strided get
        (``shmem_iget``): ``price(now) -> done``.

        Like :meth:`get_pricer` but the target NIC pays a per-element
        gather gap.  Only valid for ``conduit.iput_native`` conduits.
        """
        return self._transfer_pricer(
            "iget", src, dst, 1, conduit, 0, nelems, elem_size, stride_bytes
        )

    def amo_pricer(self, src: int, dst: int, conduit: ConduitProfile):
        """Pricer for an 8-byte remote atomic (swap/cswap/fadd/...):
        ``(price, proc, back)`` where ``price(now)`` is the completion
        time of the fetching round trip.

        NIC-offloaded conduits serialize on the target NIC's atomic
        unit; AM-emulated ones go through the target CPU and pay its
        attentiveness delay.  ``proc``/``back`` are the target-side
        processing and return-leg constants the caller's
        handoff-causality adjustment needs.
        """
        src_node = self.topology.node_of(src)
        dst_node = self.topology.node_of(dst)
        price, proc, back = self.amo_route_pricer(src_node == dst_node, conduit)
        return self._bind(price, src_node, dst_node), proc, back

    def batch_pricer(
        self,
        op: str,
        src: int,
        dst: int,
        *,
        count: int,
        conduit: ConduitProfile,
        nbytes: int = 0,
        nelems: int = 0,
        elem_size: int = 0,
        stride_bytes: int | None = None,
    ):
        """Pricer for ``count`` identical back-to-back calls of ``op``
        (``put``/``get``/``iput``/``iget``): ``price(now)`` returning
        the *final* call's timing, with the return type of the scalar
        pricer and the timeline side effects of ``count`` sequential
        calls (see "batch pricers" below).
        """
        if count <= 0:
            raise ValueError("count must be positive")
        return self._transfer_pricer(
            op, src, dst, count, conduit, nbytes, nelems, elem_size, stride_bytes
        )

    def _transfer_shape(self, op, conduit, nbytes, nelems, elem_size, stride_bytes):
        """Validate one call of ``op`` and resolve its shape: ``(fetch,
        size, duration, overhead, eager, gap)``."""
        strided = op in ("iput", "iget")
        if strided:
            if not conduit.iput_native:
                raise ValueError(
                    f"{conduit.name} has no native {op}; "
                    f"caller must loop over {op[1:]}()"
                )
            if nelems < 0 or elem_size <= 0:
                raise ValueError("nelems must be >= 0 and elem_size > 0")
            size = nelems * elem_size
            gap = nelems * self._gather_gap(conduit, elem_size, stride_bytes)
            duration = self._wire_time(size, conduit) + gap
        elif op in ("put", "get"):
            if nbytes < 0:
                raise ValueError("nbytes must be non-negative")
            size, gap = nbytes, 0.0
            duration = self._wire_time(size, conduit)
        else:
            raise ValueError(f"unknown batch op {op!r}")
        # Strided source data cannot be eagerly buffered as one block
        # (the source buffer is free once the descriptor's gather ends),
        # and one native descriptor needs no rendezvous.
        eager = not strided and size <= conduit.eager_threshold
        overhead = conduit.o_put_us
        if not strided and not eager:
            overhead += conduit.rendezvous_extra_us
        return op in ("get", "iget"), size, duration, overhead, eager, gap

    def _transfer_pricer(
        self, op, src, dst, count, conduit, nbytes=0, nelems=0, elem_size=0,
        stride_bytes=None,
    ):
        """The per-PE-pair view behind every transfer factory: a scalar
        call binds the pair to its route pricer, a batch is memoized per
        node pair and built through the batch send or fetch maker."""
        src_node = self.topology.node_of(src)
        dst_node = self.topology.node_of(dst)
        if count == 1:
            return self._bind(
                self.route_pricer(
                    op, src_node == dst_node, conduit, nbytes=nbytes,
                    nelems=nelems, elem_size=elem_size, stride_bytes=stride_bytes,
                ),
                src_node, dst_node,
            )

        def make():
            fetch, size, duration, overhead, eager, gap = self._transfer_shape(
                op, conduit, nbytes, nelems, elem_size, stride_bytes
            )
            if fetch:
                return self._make_fetch(src_node, dst_node, size, count, conduit, duration)
            return self._make_send(
                src_node, dst_node, size, count, conduit, overhead, duration, eager, gap
            )

        return self._pricer(
            (op, src_node, dst_node, nbytes, nelems, elem_size, stride_bytes, count, conduit),
            make,
        )

    # -- scalar makers -------------------------------------------------

    def _make_send1(self, local, nbytes, conduit, overhead, duration, eager, gap):
        """Price one put or native iput on a route class.

        Off-node, the call is ``ready = now + overhead``, a ``duration``
        on the source node's injection engine, then on the destination
        node's reception engine ``L`` later; it completes locally at
        ``ready`` when ``eager``, else at injection end.  On-node it is
        one closed sum whose last term is the gather ``gap`` (0.0 for a
        put).
        """
        m = self._machine
        if local:
            half, lat = 0.5 * conduit.o_put_us, m.intra_latency_us
            byte_t = nbytes / m.intra_bandwidth_Bpus

            # A put's gap is 0.0, and x + 0.0 == x for every clock (only
            # -0.0 would change, and no clock is -0.0), so the shared
            # four-term sum is bit-exact for put and iput.
            def price(now: float, src_node: int, dst_node: int) -> TransferTiming:
                done = now + half + lat + byte_t + gap
                return TransferTiming(local_complete=done, remote_complete=done)

            return price
        tx, rx, L = self._tx, self._rx, m.link_latency_us

        def price(now: float, src_node: int, dst_node: int) -> TransferTiming:
            ready = now + overhead
            tx_start, tx_end = tx[src_node].reserve(ready, duration)
            _, rx_end = rx[dst_node].reserve(tx_start + L, duration)
            return TransferTiming(
                local_complete=ready if eager else tx_end, remote_complete=rx_end
            )

        return price

    def _make_fetch1(self, local, nbytes, conduit, duration):
        """Price one blocking get or native iget on a route class.

        Off-node, a request travels ``o_get + L`` to the target, whose
        injection engine streams ``duration`` back to the initiator's
        reception engine ``L`` later.  On-node a native iget pays no
        gather gap, so both ops are the same closed sum.
        """
        m = self._machine
        if local:
            half, lat = 0.5 * conduit.o_get_us, m.intra_latency_us
            byte_t = nbytes / m.intra_bandwidth_Bpus
            return lambda now, src_node, dst_node: now + half + lat + byte_t
        o_get, L = conduit.o_get_us, m.link_latency_us
        tx, rx = self._tx, self._rx

        def price(now: float, src_node: int, dst_node: int) -> float:
            tx_start, _ = tx[dst_node].reserve(now + o_get + L, duration)
            _, rx_end = rx[src_node].reserve(tx_start + L, duration)
            return rx_end

        return price

    # -- batch pricers -------------------------------------------------
    #
    # A batch pricer (``count >= 2``) prices ``count`` identical
    # back-to-back calls issued by one initiator whose clock merges each
    # call's local completion before the next call (exactly what
    # OneSidedLayer does), returning the timing of the *final* call.
    # Within such a chain the intermediate local/remote times increase
    # monotonically, so callers that only need the final clock value,
    # the final pending-remote time, and a single max-stamped memory
    # update lose nothing.  All arithmetic replays the scalar closure's
    # additions in the same order: ``np.cumsum`` accumulates strictly
    # left to right, so a cumsum over the tiled per-call deltas is
    # bit-for-bit the value chain a scalar loop would produce.  Chains
    # read only at their end (intra-node chains, the get/iget chains
    # after the first call, put/iput chains that do not queue after
    # their first call) use :func:`~repro.sim.resources.chain_last`,
    # the same value without the per-call array; put/iput chains that
    # may queue feed ``reserve_batch`` every element from cumsum.  The
    # timelines' batch primitives (``reserve_batch``/``push_batch``) do
    # the same for the counters — every returned time and every timeline
    # counter is bit-identical to ``count`` sequential calls.  The whole
    # chain is priced atomically; under multi-initiator contention a
    # scalar loop could interleave with other PEs' reservations, but
    # that interleaving is scheduler-dependent (nondeterministic) either
    # way.

    def _make_send(
        self, src_node, dst_node, nbytes, count, conduit, overhead, duration, eager, gap
    ):
        """Price ``count >= 2`` back-to-back puts or native iputs; one
        call is what :meth:`_make_send1` prices."""
        m = self._machine
        if src_node == dst_node:
            period = (0.5 * conduit.o_put_us, m.intra_latency_us,
                      nbytes / m.intra_bandwidth_Bpus, gap)

            def price(now: float) -> TransferTiming:
                done = chain_last(now, period, count)
                return TransferTiming(local_complete=done, remote_complete=done)

            return price
        tx, rx, L = self._tx[src_node], self._rx[dst_node], m.link_latency_us
        # Call k is ready at ready_k = ready_{k-1} + o when eager, else at
        # tx_end_{k-1} + o.  Either way only the first call can queue on
        # the injection engine (for eager calls if o >= d: rounding is
        # monotone, so fl(r + o) >= fl(r + d), the free time the previous
        # call left).  If the first tx call does not queue, every tx start
        # is its ready time, and the rx earliests fl(tx_start_k + L) each
        # lie at least margin - 2.5 ulp(top) past the previous
        # reception's end, so past 4 ulp(top) no rx call after the first
        # queues either (docs/MODEL.md §4).  Both chains are then read
        # only at their end, through chain_last; otherwise every start
        # comes from cumsum.
        period = (overhead,) if eager else (duration, overhead)
        margin = overhead - duration if eager else overhead

        def chain(first):
            seq = np.empty(1 + len(period) * (count - 1), dtype=np.float64)
            seq[0] = first
            seq[1:] = np.tile(np.asarray(period, dtype=np.float64), count - 1)
            return np.cumsum(seq)[:: len(period)]

        def price(now: float) -> TransferTiming:
            first = now + overhead
            last = chain_last(first, period, count - 1)
            tx_end, top = last + duration, last + L + duration
            starts = tx.reserve_chain(
                first, duration, count, tx_end if margin >= 0.0 else None,
                lambda s1: chain(first if eager else s1),
            )
            if starts is None:
                fits = margin > 4.0 * math.ulp(top)
                starts = rx.reserve_chain(
                    first + L, duration, count, top if fits else None,
                    lambda _: chain(first) + L,
                )
            else:
                tx_end = float(starts[-1] + duration)
                starts = rx.reserve_batch(starts + L, duration)
            return TransferTiming(
                local_complete=last if eager else tx_end,
                remote_complete=top if starts is None else float(starts[-1] + duration),
            )

        return price

    def _make_fetch(self, src_node, dst_node, nbytes, count, conduit, duration):
        """Price ``count >= 2`` back-to-back blocking gets or native
        igets; one call is what :meth:`_make_fetch1` prices."""
        m = self._machine
        if src_node == dst_node:
            period = (0.5 * conduit.o_get_us, m.intra_latency_us,
                      nbytes / m.intra_bandwidth_Bpus)
            return lambda now: chain_last(now, period, count)
        return self._make_fetch_chain(
            self._tx[dst_node], self._rx[src_node], conduit.o_get_us,
            m.link_latency_us, duration, count,
        )

    @staticmethod
    def _make_fetch_chain(tx, rx, o_get, L, duration, count):
        """Price ``count >= 2`` back-to-back inter-node gets/igets.

        The first call can queue on both timelines and is reserved for
        real.  After it: done_{k-1} -> +o_get -> +L -> tx_start_k -> +L
        -> rx_start_k -> +duration -> done_k, each earliest provably >=
        the timeline's next_free left by the previous call (no
        re-queueing).  Only the last call's tx start and done are read,
        so the chain up to the last call is one :func:`chain_last`.
        """
        period = (o_get, L, L, duration)

        def price(now: float) -> float:
            s1, _ = tx.reserve(now + o_get + L, duration)
            _, done1 = rx.reserve(s1 + L, duration)
            tx_last = chain_last(done1, period, count - 2) + o_get + L
            done = tx_last + L + duration
            tx.push_batch(tx_last + duration, count - 1, duration)
            rx.push_batch(done, count - 1, duration)
            return done

        return price

    # -- direct views of the pricers -----------------------------------
    #
    # One price, right now: build (or fetch) the pricer and call it.
    # For callers off the hot path (MPI accumulate, tests, tools); the
    # communication layers hold on to the pricers instead.

    def put(
        self, src: int, dst: int, nbytes: int, conduit: ConduitProfile, now: float
    ) -> TransferTiming:
        """Price a contiguous put of ``nbytes`` from PE ``src`` to ``dst``."""
        return self.put_pricer(src, dst, nbytes, conduit)(now)

    def get(
        self, src: int, dst: int, nbytes: int, conduit: ConduitProfile, now: float
    ) -> float:
        """Price a blocking get (``src`` reads ``nbytes`` from ``dst``);
        returns the completion time."""
        return self.get_pricer(src, dst, nbytes, conduit)(now)

    def iput(
        self,
        src: int,
        dst: int,
        nelems: int,
        elem_size: int,
        conduit: ConduitProfile,
        now: float,
        stride_bytes: int | None = None,
    ) -> TransferTiming:
        """Price one native 1-D strided put (see :meth:`iput_pricer`)."""
        return self.iput_pricer(src, dst, nelems, elem_size, conduit, stride_bytes)(now)

    def iget(
        self,
        src: int,
        dst: int,
        nelems: int,
        elem_size: int,
        conduit: ConduitProfile,
        now: float,
        stride_bytes: int | None = None,
    ) -> float:
        """Price one native blocking 1-D strided get (see :meth:`iget_pricer`)."""
        return self.iget_pricer(src, dst, nelems, elem_size, conduit, stride_bytes)(now)

    def amo(self, src: int, dst: int, conduit: ConduitProfile, now: float) -> float:
        """Price an 8-byte remote atomic; returns the completion time of
        the fetching round trip."""
        return self.amo_pricer(src, dst, conduit)[0](now)

    def put_batch(
        self,
        src: int,
        dst: int,
        nbytes: int,
        count: int,
        conduit: ConduitProfile,
        now: float,
    ) -> TransferTiming:
        """Price ``count`` identical contiguous puts; final call's timing."""
        return self.batch_pricer(
            "put", src, dst, count=count, conduit=conduit, nbytes=nbytes
        )(now)

    def get_batch(
        self,
        src: int,
        dst: int,
        nbytes: int,
        count: int,
        conduit: ConduitProfile,
        now: float,
    ) -> float:
        """Price ``count`` identical blocking gets; final completion time."""
        return self.batch_pricer(
            "get", src, dst, count=count, conduit=conduit, nbytes=nbytes
        )(now)

    def iput_batch(
        self,
        src: int,
        dst: int,
        nelems: int,
        elem_size: int,
        count: int,
        conduit: ConduitProfile,
        now: float,
        stride_bytes: int | None = None,
    ) -> TransferTiming:
        """Price ``count`` identical native strided puts; final timing."""
        return self.batch_pricer(
            "iput", src, dst, count=count, conduit=conduit,
            nelems=nelems, elem_size=elem_size, stride_bytes=stride_bytes,
        )(now)

    def iget_batch(
        self,
        src: int,
        dst: int,
        nelems: int,
        elem_size: int,
        count: int,
        conduit: ConduitProfile,
        now: float,
        stride_bytes: int | None = None,
    ) -> float:
        """Price ``count`` identical native strided gets; final completion."""
        return self.batch_pricer(
            "iget", src, dst, count=count, conduit=conduit,
            nelems=nelems, elem_size=elem_size, stride_bytes=stride_bytes,
        )(now)

    # -- uncontended (closed-form) pricing -----------------------------
    #
    # The collective library prices its traffic with these pure variants:
    # same formulas as put/get/amo but with every shared lane assumed
    # idle, so no Timeline is reserved.  Two reasons.  First, collective
    # algorithms schedule their own traffic — the staggered rounds of a
    # tree or ring are exactly what keeps lanes conflict-free, and that
    # is the structure the closed-form cost model already accounts for.
    # Second, Timeline.reserve depends on *call order*, which differs
    # between the threaded engine (wall clock) and the event engine
    # (deterministic heap order); pricing a synchronized algorithm
    # through contended lanes would make its virtual times schedule-
    # dependent.  With the pure forms, completion times are a function
    # of the algorithm's happens-before order alone, so results *and*
    # virtual times are bit-identical across engines and across explorer
    # schedules.

    def put_uncontended(
        self, src: int, dst: int, nbytes: int, conduit: ConduitProfile, now: float
    ) -> TransferTiming:
        """:meth:`put` with idle lanes: pure arithmetic, no reservations."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        m = self._machine
        if self.topology.node_of(src) == self.topology.node_of(dst):
            ready = now + 0.5 * conduit.o_put_us
            done = ready + m.intra_latency_us + nbytes / m.intra_bandwidth_Bpus
            return TransferTiming(local_complete=done, remote_complete=done)
        overhead = conduit.o_put_us
        if nbytes > conduit.eager_threshold:
            overhead += conduit.rendezvous_extra_us
        ready = now + overhead
        wire = self._wire_time(nbytes, conduit)
        local = ready if nbytes <= conduit.eager_threshold else ready + wire
        return TransferTiming(
            local_complete=local,
            remote_complete=ready + m.link_latency_us + wire,
        )

    def get_uncontended(
        self, src: int, dst: int, nbytes: int, conduit: ConduitProfile, now: float
    ) -> float:
        """:meth:`get` with idle lanes: pure arithmetic, no reservations."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        m = self._machine
        if self.topology.node_of(src) == self.topology.node_of(dst):
            return (
                now + 0.5 * conduit.o_get_us + m.intra_latency_us
                + nbytes / m.intra_bandwidth_Bpus
            )
        return (
            now + conduit.o_get_us + 2.0 * m.link_latency_us
            + self._wire_time(nbytes, conduit)
        )

    def amo_uncontended(
        self, src: int, dst: int, conduit: ConduitProfile, now: float
    ) -> float:
        """:meth:`amo` with an idle atomic unit: pure arithmetic."""
        m = self._machine
        if self.topology.node_of(src) == self.topology.node_of(dst):
            return now + 0.5 * conduit.o_amo_us + m.amo_process_us
        if conduit.amo_offload:
            return (
                now + conduit.o_amo_us + m.link_latency_us
                + m.amo_process_us + m.link_latency_us
            )
        return (
            now + conduit.o_amo_us + m.link_latency_us
            + m.am_attentiveness_us + m.cpu_am_process_us + m.link_latency_us
        )

    # -- active messages ----------------------------------------------
    def am_request(
        self, src: int, dst: int, payload: int, conduit: ConduitProfile, now: float
    ) -> TransferTiming:
        """Price a one-way active message with ``payload`` bytes.

        ``local_complete`` is when the initiator may continue;
        ``remote_complete`` is when the target handler has run.
        """
        if payload < 0:
            raise ValueError("payload must be non-negative")
        m = self._machine
        src_node = self.topology.node_of(src)
        dst_node = self.topology.node_of(dst)
        if src_node == dst_node:
            local = now + 0.5 * conduit.o_put_us
            _, end = self._cpu[dst_node].reserve(
                local + m.intra_latency_us, m.cpu_am_process_us
            )
            return TransferTiming(local_complete=local, remote_complete=end)
        ready = now + conduit.o_put_us
        wire = self._wire_time(payload, conduit)
        tx_start, tx_end = self._tx[src_node].reserve(ready, wire)
        arrival = tx_start + m.link_latency_us + wire + m.am_attentiveness_us
        _, end = self._cpu[dst_node].reserve(arrival, m.cpu_am_process_us)
        local = ready if payload <= conduit.eager_threshold else tx_end
        return TransferTiming(local_complete=local, remote_complete=end)

    def am_roundtrip(
        self, src: int, dst: int, payload: int, conduit: ConduitProfile, now: float
    ) -> float:
        """Price a request/reply active-message pair; returns reply time."""
        t = self.am_request(src, dst, payload, conduit, now)
        m = self._machine
        if self.topology.same_node(src, dst):
            return t.remote_complete + m.intra_latency_us
        return t.remote_complete + m.link_latency_us

    # -- collectives ----------------------------------------------------
    def barrier_cost(self, npes: int, conduit: ConduitProfile) -> float:
        """Cost added on top of the max arrival time of a barrier over
        ``npes`` PEs (dissemination barrier: ceil(log2 n) rounds)."""
        if npes <= 0:
            raise ValueError("npes must be positive")
        if npes == 1:
            return conduit.o_barrier_us
        rounds = math.ceil(math.log2(npes))
        return rounds * (conduit.o_barrier_us + self._machine.link_latency_us)

    def reduction_cost(
        self, npes: int, nbytes: int, conduit: ConduitProfile
    ) -> float:
        """Cost of a tree reduction/broadcast of ``nbytes`` over ``npes``."""
        if npes <= 0:
            raise ValueError("npes must be positive")
        if npes == 1:
            return conduit.o_barrier_us
        rounds = math.ceil(math.log2(npes))
        per_round = (
            conduit.o_put_us + self._machine.link_latency_us + self._wire_time(nbytes, conduit)
        )
        return rounds * per_round

    # -- collective algorithm closed forms ------------------------------
    def _collective_primitives(
        self, nbytes: int, conduit: ConduitProfile, inter: bool
    ) -> tuple[float, float, float, float]:
        """(put, get, post, lift) critical-path estimates for one link
        class.

        Pure arithmetic — no timeline reservations — so pricing a
        candidate algorithm never perturbs the simulation state.  The
        first three mirror the uncontended paths of :meth:`put`/
        :meth:`get`/:meth:`amo`; ``lift`` is the causality charge the
        waiter's *consume* atomic pays on top of the poster's fadd
        (target-side processing plus the return leg — always intra,
        because the consume is a self-targeted atomic on the waiter's
        own flag word).
        """
        m = self._machine
        lift = m.amo_process_us + m.intra_latency_us
        if not inter:
            move = m.intra_latency_us + nbytes / m.intra_bandwidth_Bpus
            put = 0.5 * conduit.o_put_us + move
            get = 0.5 * conduit.o_get_us + move
            post = 0.5 * conduit.o_amo_us + m.amo_process_us
            return put, get, post, lift
        L = m.link_latency_us
        wire = self._wire_time(nbytes, conduit)
        put = conduit.o_put_us + L + wire
        if nbytes > conduit.eager_threshold:
            put += conduit.o_put_us  # rendezvous handshake
        get = conduit.o_get_us + 2.0 * L + wire
        if conduit.amo_offload:
            post = conduit.o_amo_us + 2.0 * L + m.amo_process_us
        else:
            post = (
                conduit.o_amo_us + 2.0 * L + m.am_attentiveness_us
                + m.cpu_am_process_us
            )
        return put, get, post, lift

    def collective_cost(
        self,
        algo: str,
        npes: int,
        nbytes: int,
        conduit: ConduitProfile,
        *,
        kind: str = "reduce",
        nnodes: int = 1,
        max_per_node: int | None = None,
        broadcast: bool = True,
        inter_bits: tuple[bool, ...] | None = None,
    ) -> float:
        """Closed-form critical-path estimate of one collective call's
        algorithm body (excluding the team barrier that frames every
        call — identical across candidates, so irrelevant to ranking).

        ``kind`` is ``reduce`` / ``bcast`` / ``allgather``; ``algo`` one
        of ``linear`` / ``binomial`` / ``recdbl`` / ``ring`` / ``hier``
        (each kind admits a subset); ``npes`` the team size, ``nbytes``
        the payload (the per-PE slice for ``allgather``),
        ``nnodes``/``max_per_node`` the team's shape on the topology.
        ``inter_bits[i]`` says whether tree round ``i`` (rank distance
        ``2^i``) crosses nodes (:attr:`TeamComm.tree_inter_bits`); when
        omitted, a node-aligned rank order is assumed.  Pure arithmetic
        over machine/conduit constants (same pattern as
        :meth:`barrier_cost`), used by the
        :class:`repro.collectives.AlgorithmSelector` to rank candidates
        and validated against measured virtual times in
        ``repro.bench.collectives``; see docs/MODEL.md §11 for the
        derivation.
        """
        if npes <= 0:
            raise ValueError("npes must be positive")
        if npes == 1:
            return 0.0
        per_node = max_per_node
        if per_node is None:
            per_node = -(-npes // max(nnodes, 1))
        rounds = max((npes - 1).bit_length(), 1)
        if inter_bits is None:
            # Aligned assumption: rank distances below the node width
            # stay on-node.
            inter_bits = tuple(
                nnodes > 1 and (1 << i) >= per_node for i in range(rounds)
            )
        iput, iget, ipost, lift = self._collective_primitives(
            nbytes, conduit, False
        )
        xput, xget, xpost, _ = self._collective_primitives(
            nbytes, conduit, True
        )
        inter_any = nnodes > 1

        def up(x: bool) -> float:
            # Child posts (quiet + fadd), parent's consume rides the
            # causality lift, parent pulls the child's accumulator.
            return (xpost + lift + xget) if x else (ipost + lift + iget)

        def down(x: bool) -> float:
            # Parent deposits and flags; child's consume pays the lift.
            return (xput + xpost + lift) if x else (iput + ipost + lift)

        def cls(i: int) -> bool:
            return inter_bits[i] if i < len(inter_bits) else inter_any

        put, get, post = (
            (xput, xget, xpost) if inter_any else (iput, iget, ipost)
        )
        if kind == "bcast":
            if algo == "linear":
                return (npes - 1) * (put + post) + lift
            if algo == "binomial":
                return sum(down(cls(i)) for i in range(rounds))
            if algo == "hier":
                xrounds = max((nnodes - 1).bit_length(), 0)
                return (
                    xrounds * down(True)
                    + max(per_node - 1, 0) * (iput + ipost) + lift
                )
            raise ValueError(f"unknown collective algorithm {algo!r}")
        if kind == "allgather":
            if algo == "linear":
                # Everyone posts readiness once, then pulls the other
                # m-1 slices back to back.
                return post + lift + (npes - 1) * get
            if algo == "ring":
                # m-1 rounds of the 6-step neighbor handshake, one full
                # slice pulled per round.
                return (npes - 1) * (2.0 * (post + lift) + get)
            raise ValueError(f"unknown collective algorithm {algo!r}")
        if kind != "reduce":
            raise ValueError(f"unknown collective kind {kind!r}")
        if algo == "linear":
            cost = (npes - 1) * (post + get) + lift
            if broadcast:
                cost += (npes - 1) * (put + post) + lift
            return cost
        if algo == "binomial":
            cost = sum(up(cls(i)) for i in range(rounds))
            if broadcast:
                cost += sum(down(cls(i)) for i in range(rounds))
            return cost
        if algo == "recdbl":
            # Always an allreduce.  Each doubling round is a symmetric
            # exchange: post readiness, pull the partner's accumulator
            # (an up-hop), then an ack post the partner's consume lifts.
            p = 1 << (npes.bit_length() - 1)  # largest power of two <= m
            cost = sum(
                up(cls(i)) + (xpost if cls(i) else ipost) + lift
                for i in range(max(p.bit_length() - 1, 0))
            )
            if p != npes:
                # Non-power-of-two fold: adjacent-rank pre-fold up-hop
                # plus the finished-result down-hop.  When the fold hop
                # crosses nodes, the up-leg is almost entirely absorbed
                # by first-round slack — by the time a fold survivor
                # enters the core rounds its partners' flags are already
                # posted, so the straggler's extra critical-path
                # contribution is one consume lift plus the local
                # staging copy, not a full inter-node post/wait hop
                # (measured on node-misaligned teams to ~25 ns).
                if cls(0):
                    fold_up = (
                        lift + nbytes / self._machine.intra_bandwidth_Bpus
                    )
                else:
                    fold_up = up(False)
                cost += fold_up + down(cls(0))
            return cost
        if algo == "ring":
            chunk = -(-nbytes // npes)  # ceil: per-round chunk payload
            cput, cget, cpost, _ = self._collective_primitives(
                chunk, conduit, inter_any
            )
            return 2.0 * (npes - 1) * (2.0 * (cpost + lift) + cget)
        if algo == "hier":
            # Leader gathers its node linearly over intra links, a
            # binomial tree runs over node leaders (inter links), then
            # leaders scatter back.  Always delivers everywhere.
            xrounds = max((nnodes - 1).bit_length(), 0)
            return (
                max(per_node - 1, 0) * ((ipost + iget) + (iput + ipost))
                + xrounds * (up(True) + down(True))
                + lift
            )
        raise ValueError(f"unknown collective algorithm {algo!r}")
