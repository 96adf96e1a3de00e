"""The shared one-sided communication engine.

:class:`OneSidedLayer` implements the mechanics every modeled library
shares: registered-segment allocation, contiguous and 1-D-strided RMA,
8-byte atomics, completion tracking (``quiet``), and a barrier.  The
behaviour differences between libraries come from the
:class:`~repro.sim.netmodel.ConduitProfile` each subclass installs:

* per-call software overheads (MPI-3.0's higher ``o_put_us`` produces
  Fig 2's latency gap);
* ``iput_native`` — Cray SHMEM offloads 1-D strided transfers to the
  NIC, MVAPICH2-X SHMEM and GASNet-based runtimes loop over contiguous
  puts (Fig 7's naive == 2dim result);
* ``amo_offload`` — SHMEM atomics run on the NIC atomic unit, GASNet
  atomics are active-message round trips through the target CPU
  (Fig 8's lock gap).

Completion semantics follow the OpenSHMEM/GASNet non-blocking model:
``put`` returns after *local* completion; remote completion is only
observable through :meth:`quiet` (or a barrier, which includes one).
"""

from __future__ import annotations

import operator as _operator
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.comm.heap import SymmetricArray
from repro.runtime.context import current
from repro.runtime.launcher import Job, JobAborted
from repro.comm.constants import comparator
from repro.sim.netmodel import ConduitProfile, get_conduit
from repro.trace.events import contiguous_footprint
from repro.util.bitpack import NIL

#: How the initiator learns an attempt failed, per operation family:
#: put-like operations observe the NACK at remote completion, get-like
#: and AMO operations at the (round-trip) done time.
_FAIL_AT_REMOTE = _operator.attrgetter("remote_complete")


def _fail_at_done(done: float) -> float:
    return done


#: Element sizes the data plane can move via a reinterpret-cast view
#: (uint8 plus :attr:`PEMemory._VIEW_DTYPES`); other sizes scatter
#: through a byte-expanded index.
_VIEWABLE_SIZES = frozenset((1, 2, 4, 8))

_UNTRACED = nullcontext()  # what lock_machinery() returns without a tracer


@dataclass(frozen=True, eq=False)
class BatchSpec:
    """A batch of identical RMA calls, in layer-level terms.

    Produced by :mod:`repro.caf.rma` from a transfer plan (every plan's
    runs share one length and its lines one count and stride, so a whole
    plan is one spec).  ``rel_index`` holds the byte offset of every
    transferred element *relative to the array base*, in plan order —
    relative so a cached spec stays valid across deallocate/reallocate
    cycles that move the array.
    """

    kind: str  # "runs" (contiguous) | "lines" (1-D strided)
    ncalls: int  # logical library calls (len(runs) or len(lines))
    nelems_per_call: int  # run length, or line element count
    stride: int  # element stride within a line (1 for runs)
    rel_index: np.ndarray  # int64 per-element byte offsets, plan order
    min_elem: int  # smallest touched element index (span check)
    max_elem: int  # largest touched element index (span check)
    rel_elem: np.ndarray | None = None  # int64 per-element *element* offsets
    elem_size: int = 0  # itemsize the spec was compiled for

    def __post_init__(self) -> None:
        if self.kind not in ("runs", "lines"):
            raise ValueError(f"unknown batch kind {self.kind!r}")
        # Lazy per-spec index caches (plain attributes on a frozen
        # non-slots dataclass; set via object.__setattr__).
        # Races under the GIL are benign: readers validate the memo's
        # base offset and a lost race rebuilds an identical array.
        object.__setattr__(self, "_abs_memo", None)
        object.__setattr__(self, "_expanded_rel", None)

    @property
    def total_elems(self) -> int:
        return self.ncalls * self.nelems_per_call

    def vector_index(self, byte_offset: int) -> tuple[bool, np.ndarray, int, int]:
        """The precomputed index array for an array based at
        ``byte_offset``, as ``(expanded, index, lo, hi)`` — the exact
        argument set of :meth:`~repro.runtime.memory.PEMemory.scatter_at`
        / ``gather_at``.

        Memoized per base offset: symmetric arrays share one base across
        PEs, so after the first touch this is a tuple compare plus an
        attribute read.  ``expanded=False`` index arrays are element
        indices into the ``elem_size`` view of the heap; unaligned bases
        and view-less element sizes get a byte-expanded index.
        """
        memo = self._abs_memo
        if memo is not None and memo[0] == byte_offset:
            return memo[1], memo[2], memo[3], memo[4]
        es = self.elem_size
        if es <= 0:
            raise ValueError("spec was built without an element size")
        if es in _VIEWABLE_SIZES and byte_offset % es == 0 and self.rel_elem is not None:
            index = self.rel_elem + (byte_offset // es)
            expanded = False
        else:
            exp = self._expanded_rel
            if exp is None:
                exp = (
                    self.rel_index[:, None]
                    + np.arange(es, dtype=np.int64)[None, :]
                ).reshape(-1)
                object.__setattr__(self, "_expanded_rel", exp)
            index = exp + byte_offset
            expanded = True
        lo = byte_offset + self.min_elem * es
        hi = byte_offset + self.max_elem * es + es
        object.__setattr__(self, "_abs_memo", (byte_offset, expanded, index, lo, hi))
        return expanded, index, lo, hi


class OneSidedLayer:
    """Common engine under :mod:`repro.shmem`, :mod:`repro.gasnet`,
    and :mod:`repro.mpirma`."""

    #: Key under which the layer registers itself on the job.
    LAYER_NAME = "onesided"

    #: Virtual cost of a fence (ordering only; the simulated NIC already
    #: delivers same-initiator traffic in order).
    FENCE_COST_US = 0.02

    #: Retransmission policy for injected transient delivery failures:
    #: up to RETRY_LIMIT attempts, exponential backoff between attempts
    #: priced in *virtual* microseconds (wall clock is untouched), then
    #: escalation to :class:`~repro.sim.faults.TransientCommError`.
    RETRY_LIMIT = 4
    RETRY_BACKOFF_START_US = 2.0
    RETRY_BACKOFF_MAX_US = 64.0

    def __init__(self, job: Job, profile: ConduitProfile | str) -> None:
        if isinstance(profile, str):
            profile = get_conduit(profile)
        self.job = job
        self.profile = profile
        # Flat front-side memo over the network's pricers, keyed by
        # small int tuples (op tag, src PE, dst PE, sizes).  The
        # network's own memo keys include the conduit profile, whose
        # frozen-dataclass hash walks every field — too expensive to
        # pay per scalar operation.  Plain dict: get/set are GIL-atomic
        # and a lost race merely builds an equivalent closure twice.
        self._pricers: dict[tuple, object] = {}
        # Max outstanding remote-completion time of each PE's puts.
        self._pending = [0.0] * job.num_pes
        # The execution engine owns every mode decision (fault plan,
        # cooperative scheduling, delivery, blocking).  Hot-path hooks
        # are cached as plain instance attributes: one dict lookup and
        # one call each, with the no-fault / free-running fast paths
        # pre-resolved at engine bind time.
        eng = job.engine
        self.engine = eng
        self._eager = eng.eager_delivery
        self._decide = eng.decision
        self._priced = eng.priced
        self._jitter = eng.jitter
        self._deposit = eng.deposit
        self._drain = eng.drain
        # Failed-image detection (survivable jobs only).  ``None`` in
        # the default mode, so the per-op guard in every RMA/AMO entry
        # point is a single ``is not None`` test and the clean-abort
        # baseline stays byte-for-byte.
        self._failed = job.failed if getattr(job, "survivable", False) else None

    # ------------------------------------------------------------------
    # Registered-segment ("symmetric") memory
    # ------------------------------------------------------------------
    def _alloc_prepare(self, shape: int | tuple[int, ...], dtype: np.dtype):
        """The non-blocking half of :meth:`alloc_array`: validate, run
        the injected-exhaustion check, and agree on the offset.  Returns
        a zero-argument builder producing the :class:`SymmetricArray`;
        the caller must pass a barrier before building (step programs
        use :func:`repro.engine.steps.alloc_array_step`)."""
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ValueError(f"negative dimension in shape {shape}")
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize if shape else dt.itemsize
        ctx = current()
        # Injected symmetric-heap exhaustion fails *this* PE before it
        # reaches the collective, so the allocator metadata is never
        # touched by the doomed allocation.
        self.engine.alloc_check(ctx)
        offset = self.job.collectives.agree(
            ctx,
            f"{self.LAYER_NAME}.alloc:{shape}:{dt.str}",
            lambda: self.job.symmetric_allocator.malloc(max(nbytes, 1)),
        )
        return lambda: SymmetricArray(self, offset, shape, dt)

    def alloc_array(
        self, shape: int | tuple[int, ...], dtype: np.dtype
    ) -> SymmetricArray:
        """Collectively allocate an array at the same offset on every PE."""
        build = self._alloc_prepare(shape, dtype)
        # Allocation is synchronizing: no PE may target the region on a
        # PE that has not allocated it yet.
        self.barrier_all()
        return build()

    def free_array(self, array: SymmetricArray) -> None:
        """Collectively release an allocation (synchronizes first)."""
        if array.layer is not self:
            raise ValueError("array belongs to a different job/layer")
        array._check_live()
        ctx = current()
        self.barrier_all()
        self.job.collectives.agree(
            ctx,
            f"{self.LAYER_NAME}.free:{array.byte_offset}",
            lambda: self.job.symmetric_allocator.free(array.byte_offset),
        )
        array._freed = True

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_pe(self, pe: int) -> None:
        if not 0 <= pe < self.job.num_pes:
            raise ValueError(f"PE {pe} out of range [0, {self.job.num_pes})")

    def _check_failed(self, ctx, op: str, pe: int) -> None:
        """Initiator-side failed-image detection (survivable jobs only):
        an RMA/AMO targeting a failed PE pays the detection latency in
        virtual time, traces a ``fail`` record, and raises a structured
        :class:`~repro.runtime.failures.ImageFailedError`."""
        registry = self._failed
        if registry is not None and registry.is_failed(pe):
            from repro.runtime.failures import raise_image_failed

            raise_image_failed(ctx, op, pe, registry, self.job.tracer)

    def _remember(self, key: tuple, pricer):
        """Store a freshly built pricer in the front memo."""
        if len(self._pricers) > 65536:  # unbounded-growth backstop
            self._pricers.clear()
        self._pricers[key] = pricer
        return pricer

    def _coerce(
        self, array: SymmetricArray, value, nelems: int | None = None
    ) -> np.ndarray:
        data = np.ascontiguousarray(value, dtype=array.dtype).reshape(-1)
        if nelems is not None and data.size != nelems:
            raise ValueError(f"expected {nelems} elements, got {data.size}")
        return data

    # ------------------------------------------------------------------
    # Contiguous RMA
    # ------------------------------------------------------------------
    def put(self, dest: SymmetricArray, value, pe: int, offset: int = 0,
            *, uncontended: bool = False) -> None:
        """Contiguous put; returns after local completion.

        ``uncontended=True`` prices through the closed-form idle-lane
        model (:meth:`NetworkModel.put_uncontended`) instead of the
        contended per-node timelines — used by the collective library,
        whose algorithms schedule their own traffic and whose virtual
        times must be schedule-independent.
        """
        if not 0 <= pe < self.job.num_pes:
            self._check_pe(pe)
        data = self._coerce(dest, value)
        dest.check_span(offset, data.size)
        if data.size == 0:
            return  # nothing moves: no pricing, no lock, no clock advance
        addr = dest.byte_offset + offset * dest.itemsize  # span checked above
        ctx = current()
        self._decide(ctx, "put", pe)
        if self._failed is not None:
            self._check_failed(ctx, "put", pe)
        t_start = ctx.clock.now
        if uncontended:
            def price(now, _n=data.nbytes):
                return self.job.network.put_uncontended(
                    ctx.pe, pe, _n, self.profile, now
                )
        else:
            key = ("p", ctx.pe, pe, data.nbytes)
            price = self._pricers.get(key)
            if price is None:
                price = self._remember(
                    key, self.job.network.put_pricer(ctx.pe, pe, data.nbytes, self.profile)
                )
        timing = self._priced(ctx, self, "put", pe, price, _FAIL_AT_REMOTE)
        if self._eager:
            self.job.memories[pe].write(addr, data, timestamp=timing.remote_complete)
        else:
            # Weak completion: the deposit becomes a separately
            # schedulable delivery.  Copy the payload — a blocking put's
            # source is reusable the moment the call returns.
            mem = self.job.memories[pe]
            payload = data.copy()
            ts = timing.remote_complete
            self._deposit(ctx, lambda: mem.write(addr, payload, timestamp=ts))
        ctx.clock.merge(timing.local_complete)
        if timing.remote_complete > self._pending[ctx.pe]:
            self._pending[ctx.pe] = timing.remote_complete
        tracer = self.job.tracer
        if tracer is not None:
            fp = contiguous_footprint(addr, data.nbytes) if tracer.capture_sync else ()
            tracer.record(
                ctx.pe, "put", pe, data.nbytes, t_start, ctx.clock.now,
                addr=addr, footprint=fp,
            )

    def get(self, src: SymmetricArray, nelems: int, pe: int, offset: int = 0,
            *, uncontended: bool = False) -> np.ndarray:
        """Blocking contiguous get; returns the fetched elements.

        ``uncontended`` as in :meth:`put`.
        """
        if not 0 <= pe < self.job.num_pes:
            self._check_pe(pe)
        src.check_span(offset, nelems)
        if nelems == 0:
            return np.empty(0, dtype=src.dtype)
        addr = src.byte_offset + offset * src.itemsize  # span checked above
        ctx = current()
        self._decide(ctx, "get", pe)
        if self._failed is not None:
            self._check_failed(ctx, "get", pe)
        nbytes = nelems * src.itemsize
        t_start = ctx.clock.now
        if uncontended:
            def price(now, _n=nbytes):
                return self.job.network.get_uncontended(
                    ctx.pe, pe, _n, self.profile, now
                )
        else:
            key = ("g", ctx.pe, pe, nbytes)
            price = self._pricers.get(key)
            if price is None:
                price = self._remember(
                    key, self.job.network.get_pricer(ctx.pe, pe, nbytes, self.profile)
                )
        done = self._priced(ctx, self, "get", pe, price, _fail_at_done)
        raw = self.job.memories[pe].read(addr, nbytes)
        ctx.clock.merge(done)
        tracer = self.job.tracer
        if tracer is not None:
            fp = contiguous_footprint(addr, nbytes) if tracer.capture_sync else ()
            tracer.record(
                ctx.pe, "get", pe, nbytes, t_start, ctx.clock.now,
                addr=addr, footprint=fp,
            )
        # ``PEMemory.read`` already returned a private copy.
        return raw.view(src.dtype)

    # ------------------------------------------------------------------
    # 1-D strided RMA
    # ------------------------------------------------------------------
    def iput(
        self,
        dest: SymmetricArray,
        value,
        tst: int,
        sst: int,
        nelems: int,
        pe: int,
        offset: int = 0,
    ) -> None:
        """1-D strided put (strides in elements, must be >= 1).

        Native conduits issue one NIC descriptor; others loop over
        contiguous single-element puts (the paper's observation about
        MVAPICH2-X's ``shmem_iput``).
        """
        self._check_pe(pe)
        if nelems < 0:
            raise ValueError("nelems must be non-negative")
        source = np.ascontiguousarray(value, dtype=dest.dtype).reshape(-1)
        if nelems and (sst < 1 or tst < 1):
            raise ValueError("strides must be >= 1")
        if nelems:
            needed = (nelems - 1) * sst + 1
            if source.size < needed:
                raise ValueError(
                    f"source has {source.size} elements; stride {sst} x {nelems} needs {needed}"
                )
        dest.check_span(offset, nelems, tst)
        if nelems == 0:
            return
        gathered = source[::sst][:nelems]
        ctx = current()
        if self.profile.iput_native:
            # Non-native conduits loop over put(), which decides per call.
            self._decide(ctx, "iput", pe)
            self._check_failed(ctx, "iput", pe)
        t_start = ctx.clock.now
        itemsize = dest.itemsize
        if self.profile.iput_native:
            key = ("ip", ctx.pe, pe, nelems, itemsize, tst)
            price = self._pricers.get(key)
            if price is None:
                price = self._remember(key, self.job.network.iput_pricer(
                    ctx.pe, pe, nelems, itemsize, self.profile, stride_bytes=tst * itemsize
                ))
            timing = self._priced(ctx, self, "iput", pe, price, _FAIL_AT_REMOTE)
            if self._eager:
                self.job.memories[pe].write_strided(
                    dest.element_offset(offset),
                    tst * itemsize,
                    itemsize,
                    gathered,
                    timestamp=timing.remote_complete,
                )
            else:
                mem = self.job.memories[pe]
                eo = dest.element_offset(offset)
                payload = gathered.copy()
                ts = timing.remote_complete
                stride_b = tst * itemsize
                self._deposit(
                    ctx,
                    lambda: mem.write_strided(
                        eo, stride_b, itemsize, payload, timestamp=ts
                    ),
                )
            ctx.clock.merge(timing.local_complete)
            if timing.remote_complete > self._pending[ctx.pe]:
                self._pending[ctx.pe] = timing.remote_complete
            tracer = self.job.tracer
            if tracer is not None:
                addr = dest.element_offset(offset)
                # Deferred: materialized by the tracer on first read.
                fp = (
                    ("@str", addr, tst * itemsize, itemsize, nelems)
                    if tracer.capture_sync else ()
                )
                tracer.record(
                    ctx.pe, "iput", pe, nelems * itemsize, t_start, ctx.clock.now,
                    addr=addr, footprint=fp,
                )
        else:
            for i in range(nelems):
                self.put(dest, gathered[i : i + 1], pe, offset + i * tst)

    def iget(
        self, src: SymmetricArray, tst: int, sst: int, nelems: int, pe: int, offset: int = 0
    ) -> np.ndarray:
        """1-D strided get; returns ``nelems`` gathered (contiguous)
        elements.  ``sst`` strides the remote source."""
        self._check_pe(pe)
        if nelems < 0:
            raise ValueError("nelems must be non-negative")
        if nelems and (sst < 1 or tst < 1):
            raise ValueError("strides must be >= 1")
        src.check_span(offset, nelems, sst)
        if nelems == 0:
            return np.empty(0, dtype=src.dtype)
        ctx = current()
        if self.profile.iput_native:
            self._decide(ctx, "iget", pe)
            self._check_failed(ctx, "iget", pe)
        t_start = ctx.clock.now
        itemsize = src.itemsize
        if self.profile.iput_native:
            key = ("ig", ctx.pe, pe, nelems, itemsize, sst)
            price = self._pricers.get(key)
            if price is None:
                price = self._remember(key, self.job.network.iget_pricer(
                    ctx.pe, pe, nelems, itemsize, self.profile, stride_bytes=sst * itemsize
                ))
            done = self._priced(ctx, self, "iget", pe, price, _fail_at_done)
            raw = self.job.memories[pe].read_strided(
                src.element_offset(offset), sst * itemsize, itemsize, nelems
            )
            ctx.clock.merge(done)
            tracer = self.job.tracer
            if tracer is not None:
                addr = src.element_offset(offset)
                fp = (
                    ("@str", addr, sst * itemsize, itemsize, nelems)
                    if tracer.capture_sync else ()
                )
                tracer.record(
                    ctx.pe, "iget", pe, nelems * itemsize, t_start, ctx.clock.now,
                    addr=addr, footprint=fp,
                )
            return raw.view(src.dtype).copy()
        out = np.empty(nelems, dtype=src.dtype)
        for i in range(nelems):
            out[i] = self.get(src, 1, pe, offset + i * sst)[0]
        return out

    # ------------------------------------------------------------------
    # Batched plan execution
    # ------------------------------------------------------------------
    def _plan_pricer(self, direction: str, spec: BatchSpec, itemsize: int,
                     src: int, dst: int):
        """Memoized aggregate pricing for a whole plan; returns (pricer,
        op, calls) with ``pricer(now)`` pricing one attempt of the batch.

        :meth:`NetworkModel.batch_pricer` replays the exact per-call
        float arithmetic, so timing is bit-identical to the sequential
        loop.  Non-native line plans degenerate to one put/get per
        *element*, just like :meth:`iput` does.  Front-memoized in the
        layer's flat pricer cache: everything pricing-relevant about a
        plan is its (kind, ncalls, nelems_per_call, stride) shape.
        """
        key = ("pl", direction, src, dst, itemsize, spec.kind,
               spec.ncalls, spec.nelems_per_call, spec.stride)
        entry = self._pricers.get(key)
        if entry is not None:
            return entry
        net = self.job.network
        if spec.kind == "lines" and self.profile.iput_native:
            op, calls = ("iput" if direction == "put" else "iget"), spec.ncalls
            pricer = net.batch_pricer(
                op, src, dst, count=calls, conduit=self.profile,
                nelems=spec.nelems_per_call, elem_size=itemsize,
                stride_bytes=spec.stride * itemsize,
            )
        else:
            op = "put" if direction == "put" else "get"
            if spec.kind == "lines":
                calls, nbytes = spec.total_elems, itemsize
            else:
                calls, nbytes = spec.ncalls, spec.nelems_per_call * itemsize
            pricer = net.batch_pricer(
                op, src, dst, count=calls, conduit=self.profile, nbytes=nbytes
            )
        return self._remember(key, (pricer, op, calls))

    def execute_plan_put(
        self, dest: SymmetricArray, value, pe: int, spec: BatchSpec
    ) -> None:
        """Execute a whole transfer plan's puts in one batched step.

        Equivalent to issuing ``spec.ncalls`` :meth:`put`/:meth:`iput`
        calls in plan order — same final clock, same pending-completion
        state, same target bytes, same timeline counters — but with one
        aggregate network pricing, one target-lock acquisition, and one
        tracer record carrying the logical call count.
        """
        self._check_pe(pe)
        data = self._coerce(dest, value, spec.total_elems)
        dest.check_span(spec.min_elem, 1)
        dest.check_span(spec.max_elem, 1)
        if data.size == 0:
            return
        ctx = current()
        self._decide(ctx, "plan_put", pe)
        self._check_failed(ctx, "put", pe)
        t_start = ctx.clock.now
        itemsize = dest.itemsize
        price, op, calls = self._plan_pricer("put", spec, itemsize, ctx.pe, pe)
        timing = self._priced(ctx, self, op, pe, price, _FAIL_AT_REMOTE)
        mem = self.job.memories[pe]
        ts = timing.remote_complete
        expanded, index, lo, hi = spec.vector_index(dest.byte_offset)
        if self._eager:
            mem.scatter_at(
                index, data, timestamp=ts,
                elem_size=itemsize, lo=lo, hi=hi, expanded=expanded,
            )
        else:
            payload = data.copy()
            self._deposit(
                ctx,
                lambda: mem.scatter_at(
                    index, payload, timestamp=ts,
                    elem_size=itemsize, lo=lo, hi=hi, expanded=expanded,
                ),
            )
        ctx.clock.merge(timing.local_complete)
        if timing.remote_complete > self._pending[ctx.pe]:
            self._pending[ctx.pe] = timing.remote_complete
        tracer = self.job.tracer
        if tracer is not None:
            # Deferred: the tracer merges intervals at read time.
            fp = (
                ("@off", spec.rel_index, dest.byte_offset, itemsize)
                if tracer.capture_sync else ()
            )
            tracer.record(
                ctx.pe, op, pe, data.nbytes, t_start, ctx.clock.now, calls=calls,
                addr=dest.byte_offset + spec.min_elem * itemsize, footprint=fp,
            )

    def execute_plan_get(
        self, src: SymmetricArray, pe: int, spec: BatchSpec
    ) -> np.ndarray:
        """Batched counterpart of a whole plan's gets; returns the
        gathered elements as a flat array in plan order."""
        self._check_pe(pe)
        src.check_span(spec.min_elem, 1)
        src.check_span(spec.max_elem, 1)
        if spec.total_elems == 0:
            return np.empty(0, dtype=src.dtype)
        ctx = current()
        self._decide(ctx, "plan_get", pe)
        self._check_failed(ctx, "get", pe)
        t_start = ctx.clock.now
        itemsize = src.itemsize
        price, op, calls = self._plan_pricer("get", spec, itemsize, ctx.pe, pe)
        done = self._priced(ctx, self, op, pe, price, _fail_at_done)
        expanded, index, lo, hi = spec.vector_index(src.byte_offset)
        raw = self.job.memories[pe].gather_at(
            index, elem_size=itemsize, lo=lo, hi=hi, expanded=expanded
        )
        ctx.clock.merge(done)
        tracer = self.job.tracer
        if tracer is not None:
            fp = (
                ("@off", spec.rel_index, src.byte_offset, itemsize)
                if tracer.capture_sync else ()
            )
            tracer.record(
                ctx.pe, op, pe, raw.size, t_start, ctx.clock.now, calls=calls,
                addr=src.byte_offset + spec.min_elem * itemsize, footprint=fp,
            )
        return raw.view(src.dtype)

    # ------------------------------------------------------------------
    # Ordering / completion
    # ------------------------------------------------------------------
    def quiet(self) -> None:
        """Block until all of this PE's outstanding puts are remotely
        complete."""
        ctx = current()
        self._decide(ctx, "quiet", -1)
        self._drain(ctx)
        t_start = ctx.clock.now
        ctx.clock.merge(self._pending[ctx.pe])
        self._pending[ctx.pe] = 0.0
        tracer = self.job.tracer
        if tracer is not None and (ctx.clock.now > t_start or tracer.capture_sync):
            # In sync-capture mode even a no-op quiet is recorded: it is
            # a quiesce point the sanitizer's ordering checks rely on.
            tracer.record(ctx.pe, "quiet", -1, 0, t_start, ctx.clock.now)

    def fence(self) -> None:
        """Order (but do not complete) outstanding puts per target."""
        ctx = current()
        # Delivery queues are FIFO per initiator — stronger than the
        # per-target ordering fence promises — so no drain is needed.
        self._decide(ctx, "fence", -1)
        t_start = ctx.clock.now
        ctx.clock.advance(self.FENCE_COST_US)
        tracer = self.job.tracer
        if tracer is not None and tracer.capture_sync:
            tracer.record(ctx.pe, "fence", -1, 0, t_start, ctx.clock.now)

    def _barrier_arrive(self, ctx, barrier=None, npes: int | None = None) -> tuple[float, int, bool]:
        """Arrival half of :meth:`barrier_all`: collective jitter,
        quiet, then barrier bookkeeping.  Returns ``(t_start,
        generation, released)``; non-released callers must park via the
        engine before :meth:`_barrier_depart` (the event engine parks
        the continuation of a :class:`~repro.engine.steps.BarrierStep`
        here).  ``barrier``/``npes`` select a team-scoped barrier; the
        default is the job-wide barrier over all PEs."""
        t_start = ctx.clock.now
        self._jitter(ctx, self, "barrier")
        self.quiet()
        if barrier is None:
            barrier = self.job.barrier
            npes = self.job.num_pes
        cost = self.job.network.barrier_cost(npes, self.profile)
        gen, released = barrier.arrive(ctx, cost)
        return t_start, gen, released

    def _barrier_depart(self, ctx, t_start: float, gen: int, barrier=None) -> None:
        """Departure half of :meth:`barrier_all`: merge the episode's
        release time and trace the barrier record."""
        bar = self.job.barrier if barrier is None else barrier
        bar.depart(ctx, gen)
        tracer = self.job.tracer
        if tracer is not None:
            meta = ("b", bar.sync_id, gen) if tracer.capture_sync else ()
            tracer.record(
                ctx.pe, "barrier", -1, 0, t_start, ctx.clock.now, meta=meta
            )

    def barrier_all(self) -> None:
        """Quiet + dissemination barrier over all PEs."""
        ctx = current()
        t_start, gen, released = self._barrier_arrive(ctx)
        if not released:
            self.engine.barrier_wait(ctx, self.job.barrier, gen)
        self._barrier_depart(ctx, t_start, gen)

    def team_barrier(self, barrier, npes: int) -> None:
        """Quiet + dissemination barrier over a team's ``npes`` members.

        ``barrier`` is the team's shared
        :class:`~repro.runtime.sync.VirtualBarrier` (every member must
        pass the same instance).  Blocking form; step programs use
        :class:`~repro.engine.steps.BarrierStep` with
        ``barrier=``/``npes=`` instead.
        """
        ctx = current()
        t_start, gen, released = self._barrier_arrive(ctx, barrier, npes)
        if not released:
            self.engine.barrier_wait(ctx, barrier, gen)
        self._barrier_depart(ctx, t_start, gen, barrier)

    # ------------------------------------------------------------------
    # 8-byte atomics
    # ------------------------------------------------------------------
    def atomic(
        self, target: SymmetricArray, pe: int, offset: int, op: str, *operands,
        uncontended: bool = False,
    ) -> np.generic | None:
        """Execute an 8-byte atomic on ``target[offset]`` at ``pe``.

        ``op`` is one of ``swap``, ``cswap``, ``fadd``, ``fetch``,
        ``set``, ``and``, ``or``, ``xor``; returns the old value.
        Pricing depends on the profile: NIC atomic unit when offloaded,
        active-message round trip through the target CPU otherwise.
        ``uncontended`` as in :meth:`put` (the causality lift on the
        word's previous timestamp still applies — it is deterministic).
        """
        if not 0 <= pe < self.job.num_pes:
            self._check_pe(pe)
        target.check_span(offset, 1)
        if target.itemsize != 8:
            raise TypeError(
                f"remote atomics require an 8-byte dtype, got {target.dtype} "
                f"(the paper packs MCS pointers into 64 bits for this reason)"
            )
        dtype = target.dtype
        # The span check above already validated ``offset``.
        elem_offset = target.byte_offset + offset * 8
        ctx = current()
        # Atomics bypass the delivery queues (the NIC atomic unit is
        # not write-buffered): they execute at the chosen step.
        self._decide(ctx, "atomic", pe)
        if self._failed is not None:
            self._check_failed(ctx, "atomic", pe)
        t_start = ctx.clock.now
        # The memoized amo pricer also carries the causality constants
        # (``proc``/``back``), which the uncontended form needs as well.
        key = ("a", ctx.pe, pe)
        entry = self._pricers.get(key)
        if entry is None:
            entry = self._remember(
                key, self.job.network.amo_pricer(ctx.pe, pe, self.profile)
            )
        price, proc, back = entry
        if uncontended:

            def price(now):
                return self.job.network.amo_uncontended(
                    ctx.pe, pe, self.profile, now
                )

        done = self._priced(ctx, self, "atomic", pe, price, _fail_at_done)
        fn = self._amo_fn(op, dtype, operands)
        old, prev_time, seq = self.job.memories[pe].atomic_rmw_timed(
            elem_offset, dtype, fn, timestamp=done
        )
        if prev_time > 0.0:
            # Causality: we observed a value deposited at prev_time, so
            # our operation was serviced after it — no earlier than
            # prev_time plus the target-side processing (NIC atomic unit,
            # or CPU attentiveness + handler for AM-emulated atomics)
            # plus the return leg.  This is what gives lock handoff
            # chains their cost.
            done = max(done, prev_time + proc + back)
        ctx.clock.merge(done)
        tracer = self.job.tracer
        if tracer is not None:
            if tracer.capture_sync:
                fp = contiguous_footprint(elem_offset, 8)
                meta = ("a", seq)
            else:
                fp, meta = (), ()
            tracer.record(
                ctx.pe, "atomic", pe, 8, t_start, ctx.clock.now,
                addr=elem_offset, footprint=fp, meta=meta,
            )
        return old

    @staticmethod
    def _amo_fn(op: str, dtype: np.dtype, operands: tuple):
        if op == "swap":
            (value,) = operands
            v = dtype.type(value)
            return lambda old: v
        if op == "cswap":
            value, cond = operands
            v, c = dtype.type(value), dtype.type(cond)
            return lambda old: v if old == c else old
        if op == "fadd":
            (value,) = operands
            v = dtype.type(value)
            return lambda old: dtype.type(old + v)
        if op == "fetch":
            if operands:
                raise ValueError("fetch takes no operand")
            return lambda old: old
        if op == "set":
            (value,) = operands
            v = dtype.type(value)
            return lambda old: v
        if op in ("and", "or", "xor"):
            if not np.issubdtype(dtype, np.integer):
                raise TypeError(f"bitwise atomic {op!r} requires an integer dtype")
            (value,) = operands
            v = dtype.type(value)
            bitop = {"and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor}[op]
            return lambda old: dtype.type(bitop(old, v))
        raise ValueError(f"unknown atomic op {op!r}")

    # ------------------------------------------------------------------
    # Lock protocol helpers
    #
    # One test-and-set protocol serves the Cray-CAF baseline lock and the
    # OpenSHMEM global lock: the 8-byte word holds the holder's PE + 1
    # and NIL (0) means free.  Acquire retries a cswap with exponential
    # backoff and steals from a failed holder (F2018 11.6.11: a failed
    # image's locks become unlocked) with a cswap keyed on the observed
    # holder, which keeps the steal atomic against a racing survivor.
    # ------------------------------------------------------------------
    def lock_machinery(self):
        """Context marking traced operations as lock-protocol machinery:
        they synchronize *through* the lock word, so the sanitizer must
        not treat them as user data conflicts.  Quiets issued inside
        remain quiesce points."""
        tracer = self.job.tracer
        return tracer.sync_internal() if tracer is not None else _UNTRACED

    def tas_acquire(
        self, word: SymmetricArray, pe: int, offset: int, label: str,
        backoff: float, backoff_max: float,
    ) -> None:
        """Spin until the calling PE holds ``word[offset]`` at ``pe``.

        ``label`` names the wait for the hang watchdog; the virtual
        backoff doubles from ``backoff`` up to ``backoff_max`` us.
        """
        ctx = current()
        me, job, spin = ctx.pe + 1, self.job, self.engine.spin_yield
        with self.lock_machinery(), job.watchdog.watch(ctx.pe, label) as guard:
            while True:
                # Check abort *before* each attempt: an aborted job must
                # exit promptly, not issue one more remote atomic first.
                if job.aborted():
                    raise JobAborted(f"job aborted while acquiring {label}")
                guard.poll()
                old = int(self.atomic(word, pe, offset, "cswap", me, NIL))
                if old == NIL:
                    return
                if self._failed is not None and self._failed.is_failed(old - 1):
                    if int(self.atomic(word, pe, offset, "cswap", me, old)) == old:
                        return
                ctx.clock.advance(backoff)
                backoff = min(backoff * 2, backoff_max)
                # Wall-clock yield on the threaded engine; cooperative
                # spin yield under a scheduler so priority strategies can
                # demote this spinner until the holder releases.
                spin(ctx, "lock_spin", pe)

    def tas_try(self, word: SymmetricArray, pe: int, offset: int) -> bool:
        """One acquisition attempt; True when the calling PE now holds
        the word."""
        with self.lock_machinery():
            old = self.atomic(word, pe, offset, "cswap", current().pe + 1, NIL)
        return int(old) == NIL

    def tas_release(self, word: SymmetricArray, pe: int, offset: int) -> int:
        """Quiet (critical-section writes complete before the release),
        then free the word; returns the holder word found, which is the
        caller's PE + 1 unless the caller did not hold the lock."""
        me = current().pe + 1
        self.quiet()
        with self.lock_machinery():
            return int(self.atomic(word, pe, offset, "cswap", NIL, me))

    def record_hold(
        self, acquire: bool, target: int, t_start: float, ident: tuple
    ) -> None:
        """Emit a ``lock_acquire``/``lock_release`` sync record
        (sync-capture mode only) for the lock named by ``ident``,
        carrying its global acquisition ticket, which the sanitizer
        chains into release->acquire edges."""
        tracer = self.job.tracer
        if tracer is None or not tracer.capture_sync:
            return
        ctx = current()
        if acquire:
            op, tag, ticket = "lock_acquire", "la", tracer.begin_hold(ident, ctx.pe)
        else:
            op, tag, ticket = "lock_release", "lr", tracer.end_hold(ident, ctx.pe)
        tracer.record(
            ctx.pe, op, target, 0, t_start, ctx.clock.now,
            meta=(tag, *ident, ticket), internal=False,
        )

    # ------------------------------------------------------------------
    # Local reads
    # ------------------------------------------------------------------
    def local_read_scalar(self, array: SymmetricArray, offset: int = 0) -> np.generic:
        """Traced read of one element of this PE's own copy of ``array``.

        Runtime-internal protocol loads (e.g. the MCS release path
        reading its qnode's ``next`` link) must come through here rather
        than poking :class:`~repro.runtime.memory.PEMemory` directly, so
        the access is visible to the tracer and the sanitizer.  A local
        load is free in virtual time.
        """
        array.check_span(offset, 1)
        ctx = current()
        elem_offset = array.element_offset(offset)
        value = self.job.memories[ctx.pe].read_scalar(elem_offset, array.dtype)
        tracer = self.job.tracer
        if tracer is not None:
            fp = (
                contiguous_footprint(elem_offset, array.itemsize)
                if tracer.capture_sync
                else ()
            )
            tracer.record(
                ctx.pe, "get", ctx.pe, array.itemsize, ctx.clock.now, ctx.clock.now,
                addr=elem_offset, footprint=fp,
            )
        return value

    # ------------------------------------------------------------------
    # Point-to-point synchronization
    # ------------------------------------------------------------------
    def _wait_probe(self, ivar: SymmetricArray, cmp: str, value, offset: int = 0):
        """Validate a wait target and build its polling predicate;
        returns ``(mem, predicate, elem_offset)``.  Shared by
        :meth:`wait_until` and the event engine's
        :class:`~repro.engine.steps.WaitStep` handler so both poll
        identical logic."""
        ivar.check_span(offset, 1)
        op = comparator(cmp)
        ctx = current()
        mem = self.job.memories[ctx.pe]
        elem_offset = ivar.element_offset(offset)
        target_value = ivar.dtype.type(value)

        def predicate() -> bool:
            return bool(op(mem.read_scalar(elem_offset, ivar.dtype), target_value))

        return mem, predicate, elem_offset

    def wait_until(
        self, ivar: SymmetricArray, cmp: str, value, offset: int = 0,
        *, word: bool = False, target: int = -1,
    ) -> None:
        """Block until local ``ivar[offset] <cmp> value`` holds; merges
        the satisfying write's virtual timestamp into the clock.

        ``word=True`` merges the awaited word's own atomic timestamp
        instead of the memory-global last-write time.  That makes the
        merged clock independent of unordered writes to *other* words
        landing first, but is only sound when the protocol guarantees
        strict post/consume alternation on this word (one outstanding
        post per channel — the collective library's discipline).

        ``target`` names the remote PE whose write is awaited, when the
        protocol knows it: a survivable job then fails the wait with
        :class:`~repro.runtime.failures.ImageFailedError` as soon as
        that PE is marked failed, instead of blocking until the
        watchdog's wall-clock deadline.
        """
        ctx = current()
        mem, predicate, elem_offset = self._wait_probe(ivar, cmp, value, offset)
        ts = self.engine.wait_value(
            ctx, mem, predicate,
            f"wait_until(offset={elem_offset}, {cmp} {value!r})",
            target if self._failed is not None else -1,
        )
        if word:
            ts = mem.word_time(elem_offset)
        ctx.clock.merge(ts)
