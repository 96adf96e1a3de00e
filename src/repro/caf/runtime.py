"""The CAF runtime (the paper's UHCAF retargeted onto OpenSHMEM et al.).

One :class:`CafRuntime` per job implements the translation of paper
Section IV on top of a pluggable :class:`~repro.caf.backends.CafBackend`:

* **Symmetric data** (Section IV-A): coarrays allocate collectively
  through the backend layer (``allocate`` -> ``shmalloc``).
* **Non-symmetric remotely-accessible data** (Section IV-A): one big
  symmetric buffer is reserved at startup (the *managed heap*); each
  image sub-allocates from its own copy independently, and remote
  references are the packed 20/36/8-bit pointers of Section IV-D.
* **RMA ordering** (Section IV-B): CAF guarantees same-image
  same-location ordering; OpenSHMEM does not.  With
  ``ordering="caf"`` (default) the runtime inserts ``quiet`` after
  every put and before every get, exactly as the paper describes.
  ``ordering="relaxed"`` drops the implicit quiets (ablation).
* **Strided sections** (Section IV-C): co-indexed slices are planned by
  :mod:`repro.caf.strided` under the runtime's (or per-call) policy.
* **Locks** (Section IV-D): :mod:`repro.caf.locks` implements the MCS
  adaptation on this runtime's managed heap and atomics.

Images are 1-based (Fortran); the runtime converts to 0-based PEs at
the backend boundary.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Any

import numpy as np

from repro.caf import rma
from repro.caf.backends import CafBackend, make_backend
from repro.caf.strided import make_plan, normalize_selection
from repro.comm.constants import CMP_GE
from repro.comm.heap import SymmetricArray
from repro.runtime.context import PEContext, current
from repro.runtime.failures import STAT_FAILED_IMAGE, ImageFailedError
from repro.runtime.launcher import Job
from repro.sim.netmodel import ConduitProfile
from repro.util.allocator import FreeListAllocator
from repro.util.bitpack import MAX_OFFSET

LAYER_NAME = "caf"

DEFAULT_MANAGED_HEAP_BYTES = 1 << 20

#: Implicit-lock slots backing the `critical` construct (see startup()).
CRITICAL_SLOTS = 64

ORDERINGS = ("caf", "relaxed")

DEFAULT_PLAN_CACHE_SIZE = 128


def _canonical_key(key) -> tuple | None:
    """A hashable, canonical form of a subscript, or ``None`` if the
    subscript contains anything uncacheable (slices are not hashable on
    older Pythons, so they are re-encoded as tuples)."""
    if not isinstance(key, tuple):
        key = (key,)
    out = []
    for k in key:
        if isinstance(k, bool):  # rejected by normalize_selection
            return None
        if isinstance(k, (int, np.integer)):
            out.append(int(k))
        elif isinstance(k, slice):
            parts = []
            for p in (k.start, k.stop, k.step):
                if p is None:
                    parts.append(None)
                elif isinstance(p, (int, np.integer)):
                    parts.append(int(p))
                else:
                    return None
            out.append(("s", *parts))
        elif k is Ellipsis:
            out.append("...")
        else:
            return None
    return tuple(out)


def _element_index(shape: tuple[int, ...], key) -> int | None:
    """Flat index of a subscript naming one in-range element, else None:
    every planner turns it into one length-1 run at this index."""
    if not isinstance(key, tuple):
        key = (key,)
    if len(key) != len(shape):
        return None
    flat = 0
    for k, extent in zip(key, shape):
        if isinstance(k, bool):  # rejected by normalize_selection
            return None
        if not isinstance(k, (int, np.integer)) or not -extent <= k < extent:
            return None
        flat = flat * extent + int(k) % extent  # negative indices wrap
    return flat


class CafError(RuntimeError):
    """Errors in CAF semantics (bad image index, misuse of locks, ...)."""


class CafRuntime:
    """Runtime state shared by all images of one CAF program."""

    def __init__(
        self,
        job: Job,
        backend: str | CafBackend = "shmem",
        *,
        profile: ConduitProfile | str | None = None,
        strided: str | None = None,
        ordering: str = "caf",
        managed_heap_bytes: int | None = None,
        lock_algorithm: str | None = None,
        use_shmem_ptr: bool = False,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}")
        if managed_heap_bytes is None:
            # Reserve a quarter of the symmetric heap (capped) for
            # non-symmetric data, leaving the rest for coarrays.
            managed_heap_bytes = min(DEFAULT_MANAGED_HEAP_BYTES, job.heap_bytes // 4)
        if not 0 < managed_heap_bytes <= MAX_OFFSET:
            raise ValueError(
                f"managed heap must fit the 36-bit remote-pointer offset "
                f"(max {MAX_OFFSET} bytes)"
            )
        self.job = job
        if isinstance(backend, str):
            backend = make_backend(
                job, backend, profile=profile, lock_algorithm=lock_algorithm, strided=strided
            )
        self.backend = backend
        self.layer = backend.layer
        self.ordering = ordering
        self.strided_policy = strided or backend.strided_default
        # Future-work extension (paper Sec. VII): convert intra-node
        # co-indexed accesses into direct load/store via shmem_ptr.
        self.use_shmem_ptr = use_shmem_ptr
        self.managed_heap_bytes = managed_heap_bytes
        # Per-image private allocator over the managed heap: allocations
        # are non-symmetric (different offsets on different images).
        self._managed_alloc = [
            FreeListAllocator(managed_heap_bytes, alignment=16) for _ in range(job.num_pes)
        ]
        # Filled by startup() (collective allocations).
        self.managed_u8: SymmetricArray | None = None
        self.managed_u64: SymmetricArray | None = None
        self._sync_counters: SymmetricArray | None = None
        # Per-image held-lock hash table: (lock id, image, index) ->
        # (qnode offset, lock object, target pe) — the paper's (lck, j)
        # hash table, extended so the crash handler can force-release a
        # failed image's locks (Fortran 2018: they become unlocked).
        self._held: list[dict[tuple[int, int, int], tuple]] = [
            {} for _ in range(job.num_pes)
        ]
        if getattr(job, "survivable", False):
            job.failure_hooks.append(self._force_release_locks)
        # Per-image sync_images bookkeeping: how many syncs I have posted
        # to image j / consumed from image j.
        self._sync_expected: list[dict[int, int]] = [{} for _ in range(job.num_pes)]
        self._sync_posted: list[dict[int, int]] = [{} for _ in range(job.num_pes)]
        # Per-image current team (None = the initial team of all images).
        self._team: list = [None] * job.num_pes
        # Call-count instrumentation, kept per image (threads must not
        # share a Counter: += is a racy read-modify-write).
        self._stats = [Counter() for _ in range(job.num_pes)]
        # LRU cache of (sels, result_shape, plan, batch spec) per
        # section signature.  Specs hold *relative* byte offsets, so an
        # entry stays valid for any array of matching shape/dtype —
        # including a reallocation at a different base offset.  Shared
        # across images (one lock; entries are immutable once inserted).
        if plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        self._plan_cache_size = plan_cache_size
        self._plan_cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._plan_cache_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    @property
    def my_stats(self) -> Counter:
        """The calling image's call counters (putmem/iput/lock/... counts)."""
        return self._stats[current().pe]

    @property
    def stats(self) -> Counter:
        """Merged counters across all images (read outside hot paths)."""
        total = Counter()
        for c in self._stats:
            total.update(c)
        return total

    def reset_stats(self) -> None:
        for c in self._stats:
            c.clear()

    # ------------------------------------------------------------------
    # Startup (collective; run by every image before user code)
    # ------------------------------------------------------------------
    def startup(self) -> None:
        """Allocate the managed heap and runtime coarrays (collective)."""
        region = self.layer.alloc_array((self.managed_heap_bytes,), np.uint8)
        # Two dtype aliases over the same bytes: uint8 for data, uint64
        # for the 8-byte atomics that MCS locks require.
        self.managed_u8 = region
        self.managed_u64 = SymmetricArray(
            self.layer, region.byte_offset, (self.managed_heap_bytes // 8,), np.uint64
        )
        self._sync_counters = self.layer.alloc_array((self.job.num_pes,), np.int64)
        # Implicit locks backing the F2008 `critical` construct.  A
        # compiler declares one lock per statically-visible construct at
        # program start; lacking static knowledge, we pre-allocate a
        # slot array and hash construct names onto it (collisions only
        # cost false exclusion between same-slot criticals).
        from repro.caf.locks import CafLock

        self.critical_slots = CRITICAL_SLOTS
        self._critical_locks = CafLock(self, (CRITICAL_SLOTS,))
        self._started = True

    def _check_started(self) -> None:
        if not self._started:
            raise CafError("CAF runtime not started; use caf.launch()")

    # ------------------------------------------------------------------
    # Image identity (1-based, Fortran style; team-relative inside a
    # change team construct)
    # ------------------------------------------------------------------
    def current_team(self):
        """The calling image's active team, or None (initial team)."""
        return self._team[current().pe]

    def team_pes(self) -> tuple[int, ...]:
        """Absolute PEs of the calling image's current team."""
        team = self._team[current().pe]
        if team is None:
            return tuple(range(self.job.num_pes))
        return team.member_pes

    def this_image(self) -> int:
        team = self._team[current().pe]
        if team is None:
            return current().pe + 1
        return team.team_image_of(current().pe)

    def num_images(self) -> int:
        team = self._team[current().pe]
        if team is None:
            return self.job.num_pes
        return team.num_images

    def image_to_pe(self, image: int) -> int:
        team = self._team[current().pe]
        if team is not None:
            return team.pe_of(image)
        if not 1 <= image <= self.job.num_pes:
            raise CafError(
                f"image {image} out of range [1, {self.job.num_pes}] "
                f"(CAF images are 1-based)"
            )
        return image - 1

    # ------------------------------------------------------------------
    # Failed images (Fortran 2018, 16.9.{78,98})
    # ------------------------------------------------------------------
    def failed_images(self) -> tuple[int, ...]:
        """``failed_images()`` — 1-based indices (current team) of images
        that have failed, in increasing order."""
        reg = self.job.failed
        team = self._team[current().pe]
        if team is None:
            return tuple(p + 1 for p in reg.failed_pes())
        members = set(team.member_pes)
        return tuple(
            sorted(team.team_image_of(p) for p in reg.failed_pes() if p in members)
        )

    def image_status(self, image: int) -> int:
        """``image_status(image)`` — 0 for a live image,
        ``STAT_FAILED_IMAGE`` for a failed one."""
        pe = self.image_to_pe(image)
        return STAT_FAILED_IMAGE if self.job.failed.is_failed(pe) else 0

    def _failure_stat(self) -> int:
        """The ``stat=`` value of an image-control statement: nonzero iff
        some image of the current team has failed."""
        job = self.job
        if getattr(job, "survivable", False) and job.failed.count:
            if any(job.failed.is_failed(p) for p in self.team_pes()):
                return STAT_FAILED_IMAGE
        return 0

    def live_pes(self, pes) -> tuple[int, ...]:
        """Survivor subset of ``pes`` (identity unless survivable and at
        least one image has failed)."""
        job = self.job
        if not getattr(job, "survivable", False) or not job.failed.count:
            return tuple(pes)
        return job.failed.survivors(tuple(pes))

    def _force_release_locks(self, pe: int) -> None:
        """Failure hook: force-release every lock the dying image holds
        (F2018 11.6.11 — a failed image's locks become unlocked).

        Runs from the engine's crash handler on the dying PE, before the
        failure is visible to survivors, so survivors never observe a
        dead holder without a recovery path in flight.
        """
        held = self._held[pe]
        if not held:
            return
        from repro.caf.locks import force_release

        for key, entry in list(held.items()):
            try:
                force_release(self, pe, key, entry)
            except Exception:  # a corrupt lock must not mask the crash
                pass
        held.clear()

    # ------------------------------------------------------------------
    # Team-aware collective building blocks
    # ------------------------------------------------------------------
    def agree(self, fingerprint: str, compute):
        """Collective agreement over the current team."""
        ctx = current()
        team = self._team[ctx.pe]
        if team is None:
            return self.job.collectives.agree(ctx, fingerprint, compute)
        return team.group.collectives.agree(
            ctx, fingerprint, compute, seq=team.group.next_seq(ctx.pe)
        )

    def barrier(self) -> None:
        """Quiet + barrier over the current team (``sync all``)."""
        team = self._team[current().pe]
        if team is None:
            self.layer.barrier_all()
        else:
            self.layer.team_barrier(team.group.barrier, team.num_images)

    def alloc_symmetric(self, shape, dtype) -> SymmetricArray:
        """Collective symmetric allocation over the current team.

        In the initial team this is the layer's ``shmalloc`` path; in a
        subteam, agreement and the synchronizing barrier run over the
        team only — the shared allocator still guarantees globally
        disjoint offsets.
        """
        team = self._team[current().pe]
        if team is None:
            return self.layer.alloc_array(shape, dtype)
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        shape = tuple(int(x) for x in shape)
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize if shape else dt.itemsize
        self.layer.engine.alloc_check(current())
        offset = self.agree(
            f"team{team.team_number}.alloc:{shape}:{dt.str}",
            lambda: self.job.symmetric_allocator.malloc(max(nbytes, 1)),
        )
        self.barrier()
        return SymmetricArray(self.layer, offset, shape, dt)

    def free_symmetric(self, array: SymmetricArray) -> None:
        """Collective release over the current team."""
        team = self._team[current().pe]
        if team is None:
            self.layer.free_array(array)
            return
        self.barrier()
        self.agree(
            f"team{team.team_number}.free:{array.byte_offset}",
            lambda: self.job.symmetric_allocator.free(array.byte_offset),
        )
        array._freed = True

    # ------------------------------------------------------------------
    # Managed (non-symmetric, remotely accessible) heap
    # ------------------------------------------------------------------
    def managed_alloc(self, pe: int, nbytes: int) -> int:
        """Allocate from image ``pe+1``'s managed heap; returns the byte
        offset *within the managed region* (what remote pointers pack)."""
        self._check_started()
        return self._managed_alloc[pe].malloc(nbytes)

    def managed_free(self, pe: int, offset: int) -> None:
        self._managed_alloc[pe].free(offset)

    def managed_byte_offset(self, offset: int) -> int:
        """Heap-absolute byte offset of a managed-region offset."""
        self._check_started()
        return self.managed_u8.byte_offset + offset

    # ------------------------------------------------------------------
    # Co-indexed section transfers (Sections IV-B and IV-C)
    # ------------------------------------------------------------------
    def _model_params(self, handle: SymmetricArray) -> dict:
        """Cost inputs for the 'model' planner (paper future work)."""
        from repro.sim.netmodel import NetworkModel

        conduit = self.layer.profile
        return {
            "elem_size": handle.itemsize,
            "o_call_us": conduit.o_put_us,
            "bandwidth_Bpus": self.job.machine.link_bandwidth_Bpus
            * conduit.bw_efficiency,
            "gap_fn": lambda es, sb: NetworkModel._gather_gap(conduit, es, sb),
        }

    def _ptr_view(self, handle: SymmetricArray, pe: int) -> np.ndarray | None:
        """Direct load/store view of a same-node target, if enabled and
        the backend exposes ``shmem_ptr`` (future-work fast path)."""
        if not self.use_shmem_ptr:
            return None
        shmem_ptr = getattr(self.layer, "shmem_ptr", None)
        if shmem_ptr is None:
            return None
        return shmem_ptr(handle, pe)

    def _ptr_cost(self, nbytes: int) -> float:
        m = self.job.machine
        return (
            0.5 * self.layer.profile.o_put_us
            + m.intra_latency_us
            + nbytes / m.intra_bandwidth_Bpus
        )

    def _plan_for(self, handle: SymmetricArray, shape: tuple[int, ...], key, algorithm):
        """Plan (and compile) a section access, via the LRU plan cache.

        Returns ``(sels, result_shape, plan, spec)``.  Only default-
        policy accesses are cached: an explicit per-call ``algorithm``
        override bypasses the cache entirely.  Keys include the dtype
        itemsize and the conduit's ``iput_native`` flag because both
        change the compiled spec (and, for ``auto``/``model``, the plan).
        """
        itemsize = handle.itemsize
        native = self.layer.profile.iput_native
        cache_key = None
        if algorithm is None and self._plan_cache_size > 0:
            ck = _canonical_key(key)
            if ck is not None:
                cache_key = (shape, ck, self.strided_policy, itemsize, native)
                with self._plan_cache_lock:
                    entry = self._plan_cache.get(cache_key)
                    if entry is not None:
                        self._plan_cache.move_to_end(cache_key)
                self.my_stats["plan_cache_hits" if entry is not None else "plan_cache_misses"] += 1
                if entry is not None:
                    return entry
        sels, rshape = normalize_selection(shape, key)
        algo = algorithm or self.strided_policy
        plan = make_plan(
            sels,
            shape,
            algo,
            iput_native=native,
            model_params=self._model_params(handle) if algo == "model" else None,
        )
        entry = (sels, rshape, plan, rma.build_spec(plan, itemsize))
        if cache_key is not None:
            with self._plan_cache_lock:
                self._plan_cache[cache_key] = entry
                self._plan_cache.move_to_end(cache_key)
                while len(self._plan_cache) > self._plan_cache_size:
                    self._plan_cache.popitem(last=False)
        return entry

    def plan_cache_info(self) -> dict:
        """Cache occupancy plus merged hit/miss counters (for tests)."""
        with self._plan_cache_lock:
            entries = len(self._plan_cache)
        merged = self.stats
        return {
            "entries": entries,
            "capacity": self._plan_cache_size,
            "hits": merged["plan_cache_hits"],
            "misses": merged["plan_cache_misses"],
        }

    def put_section(
        self,
        handle: SymmetricArray,
        shape: tuple[int, ...],
        image: int,
        key,
        value,
        *,
        algorithm: str | None = None,
    ) -> None:
        """``coarray(section)[image] = value``."""
        self._check_started()
        pe = self.image_to_pe(image)
        view = self._ptr_view(handle, pe)
        if view is not None:
            sels, rshape = normalize_selection(shape, key)
            # Intra-node direct store: one memcpy, no NIC, immediately
            # remotely complete (so no quiet needed).  Stores through
            # the pointer do not wake wait_until sleepers — same caveat
            # as hardware shmem_ptr.
            target = view.reshape(shape)
            data = np.broadcast_to(np.asarray(value, dtype=handle.dtype), rshape)
            target[key] = data.reshape(target[key].shape)
            ctx = current()
            ctx.clock.advance(self._ptr_cost(int(np.prod(rshape, dtype=np.int64)) * handle.itemsize if rshape else handle.itemsize))
            self.my_stats["ptr_put_calls"] += 1
            return
        off = _element_index(shape, key) if algorithm is None else None
        if off is not None:
            data = np.asarray(value, dtype=handle.dtype)
            # Exactly the one-element values the planned path accepts.
            if data.ndim == 0 or data.shape == (1,) * len(shape):
                self.layer.put(handle, data, pe, off)
                stats = self._stats[current().pe]
                stats["putmem_calls"] += 1
                stats["put_elems"] += 1
                if self.ordering == "caf":
                    self.layer.quiet()
                return
        sels, rshape, plan, spec = self._plan_for(handle, shape, key, algorithm)
        data = np.asarray(value, dtype=handle.dtype)
        if data.shape not in (rshape, tuple(s.count for s in sels)):
            try:
                data = np.broadcast_to(data, rshape)
            except ValueError:
                raise ValueError(
                    f"cannot broadcast value of shape {data.shape} to section {rshape}"
                ) from None
        data = data.reshape(tuple(s.count for s in sels))
        rma.execute_put(self.layer, handle, pe, plan, sels, data, self.my_stats, spec=spec)
        if self.ordering == "caf":
            # Paper Section IV-B: quiet after each put restores CAF's
            # ordered-RMA guarantee on OpenSHMEM's weaker model.
            self.layer.quiet()

    def get_section(
        self,
        handle: SymmetricArray,
        shape: tuple[int, ...],
        image: int,
        key,
        *,
        algorithm: str | None = None,
    ):
        """``value = coarray(section)[image]``."""
        self._check_started()
        pe = self.image_to_pe(image)
        view = self._ptr_view(handle, pe)
        if view is not None:
            sels, rshape = normalize_selection(shape, key)
            result = np.array(view.reshape(shape)[key], copy=True)
            ctx = current()
            ctx.clock.advance(self._ptr_cost(result.size * handle.itemsize))
            self.my_stats["ptr_get_calls"] += 1
            return result[()] if rshape == () else result.reshape(rshape)
        off = _element_index(shape, key) if algorithm is None else None
        if off is not None:  # one getmem, no plan cache or marshalling
            if self.ordering == "caf":
                self.layer.quiet()
            value = self.layer.get(handle, 1, pe, off)[0]
            stats = self._stats[current().pe]
            stats["getmem_calls"] += 1
            stats["get_elems"] += 1
            return value
        sels, rshape, plan, spec = self._plan_for(handle, shape, key, algorithm)
        if self.ordering == "caf":
            # Paper Section IV-B: quiet before each get so a prior put to
            # the same location is remotely complete first.
            self.layer.quiet()
        result = rma.execute_get(self.layer, handle, pe, plan, sels, self.my_stats, spec=spec)
        result = result.reshape(rshape)
        if rshape == ():
            return result[()]
        return result

    # ------------------------------------------------------------------
    # Synchronization (Section IV's direct mappings)
    # ------------------------------------------------------------------
    def sync_all(self, stat: list | None = None) -> int:
        """``sync all`` -> quiet + barrier over the current team.

        ``stat`` is the Fortran ``stat=`` out-argument: a one-element
        mutable sequence whose slot 0 receives 0 on success or
        ``STAT_FAILED_IMAGE`` if some image of the team has failed (the
        barrier itself completes among the survivors either way).  The
        status is also returned.
        """
        self._check_started()
        self.barrier()
        code = self._failure_stat()
        if stat is not None:
            stat[0] = code
        return code

    def sync_images(self, images, stat: list | None = None) -> int:
        """``sync images(list)``: pairwise synchronization.

        Each named image must also execute a ``sync images`` naming this
        image.  Implemented with remote atomic increments on a counter
        coarray plus local waits — 1-sided, as UHCAF does it.

        With ``stat=`` (a one-element mutable sequence), a failed
        partner does not hang or error-terminate the statement: the
        failed image is skipped, the survivors' pairwise syncs still
        complete, and slot 0 receives ``STAT_FAILED_IMAGE``.  Without
        ``stat=``, a failed partner raises
        :class:`~repro.runtime.failures.ImageFailedError` (the
        simulation's form of F2018 error termination).
        """
        self._check_started()
        ctx = current()
        me = ctx.pe
        if images == "*":
            targets = [p for p in self.team_pes() if p != me]
        else:
            targets = sorted({self.image_to_pe(i) for i in images})
        registry = self.job.failed if getattr(self.job, "survivable", False) else None
        expected = self._sync_expected[me]
        posted = self._sync_posted[me]
        tracer = self.job.tracer
        capture = tracer is not None and tracer.capture_sync
        code = 0
        # Post my arrival to every partner (their slot index = my pe).
        self.layer.quiet()  # my prior puts are visible before I signal
        live: list[int] = []
        for p in targets:
            if p == me:
                continue
            if registry is not None and registry.is_failed(p):
                code = STAT_FAILED_IMAGE
                if stat is None:
                    from repro.runtime.failures import raise_image_failed

                    raise_image_failed(ctx, "sync_images", p, registry, tracer)
                continue
            t_start = ctx.clock.now
            try:
                self.layer.atomic(self._sync_counters, p, me, "fadd", 1)
            except ImageFailedError:
                code = STAT_FAILED_IMAGE
                if stat is None:
                    raise
                continue
            live.append(p)
            posted[p] = posted.get(p, 0) + 1
            if capture:
                # Channel "si:<waiter>:<poster>" with a cumulative ticket:
                # the sanitizer draws an edge from each post to the wait
                # whose expected count covers it.
                tracer.record(
                    ctx.pe, "post", p, 0, t_start, ctx.clock.now,
                    meta=("po", f"si:{p}:{me}", posted[p]),
                )
        # Wait for every partner's matching arrival.
        for p in live:
            expected[p] = expected.get(p, 0) + 1
            t_start = ctx.clock.now
            try:
                self.layer.wait_until(
                    self._sync_counters, CMP_GE, expected[p], offset=p, target=p
                )
            except ImageFailedError:
                code = STAT_FAILED_IMAGE
                if stat is None:
                    raise
                continue
            if capture:
                tracer.record(
                    ctx.pe, "wait", p, 0, t_start, ctx.clock.now,
                    meta=("wa", f"si:{me}:{p}", expected[p]),
                )
        if stat is not None:
            stat[0] = code
        return code

    def sync_memory(self) -> None:
        """``sync memory`` — the F2008 memory fence: completes this
        image's outstanding RMA (segment ordering without a barrier)."""
        self._check_started()
        self.layer.quiet()
        self.layer.fence()

    # ------------------------------------------------------------------
    def context(self) -> PEContext:
        return current()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CafRuntime(backend={self.backend.name!r}, "
            f"strided={self.strided_policy!r}, ordering={self.ordering!r})"
        )


def attach(job: Job, **kwargs: Any) -> CafRuntime:
    """Attach a CAF runtime to a job (idempotent; kwargs only on first)."""
    if LAYER_NAME in job.layers:
        if kwargs:
            raise ValueError("CAF runtime already attached; cannot re-configure")
        return job.layers[LAYER_NAME]
    rt = CafRuntime(job, **kwargs)
    job.layers[LAYER_NAME] = rt
    return rt


def current_runtime() -> CafRuntime:
    """The CAF runtime of the calling image's job."""
    return current().job.get_layer(LAYER_NAME)
