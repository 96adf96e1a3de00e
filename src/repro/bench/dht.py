"""Distributed hash table over coarray locks (paper Section V-C, Fig 9).

The DHT (after Maynard's one-sided comparison code the paper cites) is
both a benchmark and a small reusable data structure built purely on
the public CAF API:

* the table is a pair of coarrays (``keys``, ``values``), each image
  owning ``slots_per_image`` slots;
* a key hashes to an owning image and a home slot there; collisions
  probe linearly within the owner;
* every update takes the *coarray lock at the owning image* guarding
  the key's bucket (``lock(lck[owner])``) — the paper's "some form of
  atomicity ... achieved using coarray locks" — then read-modify-writes
  the slot with co-indexed accesses.

Under the MCS implementation, contended updates to one image queue
fairly; under the test-and-set baseline they hammer the owner's atomic
unit — the Fig 9 gap.
"""

from __future__ import annotations

import numpy as np

from repro import caf
from repro.bench.harness import CafConfig
from repro.runtime.context import current
from repro.runtime.failures import ImageFailedError

EMPTY_KEY = -1
#: Tombstone left by a reshard migration (or explicit delete): probes
#: continue past it, inserts may reuse it.
DELETED_KEY = -2


class DhtFullError(RuntimeError):
    """An image's slot region is full (probe wrapped around)."""


class DataLossError(RuntimeError):
    """Both replicas of some bucket range live on failed images: the
    data is unrecoverable and must not be silently dropped."""


def _mix(key: int) -> int:
    """64-bit splitmix-style hash (deterministic across images)."""
    z = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class DistributedHashTable:
    """An integer-keyed counting hash table distributed across images.

    Collective constructor: every image must create it together.
    ``update(key, delta)`` adds ``delta`` to the key's counter
    (inserting it on first touch); ``lookup(key)`` reads the counter.
    """

    def __init__(self, slots_per_image: int, locks_per_image: int = 1) -> None:
        if slots_per_image < 1 or locks_per_image < 1:
            raise ValueError("slots_per_image and locks_per_image must be >= 1")
        if locks_per_image > slots_per_image:
            raise ValueError("cannot have more locks than slots")
        self.slots_per_image = slots_per_image
        self.locks_per_image = locks_per_image
        self.keys = caf.coarray((slots_per_image,), np.int64)
        self.values = caf.coarray((slots_per_image,), np.int64)
        self.locks = caf.lock_type((locks_per_image,))
        self.keys[:] = EMPTY_KEY
        self.values[:] = 0
        caf.sync_all()

    # ------------------------------------------------------------------
    def home(self, key: int) -> tuple[int, int]:
        """(owning image, home slot) of ``key``."""
        h = _mix(int(key))
        image = h % caf.num_images() + 1
        slot = (h >> 20) % self.slots_per_image
        return image, slot

    def _lock_index(self, slot: int) -> int:
        return slot * self.locks_per_image // self.slots_per_image

    def _lock_span(self, lock_idx: int) -> int:
        """Number of slots guarded by bucket ``lock_idx``.

        When ``slots_per_image`` is not a multiple of ``locks_per_image``
        the spans are uneven, so the span must be counted from the slot
        mapping rather than derived from the floor quotient.
        """
        s, n = self.slots_per_image, self.locks_per_image
        first = (lock_idx * s + n - 1) // n
        end = ((lock_idx + 1) * s + n - 1) // n
        return end - first

    def update(self, key: int, delta: int = 1) -> int:
        """Add ``delta`` to ``key``'s counter; returns the new value.

        Takes the owner-image bucket lock for the whole probe sequence,
        so concurrent updates to colliding keys stay consistent.
        """
        key = int(key)
        if key == EMPTY_KEY:
            raise ValueError(f"key {EMPTY_KEY} is reserved for empty slots")
        image, home = self.home(key)
        lock_idx = self._lock_index(home)
        with self.locks.guard(image, lock_idx):
            slot = home
            for _ in range(self.slots_per_image):
                k = int(self.keys.on(image)[slot])
                if k == key:
                    new = int(self.values.on(image)[slot]) + delta
                    self.values.on(image)[slot] = new
                    return new
                if k == EMPTY_KEY:
                    self.keys.on(image)[slot] = key
                    self.values.on(image)[slot] = delta
                    return delta
                nxt = (slot + 1) % self.slots_per_image
                # Linear probing may cross into another lock's bucket;
                # keep the single-bucket locking discipline valid by
                # restricting probes to the home bucket's lock span.
                if self._lock_index(nxt) != lock_idx:
                    break
                slot = nxt
        raise DhtFullError(
            f"bucket {lock_idx} on image {image} is full "
            f"({self._lock_span(lock_idx)} slots)"
        )

    def lookup(self, key: int) -> int | None:
        """Current counter of ``key`` (locked read), or None if absent."""
        key = int(key)
        image, home = self.home(key)
        lock_idx = self._lock_index(home)
        with self.locks.guard(image, lock_idx):
            slot = home
            for _ in range(self.slots_per_image):
                k = int(self.keys.on(image)[slot])
                if k == key:
                    return int(self.values.on(image)[slot])
                if k == EMPTY_KEY:
                    return None
                nxt = (slot + 1) % self.slots_per_image
                if self._lock_index(nxt) != lock_idx:
                    return None
                slot = nxt
        return None

    def local_totals(self) -> tuple[int, int]:
        """(occupied slots, sum of counters) on this image."""
        keys = self.keys.local
        vals = self.values.local
        occupied = int(np.count_nonzero(keys != EMPTY_KEY))
        return occupied, int(vals[keys != EMPTY_KEY].sum())


# ---------------------------------------------------------------------------
# Replicated DHT (failed-images case study)
# ---------------------------------------------------------------------------

#: Region indices into the replicated table's lock array.
_PRIMARY = 0
_REPLICA = 1

#: Ring-state word layout: ``epoch << 32 | active_images``, stored in a
#: single int64 on image 1 so one atomic fetch reads a consistent pair.
_RING_EPOCH_SHIFT = 32
_RING_MASK = (1 << _RING_EPOCH_SHIFT) - 1
#: Reshard history depth (epoch 0 = construction).
_RING_MAX_EPOCHS = 8


def _ring_encode(epoch: int, m: int) -> int:
    return (epoch << _RING_EPOCH_SHIFT) | m


def _ring_decode(word: int) -> tuple[int, int]:
    return word >> _RING_EPOCH_SHIFT, word & _RING_MASK


class _HomeMoved(Exception):
    """A write validated its bucket under a stale ring epoch; retry."""


class ReplicatedHashTable:
    """A k=2 replicated DHT that survives the failure of any one image.

    Built purely on the public CAF API plus the failed-images model
    (``survivable=True`` launches): every bucket lives on its *primary*
    image and is mirrored into a *replica* region on the next image on
    the ring.  Updates write both copies (primary first, each under its
    own bucket lock — sequential, never nested, so a crash can strand
    at most one lock); reads prefer the primary and fail over to the
    replica when the primary has failed (``ImageFailedError``).  When a
    primary dies, its buckets are *re-homed*: the ring successor's
    replica region becomes authoritative and absorbs all further
    writes.

    An update is **acknowledged** — appended to the per-image ``acked``
    ledger and its new value returned — only once at least one copy
    landed on an image that was live at that moment.  A write that
    raised on one region may still have physically landed there, but
    only when that region's host died mid-operation, i.e. on a copy no
    reader will ever consult; counting it unacked is therefore safe.
    With both copies dead (two failures; beyond k=2) the update raises
    ``ImageFailedError`` and nothing is acked.

    Survivable jobs should launch with ``lock_algorithm="tas"``: TAS
    recovery from a dead holder is unconditional (central-word steal),
    while MCS has an unrecoverable queued-behind-a-live-holder case
    (see docs/MODEL.md §12).

    Beyond the PR-9 counter API (``update``/``lookup``), the table
    offers a last-writer-wins KV API (``put``/``get``) with two service
    hooks (docs/MODEL.md §13):

    * **per-bucket versions** — every mutation bumps an atomic version
      word for its bucket; ``get_versioned`` pairs the value with the
      version read under the same bucket lock, and ``probe_version``
      re-reads it with a single remote atomic.  An initiator-side cache
      entry is valid exactly while the version is unchanged.
    * **live resharding** — with ``ring_images=m`` keys initially home
      onto images ``1..m`` only; ``grow_ring(new_m)`` (one caller)
      bumps a shared epoch word, after which writers re-home, readers
      fall back through older ring sizes, and every image migrates its
      own re-homed items out via ``reshard_drain`` (freeze bucket →
      push-if-absent to the new home → tombstone the old copy) while
      clients keep issuing ops.  Ring-enabled tables are LWW-only:
      ``update`` raises (a counter delta cannot be migrated
      idempotently).
    """

    def __init__(self, slots_per_image: int, locks_per_image: int = 1,
                 ring_images: int | None = None) -> None:
        if caf.num_images() < 2:
            raise ValueError("ReplicatedHashTable needs at least 2 images")
        if slots_per_image < 1 or locks_per_image < 1:
            raise ValueError("slots_per_image and locks_per_image must be >= 1")
        if locks_per_image > slots_per_image:
            raise ValueError("cannot have more locks than slots")
        if ring_images is not None and not 1 <= ring_images <= caf.num_images():
            raise ValueError(
                f"ring_images must be in [1, {caf.num_images()}], got {ring_images}"
            )
        self.slots_per_image = slots_per_image
        self.locks_per_image = locks_per_image
        # region 0 = primary buckets owned here; region 1 = mirror of
        # the ring predecessor's primary buckets.
        self.keys = caf.coarray((2, slots_per_image), np.int64)
        self.values = caf.coarray((2, slots_per_image), np.int64)
        self.locks = caf.lock_type((2, locks_per_image))
        #: Per-bucket version words (flat: region * locks_per_image +
        #: lock index), bumped under the bucket lock on every mutation.
        self.versions = caf.coarray((2 * locks_per_image,), np.int64)
        self.keys[:] = EMPTY_KEY
        self.values[:] = 0
        self.versions[:] = 0
        self._ring_enabled = ring_images is not None
        #: Ring sizes by epoch, as far as this image has observed.
        self._ms: list[int] = [ring_images if self._ring_enabled
                               else caf.num_images()]
        self._epoch = 0
        if self._ring_enabled:
            self._ring = caf.coarray((1,), np.int64)
            self._hist = caf.coarray((_RING_MAX_EPOCHS,), np.int64)
            self._ring[:] = 0
            self._hist[:] = 0
            if caf.this_image() == 1:
                self._ring.local[0] = _ring_encode(0, ring_images)
                self._hist.local[0] = ring_images
        #: Per-image ledger of acknowledged counter writes
        #: ``(key, delta)`` — the survivable fault cells' "zero lost
        #: acked writes" evidence.
        self.acked: list[tuple[int, int]] = []
        #: Per-image ledger of acknowledged LWW puts ``(key, value)``.
        self.put_acked: list[tuple[int, int]] = []
        caf.sync_all()

    # ------------------------------------------------------------------
    # Ring state
    # ------------------------------------------------------------------

    def active_images(self) -> int:
        """Ring size under this image's current view."""
        return self._ms[self._epoch]

    def ring_epoch(self) -> int:
        """This image's view of the reshard epoch (0 = construction)."""
        return self._epoch

    def _absorb_ring(self, epoch: int, m: int) -> bool:
        """Fold a freshly-read ring word into the local view; returns
        True when the epoch advanced (backfilling skipped epochs from
        the history so readers can probe every historical home)."""
        if epoch <= self._epoch:
            return False
        for e in range(len(self._ms), epoch):
            self._ms.append(int(caf.atomic_ref(self._hist, 1, index=e)))
        if len(self._ms) == epoch:
            self._ms.append(m)
        self._epoch = epoch
        return True

    def refresh_ring(self) -> bool:
        """Re-read the shared ring word (one remote atomic); returns
        True when a reshard has happened since this image last looked.
        A failed ring host reads as "no news": the host is the only
        image that can publish a grow, so the last absorbed view is
        final once it is gone."""
        if not self._ring_enabled:
            return False
        try:
            epoch, m = _ring_decode(int(caf.atomic_ref(self._ring, 1)))
        except ImageFailedError:
            return False
        return self._absorb_ring(epoch, m)

    def grow_ring(self, new_m: int) -> int:
        """Grow the bucket ring to ``new_m`` home images (one caller —
        the reshard coordinator).  Publishes the new epoch; data moves
        as each image subsequently runs :meth:`reshard_drain`.  Returns
        the new epoch."""
        if not self._ring_enabled:
            raise ValueError("table was built without ring_images")
        self.refresh_ring()
        m = self.active_images()
        if not m < new_m <= caf.num_images():
            raise ValueError(
                f"new ring size {new_m} must grow beyond {m} and stay "
                f"within {caf.num_images()} images"
            )
        epoch = self._epoch + 1
        if epoch >= _RING_MAX_EPOCHS:
            raise ValueError(f"reshard history full ({_RING_MAX_EPOCHS} epochs)")
        # History first, then the epoch word: an image that sees the new
        # epoch can always resolve every intermediate ring size.
        caf.atomic_define(self._hist, 1, new_m, index=epoch)
        caf.atomic_define(self._ring, 1, _ring_encode(epoch, new_m))
        self._absorb_ring(epoch, new_m)
        return epoch

    def _home_under(self, key: int, m: int) -> tuple[int, int]:
        h = _mix(int(key))
        return h % m + 1, (h >> 20) % self.slots_per_image

    def home(self, key: int) -> tuple[int, int]:
        """(primary image, home slot) of ``key`` under the current ring
        (the home *slot* is ring-independent; only the image moves)."""
        return self._home_under(key, self.active_images())

    def secondary(self, image: int) -> int:
        """The replica host for ``image``'s buckets: next on the ring."""
        return image % caf.num_images() + 1

    def _lock_index(self, slot: int) -> int:
        return slot * self.locks_per_image // self.slots_per_image

    def _lock_span(self, lock_idx: int) -> tuple[int, int]:
        """[first slot, end slot) guarded by bucket ``lock_idx``."""
        s, n = self.slots_per_image, self.locks_per_image
        first = (lock_idx * s + n - 1) // n
        end = ((lock_idx + 1) * s + n - 1) // n
        return first, end

    # ------------------------------------------------------------------
    def _bump_version(self, image: int, region: int, lock_idx: int) -> None:
        caf.atomic_add(
            self.versions, image, 1, index=region * self.locks_per_image + lock_idx
        )

    def _validate_home(self, key: int, expect_primary: int) -> None:
        """Under-lock ring re-validation for client writes: re-read the
        shared epoch word; if a reshard re-homed ``key`` away from the
        bucket this write locked, raise :class:`_HomeMoved` (the caller
        releases and retries at the new home).  Reading the word while
        *holding* the bucket lock is what freezes a drained bucket: any
        writer that still lands here must have read a pre-grow epoch,
        and the drain serializes with it through this same lock."""
        try:
            epoch, m = _ring_decode(int(caf.atomic_ref(self._ring, 1)))
        except ImageFailedError:
            return  # dead ring host ⇒ the absorbed view is final
        self._absorb_ring(epoch, m)
        if self._home_under(key, self._ms[self._epoch])[0] != expect_primary:
            raise _HomeMoved

    def _mutate(self, image: int, region: int, home: int, key: int,
                op: str, operand: int | None,
                validate_primary: int | None = None) -> tuple[bool, int | None]:
        """Locked read-modify-write of one copy.

        ``op`` is ``add`` (counter delta), ``put`` (LWW set),
        ``put_if_absent`` (reshard migrate-in: an existing entry is
        newer and wins), or ``delete`` (tombstone, reshard migrate-out).
        Returns ``(mutated, value)``; bumps the bucket version word on
        every actual mutation.  Raises ``ImageFailedError`` if ``image``
        is (or becomes) failed, ``_HomeMoved`` if ``validate_primary``
        is given and a concurrent reshard re-homed ``key``, and
        ``DhtFullError`` when an insert finds no free slot."""
        lock_idx = self._lock_index(home)
        first, end = self._lock_span(lock_idx)
        with self.locks.guard(image, (region, lock_idx)):
            if validate_primary is not None and self._ring_enabled:
                self._validate_home(key, validate_primary)
            slot, tomb = home, -1
            for _ in range(end - first):
                k = int(self.keys.on(image)[region, slot])
                if k == key:
                    if op == "add":
                        new = int(self.values.on(image)[region, slot]) + operand
                        self.values.on(image)[region, slot] = new
                    elif op == "put":
                        new = operand
                        self.values.on(image)[region, slot] = new
                    elif op == "put_if_absent":
                        return False, int(self.values.on(image)[region, slot])
                    else:  # delete
                        new = None
                        self.keys.on(image)[region, slot] = DELETED_KEY
                        self.values.on(image)[region, slot] = 0
                    self._bump_version(image, region, lock_idx)
                    return True, new
                if k == EMPTY_KEY:
                    break
                if k == DELETED_KEY and tomb < 0:
                    tomb = slot
                nxt = slot + 1 if slot + 1 < end else first
                if nxt == home:
                    slot = -1  # wrapped: span exhausted
                    break
                slot = nxt
            else:
                slot = -1
            if op == "delete":
                return False, None
            if tomb >= 0:  # reuse the first tombstone seen on the probe path
                slot = tomb
            if slot >= 0:
                self.keys.on(image)[region, slot] = key
                self.values.on(image)[region, slot] = operand
                self._bump_version(image, region, lock_idx)
                return True, operand
        raise DhtFullError(
            f"bucket {lock_idx} (region {region}) on image {image} is full"
        )

    def _probe(self, image: int, region: int, home: int, key: int) -> int | None:
        """Locked read of one copy; None if absent."""
        return self._probe_versioned(image, region, home, key)[0]

    def _probe_versioned(
        self, image: int, region: int, home: int, key: int
    ) -> tuple[int | None, int | None]:
        """Locked read of one copy, paired with the bucket version read
        under the same lock (the pair a cache entry needs)."""
        lock_idx = self._lock_index(home)
        first, end = self._lock_span(lock_idx)
        found: int | None = None
        with self.locks.guard(image, (region, lock_idx)):
            slot = home
            for _ in range(end - first):
                k = int(self.keys.on(image)[region, slot])
                if k == key:
                    found = int(self.values.on(image)[region, slot])
                    break
                if k == EMPTY_KEY:
                    break
                nxt = slot + 1 if slot + 1 < end else first
                if nxt == home:
                    break
                slot = nxt
            if found is None:
                return None, None
            version = int(caf.atomic_ref(
                self.versions, image,
                index=region * self.locks_per_image + lock_idx,
            ))
        return found, version

    # ------------------------------------------------------------------
    @staticmethod
    def _check_key(key: int) -> int:
        key = int(key)
        if key < 0:
            raise ValueError(
                f"keys must be >= 0 ({EMPTY_KEY}/{DELETED_KEY} are reserved)"
            )
        return key

    def update(self, key: int, delta: int = 1) -> int:
        """Add ``delta`` to ``key``'s counter on both copies; returns
        the new value from the authoritative copy.

        Acks (ledger append) once either copy is written; raises
        ``ImageFailedError`` only when both copy hosts have failed.
        Unavailable on ring-enabled tables: a counter delta applied
        through the ``_HomeMoved`` retry loop is not idempotent, so a
        reshard could double-count it — use :meth:`put` instead.
        """
        if self._ring_enabled:
            raise ValueError(
                "update() is unavailable on ring-enabled tables "
                "(counter deltas cannot be migrated idempotently); use put()"
            )
        key = self._check_key(key)
        primary, home = self.home(key)
        new: int | None = None
        try:
            _, new = self._mutate(primary, _PRIMARY, home, key, "add", delta)
        except ImageFailedError:
            pass  # primary dead: the replica copy is now authoritative
        try:
            _, rnew = self._mutate(
                self.secondary(primary), _REPLICA, home, key, "add", delta
            )
            if new is None:
                new = rnew
        except ImageFailedError:
            if new is None:
                raise  # both copies lost — cannot acknowledge
        self.acked.append((key, delta))
        return new

    def put(self, key: int, value: int) -> None:
        """Last-writer-wins set of ``key`` on both copies; acks (ledger
        append) once either copy landed on a then-live image.

        Ring-aware: the primary write re-validates the ring epoch under
        the bucket lock, so a write racing a reshard either commits at
        the old home *before* the drain freezes that bucket (and is
        migrated), or observes the new epoch and retries at the new
        home.  Retrying a put is idempotent, which is why ring-enabled
        tables are LWW-only."""
        key = self._check_key(key)
        self.refresh_ring()
        while True:
            primary, home = self.home(key)
            written = False
            try:
                self._mutate(primary, _PRIMARY, home, key, "put", value,
                             validate_primary=primary)
                written = True
            except _HomeMoved:
                continue  # a reshard re-homed the key; retry there
            except ImageFailedError:
                pass
            try:
                self._mutate(
                    self.secondary(primary), _REPLICA, home, key, "put", value
                )
                written = True
            except ImageFailedError:
                if not written:
                    raise  # both copies lost — cannot acknowledge
            self.put_acked.append((key, value))
            return

    def get(self, key: int) -> int | None:
        """Value of ``key`` (locked read, primary copy preferred), or
        None.  Ring-aware: probes the current home first, then the home
        under every older ring size (a reshard drain may not have moved
        the key yet), then the current home once more — closing the
        race where the drain moved the key between the first two
        probes."""
        key = self._check_key(key)
        self.refresh_ring()
        ms = [self._ms[self._epoch]]
        ms += [m for m in reversed(self._ms[:-1]) if m not in ms]
        if len(ms) > 1:
            ms.append(ms[0])
        result = None
        for m in ms:
            result = self._get_under(key, m)
            if result is not None:
                return result
        return result

    def _get_under(self, key: int, m: int) -> int | None:
        primary, home = self._home_under(key, m)
        try:
            return self._probe(primary, _PRIMARY, home, key)
        except ImageFailedError:
            return self._probe(self.secondary(primary), _REPLICA, home, key)

    def lookup(self, key: int) -> int | None:
        """Counter of ``key`` (locked read, primary preferred), or None."""
        key = self._check_key(key)
        primary, home = self.home(key)
        try:
            return self._probe(primary, _PRIMARY, home, key)
        except ImageFailedError:
            return self._probe(self.secondary(primary), _REPLICA, home, key)

    # ------------------------------------------------------------------
    # Hot-key cache hooks
    # ------------------------------------------------------------------

    def get_versioned(self, key: int):
        """Like :meth:`get`, but additionally returns an opaque cache
        token when the value was read from a live primary copy under
        the current ring view: ``(value, token)``.  The token pairs the
        value with its bucket's version word, read under the same lock;
        :meth:`probe_version` later revalidates it with a single remote
        atomic read.  Returns ``(value, None)`` when the read fell back
        to a replica or an older ring epoch (not worth caching)."""
        key = self._check_key(key)
        self.refresh_ring()
        primary, home = self.home(key)
        lock_idx = self._lock_index(home)
        try:
            value, version = self._probe_versioned(primary, _PRIMARY, home, key)
        except ImageFailedError:
            return self.get(key), None
        if value is not None:
            token = (primary, _PRIMARY * self.locks_per_image + lock_idx,
                     version, self._epoch)
            return value, token
        return self.get(key), None

    def probe_version(self, token) -> bool:
        """Revalidate a cache token: True iff the cached value is still
        current.  Two checks, both needed:

        * **Epoch** (ring-enabled tables; one remote atomic): the ring
          epoch must still equal the token's.  A grown ring re-homes
          keys to images whose writes do not touch the old bucket — its
          version only changes when the drain's tombstone lands, so a
          version probe alone would serve stale hits through the
          grow→drain window.  The ring word is a single atomic: any
          write that re-homed *and completed* before this probe had to
          observe the new epoch before it wrote, so a probe that still
          reads the token's epoch can linearize before every such write.
        * **Bucket version** (one remote atomic): every mutation of any
          key in the bucket — including the drain's migrate-out
          tombstone — bumps the word under the bucket lock, so a match
          proves the bucket unchanged since :meth:`get_versioned`
          (versions are monotonic; no ABA).

        The version read is the cache hit's linearization point.  A
        failed host reads as False (the caller drops the entry and
        misses)."""
        image, vindex, version, epoch = token
        if self._ring_enabled:
            self.refresh_ring()
            if self._epoch != epoch:
                return False
        try:
            return int(caf.atomic_ref(self.versions, image, index=vindex)) == version
        except ImageFailedError:
            return False

    # ------------------------------------------------------------------
    # Live resharding
    # ------------------------------------------------------------------

    def reshard_drain(self) -> int:
        """Move every local primary entry whose home changed under the
        current ring view to its new home; returns the count moved.

        Per bucket: take the bucket lock once (after the grow is
        visible this *freezes* the bucket — any later client write
        re-validates the epoch under this same lock and retries at the
        new home instead), snapshot the entries that re-homed, release,
        then push each with put-if-absent to the new primary+replica (a
        client's LWW put that already raced ahead is newer and wins)
        and tombstone the old copies.  Locks are never nested, and the
        old entry is only deleted after the new copies landed, so a
        reader always finds the key at the new home, the old home, or
        both — never neither (readers probe new → old → new)."""
        if not self._ring_enabled:
            raise ValueError("table was built without ring_images")
        self.refresh_ring()
        me = caf.this_image()
        m = self.active_images()
        moved = 0
        for lock_idx in range(self.locks_per_image):
            first, end = self._lock_span(lock_idx)
            outgoing: list[tuple[int, int]] = []
            with self.locks.guard(me, (_PRIMARY, lock_idx)):
                for slot in range(first, end):
                    k = int(self.keys.local[_PRIMARY, slot])
                    if k < 0:
                        continue
                    if self._home_under(k, m)[0] != me:
                        outgoing.append((k, int(self.values.local[_PRIMARY, slot])))
            for key, value in outgoing:
                new_primary, new_home = self._home_under(key, m)
                landed = False
                try:
                    self._mutate(new_primary, _PRIMARY, new_home, key,
                                 "put_if_absent", value)
                    landed = True
                except ImageFailedError:
                    pass
                try:
                    self._mutate(self.secondary(new_primary), _REPLICA,
                                 new_home, key, "put_if_absent", value)
                    landed = True
                except ImageFailedError:
                    if not landed:
                        raise  # both new copies lost — abort, keep old copy
                home = self.home(key)[1]  # the home slot is ring-independent
                self._mutate(me, _PRIMARY, home, key, "delete", None)
                try:
                    self._mutate(self.secondary(me), _REPLICA, home, key,
                                 "delete", None)
                except ImageFailedError:
                    pass  # stale mirror on a dead image is unreachable
                moved += 1
        return moved

    # ------------------------------------------------------------------
    def acked_totals(self) -> dict[int, int]:
        """This image's acked writes folded per key."""
        totals: dict[int, int] = {}
        for key, delta in self.acked:
            totals[key] = totals.get(key, 0) + delta
        return totals

    def verify_acked(self) -> list[tuple[int, int, int | None]]:
        """Re-read every acked key; returns the mismatches
        ``(key, expected, found)`` — empty means zero lost acked writes
        (valid when this image's key space is disjoint from other
        writers', as in the survivable corpus programs)."""
        bad = []
        for key, expected in self.acked_totals().items():
            found = self.lookup(key)
            if found != expected:
                bad.append((key, expected, found))
        return bad

    def verify_acked_puts(self) -> list[tuple[int, int, int | None]]:
        """Re-read every key this image acked a put for; expected is the
        last acked value.  Returns mismatches ``(key, expected, found)``
        — empty means zero lost acked writes (valid when this image's
        key space is disjoint from other writers', as in the survivable
        corpus programs and the reshard-sweep kernels)."""
        last: dict[int, int] = {}
        for key, value in self.put_acked:
            last[key] = value
        bad = []
        for key, expected in sorted(last.items()):
            found = self.get(key)
            if found != expected:
                bad.append((key, expected, found))
        return bad

    def authoritative_items(self) -> list[tuple[int, int]]:
        """This image's authoritative (key, value) pairs: its primary
        region, plus its replica region when the ring predecessor has
        failed (those buckets re-homed here).  Sorted; collected from
        local memory only, so survivors can build a global digest
        without touching failed images.  Tombstoned slots are not
        items.  Raises :class:`DataLossError` when some failed image's
        replica host has *also* failed — that bucket range is gone and
        must not be silently dropped from the digest."""
        me = caf.this_image()
        n = caf.num_images()
        for f in caf.failed_images():
            if caf.image_status(self.secondary(f)) == caf.STAT_FAILED_IMAGE:
                raise DataLossError(
                    f"images {f} and {self.secondary(f)} both failed: the "
                    f"buckets homed on image {f} have no surviving copy"
                )
        regions = [_PRIMARY]
        pred = (me - 2) % n + 1
        if caf.image_status(pred) == caf.STAT_FAILED_IMAGE:
            regions.append(_REPLICA)
        pairs: list[tuple[int, int]] = []
        karr = self.keys.local
        varr = self.values.local
        for region in regions:
            mask = karr[region] >= 0
            pairs.extend(
                zip(karr[region][mask].tolist(), varr[region][mask].tolist())
            )
        return sorted(pairs)


# ---------------------------------------------------------------------------
# The Fig 9 benchmark
# ---------------------------------------------------------------------------


def dht_benchmark(
    machine: str,
    config: CafConfig,
    num_images: int,
    updates_per_image: int = 16,
    slots_per_image: int = 64,
    key_space: int = 1 << 30,
    seed: int = 2015,
    sanitize: bool = False,
    single_writer: bool = False,
    faults=None,
    watchdog_s: float | None = None,
) -> float:
    """Fig 9 cell: each image applies ``updates_per_image`` random
    updates; returns total elapsed virtual microseconds (max over
    images).

    With ``single_writer=True`` only image 1 runs the update loop (the
    others host table slots and idle in the barriers).  The per-update
    code path — bucket lock protocol, remote atomics, probing
    gets/puts across images — is identical, but every timed resource
    reservation is issued by one thread in program order, so the
    elapsed virtual time is independent of host thread scheduling.
    (With concurrent writers, contended locks, atomic units, and
    barrier fan-in resolve in wall-clock arrival order, which the OS
    scheduler reorders freely between runs.)  For the same reason the
    single-writer measurement advances past the setup barrier's
    resource residue first and stops *before* the closing barrier.
    The wall-clock benchmark suite uses this mode because it compares
    virtual times bitwise across execution engines.
    """

    def kernel() -> float:
        ctx = current()
        table = DistributedHashTable(slots_per_image)
        rng = np.random.default_rng(seed + caf.this_image())
        if single_writer and caf.this_image() != 1:
            keys = np.empty(0, dtype=np.int64)
        else:
            keys = rng.integers(0, key_space, size=updates_per_image)
        caf.sync_all()
        if single_writer:
            # Jump past the setup traffic's timeline reservations: the
            # construction barrier leaves scheduler-dependent
            # ``next_free`` residue on shared node resources, which
            # would otherwise leak into the first measured operations.
            ctx.clock.advance(1e4)
        t0 = ctx.clock.now
        for k in keys:
            table.update(int(k))
        t1 = ctx.clock.now
        caf.sync_all()
        return (t1 if single_writer else ctx.clock.now) - t0

    results = caf.launch(
        kernel, num_images, machine, sanitize=sanitize,
        faults=faults, watchdog_s=watchdog_s, **config.launch_kwargs()
    )
    return max(results)
