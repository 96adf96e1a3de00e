"""CAF locks over one-sided communication (paper Section IV-D).

CAF locks are coarrays of ``lock_type``: an image may acquire/release
the lock *at any specific image* (``lock(lck[j])``).  OpenSHMEM's own
locks are a single logically-global entity, so the paper adapts the
MCS queue lock [Mellor-Crummey & Scott 1991] instead:

* Each lock variable is one 8-byte word — the queue **tail** — holding
  a packed remote pointer (20-bit image, 36-bit managed-heap offset,
  8 flag bits; :mod:`repro.util.bitpack`).
* A contender allocates a **qnode** (two 8-byte words: ``locked``,
  ``next``) from the managed non-symmetric heap, swings the tail to it
  with an atomic *fetch-and-store* (``shmem_swap``), links behind the
  previous tail by writing its ``next`` word, and spins **locally** on
  its own ``locked`` word.
* Release *compare-and-swaps* the tail back to nil (``shmem_cswap``);
  on failure a successor exists — wait for its link, then reset its
  ``locked`` word with a single put.
* A per-image hash table keyed ``(lock, image, index)`` maps held locks
  to their qnodes; an image holds at most M+1 qnodes for M held locks.

The module also provides the **test-and-set** baseline used by the
``craycaf`` reference backend (central word, exponential backoff): it
hammers the target image's atomic unit under contention, which is what
the MCS adaptation beats in the paper's Fig 8.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext

import numpy as np

from repro.caf.runtime import CafError, CafRuntime
from repro.comm.constants import CMP_EQ, CMP_NE
from repro.runtime.context import current
from repro.runtime.failures import ImageFailedError
from repro.runtime.launcher import JobAborted
from repro.util.bitpack import NIL, pack_remote_pointer, unpack_remote_pointer

#: qnode layout in the managed heap: two 8-byte words.
QNODE_BYTES = 16
_LOCKED_WORD = 0  # word index within the qnode
_NEXT_WORD = 1

#: A fresh qnode (locked=1, next=NIL); ``PEMemory.write`` copies it.
_QNODE_INIT = np.array([1, NIL], dtype=np.uint64)
_QNODE_INIT.flags.writeable = False

#: Locked-word states: 1 = waiting, 0 = lock handed over.  A dead MCS
#: holder that could not see its successor's link poisons its own qnode
#: instead; the successor claims the lock on observing it.
_POISON = 2

#: Wall-clock budget for the successor-side MCS rescue: the dead
#: holder's crash handler runs concurrently (threaded engine) and its
#: handoff/poison store lands within microseconds.
_RESCUE_DEADLINE_S = 2.0

_TAS_BACKOFF_START_US = 0.4
_TAS_BACKOFF_MAX_US = 204.8

_UNTRACED = nullcontext()  # what _machinery() returns without a tracer


class LockError(CafError):
    """Misuse of CAF locks (double acquire, unlock of unheld lock, ...)."""


class CafLock:
    """A coarray of ``lock_type`` variables.

    ``shape=()`` gives the common single lock per image
    (``type(lock_type) :: lck[*]``); a non-empty shape gives an array of
    locks per image (e.g. one per hash bucket in the DHT benchmark).
    """

    _ids = itertools.count(1)

    def __init__(self, runtime: CafRuntime, shape=()) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        self.shape = tuple(int(s) for s in shape)
        self.runtime = runtime
        n = 1
        for s in self.shape:
            n *= s
        self.size = n
        # Lock words start zeroed = NIL tail = unlocked.
        self.handle = runtime.alloc_symmetric((max(n, 1),), np.uint64)
        # A collectively-agreed identity for the held-locks hash table.
        self.lock_id = runtime.agree(
            f"caflock:{self.handle.byte_offset}", lambda: next(CafLock._ids)
        )

    # ------------------------------------------------------------------
    def _flat_index(self, index) -> int:
        shape = self.shape
        # The two common subscripts resolve without building tuples.
        if type(index) is int and len(shape) == 1 and 0 <= index < shape[0]:
            return index
        if type(index) is tuple and not index and not shape:
            return 0
        if isinstance(index, (int, np.integer)):
            idx = (int(index),) if self.shape else ()
        else:
            idx = tuple(index)
        if len(idx) != len(self.shape):
            raise IndexError(f"lock index {index!r} does not match shape {self.shape}")
        flat = 0
        for i, extent in zip(idx, self.shape):
            if not 0 <= i < extent:
                raise IndexError(f"lock index {index!r} out of bounds for {self.shape}")
            flat = flat * extent + i
        return flat

    def acquire(self, image: int, index=()) -> None:
        """``lock(lck[image])`` — acquire this lock *at* ``image``."""
        rt = self.runtime
        flat = self._flat_index(index)
        if rt.backend.lock_algorithm == "mcs":
            _mcs_acquire(rt, self, image, flat)
        else:
            _tas_acquire(rt, self, image, flat)

    def release(self, image: int, index=()) -> None:
        """``unlock(lck[image])``."""
        rt = self.runtime
        flat = self._flat_index(index)
        if rt.backend.lock_algorithm == "mcs":
            _mcs_release(rt, self, image, flat)
        else:
            _tas_release(rt, self, image, flat)

    def holding(self, image: int, index=()) -> bool:
        """Does *this image* currently hold the lock at ``image``?"""
        rt = self.runtime
        key = (self.lock_id, image, self._flat_index(index))
        return key in rt._held[current().pe]

    class _Guard:
        __slots__ = ("lock", "image", "index")

        def __init__(self, lock: "CafLock", image: int, index) -> None:
            self.lock = lock
            self.image = image
            self.index = index

        def __enter__(self) -> "CafLock._Guard":
            self.lock.acquire(self.image, self.index)
            return self

        def __exit__(self, *exc) -> None:
            self.lock.release(self.image, self.index)

    def guard(self, image: int, index=()) -> "CafLock._Guard":
        """Context manager: ``with lck.guard(j): ...``."""
        return self._Guard(self, image, index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CafLock(id={self.lock_id}, shape={self.shape})"


# ---------------------------------------------------------------------------
# MCS queue lock (the paper's algorithm)
# ---------------------------------------------------------------------------


def _held_key(lck: CafLock, image: int, flat: int) -> tuple[int, int, int]:
    return (lck.lock_id, image, flat)


def _machinery(rt: CafRuntime):
    """Context marking traced operations as lock-protocol machinery.

    The tail swaps, link puts, and handoff traffic synchronize *through*
    the lock word; the sanitizer must not treat them as user data
    conflicts.  Quiets issued inside remain quiesce points.
    """
    tracer = rt.job.tracer
    return tracer.sync_internal() if tracer is not None else _UNTRACED


def _record_lock(rt, op, tag, target_pe, t_start, lck, image, flat) -> None:
    """Emit a ``lock_acquire``/``lock_release`` sync record (sync-capture
    mode only) carrying the lock identity and the global acquisition
    ticket, which the sanitizer chains into release->acquire edges."""
    tracer = rt.job.tracer
    if tracer is None or not tracer.capture_sync:
        return
    ctx = current()
    hold_key = ("caf", lck.lock_id, image, flat)
    if op == "lock_acquire":
        ticket = tracer.begin_hold(hold_key, ctx.pe)
    else:
        ticket = tracer.end_hold(hold_key, ctx.pe)
    tracer.record(
        ctx.pe, op, target_pe, 0, t_start, ctx.clock.now,
        meta=(tag, lck.lock_id, image, flat, ticket), internal=False,
    )


def _mcs_acquire(rt: CafRuntime, lck: CafLock, image: int, flat: int) -> None:
    ctx = current()
    me_pe = ctx.pe
    me_image = me_pe + 1
    target_pe = rt.image_to_pe(image)
    key = _held_key(lck, image, flat)
    held = rt._held[me_pe]
    if key in held:
        raise LockError(
            f"image {me_image} already holds lock {lck.lock_id}[{flat}] at image {image}"
        )
    t_start = ctx.clock.now
    with _machinery(rt):
        # Allocate and initialize my qnode (locked=1, next=NIL).  The init
        # goes through the notifying write path because remote PEs will
        # later read/overwrite these words.
        qoff = rt.managed_alloc(me_pe, QNODE_BYTES)
        mem = rt.job.memories[me_pe]
        mem.write(rt.managed_byte_offset(qoff), _QNODE_INIT, timestamp=ctx.clock.now)
        my_ptr = pack_remote_pointer(me_image, qoff)
        # Swing the tail to me (atomic fetch-and-store = shmem_swap).
        pred = int(rt.layer.atomic(lck.handle, target_pe, flat, "swap", my_ptr))
        if pred != NIL:
            p = unpack_remote_pointer(pred)
            # Link behind the predecessor: write my pointer into its next word.
            rt.layer.put(
                rt.managed_u64,
                np.array([my_ptr], dtype=np.uint64),
                p.image - 1,
                offset=(p.offset // 8) + _NEXT_WORD,
            )
            rt.layer.quiet()
            # Spin locally on my qnode's locked word (the MCS property:
            # no remote polling while waiting).  ``target`` names the
            # predecessor: if it fails mid-protocol, the wait raises and
            # the rescue path decides whether the lock was handed over.
            try:
                rt.layer.wait_until(
                    rt.managed_u64, CMP_EQ, 0,
                    offset=qoff // 8 + _LOCKED_WORD, target=p.image - 1,
                )
            except ImageFailedError:
                if not _rescue_dead_pred(rt, p, qoff):
                    # Predecessor died queued behind a live holder: the
                    # queue link through it is unrecoverable.  The qnode
                    # stays allocated (successors may still link to it).
                    raise
    held[key] = (qoff, lck, target_pe)
    rt._stats[me_pe]["lock_acquires"] += 1
    _record_lock(rt, "lock_acquire", "la", target_pe, t_start, lck, image, flat)


def _mcs_release(rt: CafRuntime, lck: CafLock, image: int, flat: int) -> None:
    ctx = current()
    me_pe = ctx.pe
    me_image = me_pe + 1
    target_pe = rt.image_to_pe(image)
    key = _held_key(lck, image, flat)
    held = rt._held[me_pe]
    entry = held.pop(key, None)
    if entry is None:
        raise LockError(
            f"image {me_image} does not hold lock {lck.lock_id}[{flat}] at image {image}"
        )
    qoff = entry[0]
    my_ptr = pack_remote_pointer(me_image, qoff)
    t_start = ctx.clock.now
    # Writes from the critical section must be remotely complete before
    # the lock is visibly released.
    rt.layer.quiet()
    with _machinery(rt):
        old = int(rt.layer.atomic(lck.handle, target_pe, flat, "cswap", NIL, my_ptr))
        if old != my_ptr:
            # A successor swung the tail past me; wait for it to link itself.
            rt.layer.wait_until(rt.managed_u64, CMP_NE, NIL, offset=qoff // 8 + _NEXT_WORD)
            # Read my qnode's next link through the layer's local-read
            # path: a bare PEMemory.read_scalar here would be invisible
            # to the tracer, the stats, and the sanitizer.
            nxt_word = int(
                rt.layer.local_read_scalar(
                    rt.managed_u64, offset=qoff // 8 + _NEXT_WORD
                )
            )
            nxt = unpack_remote_pointer(nxt_word)
            # Hand the lock over: reset the successor's locked word.
            rt.layer.put(
                rt.managed_u64,
                np.array([0], dtype=np.uint64),
                nxt.image - 1,
                offset=(nxt.offset // 8) + _LOCKED_WORD,
            )
            rt.layer.quiet()
    rt.managed_free(me_pe, qoff)
    rt._stats[me_pe]["lock_releases"] += 1
    _record_lock(rt, "lock_release", "lr", target_pe, t_start, lck, image, flat)


def _rescue_dead_pred(rt: CafRuntime, p, qoff: int) -> bool:
    """Successor-side MCS recovery: the awaited predecessor failed.

    Returns True once this image holds the lock, through one of three
    doors — the dead holder's crash handler handed it over (our locked
    word went to 0), it poisoned its qnode before seeing our link (we
    claim), or the dead node received a posthumous handoff from a live
    holder (its locked word went to 0: F2018 unlocks a failed image's
    locks, and we, its linked successor, claim).  False means the dead
    node is an unrecoverable zombie mid-queue.

    Raw memory reads only: the predecessor is dead, so priced layer
    traffic toward it would itself raise.  The wall-clock bound covers
    the threaded engine, where the crash handler runs concurrently; on
    the cooperative engine the handler completed before this PE resumed,
    so the first iteration decides.
    """
    ctx = current()
    mymem = rt.job.memories[ctx.pe]
    my_locked = rt.managed_byte_offset(qoff) + 8 * _LOCKED_WORD
    dead_locked = rt.managed_byte_offset(p.offset) + 8 * _LOCKED_WORD
    deadmem = rt.job.memories[p.image - 1]
    deadline = time.monotonic() + _RESCUE_DEADLINE_S
    while True:
        if int(mymem.read_scalar(my_locked, np.uint64)) == 0:
            return True
        dead_word = int(deadmem.read_scalar(dead_locked, np.uint64))
        if dead_word in (_POISON, 0):
            mymem.write(
                my_locked, np.array([0], dtype=np.uint64),
                timestamp=ctx.clock.now,
            )
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.001)


def force_release(rt: CafRuntime, pe: int, key, entry) -> None:
    """Raw-mode release of a dead image's held lock (F2018 11.6.11).

    Runs from the engine's crash handler on the dying PE — before the
    failure is observable by survivors on the cooperative engine, and
    concurrently with them on the threaded engine — so it must not issue
    priced layer traffic or block.  All stores go straight to the
    backing memories, stamped at the dying image's crash time.
    """
    lock_id, image, flat = key
    qoff, lck, target_pe = entry
    ts = current().clock.now
    tmem = rt.job.memories[target_pe]
    word_addr = lck.handle.element_offset(flat)
    if qoff < 0:
        # TAS: the central word holds the dead holder's image number.
        # The guarded rmw leaves the word alone if a survivor already
        # stole it through the acquire loop's keyed cswap.
        me_image = pe + 1
        tmem.atomic_rmw(
            word_addr, np.uint64,
            lambda old: NIL if int(old) == me_image else old,
            timestamp=ts,
        )
        return
    # MCS: the dead image is the queue head.  Swing the tail back to
    # NIL if no successor has queued.
    my_ptr = pack_remote_pointer(pe + 1, qoff)
    old = int(
        tmem.atomic_rmw(
            word_addr, np.uint64,
            lambda cur: NIL if int(cur) == my_ptr else cur,
            timestamp=ts,
        )
    )
    if old in (my_ptr, NIL):
        return
    # A successor exists.  If it has linked, hand the lock over; if its
    # link is still in flight, poison this qnode's locked word so the
    # successor's failed wait claims the lock instead (_rescue_dead_pred).
    mymem = rt.job.memories[pe]
    base = rt.managed_byte_offset(qoff)
    nxt_word = int(mymem.read_scalar(base + 8 * _NEXT_WORD, np.uint64))
    if nxt_word != NIL:
        nxt = unpack_remote_pointer(nxt_word)
        rt.job.memories[nxt.image - 1].write(
            rt.managed_byte_offset(nxt.offset) + 8 * _LOCKED_WORD,
            np.array([0], dtype=np.uint64),
            timestamp=ts,
        )
    else:
        mymem.write(
            base + 8 * _LOCKED_WORD,
            np.array([_POISON], dtype=np.uint64),
            timestamp=ts,
        )


# ---------------------------------------------------------------------------
# Test-and-set baseline (Cray CAF reference model)
# ---------------------------------------------------------------------------


def _tas_acquire(rt: CafRuntime, lck: CafLock, image: int, flat: int) -> None:
    ctx = current()
    me_image = ctx.pe + 1
    target_pe = rt.image_to_pe(image)
    key = _held_key(lck, image, flat)
    held = rt._held[ctx.pe]
    if key in held:
        raise LockError(
            f"image {me_image} already holds lock {lck.lock_id}[{flat}] at image {image}"
        )
    t_start = ctx.clock.now
    backoff = _TAS_BACKOFF_START_US
    spin = rt.layer.engine.spin_yield
    with _machinery(rt), rt.job.watchdog.watch(
        ctx.pe, f"caf_lock[{flat}]@image{image} (tas acquire)"
    ) as guard:
        while True:
            # Check abort *before* each attempt: an aborted job must exit
            # promptly, not issue one more remote atomic first.
            if rt.job.aborted():
                raise JobAborted("job aborted while acquiring CAF lock")
            guard.poll()
            old = int(rt.layer.atomic(lck.handle, target_pe, flat, "cswap", me_image, NIL))
            if old == NIL:
                break
            # F2018 11.6.11: a failed image's locks become unlocked.
            # The crash handler force-releases the word; the keyed cswap
            # here closes the window where the holder is marked failed
            # but the release has not landed yet (steal from the dead).
            holder_pe = old - 1
            if (
                rt.job.survivable
                and 0 <= holder_pe < rt.job.num_pes
                and rt.job.failed.is_failed(holder_pe)
            ):
                stolen = int(
                    rt.layer.atomic(lck.handle, target_pe, flat, "cswap", me_image, old)
                )
                if stolen == old:
                    break
            ctx.clock.advance(backoff)
            backoff = min(backoff * 2, _TAS_BACKOFF_MAX_US)
            # Wall-clock yield on the threaded engine; cooperative spin
            # yield under a scheduler so priority strategies can demote
            # this spinner until the holder releases.
            spin(ctx, "lock_spin", target_pe)
    held[key] = (-1, lck, target_pe)  # no qnode for TAS
    rt._stats[ctx.pe]["lock_acquires"] += 1
    _record_lock(rt, "lock_acquire", "la", target_pe, t_start, lck, image, flat)


def _tas_release(rt: CafRuntime, lck: CafLock, image: int, flat: int) -> None:
    ctx = current()
    me_image = ctx.pe + 1
    target_pe = rt.image_to_pe(image)
    key = _held_key(lck, image, flat)
    held = rt._held[ctx.pe]
    if held.pop(key, None) is None:
        raise LockError(
            f"image {me_image} does not hold lock {lck.lock_id}[{flat}] at image {image}"
        )
    t_start = ctx.clock.now
    rt.layer.quiet()
    with _machinery(rt):
        old = int(rt.layer.atomic(lck.handle, target_pe, flat, "cswap", NIL, me_image))
    if old != me_image:
        raise LockError(
            f"lock word corrupted: expected holder {me_image}, found {old}"
        )
    rt._stats[ctx.pe]["lock_releases"] += 1
    _record_lock(rt, "lock_release", "lr", target_pe, t_start, lck, image, flat)
