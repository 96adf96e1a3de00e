"""The failed-images model: surviving the loss of a PE.

Fortran 2018 introduced *failed images*: an image that stops
participating (a node crash, an OOM kill) no longer takes the whole
program down — surviving images observe the failure through
``failed_images()`` / ``image_status()`` / ``stat=STAT_FAILED_IMAGE``
and continue in degraded mode.  DART-MPI carves the same survivability
axis out of MPI-3 for PGAS runtimes, and POSH's process-per-PE model is
what makes single-PE death realistic (see PAPERS.md).  This module is
the job-side half of that model:

* :class:`FailedImageRegistry` — the per-job failed-PE set: a plain
  flag list under one lock, built by ``Job.__init__`` beside the abort
  flag and the job barrier.
* :class:`ImageFailedError` — the structured, initiator-side error for
  an operation targeting a failed PE (RMA, AMO, lock, AM, or a wait
  whose partner died).  Detection is *priced*: the initiator's virtual
  clock advances by the registry's ``detect_us`` before the error is
  raised, modeling the conduit's failure-detection latency (a NACK
  timeout, a health-check round trip).
* ``STAT_FAILED_IMAGE`` / ``STAT_STOPPED_IMAGE`` — the Fortran 2018
  ``stat=`` values surfaced by ``caf.sync_all(stat=True)`` and friends.

Only a job launched with ``survivable=True`` ever marks a PE failed
(an :class:`~repro.sim.faults.InjectedCrash`).  With the default
``survivable=False`` the registry stays empty and every check below is
one ``is None`` test — behavior is byte-for-byte the clean-abort
baseline.
"""

from __future__ import annotations

import threading
from typing import Iterable

#: ``stat=`` values (Fortran 2018 ``iso_fortran_env``).  The standard
#: only requires them to be positive and distinct; these particular
#: values are ours.
STAT_STOPPED_IMAGE = 6000
STAT_FAILED_IMAGE = 6001

#: Default failure-detection latency in virtual microseconds: what an
#: initiator pays to learn its target is dead (modeled as a NACK
#: timeout on the conduit, far above a round trip, far below a retry
#: budget's worth of backoff).
DEFAULT_DETECT_US = 25.0


class ImageFailedError(RuntimeError):
    """An operation targeted (or waited on) a failed PE.

    ``op`` names the operation, ``pe`` the initiator, ``target`` the
    failed PE (both 0-based).  Raised only in ``survivable=True`` jobs;
    callers like the replicated DHT catch it to fail over.
    """

    def __init__(self, op: str, pe: int, target: int) -> None:
        super().__init__(
            f"PE {pe}: {op} targets failed PE {target} "
            f"(image {target + 1} has failed)"
        )
        self.op = op
        self.pe = pe
        self.target = target


class FailedImageRegistry:
    """The per-job set of failed PEs.

    ``is_failed`` is the hot-path read: a single list index.  The
    communication layers additionally skip the registry entirely when
    the job is not survivable, so the fault-free fast path is untouched.
    """

    def __init__(self, num_pes: int, *, detect_us: float = DEFAULT_DETECT_US) -> None:
        self.num_pes = num_pes
        self.detect_us = detect_us
        self._flags = [False] * num_pes
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def mark_failed(self, pe: int) -> bool:
        """Record ``pe`` as failed; returns True if newly marked."""
        if not 0 <= pe < self.num_pes:
            raise ValueError(f"PE {pe} out of range [0, {self.num_pes})")
        with self._lock:
            if self._flags[pe]:
                return False
            self._flags[pe] = True
            return True

    def is_failed(self, pe: int) -> bool:
        return self._flags[pe]

    @property
    def count(self) -> int:
        return sum(self._flags)

    def failed_pes(self) -> tuple[int, ...]:
        """Sorted 0-based PEs currently marked failed."""
        with self._lock:
            return tuple(p for p, f in enumerate(self._flags) if f)

    def survivors(self, members: Iterable[int] | None = None) -> tuple[int, ...]:
        """Members (default: all PEs) not currently failed, in order."""
        pes = range(self.num_pes) if members is None else members
        return tuple(p for p in pes if not self.is_failed(p))

    # ------------------------------------------------------------------
    def price_detection(self, ctx) -> None:
        """Advance the initiator's virtual clock by the detection
        latency (called once per raised :class:`ImageFailedError`)."""
        ctx.clock.advance(self.detect_us)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FailedImageRegistry(num_pes={self.num_pes}, "
            f"failed={self.failed_pes()})"
        )


def raise_image_failed(ctx, op: str, target: int, registry: FailedImageRegistry,
                       tracer=None) -> None:
    """Price the detection latency, trace a ``fail`` record, and raise
    :class:`ImageFailedError` — the one code path every initiator-side
    detection site (RMA, AMO, AM, lock spin, targeted wait) goes
    through, so detection costs the same virtual time everywhere."""
    t0 = ctx.clock.now
    registry.price_detection(ctx)
    if tracer is not None:
        tracer.record(
            ctx.pe, "fail", target, 0, t0, ctx.clock.now,
            internal=True, meta=("f", op),
        )
    raise ImageFailedError(op, ctx.pe, target)


__all__ = [
    "DEFAULT_DETECT_US",
    "FailedImageRegistry",
    "ImageFailedError",
    "STAT_FAILED_IMAGE",
    "STAT_STOPPED_IMAGE",
    "raise_image_failed",
]
