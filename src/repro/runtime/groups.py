"""Synchronization over PE subsets.

OpenSHMEM's collectives take *active sets* (``PE_start``,
``logPE_stride``, ``PE_size``) and Fortran 2018 teams partition images;
both need barriers and agreement over subsets of a job's PEs.  This
module provides:

* :class:`GroupRegistry` — lazily-created, reusable
  :class:`~repro.runtime.sync.VirtualBarrier` and
  :class:`~repro.runtime.sync.CollectiveState` instances keyed by the
  (sorted) member tuple, shared by all members;
* :func:`active_set_pes` — the OpenSHMEM triplet expansion.

Subset collectives carry their own sequence space: each PE keeps one
collective counter *per group*, so group collectives interleave safely
with job-wide ones.
"""

from __future__ import annotations

import threading
import typing

from repro.runtime.sync import CollectiveState, VirtualBarrier

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import Job


def active_set_pes(pe_start: int, log_pe_stride: int, pe_size: int, num_pes: int) -> tuple[int, ...]:
    """Expand an OpenSHMEM active-set triplet into PE indices."""
    if pe_size < 1:
        raise ValueError("PE_size must be >= 1")
    if log_pe_stride < 0:
        raise ValueError("logPE_stride must be >= 0")
    stride = 1 << log_pe_stride
    pes = tuple(pe_start + i * stride for i in range(pe_size))
    if pes[0] < 0 or pes[-1] >= num_pes:
        raise ValueError(
            f"active set ({pe_start}, {log_pe_stride}, {pe_size}) escapes "
            f"[0, {num_pes})"
        )
    return pes


class _GroupSync:
    """Barrier + collective agreement + per-PE sequence for one group."""

    def __init__(self, job: "Job", members: tuple[int, ...]) -> None:
        self.members = members
        self.barrier = VirtualBarrier(
            len(members), aborted=job.aborted, members=members
        )
        # A group formed after an image has already failed must not wait
        # for the dead member (survivable mode only; the set is final at
        # failure time — later deaths excise via Engine.on_pe_failed).
        if job.survivable:
            for pe in members:
                if job.failed.is_failed(pe):
                    self.barrier.exclude(pe)
        self.collectives = CollectiveState(len(members), aborted=job.aborted)
        # Per-member collective sequence numbers for this group (indexed
        # by position in `members`; each slot touched only by its owner).
        self._seq = {pe: 0 for pe in members}

    def next_seq(self, pe: int) -> int:
        seq = self._seq[pe]
        self._seq[pe] = seq + 1
        return seq


class GroupRegistry:
    """Job-wide registry of subset synchronization state."""

    def __init__(self, job: "Job") -> None:
        self._job = job
        self._groups: dict[tuple[int, ...], _GroupSync] = {}
        self._lock = threading.Lock()

    def get(self, members: tuple[int, ...] | list[int]) -> _GroupSync:
        """The (shared) sync state for a member set; created on first
        use.  Every member must pass the same set."""
        key = tuple(sorted(set(int(m) for m in members)))
        if not key:
            raise ValueError("a group needs at least one member")
        if key[0] < 0 or key[-1] >= self._job.num_pes:
            raise ValueError(f"group members {key} escape [0, {self._job.num_pes})")
        with self._lock:
            group = self._groups.get(key)
            if group is None:
                group = _GroupSync(self._job, key)
                self._groups[key] = group
            return group

    def barriers(self) -> list[VirtualBarrier]:
        """Snapshot of every group barrier (for failed-PE excision)."""
        with self._lock:
            return [g.barrier for g in self._groups.values()]
