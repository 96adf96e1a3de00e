"""Coarray Fortran semantics as a Python runtime library.

This package is the paper's primary contribution rendered in Python: the
UHCAF runtime retargeted onto OpenSHMEM (and, for comparison, GASNet,
MPI-3.0 RMA, and a Cray-CAF reference model).  Python has no Fortran
front-end, so the API exposes exactly the runtime calls the OpenUH
compiler would emit for each CAF construct::

    import numpy as np
    from repro import caf

    def kernel():
        me = caf.this_image()          # this_image()
        n = caf.num_images()
        x = caf.coarray((4,), np.int64)  # integer :: x(4)[*]
        x[:] = me
        caf.sync_all()                   # sync all
        if me == 1:
            row = x.on(2)[:]             # x(:)[2]
            x.on(2)[0] = 99              # x(1)[2] = 99
        caf.sync_all()

    caf.launch(kernel, num_images=4, backend="shmem")

Co-indexed slices of any dimensionality work, planned by the paper's
strided algorithms (``naive`` / ``2dim`` / ``alldim`` / ``lastdim`` /
``matrix`` / ``auto`` / the cost-model ``model`` planner); CAF locks
use the MCS adaptation of Section IV-D; collectives, atomics, events,
``critical``, ``sync images``/``sync memory``, Fortran 2018 teams, and
non-symmetric (derived-type component) allocation are all provided.  Hybrid CAF+OpenSHMEM programs (paper
Section I) work by calling :mod:`repro.shmem` functions inside a CAF
kernel launched with the ``shmem`` backend.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.caf import atomics as _atomics
from repro.caf import collectives as _collectives
from repro.caf.allocation import (
    ManagedObject,
    atomic_remote,
    get_remote,
    put_remote,
)
from repro.caf.backends import BACKENDS, CafBackend, make_backend
from repro.caf.coarray import Coarray, CoindexedRef
from repro.caf.events import CafEvent
from repro.caf.locks import CafLock, LockError
from repro.caf.codimension import Codimensions
from repro.caf.runtime import (
    LAYER_NAME,
    CafError,
    CafRuntime,
    attach,
    current_runtime,
)
from repro.caf.teams import ChangeTeam, Team
from repro.caf import teams as _teams
from repro.runtime.failures import (
    STAT_FAILED_IMAGE,
    STAT_STOPPED_IMAGE,
    ImageFailedError,
)
from repro.runtime.launcher import DEFAULT_HEAP_BYTES, Job
from repro.util.bitpack import RemotePointer, pack_remote_pointer, unpack_remote_pointer

__all__ = [
    "Coarray",
    "CoindexedRef",
    "CafLock",
    "CafEvent",
    "CafRuntime",
    "CafBackend",
    "CafError",
    "LockError",
    "ManagedObject",
    "RemotePointer",
    "BACKENDS",
    "launch",
    "attach",
    "current_runtime",
    "this_image",
    "num_images",
    "coarray",
    "lock_type",
    "event_type",
    "nonsymmetric",
    "sync_all",
    "sync_images",
    "sync_memory",
    "failed_images",
    "image_status",
    "STAT_FAILED_IMAGE",
    "STAT_STOPPED_IMAGE",
    "ImageFailedError",
    "critical",
    "co_sum",
    "co_min",
    "co_max",
    "co_prod",
    "co_reduce",
    "co_broadcast",
    "atomic_define",
    "atomic_ref",
    "atomic_cas",
    "atomic_add",
    "atomic_fetch_add",
    "atomic_fetch_and",
    "atomic_fetch_or",
    "atomic_fetch_xor",
    "atomic_swap",
    "lock",
    "unlock",
    "Team",
    "ChangeTeam",
    "Codimensions",
    "form_team",
    "change_team",
    "get_team",
    "team_number",
    "get_remote",
    "put_remote",
    "atomic_remote",
    "pack_remote_pointer",
    "unpack_remote_pointer",
]


def _rt() -> CafRuntime:
    return current_runtime()


# ---------------------------------------------------------------------------
# Launch
# ---------------------------------------------------------------------------


def launch(
    fn: Callable[..., Any],
    num_images: int,
    machine: str = "stampede",
    *,
    backend: str | CafBackend = "shmem",
    profile: Any = None,
    strided: str | None = None,
    ordering: str = "caf",
    heap_bytes: int | None = None,
    managed_heap_bytes: int | None = None,
    lock_algorithm: str | None = None,
    use_shmem_ptr: bool = False,
    plan_cache_size: int | None = None,
    sanitize: bool = False,
    faults: Any = None,
    watchdog_s: float | None = None,
    engine: Any = None,
    survivable: bool = False,
    args: Sequence[Any] = (),
    kwargs: dict[str, Any] | None = None,
) -> list[Any]:
    """Run ``fn`` as a CAF program on ``num_images`` images.

    Parameters mirror the paper's experimental axes: ``machine`` (one of
    Table III), ``backend`` (``shmem``/``gasnet``/``mpi``/``craycaf``),
    ``profile`` (override the conduit, e.g. ``"mvapich2x-shmem"``),
    ``strided`` (``naive``/``2dim``/``alldim``/``lastdim``/``matrix``/
    ``auto``), ``ordering`` (``caf`` inserts the Section IV-B quiets,
    ``relaxed`` does not), and ``lock_algorithm`` (``mcs``/``tas``).
    ``plan_cache_size`` caps the runtime's LRU transfer-plan cache
    (``None`` keeps the default of 128; ``0`` disables caching).
    ``sanitize=True`` attaches a sync-capture tracer, runs the program,
    and then replays the trace through the happens-before ordering
    sanitizer (:mod:`repro.trace.sanitizer`), raising
    :class:`~repro.trace.sanitizer.OrderingViolation` on any finding.
    ``faults`` attaches a deterministic
    :class:`~repro.sim.faults.FaultPlan` (or a prebuilt
    :class:`~repro.sim.faults.FaultInjector`, so callers can read its
    statistics afterwards); ``watchdog_s`` overrides the wall-clock
    stall deadline of the hang watchdog.  ``engine`` selects the
    execution engine: ``"threaded"`` (default), ``"event"``, ``"vt"``,
    or an :class:`~repro.engine.Engine` instance such as
    ``Scheduler(RandomWalk(seed))`` (:class:`~repro.explore.Scheduler`:
    one strategy seed, one exact interleaving); see :mod:`repro.engine`.
    ``survivable=True`` enables the Fortran-2018 failed-images model: an
    injected crash marks the image *failed* instead of aborting the job;
    survivors keep running, ``failed_images()``/``image_status()``
    report the failures, image-control statements accept ``stat=``, and
    operations targeting a failed image raise
    :class:`~repro.runtime.failures.ImageFailedError`.
    Returns the per-image return values of ``fn``.
    """
    job = Job(
        num_images,
        machine,
        heap_bytes=DEFAULT_HEAP_BYTES if heap_bytes is None else heap_bytes,
        faults=faults,
        watchdog_s=watchdog_s,
        engine=engine,
        survivable=survivable,
    )
    rt_kwargs: dict[str, Any] = {
        "backend": backend,
        "profile": profile,
        "strided": strided,
        "ordering": ordering,
        "lock_algorithm": lock_algorithm,
        "use_shmem_ptr": use_shmem_ptr,
    }
    if managed_heap_bytes is not None:
        rt_kwargs["managed_heap_bytes"] = managed_heap_bytes
    if plan_cache_size is not None:
        rt_kwargs["plan_cache_size"] = plan_cache_size
    rt = attach(job, **rt_kwargs)
    tracer = None
    if sanitize:
        from repro.trace.events import attach as trace_attach

        tracer = trace_attach(job, capture_sync=True)

    def spmd_main(*a: Any, **kw: Any) -> Any:
        rt.startup()
        return fn(*a, **kw)

    results = job.run(spmd_main, args=args, kwargs=kwargs or {})
    if tracer is not None:
        from repro.trace.sanitizer import OrderingViolation, check_tracer

        report = check_tracer(tracer)
        if not report.ok:
            raise OrderingViolation(report)
    return results


# ---------------------------------------------------------------------------
# Intrinsics
# ---------------------------------------------------------------------------


def this_image() -> int:
    """``this_image()`` — 1-based image index."""
    return _rt().this_image()


def num_images() -> int:
    """``num_images()``."""
    return _rt().num_images()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def coarray(
    shape,
    dtype=np.float64,
    codim: "Codimensions | None" = None,
    stat: list | None = None,
) -> Coarray:
    """Allocate a coarray (``allocate(x(shape)[*])``); collective.

    Pass ``codim=Codimensions(extents=(2, 3))`` for a corank-3 coarray
    ``[2, 3, *]`` with cosubscript co-indexing via ``x.at(...)``.
    ``stat`` mirrors Fortran's ``allocate(..., stat=st)``: slot 0
    receives 0, or ``STAT_FAILED_IMAGE`` if some image of the team has
    failed (the survivors' allocation still completes).
    """
    arr = Coarray(_rt(), shape, dtype, codim=codim)
    if stat is not None:
        stat[0] = _rt()._failure_stat()
    return arr


def lock_type(shape=()) -> CafLock:
    """Declare a coarray of ``lock_type`` variables; collective."""
    return CafLock(_rt(), shape)


def event_type(shape=()) -> CafEvent:
    """Declare a coarray of ``event_type`` variables; collective."""
    return CafEvent(_rt(), shape)


def nonsymmetric(shape, dtype=np.float64) -> ManagedObject:
    """Allocate non-symmetric remotely-accessible data (a derived-type
    ``allocatable`` component); *not* collective — owner-local."""
    return ManagedObject(_rt(), shape, dtype)


# ---------------------------------------------------------------------------
# Synchronization
# ---------------------------------------------------------------------------


def sync_all(stat: list | None = None) -> int:
    """``sync all`` (``stat=`` takes a one-element mutable sequence:
    slot 0 receives 0 or ``STAT_FAILED_IMAGE``; also returned)."""
    return _rt().sync_all(stat=stat)


def sync_images(images, stat: list | None = None) -> int:
    """``sync images(list)`` — 1-based image list, or ``"*"``.

    With ``stat=``, failed partners are skipped and slot 0 receives
    ``STAT_FAILED_IMAGE``; without it a failed partner raises
    :class:`~repro.runtime.failures.ImageFailedError`.
    """
    return _rt().sync_images(images, stat=stat)


def failed_images() -> tuple[int, ...]:
    """``failed_images()`` — 1-based indices (current team) of failed
    images, in increasing order."""
    return _rt().failed_images()


def image_status(image: int) -> int:
    """``image_status(image)`` — 0 for a live image,
    ``STAT_FAILED_IMAGE`` for a failed one."""
    return _rt().image_status(image)


def sync_memory() -> None:
    """``sync memory`` — complete and order this image's RMA without a
    barrier (the F2008 memory fence)."""
    _rt().sync_memory()


def critical(name: str = "") -> "CafLock._Guard":
    """``critical ... end critical`` as a context manager.

    One image at a time executes the block; distinct construct names
    (F2018 named criticals) exclude independently (modulo hash-slot
    collisions).  Implemented as a compiler would: implicit lock_type
    variables declared at program start (the runtime pre-allocates a
    slot array in ``startup()``), acquired at image 1 of the current
    team — so criticals inside ``change team`` exclude per team.
    """
    rt = _rt()
    digest = 2166136261
    for ch in name.encode():
        digest = ((digest ^ ch) * 16777619) & 0xFFFFFFFF
    slot = digest % rt.critical_slots
    return rt._critical_locks.guard(1, index=slot)


def lock(lck: CafLock, image: int, index=()) -> None:
    """``lock(lck[image])``."""
    lck.acquire(image, index)


def unlock(lck: CafLock, image: int, index=()) -> None:
    """``unlock(lck[image])``."""
    lck.release(image, index)


# ---------------------------------------------------------------------------
# Teams (Fortran 2018; available in OpenUH per paper Section II-A)
# ---------------------------------------------------------------------------


def form_team(number: int) -> Team:
    """``form team(number, team)`` — collective over the current team;
    images passing equal numbers join the same new team."""
    return _teams.form_team(_rt(), number)


def change_team(team: Team) -> ChangeTeam:
    """``change team (team) ... end team`` as a context manager.

    Inside the block, ``this_image``/``num_images``/co-subscripts/
    ``sync all``/collectives and coarray allocation are team-scoped.
    """
    return ChangeTeam(_rt(), team)


def get_team() -> Team | None:
    """``get_team()`` — the current team (None = the initial team)."""
    return _rt().current_team()


def team_number() -> int:
    """``team_number()`` — -1 for the initial team (Fortran convention)."""
    team = _rt().current_team()
    return -1 if team is None else team.team_number


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


def co_sum(arr: np.ndarray, result_image: int | None = None) -> None:
    """``call co_sum(arr[, result_image])`` — in place."""
    _collectives.co_named(_rt(), arr, "sum", result_image)


def co_min(arr: np.ndarray, result_image: int | None = None) -> None:
    """``call co_min(arr[, result_image])`` — in place."""
    _collectives.co_named(_rt(), arr, "min", result_image)


def co_max(arr: np.ndarray, result_image: int | None = None) -> None:
    """``call co_max(arr[, result_image])`` — in place."""
    _collectives.co_named(_rt(), arr, "max", result_image)


def co_prod(arr: np.ndarray, result_image: int | None = None) -> None:
    """``call co_prod(arr[, result_image])`` — in place."""
    _collectives.co_named(_rt(), arr, "prod", result_image)


def co_reduce(arr: np.ndarray, op, result_image: int | None = None) -> None:
    """``call co_reduce(arr, op[, result_image])`` — in place; ``op`` is
    an associative, commutative elementwise binary callable."""
    _collectives.co_reduce(_rt(), arr, op, result_image)


def co_broadcast(arr: np.ndarray, source_image: int) -> None:
    """``call co_broadcast(arr, source_image)`` — in place."""
    _collectives.co_broadcast(_rt(), arr, source_image)


# ---------------------------------------------------------------------------
# Atomics
# ---------------------------------------------------------------------------


def atomic_define(atom: Coarray, image: int, value, index: int = 0) -> None:
    """``call atomic_define(atom[image], value)``."""
    _atomics.atomic_define(_rt(), atom, image, value, index)


def atomic_ref(atom: Coarray, image: int, index: int = 0) -> int:
    """``call atomic_ref(value, atom[image])``; returns the value."""
    return _atomics.atomic_ref(_rt(), atom, image, index)


def atomic_cas(atom: Coarray, image: int, compare, new, index: int = 0) -> int:
    """``call atomic_cas(atom[image], old, compare, new)``; returns old."""
    return _atomics.atomic_cas(_rt(), atom, image, compare, new, index)


def atomic_add(atom: Coarray, image: int, value, index: int = 0) -> None:
    """``call atomic_add(atom[image], value)``."""
    _atomics.atomic_add(_rt(), atom, image, value, index)


def atomic_fetch_add(atom: Coarray, image: int, value, index: int = 0) -> int:
    """``call atomic_fetch_add(atom[image], value, old)``; returns old."""
    return _atomics.atomic_fetch_add(_rt(), atom, image, value, index)


def atomic_fetch_and(atom: Coarray, image: int, value, index: int = 0) -> int:
    """``call atomic_fetch_and(atom[image], value, old)``; returns old."""
    return _atomics.atomic_fetch_and(_rt(), atom, image, value, index)


def atomic_fetch_or(atom: Coarray, image: int, value, index: int = 0) -> int:
    """``call atomic_fetch_or(atom[image], value, old)``; returns old."""
    return _atomics.atomic_fetch_or(_rt(), atom, image, value, index)


def atomic_fetch_xor(atom: Coarray, image: int, value, index: int = 0) -> int:
    """``call atomic_fetch_xor(atom[image], value, old)``; returns old."""
    return _atomics.atomic_fetch_xor(_rt(), atom, image, value, index)


def atomic_swap(atom: Coarray, image: int, value, index: int = 0) -> int:
    """Fetch-and-store; returns the old value."""
    return _atomics.atomic_swap(_rt(), atom, image, value, index)
