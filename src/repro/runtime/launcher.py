"""The :class:`Job` object and the SPMD launcher.

A job is one SPMD run: ``num_pes`` PEs executing the same function on a
simulated machine.  The job owns everything the PEs share — the
topology and network cost model, each PE's remotely-accessible memory,
the collectively-managed symmetric heap allocator, the job-wide barrier,
and the communication-layer instances (:mod:`repro.shmem`,
:mod:`repro.gasnet`, ...) registered on it.

*How* the PEs execute is owned by the job's
:class:`~repro.engine.base.Engine` (``engine=`` parameter):

* ``engine=None`` / ``"threaded"`` (default) — the pooled
  thread-per-PE :class:`~repro.engine.threaded.ThreadedEngine`;
* ``engine=Scheduler(RandomWalk(seed))`` — one deterministic
  interleaving on the cooperative engine
  (:class:`~repro.engine.cooperative.CooperativeEngine`, which
  ``repro.explore.Scheduler`` names); ``engine="vt"`` is the same
  engine under the seedless virtual-time order;
* ``engine="event"`` — the thread-free discrete-event
  :class:`~repro.engine.event.EventEngine` for weak-scaling runs at
  thousands of PEs (PE bodies as step programs).

Failure handling: if any PE raises, the job aborts — every blocking
primitive polls the abort flag — and the launcher raises a
:class:`JobFailure` carrying *every* per-PE failure record after all
PE bodies have exited, so a crash in one image can never deadlock the
run and no failure is silently discarded.

Fault injection: ``Job(..., faults=FaultPlan(...))`` attaches a
deterministic :class:`~repro.sim.faults.FaultInjector`; the engines
consult it per operation.  ``watchdog_s`` configures the wall-clock
stall deadline of the always-on :class:`~repro.sim.faults.Watchdog`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.runtime.failures import FailedImageRegistry
from repro.runtime.sync import CollectiveState, VirtualBarrier
from repro.sim.faults import FaultInjector, FaultPlan, Watchdog
from repro.sim.machines import get_machine
from repro.sim.netmodel import NetworkModel
from repro.sim.topology import Machine, Topology
from repro.util.allocator import FreeListAllocator

DEFAULT_HEAP_BYTES = 4 * 1024 * 1024


class JobAborted(RuntimeError):
    """Raised inside surviving PEs when a sibling PE has failed."""


class JobFailure(RuntimeError):
    """One or more PEs failed; carries every per-PE failure record.

    ``failures`` is a list of ``(pe, exception)`` tuples sorted by PE
    rank.  The exception message keeps the historical
    ``PE {pe} failed: {exc!r}`` prefix (for the lowest-ranked failing
    PE) and the instance is raised ``from`` that PE's exception, so
    ``__cause__`` preserves the root cause's type and traceback.
    """

    def __init__(self, failures: Sequence[tuple[int, BaseException]]) -> None:
        if not failures:
            raise ValueError("JobFailure requires at least one failure record")
        self.failures = sorted(failures, key=lambda f: f[0])
        pe, exc = self.failures[0]
        extra = ""
        if len(self.failures) > 1:
            extra = f" (+{len(self.failures) - 1} more PE failure(s))"
        super().__init__(f"PE {pe} failed: {exc!r}{extra}")

    @property
    def pe(self) -> int:
        """Rank of the lowest-numbered failing PE."""
        return self.failures[0][0]


class Job:
    """Shared state of one SPMD run."""

    def __init__(
        self,
        num_pes: int,
        machine: Machine | str = "stampede",
        *,
        heap_bytes: int = DEFAULT_HEAP_BYTES,
        faults: FaultPlan | FaultInjector | None = None,
        watchdog_s: float | None = None,
        engine: Any = None,
        survivable: bool = False,
    ) -> None:
        # Resolve the engine before sizing anything: the PE ceiling is
        # the engine's (4096 threads for the thread-backed engines, more
        # for the thread-free event engine), and per-PE memories must
        # not be allocated for a count we are about to reject.
        from repro.engine import resolve_engine

        self.engine = resolve_engine(engine)
        max_pes = self.engine.max_pes
        if not 1 <= num_pes <= max_pes:
            raise ValueError(
                f"num_pes must be in [1, {max_pes}] "
                f"(engine {self.engine.name!r})"
            )
        if isinstance(machine, str):
            machine = get_machine(machine)
        self.num_pes = num_pes
        self.machine = machine
        self.topology = Topology(machine, num_pes)
        self.heap_bytes = heap_bytes
        self.network = NetworkModel(self.topology)
        self.memories = self.engine.make_memories(num_pes, heap_bytes)
        # One shared allocator: symmetric allocation means every PE gets
        # the same offset, which a single metadata instance guarantees.
        self.symmetric_allocator = FreeListAllocator(heap_bytes)
        self._abort = threading.Event()
        self.barrier = VirtualBarrier(num_pes, aborted=self.aborted)
        self.collectives = CollectiveState(num_pes, aborted=self.aborted)
        # Failed-images model (Fortran 2018): with survivable=True an
        # injected crash marks the PE failed here instead of aborting
        # the job.  The registry always exists — failed_images() is just
        # empty in the default mode — but layers skip every registry
        # check unless survivable, keeping the clean-abort baseline
        # byte-for-byte.
        self.survivable = bool(survivable)
        self.failed = FailedImageRegistry(num_pes)
        #: Callables ``hook(pe)`` run on the dying PE when it becomes a
        #: failed image (before barrier excision) — e.g. CAF lock
        #: recovery registers here.
        self.failure_hooks: list[Callable[[int], None]] = []
        # Subset synchronization (OpenSHMEM active sets, CAF teams).
        from repro.runtime.groups import GroupRegistry

        self.groups = GroupRegistry(self)
        self.layers: dict[str, Any] = {}
        #: Live per-PE contexts, registered by :class:`PEContext` as PE
        #: tasks start — lets clock-aware schedule strategies
        #: (``VirtualTimeOrder``) read every PE's virtual clock.
        self.pe_contexts: dict[int, Any] = {}
        # Optional communication tracer (repro.trace.attach installs one).
        self.tracer = None
        # Optional deterministic fault injection (the engines gate all
        # fault logic behind one bound-at-bind dispatch).
        if faults is None:
            self.faults: FaultInjector | None = None
        elif isinstance(faults, FaultInjector):
            if faults.num_pes != num_pes:
                raise ValueError(
                    f"FaultInjector was built for {faults.num_pes} PEs, "
                    f"job has {num_pes}"
                )
            self.faults = faults
        else:
            self.faults = FaultInjector(faults, num_pes)
        # Always-on hang detection; wall-clock only, so it has zero
        # effect on virtual times unless it fires.
        self.watchdog = Watchdog(self, deadline_s=watchdog_s)
        self.engine.bind(self)

    # ------------------------------------------------------------------
    def aborted(self) -> bool:
        return self._abort.is_set()

    def abort(self) -> None:
        self._abort.set()

    def get_layer(self, name: str) -> Any:
        try:
            return self.layers[name]
        except KeyError:
            raise RuntimeError(
                f"communication layer {name!r} is not attached to this job; "
                f"attached: {sorted(self.layers)}"
            ) from None

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> list[Any]:
        """Run ``fn(*args, **kwargs)`` on every PE; return per-PE results.

        The function executes with a :class:`PEContext` installed so the
        module-level PGAS APIs resolve to this job.  If any PE fails, a
        :class:`JobFailure` carrying every ``(pe, exc)`` record is
        raised after all PE bodies have exited, with ``__cause__`` set
        to the lowest-ranked PE's exception.  Execution is delegated to
        the job's engine; bodies returning
        :class:`~repro.engine.steps.Step` programs are trampolined.
        """
        return self.engine.run(self, fn, args, kwargs)


def run_spmd(
    fn: Callable[..., Any],
    num_pes: int,
    machine: Machine | str = "stampede",
    *,
    heap_bytes: int = DEFAULT_HEAP_BYTES,
    faults: FaultPlan | FaultInjector | None = None,
    watchdog_s: float | None = None,
    engine: Any = None,
    survivable: bool = False,
    args: Sequence[Any] = (),
    kwargs: dict[str, Any] | None = None,
) -> list[Any]:
    """One-shot convenience: build a :class:`Job` and run ``fn`` on it.

    ``faults``, ``watchdog_s``, ``engine``, and ``survivable`` are
    forwarded to the :class:`Job`.
    """
    job = Job(
        num_pes,
        machine,
        heap_bytes=heap_bytes,
        faults=faults,
        watchdog_s=watchdog_s,
        engine=engine,
        survivable=survivable,
    )
    return job.run(fn, args=args, kwargs=kwargs)
