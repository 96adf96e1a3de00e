"""Deterministic schedule exploration for the simulated PGAS stack.

``repro.explore`` is the shuttle/Coyote corner of the repo: run a PGAS
program under a cooperative :class:`Scheduler` (the cooperative
engine, :class:`repro.engine.CooperativeEngine`) where every
sync/communication decision point (the same points the tracer and the
fault injector hook) yields to a pluggable :class:`Strategy`, so **one
seed names one exact interleaving** — replayable bit-for-bit from a
failure report.  On top, :func:`explore` drives N schedules per program
and checks the race-free corpus for bit-identical digests and the
seeded racy corpus for a concrete divergence witness; with ``faults=``
it runs the same corpus under named fault plans instead (bit-identical,
clean abort, or degraded-but-correct).

Entry points:

* ``python -m repro.explore --program dht --schedules 50 --seed 2015``
* ``python -m repro.explore --program dht rdht --faults mixed survivable``
* :func:`explore` / :func:`replay` — the library API;
* :func:`schedules` — a pytest parametrization decorator::

      from repro.explore import schedules

      @schedules(n=10, seed=7)
      def test_kernel_schedule_independent(schedule):
          out = caf.launch(kernel, 2, engine=schedule())
          assert out == expected

  Each parametrized case's ``schedule()`` builds a fresh single-use
  :class:`Scheduler` for that interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.explore.harness import (
    FAULT_PLANS,
    DivergenceWitness,
    ExploreReport,
    ScheduleOutcome,
    explore,
    fault_plan,
    minimize_witness,
    replay,
    run_schedule,
    trace_diff,
)
from repro.explore.programs import PROGRAMS, ExploreProgram, ProgramRun, get_program
from repro.explore.scheduler import (
    DEFAULT_MAX_STEPS,
    DeadlockError,
    ExhaustiveEnumerator,
    GuidedPrefix,
    PCTStrategy,
    RandomWalk,
    ReplaySchedule,
    ScheduleLimitError,
    Scheduler,
    Strategy,
    VirtualTimeOrder,
    make_strategy,
    spin_hint,
)

__all__ = [
    "DEFAULT_MAX_STEPS",
    "FAULT_PLANS",
    "DeadlockError",
    "DivergenceWitness",
    "ExhaustiveEnumerator",
    "ExploreProgram",
    "ExploreReport",
    "GuidedPrefix",
    "PCTStrategy",
    "PROGRAMS",
    "ProgramRun",
    "RandomWalk",
    "ReplaySchedule",
    "ScheduleLimitError",
    "ScheduleOutcome",
    "Scheduler",
    "Strategy",
    "VirtualTimeOrder",
    "explore",
    "fault_plan",
    "get_program",
    "make_strategy",
    "minimize_witness",
    "replay",
    "run_schedule",
    "schedules",
    "spin_hint",
    "trace_diff",
]


@dataclass(frozen=True)
class ScheduleCase:
    """One parametrized interleaving; calling it builds the (single-use)
    scheduler."""

    strategy: str
    seed: int
    max_steps: int = DEFAULT_MAX_STEPS
    pct_depth: int = 3

    def __call__(self) -> Scheduler:
        opts = {"depth": self.pct_depth} if self.strategy == "pct" else {}
        return Scheduler(
            make_strategy(self.strategy, self.seed, **opts),
            max_steps=self.max_steps,
        )

    def __repr__(self) -> str:
        return f"{self.strategy}-{self.seed}"


def schedules(
    n: int = 10,
    *,
    strategy: str = "random",
    seed: int = 2015,
    max_steps: int = DEFAULT_MAX_STEPS,
    pct_depth: int = 3,
):
    """Parametrize a test over ``n`` schedules.

    The test receives a ``schedule`` argument; ``schedule()`` returns a
    fresh :class:`Scheduler` (case *i* seeds its strategy with
    ``seed + i``) to pass as ``Job(..., engine=...)`` or
    ``caf.launch(..., engine=...)``.
    """
    import pytest

    cases = [ScheduleCase(strategy, seed + i, max_steps, pct_depth) for i in range(n)]
    return pytest.mark.parametrize(
        "schedule", cases, ids=[repr(c) for c in cases]
    )
