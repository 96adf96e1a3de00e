"""The correctness harness: schedules and fault plans over one corpus.

:func:`explore` runs one corpus program under N schedules and checks
the program's contract:

* race-free programs must produce **one** canonical digest across every
  schedule tried (bit-identical results, whatever the interleaving);
* seeded racy programs must produce a **divergent** digest within the
  budget — a concrete witness that cross-validates the PR-2 ordering
  sanitizer with an executed interleaving, not a static trace argument.

Any divergence is packaged as a :class:`DivergenceWitness`: the full
recorded choice list (replayable via
:class:`~repro.explore.scheduler.ReplaySchedule`), a *minimized* prefix
(binary search over :class:`~repro.explore.scheduler.GuidedPrefix` for
the shortest forced prefix that still reproduces a non-baseline
digest), and a first-divergence trace diff between the baseline and
divergent interleavings.

``explore(..., faults=name)`` instead runs the program under a named
:class:`~repro.sim.faults.FaultPlan` (:func:`fault_plan`) and classifies
each fault cell as exactly one of:

* ``identical`` — the run completes with the fault-free baseline's
  digest, at *strictly larger* virtual time whenever anything was
  injected (retransmission and latency cost virtual time; they must
  never corrupt data);
* ``aborted`` — the run raises a :class:`JobFailure` whose root cause
  is structured (:data:`STRUCTURED_CAUSES`);
* ``degraded`` — a survivable program completes without the crashed
  PE: survivors see ``STAT_FAILED_IMAGE``, re-read every acknowledged
  write intact, and their merged digest is the same on the threaded
  engine and on a seeded cooperative walk;
* ``violation`` — anything else: a digest mismatch (silent
  corruption), an unstructured failure, a clock that did not grow
  under injection, a lost acked write.  A wall-clock hang becomes a
  structured :class:`HangError` after the fault runs' 60 s watchdog
  deadline (:data:`~repro.explore.programs.FAULT_DEADLINE_S`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.explore.programs import ExploreProgram, ProgramRun, get_program
from repro.explore.scheduler import (
    DEFAULT_MAX_STEPS,
    ExhaustiveEnumerator,
    GuidedPrefix,
    RandomWalk,
    ReplaySchedule,
    Scheduler,
    Strategy,
    make_strategy,
)
from repro.runtime.launcher import JobFailure
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    HangError,
    InjectedCrash,
    TransientCommError,
)
from repro.util.allocator import OutOfMemoryError

#: Replays the minimizer may spend per witness (binary search uses
#: ~log2(len) of them; the rest is headroom for the verification runs).
DEFAULT_MINIMIZE_BUDGET = 24

#: Lines of trace diff kept in a witness.
_DIFF_CONTEXT = 4

#: Plan names :func:`explore` takes as ``faults=``.
FAULT_PLANS = ("mixed", "crash", "escalate", "survivable")

#: Root causes that count as a *clean, structured* abort.
STRUCTURED_CAUSES = (
    TransientCommError,
    InjectedCrash,
    HangError,
    OutOfMemoryError,
)

#: PE 1's crash op under the ``survivable`` plan.
SURVIVABLE_CRASH_AT = 40


@dataclass(slots=True)
class ScheduleOutcome:
    """One schedule's result, or one fault cell's.

    A fault cell also carries its ``status`` (``identical``,
    ``aborted``, ``degraded`` or ``violation``), the injector's
    ``summary()`` and the elapsed virtual µs of the run and of the
    fault-free baseline; ``error`` then names the abort's root cause or
    the violation."""

    index: int
    strategy: dict
    digest: str
    steps: int
    choices: list[str]
    error: str | None = None
    status: str | None = None
    injected: dict = field(default_factory=dict)
    elapsed_us: float | None = None
    baseline_us: float | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "strategy": self.strategy,
            "digest": self.digest,
            "steps": self.steps,
            "error": self.error,
            "status": self.status,
            "injected": self.injected,
            "elapsed_us": self.elapsed_us,
            "baseline_us": self.baseline_us,
        }


@dataclass(slots=True)
class DivergenceWitness:
    """A replayable divergence: two interleavings, two digests."""

    program: str
    strategy: dict
    baseline_digest: str
    divergent_digest: str
    choices: list[str]
    minimized: list[str]
    trace_diff: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "strategy": self.strategy,
            "baseline_digest": self.baseline_digest,
            "divergent_digest": self.divergent_digest,
            "choices": self.choices,
            "minimized": self.minimized,
            "trace_diff": self.trace_diff,
        }


@dataclass(slots=True)
class ExploreReport:
    """The explorer's verdict for one program."""

    program: str
    racy: bool
    strategy: str
    images: int
    machine: str
    schedules_run: int
    digests: dict[str, int]
    outcomes: list[ScheduleOutcome]
    witness: DivergenceWitness | None
    errors: list[str]
    exhausted: bool = False
    #: The fault plan's name; ``outcomes`` are then its cells.
    faults: str | None = None

    @property
    def diverged(self) -> bool:
        return len(self.digests) > 1

    @property
    def ok(self) -> bool:
        """Did the program meet its contract?

        Race-free: one digest, no errors.  Racy: a divergence was
        found (schedule-induced errors — e.g. a deadlock only some
        interleaving reaches — count as divergence too).  Under a
        fault plan: no cell is a violation.
        """
        if self.faults is not None:
            return all(o.status != "violation" for o in self.outcomes)
        if self.racy:
            return self.diverged
        return not self.diverged and not self.errors

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "racy": self.racy,
            "strategy": self.strategy,
            "faults": self.faults,
            "images": self.images,
            "machine": self.machine,
            "schedules_run": self.schedules_run,
            "exhausted": self.exhausted,
            "digests": self.digests,
            "diverged": self.diverged,
            "ok": self.ok,
            "errors": self.errors,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


# ---------------------------------------------------------------------------
# Single-schedule execution
# ---------------------------------------------------------------------------


def run_schedule(
    program: ExploreProgram,
    strategy: Strategy,
    *,
    images: int | None = None,
    machine: str = "stampede",
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: bool = False,
) -> tuple[ScheduleOutcome, Any]:
    """Run ``program`` once under ``strategy``; returns
    ``(outcome, tracer)``.

    A failing schedule (deadlock, livelock limit, kernel exception) is
    an *outcome*, not a crash: its digest is a stable rendering of the
    root cause, so error interleavings participate in divergence
    detection like any other result.
    """
    sched = Scheduler(strategy, max_steps=max_steps)
    n = program.default_images if images is None else images
    tracer = None
    try:
        run = program.run(sched, images=n, machine=machine, trace=trace)
        digest, tracer, error = run.digest, run.tracer, None
    except Exception as exc:  # JobFailure wraps the per-PE root cause
        cause = exc.__cause__ if exc.__cause__ is not None else exc
        error = f"{type(cause).__name__}: {cause}"
        digest = f"<failed:{type(cause).__name__}>"
    outcome = ScheduleOutcome(
        index=0,
        strategy=strategy.describe(),
        digest=digest,
        steps=sched.steps,
        choices=list(sched.trace),
        error=error,
    )
    return outcome, tracer


def replay(
    program_name: str,
    choices: list[str],
    *,
    images: int | None = None,
    machine: str = "stampede",
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: bool = False,
    guided: bool = False,
) -> tuple[ScheduleOutcome, Any]:
    """Re-execute one recorded interleaving and return its outcome.

    A witness's full ``choices`` list replays verbatim
    (``guided=False``); its ``minimized`` prefix was validated under
    :class:`GuidedPrefix` completion (follow the prefix, then run
    non-preemptively), so replay it with ``guided=True``.
    """
    program = get_program(program_name)
    strategy: Strategy = GuidedPrefix(choices) if guided else ReplaySchedule(choices)
    return run_schedule(
        program, strategy, images=images, machine=machine,
        max_steps=max_steps, trace=trace,
    )


# ---------------------------------------------------------------------------
# Trace diffing
# ---------------------------------------------------------------------------


def _op_stream(tracer: Any) -> list[list[str]]:
    return [
        [f"{e.op}->{e.target} ({e.nbytes}B)" for e in pe_events]
        for pe_events in tracer.events
    ]


def trace_diff(baseline: Any, divergent: Any) -> list[str]:
    """First-divergence summary between two tracers' op streams."""
    lines: list[str] = []
    base, div = _op_stream(baseline), _op_stream(divergent)
    for pe in range(max(len(base), len(div))):
        b = base[pe] if pe < len(base) else []
        d = div[pe] if pe < len(div) else []
        if b == d:
            continue
        k = 0
        while k < len(b) and k < len(d) and b[k] == d[k]:
            k += 1
        lines.append(f"PE {pe}: first differing op at #{k}")
        lo = max(0, k - 1)
        hi = k + _DIFF_CONTEXT
        lines.append(f"  baseline : {' ; '.join(b[lo:hi]) or '<end of trace>'}")
        lines.append(f"  divergent: {' ; '.join(d[lo:hi]) or '<end of trace>'}")
    if not lines:
        lines.append(
            "op streams identical per PE (divergence is in cross-PE "
            "delivery order)"
        )
    return lines


# ---------------------------------------------------------------------------
# Witness minimization
# ---------------------------------------------------------------------------


def minimize_witness(
    program: ExploreProgram,
    choices: list[str],
    baseline_digest: str,
    *,
    images: int | None,
    machine: str,
    max_steps: int,
    budget: int = DEFAULT_MINIMIZE_BUDGET,
) -> list[str]:
    """Shortest forced prefix of ``choices`` that still diverges.

    Binary search over :class:`GuidedPrefix` length; a prefix "works"
    when running it (then non-preemptively) produces a digest other
    than the baseline's.  Divergence is not strictly monotone in prefix
    length, so the result is verified and the full choice list is the
    fallback.
    """
    spent = 0

    def diverges(length: int) -> bool:
        nonlocal spent
        spent += 1
        outcome, _ = run_schedule(
            program, GuidedPrefix(choices[:length]), images=images,
            machine=machine, max_steps=max_steps,
        )
        return outcome.digest != baseline_digest

    lo, hi = 0, len(choices)
    if not diverges(hi):
        # Replay under non-preemptive completion does not reproduce
        # (rare: the tail mattered); keep the full recording.
        return list(choices)
    while lo < hi and spent < budget:
        mid = (lo + hi) // 2
        if diverges(mid):
            hi = mid
        else:
            lo = mid + 1
    if hi < len(choices) and not diverges(hi):
        return list(choices)
    return choices[:hi]


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


def explore(
    program_name: str,
    *,
    schedules: int = 20,
    seed: int = 2015,
    strategy: str = "random",
    images: int | None = None,
    machine: str = "stampede",
    max_steps: int = DEFAULT_MAX_STEPS,
    pct_depth: int = 3,
    faults: str | None = None,
    minimize: bool = True,
    collect_outcomes: bool = False,
) -> ExploreReport:
    """Run ``program_name`` under ``schedules`` interleavings.

    ``strategy`` is ``random`` (seeded walks; schedule *i* uses
    ``seed + i``), ``pct`` (priority schedules of depth ``pct_depth``),
    or ``exhaustive`` (DFS over every schedule — tiny programs only;
    stops early when the tree is exhausted).

    Exploration stops at the first divergence (that is the explorer's
    answer); the witness is then minimized and trace-diffed.

    ``faults`` names a fault plan from :data:`FAULT_PLANS` instead
    (see :func:`fault_plan`); the report's ``outcomes`` are then its
    cells.  ``mixed`` runs once per seed ``seed + i`` for
    ``i < schedules``, ``crash`` and ``escalate`` once at ``seed``, all
    on the threaded engine against one fault-free baseline;
    ``survivable`` runs once per seed on a survivable program.
    """
    program = get_program(program_name)
    n_images = program.default_images if images is None else images
    if faults is not None:
        return _fault_sweep(
            program, faults, schedules=schedules, seed=seed,
            images=n_images, machine=machine, max_steps=max_steps,
        )
    digests: dict[str, int] = {}
    outcomes: list[ScheduleOutcome] = []
    errors: list[str] = []
    witness: DivergenceWitness | None = None
    baseline: ScheduleOutcome | None = None
    enumerator = ExhaustiveEnumerator() if strategy == "exhaustive" else None
    runs = 0

    for i in range(schedules):
        if enumerator is not None:
            strat = enumerator.next_strategy()
            if strat is None:
                break
        else:
            strat = make_strategy(
                strategy, seed + i,
                **({"depth": pct_depth} if strategy == "pct" else {}),
            )
        outcome, _ = run_schedule(
            program, strat, images=n_images, machine=machine,
            max_steps=max_steps,
        )
        outcome.index = i
        runs += 1
        if enumerator is not None:
            enumerator.advance(strat)
        digests[outcome.digest] = digests.get(outcome.digest, 0) + 1
        if collect_outcomes:
            outcomes.append(outcome)
        if outcome.error is not None:
            errors.append(f"schedule {i}: {outcome.error}")
        if baseline is None:
            baseline = outcome
            continue
        if outcome.digest != baseline.digest and witness is None:
            witness = _build_witness(
                program, baseline, outcome, images=n_images, machine=machine,
                max_steps=max_steps, minimize=minimize,
            )
            break

    return ExploreReport(
        program=program.name,
        racy=program.racy,
        strategy=strategy,
        images=n_images,
        machine=machine,
        schedules_run=runs,
        digests=digests,
        outcomes=outcomes,
        witness=witness,
        errors=errors,
        exhausted=enumerator.exhausted if enumerator is not None else False,
    )


def _build_witness(
    program: ExploreProgram,
    baseline: ScheduleOutcome,
    divergent: ScheduleOutcome,
    *,
    images: int,
    machine: str,
    max_steps: int,
    minimize: bool,
) -> DivergenceWitness:
    minimized = list(divergent.choices)
    if minimize:
        minimized = minimize_witness(
            program, divergent.choices, baseline.digest, images=images,
            machine=machine, max_steps=max_steps,
        )
    diff: list[str] = []
    try:
        _, base_tr = run_schedule(
            program, ReplaySchedule(baseline.choices), images=images,
            machine=machine, max_steps=max_steps, trace=True,
        )
        _, div_tr = run_schedule(
            program, ReplaySchedule(divergent.choices), images=images,
            machine=machine, max_steps=max_steps, trace=True,
        )
        if base_tr is not None and div_tr is not None:
            diff = trace_diff(base_tr, div_tr)
    except Exception as exc:  # diffing is best-effort reporting
        diff = [f"<trace diff unavailable: {type(exc).__name__}: {exc}>"]
    return DivergenceWitness(
        program=program.name,
        strategy=divergent.strategy,
        baseline_digest=baseline.digest,
        divergent_digest=divergent.digest,
        choices=list(divergent.choices),
        minimized=minimized,
        trace_diff=diff,
    )


# ---------------------------------------------------------------------------
# Fault cells
# ---------------------------------------------------------------------------


def fault_plan(name: str, seed: int,
               crash_at: int = SURVIVABLE_CRASH_AT) -> FaultPlan:
    """The fault plan ``name`` at ``seed``.

    * ``mixed`` — transient failures the retry layer must absorb plus
      latency jitter, no escalation;
    * ``crash`` — PE 1 dies at its op ``crash_at`` (the sweep passes
      half of PE 1's op count in the fault-free baseline): the job must
      abort cleanly;
    * ``escalate`` — transients that exhaust the retry budget
      somewhere: the job must abort with a structured
      :class:`TransientCommError`;
    * ``survivable`` — PE 1 of a survivable job dies at its op
      ``crash_at``: the survivors must finish degraded-but-correct.
    """
    if name == "mixed":
        return FaultPlan(seed, transient_rate=0.15, max_failures=2,
                         latency_rate=0.25, latency_us=120.0)
    if name == "crash":
        return FaultPlan(seed, crash_at={1: crash_at}, latency_rate=0.1,
                         latency_us=40.0)
    if name == "escalate":
        return FaultPlan(seed, transient_rate=0.1, escalate_rate=0.04)
    if name == "survivable":
        return FaultPlan(seed, crash_at={1: crash_at})
    raise ValueError(f"unknown fault plan {name!r}; choose from {FAULT_PLANS}")


def fault_plans_for(program: ExploreProgram) -> tuple[str, ...]:
    """The plans that apply to ``program``: ``survivable`` to a
    survivable program, the other three to a race-free one, none to a
    racy one (its digest is not pinned even without faults)."""
    if program.racy:
        return ()
    return ("survivable",) if program.survivable else FAULT_PLANS[:3]


def _cell(plan: FaultPlan, engine: str, status: str, injected: dict, *,
          digest: str = "", error: str | None = None, sched: Any = None,
          elapsed_us: float | None = None,
          baseline_us: float | None = None) -> ScheduleOutcome:
    return ScheduleOutcome(
        index=0,
        strategy={"strategy": engine, "seed": plan.seed},
        digest=digest,
        steps=0 if sched is None else sched.steps,
        choices=[] if sched is None else list(sched.trace),
        error=error,
        status=status,
        injected=injected,
        elapsed_us=elapsed_us,
        baseline_us=baseline_us,
    )


def _fault_cell(program: ExploreProgram, plan: FaultPlan,
                baseline: ProgramRun, *, images: int,
                machine: str) -> ScheduleOutcome:
    """Run a non-survivable program once under ``plan`` on the threaded
    engine and classify it against the fault-free ``baseline``."""
    inj = FaultInjector(plan, images)
    try:
        run = program.run("threaded", images=images, machine=machine,
                          faults=inj)
    except JobFailure as jf:
        cause = jf.__cause__
        name = type(cause).__name__
        if isinstance(cause, STRUCTURED_CAUSES):
            return _cell(plan, "threaded", "aborted", inj.summary(),
                         digest=f"<failed:{name}>", error=f"{name}: {cause}")
        return _cell(plan, "threaded", "violation", inj.summary(),
                     digest=f"<failed:{name}>",
                     error=f"unstructured failure: {cause!r}")
    stats = inj.summary()
    error = None
    if run.digest != baseline.digest:
        error = ("silent corruption: result digest differs from "
                 "fault-free baseline")
    elif stats["injected_ops"] and not run.elapsed_us > baseline.elapsed_us:
        error = (f"virtual time not strictly larger under injection "
                 f"({run.elapsed_us} vs baseline {baseline.elapsed_us})")
    return _cell(plan, "threaded", "identical" if error is None else "violation",
                 stats, digest=run.digest, error=error,
                 elapsed_us=run.elapsed_us, baseline_us=baseline.elapsed_us)


def _survivor_breach(results: list) -> str | None:
    """How a completed survivable job broke its contract, if it did."""
    survivors = [r for r in results if r is not None]
    lost = [m for r in survivors for m in r["lost"]]
    if lost:
        return f"lost acked writes: {lost[:4]}"
    if len(survivors) < len(results) and any(
        r["stat"] == 0 or not r["failed"] for r in survivors
    ):
        return "crash fired but survivors saw no STAT_FAILED_IMAGE"
    return None


def _survivable_cell(program: ExploreProgram, plan: FaultPlan, *,
                     images: int, machine: str,
                     max_steps: int = DEFAULT_MAX_STEPS) -> ScheduleOutcome:
    """Run a survivable program under ``plan`` on the threaded engine and
    on a cooperative walk seeded with the plan's seed.

    Each job must *complete*, with the crashed PE's result slot ``None``,
    every survivor reporting ``STAT_FAILED_IMAGE`` and re-reading every
    acknowledged write intact; the survivor digest and the number of
    failed PEs must agree between the two engines.  A crash that never
    fires leaves every image running (status ``identical``)."""
    engines = "threaded+random"
    sched = Scheduler(RandomWalk(plan.seed), max_steps=max_steps)
    digests: dict[str, str] = {}
    dead: dict[str, int] = {}
    for column, engine in (("threaded", "threaded"), ("cooperative", sched)):
        inj = FaultInjector(plan, images)
        try:
            run = program.run(engine, images=images, machine=machine,
                              faults=inj)
            error = _survivor_breach(run.results)
        except JobFailure as jf:
            error = f"survivable job aborted: {jf.__cause__!r}"
        if error is not None:
            return _cell(plan, engines, "violation", inj.summary(),
                         error=f"[{column}] {error}")
        digests[column] = run.digest
        dead[column] = run.results.count(None)
    if len(set(digests.values())) != 1:
        error = f"survivor digests differ across engines: {digests}"
    elif len(set(dead.values())) != 1:
        error = f"crash fired on some engines only: {dead}"
    else:
        status = "degraded" if dead["threaded"] else "identical"
        return _cell(plan, engines, status, inj.summary(), digest=run.digest,
                     sched=sched, elapsed_us=run.elapsed_us)
    return _cell(plan, engines, "violation", inj.summary(), error=error)


def _fault_sweep(program: ExploreProgram, faults: str, *, schedules: int,
                 seed: int, images: int, machine: str,
                 max_steps: int) -> ExploreReport:
    if faults not in fault_plans_for(program):
        raise ValueError(
            f"fault plan {faults!r} does not apply to {program.name!r}; "
            f"its plans: {list(fault_plans_for(program))}"
        )
    seeds = [seed] if faults in ("crash", "escalate") else [
        seed + i for i in range(schedules)
    ]
    if program.survivable:
        cells = [
            _survivable_cell(program, fault_plan(faults, s), images=images,
                             machine=machine, max_steps=max_steps)
            for s in seeds
        ]
    else:
        # The baseline runs under an empty plan, so its injector counts
        # PE 1's ops: the crash lands halfway through them.
        probe = FaultInjector(FaultPlan(seed), images)
        baseline = program.run("threaded", images=images, machine=machine,
                               faults=probe)
        cells = [
            _fault_cell(program, fault_plan(faults, s, probe.op_index(1) // 2),
                        baseline, images=images, machine=machine)
            for s in seeds
        ]
    for i, cell in enumerate(cells):
        cell.index = i
    return ExploreReport(
        program=program.name,
        racy=program.racy,
        strategy=cells[0].strategy["strategy"],
        images=images,
        machine=machine,
        schedules_run=len(cells),
        digests=dict(Counter(c.digest for c in cells)),
        outcomes=cells,
        witness=None,
        errors=[f"cell {c.index}: {c.error}" for c in cells
                if c.status == "violation"],
        faults=faults,
    )
