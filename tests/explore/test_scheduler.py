"""The cooperative scheduler: determinism, replay, deadlock/livelock
detection, exhaustive enumeration, fault-plan composition."""

import numpy as np
import pytest

from repro import caf
from repro.explore import (
    DeadlockError,
    ExhaustiveEnumerator,
    ExploreProgram,
    GuidedPrefix,
    ProgramRun,
    RandomWalk,
    ReplaySchedule,
    ScheduleLimitError,
    Scheduler,
    Strategy,
    make_strategy,
    run_schedule,
    spin_hint,
)
from repro.runtime.context import current
from repro.runtime.launcher import JobFailure, run_spmd
from repro.sim.faults import FaultPlan, InjectedCrash


def _sched(seed: int, **kw) -> Scheduler:
    return Scheduler(RandomWalk(seed), **kw)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _counter_kernel():
    counter = caf.coarray((1,), np.int64)
    counter[:] = 0
    lck = caf.lock_type()
    caf.sync_all()
    for _ in range(2):
        caf.lock(lck, 1)
        counter.on(1)[0] = int(counter.on(1)[0]) + 1
        caf.unlock(lck, 1)
    caf.sync_all()
    return int(counter.on(1)[0])


def _conflict_kernel():
    me = caf.this_image()
    data = caf.coarray((2,), np.int64)
    data[:] = 0
    caf.sync_all()
    data.on(1)[0] = me
    caf.sync_all()
    return int(data.on(1)[0])


def _orphan_wait_kernel():
    me = caf.this_image()
    ev = caf.event_type()
    caf.sync_all()
    if me == 1:
        ev.wait()  # nobody ever posts
    return me


def _livelock_kernel():
    me = caf.this_image()
    flag = caf.coarray((1,), np.int64)
    flag[:] = 0
    caf.sync_all()
    if me == 1:
        while caf.atomic_ref(flag, 1) != 1:  # nobody ever defines it
            spin_hint()
    return me


# ---------------------------------------------------------------------------
# Determinism and replay
# ---------------------------------------------------------------------------


def test_same_seed_same_interleaving_and_result():
    runs = []
    for _ in range(2):
        sched = _sched(42)
        out = caf.launch(_counter_kernel, 3, engine=sched)
        runs.append((out, list(sched.trace), sched.steps))
    assert runs[0] == runs[1]
    assert runs[0][0] == [6, 6, 6]
    assert runs[0][2] > 0


def test_recorded_trace_replays_exactly():
    sched = _sched(7)
    out = caf.launch(_counter_kernel, 2, engine=sched)
    strategy = ReplaySchedule(sched.trace)
    replayed = Scheduler(strategy)
    out2 = caf.launch(_counter_kernel, 2, engine=replayed)
    assert out2 == out
    assert list(replayed.trace) == list(sched.trace)
    assert strategy.mismatches == 0


def test_different_seeds_reach_different_outcomes():
    # The conflict kernel is racy by construction: across seeds the
    # scheduler must expose more than one final value.
    finals = set()
    for seed in range(12):
        out = caf.launch(
            _conflict_kernel, 2, ordering="relaxed", engine=_sched(seed)
        )
        assert out[0] == out[1]  # read back after the closing barrier
        finals.add(out[0])
    assert finals == {1, 2}


def test_scheduler_is_single_use():
    sched = _sched(0)
    caf.launch(_counter_kernel, 2, engine=sched)
    with pytest.raises(RuntimeError, match="one-shot"):
        caf.launch(_counter_kernel, 2, engine=sched)


def test_guided_prefix_completes_nonpreemptively():
    sched = _sched(5)
    caf.launch(_counter_kernel, 2, engine=sched)
    cut = len(sched.trace) // 2
    guided = Scheduler(GuidedPrefix(sched.trace[:cut]))
    out = caf.launch(_counter_kernel, 2, engine=guided)
    assert out == [4, 4]  # race-free kernel: any completion is correct
    assert guided.trace[:cut] == sched.trace[:cut]


# ---------------------------------------------------------------------------
# Deadlock / livelock detection
# ---------------------------------------------------------------------------


def test_orphan_wait_is_reported_as_deadlock():
    with pytest.raises(JobFailure) as ei:
        caf.launch(_orphan_wait_kernel, 2, engine=_sched(3))
    kinds = [type(exc) for _, exc in ei.value.failures]
    assert DeadlockError in kinds
    deadlock = next(e for _, e in ei.value.failures if isinstance(e, DeadlockError))
    assert "PE 0 blocked" in str(deadlock)


def test_mismatched_barrier_is_reported_as_deadlock():
    def kernel():
        if caf.this_image() == 1:
            caf.sync_all()  # image 2 never arrives
        return caf.this_image()

    with pytest.raises(JobFailure) as ei:
        caf.launch(kernel, 2, engine=_sched(1))
    assert any(isinstance(e, DeadlockError) for _, e in ei.value.failures)


def test_spin_livelock_hits_step_limit():
    with pytest.raises(JobFailure) as ei:
        caf.launch(
            _livelock_kernel, 2,
            engine=Scheduler(RandomWalk(2), max_steps=800),
        )
    assert any(isinstance(e, ScheduleLimitError) for _, e in ei.value.failures)
    # At scale the message stays bounded: the choice count and the
    # first and last tokens, not one token per runnable image.
    with pytest.raises(JobFailure) as ei:
        caf.launch(
            _livelock_kernel, 48,
            engine=Scheduler(RandomWalk(2), max_steps=100),
        )
    msg = next(str(e) for _, e in ei.value.failures if isinstance(e, ScheduleLimitError))
    assert len(msg) < 400 and "48 choices" in msg, msg


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def test_make_strategy_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("simulated-annealing", 0)


def test_bogus_strategy_choice_is_rejected():
    class Bogus(Strategy):
        name = "bogus"

        def choose(self, step, choices):
            return "p999"

    with pytest.raises(JobFailure) as ei:
        caf.launch(_counter_kernel, 2, engine=Scheduler(Bogus()))
    assert any(
        isinstance(e, RuntimeError) and "strategy returned" in str(e)
        for _, e in ei.value.failures
    )


def test_pct_depth_changes_schedules():
    traces = set()
    for depth in (1, 2, 4):
        sched = Scheduler(make_strategy("pct", 11, depth=depth))
        caf.launch(_counter_kernel, 3, engine=sched)
        traces.add(tuple(sched.trace))
    # Same seed, different depths: at least two distinct interleavings.
    assert len(traces) >= 2


def test_exhaustive_enumeration_covers_and_terminates():
    def runner(engine, *, images, machine, trace=False, faults=None):
        out = caf.launch(
            _barrier_only_kernel, images, machine, engine=engine
        )
        return ProgramRun(repr(out), 0.0)

    prog = ExploreProgram("tiny", False, 2, "barrier-only", runner)
    enum = ExhaustiveEnumerator()
    digests = set()
    runs = 0
    while runs < 600:
        strat = enum.next_strategy()
        if strat is None:
            break
        outcome, _ = run_schedule(prog, strat)
        enum.advance(strat)
        digests.add(outcome.digest)
        runs += 1
    assert enum.exhausted, f"tree not exhausted after {runs} runs"
    assert runs >= 2  # there is more than one schedule of even this kernel
    assert digests == {repr([1, 2])}


def _barrier_only_kernel():
    caf.sync_all()
    return caf.this_image()


# ---------------------------------------------------------------------------
# Fault-plan composition
# ---------------------------------------------------------------------------


def test_fault_plan_composes_with_any_schedule():
    # Plan decisions are pure in (seed, pe, per-PE op index), so the
    # same plan must follow the program through any interleaving: a
    # race-free kernel keeps one digest across schedules under faults.
    plan = FaultPlan(seed=13, transient_rate=0.3, latency_rate=0.5)
    outs = []
    for seed in (1, 2, 3):
        outs.append(
            caf.launch(
                _counter_kernel, 2, faults=plan, engine=_sched(seed)
            )
        )
    assert outs[0] == outs[1] == outs[2] == [4, 4]


def test_injected_crash_is_schedule_independent():
    plan = FaultPlan(seed=5, crash_at={0: 2})
    kinds = set()
    for seed in (4, 9):
        with pytest.raises(JobFailure) as ei:
            caf.launch(_counter_kernel, 2, faults=plan, engine=_sched(seed))
        kinds.add(type(ei.value.failures[0][1]))
    assert kinds == {InjectedCrash}


# ---------------------------------------------------------------------------
# spin_hint on the threaded engine
# ---------------------------------------------------------------------------


def test_spin_hint_without_scheduler_is_a_sleep():
    def kernel():
        spin_hint()
        return current().pe

    assert run_spmd(kernel, 2) == [0, 1]
