"""``VirtualTimeOrder`` picks off a ``(clock, PE)`` ready heap.

The cooperative engine offers every strategy the full choice list
except ``VirtualTimeOrder`` itself, whose pick it takes from a heap of
the runnable PEs.  :class:`ChoiceListVT` is the same order through the
list path, so every run here is made twice and the two executions must
agree token for token: trace, counters, results and digests.  The
heap run's strategy refuses to be asked, which proves no choice list
was built, and on the kvservice cell most decisions keep the turn
without a heap pick at all.  Also here: the heap's key guard, the step ceiling's default
rule, and the heap path's livelock limit.
"""

import pytest

from repro.bench.harness import CRAY_CAF, UHCAF_CRAY_SHMEM, UHCAF_GASNET
from repro.bench.kvservice import WorkloadSpec, run_cell
from repro.engine import EngineError
from repro.engine.cooperative import CooperativeEngine
from repro.explore import (
    DEFAULT_MAX_STEPS,
    PCTStrategy,
    ScheduleLimitError,
    Scheduler,
    VirtualTimeOrder,
    spin_hint,
)
from repro.explore.programs import PROGRAMS
from repro.runtime.context import current
from repro.runtime.launcher import Job, JobFailure, run_spmd
from repro.sim.faults import FaultPlan
from repro.trace import trace_digest
from tests.explore.test_golden_traces import KV_SPEC, run_fig8


class ChoiceListVT(VirtualTimeOrder):
    """``VirtualTimeOrder.choose`` over the full choice list: the engine
    keeps the heap for ``VirtualTimeOrder`` itself, not its subclasses."""


def _unasked(step, choices):
    raise AssertionError(f"VirtualTimeOrder was offered a choice list at step {step}")


def _both(run) -> list:
    """``run(sched)`` on the heap path, then on the list path; returns
    each run's trace, counters and result."""
    heap = VirtualTimeOrder()
    heap.choose = _unasked
    runs = []
    for strategy in (heap, ChoiceListVT()):
        sched = Scheduler(strategy)
        result = run(sched)
        runs.append({"trace": sched.trace, "stats": sched.stats, "result": result})
    return runs


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_corpus_program_runs_the_same_schedule(name):
    program = PROGRAMS[name]

    def run(sched):
        run = program.run(sched, images=program.default_images,
                          machine="stampede", trace=True)
        return run.digest, None if run.tracer is None else trace_digest(run.tracer)

    heap, listed = _both(run)
    assert heap == listed
    assert heap["stats"]["steps"] > 0


def test_kvservice_cell_runs_the_same_schedule(monkeypatch):
    picks = []
    pick_vt = CooperativeEngine._pick_vt

    def counted(self):
        picks.append(self.steps)
        return pick_vt(self)

    monkeypatch.setattr(CooperativeEngine, "_pick_vt", counted)
    heap, listed = _both(lambda sched: run_cell(KV_SPEC, engine=sched))
    assert heap == listed
    # The list path never picks off the heap; the heap path keeps the
    # turn holder's turn without a pick on most decisions.
    assert 0 < len(picks) < heap["stats"]["steps"] / 2


def test_unsourced_waiter_runs_the_same_schedule():
    # An unsourced block_until is re-polled at every decision, so the
    # turn holder cannot keep its turn while one is parked.
    def run(sched):
        flag = []

        def body():
            ctx = current()
            if ctx.pe == 1:
                sched.block_until(1, lambda: bool(flag), "flag")
            else:
                for i in range(4):
                    ctx.clock.advance(1.0)
                    spin_hint()
                    if i == 1:
                        flag.append(i)
            return ctx.clock.now

        return run_spmd(body, 2, engine=sched)

    heap, listed = _both(run)
    assert heap == listed
    assert heap["trace"] == ["p0", "p1", "p0", "p0", "p1", "p0", "p0"]


def test_survivable_crash_cell_runs_the_same_schedule():
    spec = WorkloadSpec(ops=14, keyspace=8, zipf_s=1.0, read_frac=0.6, write_frac=0.4,
                        scan_frac=0.0, mean_interarrival_us=2.0, seed=79, disjoint=True)

    def run(sched):
        return run_cell(spec, images=3, record=True, engine=sched, survivable=True,
                        faults=FaultPlan(seed=11, crash_at={2: 25}), watchdog_s=60.0)

    heap, listed = _both(run)
    assert heap == listed
    assert heap["result"].count(None) == 1, "the crash did not fire"


@pytest.mark.parametrize("config", [CRAY_CAF, UHCAF_GASNET, UHCAF_CRAY_SHMEM],
                         ids=lambda c: c.label)
def test_fig8_kernel_at_64_images_runs_the_same_schedule(config):
    heap, listed = _both(lambda sched: run_fig8(64, 8, config, sched)[1])
    assert heap == listed


def test_queued_pe_whose_clock_moved_fails_loudly():
    # PE 0 moves queued PE 1's clock, then its own past it: the heap
    # would pop PE 1 at its stale key, so the engine refuses.
    def body():
        ctx = current()
        if ctx.pe == 0:
            ctx.job.pe_contexts[1].clock.advance(5.0)
            ctx.clock.advance(10.0)
            spin_hint()
        return ctx.clock.now

    with pytest.raises(JobFailure) as ei:
        run_spmd(body, 2, engine=Scheduler(VirtualTimeOrder()))
    errors = [e for _, e in ei.value.failures if isinstance(e, EngineError)]
    assert errors and "PE 1 was queued at virtual time 0.0" in str(errors[0])


@pytest.mark.parametrize("num_pes, ceiling", [
    (1, DEFAULT_MAX_STEPS), (64, DEFAULT_MAX_STEPS),
    (65, DEFAULT_MAX_STEPS * 65 // 64), (1024, 16 * DEFAULT_MAX_STEPS),
])
@pytest.mark.parametrize("strategy", [VirtualTimeOrder, lambda: PCTStrategy(1)],
                         ids=["vt", "pct"])
def test_default_step_ceiling_scales_with_pes(num_pes, ceiling, strategy):
    assert Job(num_pes, heap_bytes=64, engine=Scheduler(strategy())).engine.max_steps == ceiling
    # An explicit ceiling always wins.
    assert Job(num_pes, heap_bytes=64,
               engine=Scheduler(strategy(), max_steps=500)).engine.max_steps == 500


def test_heap_path_livelock_hits_step_limit():
    # Spinning without pricing anything leaves every clock at 0, so the
    # order keeps PE 0 and the ceiling ends the schedule.
    def body():
        while True:
            spin_hint()

    sched = Scheduler(VirtualTimeOrder(), max_steps=50)
    with pytest.raises(JobFailure) as ei:
        run_spmd(body, 2, engine=sched)
    msg = next(str(e) for _, e in ei.value.failures if isinstance(e, ScheduleLimitError))
    assert "exceeded 50 steps" in msg and "2 choices [p0, p1]" in msg, msg
    assert sched.steps == 50 and set(sched.trace) == {"p0"}
