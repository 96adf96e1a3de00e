"""Three-way engine equivalence over randomized step programs.

The engines promise *bit-identical* virtual times and traces for any
program whose threaded execution is schedule-independent.  The seeded
generator below emits such programs: each phase picks exactly one
active PE which issues a random run of puts/gets/atomics
(``fadd``/``set``/``fetch``)/delays, then
everyone barriers — no two PEs ever contend for a timeline, so the
threaded, cooperative (explore scheduler), and event engines must agree
on every PE's final value, final virtual clock, and the full trace
digest.  A FaultPlan rides the same pipeline on every engine (decisions
are per-PE op-index driven), so transient-fault runs and single-crash
failure records must match too.

Every program is also written as a generator body (``make_gen_body``,
the straight-line twin of the continuation-passing ``make_body``); the
twin must match the threaded continuation-passing baseline on all three
engines.
"""

import random

import numpy as np
import pytest

from repro.engine.steps import BarrierStep, Done, alloc, alloc_array_step, drive
from repro.explore import RandomWalk, Scheduler
from repro.runtime.context import current
from repro.runtime.launcher import Job, JobFailure
from repro.shmem import attach as shmem_attach
from repro.sim.faults import FaultPlan, InjectedCrash
from repro.trace.events import attach as trace_attach, trace_digest

HEAP = 1 << 15
ELEMS = 8

ENGINES = ("threaded", "cooperative", "event")
ATOMIC_OPS = ("fadd", "set", "fetch")


def make_script(seed: int, num_pes: int, phases: int):
    """A deterministic single-active-PE-per-phase op script."""
    rng = random.Random(seed)
    script = []
    for _ in range(phases):
        active = rng.randrange(num_pes)
        ops = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("put", "get", "atomic", "delay"))
            ops.append((kind, rng.randrange(num_pes), rng.randint(1, ELEMS),
                        rng.choice(ATOMIC_OPS)))
        script.append((active, ops))
    return script


def issue(layer, ctx, arr, payload, ops) -> None:
    """One phase's operations, issued by its active PE."""
    for kind, target, k, amo in ops:
        if kind == "put":
            layer.put(arr, payload[:k], target, offset=0)
        elif kind == "get":
            layer.get(arr, k, target, offset=0)
        elif kind == "atomic":
            operands = () if amo == "fetch" else (k,)
            layer.atomic(arr, target, 0, amo, *operands)
        else:
            ctx.clock.advance(float(k))


def make_body(layer, script):
    def body():
        ctx = current()
        pe = ctx.pe
        payload = np.arange(ELEMS, dtype=np.int64) + pe

        def run_phase(arr, i):
            if i == len(script):
                return Done((int(arr.local.sum()), ctx.clock.now))
            active, ops = script[i]
            if pe == active:
                issue(layer, ctx, arr, payload, ops)
            return BarrierStep(layer, lambda: run_phase(arr, i + 1))

        return alloc_array_step(layer, (ELEMS,), np.int64, lambda a: run_phase(a, 0))

    return body


def make_gen_body(layer, script):
    """``make_body``'s program as a generator body."""
    def body():
        ctx = current()
        payload = np.arange(ELEMS, dtype=np.int64) + ctx.pe
        arr = yield from alloc(layer, (ELEMS,), np.int64)
        for active, ops in script:
            if ctx.pe == active:
                issue(layer, ctx, arr, payload, ops)
            yield BarrierStep(layer)
        return int(arr.local.sum()), ctx.clock.now

    return body


def run_once(engine_name: str, seed: int, num_pes: int, phases: int,
             faults=None, make=make_body):
    engine = (Scheduler(RandomWalk(seed)) if engine_name == "cooperative"
              else engine_name)
    job = Job(num_pes, heap_bytes=HEAP, engine=engine, faults=faults)
    layer = shmem_attach(job)
    tracer = trace_attach(job)
    body = make(layer, make_script(seed, num_pes, phases))
    try:
        results = job.run(body)
    except JobFailure as jf:
        records = [(pe, type(e).__name__, str(e)) for pe, e in jf.failures]
        return {"failed": records, "digest": None}
    return {"results": results, "digest": trace_digest(tracer)}


def twin_runs(**kwargs) -> dict:
    """The threaded continuation-passing baseline, then every engine's
    run of both body forms (the baseline itself excepted)."""
    runs = {"threaded": run_once("threaded", **kwargs)}
    for name in ENGINES:
        if name != "threaded":
            runs[name] = run_once(name, **kwargs)
        runs[f"{name}/generator"] = run_once(name, **kwargs, make=make_gen_body)
    return runs


@pytest.mark.parametrize("seed", [11, 23, 47, 101])
def test_three_way_equivalence_random_programs(seed):
    runs = twin_runs(seed=seed, num_pes=6, phases=5)
    base = runs.pop("threaded")
    assert "results" in base
    for name, run in runs.items():
        assert run["results"] == base["results"], (
            f"{name} results diverge from threaded (seed {seed})"
        )
        assert run["digest"] == base["digest"], (
            f"{name} trace digest diverges from threaded (seed {seed})"
        )


@pytest.mark.parametrize("seed", [5, 19])
def test_three_way_equivalence_under_transient_faults(seed):
    plan = FaultPlan(seed=seed, transient_rate=0.4, max_failures=2)
    runs = twin_runs(seed=seed, num_pes=4, phases=4, faults=plan)
    base = runs.pop("threaded")
    assert "results" in base, f"threaded failed: {base.get('failed')}"
    for name, run in runs.items():
        assert run == base, f"{name} diverges under faults (seed {seed})"


def test_three_way_single_crash_failure_records_match():
    # Crash PE 2 at its 3rd operation; the record (pe, type, message)
    # must be engine-independent because the fault decision is priced
    # off the per-PE op index, not off wall-clock scheduling.  In the
    # generator bodies the crash is raised after a yield.
    plan = FaultPlan(seed=7, crash_at={2: 3})
    runs = twin_runs(seed=31, num_pes=5, phases=6, faults=plan)
    base = runs.pop("threaded")
    assert "failed" in base
    assert len(base["failed"]) == 1
    pe, kind, _msg = base["failed"][0]
    assert (pe, kind) == (2, InjectedCrash.__name__)
    for name, run in runs.items():
        assert run["failed"] == base["failed"], (
            f"{name} failure records diverge from threaded"
        )


def test_yielding_a_non_step_raises_type_error():
    def body():
        yield 42

    with pytest.raises(TypeError, match="yielded int"):
        drive(body())
