"""resolve_engine coercion rules and per-engine PE caps."""

import inspect

import pytest

from repro.engine import resolve_engine
from repro.engine.base import Engine, EngineError
from repro.engine.cooperative import CooperativeEngine
from repro.engine.event import EventEngine
from repro.engine.threaded import ThreadedEngine
from repro.explore import RandomWalk, Scheduler, VirtualTimeOrder
from repro.runtime.launcher import Job


def test_default_is_threaded():
    eng = resolve_engine(None)
    assert isinstance(eng, ThreadedEngine)
    assert eng.name == "threaded"


def test_scheduler_selects_cooperative():
    sched = Scheduler(RandomWalk(1))
    assert isinstance(sched, CooperativeEngine)
    assert resolve_engine(sched) is sched


def test_scheduler_is_the_cooperative_engine():
    # benchmarks/perf/spans.py patches these by name on both imports;
    # a pinned name lost in the merged class must fail in tier-1.
    assert Scheduler is CooperativeEngine
    pinned = {"yield_point", "block_until", "barrier_wait", "wait_value"}
    assert pinned <= CooperativeEngine.__dict__.keys()


def test_names_resolve():
    assert isinstance(resolve_engine("threaded"), ThreadedEngine)
    assert isinstance(resolve_engine("event"), EventEngine)
    eng = resolve_engine("vt")
    assert isinstance(eng, CooperativeEngine)
    assert isinstance(eng.strategy, VirtualTimeOrder)
    assert resolve_engine("vt") is not eng  # fresh (one-shot) each time


def test_instance_passes_through():
    eng = EventEngine()
    assert resolve_engine(eng) is eng


def test_one_selector():
    assert list(inspect.signature(resolve_engine).parameters) == ["engine"]
    with pytest.raises(TypeError):
        Job(2, heap_bytes=1 << 15, scheduler=Scheduler(RandomWalk(1)))


def test_unknown_name_and_type():
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("warp")
    with pytest.raises(TypeError):
        resolve_engine(42)
    # A name alone cannot seed a walk ("cooperative"), and the POSH-style
    # process engine is parked (ROADMAP): both are unknown like any
    # other, and the message lists what exists.
    for name in ("cooperative", "process"):
        message = f"unknown engine '{name}'.*'threaded', 'event', 'vt'"
        with pytest.raises(ValueError, match=message):
            resolve_engine(name)
        with pytest.raises(ValueError, match=message):
            Job(2, heap_bytes=1 << 15, engine=name)


def test_engines_are_single_job():
    eng = EventEngine()
    Job(2, heap_bytes=1 << 15, engine=eng)
    with pytest.raises(EngineError, match="already bound"):
        Job(2, heap_bytes=1 << 15, engine=eng)


def test_threaded_pe_cap():
    assert Engine.max_pes == 4096
    with pytest.raises(ValueError, match="num_pes"):
        Job(5000, heap_bytes=1 << 15)  # threaded cap


def test_event_engine_raises_the_cap():
    assert EventEngine.max_pes > Engine.max_pes
    job = Job(5000, heap_bytes=1 << 12, engine="event")
    assert job.num_pes == 5000
    with pytest.raises(ValueError, match="num_pes"):
        Job(EventEngine.max_pes + 1, heap_bytes=1 << 12, engine="event")
