"""resolve_engine coercion rules and per-engine PE caps."""

import pytest

from repro.engine import resolve_engine
from repro.engine.base import Engine, EngineError
from repro.engine.cooperative import CooperativeEngine
from repro.engine.event import EventEngine
from repro.engine.threaded import ThreadedEngine
from repro.explore import RandomWalk, Scheduler
from repro.runtime.launcher import Job


def test_default_is_threaded():
    eng = resolve_engine(None, None)
    assert isinstance(eng, ThreadedEngine)
    assert eng.name == "threaded"


def test_scheduler_selects_cooperative():
    sched = Scheduler(RandomWalk(1))
    eng = resolve_engine(None, sched)
    assert isinstance(eng, CooperativeEngine)
    assert eng.scheduler is sched


def test_names_resolve():
    assert isinstance(resolve_engine("threaded"), ThreadedEngine)
    assert isinstance(resolve_engine("event"), EventEngine)
    sched = Scheduler(RandomWalk(1))
    assert isinstance(resolve_engine("cooperative", sched), CooperativeEngine)


def test_instance_passes_through():
    eng = EventEngine()
    assert resolve_engine(eng) is eng


def test_cooperative_requires_scheduler():
    with pytest.raises(ValueError, match="requires scheduler"):
        resolve_engine("cooperative")


def test_named_engine_rejects_scheduler():
    with pytest.raises(ValueError, match="cannot be combined"):
        resolve_engine("event", Scheduler(RandomWalk(1)))


def test_foreign_instance_rejects_scheduler():
    with pytest.raises(ValueError, match="not both"):
        resolve_engine(ThreadedEngine(), Scheduler(RandomWalk(1)))


def test_unknown_name_and_type():
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("warp")
    with pytest.raises(TypeError):
        resolve_engine(42)
    # The POSH-style process engine is parked (ROADMAP): its name is
    # unknown like any other, and the message lists what exists.
    message = "unknown engine 'process'.*'threaded', 'event', 'cooperative'"
    with pytest.raises(ValueError, match=message):
        resolve_engine("process")
    with pytest.raises(ValueError, match=message):
        Job(2, heap_bytes=1 << 15, engine="process")


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
