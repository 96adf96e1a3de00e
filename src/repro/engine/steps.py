"""Steps, the event engine's blocking protocol, and generator bodies.

The :class:`~repro.engine.event.EventEngine` has no thread to park, so a
PE body that needs to block hands the engine a *step* describing the
blocking point plus a continuation to run once it clears — explicit
continuation-passing style, trampolined by the engine.  Steps are the
protocol; generators are how bodies are written: ``yield
BarrierStep(layer)`` where the body blocks, ``yield from sub()`` to call
another generator, ``return value`` to finish.  :func:`as_steps` runs a
generator as a step program, and :func:`drive` and the event engine
accept a generator wherever they accept a step program.  Between yields
the body is ordinary eager Python: it may call any non-blocking layer
API (``put``/``get``/``atomic``/``quiet``/...) directly.

The same programs run unchanged on the blocking engines
(:class:`ThreadedEngine`, :class:`CooperativeEngine`): their drivers
execute each step's blocking form inline via :func:`drive`, calling the
exact same layer arrive/depart primitives the event heap does — which
is what makes virtual times and traces bit-identical across engines by
construction.

Steps
-----

* :class:`Done` — the program finished; carries the PE's result value.
* :class:`BarrierStep` — arrive at the job barrier through ``layer``
  (jitter + quiet + dissemination cost, exactly ``layer.barrier_all``).
* :class:`WaitStep` — ``layer.wait_until(ivar, cmp, value, offset)``.
* :class:`DelayStep` — advance the PE's virtual clock by ``delay_us``
  then continue (spin-loop backoff: on the event heap this reschedules
  the PE, giving other PEs the interleaving a blocked thread would).

A yielded step's ``cont`` is filled in by :func:`as_steps`.
:func:`alloc` is the collective allocation (which internally barriers)
as a generator, :func:`alloc_array_step` its step form.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Generator

from repro.runtime.context import current


class Step:
    """Base class of all continuation steps."""

    __slots__ = ()


class Done(Step):
    """Terminal step: the PE body finished with ``value``."""

    __slots__ = ("value",)

    def __init__(self, value: Any = None) -> None:
        self.value = value


class BarrierStep(Step):
    """Arrive at a barrier through ``layer``; run ``cont()`` after
    release.

    By default this is the job-wide barrier (exactly
    ``layer.barrier_all``).  Team-scoped collectives pass an explicit
    ``barrier`` (a :class:`~repro.runtime.sync.VirtualBarrier` over the
    team, e.g. a group's) plus the member count ``npes`` that prices the
    dissemination rounds — the step form of ``layer.team_barrier``.
    """

    __slots__ = ("layer", "cont", "barrier", "npes")

    def __init__(self, layer, cont: Callable[[], Any] | None = None, *,
                 barrier=None, npes: int | None = None) -> None:
        self.layer = layer
        self.cont = cont
        self.barrier = barrier
        self.npes = npes


class WaitStep(Step):
    """Block until ``ivar[offset] <cmp> value`` holds locally, then run
    ``cont()`` (the step form of ``layer.wait_until``).

    ``word=True`` merges the awaited *word's* atomic timestamp instead
    of the memory-global last-write time — valid only under strict
    post/consume alternation on that word (see
    :meth:`~repro.runtime.memory.PEMemory.word_time`).

    ``target`` names the remote PE whose write is awaited, when known:
    a survivable job then fails the wait with
    :class:`~repro.runtime.failures.ImageFailedError` if that PE dies,
    instead of parking forever.
    """

    __slots__ = ("layer", "ivar", "cmp", "value", "offset", "cont", "word",
                 "target")

    def __init__(self, layer, ivar, cmp: str, value,
                 cont: Callable[[], Any] | None = None,
                 offset: int = 0, word: bool = False,
                 target: int = -1) -> None:
        self.layer = layer
        self.ivar = ivar
        self.cmp = cmp
        self.value = value
        self.offset = offset
        self.cont = cont
        self.word = word
        self.target = target


class DelayStep(Step):
    """Advance this PE's clock by ``delay_us`` virtual microseconds and
    continue — the yield point of spin-retry loops."""

    __slots__ = ("delay_us", "cont")

    def __init__(self, delay_us: float,
                 cont: Callable[[], Any] | None = None) -> None:
        self.delay_us = delay_us
        self.cont = cont


def as_steps(gen: Generator, cont: Callable[[Any], Any] = Done) -> Any:
    """Run generator ``gen`` as a step program.

    Resumes ``gen`` now, up to its first yield, and returns the yielded
    step with ``cont`` set to resume ``gen`` again; when ``gen`` returns
    ``v``, the program continues with ``cont(v)``.
    """

    def resume():
        try:
            step = next(gen)
        except StopIteration as stop:
            return cont(stop.value)
        if not isinstance(step, Step):
            raise TypeError(
                f"a step program yielded {type(step).__name__}, not a Step"
            )
        step.cont = resume
        return step

    return resume()


def alloc(layer, shape, dtype):
    """Collectively allocate a symmetric array (``yield from`` it).

    Runs the non-blocking half (fault check + collective agreement)
    eagerly, barriers, then returns the constructed array.  Exactly
    equivalent to ``layer.alloc_array(shape, dtype)``.
    """
    build = layer._alloc_prepare(shape, dtype)
    yield BarrierStep(layer)
    return build()


def alloc_array_step(layer, shape, dtype, cont: Callable[[Any], Any]) -> Step:
    """:func:`alloc` as a step program: ``cont(array)`` after the
    allocation barrier."""
    return as_steps(alloc(layer, shape, dtype), cont)


def drive(step: Any) -> Any:
    """Trampoline a step program on a *blocking* engine.

    Executes each step's blocking form inline — the same layer
    primitives the event heap dispatches — and returns the program's
    final value.  A generator runs through :func:`as_steps`; other
    non-step values pass straight through, so plain PE bodies are
    unaffected.
    """
    while True:
        cls = type(step)
        if cls is BarrierStep:
            if step.barrier is None:
                step.layer.barrier_all()
            else:
                step.layer.team_barrier(step.barrier, step.npes)
            step = step.cont()
        elif cls is WaitStep:
            step.layer.wait_until(
                step.ivar, step.cmp, step.value, step.offset, word=step.word,
                target=step.target,
            )
            step = step.cont()
        elif cls is DelayStep:
            current().clock.advance(step.delay_us)
            step = step.cont()
        elif cls is Done:
            return step.value
        elif cls is GeneratorType:
            step = as_steps(step)
        elif isinstance(step, Step):  # pragma: no cover - new step kinds extend drivers
            raise TypeError(f"unknown step type {cls.__name__}")
        else:
            return step
