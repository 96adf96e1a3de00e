"""Continuation steps: the blocking protocol of the event engine.

The :class:`~repro.engine.event.EventEngine` has no thread to park, so a
PE body that needs to block returns a *step* describing the blocking
point plus a continuation to run once it clears — explicit
continuation-passing style, trampolined by the engine (no generators,
no greenlets).  Between steps the body is ordinary eager Python: it may
call any non-blocking layer API (``put``/``get``/``atomic``/``quiet``/
...) directly.

The same step programs run unchanged on the blocking engines
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

Helpers
-------

:func:`alloc_array_step` expresses the collective allocation (which
internally barriers) as a step; :func:`drive` is the inline trampoline
used by the blocking engines.
"""

from __future__ import annotations

from typing import Any, Callable

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

    def __init__(self, layer, cont: Callable[[], Any], *,
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

    def __init__(self, layer, ivar, cmp: str, value, cont: Callable[[], Any],
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

    def __init__(self, delay_us: float, cont: Callable[[], Any]) -> None:
        self.delay_us = delay_us
        self.cont = cont


def alloc_array_step(layer, shape, dtype, cont: Callable[[Any], Any]) -> Step:
    """Collectively allocate a symmetric array as a step program.

    Runs the non-blocking half (fault check + collective agreement)
    eagerly, barriers, then passes the constructed array to ``cont``.
    Exactly equivalent to ``cont(layer.alloc_array(shape, dtype))``.
    """
    build = layer._alloc_prepare(shape, dtype)
    return BarrierStep(layer, lambda: cont(build()))


def drive(step: Any) -> Any:
    """Trampoline a step program on a *blocking* engine.

    Executes each step's blocking form inline — the same layer
    primitives the event heap dispatches — and returns the program's
    final value.  Non-step values pass straight through, so plain
    (non-CPS) PE bodies are unaffected.
    """
    while isinstance(step, Step):
        cls = type(step)
        if cls is Done:
            return step.value
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
        else:  # pragma: no cover - future step kinds must extend drivers
            raise TypeError(f"unknown step type {cls.__name__}")
    return step
