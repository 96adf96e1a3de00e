"""Schedule strategies for the cooperative engine.

The deterministic scheduler itself is the cooperative engine
(:class:`repro.engine.cooperative.CooperativeEngine`, re-exported here
under its exploration name :class:`Scheduler`): it serializes a job's
PE threads and, at every decision point, offers an ordered list of
*choice tokens* — ``p<i>`` (run PE *i* until its next decision point)
and ``n<i>`` (deliver the oldest pending put of initiator PE *i*) — to
a :class:`Strategy`.  This module holds the strategies: seeded random
walk, PCT priorities, virtual-time order, verbatim and guided replay,
and the exhaustive enumerator.  ``Scheduler(RandomWalk(7))`` is an
engine; pass it as ``engine=``.
"""

from __future__ import annotations

import random
from typing import Any

from repro.engine.cooperative import (  # noqa: F401 - re-exported
    DEFAULT_MAX_STEPS,
    CooperativeEngine as Scheduler,
    ScheduleLimitError,
)
from repro.engine.sched import DeadlockError  # noqa: F401 - re-exported
from repro.runtime.context import current


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class Strategy:
    """Picks the next choice token at every decision point.

    ``choose`` receives the step index and the choice list — runnable
    ``p<i>`` tokens, then pending ``n<i>`` tokens, each in ascending PE
    order (guaranteed) — and must return one of its elements.
    ``note_yield`` is a hint: the named task just yielded from a spin
    loop (a failed lock attempt), so priority-based strategies should
    demote it — the Coyote treatment of ``Task.Yield`` — or the spinner
    livelocks the schedule.
    """

    name = "strategy"

    def choose(self, step: int, choices: list[str]) -> str:  # pragma: no cover
        raise NotImplementedError

    def note_yield(self, token: str, spin: bool) -> None:
        pass

    def bind_job(self, job: Any) -> None:
        """Called once when the engine is bound (clock-aware strategies
        keep the job to read PE clocks)."""

    def describe(self) -> dict:
        return {"strategy": self.name}


class RandomWalk(Strategy):
    """Uniform seeded random walk over the choice list."""

    name = "random"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def choose(self, step: int, choices: list[str]) -> str:
        return choices[self._rng.randrange(len(choices))]

    def describe(self) -> dict:
        return {"strategy": self.name, "seed": self.seed}


class VirtualTimeOrder(Strategy):
    """Run the runnable PE whose virtual clock is smallest.

    This is discrete-event execution order for code the event engine
    cannot run (blocking CAF locks): every schedule decision picks the
    PE furthest *behind* in virtual time, so shared-resource timestamps
    are visited in (approximately) virtual-time order and the causality
    lift never drags a PE's clock far ahead of its peers.  Open-loop
    latency measurements need this — under an arbitrary interleaving, a
    PE whose arrival process has run ahead leaves future timestamps on
    shared buckets and other PEs' response times inherit them as
    phantom queueing delay.

    Pending network deliveries drain first (lowest PE), ties break by
    PE index, and no randomness is involved: the strategy is
    deterministic by construction, without a seed.  Livelock-free
    because every scheduled quantum prices at least one operation on
    the chosen PE, advancing its clock.

    The engine never asks this class: it takes the same pick off a
    ``(clock, PE)`` heap without building a choice list (docs/MODEL.md
    §9).  ``choose`` is the order's definition, which a subclass gets
    offered the list through.
    """

    name = "vt"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)  # accepted for make_strategy symmetry
        self._job: Any = None
        self._clocks: dict[str, Any] = {}  # p token -> that PE's VirtualClock

    def bind_job(self, job: Any) -> None:
        self._job, self._clocks = job, {}

    def choose(self, step: int, choices: list[str]) -> str:
        if choices[-1][0] == "n":  # n tokens come last, lowest PE first
            return next(t for t in choices if t[0] == "n")
        clocks = self._clocks
        if not clocks:  # first decision: every PE's context exists by now
            clocks.update((f"p{pe}", ctx.clock) for pe, ctx in self._job.pe_contexts.items())
        # min() keeps the first of equal clocks: p tokens ascend by PE.
        return min(choices, key=lambda t: clocks[t].now)

    def describe(self) -> dict:
        return {"strategy": self.name}


class PCTStrategy(Strategy):
    """PCT-style priority scheduling [Burckhardt et al., ASPLOS'10].

    Every task (and every delivery queue) draws a random priority; the
    highest-priority enabled choice runs.  ``depth - 1`` change points
    are drawn over ``expected_steps``; reaching one demotes the current
    leader below everything, forcing a context switch there.  Spin
    yields demote the spinner the same way, so lock loops cannot starve
    the holder.
    """

    name = "pct"

    def __init__(self, seed: int, depth: int = 3, expected_steps: int = 4096) -> None:
        self.seed = int(seed)
        self.depth = max(int(depth), 1)
        self.expected_steps = max(int(expected_steps), 1)
        self._rng = random.Random(self.seed)
        k = min(self.depth - 1, self.expected_steps)
        self._change_points = set(self._rng.sample(range(self.expected_steps), k))
        self._prio: dict[str, float] = {}
        self._demotions = 0

    def _priority(self, token: str) -> float:
        p = self._prio.get(token)
        if p is None:
            p = 1.0 + self._rng.random()
            self._prio[token] = p
        return p

    def _demote(self, token: str) -> None:
        self._demotions += 1
        self._prio[token] = -float(self._demotions)

    def note_yield(self, token: str, spin: bool) -> None:
        if spin:
            self._demote(token)

    def choose(self, step: int, choices: list[str]) -> str:
        token = max(choices, key=lambda t: (self._priority(t), t))
        if step in self._change_points:
            self._demote(token)
            token = max(choices, key=lambda t: (self._priority(t), t))
        return token

    def describe(self) -> dict:
        return {"strategy": self.name, "seed": self.seed, "depth": self.depth}


class ReplaySchedule(Strategy):
    """Replay a recorded choice list token-for-token.

    Past the end of the recording (or if a recorded token is not
    currently enabled — possible only when replaying against a modified
    program) it falls back to the first enabled choice, which keeps the
    replay deterministic.
    """

    name = "replay"

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = list(tokens)
        self.mismatches = 0

    def choose(self, step: int, choices: list[str]) -> str:
        if step < len(self.tokens):
            token = self.tokens[step]
            if token in choices:
                return token
            self.mismatches += 1
        return choices[0]

    def describe(self) -> dict:
        return {"strategy": self.name, "length": len(self.tokens)}


class GuidedPrefix(Strategy):
    """Follow a recorded prefix, then run non-preemptively.

    After the prefix the current task keeps running while it is
    enabled; on a block the lowest-numbered enabled choice takes over.
    The minimizer shrinks divergence witnesses by binary-searching the
    shortest prefix that still reproduces the divergent digest.
    """

    name = "guided-prefix"

    def __init__(self, prefix: list[str]) -> None:
        self.prefix = list(prefix)
        self._last: str | None = None

    def choose(self, step: int, choices: list[str]) -> str:
        if step < len(self.prefix) and self.prefix[step] in choices:
            token = self.prefix[step]
        elif self._last is not None and self._last in choices:
            token = self._last
        else:
            token = choices[0]
        self._last = token
        return token


class _DFSStrategy(Strategy):
    """One run of the exhaustive enumerator: forced prefix, then always
    the first choice, logging every (choices, picked) pair."""

    name = "exhaustive"

    def __init__(self, prefix: list[str]) -> None:
        self.prefix = list(prefix)
        self.log: list[tuple[tuple[str, ...], int]] = []

    def choose(self, step: int, choices: list[str]) -> str:
        if step < len(self.prefix) and self.prefix[step] in choices:
            idx = choices.index(self.prefix[step])
        else:
            idx = 0
        self.log.append((tuple(choices), idx))
        return choices[idx]


class ExhaustiveEnumerator:
    """Depth-first enumeration of *every* schedule of a tiny program.

    Drives repeated runs: each run follows the current forced prefix and
    then takes first choices; afterwards :meth:`advance` backtracks to
    the deepest decision with an untried alternative.  Practical only
    for programs with a handful of decision points — the tree is
    exponential — so pair it with a schedule budget.
    """

    def __init__(self) -> None:
        self._prefix: list[str] = []
        self.exhausted = False
        self.runs = 0

    def next_strategy(self) -> _DFSStrategy | None:
        if self.exhausted:
            return None
        self.runs += 1
        return _DFSStrategy(self._prefix)

    def advance(self, strategy: _DFSStrategy) -> None:
        """Consume a finished run's log and compute the next prefix."""
        log = strategy.log
        for depth in range(len(log) - 1, -1, -1):
            choices, idx = log[depth]
            if idx + 1 < len(choices):
                self._prefix = [c[i] for c, i in log[:depth]] + [choices[idx + 1]]
                return
        self.exhausted = True


def make_strategy(name: str, seed: int, **opts: Any) -> Strategy:
    """Build a fresh strategy instance by CLI name."""
    if name == "random":
        return RandomWalk(seed)
    if name == "pct":
        return PCTStrategy(seed, **opts)
    if name == "vt":
        return VirtualTimeOrder(seed)
    raise ValueError(f"unknown strategy {name!r} (exhaustive runs via the explorer)")


def spin_hint() -> None:
    """A schedule point for user-level spin loops.

    Busy-wait loops that poll remote state through atomics (rather than
    through ``wait_until``) must give the scheduler a chance to run
    somebody else, or the poll spins forever under cooperative
    scheduling.  Under a scheduler-mode job this yields (flagged as a
    spin, so PCT demotes the spinner); under the default threaded
    engine it sleeps briefly, exactly like the hand-written polling
    loops it replaces.
    """
    ctx = current()
    ctx.job.engine.spin_yield(ctx, "spin", -1)
