"""Deterministic fault injection and hang detection.

The simulator models the conduits the paper targets (IB verbs on
Stampede, Aries, Gemini) as perfect networks; real ones drop packets,
delay them, and stall.  This module makes those failure modes *testable*
without giving up the repo's core invariant — bit-identical replay:

* :class:`FaultPlan` — an immutable, seeded schedule of faults.  Every
  decision is a pure function of ``(seed, pe, per-PE operation index)``
  (a splitmix64 hash), so a schedule replays exactly regardless of host
  thread interleaving, and two runs with the same seed inject the same
  faults into the same operations.
* :class:`FaultInjector` — the per-job mutable counterpart: per-PE
  operation counters plus injection statistics.  Attached to a
  :class:`~repro.runtime.launcher.Job` via ``Job(..., faults=plan)``.
* Fault classes: **transient delivery failures** (the layer retries
  with capped exponential backoff priced in *virtual* time, escalating
  to :class:`TransientCommError`), **extra latency** (virtual-time
  jitter on RMA/AMO/collective operations), **PE crash at the Nth
  operation** (:class:`InjectedCrash`), and **symmetric-heap
  exhaustion** (the Nth collective allocation raises
  :class:`~repro.util.allocator.OutOfMemoryError`).
* :class:`Watchdog` — wall-clock hang detection wrapped around every
  blocking primitive (barrier, ``wait_until``, lock spins).  A stall
  past the deadline produces a :class:`HangReport` naming each blocked
  PE, what it waits on, and its last trace events, then aborts the job
  — the process never hangs.

Injected delays and retry backoff advance the *virtual* clock only, so
a faulted run's data results stay bit-comparable to the fault-free run;
wall-clock behaviour is unchanged.  With no plan attached the layers
skip all of this behind one ``is None`` check per operation.
"""

from __future__ import annotations

import threading
import time
import typing
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from repro.util.allocator import OutOfMemoryError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import Job

_M64 = 0xFFFFFFFFFFFFFFFF

#: Point-to-point operations subject to transient delivery failure.
TRANSIENT_OPS = frozenset({"put", "get", "iput", "iget", "atomic", "am"})

#: Operations subject to injected extra latency (collectives included).
LATENCY_OPS = TRANSIENT_OPS | frozenset({"barrier"})

#: ``failures`` value meaning "every retry attempt fails" (escalation).
ALWAYS_FAIL = 1 << 30


def _mix(z: int) -> int:
    """One splitmix64 output step (same mixer the DHT benchmark uses)."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _uniform(h: int) -> float:
    """Map a 64-bit hash to [0, 1) with 53 bits of precision."""
    return (h >> 11) * (1.0 / (1 << 53))


class FaultDecision(NamedTuple):
    """What the plan injects into one operation."""

    failures: int  # transient delivery failures before success
    extra_us: float  # injected latency, virtual microseconds
    crash: bool  # the PE dies at this operation


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable fault schedule.

    ``transient_rate`` is the probability an operation suffers at least
    one transient delivery failure; a hit fails ``1..max_failures``
    consecutive attempts (uniform).  ``escalate_rate`` is the
    probability an operation fails *every* attempt, exhausting the
    retry budget and raising :class:`TransientCommError`.
    ``latency_rate``/``latency_us`` inject up to ``latency_us`` of
    extra virtual latency.  ``crash_at`` maps a PE to the 0-based index
    of the counted operation at which it raises
    :class:`InjectedCrash`; ``alloc_fail_at`` maps a PE to the 0-based
    index of the symmetric allocation that raises
    :class:`~repro.util.allocator.OutOfMemoryError`.

    Only operations in ``transient_ops`` draw delivery failures; only
    operations in ``latency_ops`` draw latency.  Every decision is a
    pure function of ``(seed, pe, per-PE op index)``.
    """

    seed: int
    transient_rate: float = 0.0
    max_failures: int = 2
    escalate_rate: float = 0.0
    latency_rate: float = 0.0
    latency_us: float = 25.0
    crash_at: Mapping[int, int] = field(default_factory=dict)
    alloc_fail_at: Mapping[int, int] = field(default_factory=dict)
    transient_ops: frozenset = TRANSIENT_OPS
    latency_ops: frozenset = LATENCY_OPS

    def __post_init__(self) -> None:
        for name in ("transient_rate", "escalate_rate", "latency_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if self.latency_us < 0:
            raise ValueError("latency_us must be >= 0")
        # Frozen dataclass: write the validated, canonicalized maps back
        # with object.__setattr__ (the dataclass idiom for __post_init__).
        object.__setattr__(
            self, "crash_at", _validate_sites("crash_at", self.crash_at)
        )
        object.__setattr__(
            self, "alloc_fail_at",
            _validate_sites("alloc_fail_at", self.alloc_fail_at),
        )


def _validate_sites(name: str, value) -> dict:
    """Canonicalize a ``{pe: op_index}`` fault-site map.

    Accepts a mapping or a sequence of ``(pe, index)`` pairs.  A bad
    entry (negative op index, negative PE, non-integer key) or a
    duplicate PE in pair form — which a dict literal would silently
    collapse, so the intended site never fires — raises ``ValueError``
    naming the offending entry.  PE range against ``num_pes`` is checked
    later, at :class:`FaultInjector` construction, where the job size is
    known.
    """
    items = value.items() if isinstance(value, Mapping) else value
    out: dict = {}
    for entry in items:
        try:
            pe, idx = entry
        except (TypeError, ValueError):
            raise ValueError(
                f"{name} entry {entry!r} is not a (pe, op_index) pair"
            ) from None
        if not isinstance(pe, int) or isinstance(pe, bool) or pe < 0:
            raise ValueError(
                f"{name} entry {entry!r}: PE must be a non-negative int"
            )
        if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
            raise ValueError(
                f"{name} entry {entry!r}: op index must be a "
                f"non-negative int"
            )
        if pe in out:
            raise ValueError(
                f"{name} entry {entry!r}: duplicate PE {pe} "
                f"(already scheduled at index {out[pe]})"
            )
        out[pe] = idx
    return out


class FaultInjector:
    """Per-job fault state: a plan plus per-PE operation counters.

    Each PE's counter is touched only by that PE's thread, so the
    sequence of decisions a PE sees is its program order — deterministic
    under any host scheduling.  Statistics are kept per PE and merged
    on read.
    """

    def __init__(self, plan: FaultPlan, num_pes: int) -> None:
        for name in ("crash_at", "alloc_fail_at"):
            for pe in getattr(plan, name):
                if pe >= num_pes:
                    raise ValueError(
                        f"{name} entry ({pe}, {getattr(plan, name)[pe]}): "
                        f"PE {pe} out of range for a {num_pes}-PE job"
                    )
        self.plan = plan
        self.num_pes = num_pes
        self._op_count = [0] * num_pes
        self._alloc_count = [0] * num_pes
        self._stats = [Counter() for _ in range(num_pes)]

    # ------------------------------------------------------------------
    def decide(self, pe: int, op: str, target: int = -1) -> FaultDecision | None:
        """The plan's decision for ``pe``'s next counted operation.

        Returns ``None`` (the common case) when nothing is injected.
        The caller raises :class:`InjectedCrash` on ``crash=True`` —
        deciding and acting are split so the layer can trace first.
        """
        plan = self.plan
        n = self._op_count[pe]
        self._op_count[pe] = n + 1
        crash = plan.crash_at.get(pe) == n
        h = _mix(((plan.seed & _M64) * 0x100000001B3) ^ ((pe + 1) << 32) ^ n)
        failures = 0
        extra = 0.0
        if op in plan.transient_ops:
            if plan.escalate_rate and _uniform(h) < plan.escalate_rate:
                failures = ALWAYS_FAIL
            else:
                h2 = _mix(h)
                if plan.transient_rate and _uniform(h2) < plan.transient_rate:
                    failures = 1 + int(_uniform(_mix(h2)) * plan.max_failures)
                    failures = min(failures, plan.max_failures)
        if op in plan.latency_ops and plan.latency_rate:
            h3 = _mix(h ^ 0xA5A5A5A5A5A5A5A5)
            if _uniform(h3) < plan.latency_rate:
                extra = plan.latency_us * _uniform(_mix(h3))
        if not (failures or extra or crash):
            return None
        stats = self._stats[pe]
        if crash:
            stats["crashes"] += 1
        if failures:
            stats["transient_ops"] += 1
        if extra:
            stats["latency_faults"] += 1
            stats["latency_us"] += extra
        return FaultDecision(failures, extra, crash)

    def alloc_check(self, pe: int) -> None:
        """Called before every symmetric allocation; raises the injected
        heap exhaustion when this PE's allocation index matches."""
        k = self._alloc_count[pe]
        self._alloc_count[pe] = k + 1
        if self.plan.alloc_fail_at.get(pe) == k:
            self._stats[pe]["alloc_faults"] += 1
            raise OutOfMemoryError(
                f"injected symmetric-heap exhaustion on PE {pe} "
                f"(allocation #{k}, seed {self.plan.seed})"
            )

    def note(self, pe: int, key: str, value: int = 1) -> None:
        """Record a layer-side statistic (retries, escalations)."""
        self._stats[pe][key] += value

    def op_index(self, pe: int) -> int:
        """How many operations ``pe`` has had counted so far."""
        return self._op_count[pe]

    def summary(self) -> dict:
        """Merged injection statistics across all PEs."""
        total: Counter = Counter()
        for c in self._stats:
            total.update(c)
        out = dict(total)
        out["injected_ops"] = (
            total["transient_ops"] + total["latency_faults"] + total["crashes"]
        )
        return out


# ---------------------------------------------------------------------------
# Structured failures
# ---------------------------------------------------------------------------


class TransientCommError(RuntimeError):
    """A transient communication fault survived every retry attempt."""

    def __init__(self, op: str, pe: int, target: int, attempts: int) -> None:
        super().__init__(
            f"transient {op} fault from PE {pe} to PE {target} persisted "
            f"after {attempts} attempts"
        )
        self.op = op
        self.pe = pe
        self.target = target
        self.attempts = attempts


class InjectedCrash(RuntimeError):
    """A fault plan crashed this PE at a scheduled operation."""


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------

#: Default stall deadline.  Nothing in the simulator legitimately blocks
#: for minutes of wall clock, so this only ever fires on a real hang.
DEFAULT_WATCHDOG_S = 300.0


@dataclass(frozen=True)
class HangEntry:
    """One PE's state at watchdog trip time."""

    pe: int
    what: str  # blocked primitive, or "" when not blocked
    blocked_s: float  # wall seconds blocked (0 when not blocked)
    last_events: tuple = ()  # rendered tail of the PE's trace


@dataclass(frozen=True)
class HangReport:
    """Why the watchdog aborted the job, per PE."""

    deadline_s: float
    entries: tuple

    def render(self) -> str:
        lines = [f"watchdog: blocked past the {self.deadline_s:g}s wall-clock deadline"]
        for e in self.entries:
            if e.what:
                lines.append(f"  PE {e.pe}: blocked {e.blocked_s:.1f}s on {e.what}")
            else:
                lines.append(f"  PE {e.pe}: not blocked on an instrumented primitive")
            for ev in e.last_events:
                lines.append(f"    last: {ev}")
        return "\n".join(lines)

    def blocked_pes(self) -> tuple:
        return tuple(e.pe for e in self.entries if e.what)


class HangError(RuntimeError):
    """Raised (once, on the first PE to notice) when the watchdog trips."""

    def __init__(self, report: HangReport) -> None:
        super().__init__(report.render())
        self.report = report


class _WatchGuard:
    """Registration token for one blocked primitive.

    Context manager: ``__enter__`` publishes (what, since) in the
    watchdog's per-PE slot, ``__exit__`` clears it; :meth:`poll` is
    called from inside the primitive's wait loop and raises
    :class:`HangError` past the deadline.

    When the wait has a known remote ``target`` (a lock spin, a
    ``sync images`` partner wait) and the job is survivable, ``poll``
    also checks the failed-image registry: a wait on a dead peer fires
    *immediately* with a structured
    :class:`~repro.runtime.failures.ImageFailedError` naming the failed
    PE, instead of stalling until the wall-clock deadline.
    """

    __slots__ = ("wd", "pe", "what", "t0", "target", "ctx")

    def __init__(self, wd: "Watchdog", pe: int, what: str,
                 target: int = -1, ctx=None) -> None:
        self.wd = wd
        self.pe = pe
        self.what = what
        self.t0 = 0.0
        self.target = target
        self.ctx = ctx

    def __enter__(self) -> "_WatchGuard":
        self.t0 = time.monotonic()
        self.wd._blocked[self.pe] = (self.what, self.t0)
        return self

    def __exit__(self, *exc) -> None:
        self.wd._blocked[self.pe] = None

    def poll(self) -> None:
        target = self.target
        if target >= 0:
            job = self.wd.job
            registry = job.failed
            if job.survivable and registry.is_failed(target):
                from repro.runtime.failures import raise_image_failed

                self.wd._blocked[self.pe] = None
                raise_image_failed(
                    self.ctx, "wait", target, registry, job.tracer
                )
        if time.monotonic() - self.t0 > self.wd.deadline_s:
            self.wd._trip(self.pe)


class Watchdog:
    """Converts wall-clock stalls into structured :class:`HangError`.

    Every blocking primitive wraps its wait loop in :meth:`watch` and
    calls the guard's ``poll()`` each iteration.  The first PE past the
    deadline assembles a :class:`HangReport` from every PE's published
    blocked-state (a per-PE slot list — each PE writes only its own
    slot, so no lock on the wait path) and the trace tails, aborts the
    job so siblings unblock with ``JobAborted``, and raises
    :class:`HangError`.  Later trippers return and exit through their
    loop's abort poll — one structured report per hang.
    """

    #: Trace events shown per PE in the report.
    TAIL_EVENTS = 5

    def __init__(self, job: "Job", deadline_s: float | None = None) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("watchdog deadline must be positive")
        self.job = job
        self.deadline_s = DEFAULT_WATCHDOG_S if deadline_s is None else deadline_s
        self._blocked: list = [None] * job.num_pes
        self._fire_lock = threading.Lock()
        self.fired = False

    def watch(self, pe: int, what: str, target: int = -1,
              ctx=None) -> _WatchGuard:
        """Guard one blocked primitive; pass ``target``/``ctx`` when the
        wait is on a known remote PE so a survivable job detects that
        PE's failure immediately (see :class:`_WatchGuard`)."""
        return _WatchGuard(self, pe, what, target, ctx)

    # ------------------------------------------------------------------
    def _trip(self, pe: int) -> None:
        with self._fire_lock:
            if self.fired:
                return  # the report is already out; abort poll exits us
            self.fired = True
        report = self.build_report()
        self.job.abort()
        raise HangError(report)

    def build_report(self) -> HangReport:
        now = time.monotonic()
        entries = []
        for pe in range(self.job.num_pes):
            slot = self._blocked[pe]
            what, blocked_s = (slot[0], now - slot[1]) if slot is not None else ("", 0.0)
            entries.append(
                HangEntry(pe, what, blocked_s, self._trace_tail(pe))
            )
        return HangReport(self.deadline_s, tuple(entries))

    def _trace_tail(self, pe: int) -> tuple:
        tracer = self.job.tracer
        if tracer is None:
            return ()
        try:  # a racy mid-run trace read must never break the report
            evs = tracer.events[pe][-self.TAIL_EVENTS:]
        except Exception:  # pragma: no cover - defensive
            return ()
        return tuple(
            f"{e.op}" + (f"->PE{e.target}" if e.target >= 0 else "")
            + f" t=[{e.t_start:.2f},{e.t_end:.2f}]us"
            for e in evs
        )


__all__ = [
    "ALWAYS_FAIL",
    "DEFAULT_WATCHDOG_S",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "HangEntry",
    "HangError",
    "HangReport",
    "InjectedCrash",
    "TransientCommError",
    "Watchdog",
    "LATENCY_OPS",
    "TRANSIENT_OPS",
]
