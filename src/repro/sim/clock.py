"""Per-PE virtual clocks.

Every processing element (CAF image / SHMEM PE) owns one
:class:`VirtualClock` measuring elapsed *virtual microseconds*.  Clocks
advance only when the owning PE performs work that the cost model
charges; they reconcile at synchronization points:

* a barrier sets every participant to the max arrival time plus the
  barrier cost;
* a blocking wait on remotely-written data merges the writer's
  completion timestamp (``merge``).

Clocks are owned by exactly one thread; ``merge`` may race with nothing
because only the owner mutates its clock — remote writers publish their
timestamps through the runtime's memory-notification channel instead.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonic virtual time in microseconds, as the plain attribute
    ``now`` (only the owning PE writes it)."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance(self, dt: float) -> float:
        """Move forward by ``dt`` microseconds (must be non-negative)."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self.now += dt
        return self.now

    def merge(self, t: float) -> float:
        """Reconcile with an external timestamp: ``now = max(now, t)``."""
        if t > self.now:
            self.now = t
        return self.now

    def reset(self, t: float = 0.0) -> None:
        self.now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self.now:.3f}us)"
