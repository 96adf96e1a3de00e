"""GASNet core: the layer class and active-message machinery.

Active-message model: a handler is a named function registered
identically on every PE.  ``am_request`` runs the handler *logically at
the target* — it receives a :class:`Token` bound to the target PE's
memory and the message's virtual arrival time — and is priced through
the target node's CPU timeline (attentiveness + service time), the way
GASNet AMs are serviced at poll points.  ``am_roundtrip`` additionally
returns the handler's return value and prices the reply path.

Handlers may run concurrently (several senders, one target); they must
touch target state only through the token, whose accessors lock the
target memory internally.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro.comm.base import OneSidedLayer, _FAIL_AT_REMOTE, _fail_at_done
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.runtime.memory import PEMemory

LAYER_NAME = "gasnet"


class Token:
    """Handler-side view of one active message."""

    __slots__ = ("layer", "src", "dst", "arrival")

    def __init__(self, layer: "GasnetLayer", src: int, dst: int, arrival: float) -> None:
        self.layer = layer
        self.src = src
        self.dst = dst
        self.arrival = arrival

    @property
    def mem(self) -> PEMemory:
        """The target PE's memory (all accessors are internally locked)."""
        return self.layer.job.memories[self.dst]

    def write(self, offset: int, data: np.ndarray | bytes) -> None:
        """Handler store into target memory, stamped at message arrival."""
        self.mem.write(offset, data, timestamp=self.arrival)

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        return self.mem.read(offset, nbytes)

    def atomic_rmw(self, offset: int, dtype: np.dtype, fn: Callable) -> np.generic:
        return self.mem.atomic_rmw(offset, dtype, fn, timestamp=self.arrival)


class GasnetLayer(OneSidedLayer):
    """GASNet-like layer: extended API + AM core, no NIC atomics."""

    LAYER_NAME = LAYER_NAME

    def __init__(self, job: Job, profile: str = "gasnet") -> None:
        super().__init__(job, profile)
        self._handlers: dict[str, Callable[..., Any]] = {}
        self._handlers_lock = threading.Lock()

    # ------------------------------------------------------------------
    def register_handler(self, name: str, fn: Callable[..., Any]) -> None:
        """Register handler ``name``.

        Every PE registers in SPMD style; the first registration wins.
        Re-registrations must come from the same ``def`` (same code
        object) — handlers must therefore not capture PE-specific state,
        because an arbitrary PE's closure services all senders.
        """
        with self._handlers_lock:
            existing = self._handlers.get(name)
            if existing is None:
                self._handlers[name] = fn
            elif getattr(existing, "__code__", existing) is not getattr(fn, "__code__", fn):
                raise ValueError(
                    f"AM handler {name!r} registered with different functions "
                    f"on different PEs"
                )

    def _resolve_handler(self, name: str) -> Callable[..., Any]:
        with self._handlers_lock:
            try:
                return self._handlers[name]
            except KeyError:
                raise KeyError(
                    f"no AM handler named {name!r}; registered: {sorted(self._handlers)}"
                ) from None

    # ------------------------------------------------------------------
    def am_request(
        self, pe: int, handler: str, *args: Any, payload: np.ndarray | None = None
    ) -> Any:
        """One-way active message; returns the handler's return value
        functionally but the initiator's clock only advances to *local*
        completion (fire-and-forget semantics)."""
        self._check_pe(pe)
        fn = self._resolve_handler(handler)
        ctx = current()
        if self._decide is not None:
            self._decide(ctx, "am", pe)
        self._check_failed(ctx, "am", pe)
        nbytes = 0 if payload is None else int(np.asarray(payload).nbytes)
        t_start = ctx.clock.now
        timing = self._priced(
            ctx, self, "am", pe,
            lambda now: self.job.network.am_request(
                ctx.pe, pe, nbytes, self.profile, now
            ),
            _FAIL_AT_REMOTE,
        )
        token = Token(self, ctx.pe, pe, timing.remote_complete)
        result = fn(token, *args) if payload is None else fn(token, *args, payload=payload)
        ctx.clock.merge(timing.local_complete)
        if timing.remote_complete > self._pending[ctx.pe]:
            self._pending[ctx.pe] = timing.remote_complete
        tracer = self.job.tracer
        if tracer is not None and tracer.capture_sync:
            # Handler effects land through Token (its stores/atomics are
            # the target PE's, not traced per byte); the AM itself is
            # recorded as machinery so it never counts as a data conflict.
            tracer.record(
                ctx.pe, "am", pe, nbytes, t_start, ctx.clock.now, internal=True
            )
        return result

    def am_roundtrip(
        self, pe: int, handler: str, *args: Any, payload: np.ndarray | None = None
    ) -> Any:
        """Request/reply active message; blocks until the reply arrives
        and returns the handler's return value."""
        self._check_pe(pe)
        fn = self._resolve_handler(handler)
        ctx = current()
        if self._decide is not None:
            self._decide(ctx, "am", pe)
        self._check_failed(ctx, "am", pe)
        nbytes = 0 if payload is None else int(np.asarray(payload).nbytes)
        t_start = ctx.clock.now
        done = self._priced(
            ctx, self, "am", pe,
            lambda now: self.job.network.am_roundtrip(
                ctx.pe, pe, nbytes, self.profile, now
            ),
            _fail_at_done,
        )
        # The handler logically runs on arrival, before the reply.
        token = Token(self, ctx.pe, pe, done)
        result = fn(token, *args) if payload is None else fn(token, *args, payload=payload)
        ctx.clock.merge(done)
        tracer = self.job.tracer
        if tracer is not None and tracer.capture_sync:
            tracer.record(
                ctx.pe, "am", pe, nbytes, t_start, ctx.clock.now, internal=True
            )
        return result
