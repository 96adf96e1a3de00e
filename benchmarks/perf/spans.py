"""Outside-in span recorder: wraps the public functions at the layer boundaries.

Nothing under ``src/`` is edited.  :meth:`Recorder.install_spans` replaces class
attributes and module functions with timing wrappers (``setattr``, before any
``Job`` exists, so bind-time fast-path swaps capture the wrapped callables) and
:meth:`Recorder.uninstall` puts the originals back.  Module-level functions
that other ``repro`` modules imported by name are patched in every module that
holds the alias.

A span is ``(id, name, layer, start, end, parent id, rep, thread)`` on a
per-thread stack.  A span's *self* time is its duration minus the part its
child spans cover.  Blocking (``threading.Condition.wait``, which also backs
``Event.wait``, and the threaded engine's ``spin_yield`` sleep) is recorded as
*wait* under the layer of the span that blocked, never as self time.  Spans stay
in memory; the harness writes them out when the traced child exits.

What cannot be wrapped from outside: the event engine's ``dispatch`` /
``check_waiters`` and every step-program continuation are closures, so on the
event engine ``engine`` self time is ``EventEngine.run`` minus its child spans.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from typing import Callable

_perf = time.perf_counter

LAYERS = (
    "caf", "comm", "sim", "runtime.memory", "runtime.sync", "runtime.launch",
    "collectives", "engine", "explore", "trace", "bench",
)

_SECTION_SPANS = frozenset(("CafRuntime.put_section", "CafRuntime.get_section"))
_LOCK_SPANS = frozenset(("CafLock.acquire", "CafLock.release"))


def _busy_wait_before(fn: Callable, seconds: float) -> Callable:
    def wrapper(*args, **kwargs):
        until = _perf() + seconds
        while _perf() < until:
            pass
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


class _ThreadState:
    __slots__ = ("tid", "stack", "agg", "wait", "counts", "raw", "seq")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list = []  # frames: [key, start, child_time, id]
        self.agg: dict = {}  # (name, layer) -> [calls, duration, self]
        self.wait: dict = {}  # (parent name, layer) -> seconds blocked
        self.counts: Counter = Counter()
        self.raw: list = []
        self.seq = 0


def _under(stack: list, names: frozenset) -> bool:
    return any(f[0][0] in names for f in stack)


class Recorder:
    """Owns the wrappers, the per-thread stacks and the captured jobs."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.states: list[_ThreadState] = []
        self.active = False
        self.keep_raw = False
        self.rep = 0
        self.jobs: list = []
        self._undo: list = []

    # -- per-thread state ---------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._tls.st
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self.states))
                self.states.append(st)
            self._tls.st = st
            return st

    # -- wrappers -----------------------------------------------------------
    def span(self, fn: Callable, name: str, layer: str, tally=None) -> Callable:
        """Wrap ``fn`` so each call is one span; ``tally(counts, ancestors, args,
        kwargs, result, seconds)`` may add exact counters."""
        key = (name, layer)
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            st = rec._state()
            stack = st.stack
            st.seq += 1
            frame = [key, _perf(), 0.0, st.seq]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                a = st.agg.get(key)
                if a is None:
                    a = st.agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if rec.keep_raw:
                    st.raw.append((frame[3], name, layer, frame[1], end,
                                   stack[-1][3] if stack else 0, rec.rep, st.tid))
            if tally is not None:
                tally(st.counts, stack, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wait(self, fn: Callable, name: str) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            st = getattr(rec._tls, "st", None)
            if not rec.active or st is None or not st.stack:
                return fn(*args, **kwargs)  # a thread outside any span (idle pool worker)
            parent = st.stack[-1]
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                dur = end - start
                parent[2] += dur
                wkey = (parent[0][0], parent[0][1])
                st.wait[wkey] = st.wait.get(wkey, 0.0) + dur
                if rec.keep_raw:
                    st.seq += 1
                    st.raw.append((st.seq, name, "wait", start, end, parent[3],
                                   rec.rep, st.tid))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------
    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def _patch_function(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, alias, wrapped)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- the layer boundaries ---------------------------------------------------
    def install_spans(self) -> None:
        """Wrap every boundary named in the benchmark README."""
        import repro.caf as caf_pkg
        import repro.caf.strided as strided
        import repro.collectives.api as coll_api
        from repro.bench import himeno
        from repro.caf.locks import CafLock
        from repro.caf.runtime import CafRuntime
        from repro.comm.base import OneSidedLayer
        from repro.engine.event import EventEngine
        from repro.engine.pool import WorkerPool
        from repro.engine.threaded import ThreadedEngine, ThreadRunMixin
        from repro.engine.cooperative import CooperativeEngine
        from repro.explore.scheduler import Scheduler
        from repro.runtime.launcher import Job
        from repro.runtime.memory import PEMemory
        from repro.runtime.sync import VirtualBarrier
        from repro.sim.netmodel import NetworkModel
        from repro.sim.resources import Timeline
        from repro.trace.events import Tracer

        def method(cls, attr, layer, tally=None):
            name = f"{cls.__name__}.{attr}"
            self._patch_method(cls, attr, lambda f: self.span(f, name, layer, tally))

        def function(module, attr, layer, name=None):
            label = name or attr
            self._patch_function(module, attr, lambda f: self.span(f, label, layer))

        def bump(counter, amount=lambda a, k, r: 1):
            def tally(counts, stack, args, kwargs, result, seconds):
                counts[counter] += amount(args, kwargs, result)
            return tally

        # caf
        function(strided, "make_plan", "caf")
        function(strided, "normalize_selection", "caf")
        method(CafRuntime, "put_section", "caf")
        method(CafRuntime, "get_section", "caf")
        method(CafLock, "acquire", "caf", bump("lock_acquires"))
        method(CafLock, "release", "caf")

        # comm
        def rma_tally(counts, stack, args, kwargs, result, seconds):
            if _under(stack, _SECTION_SPANS):
                counts["logical_calls"] += 1

        def plan_tally(spec_index):
            # Logical calls and seconds per plan kind: unit runs are what the
            # naive policy compiles to, strided lines what 2dim compiles to.
            def tally(counts, stack, args, kwargs, result, seconds):
                spec = args[spec_index]
                counts["logical_calls"] += spec.ncalls
                calls, secs = f"plan_{spec.kind}_calls", f"plan_{spec.kind}_s"
                counts[calls] += spec.ncalls
                counts[secs] += seconds
            return tally

        def atomic_tally(counts, stack, args, kwargs, result, seconds):
            if _under(stack, _LOCK_SPANS):
                counts["lock_atomics"] += 1

        for attr in ("put", "get", "iput", "iget"):
            method(OneSidedLayer, attr, "comm", rma_tally)
        method(OneSidedLayer, "execute_plan_put", "comm", plan_tally(4))
        method(OneSidedLayer, "execute_plan_get", "comm", plan_tally(3))
        method(OneSidedLayer, "atomic", "comm", atomic_tally)
        for attr in ("quiet", "barrier_all", "wait_until"):
            method(OneSidedLayer, attr, "comm")

        # sim: the direct methods, the pricer factories, and the closures the
        # factories hand out (every factory funnels through ``_pricer``).
        for attr in ("put", "get", "iput", "iget", "put_batch", "get_batch",
                     "iput_batch", "iget_batch", "put_pricer", "get_pricer",
                     "iput_pricer", "iget_pricer", "amo_pricer", "batch_pricer",
                     "amo", "barrier_cost", "reduction_cost", "collective_cost"):
            method(NetworkModel, attr, "sim")
        price_spans: dict[int, tuple] = {}

        def spanned_price(price):
            hit = price_spans.get(id(price))
            if hit is None or hit[0] is not price:
                hit = price_spans[id(price)] = (price, self.span(price, "price", "sim"))
            return hit[1]

        def pricer_memo(original):
            def _pricer(model, key, make):
                entry = original(model, key, make)
                if isinstance(entry, tuple):  # amo_pricer: (price, proc, back)
                    return (spanned_price(entry[0]), *entry[1:])
                return spanned_price(entry)
            return _pricer

        self._patch_method(NetworkModel, "_pricer", pricer_memo)
        method(Timeline, "reserve", "sim", bump("reservations"))
        method(Timeline, "reserve_batch", "sim",
               bump("reservations", lambda a, k, r: int(a[1].shape[0])))
        method(Timeline, "push_batch", "sim",
               bump("reservations", lambda a, k, r: max(int(a[2]), 0)))

        # runtime.memory: writers are counted by their payload, readers by
        # the copy they return.
        def written(index):
            def amount(args, kwargs, result):
                data = kwargs["data"] if "data" in kwargs else args[index]
                return data.nbytes if hasattr(data, "nbytes") else len(data)
            return amount

        def returned(args, kwargs, result):
            return int(result.nbytes)

        mem_bytes = {
            "write": written(2), "write_at": written(3), "write_strided": written(4),
            "scatter_at": written(2), "read": returned, "read_at": returned,
            "read_strided": returned, "gather_at": returned,
            "atomic_rmw_timed": lambda args, kwargs, result: 8,
        }
        for attr, amount in mem_bytes.items():
            method(PEMemory, attr, "runtime.memory", bump("memory_bytes", amount))
        method(PEMemory, "wait_until", "runtime.memory")

        # runtime.sync and the engines' parking hooks
        method(VirtualBarrier, "arrive", "runtime.sync",
               bump("barrier_episodes", lambda a, k, r: 1 if r[1] else 0))
        for engine in (ThreadedEngine, CooperativeEngine):
            method(engine, "barrier_wait", "engine")
            method(engine, "wait_value", "engine")
        method(ThreadRunMixin, "run", "engine")
        method(EventEngine, "run", "engine")
        method(WorkerPool, "submit", "engine")
        self._patch_method(ThreadedEngine, "spin_yield",
                           lambda f: self._wait(f, "ThreadedEngine.spin_yield"))
        self._patch_method(threading.Condition, "wait",
                           lambda f: self._wait(f, "Condition.wait"))

        # explore
        method(Scheduler, "yield_point", "explore", bump("yields"))
        method(Scheduler, "block_until", "explore", bump("yields"))

        # collectives
        for attr in ("team_reduce", "team_broadcast", "team_allgather",
                     "team_reduce_step", "team_broadcast_step", "team_allgather_step"):
            function(coll_api, attr, "collectives")

        # trace
        method(Tracer, "record", "trace", bump("trace_events"))

        # runtime.launch: the PE body becomes the root span of its thread
        rec = self

        def job_run(original):
            inner = self.span(original, "Job.run", "runtime.launch")

            def run(job, fn, args=(), kwargs=None):
                rec.jobs.append(job)
                return inner(job, rec.span(fn, "pe_body", "bench"), args, kwargs)
            return run

        self._patch_method(Job, "run", job_run)
        method(Job, "__init__", "runtime.launch")
        method(CafRuntime, "startup", "runtime.launch")
        function(caf_pkg, "launch", "runtime.launch", name="caf.launch")

        # bench: the application's numpy floor
        function(himeno, "_jacobi_sweep", "bench", name="himeno._jacobi_sweep")

    def install_delays(self, delay_s: dict[str, float]) -> None:
        """Sensitivity injection only (no spans): a fixed busy-wait in front of
        each named ``PEMemory.method`` or ``OneSidedLayer.method``."""
        from repro.comm.base import OneSidedLayer
        from repro.runtime.memory import PEMemory

        classes = {"PEMemory": PEMemory, "OneSidedLayer": OneSidedLayer}
        for name, seconds in delay_s.items():
            cls_name, attr = name.split(".")
            self._patch_method(classes[cls_name], attr,
                               lambda f, seconds=seconds: _busy_wait_before(f, seconds))

    # -- results ----------------------------------------------------------------
    def reset(self) -> None:
        for st in self.states:
            st.agg.clear()
            st.wait.clear()
            st.counts.clear()
            st.raw.clear()
        self.jobs.clear()

    def summary(self) -> dict:
        """Merge the per-thread aggregates (call when no span is open)."""
        spans: dict = {}
        waits: dict = {}
        counts: Counter = Counter()
        for st in self.states:
            for key, (calls, dur, self_t) in st.agg.items():
                a = spans.setdefault(key, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += dur
                a[2] += self_t
            for key, dur in st.wait.items():
                waits[key] = waits.get(key, 0.0) + dur
            counts.update(st.counts)
        return {
            "spans": {f"{layer}:{name}": {"calls": c, "duration_s": d, "self_s": s}
                      for (name, layer), (c, d, s) in sorted(spans.items())},
            "waits": {f"{layer}:{name}": d for (name, layer), d in sorted(waits.items())},
            "counts": counts,
            "threads": len(self.states),
        }

    def raw_spans(self) -> list:
        return [span for st in self.states for span in st.raw]
