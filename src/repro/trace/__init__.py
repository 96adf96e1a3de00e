"""Communication tracing and profiling.

Production PGAS runtimes ship with profiling support (CrayPat on the
paper's Cray machines, TAU/Score-P elsewhere); this package provides
the equivalent for the simulated stack: attach a :class:`Tracer` to a
job and every one-sided operation (put/get/iput/iget/atomic/quiet/
barrier) records an event with its virtual start/end times, target and
payload size.  Reports aggregate per-PE and per-operation statistics
and render an ASCII timeline of the run.

Usage::

    from repro import caf, trace

    job-level:   tracer = trace.attach(job)    # before job.run(...)
    caf-level:   results = caf.launch(..., )   # or trace.launch wrapper
    afterwards:  print(tracer.profile().render())
                 print(tracer.timeline(pe=0))
"""

from repro.trace.events import TraceEvent, Tracer, attach, trace_digest
from repro.trace.report import render_profile, render_timeline
from repro.trace.sanitizer import (
    Finding,
    OrderingViolation,
    SanitizerReport,
    check_event_lists,
    check_events,
    check_tracer,
)

__all__ = [
    "TraceEvent",
    "Tracer",
    "attach",
    "trace_digest",
    "render_profile",
    "render_timeline",
    "Finding",
    "OrderingViolation",
    "SanitizerReport",
    "check_event_lists",
    "check_events",
    "check_tracer",
]
