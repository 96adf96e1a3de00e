"""Trace serialization: save/load event streams as JSON.

Production profilers persist traces for offline analysis; these helpers
round-trip a :class:`~repro.trace.events.Tracer`'s events through a
compact JSON document (one record per event), so traces can be diffed
across runs, post-processed outside the simulator, or fed to the
ordering sanitizer (``python -m repro.trace.sanitize``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.trace.events import OPS, TraceEvent, Tracer

# The one format written and read: 11-field records (pe, op, target,
# nbytes, t_start, t_end, calls, addr, footprint, internal, meta) over
# the op vocabulary of :data:`~repro.trace.events.OPS`.
FORMAT_VERSION = 5


def to_dict(tracer: Tracer) -> dict:
    """A JSON-ready document for the tracer's events."""
    return {
        "format": FORMAT_VERSION,
        "num_pes": tracer.job.num_pes,
        "machine": tracer.job.machine.name,
        "events": [
            [
                e.pe,
                e.op,
                e.target,
                e.nbytes,
                e.t_start,
                e.t_end,
                e.calls,
                e.addr,
                [list(iv) for iv in e.footprint],
                int(e.internal),
                list(e.meta),
            ]
            for per_pe in tracer.events
            for e in per_pe
        ],
    }


def save(tracer: Tracer, path: str | Path) -> None:
    """Write the trace to ``path`` as JSON."""
    Path(path).write_text(json.dumps(to_dict(tracer)))


def events_from_dict(doc: dict) -> list[TraceEvent]:
    """Decode a document back into a flat, start-time-ordered event list.

    Accepts :data:`FORMAT_VERSION` only; the sort by ``(t_start, pe)``
    is stable, so each PE's program order — the order records were
    written in — is preserved.
    """
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format {doc.get('format')!r}")
    num_pes = doc["num_pes"]
    out = []
    for rec in doc["events"]:
        if len(rec) != 11:
            raise ValueError(f"event record has {len(rec)} fields: {rec}")
        pe, op, target, nbytes, t_start, t_end, calls, addr, footprint, internal, meta = rec
        if not 0 <= pe < num_pes:
            raise ValueError(f"event names PE {pe} outside [0, {num_pes})")
        if op not in OPS:
            raise ValueError(f"unknown op {op!r} in trace")
        if t_end < t_start:
            raise ValueError(f"event ends before it starts: {rec}")
        if calls < 1:
            raise ValueError(f"event covers {calls} calls: {rec}")
        out.append(
            TraceEvent(
                pe=pe,
                op=op,
                target=target,
                nbytes=nbytes,
                t_start=t_start,
                t_end=t_end,
                calls=calls,
                addr=addr,
                footprint=tuple((int(s), int(n)) for s, n in footprint),
                internal=bool(internal),
                meta=tuple(meta),
            )
        )
    out.sort(key=lambda e: (e.t_start, e.pe))
    return out


def load(path: str | Path) -> list[TraceEvent]:
    """Read a saved trace; returns the ordered event list."""
    return events_from_dict(json.loads(Path(path).read_text()))
