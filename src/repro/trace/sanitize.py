"""CLI: run the ordering sanitizer over a serialized trace.

    python -m repro.trace.sanitize <trace.json> [--quiet]

The trace should come from a sync-capture run (``caf.launch(...,
sanitize=True)`` or ``trace.attach(job, capture_sync=True)`` followed by
``trace.serialize.save``).  Plain profiling traces load fine but carry
no sync metadata, so most cross-PE conflicts will (correctly) be
reported as unordered.  Exit status: 0 when clean, 1 when findings
exist, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.trace.sanitizer import check_events
from repro.trace.serialize import events_from_dict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.sanitize",
        description="Happens-before ordering/race sanitizer for serialized traces.",
    )
    parser.add_argument("trace", help="path to a serialized trace (JSON)")
    parser.add_argument(
        "--quiet", action="store_true", help="print nothing; exit status only"
    )
    args = parser.parse_args(argv)

    try:
        doc = json.loads(Path(args.trace).read_text())
        events = events_from_dict(doc)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2

    report = check_events(events, doc["num_pes"])
    if not args.quiet:
        if not any(e.meta for e in events):
            print(
                "note: trace carries no sync metadata (recorded without "
                "capture_sync?); expect spurious unordered-conflict findings"
            )
        print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
