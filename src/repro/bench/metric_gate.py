"""Bound one metric that ``benchmarks/perf/run.py`` prints.

``run.py`` prints one ``<workload>/<metric> <value> <unit>`` line per
metric.  This gate reads that output on stdin, echoes it, and checks
one line's value against a closed range::

    python3 benchmarks/perf/run.py --workload kv_service --seed 2015 \\
        --seconds 3 --trace 1 \\
        | python -m repro.bench.metric_gate kv_service/bench.closure 0.85 1.15

CI bounds the traced ``kv_service`` run's ``bench.closure`` this way:
the span harness counts blocking only through
``threading.Condition.wait``, so a hand-off that blocks any other way
is booked as self time and lifts the closure (the share of wall the
spans cover) far above 1.

Exit status: 0 within range, 1 outside it (or ``null``), 2 when the
metric line is missing.
"""

from __future__ import annotations

import argparse
import sys


def read_metric(lines, name: str) -> float | None:
    """The value printed for ``name``; None when it reads ``null``.
    Raises KeyError when no line names it."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] == name:
            return None if parts[1] == "null" else float(parts[1])
    raise KeyError(name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.metric_gate",
        description="Bound one metric line of benchmarks/perf/run.py output (read on stdin).",
    )
    parser.add_argument("metric", help="the printed name, e.g. kv_service/bench.closure")
    parser.add_argument("lo", type=float, help="lowest value that passes")
    parser.add_argument("hi", type=float, help="highest value that passes")
    ns = parser.parse_args(argv)
    lines = sys.stdin.read().splitlines()
    print("\n".join(lines))
    try:
        value = read_metric(lines, ns.metric)
    except KeyError:
        print(f"metric gate: no {ns.metric} line in the input", file=sys.stderr)
        return 2
    if value is None or not ns.lo <= value <= ns.hi:
        print(f"metric gate: {ns.metric} = {value} is outside [{ns.lo}, {ns.hi}]",
              file=sys.stderr)
        return 1
    print(f"metric gate: {ns.metric} = {value} within [{ns.lo}, {ns.hi}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
