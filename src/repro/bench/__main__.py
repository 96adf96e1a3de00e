"""Command-line figure runner: ``python -m repro.bench [target ...]``.

Targets: ``tables``, ``fig2`` ... ``fig10``, ``kvservice``, or
``all``.  Add ``--full`` for the paper-scale sweeps (minutes of wall
time) instead of the quick CI-sized ones.  Every
target reports the host wall-clock seconds it took alongside its
virtual-time results, so perf changes are measurable from one run.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import figures

TARGETS = (
    "tables", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
    "kvservice",
)


def _render(result) -> None:
    items = result if isinstance(result, list) else [result]
    for item in items:
        print(item.render() if hasattr(item, "render") else item)
        print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["all"],
        help=f"any of {', '.join(TARGETS)}, or 'all' (default)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale sweeps instead of quick ones (much slower)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="write a markdown reproduction report to FILE instead of printing",
    )
    args = parser.parse_args(argv)

    targets = list(args.targets)
    if "all" in targets:
        targets = list(TARGETS)
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        parser.error(f"unknown target(s) {unknown}; choose from {TARGETS}")

    quick = not args.full
    if args.report:
        from repro.bench.report import generate_report

        text = generate_report(targets, quick=quick)
        from pathlib import Path

        Path(args.report).write_text(text)
        print(f"wrote {args.report} ({len(text.splitlines())} lines)")
        return 0
    for target in targets:
        print(f"=== {target} " + "=" * (68 - len(target)))
        t0 = time.perf_counter()
        if target == "tables":
            _render(figures.tables())
        elif target == "kvservice":
            from repro.bench import kvservice

            kvservice.main(["--quick"] if quick else [])
            print()
        else:
            _render(getattr(figures, target)(quick=quick))
        print(f"--- {target}: {time.perf_counter() - t0:.2f}s wall-clock")
    return 0


if __name__ == "__main__":
    sys.exit(main())
