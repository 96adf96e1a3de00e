"""CLI for the correctness harness.

::

    python -m repro.explore --program dht --schedules 50 --seed 2015
    python -m repro.explore --program missing_quiet --schedules 200 \
        --json > witness.json
    python -m repro.explore --replay witness.json
    python -m repro.explore --program dht locks rdht \
        --faults mixed crash escalate survivable --schedules 2 --images 4

Exit codes: 0 — every program met its contract (race-free corpus
bit-identical across all schedules; racy corpus produced a divergence
witness; every fault cell bit-identical, a clean structured abort or
degraded-but-correct); 1 — at least one contract violation (or a
replay that did not reproduce); 2 — bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.explore import FAULT_PLANS, PROGRAMS, explore, replay
from repro.explore.harness import fault_plans_for


def _print_report(report) -> None:
    status = "ok" if report.ok else "VIOLATION"
    kind = "racy" if report.racy else "race-free"
    if report.faults is not None:
        print(f"{report.program:18s} {report.faults:10s} {report.strategy:15s} "
              f"cells={report.schedules_run:<3d} {status}")
        for c in report.outcomes:
            line = (f"    seed={c.strategy['seed']:<6d} {c.status:9s} "
                    f"injected={c.injected.get('injected_ops', 0)}")
            if c.baseline_us is not None:
                line += f" t={c.elapsed_us:.1f}us (baseline {c.baseline_us:.1f}us)"
            print(line + (f"  [{c.error}]" if c.error else ""))
        return
    print(
        f"{report.program:18s} {kind:9s} {report.strategy:10s} "
        f"schedules={report.schedules_run:<4d} "
        f"digests={len(report.digests):<2d} "
        f"{'exhausted ' if report.exhausted else ''}{status}"
    )
    for err in report.errors[:5]:
        print(f"    error: {err}")
    w = report.witness
    if w is not None:
        print(
            f"    divergence: baseline {w.baseline_digest[:12]}… vs "
            f"{w.divergent_digest[:12]}…"
        )
        print(
            f"    witness: {len(w.choices)} choices, minimized to "
            f"{len(w.minimized)} — replay with --replay <this JSON>"
        )
        for line in w.trace_diff[:8]:
            print(f"    {line}")


def _run_replay(args) -> int:
    try:
        with open(args.replay, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"explore: cannot read replay file: {exc}", file=sys.stderr)
        return 2
    # Accept a witness dict, a full report, or the CLI's JSON output.
    if "reports" in doc:
        witnesses = [r.get("witness") for r in doc["reports"]]
        witness = next((w for w in witnesses if w), None)
    else:
        witness = doc.get("witness", doc)
    if witness is None or "choices" not in witness or "program" not in witness:
        print("explore: replay file carries no witness", file=sys.stderr)
        return 2
    choices = witness["minimized"] if args.minimized else witness["choices"]
    outcome, _ = replay(
        witness["program"], choices, images=args.images,
        machine=args.machine, max_steps=args.max_steps,
        guided=args.minimized,
    )
    expected = witness.get("divergent_digest")
    reproduced = expected is None or outcome.digest == expected
    if args.json:
        print(
            json.dumps(
                {
                    "program": witness["program"],
                    "digest": outcome.digest,
                    "expected": expected,
                    "steps": outcome.steps,
                    "reproduced": reproduced,
                },
                indent=2,
            )
        )
    else:
        print(
            f"replay {witness['program']}: digest {outcome.digest[:12]}… "
            f"({outcome.steps} steps) — "
            + ("reproduced" if reproduced else f"EXPECTED {expected[:12]}…")
        )
    return 0 if reproduced else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Deterministic schedule exploration: race-free programs "
        "must stay bit-identical across interleavings, seeded racy programs "
        "must yield a divergence witness.  With --faults, seeded fault plans "
        "instead: each cell bit-identical, a clean abort, or degraded.",
    )
    parser.add_argument(
        "--program", nargs="+", choices=sorted(PROGRAMS), dest="programs",
        help="corpus programs to explore",
    )
    parser.add_argument(
        "--schedules", type=int, default=20,
        help="interleavings to try per program; with --faults, mixed and "
        "survivable cells per program (default: 20)",
    )
    parser.add_argument(
        "--seed", type=int, default=2015,
        help="base seed; schedule (or fault cell) i uses seed+i "
        "(default: 2015)",
    )
    parser.add_argument(
        "--faults", nargs="+", choices=FAULT_PLANS, metavar="PLAN",
        help=f"run fault plans ({' '.join(FAULT_PLANS)}) instead of "
        "schedules, each on the programs it applies to: survivable on "
        "survivable programs, the rest on the other race-free ones",
    )
    parser.add_argument(
        "--strategy", choices=["random", "pct", "exhaustive"], default="random",
        help="schedule-generation strategy (default: random)",
    )
    parser.add_argument(
        "--pct-depth", type=int, default=3,
        help="PCT priority-change depth (default: 3)",
    )
    parser.add_argument("--images", type=int, default=None,
                        help="image count (default: per-program)")
    parser.add_argument("--machine", default="stampede")
    parser.add_argument(
        "--max-steps", type=int, default=None,
        help="per-schedule decision-point ceiling (livelock guard)",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="skip witness minimization (faster on huge traces)",
    )
    parser.add_argument(
        "--replay", metavar="FILE",
        help="re-execute the witness in FILE (JSON from --json) and check "
        "that it reproduces the divergent digest",
    )
    parser.add_argument(
        "--minimized", action="store_true",
        help="with --replay: use the minimized prefix instead of the full "
        "choice list",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.max_steps is None:
        from repro.explore import DEFAULT_MAX_STEPS

        args.max_steps = DEFAULT_MAX_STEPS
    if args.replay:
        return _run_replay(args)
    if not args.programs:
        print("explore: --program (or --replay) is required", file=sys.stderr)
        return 2
    if args.schedules < 1:
        print("explore: --schedules must be >= 1", file=sys.stderr)
        return 2

    runs = [
        (name, plan)
        for name in args.programs
        for plan in (args.faults or [None])
        if plan is None or plan in fault_plans_for(PROGRAMS[name])
    ]
    if not runs:
        print("explore: no fault plan applies to these programs",
              file=sys.stderr)
        return 2
    if args.faults and args.images is not None and args.images < 2:
        print("explore: fault plans need at least 2 images", file=sys.stderr)
        return 2

    reports = [
        explore(
            name,
            schedules=args.schedules,
            seed=args.seed,
            strategy=args.strategy,
            images=args.images,
            machine=args.machine,
            max_steps=args.max_steps,
            pct_depth=args.pct_depth,
            faults=plan,
            minimize=not args.no_minimize,
        )
        for name, plan in runs
    ]
    violations = [r for r in reports if not r.ok]
    if args.json:
        print(
            json.dumps(
                {
                    "reports": [r.to_dict() for r in reports],
                    "violations": len(violations),
                },
                indent=2,
            )
        )
    else:
        for r in reports:
            _print_report(r)
        print(
            f"explore: {len(reports)} report(s), {len(violations)} "
            f"violation(s)" + ("" if violations else " — contracts hold")
        )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
