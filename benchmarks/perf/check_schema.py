"""Schema checks for ``BENCHMARK.json`` and for recorded result rows.

``check_benchmark`` holds ``BENCHMARK.json`` to the shape the benchmark driver
requires.  ``check_rows`` holds a recorded ledger (``manifest.json``) to the
rules the old ``BENCH_wallclock.json`` broke: no ``0.0`` placeholders (``null``
means not applicable), every value has a named unit, every name is made of
``[A-Za-z0-9_.-]``.

    python3 benchmarks/perf/check_schema.py            # both files, exit 1 on a violation
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BOUND = 0.25


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_benchmark(doc: dict) -> list[str]:
    errors: list[str] = []
    if set(doc) != TOP_KEYS:
        errors.append(f"top-level keys must be exactly {sorted(TOP_KEYS)}, got {sorted(doc)}")
        return errors
    command, paths = doc["command"], doc["paths"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        errors.append("command must be a list of 1..32 strings of at most 200 characters")
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH.match(p) and not p.startswith("/")
                    and ".." not in p.split("/") for p in paths)):
        errors.append("paths must be 1..16 relative directories of [A-Za-z0-9_./-]")
    else:
        for part in command[1:]:
            if "/" in part and not any(part == p or part.startswith(p + "/") for p in paths):
                errors.append(f"command names {part!r}, which is outside paths")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    seen: set[str] = set()

    def name_ok(row: dict, where: str) -> None:
        name = row.get("name")
        if not (isinstance(name, str) and NAME.match(name)):
            errors.append(f"{where}: name {name!r} is not made of [A-Za-z0-9_.-] (1..64)")
        elif name in seen:
            errors.append(f"{where}: name {name!r} is used twice")
        else:
            seen.add(name)

    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errors.append("workloads must list 2 to 8 workloads")
    for row in workloads if isinstance(workloads, list) else []:
        if set(row) != {"name", "why"}:
            errors.append(f"workload row must have exactly name and why: {row}")
            continue
        name_ok(row, "workloads")
        why = row["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            errors.append(f"workload {row['name']}: why must be one line of at most 200 characters")

    def metric_rows(key: str, keys: set[str], low: int, high: int) -> list[dict]:
        rows = doc[key]
        if not (isinstance(rows, list) and low <= len(rows) <= high):
            errors.append(f"{key} must list {low} to {high} metrics")
            return []
        good = []
        for row in rows:
            if set(row) != keys:
                errors.append(f"{key} row must have exactly {sorted(keys)}: {row}")
                continue
            name_ok(row, key)
            if not (isinstance(row["unit"], str) and UNIT.match(row["unit"])):
                errors.append(f"{key} {row['name']}: unit {row['unit']!r} is unnamed or malformed")
            if row["better"] not in ("lower", "higher"):
                errors.append(f"{key} {row['name']}: better must be lower or higher")
            good.append(row)
        return good

    e2e = metric_rows("end_to_end", {"name", "unit", "better", "bound"}, 1, 16)
    for row in e2e:
        if not (_number(row["bound"]) and 0 <= row["bound"] <= MAX_BOUND):
            errors.append(f"end_to_end {row['name']}: bound must be in [0, {MAX_BOUND}]")
    setup = [r for r in e2e if r.get("name") == "setup_s"]
    if not (setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"):
        errors.append("end_to_end must hold setup_s with unit s and better lower")
    metric_rows("per_layer", {"name", "unit", "better"}, 1, 128)
    if len(json.dumps(doc)) > 64 * 1024:
        errors.append("the file is larger than 64 KiB")
    return errors


def check_rows(doc: dict) -> list[str]:
    """A recorded ledger: ``{"rows": [{"workload", "metric", "unit", "value", ...}]}``."""
    errors: list[str] = []
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        return ["a ledger must hold a non-empty list under 'rows'"]
    for i, row in enumerate(rows):
        where = f"row {i} ({row.get('workload')}/{row.get('metric')})"
        for key in ("workload", "metric"):
            if not (isinstance(row.get(key), str) and NAME.match(row[key])):
                errors.append(f"{where}: {key} {row.get(key)!r} is not made of [A-Za-z0-9_.-]")
        if not (isinstance(row.get("unit"), str) and UNIT.match(row["unit"])):
            errors.append(f"{where}: unit {row.get('unit')!r} is unnamed or malformed")
        value = row.get("value", "missing")
        if value is None:
            continue  # not applicable
        if not _number(value):
            errors.append(f"{where}: value {value!r} is neither a number nor null")
        elif isinstance(value, float) and value == 0.0:
            errors.append(f"{where}: 0.0 is a placeholder; write null for not-applicable")
    return errors


def main(argv: list[str]) -> int:
    benchmark = Path(argv[0]) if argv else REPO / "BENCHMARK.json"
    ledger = Path(argv[1]) if len(argv) > 1 else HERE / "manifest.json"
    errors = [f"{benchmark.name}: {e}" for e in check_benchmark(json.loads(benchmark.read_text()))]
    if ledger.is_file():
        errors += [f"{ledger.name}: {e}" for e in check_rows(json.loads(ledger.read_text()))]
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
