"""Write ``golden_traces.json``: step counts, choice-list hashes and
result digests of the cooperative runs listed in
``test_golden_traces.py``.

The committed file was generated before the cooperative engine's
hand-off bookkeeping (choice tokens, wake-ups) was rewritten, so it pins
that rewrite to the schedules the previous implementation produced.
Regenerate only when a schedule is meant to change::

    PYTHONPATH=src python -m tests.explore.gen_golden_traces
"""

import json

from tests.explore.test_golden_traces import GOLDEN_PATH, golden_table


def main() -> None:
    table = golden_table()
    rows = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(record, separators=(',', ':'))}"
        for key, record in table.items()
    )
    GOLDEN_PATH.write_text("{\n" + rows + "\n}\n")
    print(f"wrote {len(table)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
