"""Write ``golden_collectives.json``: results digests, per-PE final
clocks and trace digests of the event-engine runs listed in
``test_golden_collectives.py``.

The committed file was generated before the collective algorithms and
the scale-benchmark bodies moved from hand-written continuations to
generators, so it pins that rewrite to the virtual times the previous
implementation produced.  Regenerate only when a cost is meant to
change::

    PYTHONPATH=src python -m tests.collectives.gen_golden_collectives
"""

import json

from tests.collectives.test_golden_collectives import GOLDEN_PATH, golden_table


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
