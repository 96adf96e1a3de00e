"""Write ``golden_himeno.json``: the sweep and CAF records listed in
``test_himeno_golden.py``.

The committed file was generated before the sweep moved to
preallocated ``out=`` buffers, so it pins that rewrite to the bytes the
expression form produced.  Regenerate only when the numerics are meant
to change::

    PYTHONPATH=src python -m tests.bench.gen_golden_himeno
"""

import json

from tests.bench.test_himeno_golden import GOLDEN_PATH, golden_table


def main() -> None:
    table = golden_table()
    GOLDEN_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
