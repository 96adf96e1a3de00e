"""Write ``golden_prices.json``: the price table as the *direct* methods
(``NetworkModel.put``/``get``/``iput``/``iget``/``amo``/``*_batch``)
compute it, over the grid of ``test_netmodel_pricers.py``.

The committed file was generated at the last commit whose direct
methods carried their own arithmetic (before they became delegations
to the pricers).  Regenerate only when the cost model itself changes on
purpose::

    PYTHONPATH=src python -m tests.sim.gen_golden_prices
"""

import json

from tests.sim.test_netmodel_pricers import GOLDEN_PATH, golden_table, price_direct


def main() -> None:
    table = golden_table(price_direct)
    rows = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(record, separators=(',', ':'))}"
        for key, record in table.items()
    )
    GOLDEN_PATH.write_text("{\n" + rows + "\n}\n")
    print(f"wrote {len(table)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
