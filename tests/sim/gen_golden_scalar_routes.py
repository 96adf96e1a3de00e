"""Write ``golden_scalar_routes.json``: a seeded random sequence of
scalar prices on a 1024-PE ``stampede`` job (64 nodes), per conduit,
with what the pricer factories returned for it (see
``test_scalar_routes.py``).

The committed file was generated while every scalar pricer was still
a closure bound to one node pair.  Regenerate only when the cost model
itself changes on purpose::

    PYTHONPATH=src python -m tests.sim.gen_golden_scalar_routes
"""

import json
import random

from repro.sim.machines import MACHINES
from repro.sim.netmodel import CONDUITS
from tests.sim.test_scalar_routes import GOLDEN_PATH, replay

SEED = 2015
MACHINE = "stampede"
NUM_PES = 1024
OPS_PER_CONDUIT = 240
NBYTES = (1, 8, 64, 4096, 4097, 8192, 8193, 100_000)  # both eager thresholds
NELEMS = (1, 3, 17, 400)
STRIDES = (None, 8, 64, 256, 1000)


def make_ops(rng: random.Random, native: bool) -> list:
    """One conduit's op sequence: ``[op, src, dst, now.hex(), *sizes]``."""
    cpn = MACHINES[MACHINE].cores_per_node
    nodes = NUM_PES // cpn
    hot = rng.sample(range(nodes), 6)  # shared nodes: later ops queue

    def pick_node():
        return rng.choice(hot) if rng.random() < 0.6 else rng.randrange(nodes)

    kinds = ["put", "get", "amo"] + (["iput", "iget"] if native else [])
    t = 0.1234567 + 10.0 * rng.random()
    ops = []
    for _ in range(OPS_PER_CONDUIT):
        op = rng.choice(kinds)
        src_node = pick_node()
        dst_node = src_node if rng.random() < 0.2 else pick_node()
        src = src_node * cpn + rng.randrange(cpn)
        dst = dst_node * cpn + rng.randrange(cpn)
        t += rng.expovariate(1.5)
        now = t + 0.37 * rng.random()
        if op in ("put", "get"):
            sizes = [rng.choice(NBYTES)]
        elif op in ("iput", "iget"):
            sizes = [rng.choice(NELEMS), rng.choice((4, 8)), rng.choice(STRIDES)]
        else:
            sizes = []
        ops.append([op, src, dst, now.hex(), *sizes])
    return ops


def main() -> None:
    rng = random.Random(SEED)
    conduits = {}
    for name, conduit in CONDUITS.items():
        ops = make_ops(rng, conduit.iput_native)
        conduits[name] = {"ops": ops, **replay(MACHINE, NUM_PES, name, ops)}
    rows = ",\n".join(
        f"{json.dumps(name)}: {json.dumps(case, separators=(',', ':'))}"
        for name, case in conduits.items()
    )
    header = json.dumps({"seed": SEED, "machine": MACHINE, "num_pes": NUM_PES})[:-1]
    GOLDEN_PATH.write_text(f'{header}, "conduits": {{\n{rows}\n}}}}\n')
    print(f"wrote {sum(len(c['ops']) for c in conduits.values())} ops to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
