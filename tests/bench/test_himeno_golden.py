"""Golden Himeno: sweep output bytes and CAF results, pinned to the bit.

``golden_himeno.json`` records, for the standard and a cross-term
coefficient set, the sha256 of the interior that ``_jacobi_sweep``
returns and ``float.hex`` of its residual on four grid shapes, plus
``float.hex`` of ``gosa`` and ``elapsed_us`` from ``himeno_caf`` runs
inside one node, across two nodes and under the deterministic order.
It was written by ``gen_golden_himeno.py`` before the sweep moved to
preallocated ``out=`` buffers and each image stopped building the full
initial grid, so either rewrite must reproduce these bytes unchanged.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import harness as H
from repro.bench.himeno import (
    STANDARD_COEFFICIENTS,
    HimenoCoefficients,
    _jacobi_sweep,
    himeno_caf,
)

GOLDEN_PATH = Path(__file__).with_name("golden_himeno.json")

COEFFICIENTS = {
    "standard": STANDARD_COEFFICIENTS,
    "cross": HimenoCoefficients(
        a0=1.1, a1=0.9, a2=1.05, a3=0.16,
        b0=0.02, b1=-0.03, b2=0.01,
        c0=0.95, c1=1.02, c2=0.98, wrk1=0.001, bnd=0.9,
    ),
}
SWEEP_SHAPES = [(3, 3, 3), (6, 7, 8), (10, 14, 12), (17, 5, 33)]
#: (name, images, grid, iterations, engine)
CAF_RUNS = [
    ("one-node", 4, (10, 14, 12), 3, None),
    ("two-node", 18, (12, 40, 16), 2, None),
    ("vt", 5, (9, 12, 10), 3, "vt"),
]


def sweep_record(shape, coef_name: str) -> dict:
    rng = np.random.default_rng([len(coef_name), *shape])
    p = rng.random(shape)
    before = p.tobytes()
    new, gosa = _jacobi_sweep(p, 0.7, COEFFICIENTS[coef_name])
    assert p.tobytes() == before, "the sweep must not modify its input"
    return {
        "new": hashlib.sha256(np.ascontiguousarray(new).tobytes()).hexdigest(),
        "gosa": float(gosa).hex(),
    }


def caf_record(images, grid, iterations, engine, coef_name: str) -> dict:
    r = himeno_caf(
        "stampede", H.UHCAF_MV2X_SHMEM, images, grid=grid, iterations=iterations,
        omega=0.8, coef=COEFFICIENTS[coef_name], engine=engine,
    )
    return {"gosa": float(r.gosa).hex(), "elapsed_us": float(r.elapsed_us).hex()}


def golden_table() -> dict:
    table = {}
    for coef_name in COEFFICIENTS:
        for shape in SWEEP_SHAPES:
            table[f"sweep/{coef_name}/{'x'.join(map(str, shape))}"] = sweep_record(
                shape, coef_name
            )
        for name, images, grid, iterations, engine in CAF_RUNS:
            table[f"caf/{coef_name}/{name}"] = caf_record(
                images, grid, iterations, engine, coef_name
            )
    return table


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("coef_name", list(COEFFICIENTS))
@pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_sweep_bytes_pinned(shape, coef_name):
    key = f"sweep/{coef_name}/{'x'.join(map(str, shape))}"
    assert sweep_record(shape, coef_name) == GOLDEN[key]


@pytest.mark.parametrize("coef_name", list(COEFFICIENTS))
@pytest.mark.parametrize("run", CAF_RUNS, ids=lambda r: r[0])
def test_caf_results_pinned(run, coef_name):
    name, images, grid, iterations, engine = run
    record = caf_record(images, grid, iterations, engine, coef_name)
    assert record == GOLDEN[f"caf/{coef_name}/{name}"]
