"""repro.bench.scale: step-program workloads, engine gate, flatness gate."""

from repro.bench import scale
from repro.shmem import attach as shmem_attach


def test_small_equivalence_gate_is_bitwise():
    gate = scale.equivalence_gate(16, iters=2)
    assert set(gate["workloads"]) == {"himeno", "dht"}
    assert all(w["digest_identical"] for w in gate["workloads"].values())


def test_himeno_gosa_is_the_index_order_sum_on_every_pe():
    rec = scale.run_workload("himeno", 16, engine="event", iters=2)
    gosas = {r[0] for r in rec["results"]}
    assert len(gosas) == 1
    # PE p's residual is the sum of its neighbours' face fills,
    # (p-1)+0.25 and (p+1)+0.75 (mod 16); gosa adds them left to right.
    expect = 0.0
    for pe in range(16):
        expect += ((pe - 1) % 16 + 0.25) + ((pe + 1) % 16 + 0.75)
    assert gosas == {round(expect, 9)}


def test_wall_columns_agree_to_a_hundredth_of_a_microsecond():
    rec = scale.run_workload("dht", 16, engine="event", iters=2)
    steps = rec["pes"] * rec["steps_per_pe"]
    assert abs(rec["wall_s"] * 1e6 / steps - rec["wall_us_per_pe_step"]) < 0.01


def test_flatness_ratio_and_gate(capsys):
    records = [
        {"workload": "himeno", "pes": 64, "wall_us_per_pe_step": 8.0},
        {"workload": "himeno", "pes": 1024, "wall_us_per_pe_step": 10.0},
        {"workload": "dht", "pes": 64, "wall_us_per_pe_step": 20.0},
        {"workload": "dht", "pes": 4096, "wall_us_per_pe_step": 90.0},
    ]
    assert scale.flatness(records) == {"himeno": 1.25}  # dht has no 1024 row

    argv = ["--pes", "64,1024", "--no-gate"]
    assert scale.main([*argv, "--max-flatness", "1000"]) == 0
    assert scale.main([*argv, "--max-flatness", "0.01"]) == 1
    assert "FLATNESS: himeno" in capsys.readouterr().out


def test_scalar_pricer_memo_does_not_grow_with_pe_count(monkeypatch):
    """The dht loop sends every atomic and put to a hashed owner, so at
    1024 PEs (64 nodes) almost every op touches a fresh PE pair.  Scalar
    pricers are memoized per route class (op, on-node or off-node,
    sizes), so the layer and the model hold as many entries as at 64."""
    layers = []

    def attach(job):
        layers.append(shmem_attach(job))
        return layers[-1]

    monkeypatch.setattr(scale, "shmem_attach", attach)
    counts = {}
    for pes in (64, 1024):
        scale.run_workload("dht", pes, engine="event")
        layer = layers[-1]
        counts[pes] = (len(layer._pricers), len(layer.job.network._pricers))
    # fadd and 8-byte put, each on-node and off-node
    assert counts[64] == counts[1024] == (4, 4)
