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


def test_flatness_ratio_and_gate(capsys, monkeypatch):
    # One run per sample, three samples per point: this test is about
    # the gate's verdict, not the timing floors.
    monkeypatch.setattr(scale, "SAMPLE_MIN_WALL_S", 0.0)
    monkeypatch.setattr(scale, "SWEEP_MIN_WALL_S", 0.0)
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


def test_sweep_rows_are_median_samples_taken_in_turn(monkeypatch):
    """A sample is back-to-back runs totalling SAMPLE_MIN_WALL_S; the
    points sample in turn until each has SWEEP_MIN_SAMPLES totalling
    SWEEP_MIN_WALL_S; the row is the median sample."""
    monkeypatch.setattr(scale, "SAMPLE_MIN_WALL_S", 0.1)
    monkeypatch.setattr(scale, "SWEEP_MIN_SAMPLES", 3)
    monkeypatch.setattr(scale, "SWEEP_MIN_WALL_S", 0.6)
    # 64 PEs: three runs per sample, five samples to pass 0.6 s.
    # 1024 PEs: one run per sample, three samples.
    walls = {
        64: [0.045] * 3 + [0.048] * 3 + [0.04] * 3 + [0.049] * 3 + [0.046] * 3,
        1024: [0.25, 0.35, 0.3],
    }
    queues = {}
    calls = []

    def fake_run(workload, num_pes, **kwargs):
        calls.append((workload, num_pes))
        wall = queues.setdefault((workload, num_pes), iter(walls[num_pes]))
        return {"workload": workload, "pes": num_pes, "results": [], "digest": None,
                "wall_s": next(wall), "steps_per_pe": 9}

    monkeypatch.setattr(scale, "run_workload", fake_run)
    rows = {(r["workload"], r["pes"]): r for r in scale.sweep((64, 1024))}
    h64, d64, h1024, d1024 = ("himeno", 64), ("dht", 64), ("himeno", 1024), ("dht", 1024)
    assert calls[:8] == [h64] * 3 + [d64] * 3 + [h1024, d1024]
    for workload in ("himeno", "dht"):
        row = rows[workload, 64]
        assert (row["wall_s"], row["samples"], row["repeats"]) == (0.046, 5, 15)
        assert row["wall_us_per_pe_step"] == round(0.046e6 / (64 * 9), 3)
        row = rows[workload, 1024]
        assert (row["wall_s"], row["samples"], row["repeats"]) == (0.3, 3, 3)
        assert not {"runs", "results", "digest"} & set(row)


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
