"""``BENCHMARK.json`` is in the driver's shape and agrees with ``run.py``;
the ledger checker rejects what the old wall-clock ledger got wrong."""

import copy
import json

import check_schema
import run

BENCHMARK = json.loads((check_schema.REPO / "BENCHMARK.json").read_text())


def test_committed_benchmark_json_is_valid():
    assert check_schema.check_benchmark(BENCHMARK) == []


def test_benchmark_json_agrees_with_the_harness():
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOAD_NAMES
    assert {r["name"]: (r["unit"], r["bound"]) for r in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {r["name"]: r["better"] for r in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert all(r["unit"] == run.unit_of(r["name"]) for r in BENCHMARK["per_layer"])
    assert BENCHMARK["paths"] == ["benchmarks/perf"]


def test_committed_manifest_is_valid():
    manifest = json.loads((check_schema.HERE / "manifest.json").read_text())
    assert check_schema.check_rows(manifest) == []
    workloads = {row["workload"] for row in manifest["rows"]}
    assert workloads == set(run.WORKLOAD_NAMES)


def _broken(**changes):
    doc = copy.deepcopy(BENCHMARK)
    doc.update(changes)
    return check_schema.check_benchmark(doc)


def test_benchmark_checker_rejects_contract_violations():
    assert _broken(extra=1)
    assert _broken(run_seconds=61)
    assert _broken(paths=["/abs"]) and _broken(paths=["../up"])
    assert _broken(command=["python3", "src/repro/bench/wallclock.py"])
    no_setup = [r for r in BENCHMARK["end_to_end"] if r["name"] != "setup_s"]
    assert _broken(end_to_end=no_setup)
    wide = copy.deepcopy(BENCHMARK["end_to_end"])
    wide[0]["bound"] = 0.5
    assert _broken(end_to_end=wide)
    twice = BENCHMARK["per_layer"] + [BENCHMARK["per_layer"][0]]
    assert _broken(per_layer=twice)
    bad_name = [{"name": "has space", "unit": "s", "better": "lower"}]
    assert _broken(per_layer=bad_name)
    no_unit = [{"name": "x", "unit": "", "better": "lower"}]
    assert _broken(per_layer=no_unit)


def test_ledger_checker_rejects_placeholders_units_and_names():
    row = {"workload": "himeno", "metric": "host_cost", "unit": "calib", "value": 38.2}
    assert check_schema.check_rows({"rows": [row]}) == []
    assert check_schema.check_rows({"rows": [{**row, "value": None}]}) == []
    assert check_schema.check_rows({"rows": [{**row, "value": 0.0}]})
    assert check_schema.check_rows({"rows": [{**row, "unit": ""}]})
    assert check_schema.check_rows({"rows": [{k: v for k, v in row.items() if k != "unit"}]})
    assert check_schema.check_rows({"rows": [{**row, "metric": "host cost"}]})
    assert check_schema.check_rows({"rows": [{**row, "value": "fast"}]})
    assert check_schema.check_rows({"rows": []})
