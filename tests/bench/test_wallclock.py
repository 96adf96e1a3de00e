"""Smoke tests for the threaded-vs-process wall-clock benchmark."""

import json

import numpy as np

from repro.bench import wallclock
from repro.bench.harness import UHCAF_CRAY_SHMEM_NAIVE


def test_fingerprints_report_logical_call_counts():
    """The naive policy still counts one putmem per selected element,
    on every image of the ring."""
    shape, key = (20, 16, 20), np.s_[0:20:2, 0:16:2, 0:20:4]
    res = wallclock._ring_section_fingerprints(
        shape, key, UHCAF_CRAY_SHMEM_NAIVE, num_images=4
    )
    for _, stats, checksum in res:
        assert stats["putmem_calls"] == 10 * 8 * 5
        assert stats["put_elems"] == 10 * 8 * 5
        assert checksum == 7.0 * 10 * 8 * 5  # the neighbour's assignment landed


def test_write_json_document_shape(tmp_path):
    case = wallclock.WallclockCase(
        name="x",
        description="d",
        threaded_s=0.9,
        procs_s=0.1,
        procs_speedup=9.0,
        virtual_identical=True,
        stats_identical=True,
        procs_identical=True,
    )
    out = wallclock.write_json([case], tmp_path / "BENCH_wallclock.json")
    doc = json.loads(out.read_text())
    assert doc["benchmark"] == "wallclock"
    assert doc["cases"][0]["procs_speedup"] == 9.0
    assert doc["cases"][0]["virtual_identical"] is True
    assert "x" in wallclock.render([case])


def test_cli_quick_subset(tmp_path, capsys):
    out = tmp_path / "bw.json"
    rc = wallclock.main(
        ["--quick", "--cases", "naive-procs", "--repeats", "1", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [c["name"] for c in doc["cases"]] == ["naive-procs"]
    assert doc["cases"][0]["virtual_identical"] is True
    assert "naive-procs" in capsys.readouterr().out
