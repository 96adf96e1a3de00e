"""The CI gate on one printed ``benchmarks/perf/run.py`` metric."""

import io
import subprocess
import sys

import pytest

from repro.bench.metric_gate import main, read_metric

#: The shape of a traced ``kv_service`` run's output (values abridged).
TRACED = """kv_service/explore.self_share {share} share
kv_service/bench.closure {closure} ratio
kv_service/check.reservations_match 1 bool
{{"correct": 12, "attempted": 12, "failed": 0, "metrics": {{}}}}
"""

GATE = ["kv_service/bench.closure", "0.85", "1.15"]


def _gate(monkeypatch, text: str, argv=GATE) -> int:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return main(argv)


@pytest.mark.parametrize("closure, status", [
    ("0.955", 0),  # a Condition hand-off: blocking is booked as wait
    ("0.85", 0), ("1.15", 0),
    ("3.9", 1),    # a raw-lock hand-off: blocking is booked as self time
    ("0.5", 1), ("null", 1),
])
def test_closure_gate(closure, status, capsys, monkeypatch):
    assert _gate(monkeypatch, TRACED.format(closure=closure, share="0.15")) == status
    out = capsys.readouterr().out
    assert f"kv_service/bench.closure {closure} ratio" in out  # the input is echoed


def test_missing_metric_line_is_a_usage_error(monkeypatch):
    assert _gate(monkeypatch, TRACED.format(closure="1.0", share="0.15"),
                 ["kv_service/bench.nothing", "0", "1"]) == 2


def test_read_metric_matches_the_whole_name():
    lines = ["kv_service/bench.closure_extra 9 ratio", "kv_service/bench.closure 1.01 ratio"]
    assert read_metric(lines, "kv_service/bench.closure") == 1.01
    with pytest.raises(KeyError):
        read_metric(lines, "bench.closure")


def test_module_invocation_reads_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.metric_gate", *GATE],
        input=TRACED.format(closure="3.9", share="0.5"),
        capture_output=True, text=True, check=False, timeout=60,
    )
    assert proc.returncode == 1
    assert "outside [0.85, 1.15]" in proc.stderr
