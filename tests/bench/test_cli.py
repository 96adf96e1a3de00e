"""The figure-runner CLI (python -m repro.bench)."""

import subprocess
import sys

import pytest

from repro.bench.__main__ import TARGETS, main


def test_tables_target(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table III" in out
    assert "wall-clock" in out  # every target reports host time too


def test_unknown_target_errors():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_all_targets_registered():
    assert TARGETS == (
        "tables", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
        "kvservice",
    )


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "tables"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "Table II" in proc.stdout


def test_report_generation(tmp_path):
    from repro.bench.report import generate_report

    text = generate_report(targets=("tables", "fig8"), quick=True)
    assert "# Reproduction report" in text
    assert "Table II" in text
    assert "lock microbenchmark" in text
    assert "faster than Cray-CAF" in text


def test_report_flag_writes_file(tmp_path):
    out = tmp_path / "report.md"
    assert main(["tables", "--report", str(out)]) == 0
    text = out.read_text()
    assert "Reproduction report" in text and "Table III" in text


def test_kvservice_target_writes_no_file(tmp_path, monkeypatch, capsys):
    # The ledger's kvservice section is written only on an explicit
    # --out; the figure runner's quick sweep must not overwrite it.
    monkeypatch.chdir(tmp_path)
    assert main(["kvservice"]) == 0
    assert "reshard:" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
