"""The explorer: race-free/racy contracts, witnesses, replay, the CLI,
and the ``@schedules`` pytest decorator."""

import json

import numpy as np
import pytest

from repro import caf
from repro.explore import (
    RandomWalk,
    explore,
    get_program,
    replay,
    run_schedule,
    schedules,
    trace_diff,
    trace_digest,
)
from repro.explore.__main__ import main as explore_main


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["locks", "events"])
def test_race_free_programs_are_schedule_independent(name):
    report = explore(name, schedules=6, seed=3)
    assert report.ok
    assert not report.racy
    assert len(report.digests) == 1
    assert report.witness is None
    assert not report.errors
    assert report.schedules_run == 6


def test_dht_distinct_home_keys_have_distinct_homes():
    from repro.explore.programs import _dht_distinct_keys
    from repro.bench.dht import _mix

    keys = _dht_distinct_keys(3, 8, 6)
    homes = {(_mix(k) % 3 + 1, (_mix(k) >> 20) % 8) for k in keys}
    assert len(homes) == len(keys) == 6


def test_missing_quiet_yields_witness_within_budget():
    report = explore("missing_quiet", schedules=200, seed=2015)
    assert report.racy and report.ok
    assert report.diverged
    w = report.witness
    assert w is not None
    assert w.baseline_digest != w.divergent_digest
    assert 0 < len(w.minimized) <= len(w.choices)
    assert w.trace_diff
    # The full recording replays to the divergent digest...
    outcome, _ = replay("missing_quiet", w.choices)
    assert outcome.digest == w.divergent_digest
    # ...and the minimized prefix still diverges under guided completion.
    outcome_min, _ = replay("missing_quiet", w.minimized, guided=True)
    assert outcome_min.digest != w.baseline_digest


def test_unordered_conflict_yields_witness():
    report = explore("unordered_conflict", schedules=100, seed=1)
    assert report.ok and report.diverged
    w = report.witness
    outcome, _ = replay("unordered_conflict", w.choices)
    assert outcome.digest == w.divergent_digest


def test_exhaustive_strategy_finds_conflict():
    report = explore("unordered_conflict", schedules=400, strategy="exhaustive")
    assert report.ok and report.diverged


def test_unknown_program_rejected():
    with pytest.raises(KeyError, match="unknown explore program"):
        explore("hydra")


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_trace_digest_replays_bit_identically():
    prog = get_program("locks")
    digests = set()
    for _ in range(2):
        outcome, tracer = run_schedule(prog, RandomWalk(19), trace=True)
        assert outcome.error is None
        digests.add((outcome.digest, trace_digest(tracer)))
    assert len(digests) == 1


def test_trace_diff_reports_first_divergence():
    class _FakeEvent:
        def __init__(self, op, target, nbytes):
            self.op, self.target, self.nbytes = op, target, nbytes

    class _FakeTracer:
        def __init__(self, streams):
            self.events = [
                [_FakeEvent(*e) for e in stream] for stream in streams
            ]

    base = _FakeTracer([[("put", 1, 8), ("quiet", -1, 0)]])
    div = _FakeTracer([[("put", 1, 8), ("get", 1, 8)]])
    lines = trace_diff(base, div)
    assert any("first differing op at #1" in line for line in lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_race_free_exit_zero(capsys):
    rc = explore_main(["--program", "locks", "--schedules", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "contracts hold" in out


def test_cli_json_document(capsys):
    rc = explore_main(
        ["--program", "locks", "--schedules", "3", "--seed", "1", "--json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["violations"] == 0
    (report,) = doc["reports"]
    assert report["program"] == "locks"
    assert report["ok"] is True
    assert len(report["digests"]) == 1


def test_cli_usage_errors(capsys):
    assert explore_main([]) == 2
    assert explore_main(["--program", "locks", "--schedules", "0"]) == 2
    assert explore_main(["--program", "not-a-program"]) == 2
    capsys.readouterr()


def test_cli_witness_replay_roundtrip(tmp_path, capsys):
    rc = explore_main(
        ["--program", "unordered_conflict", "--schedules", "100", "--json"]
    )
    assert rc == 0
    doc = capsys.readouterr().out
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(doc)
    assert explore_main(["--replay", str(witness_file)]) == 0
    out = capsys.readouterr().out
    assert "reproduced" in out
    assert explore_main(["--replay", str(witness_file), "--minimized"]) == 0
    capsys.readouterr()


def test_cli_replay_rejects_witnessless_file(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"reports": [{"witness": None}]}))
    assert explore_main(["--replay", str(f)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# @schedules decorator
# ---------------------------------------------------------------------------


def _accumulate_kernel():
    me = caf.this_image()
    acc = caf.coarray((1,), np.int64)
    acc[:] = 0
    caf.sync_all()
    caf.atomic_add(acc, 1, me)
    caf.sync_all()
    return int(acc.on(1)[0])


@schedules(n=5, seed=23)
def test_schedules_decorator_runs_fresh_schedulers(schedule):
    sched = schedule()
    out = caf.launch(_accumulate_kernel, 2, engine=sched)
    assert out == [3, 3]
    assert sched.steps > 0


@schedules(n=2, strategy="pct", seed=31)
def test_schedules_decorator_pct(schedule):
    out = caf.launch(_accumulate_kernel, 2, engine=schedule())
    assert out == [3, 3]
