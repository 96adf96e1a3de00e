"""Fault cells of the correctness harness, exercised as a test suite.

Runs the explorer's fault plans (``explore(..., faults=...)``) over the
DHT, lock and collective programs and asserts the gate holds:
bit-identity under retried transients, clean structured aborts under
crashes and escalations, never a violation.  Also covers the classifier
on an unstructured failure and the ``--faults`` CLI's exit codes.
"""

from __future__ import annotations

import pytest

from repro.explore import (
    FAULT_PLANS,
    PROGRAMS,
    ExploreProgram,
    ExploreReport,
    ProgramRun,
    ScheduleOutcome,
    explore,
    fault_plan,
    get_program,
)
from repro.explore.__main__ import main
from repro.explore.harness import _fault_cell, fault_plans_for
from repro.sim.faults import FaultInjector


def _cells(target, plan, seed=2015, schedules=1):
    return explore(target, faults=plan, seed=seed, schedules=schedules,
                   images=4).outcomes


@pytest.mark.parametrize("target", ["dht", "locks"])
def test_gate_holds_on_quick_matrix(target):
    cells = [c for plan in ("mixed", "crash", "escalate")
             for c in _cells(target, plan)]
    assert len(cells) == 3  # mixed + crash + escalate
    for cell in cells:
        assert cell.status != "violation", f"{target}: {cell.error}"
    mixed = cells[0]
    if mixed.status == "identical" and mixed.injected.get("injected_ops", 0):
        assert mixed.elapsed_us > mixed.baseline_us


def test_mixed_schedule_injects_and_stays_identical():
    cells = _cells("dht", "mixed", schedules=2)
    assert [c.strategy["seed"] for c in cells] == [2015, 2016]
    assert all(c.status == "identical" for c in cells), [c.error for c in cells]
    # The DHT program issues dozens of ops per PE at a 15% transient
    # rate: the schedule cannot be a no-op.
    assert all(c.injected.get("injected_ops", 0) > 0 for c in cells)
    # Retried attempts and latency jitter are priced in virtual time.
    assert all(c.elapsed_us > c.baseline_us for c in cells)


def test_crash_schedule_aborts_cleanly():
    (crash,) = _cells("locks", "crash")
    assert crash.injected.get("crashes") == 1
    assert crash.status == "aborted"
    assert "InjectedCrash" in crash.error


@pytest.mark.parametrize(
    "name", sorted(n for n, p in PROGRAMS.items() if "crash" in fault_plans_for(p))
)
def test_every_crash_cell_fires(name):
    # The crash lands halfway through PE 1's fault-free op count, so it
    # fires on every program, however short.
    (crash,) = explore(name, faults="crash").outcomes
    assert crash.injected.get("crashes") == 1
    assert crash.status == "aborted", crash.error


def test_ci_fault_matrix_statuses():
    statuses = {
        (name, plan): [c.status for c in _cells(name, plan, schedules=2)]
        for name in ("dht", "locks", "collectives", "rdht")
        for plan in fault_plans_for(PROGRAMS[name])
    }
    assert statuses == {
        ("dht", "mixed"): ["identical", "identical"],
        ("dht", "crash"): ["aborted"],
        ("dht", "escalate"): ["aborted"],
        ("locks", "mixed"): ["identical", "identical"],
        ("locks", "crash"): ["aborted"],
        ("locks", "escalate"): ["identical"],
        ("collectives", "mixed"): ["identical", "identical"],
        ("collectives", "crash"): ["aborted"],
        ("collectives", "escalate"): ["identical"],
        ("rdht", "survivable"): ["degraded", "degraded"],
    }


def test_plans_apply_by_program_kind():
    assert fault_plans_for(get_program("dht")) == ("mixed", "crash", "escalate")
    assert fault_plans_for(get_program("rdht")) == ("survivable",)
    assert fault_plans_for(get_program("missing_quiet")) == ()
    with pytest.raises(ValueError, match="does not apply"):
        explore("rdht", faults="mixed")
    with pytest.raises(ValueError, match="does not apply"):
        explore("dht", faults="nonsense")


def test_replay_digests_are_identical():
    """Same program, same plan, twice: identical result digests, both
    matching the fault-free answer at larger virtual time.  (Elapsed
    times themselves are scheduler-dependent under concurrent writers —
    contended locks change each PE's op sequence — so the bitwise-time
    contract is tested separately on a single-writer kernel.)"""
    prog = get_program("dht")
    baseline = prog.run("threaded", images=4, machine="stampede")
    runs = [
        prog.run("threaded", images=4, machine="stampede",
                 faults=FaultInjector(fault_plan("mixed", 99), 4))
        for _ in range(2)
    ]
    assert runs[0].digest == runs[1].digest  # digest replays bit-exactly
    assert runs[0].digest == baseline.digest  # and matches the fault-free answer
    assert all(r.elapsed_us > baseline.elapsed_us for r in runs)


def test_single_writer_replay_times_are_bit_exact():
    """With one writer every timed op is issued in program order, so a
    replayed fault schedule yields bit-identical virtual times."""
    from repro.bench.dht import dht_benchmark
    from repro.bench.harness import UHCAF_CRAY_SHMEM

    def run(plan):
        return dht_benchmark(
            "stampede", UHCAF_CRAY_SHMEM, 4,
            updates_per_image=6, slots_per_image=32,
            single_writer=True, faults=plan,
        )

    base = run(None)
    t1 = run(fault_plan("mixed", 99))
    t2 = run(fault_plan("mixed", 99))
    assert t1 == t2
    assert t1 > base


def test_cell_outcome_shape():
    def report(*statuses):
        cells = [ScheduleOutcome(0, {}, "", 0, [], status=s) for s in statuses]
        return ExploreReport("dht", False, "threaded", 4, "stampede",
                             len(cells), {}, cells, None, [], faults="mixed")

    assert report("identical", "aborted", "degraded").ok
    assert not report("identical", "violation").ok
    for name in FAULT_PLANS:  # plans are constructible with any seed
        assert fault_plan(name, 7).seed == 7
    with pytest.raises(ValueError, match="unknown fault plan"):
        fault_plan("nonsense", 7)


def test_run_cell_flags_unstructured_failure():
    """A failure whose root cause is a plain user exception must be a
    violation, not a clean abort."""

    def bad_runner(engine, *, images, machine, trace=False, faults=None):
        from repro import caf

        def kernel():
            raise ValueError("user bug, not an injected fault")

        caf.launch(kernel, images, machine, faults=faults, engine=engine)

    prog = ExploreProgram("bad", False, 4, "raises", bad_runner)
    cell = _fault_cell(prog, fault_plan("mixed", 1), ProgramRun("d", 1.0),
                       images=4, machine="stampede")
    assert cell.status == "violation"
    assert "unstructured" in cell.error


def test_cli_exit_codes(capsys):
    assert main(["--program", "locks", "--faults", "mixed",
                 "--schedules", "1"]) == 0
    assert main(["--program", "locks", "--faults", "mixed",
                 "--images", "1"]) == 2
    assert main(["--program", "locks", "--faults", "survivable"]) == 2
    assert main(["--program", "locks", "--faults", "nonsense"]) == 2
    capsys.readouterr()


def test_cli_json_output(capsys):
    import json

    rc = main(["--program", "locks", "--faults", "mixed", "--schedules", "1",
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == 0
    (report,) = doc["reports"]
    assert report["program"] == "locks"
    assert report["faults"] == "mixed"
    assert report["outcomes"][0]["status"] in ("identical", "aborted")
