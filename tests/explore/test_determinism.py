"""Determinism regression (PR satellite): one seed, one execution.

Two identical scheduler-mode runs with the same seed must be
bit-identical end to end — same results, same recorded interleaving,
same trace digests, and the *same virtual times* (the trace digest
folds every event's ``t_start``/``t_end`` in, and Himeno's elapsed
virtual time is compared exactly).  The threaded engine can only
promise identical results for race-free programs; scheduler mode must
replay the whole execution."""

from repro.bench.harness import CafConfig
from repro.bench.himeno import himeno_caf
from repro.explore import RandomWalk, Scheduler, get_program, run_schedule
from repro.trace import trace_digest


def test_dht_trace_and_times_bit_identical():
    prog = get_program("dht")
    seen = set()
    for _ in range(2):
        outcome, tracer = run_schedule(prog, RandomWalk(2015), trace=True)
        assert outcome.error is None
        seen.add(
            (outcome.digest, tuple(outcome.choices), trace_digest(tracer))
        )
    assert len(seen) == 1


def test_himeno_result_and_virtual_times_bit_identical():
    config = CafConfig("determinism-shmem", backend="shmem")
    runs = []
    for _ in range(2):
        res = himeno_caf(
            "stampede", config, 4, grid="XS", iterations=2,
            engine=Scheduler(RandomWalk(7)),
        )
        runs.append((res.gosa, res.elapsed_us, res.mflops))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0.0
