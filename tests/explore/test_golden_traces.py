"""Golden choice lists: the cooperative engine's schedules, pinned.

``golden_traces.json`` records, for a fixed set of cooperative runs, the
number of decision points, the sha256 of the recorded choice list
(``",".join(sched.trace)``) and the run's result digest (or its virtual
microseconds).  It was written by ``gen_golden_traces.py`` before the
engine's hand-off bookkeeping was rewritten, so any change to *which*
choices a strategy is offered, in what order, or what it picks — or to
the virtual time a schedule produces — fails here:

* every corpus program (``repro.explore.programs.PROGRAMS``) at its
  default image count under ``RandomWalk``, ``PCTStrategy`` and
  ``VirtualTimeOrder``;
* a 128-op disjoint KV service cell under ``VirtualTimeOrder``;
* the Fig 8 lock kernel (Titan, UHCAF-Cray-SHMEM) at 8 × 32 and
  48 × 3 acquires under ``VirtualTimeOrder`` (``engine="vt"``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import caf
from repro.bench.harness import UHCAF_CRAY_SHMEM
from repro.bench.kvservice import WorkloadSpec, run_cell
from repro.explore import PCTStrategy, RandomWalk, Scheduler, VirtualTimeOrder
from repro.explore.harness import run_schedule
from repro.explore.programs import PROGRAMS
from repro.runtime.context import current

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")
SEED = 2015

STRATEGIES = {
    "random": lambda: RandomWalk(SEED),
    "pct": lambda: PCTStrategy(SEED),
    "vt": VirtualTimeOrder,
}

KV_SPEC = WorkloadSpec(ops=128, read_frac=0.5, write_frac=0.5, seed=SEED,
                       disjoint=True)

#: (images, acquires) cells of the Fig 8 kernel.
FIG8_CELLS = ((8, 32), (48, 3))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _schedule(sched: Scheduler) -> dict:
    return {"steps": sched.steps, "trace_sha256": _sha(",".join(sched.trace))}


def program_entry(name: str, strategy: str) -> dict:
    outcome, _ = run_schedule(PROGRAMS[name], STRATEGIES[strategy]())
    return {
        "steps": outcome.steps,
        "trace_sha256": _sha(",".join(outcome.choices)),
        "digest": outcome.digest,
    }


def kv_entry() -> dict:
    sched = Scheduler(VirtualTimeOrder())
    results = run_cell(KV_SPEC, engine=sched)
    canon = [{k: v for k, v in r.items() if k != "records"} for r in results]
    return {**_schedule(sched), "digest": _sha(json.dumps(canon, sort_keys=True))}


def fig8_kernel(acquires: int) -> float:
    """The ``microbench.lock_contention_time`` body: every image
    acquires and releases ``lck[1]`` ``acquires`` times."""
    ctx = current()
    lck = caf.lock_type()
    caf.sync_all()
    t0 = ctx.clock.now
    for _ in range(acquires):
        caf.lock(lck, 1)
        caf.unlock(lck, 1)
    caf.sync_all()
    return ctx.clock.now - t0


def run_fig8(images: int, acquires: int, config=UHCAF_CRAY_SHMEM,
             sched: Scheduler | None = None) -> tuple[Scheduler, float]:
    """One Fig 8 cell on Titan, by default UHCAF-Cray-SHMEM under
    ``VirtualTimeOrder``; returns the engine (trace, stats) and the
    elapsed virtual microseconds."""
    sched = Scheduler(VirtualTimeOrder()) if sched is None else sched
    results = caf.launch(
        fig8_kernel, images, "titan", engine=sched, args=(acquires,),
        **config.launch_kwargs(),
    )
    return sched, max(results)


def fig8_entry(images: int, acquires: int) -> dict:
    sched, virtual_us = run_fig8(images, acquires)
    return {**_schedule(sched), "virtual_us": virtual_us}


ENTRIES = {
    **{
        f"program/{name}/{strategy}": (
            lambda name=name, strategy=strategy: program_entry(name, strategy)
        )
        for name in PROGRAMS
        for strategy in STRATEGIES
    },
    "kvservice/128-op-disjoint/vt": kv_entry,
    **{
        f"fig8/{images}x{acquires}/vt": (
            lambda images=images, acquires=acquires: fig8_entry(images, acquires)
        )
        for images, acquires in FIG8_CELLS
    },
}


def golden_table() -> dict:
    return {key: make() for key, make in ENTRIES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_entry(golden):
    assert sorted(golden) == sorted(ENTRIES)


@pytest.mark.parametrize("key", sorted(ENTRIES))
def test_schedule_matches_golden(key, golden):
    assert ENTRIES[key]() == golden[key]
