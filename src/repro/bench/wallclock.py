"""Wall-clock comparison of the threaded and process engines.

Each case runs one workload on the default threaded engine and on
``engine="process"`` (true parallelism across forked PEs) and reports
host wall-clock seconds for both (best of ``--repeats`` runs, to damp
scheduler and allocator noise), their ratio, and whether both engines
produced identical virtual times and stats counters (they must).

* ``naive-procs`` — the paper's Section IV-C section
  ``A(1:100:2, 1:80:2, 1:100:4)`` under the ``naive`` policy, assigned
  by every image to its ring neighbour.
* ``himeno-procs`` — a small Himeno run (halo-exchange cadence).

``python -m repro.bench.wallclock`` writes the ``cases`` section of
``BENCH_wallclock.json``.  Host cost of the data plane itself is
measured by the repo benchmark (``benchmarks/perf``: ``section_put``,
``himeno``, ``lock_dht``), not here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import caf
from repro.bench.harness import (
    CafConfig,
    UHCAF_CRAY_SHMEM_2DIM,
    UHCAF_CRAY_SHMEM_NAIVE,
)
from repro.bench.himeno import himeno_caf
from repro.runtime.context import current


@dataclass
class WallclockCase:
    """One workload, timed on the threaded engine and on
    ``engine="process"``.

    ``procs_speedup`` is ``threaded_s / procs_s`` (> 1 means the
    process engine wins — expect that only on multi-core hosts; see
    ``host_cores`` in the JSON); ``procs_identical`` whether both
    engines produced bit-identical virtual times and stats.
    """

    name: str
    description: str
    threaded_s: float
    procs_s: float
    procs_speedup: float
    virtual_identical: bool
    stats_identical: bool
    procs_identical: bool


#: Wall-clock repeats per engine; the minimum is reported (scheduler and
#: allocator noise only ever adds time).
DEFAULT_REPEATS = 3


def _procs_case(name, description, fn_engine, *,
                virtual_eq, stats_eq, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """Time ``fn_engine(None)`` (threaded) against ``fn_engine("process")``.

    Both engines get one untimed warmup pass (imports, worker-pool
    spawn / fork machinery, numpy first-touch), then best-of-repeats
    timings.  A virtual-time or stats divergence fails the CLI.
    """
    def best_of(engine):
        fn_engine(engine)  # warmup
        best = float("inf")
        result = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = fn_engine(engine)
            best = min(best, time.perf_counter() - t0)
        return best, result

    threaded_s, threaded = best_of(None)
    procs_s, procs = best_of("process")
    same_virtual = virtual_eq(threaded, procs)
    same_stats = stats_eq(threaded, procs)
    return WallclockCase(
        name=name,
        description=description,
        threaded_s=round(threaded_s, 4),
        procs_s=round(procs_s, 4),
        procs_speedup=round(threaded_s / procs_s, 2) if procs_s > 0 else float("inf"),
        virtual_identical=same_virtual,
        stats_identical=same_stats,
        procs_identical=same_virtual and same_stats,
    )


# ---------------------------------------------------------------------------
# The cases: threaded vs engine="process" at 8 PEs
# ---------------------------------------------------------------------------


def _ring_section_fingerprints(
    shape: tuple[int, ...],
    key: tuple[slice, ...],
    config: CafConfig,
    engine=None,
    num_images: int = 8,
    machine: str = "stampede",
    dtype=np.float32,
    iters: int = 1,
):
    """Every image assigns ``a[key]`` on its ring neighbour ``iters``
    times — all PEs drive the data plane simultaneously, the shape
    where the process engine's true parallelism shows.  ``num_images``
    stays within one node (intra-node transfers don't queue on the
    NIC timelines), so virtual times are schedule-independent and safe
    to compare bitwise across engines.
    """
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    heap = max(1 << 22, 2 * nbytes + (1 << 18))

    def kernel():
        ctx = current()
        a = caf.coarray(shape, dtype)
        a[...] = 0
        caf.sync_all()
        partner = caf.this_image() % caf.num_images() + 1
        for _ in range(iters):
            a.on(partner)[key] = 7
        caf.sync_all()
        from repro.caf.runtime import current_runtime

        stats = {
            k: v
            for k, v in current_runtime().my_stats.items()
            if not k.startswith("plan_cache")
        }
        return ctx.clock.now, stats, float(a.local.sum())

    return caf.launch(
        kernel, num_images, machine, heap_bytes=heap, engine=engine,
        **config.launch_kwargs(),
    )


def naive_procs_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """Ring section puts at 8 PEs, threaded vs ``engine="process"``."""
    if quick:
        shape, key = (20, 16, 20), np.s_[0:20:2, 0:16:2, 0:20:4]
        iters = 4
    else:
        shape, key = (100, 80, 100), np.s_[0:100:2, 0:80:2, 0:100:4]
        iters = 10
    counts = "x".join(str(len(range(*s.indices(d)))) for s, d in zip(key, shape))
    fn = lambda engine: _ring_section_fingerprints(
        shape, key, UHCAF_CRAY_SHMEM_NAIVE, engine=engine, iters=iters
    )
    return _procs_case(
        "naive-procs",
        f"3-D section {counts} ring puts under the naive policy, 8 images "
        f"x {iters} assignments each: threaded vs engine='process'",
        fn,
        virtual_eq=lambda a, b: all(x[0] == y[0] for x, y in zip(a, b)),
        stats_eq=lambda a, b: all(x[1] == y[1] and x[2] == y[2] for x, y in zip(a, b)),
        repeats=repeats,
    )


def himeno_procs_case(quick: bool = False, repeats: int = DEFAULT_REPEATS) -> WallclockCase:
    """Himeno at 8 images, threaded vs ``engine="process"``."""
    grid = (17, 17, 17) if quick else (33, 33, 65)
    iters = 2 if quick else 4

    def fn(engine):
        return himeno_caf(
            machine="stampede",
            config=UHCAF_CRAY_SHMEM_2DIM,
            num_images=8,
            grid=grid,
            iterations=iters,
            engine=engine,
        )

    return _procs_case(
        "himeno-procs",
        f"Himeno {grid[0]}x{grid[1]}x{grid[2]}, 8 images, {iters} iterations: "
        "threaded vs engine='process'",
        fn,
        virtual_eq=lambda a, b: a.elapsed_us == b.elapsed_us and a.gosa == b.gosa,
        stats_eq=lambda a, b: a.mflops == b.mflops,
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

CASES = {
    "naive-procs": naive_procs_case,
    "himeno-procs": himeno_procs_case,
}


def run_suite(quick: bool = False, cases=None,
              repeats: int = DEFAULT_REPEATS) -> list[WallclockCase]:
    names = list(CASES) if cases is None else list(cases)
    return [CASES[n](quick=quick, repeats=repeats) for n in names]


def write_json(results: list[WallclockCase], path: str | Path) -> Path:
    path = Path(path)
    doc: dict = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}
    # Replace our section, preserve others (repro.bench.scale merges a
    # "scale" section into the same file).
    doc.update(
        benchmark="wallclock",
        generated_by="python -m repro.bench.wallclock",
        # The process engine cannot beat threaded on a single-core host,
        # and the CI gate only makes sense where cores exist.
        host_cores=os.cpu_count(),
        cases=[asdict(c) for c in results],
    )
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def render(results: list[WallclockCase]) -> str:
    lines = [
        f"{'case':<18} {'threaded (s)':>13} {'procs (s)':>10} {'procs':>7}  invariant"
    ]
    for c in results:
        ok = "yes" if (c.virtual_identical and c.stats_identical) else "NO"
        lines.append(
            f"{c.name:<18} {c.threaded_s:>13.4f} {c.procs_s:>10.4f} "
            f"{c.procs_speedup:>6.2f}x  {ok}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.wallclock",
        description="Wall-clock timings of the threaded engine vs engine='process'.",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument(
        "--out", default="BENCH_wallclock.json", help="output JSON path"
    )
    parser.add_argument(
        "--cases", nargs="*", choices=sorted(CASES), help="subset of cases to run"
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="wall-clock repeats per engine (minimum is reported)",
    )
    parser.add_argument(
        "--min-procs-speedup", type=float, default=None, metavar="X",
        help=(
            "fail (exit 1) if any case's threaded-vs-process speedup is "
            "below X (only meaningful on multi-core hosts)"
        ),
    )
    args = parser.parse_args(argv)
    results = run_suite(quick=args.quick, cases=args.cases, repeats=args.repeats)
    print(render(results))
    out = write_json(results, args.out)
    print(f"\nwrote {out}")
    bad = [c.name for c in results if not (c.virtual_identical and c.stats_identical)]
    if bad:
        print(f"ERROR: virtual-time invariance broken in: {bad}", file=sys.stderr)
        return 1
    if args.min_procs_speedup is not None:
        slow = [c.name for c in results if c.procs_speedup < args.min_procs_speedup]
        if slow:
            print(
                f"ERROR: procs speedup below {args.min_procs_speedup} in: "
                f"{slow} (host_cores={os.cpu_count()})",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
