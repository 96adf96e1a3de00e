"""Team-scoped collective sweep: auto-selection vs fixed algorithms.

The collective library (:mod:`repro.collectives`) picks an algorithm per
(payload, team size, team shape, machine) through the closed-form cost
model.  This benchmark sweeps team-scoped allreduce on the event engine
over 64-4096 PEs with two team shapes — ``block`` (a contiguous half of
the PEs: whole nodes, node-aligned rank order) and ``strided`` (every
third PE: multi-node and *node-misaligned*, so tree rank distances
cross node boundaries at every level) — at a latency-bound payload
(8 B) and a bandwidth-bound one (8 KiB), running every applicable fixed
algorithm plus auto-selection at each point.

The figure of merit is *virtual* completion time (max member clock):
that is what the cost model predicts and what selection optimizes.
Host wall-clock per run is recorded alongside as the engine-throughput
envelope.

Gates (``--no-gate`` to skip):

* **auto never loses** — at every sweep point the auto-selected run's
  virtual time must not exceed the best *measured* fixed algorithm's
  (auto runs one of the fixed candidates, so equality up to float fuzz
  is the expectation; a violation means the cost model mispredicts the
  ranking).
* **hierarchy pays off** — on the misaligned multi-node (``strided``)
  shape at 1024+ PEs the two-level ``hier`` algorithm must beat the
  flat ``binomial`` tree, the paper-motivated reason this library
  exists.  (On the node-aligned ``block`` shape a flat tree is already
  effectively hierarchical — its low rounds stay on-node — so the flat
  algorithms legitimately win there; the cost model knows.)

The ring algorithm costs O(m) rounds per member (O(m^2) engine events);
it is swept only up to ``RING_MAX_MEMBERS`` members and the skip is
logged — at larger m the per-member chunk of these payloads is tiny and
the cost model prices ring out of contention anyway.

Results land in the ``collectives`` section of ``BENCH_wallclock.json``
(or ``--out``); the CI ``collective-smoke`` job runs ``--quick``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.bench.harness import host_info, update_bench_json
from repro.collectives import selector_for, team_reduce_step
from repro.collectives.comm import get_team_comm
from repro.collectives.select import REDUCE_ALGORITHMS
from repro.engine.steps import Done
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.shmem import attach as shmem_attach

DEFAULT_PES = (64, 256, 1024, 4096)
QUICK_PES = (64, 1024)

#: int64 element counts per payload class: 8 B (latency-bound) and
#: 8 KiB (bandwidth-bound).
PAYLOAD_ELEMS = (1, 1024)

#: Ring does 2(m-1) post/wait rounds per member — O(m^2) engine events.
#: Beyond this team size it is skipped (and logged); the cost model
#: never selects it there for the swept payloads (chunk = payload/m).
RING_MAX_MEMBERS = 128

MACHINE = "stampede"


def team_shapes(num_pes: int) -> dict[str, tuple[int, ...]]:
    """``block`` packs whole nodes (node-aligned rank order); ``strided``
    takes every third PE — stride 3 does not divide the 16-core node
    width, so team ranks interleave across node boundaries and tree
    exchanges cross the NIC at every rank distance."""
    return {
        "block": tuple(range(num_pes // 2)),
        "strided": tuple(range(0, num_pes, 3)),
    }


def _heap_bytes(m: int, nelems: int) -> int:
    """Per-PE symmetric heap: flag bank (2m int64) + generous scratch
    headroom for the payload, rounded up to a 4 KiB multiple."""
    need = (1 << 15) + 2 * m * 8 + 16 * nelems * 8
    return (need + 4095) & ~4095


def run_point(
    num_pes: int,
    shape: str,
    members: tuple[int, ...],
    nelems: int,
    algo: str | None,
) -> dict:
    """One allreduce on the event engine; returns the sweep record."""
    m = len(members)
    job = Job(
        num_pes, MACHINE, heap_bytes=_heap_bytes(m, nelems), engine="event"
    )
    layer = shmem_attach(job)
    member_set = frozenset(members)
    expect = sum(members)  # sum over members of data[0] == pe

    def body():
        ctx = current()
        if ctx.pe not in member_set:
            return Done((None, None, ctx.clock.now))
        data = np.arange(nelems, dtype=np.int64)
        data[0] = ctx.pe
        pick = None
        if algo is None and ctx.pe == members[0]:
            comm = get_team_comm(layer, members)
            pick = selector_for(layer).choose("reduce", comm, nelems * 8)
        fin = lambda res: Done((int(np.asarray(res)[0]), pick, ctx.clock.now))
        return team_reduce_step(
            layer, members, data, np.add, fin, algorithm=algo
        )

    t0 = time.perf_counter()
    results = job.run(body)
    wall_s = time.perf_counter() - t0
    for pe in members:
        got = results[pe][0]
        if got != expect:
            raise AssertionError(
                f"allreduce wrong: pes={num_pes} shape={shape} "
                f"algo={algo or 'auto'} PE {pe}: {got} != {expect}"
            )
    return {
        "pes": num_pes,
        "team": m,
        "shape": shape,
        "payload_bytes": nelems * 8,
        "algo": algo or "auto",
        "auto_pick": results[members[0]][1],
        "virtual_us": round(max(results[pe][2] for pe in members), 6),
        "wall_s": round(wall_s, 4),
    }


def sweep(pes_list=DEFAULT_PES) -> tuple[list[dict], list[str]]:
    """Run every (size, shape, payload, algorithm) point.

    Returns ``(records, skipped)`` where ``skipped`` names the points
    not run (ring beyond RING_MAX_MEMBERS) — no silent truncation.
    """
    records: list[dict] = []
    skipped: list[str] = []
    for num_pes in pes_list:
        for shape, members in team_shapes(num_pes).items():
            m = len(members)
            for nelems in PAYLOAD_ELEMS:
                algos: list[str | None] = [None, *REDUCE_ALGORITHMS]
                for algo in algos:
                    if algo == "ring" and m > RING_MAX_MEMBERS:
                        skipped.append(
                            f"ring@pes={num_pes},shape={shape},"
                            f"payload={nelems * 8}B (m={m} > "
                            f"{RING_MAX_MEMBERS})"
                        )
                        continue
                    records.append(
                        run_point(num_pes, shape, members, nelems, algo)
                    )
    return records, skipped


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def check_auto_vs_fixed(records: list[dict], fuzz: float = 1e-6) -> list[str]:
    """Auto-selection must not be slower than the best measured fixed
    algorithm at any sweep point."""
    points: dict[tuple, dict[str, float]] = {}
    for r in records:
        key = (r["pes"], r["shape"], r["payload_bytes"])
        points.setdefault(key, {})[r["algo"]] = r["virtual_us"]
    violations = []
    for (pes, shape, payload), by_algo in sorted(points.items()):
        auto = by_algo.get("auto")
        fixed = {a: v for a, v in by_algo.items() if a != "auto"}
        if auto is None or not fixed:
            continue
        best_algo = min(fixed, key=fixed.get)
        if auto > fixed[best_algo] * (1.0 + fuzz):
            violations.append(
                f"auto loses at pes={pes} shape={shape} payload={payload}B: "
                f"auto={auto:.3f}us > {best_algo}={fixed[best_algo]:.3f}us"
            )
    return violations


def check_hier_beats_binomial(
    records: list[dict], min_pes: int = 1024
) -> list[str]:
    """On the misaligned multi-node (``strided``) shape at ``min_pes``+
    the two-level hierarchy must beat the flat binomial tree.  The
    node-aligned ``block`` shape is excluded: there a flat tree's low
    rounds already stay on-node (it is effectively hierarchical), so
    flat algorithms legitimately win it."""
    points: dict[tuple, dict[str, float]] = {}
    for r in records:
        if r["pes"] < min_pes or r["shape"] != "strided":
            continue
        key = (r["pes"], r["shape"], r["payload_bytes"])
        points.setdefault(key, {})[r["algo"]] = r["virtual_us"]
    violations = []
    for (pes, shape, payload), by_algo in sorted(points.items()):
        hier, binom = by_algo.get("hier"), by_algo.get("binomial")
        if hier is None or binom is None:
            continue
        if hier >= binom:
            violations.append(
                f"hier does not beat binomial at pes={pes} shape={shape} "
                f"payload={payload}B: hier={hier:.3f}us >= "
                f"binomial={binom:.3f}us"
            )
    return violations


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.collectives",
        description="Team-scoped collective sweep: auto vs fixed algorithms",
    )
    parser.add_argument(
        "--pes", default=None,
        help="comma-separated PE counts (default 64,256,1024,4096)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 64 and 1024 PEs only",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="skip the auto-vs-fixed and hier-vs-binomial gates",
    )
    parser.add_argument(
        "--out", default=None, metavar="JSON",
        help="write/merge the collectives section into this wallclock JSON",
    )
    ns = parser.parse_args(argv)

    if ns.pes is not None:
        pes_list = tuple(int(p) for p in ns.pes.split(","))
    elif ns.quick:
        pes_list = QUICK_PES
    else:
        pes_list = DEFAULT_PES

    records, skipped = sweep(pes_list)
    for msg in skipped:
        print(f"skipped {msg}")
    for rec in records:
        pick = f" ->{rec['auto_pick']}" if rec["auto_pick"] else ""
        print(
            f"pes={rec['pes']:>5} team={rec['team']:>5} {rec['shape']:>8} "
            f"{rec['payload_bytes']:>5}B {rec['algo']:>9}{pick:<11} "
            f"virtual={rec['virtual_us']:>10.3f}us wall={rec['wall_s']:>8.3f}s"
        )

    section = {
        "generated_by": "python -m repro.bench.collectives",
        "engine": "event",
        "machine": MACHINE,
        "host": host_info(),
        "sweep": records,
        "skipped": skipped,
    }
    rc = 0
    if not ns.no_gate:
        violations = check_auto_vs_fixed(records)
        hier = check_hier_beats_binomial(records)
        section["gate"] = {
            "auto_never_worse": not violations,
            "hier_beats_binomial_at_1024": not hier,
        }
        for v in violations + hier:
            print(f"GATE FAILURE: {v}")
        if violations or hier:
            rc = 1
        else:
            print(
                "gates passed: auto matches the best fixed algorithm at "
                "every point; hier beats binomial on the misaligned "
                "multi-node shape at 1024+ PEs"
            )
    if ns.out:
        path = update_bench_json(ns.out, "collectives", section)
        print(f"collectives section written to {path}")
    return rc


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
