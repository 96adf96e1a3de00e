"""Per-primitive host cost (Epiphany-paper table shape, host microseconds instead
of device latency) and the raw-numpy copy floor (POSH's ``shmem_put`` against
bare ``memcpy``).

The primitives run as a step program on the event engine -- no threads, so the
numbers are the layers' own cost: 17 PEs, Cray-SHMEM profile (the section
workloads' profile; native ``iput``), PE 0 drives an inter-node partner.
Every number is the median of :data:`BATCHES` batches.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.engine.steps import BarrierStep, Done, alloc_array_step
from repro.runtime.context import current
from repro.runtime.launcher import Job
from repro.runtime.memory import PEMemory
from repro.shmem import attach as shmem_attach

BATCHES = 5
PAYLOADS = (8, 4096, 1 << 20)
_CALLS = {8: 300, 4096: 300, 1 << 20: 10}
IPUT_ELEMS = 1024
BARRIER_PES = 16
_PARTNER = 16
_perf = time.perf_counter


def _median_us(run, calls: int) -> float:
    samples = []
    for _ in range(BATCHES):
        t0 = _perf()
        for _ in range(calls):
            run()
        samples.append((_perf() - t0) / calls * 1e6)
    return statistics.median(samples)


def _rma_table() -> dict:
    job = Job(_PARTNER + 1, "stampede", heap_bytes=4 << 20, engine="event")
    layer = shmem_attach(job, "cray-shmem")

    def body():
        ctx = current()

        def measure(arr):
            if ctx.pe != 0:
                return Done(None)
            out = {}
            for size in PAYLOADS:
                data = np.ones(size // 8, dtype=np.int64)
                out[f"comm.prim.put_{size}_us"] = _median_us(
                    lambda: layer.put(arr, data, _PARTNER), _CALLS[size])
                layer.quiet()
                out[f"comm.prim.get_{size}_us"] = _median_us(
                    lambda: layer.get(arr, size // 8, _PARTNER), _CALLS[size])
            line = np.ones(IPUT_ELEMS, dtype=np.int64)
            out[f"comm.prim.iput_{IPUT_ELEMS}_us"] = _median_us(
                lambda: layer.iput(arr, line, 2, 1, IPUT_ELEMS, _PARTNER), 100)
            layer.quiet()
            out["comm.prim.amo_us"] = _median_us(
                lambda: layer.atomic(arr, _PARTNER, 0, "fadd", 1), 300)
            return Done(out)

        return alloc_array_step(layer, (max(PAYLOADS) // 8,), np.int64, measure)

    return job.run(body)[0]


def _barrier_us() -> float:
    rounds = 40
    samples = []
    for _ in range(BATCHES):
        job = Job(BARRIER_PES, "stampede", heap_bytes=1 << 15, engine="event")
        layer = shmem_attach(job, "cray-shmem")

        def body():
            def step(left: int):
                if left == 0:
                    return Done(None)
                return BarrierStep(layer, lambda: step(left - 1))
            return step(rounds)

        t0 = _perf()
        job.run(body)
        samples.append((_perf() - t0) / rounds * 1e6)
    return statistics.median(samples)


def _copy_floor() -> dict:
    """PEMemory copies against raw numpy copies of the same bytes and index
    pattern: contiguous payloads of every primitive size, and the 50,000-element
    float32 scatter/gather of the benchmark's section (stride 2, 2, 4)."""
    out = {}
    mem = PEMemory(8 << 20)
    raw_buf = np.zeros(8 << 20, dtype=np.uint8)
    for size in PAYLOADS:
        data = np.ones(size, dtype=np.uint8)
        out[f"comm.prim.copy_{size}_us"] = _median_us(
            lambda: raw_buf.__setitem__(slice(0, size), data), _CALLS[size])
    big = max(PAYLOADS)
    data = np.ones(big, dtype=np.uint8)
    mem_s = _median_us(lambda: mem.write(0, data, 1.0), _CALLS[big])
    raw_s = out[f"comm.prim.copy_{big}_us"]
    index = (np.arange(0, 100, 2)[:, None, None] * 8000
             + np.arange(0, 80, 2)[None, :, None] * 100
             + np.arange(0, 100, 4)[None, None, :]).reshape(-1)
    payload = np.ones(index.size, dtype=np.float32)
    view = raw_buf[: raw_buf.size - raw_buf.size % 4].view(np.uint32)
    lo, hi = 0, int(index.max()) * 4 + 4
    m = _median_us(lambda: mem.scatter_at(index, payload, 1.0, elem_size=4, lo=lo, hi=hi), 40)
    r = _median_us(lambda: view.__setitem__(index, payload.view(np.uint32)), 40)
    m += _median_us(lambda: mem.gather_at(index, elem_size=4, lo=lo, hi=hi), 40)
    r += _median_us(lambda: view[index], 40)
    out["runtime.memory.copy_floor_ratio"] = (mem_s + m) / (raw_s + r)
    out["runtime.memory.scatter_floor_ratio"] = m / r
    out["runtime.memory.contig_floor_ratio"] = mem_s / raw_s
    return out


def primitive_table() -> dict:
    table = _rma_table()
    table[f"comm.prim.barrier_{BARRIER_PES}_us"] = _barrier_us()
    table.update(_copy_floor())
    return table


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[sys.argv.index("--cpu") + 1])})
    print(json.dumps(primitive_table()))
