"""Calibration kernel and the estimators every host-time number goes through.

Raw wall seconds on a shared box drift with machine phase (a single-threaded
deterministic run gave 1164 / 1166 / 992 ms set medians, 17 %), so host cost
is never reported in seconds.  Each timed repetition is bracketed by a fixed
calibration kernel and its cost is ``rep wall / mean(adjacent calibration
walls)`` -- a dimensionless number of "calibs" (``bench.calib_ms`` converts
back to milliseconds on the measuring host).  Costs are pooled over several
fresh processes before the median is taken, because thread-backed engines have
slow modes that persist for the life of one process.

The kernel is frozen: changing it changes the unit of every ``host_cost``.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Frozen sizes of the calibration kernel (about 5 ms on the sizing host).
_CALIB_DICT_STEPS = 24000
_CALIB_UFUNC_STEPS = 320
_CALIB_VECTOR = np.arange(4096, dtype=np.float64)


def calibration_kernel() -> float:
    """Run the fixed kernel once; returns its wall seconds.

    Two halves, so the unit tracks both things the simulator spends host time
    on: interpreter dispatch over dicts and ints, and small numpy ufunc calls.
    """
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    acc = 0
    for i in range(_CALIB_DICT_STEPS):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0) + i
        acc ^= d[k]
    v = _CALIB_VECTOR
    for _ in range(_CALIB_UFUNC_STEPS):
        v = np.add(v, 1.0)
        v = np.multiply(v, 0.5)
    if acc < 0 or not math.isfinite(float(v[0])):  # keep both results live
        raise RuntimeError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0


def calibrated_costs(rep_walls: list[float], calib_walls: list[float]) -> list[float]:
    """Adjacent-pair normalisation.

    ``calib_walls`` has one more entry than ``rep_walls``: the kernel runs
    before the first repetition and after every repetition, so repetition
    ``i`` sits between calibrations ``i`` and ``i + 1``.
    """
    if len(calib_walls) != len(rep_walls) + 1:
        raise ValueError("need exactly one calibration on each side of every repetition")
    return [
        wall / ((calib_walls[i] + calib_walls[i + 1]) / 2.0)
        for i, wall in enumerate(rep_walls)
    ]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def pooled(processes: list[list[float]]) -> dict:
    """Pool calibrated costs over fresh processes.

    Returns the pooled median, p25, p90, mean, the sample count, and the
    number of samples beyond p90 (a percentile is only quoted with at least
    ten samples beyond it; otherwise ``p90`` is ``None``).
    """
    flat = [c for proc in processes for c in proc]
    if not flat:
        raise ValueError("no samples to pool")
    p90 = quantile(flat, 0.90)
    beyond = sum(1 for c in flat if c > p90)
    return {
        "median": quantile(flat, 0.50),
        "p25": quantile(flat, 0.25),
        "p90": p90 if beyond >= 10 else None,
        "mean": sum(flat) / len(flat),
        "samples": len(flat),
        "beyond_p90": beyond,
        "processes": len(processes),
    }
