"""CAF collectives (``co_sum``, ``co_broadcast``, ...).

Fortran 2018 collectives operate on an ordinary (non-coarray) array
argument, combining corresponding elements across the images of the
*current team* in place.  Following the paper's footnote — *"In UHCAF,
we implement CAF reductions and broadcasts using 1-sided communication
and remote atomics available in OpenSHMEM"* — these are built from
1-sided communication over scratch symmetric buffers, not from the
layer's native collectives, so they work identically over every backend
(GASNet has no reduction primitive) and inside teams.

The heavy lifting lives in :mod:`repro.collectives`: the runtime maps
the current team onto a :class:`~repro.collectives.comm.TeamComm` and
the algorithm (binomial tree, recursive doubling, ring, hierarchical
two-level, or flat linear) is chosen per call by the topology-aware
cost model — or forced via ``REPRO_COLLECTIVE``.

``co_sum(a)`` leaves the result on every image; ``co_sum(a,
result_image=j)`` only guarantees it on image ``j`` (other images'
arrays become undefined per the standard — here they keep the partial
reduction values, which tests treat as unspecified).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.caf.runtime import CafRuntime
from repro.collectives import team_broadcast, team_reduce
from repro.runtime.context import current

_NAMED_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


def _check_array(arr) -> None:
    if not isinstance(arr, np.ndarray):
        raise TypeError("CAF collectives operate on NumPy arrays in place")


def _root_rank_in(rt: CafRuntime, pes, image: int, op_name: str) -> int:
    """Rank of a 1-based (team-relative) image within the (possibly
    survivor-filtered) member list; a failed root raises
    :class:`~repro.runtime.failures.ImageFailedError`."""
    root_pe = rt.image_to_pe(image)
    try:
        return pes.index(root_pe)
    except ValueError:
        from repro.runtime.failures import raise_image_failed

        raise_image_failed(current(), op_name, root_pe, rt.job.failed, rt.job.tracer)


def _reduce(
    rt: CafRuntime,
    arr: np.ndarray,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    result_image: int | None,
) -> None:
    _check_array(arr)
    # Degraded-mode collectives: failed images are excised from the
    # member list, so the tree/ring rank maps only span survivors.
    pes = rt.live_pes(rt.team_pes())
    if arr.size == 0 or len(pes) == 1:
        # Zero-size arrays and one-image teams combine nothing: no
        # scratch, no synchronization (``sync all`` still orders program
        # segments if the caller wants that).
        return
    if result_image is None:
        res = team_reduce(rt.layer, pes, arr, op)
    else:
        res = team_reduce(
            rt.layer, pes, arr, op,
            root_rank=_root_rank_in(rt, pes, result_image, "co_reduce"),
            broadcast=False,
        )
    # Non-result images receive their partial values (unspecified per
    # the standard); the result image receives the full reduction.
    arr.reshape(-1)[:] = res


def co_reduce(
    rt: CafRuntime,
    arr: np.ndarray,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    result_image: int | None = None,
) -> None:
    """``co_reduce``: reduce with a user binary operation (elementwise,
    must be associative and commutative)."""
    _reduce(rt, arr, op, result_image)


def co_named(
    rt: CafRuntime, arr: np.ndarray, name: str, result_image: int | None = None
) -> None:
    """``co_sum``/``co_min``/``co_max``/``co_prod`` by name."""
    try:
        op = _NAMED_OPS[name]
    except KeyError:
        raise ValueError(f"unknown collective {name!r}; expected {sorted(_NAMED_OPS)}") from None
    _reduce(rt, arr, op, result_image)


def co_broadcast(rt: CafRuntime, arr: np.ndarray, source_image: int) -> None:
    """``co_broadcast``: replace ``arr`` on every team image with
    ``source_image``'s value."""
    _check_array(arr)
    pes = rt.live_pes(rt.team_pes())
    root_rank = _root_rank_in(rt, pes, source_image, "co_broadcast")
    if arr.size == 0 or len(pes) == 1:
        return
    res = team_broadcast(rt.layer, pes, arr, root_rank=root_rank)
    arr.reshape(-1)[:] = res
