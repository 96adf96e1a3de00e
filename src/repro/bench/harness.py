"""Shared benchmark machinery.

* :class:`CafConfig` — one line of a paper figure: a labeled CAF
  runtime configuration (backend, conduit profile, strided policy,
  lock algorithm).  The module-level constants name the exact
  configurations the paper's figures compare.
* :class:`BenchFigure` — a collected figure: labeled series over a
  common x-axis, renderable as the table a figure's plot encodes.
* :func:`host_info` — cores / Python / numpy stamp for wall-clock rows.
* :func:`update_bench_json` — merge one section into a ledger JSON.
* Pair-placement helpers for the "N pairs across two nodes" layout the
  microbenchmarks use (members of a pair are always on different
  nodes, paper Section III).
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.util.tables import Series, render_figure


@dataclass(frozen=True, slots=True)
class CafConfig:
    """A labeled CAF runtime configuration (one figure line)."""

    label: str
    backend: str  # shmem | gasnet | mpi | craycaf
    profile: str | None = None  # conduit override (None = backend default)
    strided: str | None = None  # strided policy override
    lock_algorithm: str | None = None

    def launch_kwargs(self) -> dict[str, Any]:
        kw: dict[str, Any] = {"backend": self.backend}
        if self.profile is not None:
            kw["profile"] = self.profile
        if self.strided is not None:
            kw["strided"] = self.strided
        if self.lock_algorithm is not None:
            kw["lock_algorithm"] = self.lock_algorithm
        return kw


# The configurations the paper's figures name. --------------------------------

CRAY_CAF = CafConfig("Cray-CAF", backend="craycaf")
UHCAF_GASNET = CafConfig("UHCAF-GASNet", backend="gasnet")
UHCAF_CRAY_SHMEM = CafConfig(
    "UHCAF-Cray-SHMEM", backend="shmem", profile="cray-shmem"
)
UHCAF_CRAY_SHMEM_NAIVE = CafConfig(
    "UHCAF-Cray-SHMEM-naive", backend="shmem", profile="cray-shmem", strided="naive"
)
UHCAF_CRAY_SHMEM_2DIM = CafConfig(
    "UHCAF-Cray-SHMEM-2dim", backend="shmem", profile="cray-shmem", strided="2dim"
)
UHCAF_MV2X_SHMEM = CafConfig(
    "UHCAF-MVAPICH2-X-SHMEM", backend="shmem", profile="mvapich2x-shmem"
)
UHCAF_MV2X_SHMEM_NAIVE = CafConfig(
    "UHCAF-MVAPICH2-X-SHMEM-naive",
    backend="shmem",
    profile="mvapich2x-shmem",
    strided="naive",
)
UHCAF_MV2X_SHMEM_2DIM = CafConfig(
    "UHCAF-MVAPICH2-X-SHMEM-2dim",
    backend="shmem",
    profile="mvapich2x-shmem",
    strided="2dim",
)


@dataclass
class BenchFigure:
    """One reproduced figure: series over a shared x-axis."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)

    def add_series(self, label: str, xs: Sequence[Any], ys: Sequence[float]) -> None:
        s = Series(label)
        for x, y in zip(xs, ys):
            s.add(x, y)
        self.series.append(s)

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r}; have {[s.label for s in self.series]}")

    def render(self) -> str:
        return render_figure(self.title, self.x_label, self.y_label, self.series)

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# Pair placement (paper Section III: members of a pair are always on
# two different nodes; 1 or 16 pairs across two compute nodes)
# ---------------------------------------------------------------------------


def host_info() -> dict[str, Any]:
    """The host behind a wall-clock row (such rows compare only within
    one host/interpreter/numpy combination)."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def update_bench_json(path: str | Path, name: str, section: dict) -> Path:
    """Merge ``section`` into the ledger JSON at ``path`` under ``name``."""
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {"benchmark": "wallclock"}
    doc[name] = section
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def pair_world_size(pairs: int, cores_per_node: int = 16) -> int:
    """PE count for a two-node pair benchmark (idle PEs fill node 0)."""
    if not 1 <= pairs <= cores_per_node:
        raise ValueError(f"pairs must be in [1, {cores_per_node}]")
    return cores_per_node + pairs


def pair_partner(pe: int, pairs: int, cores_per_node: int = 16) -> int | None:
    """The partner PE of an *initiator* ``pe``, or None for idle PEs.

    Initiators are PEs ``0..pairs-1`` on node 0; partners are PEs
    ``cores_per_node..cores_per_node+pairs-1`` on node 1.
    """
    if pe < pairs:
        return cores_per_node + pe
    return None


def bandwidth_MBps(nbytes: int, elapsed_us: float) -> float:
    """Bandwidth in MB/s from bytes moved in virtual microseconds."""
    if elapsed_us <= 0:
        raise ValueError("elapsed time must be positive")
    return nbytes / elapsed_us  # bytes/us == MB/s
