"""Multi-dimensional strided transfer planning (paper Section IV-C).

A co-indexed array-section access like ``X(1:100:2, 1:80:2, 1:100:4)[j]``
must be decomposed into operations OpenSHMEM offers: contiguous
``putmem``/``getmem`` and 1-D strided ``iput``/``iget``.  This module
turns a NumPy-style selection into a :class:`TransferPlan` under one of
several algorithms:

``naive``
    One contiguous transfer per maximal contiguous run.  When the
    fastest-varying selected dimension is strided, that is one call *per
    element* — the paper's 50 x 40 x 25 = 50,000-call example.

``2dim`` (the paper's ``2dim_strided`` contribution)
    Choose a *base dimension* among the **two fastest-varying** array
    dimensions — the one with more selected elements — and issue one
    1-D ``iput``/``iget`` per line along it, looping over the remaining
    dimensions.  Restricting the choice to the two fastest dimensions is
    the paper's locality tradeoff: a base dimension further out would
    make each strided element a whole cache-unfriendly panel apart.
    (Fortran's dimension 1 is fastest-varying; these arrays are C-order,
    so Fortran dims 1 and 2 map to the *last two* axes here.)

``alldim`` (ablation)
    Like ``2dim`` but the base dimension may be any axis — the variant
    the paper rejects for locality reasons.

``matrix``
    The matrix-oriented case (paper Section V-D, Himeno): when the
    fastest-varying selected dimension is contiguous, one ``putmem`` per
    run beats one ``iput`` per line; otherwise fall back to ``2dim``.

``auto``
    ``matrix`` when runs are contiguous, else ``2dim`` on conduits with
    native ``iput`` and ``naive`` otherwise.

Plans are pure data: one element offset per call in an int64 array,
plus the length (or count and stride) every call shares; execution
lives in :mod:`repro.caf.rma`.  Plan generation is exact: tests verify that
executing any plan touches exactly the elements NumPy slicing selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.sim.resources import chain_last

ALGORITHMS = (
    "naive",
    "2dim",
    "alldim",
    "lastdim",
    "matrix",
    "auto",
    "model",
    "contiguous",
)


@dataclass(frozen=True, slots=True)
class DimSel:
    """One dimension of a normalized selection: ``start + i*step`` for
    ``i`` in ``[0, count)``."""

    start: int
    count: int
    step: int


@dataclass(frozen=True, slots=True)
class ContigRun:
    """One contiguous transfer: ``length`` elements at ``offset``."""

    offset: int  # element offset within the coarray
    length: int


@dataclass(frozen=True, slots=True)
class StridedLine:
    """One 1-D strided transfer: ``count`` elements, ``stride`` apart."""

    offset: int  # element offset within the coarray
    stride: int  # element stride (>= 1)
    count: int


_NO_CALLS = np.empty(0, dtype=np.int64)
_NO_CALLS.setflags(write=False)


@dataclass(frozen=True, slots=True, eq=False)
class TransferPlan:
    """Decomposition of a multi-dimensional section into library calls.

    Every planner emits *uniform* calls — runs of one shared length, or
    lines of one shared count and stride — so a plan is one offset per
    call plus the shared shape, not a tuple of per-call objects.
    """

    algorithm: str
    #: ``"runs"`` (contiguous putmem/getmem), ``"lines"`` (1-D strided
    #: iput/iget), or None for an empty plan.
    kind: str | None = None
    #: Read-only int64 element offset of every call, in plan order
    #: (cached plans are shared by every PE thread).
    offsets: np.ndarray = field(default_factory=lambda: _NO_CALLS)
    #: Run length, or line element count.
    per_call: int = 0
    #: Element stride within a line (1 for runs).
    stride: int = 1
    #: Axis moved last so that flattened payload chunks match ``lines``
    #: (only set for line plans; None means natural C order).
    base_dim: int | None = None

    @property
    def num_calls(self) -> int:
        return self.offsets.size

    @property
    def total_elems(self) -> int:
        return self.offsets.size * self.per_call

    @property
    def runs(self) -> tuple[ContigRun, ...]:
        """Per-call view of a run plan (built on access)."""
        if self.kind != "runs":
            return ()
        return tuple(ContigRun(o, self.per_call) for o in self.offsets.tolist())

    @property
    def lines(self) -> tuple[StridedLine, ...]:
        """Per-call view of a line plan (built on access)."""
        if self.kind != "lines":
            return ()
        return tuple(
            StridedLine(o, self.stride, self.per_call) for o in self.offsets.tolist()
        )


def _calls(algorithm: str, kind: str, offsets: np.ndarray, per_call: int,
           stride: int = 1, base_dim: int | None = None) -> TransferPlan:
    """A non-empty uniform plan; takes ownership of ``offsets``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    offsets.setflags(write=False)
    return TransferPlan(algorithm, kind, offsets, int(per_call), int(stride), base_dim)


# ---------------------------------------------------------------------------
# Selection normalization
# ---------------------------------------------------------------------------


def normalize_selection(
    shape: tuple[int, ...], key
) -> tuple[list[DimSel], tuple[int, ...]]:
    """Normalize a NumPy-style subscript into per-dimension selections.

    Supports integers and slices with positive step (Fortran array
    sections have positive strides; reversed sections are rejected).
    Returns ``(selections, result_shape)`` where integer subscripts
    contribute a count-1 selection but no result dimension.
    """
    if not isinstance(key, tuple):
        key = (key,)
    if key.count(Ellipsis) > 1:
        raise IndexError("at most one Ellipsis allowed")
    if Ellipsis in key:
        i = key.index(Ellipsis)
        fill = len(shape) - (len(key) - 1)
        if fill < 0:
            raise IndexError(f"too many subscripts for shape {shape}")
        key = key[:i] + (slice(None),) * fill + key[i + 1 :]
    if len(key) > len(shape):
        raise IndexError(f"too many subscripts for shape {shape}")
    key = key + (slice(None),) * (len(shape) - len(key))

    sels: list[DimSel] = []
    result_shape: list[int] = []
    for dim, (k, extent) in enumerate(zip(key, shape)):
        if isinstance(k, (bool, np.bool_)):  # bool is an int subclass
            raise TypeError(f"boolean subscript {k!r} in dim {dim} is not an index")
        if isinstance(k, (int, np.integer)):
            idx = int(k)
            if idx < 0:
                idx += extent
            if not 0 <= idx < extent:
                raise IndexError(f"index {k} out of bounds for dim {dim} of size {extent}")
            sels.append(DimSel(start=idx, count=1, step=1))
        elif isinstance(k, slice):
            start, stop, step = k.indices(extent)
            if step <= 0:
                raise IndexError(
                    "negative-step sections are not supported (Fortran array "
                    "sections have positive stride)"
                )
            count = max(0, -(-(stop - start) // step))
            sels.append(DimSel(start=start, count=count, step=step))
            result_shape.append(count)
        else:
            raise TypeError(f"unsupported subscript {k!r} in dim {dim}")
    return sels, tuple(result_shape)


def row_strides(shape: tuple[int, ...]) -> list[int]:
    """C-order element strides per dimension."""
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return strides


def selection_offsets(sels: list[DimSel], shape: tuple[int, ...]) -> np.ndarray:
    """Flat element offsets of every selected element, in C iteration
    order of the selection (test oracle; O(total elements))."""
    strides = row_strides(shape)
    offs = np.zeros(1, dtype=np.int64)
    for sel, rs in zip(sels, strides):
        line = (sel.start + np.arange(sel.count, dtype=np.int64) * sel.step) * rs
        offs = (offs[:, None] + line[None, :]).reshape(-1)
    return offs


# ---------------------------------------------------------------------------
# Planners
# ---------------------------------------------------------------------------


def _outer_offsets(
    sels: list[DimSel], shape: tuple[int, ...], skip: int
) -> np.ndarray:
    """Base offsets for every index combination over all dims except
    ``skip``, iterated in C order."""
    strides = row_strides(shape)
    offs = np.zeros(1, dtype=np.int64)
    for d, (sel, rs) in enumerate(zip(sels, strides)):
        if d == skip:
            continue
        line = (sel.start + np.arange(sel.count, dtype=np.int64) * sel.step) * rs
        offs = (offs[:, None] + line[None, :]).reshape(-1)
    skip_sel = sels[skip]
    return offs + skip_sel.start * strides[skip]


def plan_contiguous(
    sels: list[DimSel], shape: tuple[int, ...]
) -> TransferPlan | None:
    """One single contiguous run, if the whole selection is one.

    A selection is contiguous iff, scanning from the fastest dimension,
    every dimension is fully selected with step 1 until one (possibly
    partial, step-1) dimension, outside of which all counts are 1.
    """
    if not sels:
        return _calls("contiguous", "runs", np.zeros(1, dtype=np.int64), 1)
    total = 1
    for s in sels:
        total *= s.count
    if total == 0:
        return TransferPlan("contiguous")
    strides = row_strides(shape)
    d = len(sels) - 1
    # Swallow fully-selected step-1 fast dimensions.
    while d >= 0 and sels[d].count == shape[d] and sels[d].step == 1:
        d -= 1
    if d >= 0:
        if sels[d].step != 1 and sels[d].count > 1:
            return None
        d -= 1
    while d >= 0:
        if sels[d].count != 1:
            return None
        d -= 1
    offset = sum(s.start * rs for s, rs in zip(sels, strides))
    return _calls("contiguous", "runs", np.array([offset], dtype=np.int64), total)


def plan_naive(sels: list[DimSel], shape: tuple[int, ...]) -> TransferPlan:
    """Maximal contiguous runs: the paper's naive algorithm.

    With a strided fastest dimension this degenerates to one call per
    element (the 50,000-call example); with a contiguous fastest
    dimension it is one call per run.
    """
    contig = plan_contiguous(sels, shape)
    if contig is not None:
        return replace(contig, algorithm="naive")
    last = len(sels) - 1
    inner = sels[last]
    if inner.step == 1 and inner.count > 1:
        bases = _outer_offsets(sels, shape, skip=last)
        return _calls("naive", "runs", bases, inner.count)
    return _calls("naive", "runs", selection_offsets(sels, shape), 1)


def _line_plan(
    sels: list[DimSel], shape: tuple[int, ...], base: int, algorithm: str
) -> TransferPlan:
    strides = row_strides(shape)
    sel = sels[base]
    stride = sel.step * strides[base]
    bases = _outer_offsets(sels, shape, skip=base)
    return _calls(algorithm, "lines", bases, sel.count, stride, base)


def choose_base_dim(sels: list[DimSel], candidates: list[int]) -> int:
    """The candidate dimension with the most selected elements (ties go
    to the faster-varying, i.e. larger axis index)."""
    if not candidates:
        raise ValueError("no candidate dimensions")
    return max(candidates, key=lambda d: (sels[d].count, d))


def plan_2dim(sels: list[DimSel], shape: tuple[int, ...]) -> TransferPlan:
    """The paper's ``2dim_strided``: base dim from the two fastest axes."""
    if not sels or any(s.count == 0 for s in sels):
        return TransferPlan(algorithm="2dim")
    candidates = list(range(len(sels)))[-2:]
    base = choose_base_dim(sels, candidates)
    return _line_plan(sels, shape, base, "2dim")


def plan_alldim(sels: list[DimSel], shape: tuple[int, ...]) -> TransferPlan:
    """Ablation variant: base dim chosen over *all* axes (max elements,
    ignoring the paper's locality restriction)."""
    if not sels or any(s.count == 0 for s in sels):
        return TransferPlan(algorithm="alldim")
    base = choose_base_dim(sels, list(range(len(sels))))
    return _line_plan(sels, shape, base, "alldim")


def plan_lastdim(sels: list[DimSel], shape: tuple[int, ...]) -> TransferPlan:
    """Fixed fastest-dimension lines — the Cray CAF runtime model.

    DMAPP offers native 1-D strided transfers, but without the paper's
    base-dimension choice the runtime always strides along the fastest
    axis, issuing ``prod(outer counts)`` calls even when a slower axis
    has far more elements.
    """
    if not sels or any(s.count == 0 for s in sels):
        return TransferPlan(algorithm="lastdim")
    return _line_plan(sels, shape, len(sels) - 1, "lastdim")


def plan_matrix(sels: list[DimSel], shape: tuple[int, ...]) -> TransferPlan:
    """Matrix-oriented strides: contiguous fastest dimension => one
    ``putmem`` per run (paper Section V-D); otherwise ``2dim``."""
    if not sels or any(s.count == 0 for s in sels):
        return TransferPlan(algorithm="matrix")
    inner = sels[-1]
    if inner.step == 1 and inner.count > 1:
        return replace(plan_naive(sels, shape), algorithm="matrix")
    return _line_plan(sels, shape, choose_base_dim(sels, list(range(len(sels)))[-2:]), "matrix")


def estimate_plan_cost(
    plan: TransferPlan,
    *,
    elem_size: int,
    o_call_us: float,
    bandwidth_Bpus: float,
    iput_native: bool,
    gap_fn,
) -> float:
    """Analytic cost of executing ``plan`` (the planner's own model).

    ``gap_fn(elem_size, stride_bytes)`` prices the per-element
    gather/scatter gap of a native strided descriptor — pass
    ``NetworkModel._gather_gap`` partially applied to the conduit.
    Without native iput support, every line degenerates to per-element
    calls (the MVAPICH2-X behaviour).
    """
    bytes_total = plan.total_elems * elem_size
    wire = bytes_total / bandwidth_Bpus
    if plan.kind == "lines":
        if not iput_native:
            return plan.total_elems * o_call_us + wire
        cost = plan.num_calls * o_call_us + wire
        # One gap term per line, added line by line (the order fixes
        # the float result the planner compares).
        term = plan.per_call * gap_fn(elem_size, plan.stride * elem_size)
        return chain_last(cost, (term,), plan.num_calls)
    return plan.num_calls * o_call_us + wire


def plan_model(
    sels: list[DimSel],
    shape: tuple[int, ...],
    *,
    elem_size: int,
    o_call_us: float,
    bandwidth_Bpus: float,
    iput_native: bool,
    gap_fn,
) -> TransferPlan:
    """Cost-model planner (the paper's future work: "account for more
    parameters to negotiate the tradeoff between locality and
    minimizing the number of single calls").

    Enumerates the naive/matrix decomposition and a line plan along
    *every* dimension, prices each with :func:`estimate_plan_cost`
    (call overheads, payload bytes, and the stride-dependent gather
    gap that encodes cache-line locality), and picks the cheapest.
    """
    if not sels or any(s.count == 0 for s in sels):
        return TransferPlan(algorithm="model")
    candidates = [plan_naive(sels, shape)]
    if iput_native:
        candidates.extend(
            _line_plan(sels, shape, d, "model") for d in range(len(sels))
        )
    best = min(
        candidates,
        key=lambda p: estimate_plan_cost(
            p,
            elem_size=elem_size,
            o_call_us=o_call_us,
            bandwidth_Bpus=bandwidth_Bpus,
            iput_native=iput_native,
            gap_fn=gap_fn,
        ),
    )
    return replace(best, algorithm="model")


def make_plan(
    sels: list[DimSel],
    shape: tuple[int, ...],
    algorithm: str,
    *,
    iput_native: bool,
    model_params: dict | None = None,
) -> TransferPlan:
    """Build a plan under ``algorithm`` (see module docstring).

    ``iput_native`` matters for ``auto``: without native 1-D strided
    support a line plan costs the same as naive (the paper's MVAPICH2-X
    observation), so auto keeps the simpler naive decomposition.
    ``model_params`` supplies :func:`plan_model`'s cost inputs
    (``elem_size``, ``o_call_us``, ``bandwidth_Bpus``, ``gap_fn``).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected {ALGORITHMS}")
    contig = plan_contiguous(sels, shape)
    if contig is not None:
        return contig
    if algorithm == "contiguous":
        raise ValueError("selection is not contiguous")
    if algorithm == "naive":
        return plan_naive(sels, shape)
    if algorithm == "2dim":
        return plan_2dim(sels, shape)
    if algorithm == "alldim":
        return plan_alldim(sels, shape)
    if algorithm == "lastdim":
        return plan_lastdim(sels, shape)
    if algorithm == "matrix":
        return plan_matrix(sels, shape)
    if algorithm == "model":
        if not model_params:
            raise ValueError("algorithm 'model' requires model_params")
        return plan_model(sels, shape, iput_native=iput_native, **model_params)
    # auto
    inner = sels[-1]
    if inner.step == 1 and inner.count > 1:
        return plan_matrix(sels, shape)
    if iput_native:
        return plan_2dim(sels, shape)
    return plan_naive(sels, shape)
