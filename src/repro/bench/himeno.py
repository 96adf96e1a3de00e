"""The CAF Himeno benchmark (paper Section V-D, Fig 10).

Himeno measures an incompressible-fluid pressure solve: Jacobi
iterations of a 19-point stencil for Poisson's equation, reporting
MFLOPS (34 floating-point operations per interior cell per iteration,
the benchmark's official count).

The CAF version decomposes the grid along the second axis (``j``), so
each halo plane ``p[:, j, :]`` is a *matrix-oriented* strided section:
many contiguous pencils of length ``nz`` separated by a row stride —
exactly the access pattern of paper Section V-D, where one ``putmem``
per contiguous pencil (the ``matrix``/naive decomposition) beats
strided ``iput`` lines and the ``2dim`` optimization does not help.

Compute time is charged to the virtual clock from a per-machine
achieved-MFLOPS figure (Jacobi stencils run far below peak; values are
documented below), so the MFLOPS curve reflects the compute/halo
balance the way the paper's does: below one node (<= 16 images) the
backends tie, past it the inter-node halo exchange separates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import caf
from repro.bench.harness import CafConfig
from repro.runtime.context import current

#: Official Himeno flop count per interior cell per iteration.
FLOPS_PER_CELL = 34

#: Achieved per-core MFLOPS on the Jacobi kernel (memory-bound; far
#: below peak).  Sandy Bridge ~1400, Opteron (Titan) ~900.
CPU_MFLOPS = {
    "Stampede": 1400.0,
    "Cray XC30": 1400.0,
    "Titan (OLCF)": 900.0,
}

#: Himeno's named grid sizes (whole-problem, interior + boundary).
GRID_SIZES = {
    "XS": (32, 32, 64),
    "S": (64, 64, 128),
    "M": (128, 128, 256),
}


@dataclass(frozen=True, slots=True)
class HimenoResult:
    mflops: float
    gosa: float
    iterations: int
    elapsed_us: float


@dataclass(frozen=True, slots=True)
class HimenoCoefficients:
    """The benchmark's stencil coefficient fields, as scalars.

    Himeno carries arrays a(4), b(3), c(3), plus wrk1 and bnd; the
    official initialization makes them spatially constant — a =
    (1, 1, 1, 1/6), b = 0, c = 1, wrk1 = 0, bnd = 1 — which reduces the
    19-point stencil to the 6-neighbour sum.  The sweep folds exactly
    those identities on the host (a factor of 1.0, a b-group or wrk1 of
    0.0, bnd of 1.0; see ``_jacobi_sweep``), so the standard set makes
    11 array passes, and any other value evaluates its term of the full
    formula.  The virtual clock is charged the official 34 flops/cell
    either way.
    """

    a0: float = 1.0
    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.0 / 6.0
    b0: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    c0: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    wrk1: float = 0.0
    bnd: float = 1.0


STANDARD_COEFFICIENTS = HimenoCoefficients()


def _jacobi_sweep(
    p: np.ndarray,
    omega: float,
    coef: HimenoCoefficients = STANDARD_COEFFICIENTS,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """One Jacobi sweep over the interior of ``p``; returns the new
    interior and the squared-residual sum (gosa contribution).

    The full Himeno 19-point stencil:

        s0 = a0*E + a1*N + a2*U
           + b0*(EN - ES - WN + WS) + b1*(NU - SU - ND + SD)
           + b2*(EU - WU - ED + WD)
           + c0*W + c1*S + c2*D + wrk1
        ss = (s0*a3 - p) * bnd

    evaluated left to right, one ufunc at a time, into ``work`` (a
    ``(2, *interior)`` float64 buffer, allocated here if not given); the
    new interior returned is ``work[0]``.

    Exact identities are folded per term, in the same order: a term
    whose coefficient is 1.0 is added as the view itself (``1.0 * x ==
    x``), so a0 = a1 = 1 starts ``s0`` as ``E + N``; a b-group or wrk1
    of 0.0 is skipped, and bnd = 1.0 skips its multiply; a3 always
    multiplies.  Adding ``0.0 * finite`` changes at most the sign of a
    zero, which the residual (a sum of squares) cannot show and ``p +
    omega * ss`` shows only where ``p`` holds a -0.0 (never on Himeno's
    non-negative fields), so for finite ``p`` the result equals the
    unfolded formula's value for value.  The standard coefficients take
    11 array passes instead of 34.
    """
    c = p[1:-1, 1:-1, 1:-1]
    if work is None:
        work = np.empty((2, *c.shape))
    s, t = work
    east, north, up = p[2:, 1:-1, 1:-1], p[1:-1, 2:, 1:-1], p[1:-1, 1:-1, 2:]
    if coef.a0 == 1.0 and coef.a1 == 1.0:
        np.add(east, north, out=s)
        terms = ((coef.a2, up),)
    else:
        np.multiply(coef.a0, east, out=s)
        terms = ((coef.a1, north), (coef.a2, up))
    for k, term in terms:
        s += term if k == 1.0 else np.multiply(k, term, out=t)
    for k, pp, pm, mp, mm in (
        (coef.b0, p[2:, 2:, 1:-1], p[2:, :-2, 1:-1], p[:-2, 2:, 1:-1], p[:-2, :-2, 1:-1]),
        (coef.b1, p[1:-1, 2:, 2:], p[1:-1, :-2, 2:], p[1:-1, 2:, :-2], p[1:-1, :-2, :-2]),
        (coef.b2, p[2:, 1:-1, 2:], p[:-2, 1:-1, 2:], p[2:, 1:-1, :-2], p[:-2, 1:-1, :-2]),
    ):
        if k == 0.0:
            continue
        np.subtract(pp, pm, out=t)
        t -= mp
        t += mm
        s += t if k == 1.0 else np.multiply(k, t, out=t)
    for k, term in (
        (coef.c0, p[:-2, 1:-1, 1:-1]), (coef.c1, p[1:-1, :-2, 1:-1]), (coef.c2, p[1:-1, 1:-1, :-2]),
    ):
        s += term if k == 1.0 else np.multiply(k, term, out=t)
    if coef.wrk1 != 0.0:
        s += coef.wrk1
    s *= coef.a3
    s -= c
    if coef.bnd != 1.0:
        s *= coef.bnd
    # s is now ss
    gosa = float(np.sum(np.multiply(s, s, out=t)))
    np.multiply(omega, s, out=t)
    return np.add(c, t, out=s), gosa


def himeno_serial(
    grid: tuple[int, int, int],
    iterations: int,
    omega: float = 0.8,
    coef: HimenoCoefficients = STANDARD_COEFFICIENTS,
) -> tuple[np.ndarray, float]:
    """Reference solver (no decomposition); returns (pressure, last gosa)."""
    nx, ny, nz = grid
    p = _initial_pressure(nx, ny, nz)
    work = np.empty((2, nx - 2, ny - 2, nz - 2))
    gosa = 0.0
    for _ in range(iterations):
        new, gosa = _jacobi_sweep(p, omega, coef, work)
        p[1:-1, 1:-1, 1:-1] = new
    return p, gosa


def _initial_pressure(nx: int, ny: int, nz: int) -> np.ndarray:
    """Himeno's init: p = (k / (nz-1))^2 along the third axis."""
    k = np.arange(nz, dtype=np.float64)
    plane = (k / (nz - 1)) ** 2
    return np.broadcast_to(plane, (nx, ny, nz)).copy()


def _split(extent: int, parts: int) -> list[tuple[int, int]]:
    """Near-even contiguous split of [0, extent) into ``parts`` ranges."""
    base, rem = divmod(extent, parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


def himeno_caf(
    machine: str,
    config: CafConfig,
    num_images: int,
    grid: tuple[int, int, int] | str = "XS",
    iterations: int = 4,
    omega: float = 0.8,
    strided_override: str | None = None,
    coef: HimenoCoefficients = STANDARD_COEFFICIENTS,
    sanitize: bool = False,
    faults=None,
    watchdog_s: float | None = None,
    engine=None,
) -> HimenoResult:
    """Run the CAF Himeno and report MFLOPS (one Fig 10 cell).

    The grid is decomposed along axis 1 (``j``); each image holds its
    slab plus one halo plane per side and exchanges halos with
    co-indexed plane puts every iteration, then all images co_sum the
    residual (the benchmark's global ``gosa``).
    """
    if isinstance(grid, str):
        grid = GRID_SIZES[grid]
    nx, ny, nz = grid
    if num_images > ny - 2:
        raise ValueError(f"too many images ({num_images}) for ny={ny}")
    ranges = _split(ny - 2, num_images)  # interior j-planes per image
    try:
        core_mflops = CPU_MFLOPS[
            {"stampede": "Stampede", "cray-xc30": "Cray XC30", "titan": "Titan (OLCF)"}[
                machine.lower()
            ]
        ]
    except KeyError:
        raise KeyError(f"no CPU model for machine {machine!r}") from None

    def kernel() -> HimenoResult:
        ctx = current()
        me = caf.this_image()
        lo, hi = ranges[me - 1]
        local_j = hi - lo  # interior planes owned
        # Coarrays are symmetric: every image allocates the *largest*
        # slab (max planes + 2 halos) and uses its own prefix.
        max_j = max(h - l for l, h in ranges)
        slab = caf.coarray((nx, max_j + 2, nz), np.float64)
        # The initial field depends on k alone: build only my planes.
        slab.local[:, : local_j + 2, :] = _initial_pressure(nx, local_j + 2, nz)
        work = np.empty((2, nx - 2, local_j, nz - 2))
        caf.sync_all()

        interior_cells = (nx - 2) * local_j * (nz - 2)
        compute_us = interior_cells * FLOPS_PER_CELL / core_mflops
        left = me - 1 if me > 1 else None
        right = me + 1 if me < num_images else None
        t0 = ctx.clock.now
        gosa_total = 0.0
        for _ in range(iterations):
            p = slab.local[:, : local_j + 2, :]  # this image's used planes
            new, gosa = _jacobi_sweep(p, omega, coef, work)
            p[1:-1, 1:-1, 1:-1] = new
            ctx.clock.advance(compute_us)
            # Global residual, as the benchmark reports it.  co_sum also
            # synchronizes, so no image's halo puts below can land in a
            # plane a neighbour is still reading.
            g = np.array([gosa])
            caf.co_sum(g)
            gosa_total = float(g[0])
            # Halo exchange: my first/last interior planes become the
            # neighbours' halo planes (matrix-oriented strided puts).
            if left is not None:
                slab.on(left).put(
                    (slice(None), local_j_of(ranges, left) + 1, slice(None)),
                    p[:, 1, :],
                    algorithm=strided_override,
                )
            if right is not None:
                slab.on(right).put(
                    (slice(None), 0, slice(None)),
                    p[:, local_j, :],
                    algorithm=strided_override,
                )
            caf.sync_all()
        elapsed = ctx.clock.now - t0
        cells = (nx - 2) * (ny - 2) * (nz - 2)
        mflops = cells * FLOPS_PER_CELL * iterations / max(elapsed, 1e-9)
        return HimenoResult(
            mflops=mflops, gosa=gosa_total, iterations=iterations, elapsed_us=elapsed
        )

    def local_j_of(rs: list[tuple[int, int]], image: int) -> int:
        lo_, hi_ = rs[image - 1]
        return hi_ - lo_

    results = caf.launch(
        kernel,
        num_images,
        machine,
        heap_bytes=max(
            1 << 22,
            # slab coarray (max planes + halos) + scratch + managed heap
            3 * nx * (-(-(ny - 2) // num_images) + 2) * nz * 8 + (1 << 20),
        ),
        sanitize=sanitize,
        faults=faults,
        watchdog_s=watchdog_s,
        engine=engine,
        **config.launch_kwargs(),
    )
    # All images report the same global MFLOPS figure modulo clock skew;
    # take the slowest (the benchmark's wall time).
    slowest = min(results, key=lambda r: r.mflops)
    return slowest
