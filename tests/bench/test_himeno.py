"""Himeno: numerical correctness vs the serial reference + Fig 10 shape."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import harness as H
from repro.bench.himeno import (
    GRID_SIZES,
    HimenoCoefficients,
    _initial_pressure,
    _jacobi_sweep,
    _split,
    himeno_caf,
    himeno_serial,
)


def test_split_covers_range_evenly():
    parts = _split(10, 3)
    assert parts == [(0, 4), (4, 7), (7, 10)]
    assert _split(6, 6) == [(i, i + 1) for i in range(6)]


def test_initial_pressure_profile():
    p = _initial_pressure(4, 5, 8)
    assert p.shape == (4, 5, 8)
    assert p[0, 0, 0] == 0.0
    assert p[3, 4, 7] == 1.0
    assert np.all(np.diff(p[0, 0, :]) > 0)


def test_jacobi_sweep_reduces_residual():
    p = _initial_pressure(10, 10, 10)
    _, g1 = _jacobi_sweep(p, 0.8)
    new, _ = _jacobi_sweep(p, 0.8)
    p[1:-1, 1:-1, 1:-1] = new
    _, g2 = _jacobi_sweep(p, 0.8)
    assert g2 < g1


def test_serial_solver_converges():
    _, gosa_few = himeno_serial((16, 16, 16), 2)
    _, gosa_many = himeno_serial((16, 16, 16), 10)
    assert gosa_many < gosa_few


@pytest.mark.parametrize("images", [1, 2, 3, 5])
def test_caf_gosa_matches_serial(images):
    """The decomposed solve is numerically identical to serial Jacobi
    regardless of the image count."""
    grid = (16, 18, 16)
    iters = 3
    _, serial_gosa = himeno_serial(grid, iters)
    result = himeno_caf("stampede", H.UHCAF_MV2X_SHMEM, images, grid=grid, iterations=iters)
    assert result.gosa == pytest.approx(serial_gosa, rel=1e-12)


def test_caf_gosa_backend_invariant():
    grid = (12, 14, 12)
    r1 = himeno_caf("stampede", H.UHCAF_MV2X_SHMEM, 3, grid=grid, iterations=2)
    r2 = himeno_caf("stampede", H.UHCAF_GASNET, 3, grid=grid, iterations=2)
    assert r1.gosa == pytest.approx(r2.gosa, rel=1e-12)


def test_mflops_scales_with_images():
    r2 = himeno_caf("stampede", H.UHCAF_MV2X_SHMEM, 2, grid="XS", iterations=2)
    r8 = himeno_caf("stampede", H.UHCAF_MV2X_SHMEM, 8, grid="XS", iterations=2)
    assert r8.mflops > 1.5 * r2.mflops


def test_shmem_beats_gasnet_past_one_node():
    """Fig 10: UHCAF over MVAPICH2-X SHMEM wins once halo traffic goes
    inter-node (>= 16 images, paper Section V-D)."""
    n = 24
    s = himeno_caf("stampede", H.UHCAF_MV2X_SHMEM, n, grid="XS", iterations=2)
    g = himeno_caf("stampede", H.UHCAF_GASNET, n, grid="XS", iterations=2)
    assert s.mflops > g.mflops


def test_too_many_images_rejected():
    with pytest.raises(ValueError, match="too many images"):
        himeno_caf("stampede", H.UHCAF_MV2X_SHMEM, 64, grid=(8, 8, 8))


def test_named_grids():
    assert GRID_SIZES["XS"] == (32, 32, 64)
    result = himeno_caf("stampede", H.UHCAF_MV2X_SHMEM, 2, grid="XS", iterations=1)
    assert result.iterations == 1 and result.mflops > 0


def _reference_sweep_loops(p, omega, coef):
    """Slow triple-loop 19-point reference for coefficient testing."""
    nx, ny, nz = p.shape
    new = p.copy()
    gosa = 0.0
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            for k in range(1, nz - 1):
                s0 = (
                    coef.a0 * p[i + 1, j, k]
                    + coef.a1 * p[i, j + 1, k]
                    + coef.a2 * p[i, j, k + 1]
                    + coef.b0 * (p[i + 1, j + 1, k] - p[i + 1, j - 1, k]
                                 - p[i - 1, j + 1, k] + p[i - 1, j - 1, k])
                    + coef.b1 * (p[i, j + 1, k + 1] - p[i, j - 1, k + 1]
                                 - p[i, j + 1, k - 1] + p[i, j - 1, k - 1])
                    + coef.b2 * (p[i + 1, j, k + 1] - p[i - 1, j, k + 1]
                                 - p[i + 1, j, k - 1] + p[i - 1, j, k - 1])
                    + coef.c0 * p[i - 1, j, k]
                    + coef.c1 * p[i, j - 1, k]
                    + coef.c2 * p[i, j, k - 1]
                    + coef.wrk1
                )
                ss = (s0 * coef.a3 - p[i, j, k]) * coef.bnd
                gosa += ss * ss
                new[i, j, k] = p[i, j, k] + omega * ss
    return new, gosa


def test_full_stencil_matches_loop_reference():
    from repro.bench.himeno import HimenoCoefficients, _jacobi_sweep

    rng = np.random.default_rng(7)
    p = rng.random((6, 7, 8))
    coef = HimenoCoefficients(
        a0=1.1, a1=0.9, a2=1.05, a3=0.16,
        b0=0.02, b1=-0.03, b2=0.01,
        c0=0.95, c1=1.02, c2=0.98, wrk1=0.001, bnd=0.9,
    )
    vec_new, vec_gosa = _jacobi_sweep(p.copy(), 0.7, coef)
    ref, ref_gosa = _reference_sweep_loops(p.copy(), 0.7, coef)
    assert np.allclose(vec_new, ref[1:-1, 1:-1, 1:-1])
    assert vec_gosa == pytest.approx(ref_gosa, rel=1e-12)


def test_distributed_full_stencil_with_cross_terms():
    """Nonzero b coefficients touch the diagonal neighbours; the j-plane
    halos still carry everything the 19-point stencil needs."""
    from repro.bench.himeno import HimenoCoefficients

    coef = HimenoCoefficients(b0=0.05, b1=0.04, b2=0.03)
    grid = (10, 14, 12)
    _, serial_gosa = himeno_serial(grid, 3, coef=coef)
    result = himeno_caf(
        "stampede", H.UHCAF_MV2X_SHMEM, 4, grid=grid, iterations=3, coef=coef
    )
    assert result.gosa == pytest.approx(serial_gosa, rel=1e-12)


def _unfolded_sweep(p, omega, coef):
    """The sweep before identity folding: every term multiplied by its
    coefficient, every b-group and wrk1 added, bnd always applied (34
    array passes whatever the coefficients)."""
    c = p[1:-1, 1:-1, 1:-1]
    s, t = np.empty((2, *c.shape))
    np.multiply(coef.a0, p[2:, 1:-1, 1:-1], out=s)
    for k, term in ((coef.a1, p[1:-1, 2:, 1:-1]), (coef.a2, p[1:-1, 1:-1, 2:])):
        s += np.multiply(k, term, out=t)
    for k, pp, pm, mp, mm in (
        (coef.b0, p[2:, 2:, 1:-1], p[2:, :-2, 1:-1], p[:-2, 2:, 1:-1], p[:-2, :-2, 1:-1]),
        (coef.b1, p[1:-1, 2:, 2:], p[1:-1, :-2, 2:], p[1:-1, 2:, :-2], p[1:-1, :-2, :-2]),
        (coef.b2, p[2:, 1:-1, 2:], p[:-2, 1:-1, 2:], p[2:, 1:-1, :-2], p[:-2, 1:-1, :-2]),
    ):
        np.subtract(pp, pm, out=t)
        t -= mp
        t += mm
        s += np.multiply(k, t, out=t)
    for k, term in (
        (coef.c0, p[:-2, 1:-1, 1:-1]), (coef.c1, p[1:-1, :-2, 1:-1]), (coef.c2, p[1:-1, 1:-1, :-2]),
    ):
        s += np.multiply(k, term, out=t)
    s += coef.wrk1
    s *= coef.a3
    s -= c
    s *= coef.bnd
    gosa = float(np.sum(np.multiply(s, s, out=t)))
    np.multiply(omega, s, out=t)
    return np.add(c, t, out=s), gosa


_scale = st.floats(-4.0, 4.0).filter(lambda x: x not in (0.0, 1.0))


@st.composite
def _sweep_case(draw):
    """A small non-negative field and a coefficient set.  Each
    coefficient is, independently, an identity the sweep folds (0.0 or
    1.0) or a finite value it must multiply by; the kinds come from a
    seeded generator because Hypothesis' own draws tend to move
    together.  a3 and bnd scale the whole of ``ss``, so 0.0 there would
    zero it and hide every other term.  A share of the field's cells is
    exactly 0.0, where a skipped ``0.0 * term`` could flip a sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.tuples(*[st.integers(3, 6)] * 3))
    p = rng.uniform(0.0, 8.0, shape)
    p[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    values = {}
    for f in dataclasses.fields(HimenoCoefficients):
        kinds = (1.0, None) if f.name in ("a3", "bnd") else (0.0, 1.0, None)
        kind = kinds[rng.integers(len(kinds))]
        values[f.name] = draw(_scale) if kind is None else kind
    return p, HimenoCoefficients(**values)


@settings(max_examples=80, deadline=None)
@given(case=_sweep_case())
def test_folded_sweep_equals_unfolded_on_mixed_coefficients(case):
    """Every mix of folded and evaluated terms gives the unfolded
    sweep's values and the same residual bits, and leaves ``p`` alone."""
    p, coef = case
    before = p.tobytes()
    new, gosa = _jacobi_sweep(p, 0.7, coef)
    assert p.tobytes() == before
    ref_new, ref_gosa = _unfolded_sweep(p, 0.7, coef)
    assert np.array_equal(new, ref_new)
    assert float(gosa).hex() == float(ref_gosa).hex()
