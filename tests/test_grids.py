import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsdyn import (
    ComplexField,
    Grid,
    InvalidFieldError,
    NormalizationError,
    RealField,
    boundary_mass,
    gcs_from_model,
    integrate,
    load_config,
    moments,
    normalized,
    second_derivative,
)
from gcsdyn import grids
from gcsdyn.displacement import PHASE_FLOOR
from gcsdyn.grids import _STENCILS_7, _derivative_arrays, _fd_coefficients, _peak_segment
from gcsdyn.hydrodynamics import RESIDUAL_FLOOR

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_grid_invariants():
    g = Grid(-1.0, 1.0, 33)
    assert g.dx * (g.n - 1) == pytest.approx(g.x_max - g.x_min, abs=0.0)
    assert g.points[0] == -1.0 and g.points[-1] == 1.0
    with pytest.raises(InvalidFieldError):
        Grid(1.0, -1.0, 33)
    with pytest.raises(InvalidFieldError):
        Grid(-1.0, 1.0, 8)


def _no_sysconf(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


@pytest.mark.parametrize("patch", ["missing", "unknown_name"])
def test_grid_without_a_memory_report_is_unbounded(patch, monkeypatch):
    # where os.sysconf is missing (Windows) or does not know the name,
    # grids are built with no memory bound
    if patch == "missing":
        monkeypatch.delattr(os, "sysconf")
    else:
        monkeypatch.setattr(os, "sysconf", _no_sysconf)
    assert grids._physical_memory() == math.inf
    assert Grid(-1.0, 1.0, 33).n == 33


def test_field_validation():
    g = Grid(-1.0, 1.0, 17)
    with pytest.raises(InvalidFieldError):
        RealField(g, np.zeros(16))
    bad = np.zeros(17)
    bad[3] = np.nan
    with pytest.raises(InvalidFieldError):
        RealField(g, bad)
    fld = RealField(g, np.ones(17))
    with pytest.raises(ValueError):
        fld.values[0] = 2.0  # immutable


def test_second_derivative_constant_is_zero():
    g = Grid(-3.0, 3.0, 128)
    d2 = second_derivative(RealField(g, np.full(g.n, 2.5)))
    # zero up to summation roundoff amplified by 1/dx^2 at the edge rows
    roundoff = 100.0 * np.finfo(float).eps * 2.5 / g.dx**2
    assert np.max(np.abs(d2.values)) < max(1e-12, roundoff)


def test_second_derivative_gaussian_closed_form():
    # oracle: d2/dx2 exp(-x^2/2) = (x^2 - 1) exp(-x^2/2); the 7-point
    # stencil is sixth order, so the error sits at the O(dx^6) scale
    g = Grid(-12.0, 12.0, 1024)
    x = g.points
    f = np.exp(-0.5 * x * x)
    expected = (x * x - 1.0) * f
    d2 = second_derivative(RealField(g, f))
    assert np.max(np.abs(d2.values - expected)) < 10.0 * g.dx**6


def test_order_one_stencil_of_complex_samples_is_complex():
    # the order-1 stencil that moments, the residuals and the slope read;
    # oracle: d/dx exp(-x^2/2 + i k x) = (i k - x) exp(-x^2/2 + i k x);
    # measured error 1.7 dx^6
    g = Grid(-12.0, 12.0, 1024)
    x = g.points
    k = 1.0
    f = np.exp(-0.5 * x * x + 1j * k * x)
    d1 = _derivative_arrays(f, g.dx, 1)
    assert d1.dtype == np.complex128
    assert np.max(np.abs(d1 - (1j * k - x) * f)) < 10.0 * g.dx**6


def test_order_one_stencil_linear_exact():
    g = Grid(-2.0, 5.0, 64)
    d1 = _derivative_arrays(3.0 * g.points - 1.0, g.dx, 1)
    assert np.max(np.abs(d1 - 3.0)) < 1e-11


def test_integrate_constant_exact():
    g = Grid(0.0, 1.0, 101)
    assert integrate(RealField(g, np.ones(g.n))) == pytest.approx(1.0, abs=0.0)


def test_integrate_gaussian():
    # oracle: integral of exp(-x^2) over R is sqrt(pi); tails < 1e-28 at 8
    g = Grid(-8.0, 8.0, 401)
    val = integrate(RealField(g, np.exp(-g.points**2)))
    assert val == pytest.approx(np.sqrt(np.pi), abs=1e-10)


def test_integrate_linearity():
    g = Grid(-4.0, 4.0, 257)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.n)
    h = rng.standard_normal(g.n)
    a, b = 2.25, -0.75
    lhs = integrate(RealField(g, a * f + b * h))
    rhs = a * integrate(RealField(g, f)) + b * integrate(RealField(g, h))
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


def _gaussian_state(g, x0=0.0, k=0.0, sigma=1.0):
    x = g.points
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2)) * np.exp(1j * k * x)
    return normalized(ComplexField(g, psi))


def test_expectation_position_symmetry():
    g = Grid(-10.0, 10.0, 512)
    psi = _gaussian_state(g)
    assert abs(moments(psi)[0]) < 1e-10


def test_expectation_momentum_plane_wave():
    # oracle: <p> of exp(ikx) * envelope is hbar k
    g = Grid(-12.0, 12.0, 768)
    k = 1.7
    psi = _gaussian_state(g, k=k)
    assert moments(psi, hbar=1.0)[2] == pytest.approx(k, abs=1e-8)
    # result must be real by construction; hbar scaling linear
    assert moments(psi, hbar=2.0)[2] == pytest.approx(2.0 * k, abs=2e-8)


def test_expectation_requires_normalization():
    g = Grid(-10.0, 10.0, 256)
    psi = ComplexField(g, np.exp(-0.5 * g.points**2))
    with pytest.raises(NormalizationError) as err:
        moments(psi)
    assert "norm" in str(err.value)


def test_boundary_mass_detects_edge_packets():
    g = Grid(-10.0, 10.0, 256)
    centered = np.exp(-g.points**2)
    centered /= integrate(RealField(g, centered))
    assert boundary_mass(centered, g) < 1e-12
    shifted = np.exp(-((g.points - 9.8) ** 2))
    shifted /= integrate(RealField(g, shifted))
    assert boundary_mass(shifted, g) > 1e-3


def _peak_segment_loop(vals, floor):
    # the scalar scan _peak_segment replaced, kept as its reference
    peak = int(np.argmax(vals))
    above = vals > floor
    i0 = peak
    while i0 > 0 and above[i0 - 1]:
        i0 -= 1
    i1 = peak
    while i1 < len(vals) - 1 and above[i1 + 1]:
        i1 += 1
    return i0, i1


def test_peak_segment_matches_loop_on_random_arrays():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        n = int(rng.integers(1, 80))
        vals = rng.random(n)
        if rng.random() < 0.25:
            vals[rng.integers(n)] = np.nan
        floor = float(rng.random()) if rng.random() < 0.9 else np.nan
        assert _peak_segment(vals, floor) == _peak_segment_loop(vals, floor)


@pytest.mark.parametrize(
    "vals, expected",
    [
        ([5.0, 1.0, 0.0, 2.0], (0, 1)),  # peak at index 0
        ([0.0, 2.0, 1.0, 5.0], (1, 3)),  # peak at index n - 1
        ([3.0, 4.0, 5.0, 4.0], (0, 3)),  # every sample above the floor
        ([0.0, 0.0, 5.0, 0.0], (2, 2)),  # exactly one sample above
        ([0.1, 0.2, 0.3, 0.2], (2, 2)),  # none above: the peak alone
        # argmax takes a NaN as the peak; the run grows from it
        ([1.0, 0.0, 4.0, 5.0, np.nan, 3.0], (2, 5)),  # NaN next to the 5
        ([1.0, 0.0, 4.0, 5.0, 3.0, np.nan], (2, 5)),  # NaN at index n - 1
    ],
)
def test_peak_segment_edge_cases(vals, expected):
    vals = np.array(vals)
    assert _peak_segment(vals, 0.5) == _peak_segment_loop(vals, 0.5) == expected


@pytest.mark.parametrize(
    "name", ["morse_feedback", "harmonic_feedback", "morse_static_twin"]
)
def test_peak_segment_matches_loop_on_shipped_densities(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    psi = gcs_from_model(cfg.model, cfg.grid, cfg.initial_point, cfg.tolerances).psi
    rho = np.abs(psi.values) ** 2
    for frac in (PHASE_FLOOR, RESIDUAL_FLOOR):
        floor = frac * rho.max()
        assert _peak_segment(rho, floor) == _peak_segment_loop(rho, floor)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([16, 17, 2048, 2049]), st.integers(0, 2**32 - 1),
       st.floats(-300.0, 0.0),
       st.sampled_from([1, 2]))
def test_complex_stencil_is_the_split_stencil_bit_for_bit(n, seed, low, order):
    # the complex path runs the stencil once over the interleaved (re, im)
    # float view; each part must come out as its own real stencil, bit for
    # bit, with magnitudes spread over 10^low .. 10^3
    rng = np.random.default_rng(seed)
    vals = np.empty(n, dtype=np.complex128)
    vals.real = rng.normal(size=n) * 10.0 ** rng.uniform(low, 3.0, size=n)
    vals.imag = rng.normal(size=n) * 10.0 ** rng.uniform(low, 3.0, size=n)
    dx = 34.0 / (n - 1)
    split = np.empty(n, dtype=np.complex128)
    split.real = _derivative_arrays(vals.real, dx, order)
    split.imag = _derivative_arrays(vals.imag, dx, order)
    got = _derivative_arrays(vals, dx, order)
    assert np.array_equal(got.view(np.uint64), split.view(np.uint64))


def _stencil_by_terms(f, dx, order):
    # the stencil as written out term by term, with one np.dot per edge row
    out = np.empty_like(f)
    if order == 1:
        out[3:-3] = (
            -f[:-6] + 9.0 * f[1:-5] - 45.0 * f[2:-4] + 45.0 * f[4:-2] - 9.0 * f[5:-1] + f[6:]
        ) / 60.0
    else:
        out[3:-3] = (
            2.0 * f[:-6] - 27.0 * f[1:-5] + 270.0 * f[2:-4] - 490.0 * f[3:-3]
            + 270.0 * f[4:-2] - 27.0 * f[5:-1] + 2.0 * f[6:]
        ) / 180.0
    sign = -1.0 if order % 2 else 1.0
    for r in range(3):
        row = _fd_coefficients(range(-r, 6 + order - r), order)
        out[r] = np.dot(row, f[:len(row)])
        out[-1 - r] = sign * np.dot(row, f[::-1][:len(row)])
    return out / dx**order


def _stencil_of_magnitudes(f, dx, order):
    # the same sums over |weights| |f|: the scale of their round-off
    taps, left, right = _STENCILS_7[order]
    m = left.shape[1]
    a = np.abs(f)
    out = np.empty_like(a)
    out[3:-3] = np.correlate(a, np.abs(taps), "valid")
    out[:3] = np.abs(left) @ a[:m]
    out[:-4:-1] = np.abs(right) @ a[:-m - 1:-1]
    return out / dx**order


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(8, 2049), st.integers(0, 2**32 - 1), st.floats(-250.0, 0.0),
       st.sampled_from([1, 2]))
def test_stencil_is_the_term_by_term_stencil_to_round_off(n, seed, low, order):
    # the correlation and the edge products sum the same terms in another
    # order: each sample within 8 eps of the sum of the terms' magnitudes
    # (worst of 4000 random cases, n = 8 .. 2049, magnitudes over
    # 10^low .. 10^3: 3.5 eps at order 1, 3.7 eps at order 2)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n) * 10.0 ** rng.uniform(low, 3.0, size=n)
    dx = 34.0 / (n - 1)
    got = _derivative_arrays(f, dx, order)
    err = np.abs(got - _stencil_by_terms(f, dx, order))
    assert np.all(err <= 8.0 * np.finfo(float).eps * _stencil_of_magnitudes(f, dx, order))


@pytest.mark.parametrize("order, m", [(1, 7), (2, 8)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_stencil_needs_as_many_samples_as_its_edge_rows(order, m, dtype):
    for n in range(m):
        with pytest.raises(ValueError):
            _derivative_arrays(np.ones(n, dtype=dtype), 0.1, order)
    assert _derivative_arrays(np.ones(m, dtype=dtype), 0.1, order).shape == (m,)


@pytest.mark.parametrize("order", [0, 3])
def test_stencil_rejects_an_order_it_lacks(order):
    with pytest.raises(ValueError, match="unsupported derivative order"):
        _derivative_arrays(np.ones(16), 0.1, order)
