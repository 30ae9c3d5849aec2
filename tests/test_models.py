import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from gcsdyn import (
    CoverageError,
    Grid,
    InvalidFieldError,
    PotentialModel,
    RealField,
    ground_energy,
    ground_moments,
    ground_state,
    ground_state_values,
    integrate,
    potential_gradient,
    potential_value,
    stationary_residual,
    suggest_grid,
)
from gcsdyn.models import MORSE_GAMMA, reference_density, require_coverage
from gcsdyn.tolerances import DEFAULT_TOLERANCES


def test_morse_parameter_validation():
    with pytest.raises(InvalidFieldError):
        PotentialModel.morse(a=-1.0)
    with pytest.raises(InvalidFieldError):
        PotentialModel.harmonic(omega=0.0)


def test_potential_values(morse, harmonic):
    assert potential_value(morse, 0.0) == 0.0
    # asymptote: far out the well sits at its depth
    assert potential_value(morse, 20.0 / morse.a) == pytest.approx(
        morse.well_depth, rel=1e-8
    )
    assert potential_value(harmonic, 2.0) == pytest.approx(2.0, abs=0.0)
    assert potential_gradient(morse, 0.0) == 0.0


def test_morse_constants(morse):
    assert MORSE_GAMMA == pytest.approx(0.641274, abs=1e-6)
    assert morse.dq2 == pytest.approx(4.0 * MORSE_GAMMA**2 / morse.a**2, rel=1e-15)
    assert morse.dq2 == pytest.approx(np.pi**2 / 6.0, rel=1e-15)
    assert morse.well_depth == pytest.approx(morse.energy_scale, rel=1e-15)


def test_morse_ground_state_normalized(morse, harmonic, harmonic_grid):
    grid = Grid(-8.0, 25.0, 2049)
    psi = ground_state(morse, grid)
    assert integrate(RealField(grid, psi.values**2)) == pytest.approx(1.0, abs=1e-8)
    # closed-form normalization constant (4 a^2)^(1/4): quadrature of the raw
    # analytic samples must already be 1
    raw = ground_state_values(morse, grid.points)
    assert integrate(RealField(grid, raw**2)) == pytest.approx(1.0, abs=1e-8)
    assert np.all(psi.values > 0.0)
    # unimodal: single sign change of the finite difference
    d = np.diff(psi.values)
    assert np.count_nonzero(np.diff(np.sign(d[np.abs(d) > 1e-30]))) <= 1
    # the harmonic ground state, (m omega / pi hbar)^(1/4) exp(-x^2/2)
    g = harmonic_grid
    psi = ground_state(harmonic, g)
    assert integrate(RealField(g, psi.values**2)) == pytest.approx(1.0, abs=1e-8)
    raw = ground_state_values(harmonic, g.points)
    assert integrate(RealField(g, raw**2)) == pytest.approx(1.0, abs=1e-8)


def test_harmonic_ground_variance(harmonic, harmonic_grid):
    info = ground_moments(harmonic, harmonic_grid)
    assert info.q0 == pytest.approx(0.0, abs=1e-10)
    assert info.dq2 == pytest.approx(0.5, abs=1e-8)  # hbar / (2 m omega)


def test_ground_energy_harmonic(harmonic):
    assert ground_energy(harmonic) == pytest.approx(0.5, abs=0.0)


def _fd_ground_energy(model, grid):
    """Oracle: diagonalize the 3-point finite-difference Hamiltonian."""
    dx = grid.dx
    hm = model.hbar**2 / (2.0 * model.mass)
    diag = 2.0 * hm / dx**2 + potential_value(model, grid.points)
    off = np.full(grid.n - 1, -hm / dx**2)
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    return float(vals[0])


def _fd_ground_energy_richardson(model, n=1536):
    grid1 = Grid(-8.0, 30.0, n)
    grid2 = Grid(-8.0, 30.0, 2 * n)
    e1 = _fd_ground_energy(model, grid1)
    e2 = _fd_ground_energy(model, grid2)
    return (4.0 * e2 - e1) / 3.0  # eliminates the O(dx^2) error


def test_morse_ground_energy_against_eigensolver(morse):
    # closed form: 3/4 of the energy scale at unit depth index
    assert ground_energy(morse) == pytest.approx(0.375, abs=0.0)
    oracle = _fd_ground_energy_richardson(morse)
    assert ground_energy(morse) == pytest.approx(oracle, abs=1e-6)


def test_morse_ground_energy_mass_scaling():
    light = PotentialModel.morse(a=1.0, mass=1.0)
    heavy = PotentialModel.morse(a=1.0, mass=2.0)
    assert ground_energy(heavy) == pytest.approx(0.5 * ground_energy(light), rel=1e-15)
    oracle = _fd_ground_energy_richardson(heavy)
    assert ground_energy(heavy) == pytest.approx(oracle, abs=1e-6)


def test_morse_moments(morse, morse_grid):
    info = ground_moments(morse, morse_grid)
    assert info.dq2 == pytest.approx(4.0 * MORSE_GAMMA**2, rel=1e-6)
    assert info.q0 > 0.0
    # oracle: substituting u = 2 exp(-a x) turns the density integral into
    # the exponential measure, giving <x> = (euler_gamma + ln 2) / a
    assert info.q0 == pytest.approx((np.euler_gamma + np.log(2.0)) / morse.a, abs=1e-6)


def test_stationary_schrodinger_residual(morse, harmonic):
    grid = Grid(-8.0, 56.0, 4096)
    assert stationary_residual(morse, grid) < 1e-6
    hgrid = Grid(-12.0, 12.0, 1024)
    assert stationary_residual(harmonic, hgrid) < 1e-6


def test_ground_state_coverage_error(morse):
    with pytest.raises(CoverageError):
        ground_state(morse, Grid(-1.0, 3.0, 64))


@pytest.mark.filterwarnings("error")
def test_density_that_vanishes_on_the_grid_is_a_coverage_error(harmonic):
    # a ground density that underflows on every sample has quadrature 0:
    # a CoverageError naming that, with no 0/0 and no numpy warning
    grid = Grid(100.0, 140.0, 398)
    with pytest.raises(CoverageError, match="vanishes on every grid sample"):
        reference_density(harmonic, grid, -2.4e10)
    with pytest.raises(CoverageError, match="ground state vanishes"):
        ground_state(harmonic, grid)


def test_nan_edge_mass_fails_the_coverage_check(harmonic):
    grid = Grid(-10.0, 10.0, 64)
    rho = np.zeros(64)
    rho[0] = np.nan
    with pytest.raises(CoverageError, match="edge mass nan"):
        require_coverage(rho, grid, DEFAULT_TOLERANCES, "packet")


def test_suggest_grid_covers(morse, harmonic):
    for model in (morse, harmonic):
        grid = suggest_grid(model)
        ground_state(model, grid)  # must not raise


def test_unit_scaling_leaves_shape(morse):
    # doubling hbar and m (a fixed) leaves the Morse ground density unchanged
    scaled = PotentialModel.morse(a=1.0, mass=2.0, hbar=2.0)
    x = np.linspace(-3.0, 10.0, 101)
    assert np.allclose(
        ground_state_values(morse, x), ground_state_values(scaled, x), rtol=0, atol=0
    )
    assert scaled.energy_scale == pytest.approx(2.0 * morse.energy_scale, rel=1e-15)
