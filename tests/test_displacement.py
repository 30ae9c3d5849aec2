import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcsdyn import (
    ClassicalPoint,
    ComplexField,
    CoverageError,
    Grid,
    PotentialModel,
    RealField,
    density_phase,
    gcs_from_model,
    ground_moments,
    ground_state,
    ground_state_values,
    integrate,
    moments,
    normalized,
    quadrature_weights,
)
from gcsdyn.displacement import PHASE_FLOOR
from gcsdyn.grids import _peak_segment, boundary_mass
from gcsdyn.models import reference_density
from gcsdyn.tolerances import DEFAULT_TOLERANCES


def _phase_run(polar):
    # the PHASE_FLOOR run around the peak, over which density_phase
    # unwraps; these smooth states have no ambiguous jump on it
    rho = polar.rho.values
    left, right = _peak_segment(rho, PHASE_FLOOR * rho.max())
    return slice(left, right + 1)


def test_identity_displacement(morse, morse_grid):
    psi0 = ground_state(morse, morse_grid)
    st = gcs_from_model(morse, morse_grid, ClassicalPoint(0.0, 0.0))
    assert np.array_equal(st.psi.values.real, psi0.values)
    assert np.max(np.abs(st.psi.values.imag)) == 0.0


def test_pure_translation_density_and_zero_phase(morse, morse_grid):
    q = 0.8
    st = gcs_from_model(morse, morse_grid, ClassicalPoint(q, 0.0))
    polar = density_phase(st.psi)
    valid = _phase_run(polar)
    # density is the translated ground density
    ref = ground_state_values(morse, morse_grid.points - q) ** 2
    ref /= integrate(RealField(morse_grid, ref))
    assert np.max(np.abs(polar.rho.values - ref)[valid]) < 1e-10
    # phase identically zero on the valid region
    assert np.max(np.abs(polar.S.values[valid])) < 1e-12


def test_displaced_harmonic_matches_glauber(harmonic, harmonic_grid):
    # oracle: closed-form coherent state, Gaussian of unchanged width
    # sigma^2 = hbar/2m omega centered at Q with momentum P
    q, p = 1.2, 0.7
    st = gcs_from_model(harmonic, harmonic_grid, ClassicalPoint(q, p))
    x = harmonic_grid.points
    glauber = (1.0 / np.pi) ** 0.25 * np.exp(-0.5 * (x - q) ** 2) * np.exp(1j * p * x)
    glauber = normalized(ComplexField(harmonic_grid, glauber)).values
    w = quadrature_weights(harmonic_grid)
    overlap = abs(np.dot(w, np.conj(glauber) * st.psi.values))
    assert overlap > 1.0 - 1e-8


def test_expectations_define_the_label(morse, morse_grid):
    # <q>_alpha - <q>_0 = Q and <p>_alpha = P on every constructed state
    info = ground_moments(morse, morse_grid)
    for q, p in [(0.6, 0.4), (-0.9, -1.1), (1.5, 0.0)]:
        st = gcs_from_model(morse, morse_grid, ClassicalPoint(q, p))
        x_mean, _, p_mean = moments(st.psi)
        assert x_mean - info.q0 == pytest.approx(q, abs=1e-8)
        assert p_mean == pytest.approx(p, abs=1e-8)


def test_linear_phase_profile(morse, morse_grid):
    q, p = 0.5, 0.8
    st = gcs_from_model(morse, morse_grid, ClassicalPoint(q, p))
    polar = density_phase(st.psi)
    valid = _phase_run(polar)
    x = morse_grid.points
    expected = p * x - 0.5 * p * q
    dev = polar.S.values - expected
    # allow the global 2 pi hbar branch of the measured phase
    branch = 2.0 * np.pi * np.round(np.median(dev[valid]) / (2.0 * np.pi))
    worst = np.max(np.abs(dev - branch)[valid])
    assert worst < 1e-8 * abs(p) * morse_grid.length


def test_polar_recomposition(morse, morse_grid):
    st = gcs_from_model(morse, morse_grid, ClassicalPoint(0.7, 1.3))
    polar = density_phase(st.psi)
    rebuilt = np.sqrt(polar.rho.values) * np.exp(1j * polar.S.values)
    w = quadrature_weights(morse_grid)
    overlap = abs(np.dot(w, np.conj(rebuilt) * st.psi.values))
    assert overlap > 1.0 - 1e-10


def _wide_morse_grid():
    # the x^2-weighted moments feel the slow right tail; pad far enough that
    # truncation stays below the 1e-8 relative budget even after shifts
    return Grid(-9.0, 34.0, 2560)


def test_displacement_preserves_spread(morse):
    grid = _wide_morse_grid()
    base = ground_moments(morse, grid).dq2
    for q, p in [(1.2, 0.0), (-1.0, 2.0), (0.3, -1.5)]:
        st = gcs_from_model(morse, grid, ClassicalPoint(q, p))
        x_mean, x2, _ = moments(st.psi)
        dq2 = x2 - x_mean**2
        assert dq2 == pytest.approx(base, rel=1e-8)


def test_coverage_error_on_large_shift(morse, morse_grid):
    with pytest.raises(CoverageError):
        gcs_from_model(morse, morse_grid, ClassicalPoint(12.0, 0.0))


def test_phase_unwrap_ambiguity_detected():
    # momentum so large the phase advances ~ pi per sample at the peak:
    # every jump there is ambiguous, so the valid run shrinks to the peak,
    # and S is extended from it with slope 0
    g = Grid(-10.0, 10.0, 64)
    k = 0.98 * np.pi / g.dx
    psi = np.exp(-0.5 * g.points**2) * np.exp(1j * k * g.points)
    polar = density_phase(normalized(ComplexField(g, psi)))
    S = polar.S.values
    assert np.all(S == S[int(np.argmax(polar.rho.values))])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["harmonic", "morse"]), st.floats(0.5, 2.0),
       st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_displaced_state_is_the_translated_ground_state_boosted_by_p(
        kind, hbar, mass, u, v):
    # for (Q, P) inside coverage: norm 1, the density of the ground state
    # translated by Q, and a phase that turns by P dx / hbar per sample
    # (P up to a tenth of a radian per sample, so the stencil <p> check
    # of the constructor holds)
    if kind == "harmonic":
        model = PotentialModel.harmonic(omega=1.0, mass=mass, hbar=hbar)
        grid = Grid(-12.0 * model.dq, 12.0 * model.dq, 1024)
        q = 4.0 * model.dq * u
    else:
        model = PotentialModel.morse(a=1.0, mass=mass, hbar=hbar)
        grid = Grid(-9.0, 40.0, 1024)
        q = 2.0 + 4.0 * u
    p = 0.1 * hbar / grid.dx * v
    ref = reference_density(model, grid, q)
    assume(boundary_mass(ref, grid) <= DEFAULT_TOLERANCES.boundary_mass)
    psi = gcs_from_model(model, grid, ClassicalPoint(q, p)).psi.values
    rho = np.abs(psi) ** 2
    assert abs(np.dot(quadrature_weights(grid), rho) - 1.0) <= 1e-12
    assert np.max(np.abs(rho - ref)) <= 1e-12 * ref.max()
    # the ground state is positive wherever its samples are normal numbers
    live = np.minimum(rho[1:], rho[:-1]) > 1e-250
    turn = np.angle(psi[1:] * np.conj(psi[:-1]))[live]
    assert np.max(np.abs(turn - p * grid.dx / hbar)) <= 1e-12
