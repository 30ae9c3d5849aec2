import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcsdyn import (
    ClassicalPoint,
    ComplexField,
    CoverageError,
    Grid,
    PhaseUnwrapError,
    PotentialModel,
    RealField,
    alpha_label,
    density_phase,
    displace,
    gcs_from_model,
    ground_moments,
    ground_state,
    ground_state_values,
    integrate,
    moments,
    normalized,
    quadrature_weights,
)
from gcsdyn.grids import boundary_mass
from gcsdyn.models import reference_density
from gcsdyn.tolerances import DEFAULT_TOLERANCES
from conftest import bhattacharyya


def test_alpha_label():
    assert alpha_label(ClassicalPoint(0.0, 0.0)) == 0.0
    assert alpha_label(ClassicalPoint(1.0, 0.0), hbar=1.0) == pytest.approx(np.sqrt(2.0))
    assert alpha_label(ClassicalPoint(0.0, 1.0), hbar=1.0) == pytest.approx(np.sqrt(2.0) * 1j)


def test_identity_displacement(morse, morse_grid):
    psi0 = ground_state(morse, morse_grid)
    st = displace(psi0, ClassicalPoint(0.0, 0.0), hbar=1.0, model=morse)
    assert st.shift_method == "none"
    assert np.array_equal(st.psi.values.real, psi0.values)
    assert np.max(np.abs(st.psi.values.imag)) == 0.0


def test_pure_translation_density_and_zero_phase(morse, morse_grid):
    q = 0.8
    st = gcs_from_model(morse, morse_grid, ClassicalPoint(q, 0.0))
    polar = density_phase(st)
    # density is the translated ground density
    ref = ground_state_values(morse, morse_grid.points - q) ** 2
    ref /= integrate(RealField(morse_grid, ref))
    assert np.max(np.abs(polar.rho.values - ref)[polar.valid]) < 1e-10
    # phase identically zero on the valid region
    assert np.max(np.abs(polar.S.values[polar.valid])) < 1e-12


def test_displaced_harmonic_matches_glauber(harmonic, harmonic_grid):
    # oracle: closed-form coherent state, Gaussian of unchanged width
    # sigma^2 = hbar/2m omega centered at Q with momentum P
    q, p = 1.2, 0.7
    psi0 = ground_state(harmonic, harmonic_grid)
    st = displace(psi0, ClassicalPoint(q, p), hbar=1.0, model=harmonic)
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
    polar = density_phase(st)
    x = morse_grid.points
    expected = p * x - 0.5 * p * q
    dev = polar.S.values - expected
    # allow the global 2 pi hbar branch of the measured phase
    branch = 2.0 * np.pi * np.round(np.median(dev[polar.valid]) / (2.0 * np.pi))
    worst = np.max(np.abs(dev - branch) [polar.valid])
    assert worst < 1e-8 * abs(p) * morse_grid.length


def test_polar_recomposition(morse, morse_grid):
    st = gcs_from_model(morse, morse_grid, ClassicalPoint(0.7, 1.3))
    polar = density_phase(st)
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


def test_displacement_preserves_spread_sampled_field(morse):
    # same property through the sampled-field path
    grid = _wide_morse_grid()
    psi0 = ground_state(morse, grid)
    base = ground_moments(morse, grid).dq2
    st = displace(psi0, ClassicalPoint(1.1, 0.6), hbar=1.0, model=morse)
    x_mean, x2, _ = moments(st.psi)
    dq2 = x2 - x_mean**2
    assert dq2 == pytest.approx(base, rel=1e-8)


def test_quintic_fallback_on_tail_mass(morse, morse_grid):
    # on the tighter default grid the Morse tail carries boundary mass above
    # the spectral-shift threshold, so displace must not wrap it; the local
    # quintic then matches the analytic translation
    psi0 = ground_state(morse, morse_grid)
    for q, p in ((0.9, 0.4), (1.5, 0.0)):
        point = ClassicalPoint(q, p)
        st = displace(psi0, point, hbar=1.0, model=morse)
        assert st.shift_method == "quintic"
        rho = np.abs(st.psi.values) ** 2
        assert integrate(RealField(morse_grid, rho)) == pytest.approx(1.0, abs=1e-8)
        exact = gcs_from_model(morse, morse_grid, point).psi.values
        assert np.max(np.abs(st.psi.values - exact)) <= 1e-10


def test_spectral_shift_used_for_decayed_fields(harmonic, harmonic_grid):
    psi0 = ground_state(harmonic, harmonic_grid)
    st = displace(psi0, ClassicalPoint(1.0, 0.0), hbar=1.0)
    assert st.shift_method == "spectral"
    assert integrate(RealField(harmonic_grid, np.abs(st.psi.values) ** 2)) == pytest.approx(
        1.0, abs=1e-10
    )


def test_composition_of_translations(harmonic, harmonic_grid):
    psi0 = ground_state(harmonic, harmonic_grid)
    q1, q2 = 0.7, -0.4
    first = displace(psi0, ClassicalPoint(q1, 0.0), 1.0)
    # P = 0 keeps the state real; feed it back as the base of a second shift
    base = RealField(harmonic_grid, first.psi.values.real)
    second = displace(base, ClassicalPoint(q2, 0.0), 1.0)
    direct = displace(psi0, ClassicalPoint(q1 + q2, 0.0), 1.0)
    w = quadrature_weights(harmonic_grid)
    rho_a = np.abs(second.psi.values) ** 2
    rho_b = np.abs(direct.psi.values) ** 2
    assert bhattacharyya(w, rho_a, rho_b) > 1.0 - 1e-10


def test_coverage_error_on_large_shift(morse, morse_grid):
    with pytest.raises(CoverageError):
        gcs_from_model(morse, morse_grid, ClassicalPoint(12.0, 0.0))
    psi0 = ground_state(morse, morse_grid)
    with pytest.raises(CoverageError):
        displace(psi0, ClassicalPoint(12.0, 0.0), hbar=1.0)


def test_phase_unwrap_ambiguity_detected():
    # momentum so large the phase advances ~ pi per sample at the peak
    g = Grid(-10.0, 10.0, 64)
    k = 0.98 * np.pi / g.dx
    psi = np.exp(-0.5 * g.points**2) * np.exp(1j * k * g.points)
    psi = normalized(ComplexField(g, psi))
    with pytest.raises(PhaseUnwrapError):
        density_phase(psi)


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
