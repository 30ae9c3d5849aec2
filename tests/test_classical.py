import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcsdyn import (
    ClassicalPoint,
    EscapeError,
    ExtractionError,
    Grid,
    PotentialModel,
    assemble_potential,
    classical_force,
    classical_period,
    integrate_trajectory,
    linear_coefficient,
    momentum_for_energy,
    potential_value,
    turning_points,
    v_class,
)
from gcsdyn.classical import _scalar_force
from gcsdyn.diagnostics import potential_slope_at


def test_linear_coefficient_trivials(morse):
    # Q = 0 with no drive: the two exponentials cancel
    assert linear_coefficient(morse, ClassicalPoint(0.0, 0.0), 0.0) == 0.0
    # half a spread to the right: restoring, negative
    q = 0.5 * morse.dq
    val = linear_coefficient(morse, ClassicalPoint(q, 0.0), 0.0)
    expected = 2.0 * morse.a * morse.well_depth * (np.exp(morse.a * q) - np.exp(2.0 * morse.a * q))
    assert val == pytest.approx(expected, rel=1e-15)
    assert val < 0.0
    # driving at the classical force zeroes the leftover linear term
    dpdt = float(classical_force(morse, 1.1))
    assert linear_coefficient(morse, ClassicalPoint(1.1, 0.3), dpdt) == pytest.approx(
        0.0, abs=1e-15
    )


def test_linear_coefficient_harmonic(harmonic):
    q, dpdt = 0.8, 0.25
    val = linear_coefficient(harmonic, ClassicalPoint(q, 0.0), dpdt)
    assert val == pytest.approx(-dpdt - harmonic.mass * harmonic.omega**2 * q, rel=1e-15)


def test_linear_coefficient_fit_agrees(morse, morse_grid):
    for q in np.linspace(-2.5 * morse.dq, 2.5 * morse.dq, 10):
        pt = ClassicalPoint(float(q), 0.45, 0.0)
        ana = linear_coefficient(morse, pt, 0.12)
        fit = linear_coefficient(morse, pt, 0.12, grid=morse_grid, method="fit")
        assert fit == pytest.approx(ana, rel=1e-6)


def test_linear_coefficient_fit_degenerate_grid(morse):
    # grid that covers the displaced packet but misses the expansion point
    grid = Grid(3.0, 32.0, 1024)
    with pytest.raises(ExtractionError):
        linear_coefficient(
            morse, ClassicalPoint(14.0, 0.0), 0.0, grid=grid, method="fit"
        )
    with pytest.raises(ExtractionError):
        linear_coefficient(morse, ClassicalPoint(0.2, 0.0), 0.0, method="fit")
    # x = 0 three and a half samples inside the left edge: the 10 samples
    # nearest it would run off the grid
    grid = Grid(-3.5 * 32.0 / 1019.5, 32.0, 1024)
    with pytest.raises(ExtractionError, match="5 grid samples on either side"):
        linear_coefficient(morse, ClassicalPoint(0.2, 0.0), 0.0, grid=grid,
                           method="fit")


def test_classical_force_signs(morse, harmonic):
    assert classical_force(morse, 0.0) == 0.0
    for q in (-0.5, -0.1):
        assert classical_force(morse, q) > 0.0  # restoring toward 0 from the left
    assert classical_force(harmonic, 1.0) == pytest.approx(-1.0, abs=0.0)


def test_classical_force_is_minus_gradient(morse, harmonic):
    # oracle: central difference of the center potential
    h = 1e-5
    for model in (morse, harmonic):
        for q in (-0.7, 0.0, 0.4, 1.3):
            fd = -(v_class(model, q + h) - v_class(model, q - h)) / (2.0 * h)
            assert classical_force(model, q) == pytest.approx(fd, abs=5e-9)


def test_vclass_mirror_identity(morse, harmonic):
    q = np.linspace(-4.0, 4.0, 201)
    # Morse: center potential is the space-reflected well, exactly
    assert np.array_equal(v_class(morse, q), potential_value(morse, -q))
    # harmonic: coincides with the well itself
    assert np.array_equal(v_class(harmonic, q), potential_value(harmonic, q))
    assert v_class(morse, 0.0) == 0.0


def test_harmonic_trajectory_closed_form(harmonic):
    # oracle: Q(t) = cos t, P(t) = -sin t for (Q0, P0) = (1, 0), m = omega = 1
    dt = 1e-3
    steps = int(round(2.0 * np.pi / dt))
    traj = integrate_trajectory(harmonic, 1.0, 0.0, dt, steps)
    t = traj.t
    assert np.max(np.abs(traj.q - np.cos(t))) < 1e-6
    assert np.max(np.abs(traj.p + np.sin(t))) < 1e-6


def test_fixed_point_stays(morse):
    traj = integrate_trajectory(morse, 0.0, 0.0, 1e-2, 500)
    assert np.all(traj.q == 0.0)
    assert np.all(traj.p == 0.0)


def test_morse_bounded_orbit(morse):
    # oracle: turning points solve U0 (1 - e^{aQ})^2 = E; energy conserved
    e_cl = 0.3 * morse.well_depth
    p0 = momentum_for_energy(morse, e_cl, 0.0)
    period = classical_period(morse, e_cl)
    dt = 1e-3
    traj = integrate_trajectory(morse, 0.0, p0, dt, int(round(period / dt)))
    energy = traj.energy(morse)
    # Verlet energy error oscillates inside the (dt*omega)^2 shadow band and
    # returns at period completion; conservation means no secular part
    omega = 2.0 * np.pi / period
    assert np.max(np.abs(energy / e_cl - 1.0)) < 10.0 * (dt * omega) ** 2
    assert abs(energy[-1] / e_cl - 1.0) < 1e-8
    q_lo, q_hi = turning_points(morse, e_cl)
    r = np.sqrt(0.3)
    assert q_lo == pytest.approx(np.log(1.0 - r), rel=1e-12)
    assert q_hi == pytest.approx(np.log(1.0 + r), rel=1e-12)
    margin = 1e-6
    assert traj.q.min() >= q_lo - margin
    assert traj.q.max() <= q_hi + margin
    # and the orbit actually reaches both turning points
    assert traj.q.min() == pytest.approx(q_lo, abs=1e-4)
    assert traj.q.max() == pytest.approx(q_hi, abs=1e-4)


def test_symplectic_energy_drift_100_periods(morse, harmonic):
    for model, e_cl in ((harmonic, 0.5), (morse, 0.2 * morse.well_depth)):
        p0 = momentum_for_energy(model, e_cl, 0.0)
        period = classical_period(model, e_cl)
        dt = period / 1000.0
        traj = integrate_trajectory(model, 0.0, p0, dt, 100 * 1000)
        energy = traj.energy(model)
        assert abs(energy[-1] / e_cl - 1.0) < 1e-6


def test_ehrenfest_closure_along_trajectory(morse, morse_grid):
    # gradient of the assembled potential at the center balances the force
    e_cl = 0.2 * morse.well_depth
    p0 = momentum_for_energy(morse, e_cl, 0.0)
    period = classical_period(morse, e_cl)
    traj = integrate_trajectory(morse, 0.0, p0, period / 500.0, 500)
    scale = float(np.max(np.abs(traj.forces)))
    for i in range(0, len(traj), 25):
        pt = traj.point(i)
        snap = assemble_potential(morse, pt, float(traj.forces[i]), morse_grid)
        grad = potential_slope_at(snap.V, pt.Q, morse.dq)
        assert abs(traj.forces[i] + grad) / scale < 1e-6


def test_mirror_trajectory_property(morse):
    # motion in the mirrored well equals the reflected motion in the well
    # itself; the original-well force is the reflected center force
    e_cl = 0.25 * morse.well_depth
    p0 = momentum_for_energy(morse, e_cl, 0.0)
    dt = 1e-3
    steps = 4000
    traj = integrate_trajectory(morse, 0.0, p0, dt, steps)

    q, p = 0.0, -p0
    qs = [q]
    f = -float(potential_value(morse, q + 1e-7) - potential_value(morse, q - 1e-7)) / 2e-7
    for _ in range(steps):
        p_half = p + 0.5 * dt * f
        q = q + dt * p_half
        f = -float(
            potential_value(morse, q + 1e-7) - potential_value(morse, q - 1e-7)
        ) / 2e-7
        p = p_half + 0.5 * dt * f
        qs.append(q)
    assert np.max(np.abs(traj.q + np.array(qs))) < 1e-5


def test_escape_errors(morse):
    with pytest.raises(EscapeError):
        integrate_trajectory(morse, 0.0, 10.0, 1e-3, 10)  # E >> U0
    # dt * omega = 3 is past Verlet's stability limit of 2: the orbit
    # overflows, and the error names the first step that is not finite
    with pytest.raises(EscapeError) as err:
        integrate_trajectory(PotentialModel.harmonic(omega=1.0), 1.0, 0.0, 3.0, 1000)
    assert err.value.step is not None
    with pytest.raises(EscapeError):
        classical_period(morse, 2.0 * morse.well_depth)
    with pytest.raises(EscapeError):
        momentum_for_energy(morse, 0.1, q0=5.0)


def test_period_scaling_with_units():
    # doubling hbar and m doubles U0 but leaves U0/m and hence the period
    base = PotentialModel.morse(a=1.0)
    scaled = PotentialModel.morse(a=1.0, mass=2.0, hbar=2.0)
    e = 0.2 * base.well_depth
    assert classical_period(scaled, 2.0 * e) == pytest.approx(
        classical_period(base, e), rel=1e-15
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-3.0, 200.0))
@example(0.0).via("the fixed point")
@example(180.0).via("2 a q above the exponent cap")
def test_scalar_force_is_classical_force_bit_for_bit(q):
    # the Verlet orbit's float force law; above q = 175 (a = 1) the cap
    # binds for the second exponent
    for model in (PotentialModel.morse(a=1.0), PotentialModel.harmonic(omega=1.3)):
        got = _scalar_force(model)(q)
        want = classical_force(model, q)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_trajectory_forces_are_classical_force_of_its_positions(morse):
    traj = integrate_trajectory(morse, 0.0, 0.45, 1e-2, 500)
    assert np.array_equal(traj.forces, classical_force(morse, traj.q))
