import numpy as np
import pytest

from gcsdyn import (
    ClassicalPoint,
    ComplexField,
    Grid,
    NodeError,
    NormalizationError,
    PropagatorConfig,
    RealField,
    assemble_potential,
    classical_force,
    continuity_residual,
    evolve_feedback,
    ground_density_values,
    ground_energy,
    ground_state,
    hjm_residual,
    integrate,
    potential_value,
    quadrature_weights,
    quantum_curvature,
    step,
)
from gcsdyn.hydrodynamics import CURVATURE_FLOOR
from gcsdyn.models import reference_density

HBAR = 1.0
MASS = 1.0


def _normalized_density(grid, values):
    f = RealField(grid, values)
    return RealField(grid, f.values / integrate(f))


def test_curvature_gaussian_closed_form(harmonic, harmonic_grid):
    # oracle: for a Gaussian of variance sigma^2 = hbar/2m omega,
    # (hbar^2/2m) F(x) = m omega^2 x^2 / 2 - hbar omega / 2
    rho = _normalized_density(
        harmonic_grid, ground_density_values(harmonic, harmonic_grid.points)
    )
    res = quantum_curvature(rho)
    x = harmonic_grid.points
    target = 0.5 * x * x - 0.5
    got = 0.5 * res.values
    sel = np.abs(x) < 4.0 * np.sqrt(0.5)
    dev = np.abs(got - target)[sel]
    floor = np.maximum(np.abs(target), 1.0)[sel]  # relative with hbar*omega floor
    assert np.max(dev / floor) < 1e-6


def test_curvature_morse_identity(morse, morse_grid):
    # oracle: symbolic differentiation of the Morse ground state gives
    # (hbar^2/2m) F(x) = U0 (1 - e^{-ax})^2 - (3/4) E_scale
    rho = _normalized_density(
        morse_grid, ground_density_values(morse, morse_grid.points)
    )
    res = quantum_curvature(rho)
    target = potential_value(morse, morse_grid.points) - 0.75 * morse.energy_scale
    good = rho.values > 1e-8 * rho.values.max()
    dev = np.abs(0.5 * res.values - target)[good].max()
    assert dev < 1e-5 * morse.well_depth


def test_curvature_uniform_density_is_zero():
    g = Grid(0.0, 1.0, 64)
    rho = RealField(g, np.ones(g.n))
    res = quantum_curvature(rho)
    assert np.max(np.abs(res.values)) < 1e-12
    assert (rho.values > CURVATURE_FLOOR * rho.values.max()).all()


def test_curvature_clamps_tails(morse, morse_grid):
    rho = _normalized_density(
        morse_grid, ground_density_values(morse, morse_grid.points)
    )
    res = quantum_curvature(rho)
    valid = rho.values > CURVATURE_FLOOR * rho.values.max()
    assert not valid.all()
    # clamped samples repeat the last evaluated edge value
    edges = np.flatnonzero(valid)
    assert np.all(res.values[: edges[0]] == res.values[edges[0]])
    assert np.all(res.values[edges[-1] :] == res.values[edges[-1]])


def test_curvature_rejects_nodes():
    # odd point count puts a sample exactly on the node of the first
    # excited state, where the density vanishes
    g = Grid(-12.0, 12.0, 513)
    x = g.points
    rho = x * x * np.exp(-x * x)
    rho = rho / integrate(RealField(g, rho))
    with pytest.raises(NodeError):
        quantum_curvature(RealField(g, rho))


def test_curvature_requires_normalization():
    g = Grid(-10.0, 10.0, 256)
    with pytest.raises(NormalizationError):
        quantum_curvature(RealField(g, np.exp(-g.points**2)))


def test_assemble_static_limit(morse, morse_grid):
    # at rest the assembled potential is the well shifted down by E0
    snap = assemble_potential(morse, ClassicalPoint(0.0, 0.0), 0.0, morse_grid)
    expected = potential_value(morse, morse_grid.points) - ground_energy(morse)
    assert np.max(np.abs(snap.V.values - expected)) == 0.0


def test_assemble_matches_morse_closed_form(morse, morse_grid):
    # the closed-form time-dependent Morse potential, term by term; the
    # curvature term carries the documented -E0 offset
    q, p, dpdt = 0.8, 0.5, -0.2
    snap = assemble_potential(morse, ClassicalPoint(q, p), dpdt, morse_grid)
    x = morse_grid.points
    xi = x - q
    u0 = morse.well_depth
    closed = (
        u0 * (1.0 - np.exp(-morse.a * xi)) ** 2
        - dpdt * x
        - p * p / (2.0 * MASS)
        + 0.5 * ((p / MASS) * p + dpdt * q)
    )
    dev = np.max(np.abs(snap.V.values + ground_energy(morse) - closed))
    assert dev < 1e-8 * u0


def test_assemble_numeric_curvature_cross_check(morse, morse_grid):
    # the assembled V against the one built from the quantum curvature of
    # the translated ground density, differentiated on the grid
    q, p, dpdt = 0.5, 0.3, 0.1
    x = morse_grid.points
    ana = assemble_potential(morse, ClassicalPoint(q, p), dpdt, morse_grid)
    rho = reference_density(morse, morse_grid, q)
    curv = quantum_curvature(RealField(morse_grid, rho))
    num = ((HBAR**2 / (2.0 * MASS)) * curv.values - x * dpdt
           - p * p / (2.0 * MASS) + 0.5 * ((p / MASS) * p + dpdt * q))
    good = rho > 1e-8 * rho.max()
    dev = np.abs(ana.V.values - num)[good].max()
    assert dev < 1e-5 * morse.well_depth


def test_assemble_harmonic_quadratic_coefficient_q_independent(harmonic, harmonic_grid):
    # oracle: quadratic fit over the packet window; the curvature of the
    # assembled well must not depend on the displacement
    x = harmonic_grid.points
    window = np.abs(x) < 2.0
    coeffs = []
    for q in (0.0, 0.7, -1.3):
        snap = assemble_potential(harmonic, ClassicalPoint(q, 0.4), -q, harmonic_grid)
        c = np.polynomial.polynomial.polyfit(x[window], snap.V.values[window], 2)
        coeffs.append(c[2])
    assert np.ptp(coeffs) < 1e-10
    assert coeffs[0] == pytest.approx(0.5, abs=1e-10)  # m omega^2 / 2


def _gcs_fields(model, grid, q, p):
    rho = ground_density_values(model, grid.points - q)
    rho = rho / integrate(RealField(grid, rho))
    s = p * grid.points - 0.5 * p * q
    return RealField(grid, rho), RealField(grid, s)


def test_continuity_static_ground_state(morse, morse_grid):
    rho, _ = _gcs_fields(morse, morse_grid, 0.0, 0.0)
    zero = RealField(morse_grid, np.zeros(morse_grid.n))
    res = continuity_residual(zero, rho, zero, MASS)
    assert res < 1e-10  # absolute norm: both terms vanish


def test_continuity_gcs_transport(morse, morse_grid):
    # oracle: rho(x - Q(t)) with S = Px - PQ/2 satisfies transport exactly
    # when dQ/dt = P/m; d_t rho from two neighboring analytic snapshots
    q, p = 0.4, 0.9
    delta = 1e-3
    rho, s = _gcs_fields(morse, morse_grid, q, p)
    qdot = p / MASS
    w = quadrature_weights(morse_grid)
    rp = ground_density_values(morse, morse_grid.points - (q + qdot * delta))
    rm = ground_density_values(morse, morse_grid.points - (q - qdot * delta))
    rp /= float(np.dot(w, rp))
    rm /= float(np.dot(w, rm))
    rho_t = RealField(morse_grid, (rp - rm) / (2.0 * delta))
    assert continuity_residual(rho_t, rho, s, MASS) < 1e-6

    # sign-flipped momentum transports the wrong way: residual ~ 2 ||d_t rho||
    _, s_flipped = _gcs_fields(morse, morse_grid, q, -p)
    res = continuity_residual(rho_t, rho, s_flipped, MASS)
    assert 1.9 < res < 2.1


def test_hjm_stationary_ground_state(morse, morse_grid):
    rho, _ = _gcs_fields(morse, morse_grid, 0.0, 0.0)
    zero = RealField(morse_grid, np.zeros(morse_grid.n))
    v = RealField(
        morse_grid,
        potential_value(morse, morse_grid.points) - ground_energy(morse),
    )
    assert hjm_residual(zero, zero, rho, v, MASS, HBAR) < 1e-6


def test_hjm_gcs_with_assembled_potential(morse, morse_grid):
    # the defining identity: assembled V solves the phase equation for the
    # frozen translated density at any label point
    for q, p in [(0.5, 0.8), (-0.8, -0.6), (1.4, 0.2)]:
        dpdt = float(classical_force(morse, q))
        rho, s = _gcs_fields(morse, morse_grid, q, p)
        snap = assemble_potential(morse, ClassicalPoint(q, p), dpdt, morse_grid)
        s_t = RealField(
            morse_grid,
            dpdt * morse_grid.points - 0.5 * (dpdt * q + p * (p / MASS)),
        )
        assert hjm_residual(s_t, s, rho, snap.V, MASS, HBAR) < 1e-5


def test_hjm_static_potential_fails_for_displaced_packet(morse, morse_grid):
    # the static well does not solve the phase equation once Q != 0
    q, p = 0.9, 0.0
    rho, s = _gcs_fields(morse, morse_grid, q, p)
    zero = RealField(morse_grid, np.zeros(morse_grid.n))
    v_static = RealField(
        morse_grid,
        potential_value(morse, morse_grid.points) - ground_energy(morse),
    )
    assert hjm_residual(zero, s, rho, v_static, MASS, HBAR) > 1e-2


def test_constant_offset_leaves_density_invariant(morse, morse_grid):
    # x-independent potential terms only rotate the global phase; split-step
    # evolution makes the density offset-invariant to round-off
    psi0 = ground_state(morse, morse_grid)
    psi = ComplexField(morse_grid, psi0.values.astype(complex))
    v1 = RealField(morse_grid, potential_value(morse, morse_grid.points))
    v2 = RealField(morse_grid, v1.values + 3.7)
    a, b = psi, psi
    for _ in range(200):
        a = step(a, v1, 5e-3, scheme="split-step")
        b = step(b, v2, 5e-3, scheme="split-step")
    diff = np.abs(np.abs(a.values) ** 2 - np.abs(b.values) ** 2)
    assert np.max(diff) < 1e-10


@pytest.mark.parametrize("kind", ["morse", "harmonic"])
def test_feedback_frames_carry_the_assembled_potential_bitwise(kind, request):
    # feedback snapshots hand their V to the diagnostics, the sink (fields/)
    # and potential_snapshots.csv, so each must be the public assembled
    # potential at the snapshot's trajectory point and force, bit for bit
    model = request.getfixturevalue(kind)
    grid = request.getfixturevalue(f"{kind}_grid")
    conf = PropagatorConfig(dt=2e-3, scheme="split-step", snapshot_stride=7)
    seen = []
    run = evolve_feedback(model, ClassicalPoint(0.4, -0.3), conf, 40 * 2e-3, grid,
                          sink=lambda *snap: seen.append(snap))
    assert run.steps == (0, 7, 14, 21, 28, 35, 40)
    assert [s for s, _, _ in seen] == list(run.steps)
    for s, _, V in seen:
        f = float(run.trajectory.forces[s])
        snap = assemble_potential(model, run.trajectory.point(s), f, grid)
        assert np.array_equal(V.values, snap.V.values)
        assert np.array_equal(run.potential(s).values, snap.V.values)


@pytest.mark.parametrize("kind", ["morse", "harmonic"])
def test_stepping_assembler_matches_below_kinetic_ceiling(kind, request):
    # the step loop's basis-form potential, in the kernel's operand units
    # and clamped there at the kinetic ceiling as the loop clamps it, is the
    # assembled potential to round-off once the units are undone
    from gcsdyn.hydrodynamics import _stepping_basis
    from gcsdyn.propagation import _clamp, _potential_cap, _split_step

    model = request.getfixturevalue(kind)
    grid = request.getfixturevalue(f"{kind}_grid")
    cap = _potential_cap(grid, model.mass, model.hbar)
    rng = np.random.default_rng(20)
    reach = 2.0 * model.dq
    q, p, f = (rng.uniform(-reach, reach, 50), rng.uniform(-2.0, 2.0, 50),
               rng.uniform(-2.0, 2.0, 50))
    exact = [np.minimum(assemble_potential(model, ClassicalPoint(q_s, p_s), f_s,
                                           grid).V.values, cap)
             for q_s, p_s, f_s in zip(q, p, f)]
    rows, coefficients = _stepping_basis(model, grid)
    kernel = _split_step(grid.n, grid.dx, 1e-3, model.mass, model.hbar)
    table = coefficients(q, p, f, kernel.scale)
    for coefs, v in zip(table, exact):
        u = _clamp(kernel, np.dot(coefs, rows), cap)
        dev = np.abs(u / kernel.scale - v)
        assert np.all(dev <= 1e-13 * np.maximum(1.0, np.abs(v)))
