import sys
from contextlib import nullcontext
from dataclasses import replace
from importlib.machinery import ModuleSpec
from importlib.util import module_from_spec

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsdyn import (
    ClassicalPoint,
    assemble_potential,
    classical_force,
    integrate_trajectory,
    ComplexField,
    CoverageError,
    EscapeError,
    Grid,
    PropagationError,
    PropagatorConfig,
    RealField,
    UnitarityError,
    classical_period,
    evolve_feedback,
    evolve_static,
    gcs_from_model,
    ground_moments,
    ground_state,
    moments,
    momentum_for_energy,
    normalized,
    potential_value,
    quadrature_weights,
    step,
    suggest_grid,
)
from gcsdyn import propagation
from gcsdyn.grids import BOUNDARY_POINTS, boundary_mass
from gcsdyn.propagation import (
    _in_units,
    _monitor,
    _potential_cap,
)
from gcsdyn.tolerances import DEFAULT_TOLERANCES


def _free_gaussian(grid, sigma0):
    psi = np.exp(-grid.points**2 / (4.0 * sigma0**2))
    return normalized(ComplexField(grid, psi))


def test_config_validation():
    with pytest.raises(PropagationError):
        PropagatorConfig(dt=-1.0)
    with pytest.raises(PropagationError):
        PropagatorConfig(dt=1e-3, scheme="euler")
    with pytest.raises(PropagationError):
        PropagatorConfig(dt=1e-3, mode="both")
    with pytest.raises(PropagationError):
        PropagatorConfig(dt=1e-3, snapshot_stride=0)
    for bad in ({"dt": np.nan}, {"dt": np.inf}, {"dt": 0.0},
                {"dt": 1e-3, "snapshot_stride": 2.5},
                {"dt": 1e-3, "snapshot_stride": np.nan}):
        with pytest.raises(PropagationError):
            PropagatorConfig(**bad)


@pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("mode", propagation.MODES)
def test_evolve_rejects_a_bad_horizon(morse, morse_run_grid, mode, T):
    conf = PropagatorConfig(dt=1e-3, scheme="split-step", mode=mode)
    pt = ClassicalPoint(0.0, 0.1)
    with pytest.raises(PropagationError, match="T must be positive and finite"):
        if mode == "feedback":
            evolve_feedback(morse, pt, conf, T, morse_run_grid)
        else:
            evolve_static(gcs_from_model(morse, morse_run_grid, pt), morse, conf, T)


def test_step_grid_mismatch():
    g1 = Grid(-5.0, 5.0, 64)
    g2 = Grid(-5.0, 5.0, 128)
    psi = _free_gaussian(g1, 1.0)
    v = RealField(g2, np.zeros(g2.n))
    with pytest.raises(PropagationError):
        step(psi, v, 1e-3)


@pytest.mark.parametrize("scheme", propagation.SCHEMES)
def test_step_takes_a_real_psi(harmonic, scheme):
    # ground_state is a RealField; step() advances it as its complex copy
    g = Grid(-6.0, 6.0, 128)
    psi = ground_state(harmonic, g)
    v = RealField(g, potential_value(harmonic, g.points))
    want = step(ComplexField(g, psi.values), v, 1e-2, scheme).values
    got = step(psi, v, 1e-2, scheme).values
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_free_particle_single_step_matches_closed_form():
    # oracle: free Gaussian spreading, psi(x,t) with complex width
    # sigma^2(t) = sigma0^2 (1 + i hbar t / 2 m sigma0^2)
    g = Grid(-24.0, 24.0, 1024)
    sigma0 = 1.0
    dt = 0.05
    psi = _free_gaussian(g, sigma0)
    v = RealField(g, np.zeros(g.n))
    out = step(psi, v, dt, scheme="split-step")
    tau = 1.0 + 0.5j * dt / sigma0**2
    closed = np.exp(-g.points**2 / (4.0 * sigma0**2 * tau)) / np.sqrt(tau)
    closed = normalized(ComplexField(g, closed)).values
    phase = np.vdot(closed, out.values)
    phase /= abs(phase)
    assert np.max(np.abs(out.values - phase * closed)) < 1e-8


def test_free_particle_width_law():
    # oracle: dq2(t) = sigma0^2 (1 + (hbar t / 2 m sigma0^2)^2), doubled here
    # because dq2 of the density is sigma0^2 at t = 0
    g = Grid(-40.0, 40.0, 2048)
    sigma0 = 1.0
    dt = 0.02
    nsteps = 150
    psi = _free_gaussian(g, sigma0)
    v = RealField(g, np.zeros(g.n))
    for _ in range(nsteps):
        psi = step(psi, v, dt, scheme="split-step")
    t = nsteps * dt
    x_mean, x2, _ = moments(psi)
    got = x2 - x_mean**2
    want = sigma0**2 * (1.0 + (0.5 * t / sigma0**2) ** 2)
    assert got == pytest.approx(want, rel=1e-6)


def test_stationary_state_phase_advance(harmonic, harmonic_grid):
    # split-step: kinetic factor exact in k-space, Strang phase error O(dt^3)
    psi0 = ground_state(harmonic, harmonic_grid)
    psi = ComplexField(harmonic_grid, psi0.values.astype(complex))
    v = RealField(harmonic_grid, potential_value(harmonic, harmonic_grid.points))
    dt = 5e-4
    w = quadrature_weights(harmonic_grid)
    out = step(psi, v, dt, scheme="split-step")
    advance = np.angle(np.dot(w, np.conj(psi.values) * out.values))
    assert advance == pytest.approx(-0.5 * dt, abs=1e-10)  # -E0 dt / hbar
    assert np.max(np.abs(np.abs(out.values) ** 2 - psi0.values**2)) < 1e-10

    # Crank-Nicolson advances with the Numerov ground energy, a dx^4-shifted
    # eigenvalue (1.5e-12 here, mostly the Cayley phase's (E0 dt)^3/12; the
    # 3-point Laplacian's dx^2/32 shift gave 4.9e-9); density stays put
    out_cn = step(psi, v, dt, scheme="crank-nicolson")
    advance_cn = np.angle(np.dot(w, np.conj(psi.values) * out_cn.values))
    dx4_shift = harmonic_grid.dx**4  # |E_N - E0| ~ 4e-3 hbar w (w dx)^4
    assert advance_cn == pytest.approx(-0.5 * dt, abs=dx4_shift * dt)
    assert np.max(np.abs(np.abs(out_cn.values) ** 2 - psi0.values**2)) < 1e-8


@pytest.mark.parametrize("scheme", ["crank-nicolson", "split-step"])
def test_self_convergence_second_order(harmonic, harmonic_grid, scheme):
    # Richardson: error against a dt/8 reference shrinks ~4x per halving
    psi0 = gcs_from_model(harmonic, harmonic_grid, ClassicalPoint(1.0, 0.0)).psi
    v = RealField(harmonic_grid, potential_value(harmonic, harmonic_grid.points))
    horizon = 0.5

    def run(nsteps):
        psi = psi0
        for _ in range(nsteps):
            psi = step(psi, v, horizon / nsteps, scheme=scheme)
        return psi.values

    ref = run(400)
    w = quadrature_weights(harmonic_grid)
    errs = []
    for nsteps in (50, 100):
        diff = run(nsteps) - ref
        errs.append(np.sqrt(float(np.dot(w, np.abs(diff) ** 2))))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


def test_crank_nicolson_spatial_convergence_fourth_order(harmonic):
    # Numerov's compact Laplacian: at one small dt, the error against an
    # n = 1025 reference on nested grids falls ~16x per halving of dx (the
    # 3-point Laplacian's fell 4x); measured 16.20 and 16.11
    point0, dt, nsteps = ClassicalPoint(1.0, 0.0), 1e-3, 500

    def run(n):
        g = Grid(-8.0, 8.0, n)
        psi = gcs_from_model(harmonic, g, point0).psi
        v = RealField(g, potential_value(harmonic, g.points))
        for _ in range(nsteps):
            psi = step(psi, v, dt, scheme="crank-nicolson")
        return g, psi.values

    _, ref = run(1025)
    errs = []
    for n in (65, 129, 257):
        g, vals = run(n)
        diff = vals - ref[::1024 // (n - 1)]
        errs.append(np.sqrt(float(np.dot(quadrature_weights(g), np.abs(diff) ** 2))))
    assert errs[0] > 1e-5  # well above the reference's own error
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_crank_nicolson_unitarity_long_run(harmonic):
    g = Grid(-12.0, 12.0, 512)
    psi = gcs_from_model(harmonic, g, ClassicalPoint(1.0, 0.0)).psi
    v = RealField(g, potential_value(harmonic, g.points))
    w = quadrature_weights(g)
    for _ in range(10000):
        psi = step(psi, v, 2e-3, scheme="crank-nicolson")
    drift = abs(float(np.dot(w, np.abs(psi.values) ** 2)) - 1.0)
    assert drift < 1e-10


@pytest.fixture(scope="module")
def morse_run_grid(morse):
    return suggest_grid(morse, q_reach_min=-1.0, q_reach_max=1.0, n=2048)


def test_feedback_fixed_point_keeps_density_frozen(morse, morse_run_grid):
    # quick run: the density freeze is already at its floor, while the
    # center-mean wobble is second order in dt (the strict bound is checked
    # in the slow variant below)
    period = classical_period(morse, 0.0)
    conf = PropagatorConfig(dt=period / 2000, scheme="split-step", mode="feedback",
                            snapshot_stride=100)
    run = evolve_feedback(morse, ClassicalPoint(0.0, 0.0), conf, period,
                          morse_run_grid)
    info = ground_moments(morse, morse_run_grid)
    for rec in run.records:
        assert 1.0 - rec.overlap < 1e-8
        assert rec.q_mean == pytest.approx(info.q0, abs=5e-6)
    assert np.all(run.trajectory.q == 0.0) and np.all(run.trajectory.p == 0.0)


def test_feedback_fixed_point_mean_pinned(morse, morse_run_grid):
    # fine step: the measured mean sits on the ground mean to 1e-8
    period = classical_period(morse, 0.0)
    conf = PropagatorConfig(dt=period / 40000, scheme="split-step",
                            mode="feedback", snapshot_stride=2000)
    run = evolve_feedback(morse, ClassicalPoint(0.0, 0.0), conf, period,
                          morse_run_grid)
    info = ground_moments(morse, morse_run_grid)
    assert max(abs(r.q_mean - info.q0) for r in run.records) < 1e-8


def test_feedback_harmonic_matches_glauber(harmonic):
    # oracle: Glauber coherent state, density is the rigidly oscillating
    # ground Gaussian rho0(x - Q0 cos wt)
    grid = suggest_grid(harmonic, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    period = 2.0 * np.pi
    conf = PropagatorConfig(dt=period / 16000, scheme="split-step",
                            mode="feedback", snapshot_stride=800)
    run = evolve_feedback(harmonic, ClassicalPoint(1.0, 0.0), conf, period, grid)
    w = quadrature_weights(grid)
    x = grid.points
    dq2_0 = run.records[0].dq2
    for frame in run.frames:
        t = frame.diagnostics.t
        center = np.cos(t)
        ref = np.exp(-((x - center) ** 2))  # variance 1/2 Gaussian density
        ref /= float(np.dot(w, ref))
        rho = np.abs(frame.psi.values) ** 2
        rho /= float(np.dot(w, rho))
        overlap = float(np.dot(w, np.sqrt(rho * ref)))
        assert 1.0 - overlap < 1e-6
        assert abs(frame.diagnostics.dq2 / dq2_0 - 1.0) < 1e-7


def test_harmonic_mode_equivalence(harmonic):
    # feedback and static potentials differ by x-independent terms only
    grid = suggest_grid(harmonic, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    period = 2.0 * np.pi
    conf_fb = PropagatorConfig(dt=period / 2000, scheme="split-step",
                               mode="feedback", snapshot_stride=100)
    conf_st = PropagatorConfig(dt=period / 2000, scheme="split-step",
                               mode="static", snapshot_stride=100)
    point = ClassicalPoint(1.0, 0.0)
    fb = evolve_feedback(harmonic, point, conf_fb, period, grid)
    st0 = gcs_from_model(harmonic, grid, point)
    st = evolve_static(st0, harmonic, conf_st, period)
    for fa, fs in zip(fb.frames, st.frames):
        rho_a = np.abs(fa.psi.values) ** 2
        rho_b = np.abs(fs.psi.values) ** 2
        assert np.max(np.abs(rho_a - rho_b)) < 1e-6


def test_harmonic_static_stays_coherent(harmonic):
    # the harmonic exception: no feedback needed for constant spread
    grid = suggest_grid(harmonic, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    period = 2.0 * np.pi
    conf = PropagatorConfig(dt=period / 16000, scheme="split-step", mode="static",
                            snapshot_stride=800)
    st0 = gcs_from_model(harmonic, grid, ClassicalPoint(1.0, 0.0))
    run = evolve_static(st0, harmonic, conf, period)
    dq2_0 = run.records[0].dq2
    for rec in run.records:
        assert abs(rec.dq2 / dq2_0 - 1.0) < 1e-7


def test_feedback_morse_short_run(morse, morse_run_grid):
    e_cl = 0.2 * morse.well_depth
    p0 = momentum_for_energy(morse, e_cl, 0.0)
    period = classical_period(morse, e_cl)
    conf = PropagatorConfig(dt=period / 2000, scheme="split-step",
                            mode="feedback", snapshot_stride=100)
    run = evolve_feedback(morse, ClassicalPoint(0.0, p0), conf, period,
                          morse_run_grid)
    info = ground_moments(morse, morse_run_grid)
    dq2_0 = run.records[0].dq2
    q_by_t = {round(t, 12): q for t, q in zip(run.trajectory.t.tolist(),
                                              run.trajectory.q.tolist())}
    for rec in run.records:
        assert abs(rec.dq2 / dq2_0 - 1.0) < 1e-4
        assert abs(rec.q_mean - info.q0 - q_by_t[round(rec.t, 12)]) < 1e-4 * morse.dq
        assert abs(rec.norm - 1.0) < 1e-10


def test_static_morse_spreads(morse):
    # displaced packet in the frozen well loses its shape within a few
    # periods; no closed-form value exists, assert the floor
    grid = suggest_grid(morse, q_reach_min=-3.0, q_reach_max=12.0, n=2560)
    e_ref = 0.2 * morse.well_depth
    period = classical_period(morse, e_ref)
    conf = PropagatorConfig(dt=period / 1000, scheme="split-step", mode="static",
                            snapshot_stride=100)
    # one period is plenty: the displaced packet at this energy spreads by
    # 35% of its variance within a fifth of a period, and its fast halo
    # reaches any desk-scale grid edge shortly after one period
    st0 = gcs_from_model(morse, grid, ClassicalPoint(morse.dq, 0.0))
    run = evolve_static(st0, morse, conf, period)
    dq2_0 = run.records[0].dq2
    rel = [abs(r.dq2 / dq2_0 - 1.0) for r in run.records]
    assert max(rel) > 0.05


def test_snapshot_cadence(morse, morse_run_grid):
    conf = PropagatorConfig(dt=1e-3, scheme="crank-nicolson", mode="feedback",
                            snapshot_stride=7)
    run = evolve_feedback(morse, ClassicalPoint(0.0, 0.1), conf, 25e-3,
                          morse_run_grid)
    steps = [int(round(f.diagnostics.t / 1e-3)) for f in run.frames]
    assert steps == [0, 7, 14, 21, 25]  # stride plus the forced final step
    assert len(run.trajectory) == 26


def test_unitarity_alarm_fires(morse, morse_run_grid):
    tol = replace(DEFAULT_TOLERANCES, unitarity_drift=1e-16)
    conf = PropagatorConfig(dt=1e-3, scheme="split-step", mode="feedback")
    with pytest.raises(UnitarityError):
        evolve_feedback(morse, ClassicalPoint(0.0, 0.1), conf, 0.1,
                        morse_run_grid, tol)


def test_coverage_precheck_fails_before_stepping(morse):
    # trajectory reaches beyond what this grid can hold: fail fast
    small = Grid(-2.0, 6.0, 256)
    e_cl = 0.9 * morse.well_depth
    p0 = momentum_for_energy(morse, e_cl, 0.0)
    conf = PropagatorConfig(dt=1e-3, scheme="split-step", mode="feedback")
    with pytest.raises(CoverageError):
        evolve_feedback(morse, ClassicalPoint(0.0, p0), conf, 1.0, small)


def test_unbounded_initial_point_escapes(morse, morse_run_grid):
    conf = PropagatorConfig(dt=1e-3, scheme="split-step", mode="feedback")
    with pytest.raises(EscapeError):
        evolve_feedback(morse, ClassicalPoint(0.0, 10.0), conf, 1.0,
                        morse_run_grid)


def test_monitor_raises_on_nan_at_its_step():
    g = Grid(-5.0, 5.0, 64)
    vals = np.full(g.n, np.nan + 0j)
    with pytest.raises(UnitarityError, match="at step 7$"):
        _monitor(g, DEFAULT_TOLERANCES)(vals, 7)


def _random_state(n, seed):
    g = Grid(-5.0, 5.0, n)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return g, normalized(ComplexField(g, vals)).values.copy()


def _assert_monitor_is_quadrature(nrm, bm, vals, g):
    rho = np.abs(vals) ** 2
    assert abs(nrm - np.dot(quadrature_weights(g), rho)) <= 1e-14
    assert bm == pytest.approx(boundary_mass(rho, g), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [64, 65, 2048, 2049])
def test_monitor_norm_and_edge_mass_match_quadrature(n):
    # trapezoid (even n) and Simpson (odd n) weights, in one product
    g, vals = _random_state(n, n)
    loose = replace(DEFAULT_TOLERANCES, boundary_mass=1.0)
    _assert_monitor_is_quadrature(*_monitor(g, loose)(vals, 1), vals, g)


@pytest.mark.parametrize("where, bad", [(32, np.nan), (2, np.inf)])
def test_monitor_raises_on_a_bad_sample_at_its_step(where, bad):
    # one NaN inside, or one +inf in the edge strip, of a normalized state
    # whose edge mass is within bounds; the norm check comes first, and
    # either sample makes the norm NaN or inf
    g, vals = _random_state(64, 3)
    check = _monitor(g, replace(DEFAULT_TOLERANCES, boundary_mass=1.0))
    check(vals, 4)
    vals[where] = bad
    with pytest.raises(UnitarityError, match=f"at step {where + 5}$"):
        check(vals, where + 5)


def test_monitor_raises_on_edge_mass_at_its_step():
    g, vals = _random_state(64, 4)  # about a sixth of the mass in the strips
    with pytest.raises(CoverageError, match="at step 9 "):
        _monitor(g, DEFAULT_TOLERANCES)(vals, 9)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(16, 2049), st.integers(0, 2**32 - 1), st.data())
def test_monitor_is_quadrature_and_raises_on_any_bad_sample(n, seed, data):
    # one monitor per run, reused at every step: its values are the
    # quadrature norm and boundary_mass of each state it is handed, and a
    # NaN or inf anywhere, real or imaginary part, raises at its step
    g, vals = _random_state(n, seed)
    check = _monitor(g, replace(DEFAULT_TOLERANCES, boundary_mass=10.0,
                                unitarity_drift=10.0))
    _assert_monitor_is_quadrature(*check(vals, 1), vals, g)
    shifted = np.roll(vals, n // 3)
    _assert_monitor_is_quadrature(*check(shifted, 2), shifted, g)
    where = data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    part = data.draw(st.sampled_from(["real", "imag"]))
    setattr(vals[where:where + 1], part, bad)
    # outside the edge strips an inf meets the edge row's zero weights, and
    # numpy warns of inf * 0 (inside a run, _run silences it)
    interior = BOUNDARY_POINTS <= where < n - BOUNDARY_POINTS
    warns = (pytest.warns(RuntimeWarning, match="invalid value encountered in dot")
             if np.isinf(bad) and interior else nullcontext())
    with pytest.raises(UnitarityError, match="at step 3$"), warns:
        check(vals, 3)


def _clamped(model, grid, v_vals):
    return RealField(grid, np.minimum(v_vals, _potential_cap(grid, model.mass,
                                                              model.hbar)))


def _reference_feedback(model, point0, grid, dt, nsteps, scheme):
    # the feedback loop spelled out with public calls: Verlet orbit,
    # potential at the time-centered state of each Verlet step, one step
    traj = integrate_trajectory(model, point0.Q, point0.P, dt, nsteps)
    psi = gcs_from_model(model, grid, point0).psi
    for s in range(1, nsteps + 1):
        a, b = traj.point(s - 1), traj.point(s)
        q_mid = 0.5 * (a.Q + b.Q)
        p_half = a.P + 0.5 * dt * traj.forces[s - 1]
        mid = ClassicalPoint(q_mid, p_half, (s - 0.5) * dt)
        V = assemble_potential(model, mid, classical_force(model, q_mid), grid).V
        psi = step(psi, _clamped(model, grid, V.values), dt, scheme,
                   model.mass, model.hbar)
    return traj, psi.values


@pytest.mark.parametrize("kind, scheme", [("morse", "split-step"),
                                          ("harmonic", "crank-nicolson")])
def test_feedback_loop_matches_public_reference(kind, scheme, request):
    model = request.getfixturevalue(kind)
    grid = suggest_grid(model, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    point0 = ClassicalPoint(0.3, 0.4)
    dt, nsteps = 2e-3, 20
    conf = PropagatorConfig(dt=dt, scheme=scheme, mode="feedback",
                            snapshot_stride=nsteps)
    run = evolve_feedback(model, point0, conf, nsteps * dt, grid)
    traj, ref = _reference_feedback(model, point0, grid, dt, nsteps, scheme)
    for name in ("t", "q", "p"):
        assert np.array_equal(getattr(run.trajectory, name), getattr(traj, name))
    assert np.array_equal(run.trajectory.forces, traj.forces)
    assert np.max(np.abs(run.frames[-1].psi.values - ref)) <= 1e-12


@pytest.mark.parametrize("scheme", ["split-step", "crank-nicolson"])
def test_static_loop_matches_repeated_step(morse, scheme):
    # static mode prepares its operand once (and Crank-Nicolson factors it
    # once); every frame must still be the public step() loop's, bit for bit
    grid = suggest_grid(morse, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    dt, nsteps = 2e-3, 20
    state0 = gcs_from_model(morse, grid, ClassicalPoint(morse.dq, 0.0))
    conf = PropagatorConfig(dt=dt, scheme=scheme, mode="static")
    run = evolve_static(state0, morse, conf, nsteps * dt)
    V = _clamped(morse, grid, potential_value(morse, grid.points))
    psi = state0.psi
    assert len(run.frames) == nsteps + 1
    for frame in run.frames:
        assert np.array_equal(frame.psi.values, psi.values)
        psi = step(psi, V, dt, scheme)


def test_orbit_coverage_fails_before_any_step(harmonic, monkeypatch):
    # A coarse Verlet step overshoots the exact turning points (+-2 here):
    # the orbit reaches |Q| = 2.8. The small grid holds the packet at the
    # turning points but not at the orbit's actual extreme, so the run must
    # stop before its first quantum step; the wide grid holds both.
    point0, dt, nsteps = ClassicalPoint(0.0, 2.0), 1.4, 20
    q_far = np.max(np.abs(integrate_trajectory(harmonic, 0.0, 2.0, dt, nsteps).q))
    assert q_far > 2.7
    small, wide = Grid(-6.5, 6.5, 512), Grid(-8.0, 8.0, 512)
    gcs_from_model(harmonic, small, ClassicalPoint(2.0, 0.0))
    gcs_from_model(harmonic, small, ClassicalPoint(-2.0, 0.0))
    with pytest.raises(CoverageError):
        gcs_from_model(harmonic, small, ClassicalPoint(q_far, 0.0))

    calls = []
    kernels = propagation._STEPPERS["crank-nicolson"]

    def counted(advance):
        def counting_advance(vals, operand):
            calls.append(1)
            return advance(vals, operand)

        return counting_advance

    def counting(*args):
        # step solves on both paths: the block loop's advance and the
        # advance of a run with one operand
        kernel = kernels(*args)
        return kernel._replace(
            advance=counted(kernel.advance),
            fixed=lambda operand: counted(kernel.fixed(operand)))

    monkeypatch.setitem(propagation._STEPPERS, "crank-nicolson", counting)
    conf = PropagatorConfig(dt=dt, scheme="crank-nicolson", mode="feedback",
                            snapshot_stride=nsteps)
    with pytest.raises(CoverageError, match="classical trajectory"):
        evolve_feedback(harmonic, point0, conf, nsteps * dt, small)
    assert calls == []
    evolve_feedback(harmonic, point0, conf, nsteps * dt, wide)
    assert len(calls) == nsteps


def test_static_frame_anchor_is_the_moments_of_the_normalized_state(morse):
    # the static frame measures its state once for the anchor and for
    # record; the anchor must still be moments(normalized(psi)), bit for bit
    grid = suggest_grid(morse, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    state0 = gcs_from_model(morse, grid, ClassicalPoint(morse.dq, 0.3))
    q0 = ground_moments(morse, grid).q0
    conf = PropagatorConfig(dt=2e-3, scheme="split-step", mode="static",
                            snapshot_stride=5)
    run = evolve_static(state0, morse, conf, 20 * 2e-3)
    for frame in run.frames:
        x_mean, _, p_mean = moments(normalized(frame.psi), morse.hbar)
        assert (frame.point.Q, frame.point.P) == (x_mean - q0, p_mean)
        assert frame.diagnostics.q_mean == x_mean
        assert frame.diagnostics.p_mean == p_mean


def test_static_reference_momentum_uses_sixth_order_stencil(morse):
    # at t = 0 the static state is an exact displaced ground state, so its
    # phase-equation residual sits at the feedback-mode floor only if the
    # measured <p> is as accurate as record's (second-order np.gradient
    # left 3e-5 here)
    grid = suggest_grid(morse, q_reach_min=-1.5, q_reach_max=1.5, n=2048)
    state0 = gcs_from_model(morse, grid, ClassicalPoint(0.0, 0.45))
    conf = PropagatorConfig(dt=1e-3, scheme="split-step", mode="static")
    run = evolve_static(state0, morse, conf, 1e-3)
    assert run.records[0].hjm_residual < 1e-6


# The two kernels' Cayley forms, checked against their definitions over
# random potentials up to the kinetic ceiling (the loops clamp V there),
# each mapped into its kernel's operand units by _in_units, as step() does.
_KERNEL_GRID = Grid(-4.0, 4.0, 256)
_CAP = _potential_cap(_KERNEL_GRID, 1.0, 1.0)
# the step at which |a| = V dt / 2 hbar reaches 4 pi at the cap, as on the
# shipped morse_feedback grid
_DT_4PI = 8.0 * np.pi / _CAP


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, 224, elements=st.floats(0.0, _CAP)),
       hnp.arrays(np.float64, 32, elements=st.floats(-1e-12, 1e-12)))
def test_split_step_phase_is_exp_of_its_angle(v_random, offsets):
    # the last 32 angles lie within 1e-12 of -pi or -3 pi, where tan(a/2) is
    # huge
    g, dt = _KERNEL_GRID, _DT_4PI
    odd_pi = np.pi * np.resize([1.0, 3.0], offsets.size) + offsets
    v = np.concatenate([v_random, odd_pi * 2.0 / dt])
    kernel = propagation._split_step(g.n, g.dx, dt, 1.0, 1.0)
    half = kernel.prepare(_in_units(kernel, v))
    a = v * (-0.5 * dt) / 1.0  # hbar = 1
    assert np.max(np.abs(half - np.exp(1j * a))) <= 1e-15
    assert np.max(np.abs(np.abs(half) - 1.0)) <= 1e-15


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, _KERNEL_GRID.n,
                  elements=st.one_of(st.just(_CAP), st.floats(-_CAP, _CAP))),
       st.floats(1e-4, 1.0), st.integers(0, 2**32 - 1))
def test_crank_nicolson_step_solves_its_cayley_system(v, dt_scale, seed):
    # (1 + i theta H) psi' = (1 - i theta H) psi with H = M^-1 T + V the
    # Numerov Dirichlet Hamiltonian, M = 1 + d2/12 and T = -d2/(2 dx^2) on
    # the second difference d2, checked times M (M + i theta (T + M V), no
    # inverse), to round-off, and |psi'| = |psi|
    g, dt = _KERNEL_GRID, dt_scale * _DT_4PI
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    vals /= np.linalg.norm(vals)
    out = step(ComplexField(g, vals), RealField(g, v), dt, "crank-nicolson").values

    def d2(f):
        lap = -2.0 * f
        lap[1:] += f[:-1]
        lap[:-1] += f[1:]
        return lap

    def m(f):
        return f + d2(f) / 12.0

    def mh(f):  # M H f = T f + M (V f)
        return -0.5 * d2(f) / g.dx**2 + m(v * f)

    theta = 0.5 * dt
    residual = (m(out) + 1j * theta * mh(out)) - (m(vals) - 1j * theta * mh(vals))
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(vals)
    assert abs(np.linalg.norm(out) ** 2 - 1.0) <= 1e-13


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, (propagation.OPERAND_BLOCK, _KERNEL_GRID.n),
                  elements=st.floats(-_CAP, _CAP)))
@pytest.mark.parametrize("scheme", propagation.SCHEMES)
def test_block_prepare_matches_row_by_row(scheme, v):
    # the feedback loop prepares OPERAND_BLOCK potentials in one pass; each
    # row must be the operand of that potential alone, bit for bit
    g, dt = _KERNEL_GRID, _DT_4PI
    kernels = propagation._STEPPERS[scheme]
    block_kernel = kernels(g.n, g.dx, dt, 1.0, 1.0, len(v))
    row_kernel = kernels(g.n, g.dx, dt, 1.0, 1.0)
    block = block_kernel.prepare(_in_units(block_kernel, v))
    rows = np.array([row_kernel.prepare(_in_units(row_kernel, row)).copy()
                     for row in v])
    assert block.shape == rows.shape
    assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, _KERNEL_GRID.n + 1,
                  elements=st.one_of(st.just(_CAP), st.floats(-_CAP, _CAP))),
       st.sampled_from([1e-4, 1e-2, 0.3, 1.0]), st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("scheme", propagation.SCHEMES)
@pytest.mark.parametrize("n", [_KERNEL_GRID.n, _KERNEL_GRID.n + 1])
def test_fixed_operand_advance_matches_advance(scheme, n, v, dt_scale, seed):
    # a run with one operand factors it once (Crank-Nicolson: zgttrf, then
    # zgttrs per step); each step must equal advance's (zgtsv) bit for bit
    g = Grid(_KERNEL_GRID.x_min, _KERNEL_GRID.x_max, n)
    dt = dt_scale * _DT_4PI
    kernel = propagation._STEPPERS[scheme](g.n, g.dx, dt, 1.0, 1.0)
    operand = kernel.prepare(_in_units(kernel, v[:n]))
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    fixed = kernel.fixed(operand)
    for _ in range(2):  # the factors are reused, not consumed
        want = kernel.advance(vals.copy(), operand)
        got = fixed(vals.copy(), operand)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        vals = want


@pytest.mark.parametrize("n", [5, 257])
def test_crank_nicolson_raises_on_a_singular_system(n):
    # no real potential makes the Numerov matrix A = 6 M (1 + i theta H)
    # singular (M is positive definite, H symmetric), so the operand (bands,
    # diagonal) is built by hand: a zero diagonal between unit bands is
    # singular for odd n; both the per-step solve and the factor-once path
    # must raise, not step
    kernel = propagation._crank_nicolson(n, 0.1, 0.01, 1.0, 1.0)
    singular = np.array([np.ones(n), np.zeros(n)], dtype=complex)
    assert singular.shape == kernel.prepare(_in_units(kernel, np.zeros(n))).shape
    with pytest.raises(PropagationError, match="zgtsv info"):
        kernel.advance(np.ones(n, dtype=complex), singular)
    with pytest.raises(PropagationError, match="zgttrf info"):
        kernel.fixed(singular)


@pytest.mark.parametrize("kind, factorizations", [("harmonic", 1), ("morse", 0)])
def test_crank_nicolson_feedback_factors_only_a_constant_potential(
        kind, factorizations, request, monkeypatch):
    # the harmonic feedback potential is the fixed well at every step, so
    # its run factors once; a Morse run's potential moves and is solved by
    # zgtsv step by step
    model = request.getfixturevalue(kind)
    grid = suggest_grid(model, q_reach_min=-1.5, q_reach_max=1.5, n=512)
    zgtsv, zgttrf, zgttrs = propagation._lapack()
    calls = []

    def counting_zgttrf(*args):
        calls.append(1)
        return zgttrf(*args)

    monkeypatch.setattr(propagation, "_lapack",
                        lambda: (zgtsv, counting_zgttrf, zgttrs))
    dt, nsteps = 2e-3, 20
    conf = PropagatorConfig(dt=dt, scheme="crank-nicolson", mode="feedback",
                            snapshot_stride=nsteps)
    evolve_feedback(model, ClassicalPoint(0.3, 0.4), conf, nsteps * dt, grid)
    assert len(calls) == factorizations


def test_crank_nicolson_morse_feedback_agrees_with_split_step(morse):
    # a Morse feedback run's potential moves every step, so Crank-Nicolson
    # solves it by zgtsv step by step (no shipped config or benchmark run
    # does); on morse_feedback's wide grid, where no tail is cut, it must
    # follow the spectral split-step run. Measured max |dpsi| 2.6e-7 and
    # max |d dq2| 2.7e-8 over the frames (dt^2 and Numerov dx^4 error; at
    # dt = 2e-3 they read 6.6e-7 and 1.8e-7)
    grid = Grid(-9.0, 40.0, 768)
    dt, nsteps = 1e-3, 400
    runs = [evolve_feedback(morse, ClassicalPoint(0.3, 0.4),
                            PropagatorConfig(dt=dt, scheme=scheme, mode="feedback",
                                             snapshot_stride=100),
                            nsteps * dt, grid)
            for scheme in ("crank-nicolson", "split-step")]
    pairs = list(zip(*(run.frames for run in runs)))
    assert len(pairs) == 5
    for cn, ss in pairs:
        assert np.max(np.abs(cn.psi.values - ss.psi.values)) <= 5e-7
        assert abs(cn.diagnostics.dq2 - ss.diagnostics.dq2) <= 1e-7


@pytest.mark.parametrize("kind, scheme", [("morse", "split-step"),
                                          ("harmonic", "crank-nicolson")])
def test_feedback_frames_do_not_depend_on_the_block_size(kind, scheme,
                                                         request, monkeypatch):
    # two full blocks and a partial one, against one step per block; the
    # harmonic feedback potential is the same at every step, so only the
    # Morse run would see operands taken out of order (the harmonic run is
    # kept off its one-operand path here)
    monkeypatch.setattr(propagation, "_is_constant", lambda table: False)
    model = request.getfixturevalue(kind)
    grid = suggest_grid(model, q_reach_min=-1.5, q_reach_max=1.5, n=512)
    nsteps = 2 * propagation.OPERAND_BLOCK + 3
    dt = 2e-3
    conf = PropagatorConfig(dt=dt, scheme=scheme, mode="feedback")
    point0 = ClassicalPoint(0.3, 0.4)
    blocked = evolve_feedback(model, point0, conf, nsteps * dt, grid)
    monkeypatch.setattr(propagation, "OPERAND_BLOCK", 1)
    single = evolve_feedback(model, point0, conf, nsteps * dt, grid)
    assert len(blocked.frames) == len(single.frames) == nsteps + 1
    for a, b in zip(blocked.frames, single.frames):
        assert np.array_equal(a.psi.values, b.psi.values)
        assert np.array_equal(a.V.values, b.V.values)
        assert a.point == b.point
        assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("scheme", propagation.SCHEMES)
def test_constant_feedback_run_matches_the_block_path(harmonic, scheme,
                                                      monkeypatch):
    # the harmonic feedback run takes one operand for all steps; built
    # block by block instead, every frame must be the same, bit for bit
    grid = suggest_grid(harmonic, q_reach_min=-1.5, q_reach_max=1.5, n=512)
    dt, nsteps = 2e-3, 2 * propagation.OPERAND_BLOCK + 3
    conf = PropagatorConfig(dt=dt, scheme=scheme, mode="feedback",
                            snapshot_stride=4)
    point0 = ClassicalPoint(0.3, 0.4)
    constant = evolve_feedback(harmonic, point0, conf, nsteps * dt, grid)
    monkeypatch.setattr(propagation, "_is_constant", lambda table: False)
    blocked = evolve_feedback(harmonic, point0, conf, nsteps * dt, grid)
    assert len(constant.frames) == len(blocked.frames) == 6  # 0, 4, ..., 16, 19
    for a, b in zip(constant.frames, blocked.frames):
        assert np.array_equal(a.psi.values, b.psi.values)
        assert np.array_equal(a.V.values, b.V.values)
        assert a.diagnostics == b.diagnostics


def _public_lapack():
    from scipy.linalg import lapack

    return lapack.zgtsv, lapack.zgttrf, lapack.zgttrs


@pytest.fixture
def fresh_lapack():
    """_lapack's cache emptied before the test and after it."""
    propagation._lapack.cache_clear()
    yield
    propagation._lapack.cache_clear()


@pytest.mark.parametrize("kind", ["morse", "harmonic"])
def test_loaded_lapack_matches_scipy_linalg_lapack(kind, request, monkeypatch):
    # _lapack loads scipy's _flapack extension beside the scipy package. A
    # Morse feedback run solves through its zgtsv step by step, a harmonic
    # one through zgttrs on zgttrf's factors; each must give the frames of
    # the routines the public scipy.linalg.lapack exposes, bit for bit
    assert propagation._lapack() == _public_lapack()
    model = request.getfixturevalue(kind)
    grid = suggest_grid(model, q_reach_min=-1.5, q_reach_max=1.5, n=512)
    dt, nsteps = 2e-3, 2 * propagation.OPERAND_BLOCK + 3
    conf = PropagatorConfig(dt=dt, scheme="crank-nicolson", mode="feedback",
                            snapshot_stride=4)
    point0 = ClassicalPoint(0.3, 0.4)
    loaded = evolve_feedback(model, point0, conf, nsteps * dt, grid)
    monkeypatch.setattr(propagation, "_lapack", _public_lapack)
    public = evolve_feedback(model, point0, conf, nsteps * dt, grid)
    assert len(loaded.frames) == len(public.frames) == 6
    for a, b in zip(loaded.frames, public.frames):
        assert np.array_equal(a.psi.values.view(np.uint64),
                              b.psi.values.view(np.uint64))
        assert a.diagnostics == b.diagnostics


def _crank_nicolson_step(harmonic, harmonic_grid):
    """One Crank-Nicolson step of the harmonic ground state, as raw bits."""
    psi = ground_state(harmonic, harmonic_grid)
    V = RealField(harmonic_grid, 0.5 * harmonic_grid.points**2)
    return step(psi, V, 1e-2, "crank-nicolson").values.view(np.uint64)


def _spying_module_from_spec(monkeypatch, fail=False):
    """propagation.module_from_spec, recording the spec of every direct load
    and, with fail, raising ImportError as a DLL that does not load does."""
    loads = []

    def spy(spec):
        loads.append(spec.name)
        if fail:
            raise ImportError("DLL load failed while importing _flapack")
        return module_from_spec(spec)

    monkeypatch.setattr(propagation, "module_from_spec", spy)
    return loads


def test_lapack_without_flapack_file_takes_the_public_import(
        harmonic, harmonic_grid, tmp_path, monkeypatch, fresh_lapack):
    # an install with no _flapack file beside the scipy package (an editable
    # one, say) falls back to scipy.linalg.lapack, with the same steps; the
    # install layout is faked where _lapack reads it, in scipy's spec
    want = _crank_nicolson_step(harmonic, harmonic_grid)
    propagation._lapack.cache_clear()
    scipy_here = ModuleSpec("scipy", None, is_package=True)
    scipy_here.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(propagation, "find_spec",
                        lambda name: scipy_here if name == "scipy" else None)
    loads = _spying_module_from_spec(monkeypatch)
    assert propagation._lapack() == _public_lapack()
    assert loads == []  # no file, so no direct load was tried
    got = _crank_nicolson_step(harmonic, harmonic_grid)
    assert np.array_equal(got, want)


def test_lapack_whose_direct_load_fails_takes_the_public_import(
        harmonic, harmonic_grid, monkeypatch, fresh_lapack):
    # a _flapack file that does not load without scipy's start-up (which
    # may set the DLL search path) falls back to scipy.linalg.lapack, with
    # the same steps
    want = _crank_nicolson_step(harmonic, harmonic_grid)
    propagation._lapack.cache_clear()
    loads = _spying_module_from_spec(monkeypatch, fail=True)
    assert propagation._lapack() == _public_lapack()
    assert loads == ["scipy.linalg._flapack"]
    got = _crank_nicolson_step(harmonic, harmonic_grid)
    assert np.array_equal(got, want)


def test_crank_nicolson_without_scipy_names_split_step(monkeypatch,
                                                       fresh_lapack):
    # find_spec finds no scipy package, and any scipy import fails
    monkeypatch.setattr(propagation, "find_spec", lambda name: None)
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(PropagationError, match="use scheme 'split-step'"):
        PropagatorConfig(dt=1e-3, scheme="crank-nicolson")
    PropagatorConfig(dt=1e-3, scheme="split-step")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(1, 40), st.sampled_from([97, 256, 768, 1021, 1024])),
       st.data())
def test_split_step_advance_is_its_strang_product(n, data):
    # n even, odd and prime (1 included): the step through the pocketfft
    # gufuncs is the numpy.fft expression of the Strang step, bit for bit
    dx, dt = 8.0 / n, 0.3 * _DT_4PI
    kernel = propagation._split_step(n, dx, dt, 1.0, 1.0)
    v = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-_CAP, _CAP)))
    half = kernel.prepare(_in_units(kernel, v))
    parts = st.floats(-1e3, 1e3)
    vals = (data.draw(hnp.arrays(np.float64, n, elements=parts))
            + 1j * data.draw(hnp.arrays(np.float64, n, elements=parts)))
    kin = propagation._kinetic_phase(n, dx, dt, 1.0, 1.0)
    want = half * np.fft.ifft(kin * np.fft.fft(half * vals))
    got = kernel.advance(vals.copy(), half)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("stand_in", ["no module", "no gufuncs", "other signature"])
def test_split_step_without_pocketfft_gufuncs_is_an_error(stand_in, monkeypatch):
    # numpy.fft._pocketfft_umath is private: a numpy without its fft and ifft
    # gufuncs, or with others in their place, stops a split-step run with a
    # named error rather than stepping with something else
    from types import SimpleNamespace

    monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", {
        "no module": None,
        "no gufuncs": SimpleNamespace(),
        "other signature": SimpleNamespace(fft=np.add, ifft=np.add),
    }[stand_in])
    with pytest.raises(PropagationError, match="numpy.fft._pocketfft_umath"):
        propagation._split_step(64, 0.1, 1e-3, 1.0, 1.0)
