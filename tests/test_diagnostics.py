import math

import numpy as np
import pytest

from gcsdyn import (
    ClassicalPoint,
    ComplexField,
    DiagnosticsError,
    Grid,
    InvalidFieldError,
    RealField,
    assemble_potential,
    classical_force,
    classical_period,
    evolve_feedback,
    evolve_static,
    gcs_from_model,
    ground_density_values,
    ground_moments,
    ground_state,
    integrate,
    potential_gradient,
    record,
    suggest_grid,
)
from gcsdyn import PropagatorConfig
from gcsdyn.diagnostics import potential_slope_at
from gcsdyn.grids import _derivative_arrays, _quintic_weights


def _unit_density(model, grid, q=0.0):
    rho = ground_density_values(model, grid.points - q)
    return RealField(grid, rho / integrate(RealField(grid, rho)))


def _overlap(rho, model, q):
    # record's overlap column for the state sqrt(rho), measured against
    # the ground density translated by q
    point = ClassicalPoint(q, 0.0)
    V = assemble_potential(model, point, 0.0, rho.grid).V
    psi = ComplexField(rho.grid, np.sqrt(rho.values))
    return record(psi, model, point, V, 0.0).overlap


def test_overlap_identity(morse, morse_grid):
    rho = _unit_density(morse, morse_grid)
    assert _overlap(rho, morse, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_overlap_translated_reference(morse, morse_grid):
    for q in (0.5, -1.0, 2.0):
        rho = _unit_density(morse, morse_grid, q)
        assert _overlap(rho, morse, q) == pytest.approx(1.0, abs=1e-10)


def test_overlap_gaussian_width_mismatch(harmonic, harmonic_grid):
    # oracle: Bhattacharyya of two centered Gaussians with variances v and
    # 2v is (8/9)^(1/4)
    v = 0.5  # ground variance hbar/2m omega
    x = harmonic_grid.points
    wide = np.exp(-x * x / (2.0 * (2.0 * v)))
    rho = RealField(harmonic_grid, wide / integrate(RealField(harmonic_grid, wide)))
    got = _overlap(rho, harmonic, 0.0)
    assert got == pytest.approx((8.0 / 9.0) ** 0.25, abs=1e-10)


def test_overlap_bounded(morse, morse_grid):
    rho = _unit_density(morse, morse_grid, 1.0)
    val = _overlap(rho, morse, -1.0)
    assert 0.0 <= val <= 1.0 + 1e-12
    assert val < 0.9  # two spreads apart


def test_overlap_grid_refinement_invariance(morse):
    # same physical density sampled on two grids once boundary mass is tiny
    vals = []
    for n in (2048, 3072):
        grid = suggest_grid(morse, q_reach_min=-2.0, q_reach_max=2.0, n=n)
        x = grid.points
        wide = ground_density_values(morse, (x - 0.4) / 1.1) / 1.1  # stretched
        rho = RealField(grid, wide / integrate(RealField(grid, wide)))
        vals.append(_overlap(rho, morse, 0.4))
    assert abs(vals[0] - vals[1]) < 1e-8


def _spline_slope(v, x_c, width):
    # the former evaluation: a global quintic spline through the stencil
    # derivative over the whole window
    from scipy.interpolate import make_interp_spline

    x = v.grid.points
    dv = _derivative_arrays(v.values, v.grid.dx, 1)
    win = np.abs(x - x_c) <= max(4.0 * width, 8.0 * v.grid.dx)
    return float(make_interp_spline(x[win], dv[win], k=5)(x_c))


@pytest.mark.parametrize("kind", ["morse", "harmonic"])
def test_slope_matches_spline_and_analytic(kind, request):
    model = request.getfixturevalue(kind)
    grid = request.getfixturevalue(f"{kind}_grid")
    rng = np.random.default_rng(7)
    for _ in range(40):
        q, p = rng.uniform(-1.5, 1.5, 2) * model.dq
        dpdt = float(classical_force(model, q))
        snap = assemble_potential(model, ClassicalPoint(q, p), dpdt, grid)
        x_c = q + rng.uniform(-1.0, 1.0) * model.dq
        exact = float(potential_gradient(model, x_c - q)) - dpdt
        got = potential_slope_at(snap.V, x_c)
        ref = _spline_slope(snap.V, x_c, model.dq)
        assert abs(got - ref) < 1e-8
        assert abs(got - exact) < 1e-5
        assert abs(ref - exact) < 1e-5


def test_slope_rejects_point_off_the_grid(morse, morse_grid):
    v = RealField(morse_grid, morse_grid.points**2)
    with pytest.raises(DiagnosticsError):
        potential_slope_at(v, morse_grid.x_max + 1.0)
    # near an edge the nodes shift inward; a parabola's slope stays exact
    x_c = morse_grid.x_min + 0.3 * morse_grid.dx
    assert potential_slope_at(v, x_c) == pytest.approx(2.0 * x_c, abs=1e-9)



def test_slope_rejects_a_point_one_spread_past_the_grid_edge(morse):
    # morse_feedback's grid; the former window rule, max(4 dq, 8 dx), took a
    # point up to about 4 dq past an edge and extrapolated its slope
    g = Grid(-9.0, 40.0, 768)
    v = RealField(g, g.points**2)
    for x_c in (g.x_max + morse.dq, g.x_min - morse.dq, math.nan):
        with pytest.raises(DiagnosticsError):
            potential_slope_at(v, x_c)
    for x_c in (g.x_min, g.x_max):
        assert potential_slope_at(v, x_c) == pytest.approx(2.0 * x_c, abs=1e-8)

def test_quintic_weights_closed_form():
    # against the product-of-ratios Lagrange form, also next to the nodes
    # where some weights nearly vanish, and the exact indicator on a node
    rng = np.random.default_rng(11)
    near = np.arange(6.0)[:, None] + np.array([-1e-12, 1e-12, -1e-7, 1e-7])
    for t in np.concatenate([rng.uniform(-0.5, 5.5, 2000), near.ravel()]):
        want = np.array([math.prod((t - m) / (k - m) for m in range(6) if m != k)
                         for k in range(6)])
        assert np.all(np.abs(_quintic_weights(t) - want) <= 1e-13 * np.abs(want))
    for k in range(6):
        assert np.array_equal(_quintic_weights(float(k)), np.eye(6)[k])


def test_slope_on_a_node_is_its_stencil_sample():
    g = Grid(-4.0, 4.0, 257)  # dx = 1/32: every node offset is exact
    v = RealField(g, g.points**2 * np.sin(g.points))
    dv = _derivative_arrays(v.values, g.dx, 1)
    for j in (0, 1, 3, 128, 254, 256):
        assert potential_slope_at(v, g.points[j]) == dv[j]


def test_record_static_ground_state(morse):
    # stationary state at rest: unit overlap, ground spread, zero residuals;
    # on this grid the 7-point stencils read both residuals at ~1e-11, far
    # under the 1e-8 floor
    grid = suggest_grid(morse, n=4096)
    info = ground_moments(morse, grid)
    psi0 = ground_state(morse, grid)
    psi = ComplexField(grid, psi0.values.astype(complex))
    for t in (0.0, 1.7):
        pt = ClassicalPoint(0.0, 0.0, t)
        snap = assemble_potential(morse, pt, 0.0, grid)
        rec = record(psi, morse, pt, snap.V, 0.0)
        assert rec.overlap == pytest.approx(1.0, abs=1e-12)
        assert rec.dq2 == pytest.approx(info.dq2, rel=1e-10)
        assert rec.ehrenfest_residual < 1e-8
        assert rec.hjm_residual < 1e-8
        assert rec.norm == pytest.approx(1.0, abs=1e-8)
        assert rec.l2_distance < 1e-12


def test_record_gcs_at_label_point(morse, morse_grid):
    q, p = 0.8, 0.5
    st = gcs_from_model(morse, morse_grid, ClassicalPoint(q, p))
    dpdt = float(classical_force(morse, q))
    snap = assemble_potential(morse, st.point, dpdt, morse_grid)
    rec = record(st.psi, morse, st.point, snap.V, dpdt)
    info = ground_moments(morse, morse_grid)
    assert rec.overlap == pytest.approx(1.0, abs=1e-10)
    assert rec.q_mean == pytest.approx(info.q0 + q, abs=1e-8)
    assert rec.p_mean == pytest.approx(p, abs=1e-8)
    assert rec.hjm_residual < 1e-6
    assert rec.ehrenfest_residual < 1e-6


def test_record_rejects_mismatched_inputs(morse, morse_grid, harmonic_grid):
    psi0 = ground_state(morse, morse_grid)
    psi = ComplexField(morse_grid, psi0.values.astype(complex))
    pt = ClassicalPoint(0.0, 0.0, 0.0)
    other = RealField(harmonic_grid, np.zeros(harmonic_grid.n))
    with pytest.raises(DiagnosticsError):
        record(psi, morse, pt, other, 0.0)


def test_record_rejects_a_zero_state(morse, morse_grid):
    psi = ComplexField(morse_grid, np.zeros(morse_grid.n))
    V = RealField(morse_grid, np.zeros(morse_grid.n))
    with pytest.raises(InvalidFieldError, match="norm 0 "):
        record(psi, morse, ClassicalPoint(0.0, 0.0, 0.0), V, 0.0)


def test_feedback_run_tracks_trajectory(morse):
    grid = suggest_grid(morse, q_reach_min=-1.0, q_reach_max=1.0, n=2048)
    e_cl = 0.2 * morse.well_depth
    p0 = math.sqrt(2.0 * morse.mass * e_cl)
    period = classical_period(morse, e_cl)
    conf = PropagatorConfig(dt=period / 2000, scheme="split-step",
                            mode="feedback", snapshot_stride=500)
    run = evolve_feedback(morse, ClassicalPoint(0.0, p0), conf, period, grid)
    info = ground_moments(morse, grid)
    mid = len(run.steps) // 2
    assert abs(
        run.records[mid].q_mean - info.q0 - run.trajectory.q[run.steps[mid]]
    ) < 1e-4 * morse.dq


def test_static_run_shows_degradation(morse):
    # twin comparison: static overlap after one period falls well below the
    # feedback run's, far beyond 10x its worst deviation
    grid = suggest_grid(morse, q_reach_min=-3.0, q_reach_max=12.0, n=2560)
    e_cl = 0.2 * morse.well_depth
    p0 = math.sqrt(2.0 * morse.mass * e_cl)
    period = classical_period(morse, e_cl)
    conf_fb = PropagatorConfig(dt=period / 1000, scheme="split-step",
                               mode="feedback", snapshot_stride=250)
    conf_st = PropagatorConfig(dt=period / 1000, scheme="split-step",
                               mode="static", snapshot_stride=250)
    point = ClassicalPoint(0.0, p0)
    fb = evolve_feedback(morse, point, conf_fb, period, grid)
    st = evolve_static(gcs_from_model(morse, grid, point), morse, conf_st, period)
    worst_fb = max(1.0 - r.overlap for r in fb.records)
    worst_st = max(1.0 - r.overlap for r in st.records)
    assert st.records[-1].overlap < 1.0 - 1e-3  # spreading detected
    assert worst_st > 10.0 * worst_fb