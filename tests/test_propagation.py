import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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
    ground_energy,
    ground_moments,
    ground_state,
    moments,
    normalized,
    potential_value,
    quadrature_weights,
    record,
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
from gcsdyn.config import load_config
from gcsdyn.tolerances import DEFAULT_TOLERANCES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


@pytest.mark.parametrize("given", propagation.MODES)
def test_run_result_names_the_mode_that_ran(morse, morse_run_grid, given):
    # each evolve_* stores its own mode, whatever mode its config named;
    # RunResult.potential reads it to give each snapshot's V
    conf = PropagatorConfig(dt=1e-3, mode=given, snapshot_stride=5)
    pt = ClassicalPoint(0.0, 0.1)
    fb = evolve_feedback(morse, pt, conf, 5e-3, morse_run_grid)
    st = evolve_static(gcs_from_model(morse, morse_run_grid, pt), morse, conf, 5e-3)
    assert (fb.config.mode, st.config.mode) == ("feedback", "static")
    assert fb.config == replace(conf, mode="feedback")


def test_step_grid_mismatch():
    g1 = Grid(-5.0, 5.0, 64)
    g2 = Grid(-5.0, 5.0, 128)
    psi = _free_gaussian(g1, 1.0)
    v = RealField(g2, np.zeros(g2.n))
    with pytest.raises(PropagationError):
        step(psi, v, 1e-3)


@pytest.mark.parametrize("dt, m, hbar", [
    (0.0, 1.0, 1.0), (-1e-3, 1.0, 1.0), (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
    (1e-3, 0.0, 1.0), (1e-3, -1.0, 1.0), (1e-3, math.inf, 1.0), (1e-3, math.nan, 1.0),
    (1e-3, 1.0, 0.0), (1e-3, 1.0, -1.0), (1e-3, 1.0, math.inf), (1e-3, 1.0, math.nan),
])
def test_step_refuses_what_the_run_refuses(dt, m, hbar):
    # a dt that PropagatorConfig refuses, or a mass or hbar that is not
    # positive and finite, is a PropagationError before any numpy operation
    # (no ZeroDivisionError, and no RuntimeWarning, which the suite makes an
    # error, on the way to a non-finite field)
    g = Grid(-5.0, 5.0, 64)
    psi = _free_gaussian(g, 1.0)
    v = RealField(g, np.zeros(g.n))
    with pytest.raises(PropagationError, match="positive and finite"):
        step(psi, v, dt, "split-step", m, hbar)


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


@pytest.mark.parametrize("scheme", propagation.SCHEMES)
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
    seen = []
    run = evolve_feedback(harmonic, ClassicalPoint(1.0, 0.0), conf, period, grid,
                          sink=lambda *snap: seen.append(snap))
    w = quadrature_weights(grid)
    x = grid.points
    dq2_0 = run.records[0].dq2
    assert len(seen) == len(run.records)
    for (_, psi, _), rec in zip(seen, run.records):
        center = np.cos(rec.t)
        ref = np.exp(-((x - center) ** 2))  # variance 1/2 Gaussian density
        ref /= float(np.dot(w, ref))
        rho = np.abs(psi.values) ** 2
        rho /= float(np.dot(w, rho))
        overlap = float(np.dot(w, np.sqrt(rho * ref)))
        assert 1.0 - overlap < 1e-6
        assert abs(rec.dq2 / dq2_0 - 1.0) < 1e-7


def test_harmonic_mode_equivalence(harmonic):
    # feedback and static potentials differ by x-independent terms only
    grid = suggest_grid(harmonic, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    period = 2.0 * np.pi
    conf_fb = PropagatorConfig(dt=period / 2000, scheme="split-step",
                               mode="feedback", snapshot_stride=100)
    conf_st = PropagatorConfig(dt=period / 2000, scheme="split-step",
                               mode="static", snapshot_stride=100)
    point = ClassicalPoint(1.0, 0.0)
    seen_fb, seen_st = [], []
    fb = evolve_feedback(harmonic, point, conf_fb, period, grid,
                         sink=lambda *snap: seen_fb.append(snap))
    st0 = gcs_from_model(harmonic, grid, point)
    st = evolve_static(st0, harmonic, conf_st, period,
                       sink=lambda *snap: seen_st.append(snap))
    assert fb.steps == st.steps and len(seen_fb) == len(seen_st) == len(fb.steps)
    for (_, psi_a, _), (_, psi_b, _) in zip(seen_fb, seen_st):
        rho_a = np.abs(psi_a.values) ** 2
        rho_b = np.abs(psi_b.values) ** 2
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
    p0 = math.sqrt(2.0 * morse.mass * e_cl)
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


def test_shipped_harmonic_feedback_stays_coherent_for_20_periods():
    # the paper's claim over a long horizon: the shipped config's Glauber
    # state keeps its width and shape for 20 periods, and its norm drifts
    # at most linearly in time
    cfg = load_config(CONFIGS / "harmonic_feedback.json")
    periods = 20
    conf = replace(cfg.propagation, snapshot_stride=500)
    run = evolve_feedback(cfg.model, cfg.initial_point, conf, periods * cfg.T,
                          cfg.grid, cfg.tolerances)
    dq2_0 = run.records[0].dq2
    assert max(abs(r.dq2 - dq2_0) for r in run.records) <= 1e-6
    assert max(1.0 - r.overlap for r in run.records) <= 1e-10
    assert max(abs(r.norm - 1.0) for r in run.records) <= 2e-13 * periods


def test_shipped_morse_feedback_stays_coherent_for_10_periods():
    # the same claim on the anharmonic well, where only the self-adjusting
    # potential keeps the shape: bounds at 2-4x the 10 T readings
    # (max(1 - overlap) 5.7e-13, dq2 drift 3.3e-6, norm drift 8.6e-12,
    # which is 8.6e-13 per period, the rate 20 and 50 T runs show too)
    cfg = load_config(CONFIGS / "morse_feedback.json")
    periods = 10
    conf = replace(cfg.propagation, snapshot_stride=500)
    run = evolve_feedback(cfg.model, cfg.initial_point, conf, periods * cfg.T,
                          cfg.grid, cfg.tolerances)
    dq2_0 = run.records[0].dq2
    assert max(1.0 - r.overlap for r in run.records) <= 2e-12
    assert max(abs(r.dq2 / dq2_0 - 1.0) for r in run.records) <= 1e-5
    assert max(abs(r.norm - 1.0) for r in run.records) <= 2e-12 * periods


# half-widths of the (Q0, P0) band around the shipped start in which the
# benchmark draws its seeded starts (copied from perfbench/workloads.py)
_Q0_HALF_WIDTH = 0.1
_P0_HALF_WIDTH = 0.05
# the bounds of the 20 T harmonic and 10 T Morse tests above, whole-run
# values: (max(1 - overlap), dq2 drift, norm drift), the dq2 drift absolute
# for the harmonic packet and relative for the Morse one. Over one period
# the harmonic norm drift is not yet linear in time: it peaks near 2.4e-13
# in mid-period, above the 2e-13 per period of the long run
_BAND_BOUNDS = {"harmonic_feedback": (1e-10, 1e-6, 2e-13 * 20),
                "morse_feedback": (2e-12, 1e-5, 2e-12 * 10)}


@pytest.mark.parametrize("name", sorted(_BAND_BOUNDS))
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(dq=st.floats(-_Q0_HALF_WIDTH, _Q0_HALF_WIDTH),
       dp=st.floats(-_P0_HALF_WIDTH, _P0_HALF_WIDTH))
def test_feedback_stays_coherent_across_the_benchmark_band(name, dq, dp):
    # the claim holds for every start the benchmark may draw, not only the
    # shipped one: one period of the shipped config from a shifted start
    cfg = load_config(CONFIGS / f"{name}.json")
    point = ClassicalPoint(cfg.initial_point.Q + dq, cfg.initial_point.P + dp)
    conf = replace(cfg.propagation, snapshot_stride=500)
    recs = evolve_feedback(cfg.model, point, conf, cfg.T, cfg.grid,
                           cfg.tolerances).records
    dq2_0 = recs[0].dq2
    scale = dq2_0 if cfg.model.kind == "morse" else 1.0
    overlap, dq2, norm = _BAND_BOUNDS[name]
    assert max(1.0 - r.overlap for r in recs) <= overlap
    assert max(abs(r.dq2 - dq2_0) for r in recs) <= dq2 * scale
    assert max(abs(r.norm - 1.0) for r in recs) <= norm


def test_snapshot_cadence(morse, morse_run_grid):
    conf = PropagatorConfig(dt=1e-3, scheme="split-step", mode="feedback",
                            snapshot_stride=7)
    run = evolve_feedback(morse, ClassicalPoint(0.0, 0.1), conf, 25e-3,
                          morse_run_grid)
    steps = [int(round(r.t / 1e-3)) for r in run.records]
    assert steps == [0, 7, 14, 21, 25]  # stride plus the forced final step
    assert run.steps == (0, 7, 14, 21, 25)
    assert len(run.trajectory) == 26


@pytest.mark.parametrize("mode", propagation.MODES)
def test_sink_sees_each_snapshot_with_the_runs_potential(morse, mode):
    # the sink is handed exactly the run's snapshot steps, in order, with
    # the V that RunResult.potential gives for that step, bit for bit; a
    # static run's is the frozen well less E0
    grid = suggest_grid(morse, q_reach_min=-1.5, q_reach_max=1.5, n=512)
    conf = PropagatorConfig(dt=2e-3, mode=mode, snapshot_stride=3)
    point, T = ClassicalPoint(0.3, 0.4), 20 * 2e-3
    seen = []
    if mode == "feedback":
        run = evolve_feedback(morse, point, conf, T, grid,
                              sink=lambda *snap: seen.append(snap))
    else:
        run = evolve_static(gcs_from_model(morse, grid, point), morse, conf, T,
                            sink=lambda *snap: seen.append(snap))
        rest = potential_value(morse, grid.points) - ground_energy(morse)
        assert np.array_equal(run.potential(0).values, rest)
    assert run.steps == (0, 3, 6, 9, 12, 15, 18, 20)
    assert [s for s, _, _ in seen] == list(run.steps)
    assert len(run.records) == len(run.steps)
    for s, psi, V in seen:
        assert psi.grid == V.grid == grid
        assert np.array_equal(V.values, run.potential(s).values)
    for s in (1, -1, 21):  # not a snapshot step
        with pytest.raises(PropagationError, match="not a snapshot"):
            run.potential(s)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_its_snapshots():
    # a run keeps records, not states: at stride 1 its traced peak grows by
    # less than 2 KiB per snapshot, where a kept copy of psi and V on the
    # shipped harmonic grid (n = 320) would be 7.5 KiB
    cfg = load_config(CONFIGS / "harmonic_feedback.json")
    conf = replace(cfg.propagation, snapshot_stride=1)

    def run(nsteps):
        evolve_feedback(cfg.model, cfg.initial_point, conf, nsteps * conf.dt,
                        cfg.grid, cfg.tolerances)

    run(10)  # the kernel's cached phase and the imports, outside the trace
    small, large = _traced_peak(lambda: run(500)), _traced_peak(lambda: run(2000))
    assert (large - small) / 1500 < 2048


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
    p0 = math.sqrt(2.0 * morse.mass * e_cl)
    conf = PropagatorConfig(dt=1e-3, scheme="split-step", mode="feedback")
    with pytest.raises(CoverageError):
        evolve_feedback(morse, ClassicalPoint(0.0, p0), conf, 1.0, small)


def test_unbounded_initial_point_escapes(morse, morse_run_grid):
    conf = PropagatorConfig(dt=1e-3, scheme="split-step", mode="feedback")
    with pytest.raises(EscapeError):
        evolve_feedback(morse, ClassicalPoint(0.0, 10.0), conf, 1.0,
                        morse_run_grid)


def _monitored(g, tol, states):
    """The monitor's reading after the last step of a _run over len(states)
    steps, step s copying states[s - 1] into the run's buffer (np.copyto
    stands in for the split step): (norm, edge mass)."""
    made = []

    def monitor(*args):
        made.append(_monitor(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "_monitor", monitor)
        propagation._run(SimpleNamespace(psi=ComplexField(g, states[0])), states,
                         np.copyto, lambda s, vals: (None, None, None),
                         range(len(states) + 1), None, PropagatorConfig(dt=1.0),
                         tol, None)
    weights, view, squares, out = made[0]
    return out.tolist()


def _narrow_state(g):
    # normalized, with its edge mass far below DEFAULT_TOLERANCES'
    return _free_gaussian(g, 0.5).values


def test_monitor_raises_on_nan_at_its_step():
    g = Grid(-5.0, 5.0, 64)
    states = [_narrow_state(g)] * 6 + [np.full(g.n, np.nan + 0j)]
    with pytest.raises(UnitarityError, match="at step 7$"):
        _monitored(g, DEFAULT_TOLERANCES, states)


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
    _assert_monitor_is_quadrature(*_monitored(g, loose, [vals]), vals, g)


@pytest.mark.parametrize("where, bad", [(32, np.nan), (2, np.inf)])
def test_monitor_raises_on_a_bad_sample_at_its_step(where, bad):
    # one NaN inside, or one +inf in the edge strip, of a normalized state
    # whose edge mass is within bounds; the norm check comes first, and
    # either sample makes the norm NaN or inf
    g, vals = _random_state(64, 3)
    tol = replace(DEFAULT_TOLERANCES, boundary_mass=1.0)
    poisoned = vals.copy()
    poisoned[where] = bad
    with pytest.raises(UnitarityError, match=f"at step {where + 5}$"):
        _monitored(g, tol, [vals] * (where + 4) + [poisoned])


def test_monitor_raises_on_edge_mass_at_its_step():
    g, vals = _random_state(64, 4)  # about a sixth of the mass in the strips
    with pytest.raises(CoverageError, match="at step 9 "):
        _monitored(g, DEFAULT_TOLERANCES, [_narrow_state(g)] * 8 + [vals])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(16, 2049), st.integers(0, 2**32 - 1), st.data())
def test_monitor_is_quadrature_and_raises_on_any_bad_sample(n, seed, data):
    # one monitor per run, read at every step: its values are the
    # quadrature norm and boundary_mass of each state the run holds, and a
    # NaN or inf anywhere, real or imaginary part, raises at its step with
    # no numpy warning (an inf outside the edge strips meets the edge row's
    # zero weights; _run silences numpy's warning of inf * 0)
    g, vals = _random_state(n, seed)
    tol = replace(DEFAULT_TOLERANCES, boundary_mass=10.0, unitarity_drift=10.0)
    _assert_monitor_is_quadrature(*_monitored(g, tol, [vals]), vals, g)
    shifted = np.roll(vals, n // 3)
    _assert_monitor_is_quadrature(*_monitored(g, tol, [vals, shifted]),
                                  shifted, g)
    where = data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    part = data.draw(st.sampled_from(["real", "imag"]))
    poisoned = vals.copy()
    setattr(poisoned[where:where + 1], part, bad)
    with pytest.raises(UnitarityError, match="at step 3$"):
        _monitored(g, tol, [vals, shifted, poisoned])


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
                                          ("harmonic", "split-step")])
def test_feedback_loop_matches_public_reference(kind, scheme, request):
    model = request.getfixturevalue(kind)
    grid = suggest_grid(model, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    point0 = ClassicalPoint(0.3, 0.4)
    dt, nsteps = 2e-3, 20
    conf = PropagatorConfig(dt=dt, scheme=scheme, mode="feedback",
                            snapshot_stride=nsteps)
    seen = []
    run = evolve_feedback(model, point0, conf, nsteps * dt, grid,
                          sink=lambda *snap: seen.append(snap))
    traj, ref = _reference_feedback(model, point0, grid, dt, nsteps, scheme)
    for name in ("t", "q", "p"):
        assert np.array_equal(getattr(run.trajectory, name), getattr(traj, name))
    assert np.array_equal(run.trajectory.forces, traj.forces)
    last_step, last_psi, _ = seen[-1]
    assert last_step == nsteps
    assert np.max(np.abs(last_psi.values - ref)) <= 1e-12


@pytest.mark.parametrize("scheme", propagation.SCHEMES)
def test_static_loop_matches_repeated_step(morse, scheme):
    # static mode prepares its operand once; every snapshot must still be
    # the public step() loop's, bit for bit
    grid = suggest_grid(morse, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    dt, nsteps = 2e-3, 20
    state0 = gcs_from_model(morse, grid, ClassicalPoint(morse.dq, 0.0))
    conf = PropagatorConfig(dt=dt, scheme=scheme, mode="static")
    seen = []
    evolve_static(state0, morse, conf, nsteps * dt,
                  sink=lambda *snap: seen.append(snap))
    V = _clamped(morse, grid, potential_value(morse, grid.points))
    psi = state0.psi
    assert [s for s, _, _ in seen] == list(range(nsteps + 1))
    for _, psi_run, _ in seen:
        assert np.array_equal(psi_run.values, psi.values)
        psi = step(psi, V, dt, scheme)


def test_orbit_coverage_fails_before_any_step(harmonic, monkeypatch):
    # A coarse Verlet step overshoots the exact turning points (+-2 here):
    # the orbit reaches |Q| = 2.8. The small grid holds the packet at the
    # turning points but not at the orbit's actual extreme, so the run must
    # stop before its first quantum step; the wide grid holds both, and the
    # tail that the split step at omega dt = 1.4 throws out (on [-8, 8] it
    # reached the edge strips at step 1).
    point0, dt, nsteps = ClassicalPoint(0.0, 2.0), 1.4, 20
    q_far = np.max(np.abs(integrate_trajectory(harmonic, 0.0, 2.0, dt, nsteps).q))
    assert q_far > 2.7
    small, wide = Grid(-6.5, 6.5, 512), Grid(-10.0, 10.0, 640)
    gcs_from_model(harmonic, small, ClassicalPoint(2.0, 0.0))
    gcs_from_model(harmonic, small, ClassicalPoint(-2.0, 0.0))
    with pytest.raises(CoverageError):
        gcs_from_model(harmonic, small, ClassicalPoint(q_far, 0.0))

    calls = []
    kernels = propagation._split_step

    def counting(*args):
        kernel = kernels(*args)

        def advance(vals, operand):
            calls.append(1)
            return kernel.advance(vals, operand)

        return kernel._replace(advance=advance)

    monkeypatch.setattr(propagation, "_split_step", counting)
    conf = PropagatorConfig(dt=dt, scheme="split-step", mode="feedback",
                            snapshot_stride=nsteps)
    with pytest.raises(CoverageError, match="classical trajectory"):
        evolve_feedback(harmonic, point0, conf, nsteps * dt, small)
    assert calls == []
    evolve_feedback(harmonic, point0, conf, nsteps * dt, wide)
    assert len(calls) == nsteps


def test_static_frame_anchor_is_the_moments_of_the_normalized_state(morse):
    # the static snapshot measures its state once for the anchor and for
    # record; the anchor must still be moments(normalized(psi)), bit for
    # bit, and so the point that record was measured against: its force is
    # the record's ehrenfest reference
    grid = suggest_grid(morse, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    state0 = gcs_from_model(morse, grid, ClassicalPoint(morse.dq, 0.3))
    q0 = ground_moments(morse, grid).q0
    conf = PropagatorConfig(dt=2e-3, scheme="split-step", mode="static",
                            snapshot_stride=5)
    seen = []
    run = evolve_static(state0, morse, conf, 20 * 2e-3,
                        sink=lambda *snap: seen.append(snap))
    assert len(seen) == len(run.records) == 5
    for (s, psi, V), rec in zip(seen, run.records):
        x_mean, _, p_mean = moments(normalized(psi), morse.hbar)
        assert rec.q_mean == x_mean
        assert rec.p_mean == p_mean
        point = ClassicalPoint(rec.q_mean - q0, rec.p_mean, s * conf.dt)
        f = float(classical_force(morse, point.Q))
        assert record(psi, morse, point, V, f) == rec


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


# The split step's phase and product, checked against their definitions
# over random potentials up to the kinetic ceiling (the loops clamp V
# there), mapped into the kernel's operand units by _in_units, as step()
# does.
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


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, (propagation._operand_rows(_KERNEL_GRID.n), _KERNEL_GRID.n),
                  elements=st.floats(-_CAP, _CAP)))
def test_block_prepare_matches_row_by_row(v):
    # the feedback loop prepares a block of potentials in one pass; each
    # row must be the operand of that potential alone, bit for bit
    g, dt = _KERNEL_GRID, _DT_4PI
    block_kernel = propagation._split_step(g.n, g.dx, dt, 1.0, 1.0, len(v))
    row_kernel = propagation._split_step(g.n, g.dx, dt, 1.0, 1.0)
    block = block_kernel.prepare(_in_units(block_kernel, v))
    rows = np.array([row_kernel.prepare(_in_units(row_kernel, row)).copy()
                     for row in v])
    assert block.shape == rows.shape
    assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))


@pytest.mark.parametrize("kind, scheme", [("morse", "split-step"),
                                          ("harmonic", "split-step")])
def test_feedback_frames_do_not_depend_on_the_block_size(kind, scheme,
                                                         request, monkeypatch):
    # two full blocks and a partial one, against one step per block; the
    # harmonic feedback potential is the same at every step up to round-off,
    # so mainly the Morse run would see operands taken out of order
    model = request.getfixturevalue(kind)
    grid = suggest_grid(model, q_reach_min=-1.5, q_reach_max=1.5, n=512)
    nsteps = 2 * propagation._operand_rows(grid.n) + 3
    dt = 2e-3
    conf = PropagatorConfig(dt=dt, scheme=scheme, mode="feedback")
    point0 = ClassicalPoint(0.3, 0.4)
    seen_blocked, seen_single = [], []
    blocked = evolve_feedback(model, point0, conf, nsteps * dt, grid,
                              sink=lambda *snap: seen_blocked.append(snap))
    monkeypatch.setattr(propagation, "_operand_rows", lambda n: 1)
    single = evolve_feedback(model, point0, conf, nsteps * dt, grid,
                             sink=lambda *snap: seen_single.append(snap))
    assert len(seen_blocked) == len(seen_single) == nsteps + 1
    for (sa, psi_a, va), (sb, psi_b, vb) in zip(seen_blocked, seen_single):
        assert sa == sb
        assert np.array_equal(psi_a.values, psi_b.values)
        assert np.array_equal(va.values, vb.values)
    assert blocked.steps == single.steps
    assert blocked.records == single.records


@pytest.mark.parametrize("kind", ["morse", "harmonic"])
def test_feedback_run_builds_one_block_kernel(kind, request, monkeypatch):
    # one split-step kernel per feedback run, with a row per step of a
    # block; the harmonic run takes the block path as the Morse run does
    calls = []
    kernels = propagation._split_step

    def counting(*args):
        calls.append(args[5:])
        return kernels(*args)

    monkeypatch.setattr(propagation, "_split_step", counting)
    model = request.getfixturevalue(kind)
    grid = suggest_grid(model, q_reach_min=-1.5, q_reach_max=1.5, n=512)
    dt, nsteps = 2e-3, 2 * propagation._operand_rows(grid.n) + 3
    conf = PropagatorConfig(dt=dt, mode="feedback", snapshot_stride=4)
    evolve_feedback(model, ClassicalPoint(0.3, 0.4), conf, nsteps * dt, grid)
    assert calls == [(propagation._operand_rows(grid.n),)]


@pytest.mark.parametrize("where", ["first step of the second block",
                                   "last step, in a short block"])
def test_alarm_keeps_its_step_across_operand_blocks(where, harmonic, monkeypatch):
    # a NaN coefficient row makes that step's potential, phase and state
    # NaN: the run must raise at exactly that step, however the steps fall
    # into operand blocks
    grid = suggest_grid(harmonic, q_reach_min=-1.5, q_reach_max=1.5, n=512)
    rows = propagation._operand_rows(grid.n)
    dt, nsteps = 2e-3, 2 * rows + 3
    bad = rows + 1 if where.startswith("first") else nsteps
    bases = propagation._stepping_basis

    def poisoned(model, g):
        basis, coefficients = bases(model, g)

        def poisoned_coefficients(*args):
            table = coefficients(*args)
            table[bad - 1] = np.nan  # step s takes row s - 1
            return table

        return basis, poisoned_coefficients

    monkeypatch.setattr(propagation, "_stepping_basis", poisoned)
    conf = PropagatorConfig(dt=dt, mode="feedback", snapshot_stride=nsteps)
    with pytest.raises(UnitarityError, match=f"at step {bad}$"):
        evolve_feedback(harmonic, ClassicalPoint(0.3, 0.4), conf, nsteps * dt, grid)


def test_operand_block_fills_a_slab_of_5120_samples_or_8_rows():
    # the shipped grids: harmonic_feedback (n = 320) builds 16 steps a pass,
    # morse_feedback (n = 768) 8, as every grid from n = 640 up
    assert [propagation._operand_rows(n) for n in (320, 512, 640, 768, 4096)] == [
        16, 10, 8, 8, 8]


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
    monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", {
        "no module": None,
        "no gufuncs": SimpleNamespace(),
        "other signature": SimpleNamespace(fft=np.add, ifft=np.add),
    }[stand_in])
    with pytest.raises(PropagationError, match="numpy.fft._pocketfft_umath"):
        propagation._split_step(64, 0.1, 1e-3, 1.0, 1.0)
