"""record against the full-grid measurement it replaced.

_reference_record below is the earlier diagnostics.record, kept as the
reference: it forms the density as |psi|^2 / norm, unwraps the phase over
the whole PHASE_FLOOR run, and wraps every intermediate in a field. record
now reads one density |psi / sqrt(norm)|^2 and takes the phase and its
derivative on the residual support alone. The columns whose arithmetic is
unchanged must agree bit for bit; the four that read the density or the
support phase may move at round-off, within the bounds below.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsdyn import (
    ClassicalPoint,
    ComplexField,
    Grid,
    PotentialModel,
    RealField,
    assemble_potential,
    classical_force,
    evolve_feedback,
    evolve_static,
    gcs_from_model,
    ground_moments,
    load_config,
    record,
)
from gcsdyn.diagnostics import DiagnosticsRecord, potential_slope_at
from gcsdyn.displacement import PHASE_FLOOR, PHASE_JUMP_FLOOR
from gcsdyn.errors import InvalidFieldError
from gcsdyn.grids import (
    _derivative_arrays,
    _moments,
    _peak_segment,
    boundary_mass,
    quadrature_weights,
)
from gcsdyn.hydrodynamics import RESIDUAL_FLOOR
from gcsdyn.models import reference_density

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EXACT = ("t", "norm", "q_mean", "p_mean", "dq2", "ehrenfest_residual")
# absolute bounds on the columns that may move. The largest differences
# seen: overlap 3.3e-16, l2_distance 8.9e-16 (the narrow packet below),
# boundary_mass 7.9e-31 and hjm_residual 1.1e-13 (morse_static_twin's
# full run; 5.7e-14 in these tests)
BOUNDS = {
    "overlap": 1e-15,
    "l2_distance": 4e-15,
    "boundary_mass": 1e-22,
    "hjm_residual": 5e-13,
}


def _reference_unwrap(vals, rho):
    # the full-grid unwrap, truncated at ambiguous jumps, as record used it
    n = len(vals)
    peak = int(np.argmax(rho))
    left, right = _peak_segment(rho, PHASE_FLOOR * rho[peak])
    raw = np.angle(vals)
    d = np.diff(raw[left : right + 1])
    d -= 2.0 * np.pi * np.round(d / (2.0 * np.pi))
    seg_rho = rho[left : right + 1]
    core = np.minimum(seg_rho[:-1], seg_rho[1:]) >= PHASE_JUMP_FLOOR * rho[peak]
    too_big = (np.abs(d) > 0.9 * np.pi) & core
    if np.any(too_big):
        bad = np.flatnonzero(too_big)
        above = bad[bad >= peak - left]
        below = bad[bad < peak - left]
        lo = int(below[-1]) + 1 if below.size else 0
        hi = int(above[0]) if above.size else d.size
        d = d[lo:hi]
        left, right = left + lo, left + hi
    s = np.zeros(n)
    s_seg = np.concatenate(([raw[left]], raw[left] + np.cumsum(d)))
    s_seg -= 2.0 * np.pi * np.round((s_seg[peak - left] - raw[peak]) / (2.0 * np.pi))
    s[left : right + 1] = s_seg
    if left > 0:
        slope = s[left + 1] - s[left] if right > left else 0.0
        s[:left] = s[left] - slope * np.arange(left, 0, -1)
    if right < n - 1:
        slope = s[right] - s[right - 1] if right > left else 0.0
        s[right + 1 :] = s[right] + slope * np.arange(1, n - right)
    return s


def _reference_hjm(s_t, s, rho, v, m, hbar, grid):
    vals = np.maximum(rho.values, 0.0)
    i0, i1 = _peak_segment(vals, RESIDUAL_FLOOR * float(vals.max()))
    if i1 - i0 < 7:
        raise InvalidFieldError("density above the residual floor on < 8 samples")
    sl = slice(i0, i1 + 1)
    g = 0.5 * np.log(vals[sl])
    g1 = _derivative_arrays(g, grid.dx, 1)
    curv = _derivative_arrays(g, grid.dx, 2) + g1 * g1
    s_x = _derivative_arrays(s.values[sl], grid.dx, 1)
    r = (s_t.values[sl] + s_x * s_x / (2.0 * m) - (hbar**2 / (2.0 * m)) * curv
         + v.values[sl])
    w = quadrature_weights(grid)[sl] * vals[sl]
    num = math.sqrt(float(np.dot(w, r * r)))
    den = math.sqrt(float(np.dot(w, v.values[sl] ** 2)))
    return num / den if den != 0.0 else num


def _reference_record(psi, model, point, V, dPdt):
    grid = psi.grid
    w = quadrature_weights(grid)
    x = grid.points
    hbar = model.hbar
    rho_raw = np.abs(psi.values) ** 2
    nrm = float(np.dot(w, rho_raw))
    vals_n = psi.values / math.sqrt(nrm)
    rho_n = np.abs(vals_n) ** 2
    q_mean, x2, p_mean = _moments(grid, vals_n, rho_n, hbar)

    rho = RealField(grid, rho_raw / nrm)
    ref = reference_density(model, grid, point.Q)
    own = np.maximum(rho.values, 0.0)
    own = own / float(np.dot(w, own))
    d = rho.values - ref

    x_c = q_mean - ground_moments(model, grid).q0
    dQdt = point.P / model.mass
    s_t = RealField(grid, dPdt * x - 0.5 * (dPdt * point.Q + point.P * dQdt))
    try:
        s = RealField(grid, hbar * _reference_unwrap(vals_n, rho_n))
        hjm = _reference_hjm(s_t, s, rho, V, model.mass, hbar, grid)
    except InvalidFieldError:
        hjm = float("inf")
    return DiagnosticsRecord(
        t=point.t,
        norm=nrm,
        q_mean=q_mean,
        p_mean=p_mean,
        dq2=x2 - q_mean * q_mean,
        overlap=float(np.dot(w, np.sqrt(own * ref))),
        ehrenfest_residual=abs(dPdt + potential_slope_at(V, x_c)),
        hjm_residual=hjm,
        boundary_mass=boundary_mass(rho.values, grid),
        l2_distance=math.sqrt(float(np.dot(w, d * d))),
    )


def _assert_matches_reference(rec, psi, model, point, V, dPdt):
    want = _reference_record(psi, model, point, V, dPdt)
    for name in EXACT:
        assert getattr(rec, name) == getattr(want, name), name
    for name, bound in BOUNDS.items():
        got, ref = getattr(rec, name), getattr(want, name)
        assert got == ref or abs(got - ref) <= bound, (name, got, ref)


@pytest.mark.parametrize("name", ["morse_feedback", "harmonic_feedback",
                                  "morse_static_twin"])
def test_shipped_frames_match_the_reference(name):
    # every snapshot of a shortened shipped run, measured in the run and
    # again by the reference from the same state, potential and classical
    # point: the trajectory's (feedback), or the measured center's, from
    # the record (static: Q = q_mean - q0, P = p_mean)
    cfg = load_config(CONFIGS / f"{name}.json")
    model, grid, conf = cfg.model, cfg.grid, cfg.propagation
    conf = dataclasses.replace(conf, snapshot_stride=40)
    T = 400 * conf.dt
    seen = []
    if conf.mode == "feedback":
        run = evolve_feedback(model, cfg.initial_point, conf, T, grid,
                              sink=lambda *snap: seen.append(snap))
    else:
        state0 = gcs_from_model(model, grid, cfg.initial_point)
        run = evolve_static(state0, model, conf, T,
                            sink=lambda *snap: seen.append(snap))
        q0 = ground_moments(model, grid).q0
    assert [s for s, _, _ in seen] == list(run.steps)
    for (s, psi, V), rec in zip(seen, run.records):
        if conf.mode == "feedback":
            point = run.trajectory.point(s)
            dPdt = float(run.trajectory.forces[s])
        else:
            point = ClassicalPoint(rec.q_mean - q0, rec.p_mean, rec.t)
            dPdt = float(classical_force(model, point.Q))
        _assert_matches_reference(rec, psi, model, point, V, dPdt)


def _model_and_grid(kind, hbar, mass):
    if kind == "harmonic":
        model = PotentialModel.harmonic(omega=1.0, mass=mass, hbar=hbar)
        return model, Grid(-12.0 * model.dq, 12.0 * model.dq, 768)
    return PotentialModel.morse(a=1.0, mass=mass, hbar=hbar), Grid(-9.0, 40.0, 1024)


def _measured_args(model, grid, psi, q, p):
    point = ClassicalPoint(q, p, 0.25)
    dPdt = float(classical_force(model, q))
    V = assemble_potential(model, point, dPdt, grid).V
    return ComplexField(grid, psi), model, point, V, dPdt


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["harmonic", "morse"]), st.floats(0.5, 2.0),
       st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.sampled_from([0.0, 1e-10, 1e-7]), st.integers(0, 2**32 - 1))
def test_displaced_boosted_states_match_the_reference(kind, hbar, mass, u, v,
                                                      noise, seed):
    # displaced, boosted ground states of both models, with complex noise
    # of a given size on every sample, so that the tails hold dust whose
    # phase jumps at random
    model, grid = _model_and_grid(kind, hbar, mass)
    q = 3.0 * model.dq * u if kind == "harmonic" else 1.5 + 3.0 * u
    p = 0.1 * hbar / grid.dx * v
    psi = gcs_from_model(model, grid, ClassicalPoint(q, p)).psi.values
    rng = np.random.default_rng(seed)
    psi = psi + noise * np.abs(psi).max() * (rng.standard_normal(grid.n)
                                             + 1j * rng.standard_normal(grid.n))
    args = _measured_args(model, grid, psi, q + 0.01, p - 0.01)
    _assert_matches_reference(record(*args), *args)


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("offset", [2, 25])
def test_phase_jump_on_the_support_truncates_as_before(side, offset):
    # a sign flip beyond a sample on the support (left or right of the
    # peak) is a jump of pi where the state carries amplitude (both
    # samples at least PHASE_JUMP_FLOOR times the peak): the unwrap
    # truncates the valid run there, and the chirped phase is extended
    # linearly across the rest of the support, so the residual is large
    model, grid = _model_and_grid("morse", 1.0, 1.0)
    q, p = 0.7, 0.4
    psi = gcs_from_model(model, grid, ClassicalPoint(q, p)).psi.values
    psi = psi * np.exp(0.05j * (grid.points - q) ** 2)
    peak = int(np.argmax(np.abs(psi)))
    cut = peak + side * offset
    if side > 0:
        psi[cut:] *= -1.0
    else:
        psi[:cut] *= -1.0
    jump = np.angle(psi[cut] / psi[cut - 1])
    rho = np.abs(psi) ** 2
    assert abs(jump) > 0.9 * np.pi
    assert min(rho[cut - 1], rho[cut]) >= PHASE_JUMP_FLOOR * rho.max()
    args = _measured_args(model, grid, psi, q, p)
    rec = record(*args)
    assert 1e-3 < rec.hjm_residual < math.inf
    _assert_matches_reference(rec, *args)


def test_support_under_eight_samples_reads_inf():
    # a packet narrower than dx: rho = exp(-(x / s)^2), s = 0.85 dx, is
    # above RESIDUAL_FLOOR for |x| < 4.01 s = 3.4 dx, on 7 samples, one
    # short of the 8 the residual needs, so it reads inf, while every other
    # column is measured as before
    model = PotentialModel.harmonic(omega=1.0)
    grid = Grid(-40.0, 40.0, 801)  # dx = 0.1, a node at 0
    x = grid.points
    psi = np.exp(-0.5 * (x / (0.85 * grid.dx)) ** 2) * np.exp(0.3j * x)
    rho = np.abs(psi) ** 2
    i0, i1 = _peak_segment(rho, RESIDUAL_FLOOR * rho.max())
    assert i1 - i0 + 1 == 7
    args = _measured_args(model, grid, psi, 0.0, 0.3)
    rec = record(*args)
    assert rec.hjm_residual == math.inf
    _assert_matches_reference(rec, *args)
