"""The runnable invariant suite behind `gcsdyn verify`.

Each check produces (name, value, threshold, pass/fail); a run passes only
if every check does. Checks that share one computation form a group; a check
that its group did not fill before raising a `GcsdynError` reads inf and
fails. The feedback run is left out when `grid_coverage` fails.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import (
    classical_energy,
    classical_force,
    classical_period,
    integrate_trajectory,
    linear_coefficient,
    turning_points,
)
from .config import RunConfig
from .diagnostics import potential_slope_at
from .displacement import ClassicalPoint
from .errors import GcsdynError
from .grids import RealField, boundary_mass
from .hydrodynamics import (
    assemble_potential,
    continuity_residual,
    hjm_residual,
    quantum_curvature,
)
from .models import (
    ground_energy,
    ground_moments,
    ground_state,
    potential_value,
    reference_density,
    stationary_residual,
)
from .propagation import _step_count, evolve_feedback

MAX_VERIFY_STEPS = 20000
RUN_CHECKS = ("unitarity", "feedback_overlap", "dq2_drift", "ehrenfest_run")


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name},{self.value:.6e},{self.threshold:.6e},{status}"


def run_verification(cfg: RunConfig) -> list[CheckResult]:
    model, grid, tol = cfg.model, cfg.grid, cfg.tolerances
    x = grid.points
    hbar, m = model.hbar, model.mass
    curv_tol = 1e-5 if model.kind == "morse" else 1e-6
    # every check in the order it is reported, with its bound, laid out by
    # the group that computes it
    bounds = {
        "grid_coverage": tol.boundary_mass,
        "stationary_residual": 1e-6,
        "curvature_identity": curv_tol, "ground_spread": 1e-6,
        "hjm_identity": 1e-5, "continuity_identity": 1e-6,
        "linear_coefficient_agreement": 1e-6,
        "ehrenfest_closure": 1e-6,
        # ehrenfest_run is a lenient generic gate: the run uses the config's
        # own dt, so the residual scales with its tracking error; the
        # acceptance suite pins the strict bound at its stated time step
        "unitarity": 1e-8, "feedback_overlap": 1e-4, "dq2_drift": 1e-4,
        "ehrenfest_run": 1e-4,
    }
    q0, p0 = cfg.initial_point.Q, cfg.initial_point.P
    e_cl = classical_energy(model, q0, p0)
    q_lo, q_hi = turning_points(model, e_cl)
    reach = max(abs(q_lo), abs(q_hi), model.dq)
    period = classical_period(model, e_cl)
    traj = integrate_trajectory(model, q0, p0, period / 2000.0, 2000)
    force_scale = max(float(np.max(np.abs(traj.forces))),
                      model.energy_scale * _inv_len(model))

    # each group yields (name, value) for its checks in the table's order
    def coverage():
        # coverage of the configured classical trajectory, before anything runs
        bm = 0.0
        for q in (q_lo, q_hi, 0.0):
            bm = max(bm, boundary_mass(reference_density(model, grid, q), grid))
        yield "grid_coverage", bm

    def ground_state_identities():
        psi0 = ground_state(model, grid, tol)
        rho0 = RealField(grid, psi0.values**2)
        yield "stationary_residual", stationary_residual(model, grid, tol)
        curv = quantum_curvature(rho0)
        target = potential_value(model, x) - ground_energy(model)
        good = rho0.values > 1e-8 * float(rho0.values.max())
        dev = np.abs((hbar**2 / (2.0 * m)) * curv.values - target)[good].max()
        yield "curvature_identity", dev / model.energy_scale
        info = ground_moments(model, grid, tol)
        yield "ground_spread", abs(info.dq2 / model.dq2 - 1.0)

    def hydrodynamic_identities():
        # at sampled displacements inside coverage
        q_samples = np.linspace(-reach, reach, 5)
        p_samples = np.linspace(-hbar / model.dq, hbar / model.dq, 3)
        hjm_worst = 0.0
        cont_worst = 0.0
        delta = 1e-3 * classical_period(model, 0.0) / (2.0 * math.pi)
        for q in q_samples:
            for p in p_samples:
                pt = ClassicalPoint(Q=float(q), P=float(p), t=0.0)
                dpdt = float(classical_force(model, q))
                snap = assemble_potential(model, pt, dpdt, grid, tol=tol)
                rho = RealField(grid, reference_density(model, grid, q))
                s = RealField(grid, p * x - 0.5 * p * q)
                s_t = RealField(grid, dpdt * x - 0.5 * (dpdt * q + p * p / m))
                hjm_worst = max(
                    hjm_worst, hjm_residual(s_t, s, rho, snap.V, m, hbar)
                )
                qdot = p / m
                # fourth-order central difference in time
                rp1, rm1, rp2, rm2 = (
                    reference_density(model, grid, q + k * qdot * delta)
                    for k in (1, -1, 2, -2)
                )
                d_rho = 8.0 * (rp1 - rm1) - (rp2 - rm2)
                rho_t = RealField(grid, d_rho / (12.0 * delta))
                cont_worst = max(
                    cont_worst, continuity_residual(rho_t, rho, s, m)
                )
        yield "hjm_identity", hjm_worst
        yield "continuity_identity", cont_worst

    def classical_extraction():
        lin_worst = 0.0
        for q in np.linspace(-reach, reach, 10):
            pt = ClassicalPoint(Q=float(q), P=0.3, t=0.0)
            ana = float(classical_force(model, pt.Q)) - 0.05
            num = linear_coefficient(model, pt, dPdt=0.05, grid=grid, tol=tol)
            lin_worst = max(lin_worst, abs(num - ana) / max(abs(ana), 1e-12))
        yield "linear_coefficient_agreement", lin_worst

    def ehrenfest_closure():
        # along the short integrated trajectory
        eh_worst = 0.0
        for i in range(0, len(traj), 100):
            pt = traj.point(i)
            snap = assemble_potential(model, pt, float(traj.forces[i]), grid, tol=tol)
            grad = potential_slope_at(snap.V, pt.Q)
            eh_worst = max(eh_worst, abs(traj.forces[i] + grad) / force_scale)
        yield "ehrenfest_closure", eh_worst

    def feedback_run():
        # short feedback run with the configured dt and scheme
        dt = cfg.propagation.dt
        horizon = min(cfg.T, period, MAX_VERIFY_STEPS * dt)
        stride = max(1, _step_count(horizon, dt) // 50)
        pconf = replace(cfg.propagation, snapshot_stride=stride)
        run = evolve_feedback(model, cfg.initial_point, pconf, horizon, grid, tol)
        records = run.records
        dq2_0 = records[0].dq2
        yield from zip(RUN_CHECKS, (
            max(abs(r.norm - 1.0) for r in records),
            max(1.0 - r.overlap for r in records),
            max(abs(r.dq2 / dq2_0 - 1.0) for r in records),
            max(r.ehrenfest_residual for r in records) / force_scale,
        ))

    values = {"grid_coverage": math.inf}
    for group in (coverage, ground_state_identities, hydrodynamic_identities,
                  classical_extraction, ehrenfest_closure, feedback_run):
        if group is feedback_run and not values["grid_coverage"] <= tol.boundary_mass:
            # a grid that clips the orbit cannot carry the run: leave it out
            bounds = {n: b for n, b in bounds.items() if n not in RUN_CHECKS}
            break
        try:
            values.update(group())
        except GcsdynError:
            pass  # the checks this group did not fill read inf
    return [CheckResult(name, float(values.get(name, math.inf)), bound)
            for name, bound in bounds.items()]


def _inv_len(model):
    """A natural inverse length: a for Morse, 1/spread for harmonic."""
    return model.a if model.kind == "morse" else 1.0 / model.dq
