"""Observable extraction and claim checking for propagated states.

Each record aggregates the per-snapshot observables: norm, position and
momentum means, spread, the Bhattacharyya overlap against the translated
ground density (1 exactly at coincidence), the coherence-condition residual,
and the phase-equation residual against the frozen-packet ansatz.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .displacement import ClassicalPoint, _unwrapped_phase
from .errors import DiagnosticsError, InvalidFieldError
from .grids import (
    ComplexField,
    RealField,
    _derivative_arrays,
    _moments,
    _quintic_weights,
    boundary_mass,
    quadrature_weights,
)
from .hydrodynamics import _phase_residual, _residual_support
from .models import (
    PotentialModel,
    ground_moments,
    reference_density,
    require_coverage,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True, slots=True)
class DiagnosticsRecord:
    """Per-snapshot observables of a run; the fields, in order, are the
    columns of diagnostics.csv. A run keeps one per snapshot, so it is
    slotted: no per-record __dict__."""

    t: float
    norm: float
    q_mean: float
    p_mean: float
    dq2: float
    overlap: float
    ehrenfest_residual: float
    hjm_residual: float
    boundary_mass: float
    l2_distance: float


def _checked_reference(model, grid, q, tol) -> np.ndarray:
    ref = reference_density(model, grid, q)
    require_coverage(ref, grid, tol, f"translated reference (Q = {q:g})")
    return ref


def _bhattacharyya(w: np.ndarray, rho: np.ndarray, ref: np.ndarray) -> float:
    # rho >= 0, renormalized by the quadrature weights w; ref is normalized
    own = rho / float(np.dot(w, rho))
    return float(np.dot(w, np.sqrt(own * ref)))


def potential_slope_at(v: RealField, x_c: float) -> float:
    """dV/dx at an off-lattice point: 7-point stencil + local quintic.

    x_c must lie on [x_min, x_max]. The stencil derivative samples are
    interpolated at x_c by the degree-5 Lagrange polynomial through the 6
    nodes bracketing it (3 on each side, shifted inward at the grid edges).
    Only the slice [j0 - 3, j0 + 9) is differentiated: it gives the whole
    grid's stencil values at the 6 nodes.
    """
    grid = v.grid
    if not grid.x_min <= x_c <= grid.x_max:  # NaN fails too
        raise DiagnosticsError(f"evaluation point {x_c:g} outside the grid")
    j0 = min(max(math.floor((x_c - grid.x_min) / grid.dx) - 2, 0), grid.n - 6)
    lo, hi = max(j0 - 3, 0), min(j0 + 9, grid.n)
    dv = _derivative_arrays(v.values[lo:hi], grid.dx, 1)
    t = (x_c - grid.points[j0]) / grid.dx  # x_c in node units: nodes at t = 0 .. 5
    return float(np.dot(_quintic_weights(t), dv[j0 - lo:j0 - lo + 6]))


def _l2_distance(w: np.ndarray, rho: np.ndarray, ref: np.ndarray) -> float:
    d = rho - ref
    return math.sqrt(float(np.dot(w, d * d)))


def record(
    psi: ComplexField,
    model: PotentialModel,
    point: ClassicalPoint,
    V: RealField,
    dPdt: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DiagnosticsRecord:
    """Fill a DiagnosticsRecord for one snapshot of psi, measured against
    the classical point (Q, P, t), the potential V and the force dP/dt.

    The coherence-condition residual |dP/dt + dV/dx| is evaluated at the
    wave-packet center x_c = q_mean - q0, the measured mean stripped of the
    constant ground-state offset (for symmetric wells this is q_mean
    itself). The phase-equation residual uses the frozen-packet ansatz
    d_t S = (dP/dt) x - (dP/dt Q + P dQ/dt)/2 with the closure dQ/dt = P/m,
    so it vanishes on exact displaced ground states and grows once the
    packet stops being one. On propagated states it is floored by
    time-stepping dust in the measured density (amplified by 1/dx^2 inside
    the curvature term), so treat it as a comparative indicator there; the
    exact identities are checked on analytic fields. psi is measured once:
    every column reads the one density |psi / sqrt(norm)|^2, and the phase
    is unwrapped, and d_t S formed, on the residual's support alone.
    """
    return _record(psi, _measure(psi, model.hbar), model, point, V, dPdt, tol)


class _Measured(NamedTuple):
    """The measurements of one snapshot that record and the static anchor
    share: the quadrature norm nrm of psi, the normalized samples and
    their |.|^2 (the one density every column reads), and their moments."""

    nrm: float
    vals_n: np.ndarray
    rho_n: np.ndarray
    q_mean: float
    x2: float
    p_mean: float


def _measure(psi: ComplexField, hbar: float) -> _Measured:
    # as moments(normalized(psi)), bit for bit
    grid = psi.grid
    nrm = float(np.dot(quadrature_weights(grid), np.abs(psi.values) ** 2))
    # psi's samples are finite (ComplexField), so vals_n's are when nrm > 0
    if not nrm > 0.0:
        raise InvalidFieldError(f"state norm {nrm:g} cannot be normalized")
    vals_n = psi.values / math.sqrt(nrm)
    rho_n = np.abs(vals_n) ** 2
    return _Measured(nrm, vals_n, rho_n, *_moments(grid, vals_n, rho_n, hbar))


def _record(psi, measured, model, point, V, dPdt, tol) -> DiagnosticsRecord:
    """record, from the snapshot's measurements; psi's ComplexField checked
    its samples once, so nothing here is wrapped in a field again."""
    grid = psi.grid
    if V.grid != grid:
        raise DiagnosticsError("potential and state live on different grids")

    hbar = model.hbar
    w = quadrature_weights(grid)
    rho, q_mean = measured.rho_n, measured.q_mean
    ref = _checked_reference(model, grid, point.Q, tol)

    x_c = q_mean - ground_moments(model, grid, tol).q0
    ehrenfest = abs(dPdt + potential_slope_at(V, x_c))

    try:
        sl = _residual_support(rho)
    except InvalidFieldError:
        hjm = float("inf")  # support collapsed: coherence entirely lost
    else:
        # the phase and the ansatz's d_t S only on the support
        vals = measured.vals_n[sl]
        s = _unwrapped_phase(vals, rho[sl], 0, len(vals) - 1)
        dQdt = point.P / model.mass
        s_t = dPdt * grid.points[sl] - 0.5 * (dPdt * point.Q + point.P * dQdt)
        hjm = _phase_residual(s_t, hbar * s, rho[sl], V.values[sl], w[sl],
                              grid.dx, model.mass, hbar)

    return DiagnosticsRecord(
        t=point.t,
        norm=measured.nrm,
        q_mean=q_mean,
        p_mean=measured.p_mean,
        dq2=measured.x2 - q_mean * q_mean,
        overlap=_bhattacharyya(w, rho, ref),
        ehrenfest_residual=ehrenfest,
        hjm_residual=hjm,
        boundary_mass=boundary_mass(rho, grid),
        l2_distance=_l2_distance(w, rho, ref),
    )
