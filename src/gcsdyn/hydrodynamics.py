"""Hydrodynamic machinery: quantum curvature, potential assembly, residuals.

Writing psi = sqrt(rho) exp(i S / hbar) splits the Schroedinger equation
into a continuity equation for rho,

    d_t rho + (1/m) d_x (rho d_x S) = 0,

and a Hamilton-Jacobi equation for S with a quantum term,

    d_t S + (d_x S)^2 / 2m - (hbar^2 / 2m) (sqrt(rho))'' / sqrt(rho) = -V.

For a displaced ground density rho(x - Q) with linear phase S = P x - P Q/2,
both hold exactly when the potential is rebuilt around the moving center:

    V(x, t) = (hbar^2 / 2m) F(x - Q) - (dP/dt) x - P^2 / 2m
              + ((dQ/dt) P + (dP/dt) Q) / 2,

with F = (sqrt(rho))'' / sqrt(rho) and the kinematic closure dQ/dt = P / m
(forced by the continuity equation; asserted in tests, not assumed
silently). For ground densities the curvature term equals V(xi) - E0
pointwise, which is how the assembled potential is evaluated analytically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .displacement import ClassicalPoint
from .errors import InvalidFieldError, NodeError, NormalizationError
from .grids import (
    NORM_TOL,
    Grid,
    RealField,
    _derivative_arrays,
    _peak_segment,
    integrate,
    quadrature_weights,
)
from .models import (
    _EXP_CAP,
    PotentialModel,
    ground_energy,
    potential_value,
    reference_density,
    require_coverage,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# fractions of the peak density
CURVATURE_FLOOR = 1e-10  # below it the quantum curvature is clamped
RESIDUAL_FLOOR = 1e-7  # bounds the support of the phase-equation residual


@dataclass(frozen=True)
class PotentialSnapshot:
    """The reconstructed potential at one instant of the classical motion."""

    V: RealField


def quantum_curvature(rho: RealField) -> RealField:
    """F = (sqrt(rho))'' / sqrt(rho), clamped where the density underflows.

    Evaluated in log space, F = g'' + (g')^2 with g = ln(rho) / 2, which is
    the same quantity but does not amplify the tail where rho spans many
    decades. Where the density is at or below CURVATURE_FLOOR times its
    peak, F is clamped to its last evaluated value; those samples carry no
    information. Densities with interior zeros (nodes) are rejected;
    displaced ground densities are nodeless.
    """
    vals = rho.values
    if np.any(vals < 0.0):
        worst = float(vals.min())
        if worst < -1e-14 * float(vals.max()):
            raise InvalidFieldError(f"density has negative samples (min {worst:.3e})")
        vals = np.maximum(vals, 0.0)
    mass = integrate(RealField(rho.grid, vals))
    if abs(mass - 1.0) > NORM_TOL:
        raise NormalizationError(mass, NORM_TOL, "density")

    peak = float(vals.max())
    mask = vals > CURVATURE_FLOOR * peak
    idx = np.flatnonzero(mask)
    if idx.size < 8:
        raise InvalidFieldError("density above the curvature floor on < 8 samples")
    i0, i1 = int(idx[0]), int(idx[-1])
    if not np.all(mask[i0 : i1 + 1]):
        hole = i0 + int(np.argmin(mask[i0 : i1 + 1]))
        raise NodeError(f"density vanishes in the interior near sample {hole}")

    f_seg = _log_curvature(vals[i0 : i1 + 1], rho.grid.dx)
    f = np.pad(f_seg, (i0, rho.grid.n - 1 - i1), mode="edge")  # clamped outside
    return RealField(rho.grid, f)


def _log_curvature(rho: np.ndarray, dx: float) -> np.ndarray:
    g = 0.5 * np.log(rho)
    g1 = _derivative_arrays(g, dx, 1)
    g2 = _derivative_arrays(g, dx, 2)
    return g2 + g1 * g1


def assemble_potential(
    model: PotentialModel,
    point: ClassicalPoint,
    dPdt: float,
    grid: Grid,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PotentialSnapshot:
    """Build V(x, t) for the classical state (Q, P, dP/dt).

    The curvature term is evaluated through the identity
    (hbar^2/2m) F(xi) = V_model(xi) - E0; quantum_curvature of the
    translated ground density gives the same term numerically. Raises
    CoverageError when that density touches the grid edges.
    """
    rho_shift = reference_density(model, grid, point.Q)
    require_coverage(rho_shift, grid, tol, f"density shifted by Q = {point.Q:g}")
    v = _closed_form(model, grid, point.Q, point.P, dPdt)
    return PotentialSnapshot(V=RealField(grid, v))


def _closed_form(model: PotentialModel, grid: Grid, q, p, dPdt) -> np.ndarray:
    """V(x, t) in closed form, without the coverage check: the snapshot
    potential of assemble_potential and of propagation's snapshots (the V
    the diagnostics read and potential_snapshots.csv shows). The quantum step
    uses _stepping_basis instead."""
    x, m = grid.points, model.mass
    v = potential_value(model, x - q) - ground_energy(model)
    return v - x * dPdt - p**2 / (2.0 * m) + 0.5 * (p / m * p + dPdt * q)


def _stepping_basis(model: PotentialModel, grid: Grid):
    """V(x, t) for the quantum step, as coefficients of (Q, P, dP/dt) times
    fixed rows of x: x^2, x, 1 (harmonic), or u^2, u, x, 1 with
    u = exp(-a x) (Morse, as U0 (1 - e^{aQ} u)^2 = U0 (e^{2aQ} u^2 -
    2 e^{aQ} u + 1); u's exponent is capped at _EXP_CAP / 2 so that u^2
    stays finite).

    Returns (rows, coefficients), the constant row last. coefficients(Q, P,
    dPdt, scale) takes arrays of classical states and returns a new table of
    their coefficients for V * scale, one row per state: state s has
    V * scale = table[s] @ rows. The
    Morse expansion cancels large terms, so it matches _closed_form only
    relative to |V| (1e-4 absolute in the inner wall, where V ~ 1e10); below
    the kinetic ceiling, where the loop clamps V, the two agree to round-off.
    """
    x = grid.points
    m, e0 = model.mass, ground_energy(model)
    if model.kind == "harmonic":
        k = m * model.omega**2
        rows = np.stack([x * x, x, np.ones_like(x)])
    else:
        a, u0 = model.a, model.well_depth
        u = np.exp(np.minimum(-a * x, 0.5 * _EXP_CAP))
        rows = np.stack([u * u, u, x, np.ones_like(x)])

    def coefficients(q, p, dPdt, scale):
        table = np.empty((len(q), len(rows)))  # not a column_stack: +0.08 MiB RSS
        # the x-free terms c = 0.5 (P/m P + dPdt Q) - P^2/2m - E0, in the last column
        table[:, -1] = (p / m * p + dPdt * q) * 0.5 - p * p / (2.0 * m) - e0
        if model.kind == "harmonic":  # 0.5 k, -k Q - dPdt, 0.5 k Q^2 + c
            table[:, 0], table[:, 1] = 0.5 * k, -k * q - dPdt
            table[:, 2] += 0.5 * k * q * q
        else:  # U0 g^2, -2 U0 g, -dPdt, U0 + c, with g = e^{aQ}
            g = np.exp(q * a)
            table[:, 0], table[:, 1], table[:, 2] = u0 * g * g, -2.0 * u0 * g, -dPdt
            table[:, 3] += u0
        table *= scale
        return table

    return rows, coefficients


def continuity_residual(
    rho_t: RealField, rho: RealField, S: RealField, m: float
) -> float:
    """L2 norm of d_t rho + (1/m) d_x (rho d_x S), relative to ||d_t rho||.

    Falls back to the absolute norm when d_t rho vanishes identically.
    Both first derivatives use the sixth-order 7-point stencil, so the
    check's own spatial error stays far below its bound; the flux
    rho * d_x S decays with the density, so no periodic embedding is needed.
    """
    grid = rho.grid
    dx = grid.dx
    flux = rho.values * _derivative_arrays(S.values, dx, 1)
    r = rho_t.values + _derivative_arrays(flux, dx, 1) / m
    return _relative_norm(quadrature_weights(grid), r, rho_t.values)


def hjm_residual(
    S_t: RealField,
    S: RealField,
    rho: RealField,
    V: RealField,
    m: float,
    hbar: float,
) -> float:
    """Density-weighted residual of the phase equation.

    Residual r = d_t S + (d_x S)^2 / 2m - (hbar^2/2m) F + V, reported as
    sqrt(int rho r^2) / sqrt(int rho V^2). The support is the contiguous
    region around the density peak where rho exceeds RESIDUAL_FLOOR times
    its peak; deeper tails of measured states hold numerical dust whose
    differentiated phase would dominate the norm. Only the support of S_t
    and S is read, so a phase unwrapped on the support alone serves.
    """
    vals = np.maximum(rho.values, 0.0)
    sl = _residual_support(vals)
    w = quadrature_weights(rho.grid)[sl]
    return _phase_residual(S_t.values[sl], S.values[sl], vals[sl], V.values[sl],
                           w, rho.grid.dx, m, hbar)


def _residual_support(rho: np.ndarray) -> slice:
    """The run around the peak of the density samples rho above
    RESIDUAL_FLOOR times the peak, as a slice of at least 8 samples."""
    i0, i1 = _peak_segment(rho, RESIDUAL_FLOOR * float(rho.max()))
    if i1 - i0 < 7:
        raise InvalidFieldError("density above the residual floor on < 8 samples")
    return slice(i0, i1 + 1)


def _phase_residual(s_t, s, rho, v, w, dx, m, hbar) -> float:
    """hjm_residual on the support's samples and quadrature weights w."""
    s_x = _derivative_arrays(s, dx, 1)
    curv = _log_curvature(rho, dx)
    r = s_t + s_x * s_x / (2.0 * m) - (hbar**2 / (2.0 * m)) * curv + v
    return _relative_norm(w * rho, r, v)


def _relative_norm(w, r, ref) -> float:
    """sqrt(sum w r^2) / sqrt(sum w ref^2); the bare numerator if ref is 0."""
    num = math.sqrt(float(np.dot(w, r * r)))
    den = math.sqrt(float(np.dot(w, ref**2)))
    return num / den if den != 0.0 else num
