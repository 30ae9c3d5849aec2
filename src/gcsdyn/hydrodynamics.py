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
    _potential_into,
    ground_energy,
    reference_density,
    require_coverage,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# fractions of the peak density
CURVATURE_FLOOR = 1e-10  # below it the quantum curvature is clamped
RESIDUAL_FLOOR = 1e-7  # bounds the support of the phase-equation residual


@dataclass(frozen=True)
class CurvatureResult:
    """Quantum curvature F with its evaluation mask.

    Outside `valid` (density at or below CURVATURE_FLOOR times its peak) F
    is clamped to its last evaluated value; those samples carry no
    information.
    """

    F: RealField
    valid: np.ndarray


@dataclass(frozen=True)
class PotentialSnapshot:
    """The reconstructed potential at one instant of the classical motion."""

    V: RealField


def quantum_curvature(rho: RealField) -> CurvatureResult:
    """F = (sqrt(rho))'' / sqrt(rho), clamped where the density underflows.

    Evaluated in log space, F = g'' + (g')^2 with g = ln(rho) / 2, which is
    the same quantity but does not amplify the tail where rho spans many
    decades. Densities with interior zeros (nodes) are rejected; displaced
    ground densities are nodeless.
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
    f = np.empty(rho.grid.n)
    f[i0 : i1 + 1] = f_seg
    f[:i0] = f_seg[0]
    f[i1 + 1 :] = f_seg[-1]
    valid = np.zeros(rho.grid.n, dtype=bool)
    valid[i0 : i1 + 1] = True
    return CurvatureResult(F=RealField(rho.grid, f), valid=valid)


def _log_curvature(rho: np.ndarray, dx: float) -> np.ndarray:
    g = 0.5 * np.log(rho)
    g1 = _derivative_arrays(g, dx, 1, "7pt")
    g2 = _derivative_arrays(g, dx, 2, "7pt")
    return g2 + g1 * g1


def assemble_potential(
    model: PotentialModel,
    point: ClassicalPoint,
    dPdt: float,
    grid: Grid,
    curvature: str = "analytic",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PotentialSnapshot:
    """Build V(x, t) for the classical state (Q, P, dP/dt).

    curvature="analytic" evaluates the curvature term through the identity
    (hbar^2/2m) F(xi) = V_model(xi) - E0; curvature="numeric" differentiates
    the translated ground density instead and exists as a cross-check.
    """
    rho_shift = reference_density(model, grid, point.Q)
    require_coverage(rho_shift, grid, tol, f"density shifted by Q = {point.Q:g}")

    if curvature == "analytic":
        v = _assembler(model, grid)(point.Q, point.P, dPdt)
    elif curvature == "numeric":
        res = quantum_curvature(RealField(grid, rho_shift))
        v = (model.hbar**2 / (2.0 * model.mass)) * res.F.values
        scratch = np.empty(grid.n)
        _add_center_terms(v, grid.points, point.Q, point.P, dPdt, model.mass, scratch)
    else:
        raise ValueError(f"unknown curvature evaluation {curvature!r}")

    return PotentialSnapshot(V=RealField(grid, v))


def _add_center_terms(v, x, q, p, dPdt, m, scratch):
    """v += -(dP/dt) x - P^2/2m + ((dQ/dt) P + (dP/dt) Q)/2, in place.

    scratch is overwritten.
    """
    np.multiply(x, dPdt, out=scratch)
    np.subtract(v, scratch, out=v)
    np.subtract(v, p**2 / (2.0 * m), out=v)
    return np.add(v, 0.5 * (p / m * p + dPdt * q), out=v)


def _assembler(model: PotentialModel, grid: Grid):
    """The analytic assembly of V(x, t), without the coverage check.

    Returns fill(Q, P, dPdt), which writes V(x, t) into one array it reuses
    on every call and returns that array. This closed form is the snapshot
    potential: assemble_potential and the feedback loop's frames (the V the
    diagnostics read and potential_snapshots.csv shows) call it. The
    quantum step uses _stepping_basis instead.
    """
    x = grid.points
    e0 = ground_energy(model)
    out = np.empty(grid.n)
    xi = np.empty(grid.n)

    def fill(q, p, dPdt):
        np.subtract(x, q, out=xi)
        _potential_into(model, xi, out)
        np.subtract(out, e0, out=out)
        return _add_center_terms(out, x, q, p, dPdt, model.mass, xi)

    return fill


def _stepping_basis(model: PotentialModel, grid: Grid):
    """V(x, t) for the quantum step, as coefficients of (Q, P, dP/dt) times
    fixed rows of x: x^2, x, 1 (harmonic), or u^2, u, x, 1 with
    u = exp(-a x) (Morse, as U0 (1 - e^{aQ} u)^2 = U0 (e^{2aQ} u^2 -
    2 e^{aQ} u + 1); u's exponent is capped at _EXP_CAP / 2 so that u^2
    stays finite).

    Returns (rows, coefficients), the constant row last.
    coefficients(Q, P, dPdt, shift, scale) takes arrays of classical states
    and returns their coefficients for the affine map (V + shift) * scale,
    one row per state, with no scratch array beyond that table: state s
    has (V + shift) * scale = table[s] @ rows. The Morse expansion cancels
    large terms, so it matches _assembler only relative to |V| (1e-4
    absolute in the inner wall, where V ~ 1e10); below the kinetic ceiling,
    where the loop clamps V, the two agree to round-off.
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

    def coefficients(q, p, dPdt, shift, scale):
        table = np.empty((len(q), len(rows)))
        lead, lin, *_, c = table.T
        # the x-free terms 0.5 (P/m P + dPdt Q) - P^2/2m - E0, lead as scratch
        np.divide(p, m, out=c)
        np.multiply(c, p, out=c)
        np.multiply(dPdt, q, out=lead)
        np.add(c, lead, out=c)
        np.multiply(c, 0.5, out=c)
        np.multiply(p, p, out=lead)
        np.divide(lead, 2.0 * m, out=lead)
        np.subtract(c, lead, out=c)
        np.subtract(c, e0, out=c)
        if model.kind == "harmonic":  # 0.5 k, -k Q - dPdt, 0.5 k Q^2 + c
            np.multiply(q, 0.5 * k, out=lead)
            np.multiply(lead, q, out=lead)
            np.add(lead, c, out=c)
            np.multiply(q, -k, out=lin)
            np.subtract(lin, dPdt, out=lin)
            lead[...] = 0.5 * k
        else:  # U0 g^2, -2 U0 g, -dPdt, U0 + c, with g = e^{aQ}
            np.add(u0, c, out=c)
            np.negative(dPdt, out=table[:, 2])
            g = np.exp(np.multiply(q, a, out=lin), out=lin)
            np.multiply(g, u0, out=lead)
            np.multiply(lead, g, out=lead)
            np.multiply(g, -2.0 * u0, out=lin)
        np.add(c, shift, out=c)
        return np.multiply(table, scale, out=table)

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
    flux = rho.values * _derivative_arrays(S.values, dx, 1, "7pt")
    r = rho_t.values + _derivative_arrays(flux, dx, 1, "7pt") / m
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
    s_x = _derivative_arrays(s, dx, 1, "7pt")
    curv = _log_curvature(rho, dx)
    r = s_t + s_x * s_x / (2.0 * m) - (hbar**2 / (2.0 * m)) * curv + v
    return _relative_norm(w * rho, r, v)


def _relative_norm(w, r, ref) -> float:
    """sqrt(sum w r^2) / sqrt(sum w ref^2); the bare numerator if ref is 0."""
    num = math.sqrt(float(np.dot(w, r * r)))
    den = math.sqrt(float(np.dot(w, ref**2)))
    return num / den if den != 0.0 else num
