"""Displaced ground states and their density/phase decomposition.

A label point (Q, P) displaces a real ground state psi0 into the boosted,
translated packet

    psi(x) = exp(-i P Q / 2 hbar) exp(i P x / hbar) psi0(x - Q),

whose density is the translated ground density and whose phase is linear,
S(x) = P x - P Q / 2. Q and P are, by construction, the position-mean shift
and the momentum mean of the packet; both are verified on every state built
here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisplacementError
from .grids import ComplexField, Grid, RealField, _peak_segment, moments
from .models import PotentialModel, _normalized_ground_state, ground_moments
from .tolerances import DEFAULT_TOLERANCES, Tolerances

INVARIANT_TOL = 1e-6  # |<x> - q0 - Q| and |<p> - P| allowed on construction
# fractions of the peak density
PHASE_FLOOR = 1e-12  # below it the phase is undefined and extrapolated
PHASE_JUMP_FLOOR = 1e-6  # from it up, a phase jump near pi is ambiguous


@dataclass(frozen=True)
class ClassicalPoint:
    """Wave-packet center label: coordinate displacement Q, momentum P, time t."""

    Q: float
    P: float
    t: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.Q, self.P, self.t))):
            raise DisplacementError("classical point must be finite")


@dataclass(frozen=True)
class GCSState:
    """A displaced ground state with its label point."""

    psi: ComplexField
    point: ClassicalPoint


def gcs_from_model(
    model: PotentialModel,
    grid: Grid,
    point: ClassicalPoint,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GCSState:
    """The ground state of model translated by Q and boosted by P.

    psi0 is re-evaluated in closed form at x - Q, so the translation has no
    interpolation or aliasing error. Raises CoverageError when the packet
    touches the grid boundary and DisplacementError when the state fails
    its defining moments <x> - q0 = Q, <p> = P.
    """
    hbar = model.hbar
    shifted = _normalized_ground_state(
        model, grid, point.Q, tol, f"displaced packet (Q = {point.Q:g})"
    )
    phase = np.exp(1j * (point.P * grid.points - 0.5 * point.P * point.Q) / hbar)
    state = GCSState(psi=ComplexField(grid, shifted * phase), point=point)
    x_mean, _, p_mean = moments(state.psi, hbar)
    dx_err = abs(x_mean - ground_moments(model, grid, tol).q0 - point.Q)
    dp_err = abs(p_mean - point.P)
    if dx_err > INVARIANT_TOL or dp_err > INVARIANT_TOL:
        raise DisplacementError(
            f"displaced state off its label: |<x> - q0 - Q| = {dx_err:.3e}, "
            f"|<p> - P| = {dp_err:.3e}"
        )
    return state


@dataclass(frozen=True)
class PolarFields:
    """Density and unwrapped phase of a wavefunction (see density_phase)."""

    rho: RealField
    S: RealField


def density_phase(psi: ComplexField, hbar: float = 1.0) -> PolarFields:
    """Polar decomposition psi = sqrt(rho) exp(i S / hbar).

    The phase is unwrapped from the density peak outward over the region
    where rho exceeds PHASE_FLOOR times its peak (the valid region); beyond
    it, S is extended linearly and carries no information. S is defined up
    to a global multiple of 2 pi hbar, anchored to the principal value at
    the peak. Jumps close to pi between adjacent samples where rho is at
    least PHASE_JUMP_FLOOR times its peak are ambiguous: the valid region
    ends at the nearest one on each side of the peak. Jumps in thinner
    tails are unwrapped best effort.
    """
    rho = np.abs(psi.values) ** 2
    left, right = _peak_segment(rho, PHASE_FLOOR * rho.max())
    s = _unwrapped_phase(psi.values, rho, left, right)
    return PolarFields(rho=RealField(psi.grid, rho), S=RealField(psi.grid, hbar * s))


def _unwrapped_phase(vals, rho, left, right):
    """Unwrap a run: the phase S / hbar of the complex samples vals over
    the run [left, right] around the peak of rho = |vals|^2, as
    density_phase describes, extended linearly from its valid part [lo, hi]
    to both ends of vals; returns s. record hands in only the
    residual's support, inside the PHASE_FLOOR run: no jump out of it
    reaches PHASE_JUMP_FLOOR, so there S is density_phase's up to a
    constant and round-off."""
    n = len(vals)
    peak = int(rho.argmax())
    raw = np.angle(vals[left : right + 1])
    d = raw[1:] - raw[:-1]
    d -= 2.0 * np.pi * np.rint(d / (2.0 * np.pi))
    lo, hi = 0, d.size
    too_big = np.abs(d) > 0.9 * np.pi
    if too_big.any():
        # jumps near pi are ambiguous, but only where the state carries
        # amplitude; tail samples hold numerical dust with random phases.
        # The valid run ends at the nearest ambiguous jump on each side;
        # the wrapped jumps inside it are a slice of d
        seg_rho = rho[left : right + 1]
        too_big &= np.minimum(seg_rho[:-1], seg_rho[1:]) >= PHASE_JUMP_FLOOR * rho[peak]
        bad = np.flatnonzero(too_big)
        above = bad[bad >= peak - left]
        below = bad[bad < peak - left]
        lo = int(below[-1]) + 1 if below.size else 0
        hi = int(above[0]) if above.size else d.size
    s_seg = np.concatenate(([raw[lo]], raw[lo] + np.cumsum(d[lo:hi])))
    lo, hi = left + lo, left + hi
    # anchor the global branch to the principal value at the peak
    s_seg -= 2.0 * np.pi * round((s_seg[peak - lo] - raw[peak - left]) / (2.0 * np.pi))
    s = np.empty(n)
    s[lo : hi + 1] = s_seg

    # linear extension beyond the valid run
    if lo > 0:
        slope = s[lo + 1] - s[lo] if hi > lo else 0.0
        s[:lo] = s[lo] - slope * np.arange(lo, 0, -1)
    if hi < n - 1:
        slope = s[hi] - s[hi - 1] if hi > lo else 0.0
        s[hi + 1 :] = s[hi] + slope * np.arange(1, n - hi)

    return s
