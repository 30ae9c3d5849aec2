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

from .errors import (
    CoverageError,
    DisplacementError,
    PhaseUnwrapError,
)
from .grids import (
    ComplexField,
    Grid,
    RealField,
    _peak_segment,
    _quintic_weights,
    boundary_mass,
    moments,
    quadrature_weights,
)
from .models import (
    PotentialModel,
    _normalized_ground_state,
    ground_moments,
    require_coverage,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

INVARIANT_TOL = 1e-6  # |<x> - q0 - Q| and |<p> - P| allowed on construction
NORM_SHIFT_TOL = 1e-8  # norm loss allowed in the translation itself
SPECTRAL_SHIFT_MASS = 1e-12  # edge mass up to which spectral translation is alias-free
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
    """A displaced ground state with its label point.

    shift_method records how the translation was evaluated: "spectral",
    "quintic", "analytic" or "none" (Q = 0). base_mean is the position mean
    of the undisplaced state (q0), so <x> = base_mean + Q.
    """

    psi: ComplexField
    point: ClassicalPoint
    model: PotentialModel | None = None
    shift_method: str = "none"
    base_mean: float = 0.0


def alpha_label(point: ClassicalPoint, hbar: float = 1.0) -> complex:
    """Bookkeeping label sqrt(2 hbar) (Q + i P); never used in numerics."""
    return math.sqrt(2.0 * hbar) * complex(point.Q, point.P)


def _translate_spectral(values: np.ndarray, grid: Grid, shift: float) -> np.ndarray:
    n = grid.n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    out = np.fft.ifft(np.fft.fft(values) * np.exp(-1j * k * shift))
    return out.real if not np.iscomplexobj(values) else out


def _translate_quintic(values: np.ndarray, grid: Grid, shift: float) -> np.ndarray:
    # target x_i - shift lies at fractional index i + pos; its local quintic
    # runs through nodes i + j .. i + j + 5 with the same weights for every
    # i, so the translation is one 6-tap filter. Samples beyond the grid
    # read as 0; full[i + j + 5] is target i.
    pos = -shift / grid.dx
    j = math.floor(pos) - 2
    full = np.convolve(values, _quintic_weights(pos - j)[::-1])
    x = grid.points
    xs = x - shift
    inside = np.flatnonzero((xs >= x[0]) & (xs <= x[-1]))
    out = np.zeros_like(values)
    out[inside] = full[inside + j + 5]
    return out


def displace(
    psi0: RealField,
    point: ClassicalPoint,
    hbar: float = 1.0,
    model: PotentialModel | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GCSState:
    """Apply the displacement (Q, P) to a normalized real ground state.

    The translation psi0(x - Q) is evaluated spectrally when the edge mass
    of psi0 is at most SPECTRAL_SHIFT_MASS, so that the periodic embedding
    is alias-free, and otherwise by the local quintic through the 6 samples
    bracketing each target (samples beyond the grid read as 0, targets off
    the grid are 0); the choice lands in the state's shift_method. The
    phase factors exp(-i P Q / 2 hbar) exp(i P x / hbar) are exact.

    Raises NormalizationError when psi0 is not normalized, CoverageError
    when the shifted packet touches the grid boundary, and
    DisplacementError when the constructed state fails its defining
    moments <x> - q0 = Q, <p> = P.
    """
    grid = psi0.grid
    base_mean = moments(psi0, hbar)[0]
    w = quadrature_weights(grid)
    rho0 = psi0.values**2
    nrm0 = float(np.dot(w, rho0))

    if point.Q == 0.0:
        shifted = psi0.values.copy()
        method = "none"
    elif boundary_mass(rho0, grid) <= SPECTRAL_SHIFT_MASS:
        shifted = _translate_spectral(psi0.values, grid, point.Q)
        method = "spectral"
    else:
        shifted = _translate_quintic(psi0.values, grid, point.Q)
        method = "quintic"

    shifted_norm = float(np.dot(w, shifted * shifted))
    require_coverage(
        shifted * shifted, grid, tol, f"displaced packet (Q = {point.Q:g})"
    )
    if abs(shifted_norm - nrm0) > NORM_SHIFT_TOL:
        raise CoverageError(
            f"translation by Q = {point.Q:g} lost norm "
            f"({nrm0:.12g} -> {shifted_norm:.12g}); grid too small or aliased"
        )

    return _boosted_state(
        grid, shifted, point, hbar,
        model=model, shift_method=method, base_mean=base_mean,
    )


def gcs_from_model(
    model: PotentialModel,
    grid: Grid,
    point: ClassicalPoint,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GCSState:
    """Displaced ground state with the translation evaluated analytically.

    Preferred constructor when the closed-form ground state is available:
    re-evaluating psi0 at x - Q avoids any interpolation or aliasing error.
    """
    shifted = _normalized_ground_state(
        model, grid, point.Q, tol, f"displaced packet (Q = {point.Q:g})"
    )
    return _boosted_state(
        grid, shifted, point, model.hbar,
        model=model, shift_method="analytic",
        base_mean=ground_moments(model, grid, tol).q0,
    )


def _boosted_state(grid, shifted, point, hbar, **fields) -> GCSState:
    """The translated samples times exp(i (P x - P Q / 2) / hbar), as a
    GCSState with the given fields, checked against its label point."""
    phase = np.exp(1j * (point.P * grid.points - 0.5 * point.P * point.Q) / hbar)
    state = GCSState(psi=ComplexField(grid, shifted * phase), point=point, **fields)
    x_mean, _, p_mean = moments(state.psi, hbar)
    dx_err = abs(x_mean - state.base_mean - state.point.Q)
    dp_err = abs(p_mean - state.point.P)
    if dx_err > INVARIANT_TOL or dp_err > INVARIANT_TOL:
        raise DisplacementError(
            f"displaced state off its label: |<x> - q0 - Q| = {dx_err:.3e}, "
            f"|<p> - P| = {dp_err:.3e}"
        )
    return state


@dataclass(frozen=True)
class PolarFields:
    """Density and unwrapped phase of a wavefunction.

    valid marks samples whose density exceeds PHASE_FLOOR times its peak;
    outside it the phase is a linear extrapolation and carries no
    information.
    """

    rho: RealField
    S: RealField
    valid: np.ndarray


def density_phase(
    state: GCSState | ComplexField,
    hbar: float = 1.0,
    on_ambiguity: str = "raise",
) -> PolarFields:
    """Polar decomposition psi = sqrt(rho) exp(i S / hbar).

    The phase is unwrapped from the density peak outward over the region
    where rho exceeds PHASE_FLOOR times its peak; below that it is extended
    linearly and flagged invalid. S is defined up to a global multiple of
    2 pi hbar, anchored to the principal value at the peak. Jumps close to
    pi between adjacent valid samples where rho is at least
    PHASE_JUMP_FLOOR times its peak are ambiguous: on_ambiguity="raise"
    aborts with PhaseUnwrapError, "mask" truncates the valid region at the
    offending jump instead (useful when decomposing heavily spread states
    for inspection). Jumps in thinner tails are unwrapped best effort.
    """
    if on_ambiguity not in ("raise", "mask"):
        raise ValueError(f"unknown ambiguity policy {on_ambiguity!r}")
    if isinstance(state, GCSState):
        psi = state.psi
        if state.model is not None:
            hbar = state.model.hbar
    else:
        psi = state
    rho = np.abs(psi.values) ** 2
    left, right = _peak_segment(rho, PHASE_FLOOR * rho.max())
    s, lo, hi = _unwrapped_phase(psi.values, rho, left, right, on_ambiguity)
    valid = np.zeros(psi.grid.n, dtype=bool)
    valid[lo : hi + 1] = True
    return PolarFields(
        rho=RealField(psi.grid, rho), S=RealField(psi.grid, hbar * s), valid=valid
    )


def _unwrapped_phase(vals, rho, left, right, on_ambiguity):
    """Unwrap a run: the phase S / hbar of the complex samples vals over
    the run [left, right] around the peak of rho = |vals|^2, as
    density_phase describes, extended linearly from its valid part [lo, hi]
    to both ends of vals; returns s, lo, hi. record hands in only the
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
        # amplitude; tail samples hold numerical dust with random phases
        seg_rho = rho[left : right + 1]
        too_big &= np.minimum(seg_rho[:-1], seg_rho[1:]) >= PHASE_JUMP_FLOOR * rho[peak]
    if too_big.any():
        if on_ambiguity == "raise":
            i = int(np.argmax(too_big))
            raise PhaseUnwrapError(left + i + 1, float(d[i]))
        # truncate the valid run at the nearest ambiguous jump on each side;
        # the wrapped jumps inside it are a slice of d
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

    return s, lo, hi
