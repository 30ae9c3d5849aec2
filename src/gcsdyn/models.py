"""Analytic potential families with exact ground states.

Two families are built in:

* harmonic -- V(x) = (1/2) m omega^2 x^2, Gaussian ground state.
* morse    -- V(x) = U0 (1 - exp(-a x))^2 with depth U0 = lam^2 * E_scale,
  E_scale = (hbar a)^2 / (2 m). The closed-form ground state is wired for
  the well-depth index lam = 1; other depths are rejected with
  InvalidFieldError.

Natural units hbar = m = 1 are the defaults; both are configurable so unit
scaling can be exercised. All models are immutable values and every
operation here is pure.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CoverageError, InvalidFieldError
from .grids import (
    BOUNDARY_POINTS,
    Grid,
    RealField,
    boundary_mass,
    moments,
    quadrature_weights,
    second_derivative,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# decay constant of the Morse ground state in units of its spread
MORSE_GAMMA = math.pi / (2.0 * math.sqrt(6.0))

_EXP_CAP = 350.0  # keeps (1 - e^z)^2 finite in double precision


@dataclass(frozen=True)
class GroundStateInfo:
    """Ground-state position mean q0 (zero for symmetric wells, a positive
    constant for Morse) and position variance dq2."""

    q0: float
    dq2: float


@dataclass(frozen=True)
class PotentialModel:
    """A potential family instance with its analytic ground state.

    Use the classmethods `harmonic` and `morse` instead of the raw
    constructor; they fill in the irrelevant parameters.
    """

    kind: str
    mass: float = 1.0
    hbar: float = 1.0
    omega: float | None = None
    a: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.mass <= 0 or self.hbar <= 0:
            raise InvalidFieldError("mass and hbar must be positive")
        if self.kind == "harmonic":
            if self.omega is None or self.omega <= 0:
                raise InvalidFieldError("harmonic model needs omega > 0")
        elif self.kind == "morse":
            if self.a is None or self.a <= 0:
                raise InvalidFieldError("morse model needs a > 0")
            if self.lam is None or self.lam <= 0.5:
                raise InvalidFieldError(
                    "morse model needs lam > 1/2 for a bound state"
                )
            if self.lam != 1.0:
                raise InvalidFieldError(
                    "closed-form Morse ground state is wired for lam = 1; "
                    f"got lam = {self.lam}"
                )
        else:
            raise InvalidFieldError(f"unknown potential kind {self.kind!r}")

    @classmethod
    def harmonic(cls, omega: float = 1.0, mass: float = 1.0, hbar: float = 1.0):
        return cls(kind="harmonic", mass=mass, hbar=hbar, omega=omega)

    @classmethod
    def morse(cls, a: float = 1.0, lam: float = 1.0, mass: float = 1.0, hbar: float = 1.0):
        return cls(kind="morse", mass=mass, hbar=hbar, a=a, lam=lam)

    # -- derived scales ----------------------------------------------------

    @property
    def energy_scale(self) -> float:
        """(hbar a)^2 / 2m for Morse; hbar omega for harmonic."""
        if self.kind == "morse":
            return (self.hbar * self.a) ** 2 / (2.0 * self.mass)
        return self.hbar * self.omega

    @property
    def well_depth(self) -> float:
        if self.kind != "morse":
            raise InvalidFieldError("well_depth is a Morse parameter")
        return self.lam**2 * self.energy_scale

    @property
    def dq(self) -> float:
        """Ground-state position spread sqrt(dq2)."""
        if self.kind == "morse":
            return 2.0 * MORSE_GAMMA / self.a
        return math.sqrt(self.hbar / (2.0 * self.mass * self.omega))

    @property
    def dq2(self) -> float:
        return self.dq**2


def potential_value(model: PotentialModel, x):
    """V(x) for scalars or arrays."""
    x = np.asarray(x, dtype=np.float64)
    v = np.empty_like(x)
    if model.kind == "harmonic":
        np.multiply(x, 0.5 * model.mass * model.omega**2, out=v)
        np.multiply(v, x, out=v)
    else:
        np.multiply(x, -model.a, out=v)
        np.minimum(v, _EXP_CAP, out=v)
        np.exp(v, out=v)
        np.subtract(1.0, v, out=v)
        np.square(v, out=v)
        np.multiply(v, model.well_depth, out=v)
    return v if v.ndim else float(v)


def potential_gradient(model: PotentialModel, x):
    """dV/dx for scalars or arrays."""
    x = np.asarray(x, dtype=np.float64)[()]  # a scalar: np.float64, not 0-d
    if model.kind == "harmonic":
        g = model.mass * model.omega**2 * x
    else:
        # 2 a U0 (1 - e) e with e = exp(-a x), each exponent capped
        a = model.a
        e1 = np.exp(np.minimum(-a * x, _EXP_CAP))
        e2 = np.exp(np.minimum(-2.0 * a * x, _EXP_CAP))
        g = 2.0 * a * model.well_depth * (e1 - e2)
    return g if g.ndim else float(g)


def ground_state_values(model: PotentialModel, x) -> np.ndarray:
    """Analytic ground-state wavefunction samples (real, nonnegative).

    The returned samples carry the closed-form normalization constant, so
    on an adequate grid their squared quadrature is 1 to quadrature
    accuracy.
    """
    x = np.asarray(x, dtype=np.float64)
    if model.kind == "harmonic":
        s = model.mass * model.omega / (math.pi * model.hbar)
        return s**0.25 * np.exp(-model.mass * model.omega * x * x / (2.0 * model.hbar))
    # Morse, lam = 1: exponent -a x / 2 - exp(-a x), constant (4 a^2)^(1/4)
    a = model.a
    inner = np.exp(np.minimum(-a * x, 700.0))
    expo = -0.5 * a * x - inner
    return (4.0 * a * a) ** 0.25 * np.exp(np.maximum(expo, -745.0))


def ground_density_values(model: PotentialModel, x) -> np.ndarray:
    psi = ground_state_values(model, x)
    return psi * psi


def reference_density(model: PotentialModel, grid: Grid, q: float) -> np.ndarray:
    """Ground density translated by q, normalized to 1 on the grid."""
    ref = ground_density_values(model, grid.points - q)
    return ref / _grid_mass(ref, grid, f"ground density shifted by Q = {q:g}")


def _grid_mass(rho: np.ndarray, grid: Grid, what: str) -> float:
    """The quadrature of the density rho; CoverageError if it vanishes."""
    mass = float(np.dot(quadrature_weights(grid), rho))
    if not mass > 0.0:
        raise CoverageError(f"{what} vanishes on every grid sample")
    return mass


def require_coverage(rho: np.ndarray, grid: Grid, tol: Tolerances, what: str):
    """Raise CoverageError when the normalized density rho has more mass at
    the grid edges than the coverage tolerance allows."""
    bm = boundary_mass(rho, grid)
    if not bm <= tol.boundary_mass:  # a NaN edge mass fails too
        raise CoverageError(
            f"{what} touches the grid boundary "
            f"(edge mass {bm:.3e} > {tol.boundary_mass:g})"
        )


def ground_state(
    model: PotentialModel, grid: Grid, tol: Tolerances = DEFAULT_TOLERANCES
) -> RealField:
    """Ground state sampled and normalized on the grid.

    Raises CoverageError when the grid clips the state (boundary mass above
    the coverage tolerance).
    """
    psi = _normalized_ground_state(model, grid, 0.0, tol, "ground state")
    return RealField(grid, psi)


def _normalized_ground_state(model, grid, q, tol, what) -> np.ndarray:
    """Ground-state samples translated by q and normalized on the grid,
    after the coverage check of their density."""
    psi = ground_state_values(model, grid.points - q)
    rho = psi * psi
    mass = _grid_mass(rho, grid, what)
    require_coverage(rho / mass, grid, tol, what)
    return psi / math.sqrt(mass)


def ground_energy(model: PotentialModel) -> float:
    """Exact ground energy: hbar omega / 2 (harmonic), 3/4 E_scale (Morse, lam=1)."""
    if model.kind == "harmonic":
        return 0.5 * model.hbar * model.omega
    return 0.75 * model.energy_scale


@lru_cache(maxsize=64)
def ground_moments(
    model: PotentialModel, grid: Grid, tol: Tolerances = DEFAULT_TOLERANCES
) -> GroundStateInfo:
    """q0 and dq2 from the moments of the ground state on the grid."""
    q0, q2, _ = moments(ground_state(model, grid, tol), model.hbar)
    return GroundStateInfo(q0=q0, dq2=q2 - q0 * q0)


def suggest_grid(
    model: PotentialModel,
    q_reach_min: float = 0.0,
    q_reach_max: float = 0.0,
    n: int = 2048,
) -> Grid:
    """Default grid covering the ground state plus a displacement range.

    The Morse tail decays slowly on the +x side, so the padding is
    asymmetric there (8 spreads left of the mean, 16 right of it).
    """
    dq = model.dq
    if model.kind == "morse":
        q0 = (np.euler_gamma + math.log(2.0)) / model.a  # mean of the lam=1 density
        lo = q0 - 8.0 * dq + min(0.0, q_reach_min)
        hi = q0 + 16.0 * dq + max(0.0, q_reach_max)
    else:
        lo = -10.0 * dq + min(0.0, q_reach_min)
        hi = 10.0 * dq + max(0.0, q_reach_max)
    return Grid(lo, hi, n)


def stationary_residual(model: PotentialModel, grid: Grid,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """max |H psi0 - E0 psi0| / max |psi0| on the interior of the grid."""
    psi = ground_state(model, grid, tol)
    d2 = second_derivative(psi).values
    h = (
        -(model.hbar**2) / (2.0 * model.mass) * d2
        + potential_value(model, grid.points) * psi.values
    )
    res = h - ground_energy(model) * psi.values
    sl = slice(BOUNDARY_POINTS, -BOUNDARY_POINTS)
    return float(np.max(np.abs(res[sl])) / np.max(np.abs(psi.values)))
