"""The classical layer: center potential, force law, trajectory integration.

The potential felt by the wave-packet center is read off the reconstructed
V(x, t): expanding it in powers of x isolates an overall linear coefficient

    a(t) = -dP/dt + [linear part of the curvature term],

and requiring a(t) = 0 yields the autonomous center equation

    dP/dt = F_cl(Q) = -d V_class / dQ.

The center potential is the well seen from -Q, V_class(Q) = V(-Q): for the
Morse well that is the mirror image U0 (1 - exp(+aQ))^2, for symmetric wells
the original potential. v_class and classical_force are defined that way,
from models.potential_value and models.potential_gradient; verify's
linear_coefficient_agreement check and `gcsdyn extract-vclass` test the
identity against the linear coefficient of the assembled potential.
"""

import math
from dataclasses import dataclass

import numpy as np

from .displacement import ClassicalPoint
from .errors import EscapeError, ExtractionError
from .grids import Grid, _fd_coefficients
from .hydrodynamics import assemble_potential
from .models import _EXP_CAP, PotentialModel, potential_gradient, potential_value
from .tolerances import DEFAULT_TOLERANCES, Tolerances

FIT_SAMPLES = 10  # samples nearest x = 0 that the fitted slope reads


@dataclass(frozen=True)
class Trajectory:
    """Velocity-Verlet trajectory of the wave-packet center.

    t, q, p and forces are read-only arrays with one entry per step: entry i
    is the state at t = i * dt, and forces[i] the force at q[i], aligned for
    downstream potential assembly.
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    forces: np.ndarray
    dt: float

    def __post_init__(self):
        for arr in (self.t, self.q, self.p, self.forces):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.t)

    def point(self, i: int) -> ClassicalPoint:
        """The state at step i as a ClassicalPoint."""
        return ClassicalPoint(float(self.q[i]), float(self.p[i]), float(self.t[i]))

    def energy(self, model: PotentialModel) -> np.ndarray:
        return classical_energy(model, self.q, self.p)


def classical_force(model: PotentialModel, q):
    """dP/dt = -dV_class/dQ at center displacement q, i.e. V'(-q)."""
    return potential_gradient(model, -np.asarray(q, dtype=np.float64))


def v_class(model: PotentialModel, q):
    """Center potential V_class(q) = V(-q)."""
    return potential_value(model, -np.asarray(q, dtype=np.float64))


def classical_energy(model: PotentialModel, q, p):
    """Center-orbit energy P^2/2m + V_class(Q), for scalars or arrays."""
    e = np.asarray(p, dtype=np.float64) ** 2 / (2.0 * model.mass) + v_class(model, q)
    return e if np.ndim(e) else float(e)


def _require_bounded(model: PotentialModel, e_cl: float):
    """Raise EscapeError unless the center orbit at energy e_cl is bounded:
    always for harmonic wells, 0 <= E < U0 for Morse."""
    if model.kind == "morse" and not 0.0 <= e_cl < model.well_depth:
        raise EscapeError(
            f"no bounded Morse orbit at E = {e_cl:g} (well depth "
            f"{model.well_depth:g})"
        )


def linear_coefficient(
    model: PotentialModel,
    point: ClassicalPoint,
    dPdt: float,
    grid: Grid | None = None,
    method: str = "analytic",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Coefficient of the term linear in x of the assembled V(x, t).

    method="analytic" evaluates the closed form a(t) = F_cl(Q) - dP/dt.
    method="fit" extracts it from the assembled potential samples: the
    linear Taylor coefficient at the expansion point x = 0 is the slope
    there, taken as the slope at 0 of the polynomial through the
    FIT_SAMPLES samples nearest 0 (one dot with its derivative weights).
    Both evaluators agree to ~1e-10 relative on the shipped grids.
    """
    if method == "analytic":
        return float(classical_force(model, point.Q)) - dPdt
    if method != "fit":
        raise ValueError(f"unknown method {method!r}")
    if grid is None:
        raise ExtractionError("numeric extraction needs a grid")
    x, half = grid.points, FIT_SAMPLES // 2
    i = int(x.searchsorted(0.0))  # x[i - 1] < 0 <= x[i]
    if not half <= i <= grid.n - half:
        raise ExtractionError(
            f"expansion point x = 0 needs {half} grid samples on either side"
        )

    snap = assemble_potential(model, point, dPdt, grid, tol=tol)
    near = slice(i - half, i + half)
    weights = _fd_coefficients(x[near] / grid.dx, 1)
    return float(weights @ snap.V.values[near]) / grid.dx


def classical_period(model: PotentialModel, e_cl: float = 0.0) -> float:
    """Period of the bounded center orbit at classical energy e_cl.

    Harmonic motion is isochronous; the Morse period stretches as
    1 / sqrt(1 - E/U0) and diverges at the dissociation energy.
    """
    _require_bounded(model, e_cl)
    if model.kind == "harmonic":
        return 2.0 * math.pi / model.omega
    u0 = model.well_depth
    omega0 = model.a * math.sqrt(2.0 * u0 / model.mass)
    return 2.0 * math.pi / (omega0 * math.sqrt(1.0 - e_cl / u0))


def momentum_for_energy(model: PotentialModel, e_cl: float, q0: float = 0.0) -> float:
    """P0 >= 0 such that P0^2/2m + V_class(q0) = e_cl."""
    kin = e_cl - float(v_class(model, q0))
    if kin < 0.0:
        raise EscapeError(
            f"V_class({q0:g}) = {float(v_class(model, q0)):g} exceeds E = {e_cl:g}"
        )
    return math.sqrt(2.0 * model.mass * kin)


def turning_points(model: PotentialModel, e_cl: float) -> tuple[float, float]:
    """Center-orbit turning points (Q_min, Q_max) at energy e_cl."""
    _require_bounded(model, e_cl)
    if model.kind == "harmonic":
        amp = math.sqrt(2.0 * e_cl / (model.mass * model.omega**2))
        return -amp, amp
    r = math.sqrt(e_cl / model.well_depth)
    # mirror well: bounded branch has exp(aQ) in (1 - r, 1 + r)
    return math.log(1.0 - r) / model.a, math.log(1.0 + r) / model.a


def _scalar_force(model: PotentialModel):
    """classical_force(model, q) for a float q, bit for bit: the same
    operations in the same order (V'(-q), with -a (-q) = a q exactly), as
    float arithmetic instead of numpy scalars."""
    if model.kind == "harmonic":
        k = model.mass * model.omega**2
        return lambda q: k * -q
    a, c = model.a, 2.0 * model.a * model.well_depth

    def force(q):
        # np.exp, not math.exp: on [-8, 8] they differed in 92,418 of
        # 2,000,000 draws where numpy runs exp as its AVX-512 loop (in none
        # with AVX-512 switched off)
        e1 = float(np.exp(min(a * q, _EXP_CAP)))
        e2 = float(np.exp(min(2.0 * a * q, _EXP_CAP)))
        return c * (e1 - e2)

    return force


def _verlet(
    model: PotentialModel,
    q0: float,
    p0: float,
    dt: float,
    steps: int,
):
    """Velocity-Verlet orbit of the center equation as arrays t, Q, P, F.

    Entry i is the state at t = i * dt, with F[i] the force at Q[i]. Raises
    EscapeError, naming the first bad step, when the orbit stops being
    finite; unbounded but finite orbits pass.
    """
    m = model.mass
    force = _scalar_force(model)
    orbit = np.empty((3, steps + 1))
    qs, ps, fs = map(memoryview, orbit)  # stores floats without numpy scalars
    q, p = float(q0), float(p0)
    f = force(q)
    qs[0], ps[0], fs[0] = q, p, f
    for s in range(1, steps + 1):
        p_half = p + 0.5 * dt * f
        q = q + dt * p_half / m
        f = force(q)
        p = p_half + 0.5 * dt * f
        qs[s], ps[s], fs[s] = q, p, f
    finite = np.isfinite(orbit).all(axis=0)
    if not finite.all():
        raise EscapeError(
            "center orbit is not finite", step=int(np.argmin(finite))
        )
    return np.arange(steps + 1) * dt, orbit[0], orbit[1], orbit[2]


def integrate_trajectory(
    model: PotentialModel,
    q0: float,
    p0: float,
    dt: float,
    steps: int,
) -> Trajectory:
    """Velocity-Verlet integration of the center equation.

    Symplectic, second order; records the force at every stored point.
    Raises EscapeError for unbounded Morse initial data (E >= U0) and for
    an orbit that stops being finite (a time step past Verlet's stability
    limit).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    _require_bounded(model, classical_energy(model, q0, p0))
    return Trajectory(*_verlet(model, q0, p0, dt, steps), dt)
