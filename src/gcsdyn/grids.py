"""Uniform 1-D grid, sampled fields, and discrete calculus.

Everything downstream (ground states, displaced packets, potentials,
propagation) lives on the uniform grid defined here. Fields are immutable
value objects; the operations are pure functions. moments() is the one
source of <x>, <x^2> and <p> for every other module.

Derivatives are the 7-point stencils; they need no decay at the grid edges.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidFieldError, NormalizationError

BOUNDARY_POINTS = 5  # edge strip monitored by boundary_mass
NORM_TOL = 1e-6  # |norm - 1| allowed where a normalized state or density is required


@dataclass(frozen=True)
class Grid:
    """Uniform spatial lattice on [x_min, x_max] with n points.

    dx is derived: dx * (n - 1) == x_max - x_min to machine precision by
    construction (points come from np.linspace).
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise InvalidFieldError("grid endpoints must be finite")
        if not self.x_max > self.x_min:
            raise InvalidFieldError(
                f"x_max ({self.x_max}) must exceed x_min ({self.x_min})"
            )
        if int(self.n) != self.n or self.n < 16:
            raise InvalidFieldError(f"grid needs n >= 16 points, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.n)
        x.setflags(write=False)
        return x

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


@dataclass(frozen=True)
class _Field:
    """Samples on a Grid, copied into a read-only array of the subclass's
    dtype and checked for shape and finiteness."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=self._dtype, copy=True)
        if vals.shape != (self.grid.n,):
            raise InvalidFieldError(
                f"field has {vals.shape} samples, grid has {self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidFieldError("field contains non-finite samples")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


class RealField(_Field):
    """Real samples on a Grid (density, phase, potential)."""

    _dtype = np.float64


class ComplexField(_Field):
    """Complex samples on a Grid (wavefunction)."""

    _dtype = np.complex128


# ---------------------------------------------------------------------------
# finite-difference stencils
# ---------------------------------------------------------------------------

def _fd_coefficients(offsets, order: int) -> np.ndarray:
    """Stencil weights for d^order/dx^order at offset 0 (unit spacing)."""
    offsets = np.asarray(offsets, dtype=np.float64)
    a = np.vander(offsets, increasing=True).T
    b = np.zeros(len(offsets))
    b[order] = math.factorial(order)
    c = np.linalg.solve(a, b)
    if order >= 1:
        c -= c.mean()  # derivative stencils annihilate constants exactly
    return c


def _stencil_7(order, taps):
    """The interior taps (offsets -3 .. 3), and the one-sided rows of matching
    order for the first three points: row r on offsets -r .. 5 + order - r,
    and for the right end the same, mirrored with the sign of odd orders."""
    left = np.array([_fd_coefficients(range(-r, 6 + order - r), order) for r in range(3)])
    return taps, left, (-1.0) ** order * left


_STENCILS_7 = {
    1: _stencil_7(1, np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0),
    2: _stencil_7(2, np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0),
}


def _derivative_arrays(vals: np.ndarray, dx: float, order: int):
    """d^order vals / dx^order by the 7-point stencil: the interior as one
    correlation with the taps, each end as one product with its edge rows;
    complex input runs each part as its own real input."""
    if order not in _STENCILS_7:
        raise ValueError(f"unsupported derivative order {order}")
    if vals.dtype.kind == "c":
        out = np.empty(vals.shape, dtype=np.complex128)
        out.real = _derivative_arrays(vals.real, dx, order)
        out.imag = _derivative_arrays(vals.imag, dx, order)
        return out
    taps, left, right = _STENCILS_7[order]
    m = left.shape[1]
    out = np.empty(len(vals))
    np.matmul(left, vals[:m], out=out[:3])  # a ValueError if len(vals) < m
    np.matmul(right, vals[:-m - 1:-1], out=out[:-4:-1])
    out[3:-3] = np.correlate(vals, taps, "valid")
    out /= dx**order
    return out


_NODE_PRODUCTS = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])


def _quintic_weights(t: float) -> np.ndarray:
    """Lagrange weights of the nodes k = 0 .. 5 at t, in closed form:
    prod_m (t - m) / ((t - k) c_k), c_k = prod_{m != k} (k - m) from the
    table above; on a node they are exactly its indicator."""
    d = t - np.arange(6.0)
    p = d.prod()
    return (d == 0.0) * 1.0 if p == 0.0 else p / (d * _NODE_PRODUCTS)


def _differentiate(fld, order: int):
    cls = ComplexField if np.iscomplexobj(fld.values) else RealField
    return cls(fld.grid, _derivative_arrays(fld.values, fld.grid.dx, order))


def second_derivative(fld):
    """d^2 f / dx^2 on the same grid (sixth order, one-sided closures)."""
    return _differentiate(fld, 2)


def first_derivative(fld):
    """d f / dx on the same grid (sixth order, one-sided closures)."""
    return _differentiate(fld, 1)


# ---------------------------------------------------------------------------
# quadrature and moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _weights_cached(x_min: float, x_max: float, n: int) -> np.ndarray:
    dx = (x_max - x_min) / (n - 1)
    if n % 2 == 1:
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= dx / 3.0
    else:
        w = np.full(n, dx)
        w[0] = w[-1] = 0.5 * dx
    w.setflags(write=False)
    return w


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Composite Simpson weights (n odd) or trapezoid weights (n even)."""
    return _weights_cached(grid.x_min, grid.x_max, grid.n)


def integrate(fld: RealField) -> float:
    """Quadrature of the field over [x_min, x_max]."""
    return float(np.dot(quadrature_weights(fld.grid), fld.values))


def normalized(psi):
    """Rescale a field so its density integrates to 1 on the grid."""
    w = quadrature_weights(psi.grid)
    if isinstance(psi, ComplexField):
        s = math.sqrt(float(np.dot(w, np.abs(psi.values) ** 2)))
        return ComplexField(psi.grid, psi.values / s)
    s = float(np.dot(w, psi.values))
    return RealField(psi.grid, psi.values / s)


def moments(
    psi: ComplexField | RealField, hbar: float = 1.0
) -> tuple[float, float, float]:
    """<x>, <x^2> and <p> of a normalized state (<p> = 0 for real samples).

    The position moments are quadratures of x^k |psi|^2; <p> is
    hbar * Im integral psi* dpsi/dx, with a sixth-order local stencil so the
    momentum mean stays accurate for strongly boosted packets. |psi|^2 and
    dpsi/dx are each computed once. Raises NormalizationError when the norm
    is off 1 by more than NORM_TOL.
    """
    return _moments(psi.grid, psi.values, np.abs(psi.values) ** 2, hbar)


def _moments(grid: Grid, vals, rho, hbar):
    """moments() of the samples vals, with |vals|^2 handed in as rho."""
    w = quadrature_weights(grid)
    x = grid.points
    nrm = float(np.dot(w, rho))
    if abs(nrm - 1.0) > NORM_TOL:
        raise NormalizationError(nrm, NORM_TOL, "wavefunction")
    dpsi = _derivative_arrays(vals, grid.dx, 1)
    return (
        float(np.dot(w, x * rho)),
        float(np.dot(w, x * x * rho)),
        float(hbar * np.dot(w, np.imag(np.conj(vals) * dpsi))),
    )


def boundary_mass(rho_values: np.ndarray, grid: Grid) -> float:
    """Probability mass within BOUNDARY_POINTS of either edge."""
    edge = rho_values[:BOUNDARY_POINTS].sum() + rho_values[-BOUNDARY_POINTS:].sum()
    return float(edge) * grid.dx


def _peak_segment(vals: np.ndarray, floor: float) -> tuple[int, int]:
    """Bounds i0, i1 of the contiguous run above `floor` containing the peak.

    The run always holds the argmax sample, even when that sample is not
    above the floor; a NaN sample ends the run like one below the floor.
    """
    peak = int(vals.argmax())
    stops = (~(vals > floor)).nonzero()[0]
    k0 = int(stops.searchsorted(peak))  # stops[:k0] lie left of the peak
    k1 = int(stops.searchsorted(peak, side="right"))  # stops[k1:] right of it
    i0 = int(stops[k0 - 1]) + 1 if k0 > 0 else 0
    i1 = int(stops[k1]) - 1 if k1 < stops.size else len(vals) - 1
    return i0, i1
