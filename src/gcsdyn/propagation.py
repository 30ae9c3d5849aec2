"""Unitary time stepping in two modes: feedback and static.

In feedback mode (the mechanism under study) the potential is rebuilt every
step around the advancing classical center, so the packet is carried without
spreading; in static mode the original potential stays frozen and serves as
the spreading baseline. The center orbit is autonomous, so it is integrated
once before the first quantum step; quantum step s takes the potential at
the time-centered state of Verlet step s (midpoint position, half-kicked
momentum, midpoint force), second order in dt. Split-step transforms call
numpy's pocketfft gufuncs directly (_pocketfft).
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import import_module
from typing import NamedTuple

import numpy as np

from .classical import (
    Trajectory,
    _require_step_memory,
    _require_time_step,
    _verlet,
    classical_energy,
    classical_force,
    turning_points,
)
from .diagnostics import DiagnosticsRecord, _measure, _record, record
from .displacement import ClassicalPoint, GCSState, gcs_from_model
from .errors import CoverageError, PropagationError, UnitarityError
from .grids import (
    BOUNDARY_POINTS,
    ComplexField,
    Grid,
    RealField,
    quadrature_weights,
)
from .hydrodynamics import _closed_form, _stepping_basis
from .models import (
    PotentialModel,
    ground_energy,
    ground_moments,
    potential_value,
    reference_density,
    require_coverage,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

MODES = ("feedback", "static")
OPERAND_BLOCK = 8  # feedback steps whose operands are built in one pass
SCHEMES = ("split-step",)


@dataclass(frozen=True)
class PropagatorConfig:
    """Time step, scheme, run mode, and snapshot cadence."""

    dt: float
    scheme: str = "split-step"
    mode: str = "feedback"
    snapshot_stride: int = 1

    def __post_init__(self):
        _require_time_step(self.dt)
        if self.scheme not in SCHEMES:
            raise PropagationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.mode not in MODES:
            raise PropagationError(f"mode must be one of {MODES}")
        stride = self.snapshot_stride
        if not (isinstance(stride, (int, np.integer)) and stride >= 1):
            raise PropagationError(f"snapshot_stride {stride!r} is not an integer >= 1")


class Frame(NamedTuple):
    """One snapshot of a run: step index, state, and what it was measured
    against (the potential and classical point handed to record)."""

    step: int
    psi: ComplexField
    V: RealField
    point: ClassicalPoint
    diagnostics: DiagnosticsRecord


@dataclass(frozen=True)
class RunResult:
    """A propagation run: snapshot frames plus the full classical trajectory.
    Its config is the one the run was given, with the mode that ran."""

    frames: tuple
    trajectory: Trajectory
    grid: Grid
    model: PotentialModel
    config: PropagatorConfig

    @property
    def records(self) -> tuple:
        return tuple(f.diagnostics for f in self.frames)


@lru_cache(maxsize=16)
def _kinetic_phase(n: int, dx: float, dt: float, m: float, hbar: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    ph = np.exp(-1j * hbar * k * k * dt / (2.0 * m))
    ph.setflags(write=False)
    return ph


def _pocketfft():
    """fft(a, 1.0, out=a) and ifft(a, 1/n, out=a): the pocketfft gufuncs that
    numpy.fft.fft and ifft wrap, without their per-call argument handling.
    The module is private, so a numpy without it is a PropagationError."""
    try:
        pfu = import_module("numpy.fft._pocketfft_umath")
        if (pfu.fft.signature, pfu.ifft.signature) == ("(n),()->(m)", "(m),()->(n)"):
            return pfu.fft, pfu.ifft
    except (ImportError, AttributeError):
        pass
    raise PropagationError(f"numpy {np.__version__} lacks the gufuncs fft (n),()->(m) "
                           "and ifft (m),()->(n) in numpy.fft._pocketfft_umath "
                           "that scheme 'split-step' calls")


class _Kernel(NamedTuple):
    """The split step at a grid and dt. Potentials enter it in its operand
    units, V * scale; block is the buffer for them, (n,) or (rows, n),
    allocated with the kernel's own buffers. prepare(block) turns them into
    step operands (and may overwrite them); advance(vals, operand) returns
    the stepped values and may overwrite vals. Every call reuses the buffers
    of one factory call."""

    scale: float
    block: np.ndarray
    prepare: object
    advance: object


def _split_step(n, dx, dt, m, hbar, rows=None):
    # operand units: the half angle a/2 = -V dt/4hbar of the half-step phase
    # exp(ia). block, s and half are contiguous slabs of one allocation: as
    # separate buffers, glibc's malloc kept part of them resident after the
    # run (morse_feedback peak RSS +0.14 MiB); as column ranges of shared
    # rows, block-wide ufuncs ran up to 3x slower
    kin = _kinetic_phase(n, dx, dt, m, hbar)
    fft, ifft = _pocketfft()
    inv_n = 1.0 / n  # ifft's scale, as numpy.fft.ifft computes it
    shape = (n,) if rows is None else (rows, n)
    work = np.empty((4, *shape))
    block, s = work[0], work[1]
    block[...] = 0.0  # rows a short run leaves unwritten are prepared too
    half = work[2:].reshape(-1).view(np.complex128).reshape(shape)

    def prepare(t):
        # exp(ia) from t = tan(a/2): cos a = 2/(1+t^2) - 1, sin a = t 2/(1+t^2).
        # One tan costs a third of libm's cos + sin where numpy has an
        # AVX-512 tan loop.
        np.tan(t, out=t)
        np.multiply(t, t, out=s)
        np.add(1.0, s, out=s)
        np.divide(2.0, s, out=s)
        np.subtract(s, 1.0, out=half.real)
        np.multiply(s, t, out=half.imag)
        return half

    def advance(vals, half):
        # factor order as in half * ifft(kin * fft(half * vals)): complex
        # products are not bitwise commutative
        np.multiply(half, vals, out=vals)
        fft(vals, 1.0, out=vals)
        np.multiply(kin, vals, out=vals)
        ifft(vals, inv_n, out=vals)
        return np.multiply(half, vals, out=vals)

    return _Kernel(-0.25 * dt / hbar, block, prepare, advance)


def _in_units(kernel, v_vals):
    """v_vals mapped into kernel.block in the kernel's operand units."""
    return np.multiply(v_vals, kernel.scale, out=kernel.block)


def _clamp(kernel, u, cap):
    """Operand-unit values u clamped in place at the potential cap (the
    scale is negative, so the cap is a floor in operand units)."""
    return np.maximum(u, cap * kernel.scale, out=u)


def _constant(kernel, u, cap, nsteps):
    """Operands and advance of nsteps steps that all take the potential u
    (operand units, clamped in place at cap), prepared once."""
    operand = kernel.prepare(_clamp(kernel, u, cap))
    return (operand for _ in range(nsteps)), kernel.advance


def step(
    psi: ComplexField,
    V: RealField,
    dt: float,
    scheme: str = "split-step",
    m: float = 1.0,
    hbar: float = 1.0,
) -> ComplexField:
    """One unitary step of i hbar d_t psi = -(hbar^2/2m) psi'' + V psi.

    Split-step (the one scheme): Strang splitting, half-step phase from tan
    of its half angle, spectral in space, second order in dt; in feedback
    mode the caller hands in V at the step's midpoint time.
    """
    if psi.grid != V.grid:
        raise PropagationError("psi and V live on different grids")
    if scheme not in SCHEMES:
        raise PropagationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    kernel = _split_step(psi.grid.n, psi.grid.dx, dt, m, hbar)
    operand = kernel.prepare(_in_units(kernel, V.values))
    vals = psi.values.astype(np.complex128)  # a copy; advance writes into it
    return ComplexField(psi.grid, kernel.advance(vals, operand))


def _potential_cap(grid: Grid, m: float, hbar: float) -> float:
    """Kinetic ceiling of the grid: hbar^2 k_max^2 / 2m.

    Potential values above it are dynamically unresolvable; inside the
    evolution loops V is clamped there so the phase factor cannot scramble
    round-off amplitude in regions the packet never reaches (the inner
    Morse wall grows like exp(2a|x|) and would otherwise rotate by ~1e8
    radians per step).
    """
    k_max = np.pi / grid.dx
    return hbar**2 * k_max**2 / (2.0 * m)


def _monitor(grid, tol):
    """check(vals, step) of one run: the norm and edge mass of the complex
    values vals, as one product of their squared (re, im) floats with two
    weight rows (quadrature weights; dx on the edge strips), raising on
    either beyond tol; returns (norm, edge mass)."""
    edge = 2 * BOUNDARY_POINTS
    weights = np.zeros((2, 2 * grid.n))
    weights[0] = np.repeat(quadrature_weights(grid), 2)
    weights[1, :edge] = weights[1, -edge:] = grid.dx
    squares = np.empty(2 * grid.n)
    out = np.empty(2)
    drift, edge_max = tol.unitarity_drift, tol.boundary_mass

    def check(vals, step):
        v = vals.view(np.float64)
        nrm, bm = np.dot(weights, np.multiply(v, v, out=squares), out=out).tolist()
        # written as "not <=" so that a NaN raises at the step it appears
        if not abs(nrm - 1.0) <= drift:
            raise UnitarityError(f"norm drifted to {nrm:.12g} at step {step}")
        if not bm <= edge_max:
            raise CoverageError(
                f"packet reached the grid boundary at step {step} "
                f"(edge mass {bm:.3e})"
            )
        return nrm, bm

    return check


def _step_count(T: float, dt: float) -> int:
    """round(T / dt), at least 1: the steps of a run over the horizon T.

    Raises PropagationError when the ratio is not finite, or when the
    steps' arrays would not fit in physical memory (_require_step_memory)."""
    ratio = T / dt
    if not ratio < math.inf:
        raise PropagationError(f"T / dt = {T!r} / {dt!r} is not finite")
    nsteps = max(1, int(round(ratio)))
    _require_step_memory(nsteps, f"T / dt = {T!r} / {dt!r}")
    return nsteps


def _orbit(model, point, config, T) -> Trajectory:
    """The Verlet orbit of the center from point over the horizon T, in
    _step_count(T, dt) steps of config.dt."""
    if not 0.0 < T < math.inf:
        raise PropagationError(f"T must be positive and finite, got {T!r}")
    nsteps = _step_count(T, config.dt)
    return Trajectory(*_verlet(model, point.Q, point.P, config.dt, nsteps))


def evolve_feedback(
    model: PotentialModel,
    point0: ClassicalPoint,
    config: PropagatorConfig,
    T: float,
    grid: Grid,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> RunResult:
    """Propagate the displaced ground state with the self-adjusting potential.

    The Verlet orbit of (Q, P) is integrated first; every quantum step then
    rebuilds V(x, t) at the time-centered classical state of its Verlet step
    and advances psi in it. A Frame (psi, the potential assembled at the
    trajectory point, diagnostics) is emitted every snapshot_stride steps,
    always including the initial and final ones. Cheap monitors (norm
    drift, boundary mass) run every step.
    """
    q_lo, q_hi = turning_points(model, classical_energy(model, point0.Q, point0.P))
    traj = _orbit(model, point0, config, T)
    nsteps, dt = len(traj) - 1, config.dt
    m, hbar = model.mass, model.hbar
    q, p, f = traj.q, traj.p, traj.forces
    # the exact turning points, then the Verlet orbit's extremes; every
    # midpoint lies between two step ends, so this covers all Q used
    for qc in (q_lo, q_hi, q.min(), q.max()):
        require_coverage(
            reference_density(model, grid, qc), grid, tol,
            f"packet on the classical trajectory (Q = {qc:g})",
        )

    state0 = gcs_from_model(model, grid, point0, tol)
    kernel = _split_step(grid.n, grid.dx, dt, m, hbar, OPERAND_BLOCK)
    # every step's basis coefficients, once per run, in the kernel's units
    rows, coefficients = _stepping_basis(model, grid)
    q_mid = 0.5 * (q[:-1] + q[1:])
    p_half = p[:-1] + 0.5 * dt * f[:-1]
    table = coefficients(q_mid, p_half, classical_force(model, q_mid), kernel.scale)
    del q_mid, p_half  # kept for the run, they cost harmonic_feedback 0.1 MiB RSS
    cap = _potential_cap(grid, m, hbar)

    def operands():
        # the potentials of up to len(block) steps, one product per step as
        # one row each, then one clamp and one prepare over the whole block;
        # in the last block the rows past the final step are not used
        block = kernel.block
        for s0 in range(0, nsteps, len(block)):
            k = min(len(block), nsteps - s0)
            for row, coefs in zip(block, table[s0:s0 + k]):
                np.dot(coefs, rows, out=row)
            yield from kernel.prepare(_clamp(kernel, block, cap))[:k]

    def frame_at(s, vals):
        pt = traj.point(s)
        f_s = float(f[s])
        V = RealField(grid, _closed_form(model, grid, pt.Q, pt.P, f_s))
        psi = ComplexField(grid, vals)
        return Frame(s, psi, V, pt, record(psi, model, pt, V, f_s, tol))

    return _run(state0, operands(), kernel.advance, frame_at, traj, model,
                replace(config, mode="feedback"), tol)


def evolve_static(
    state0: GCSState,
    model: PotentialModel,
    config: PropagatorConfig,
    T: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> RunResult:
    """Propagate a displaced state in the frozen original potential.

    The spreading baseline. Diagnostics carry the same record fields as
    feedback mode, but the overlap reference is anchored to the measured
    packet center (q_mean - q0) rather than to a classical orbit: the
    mirror-well reference orbit is unbounded for displacements beyond
    ln2/a, so it can leave any finite grid, and the shape-anchored
    comparison is the conservative baseline (static runs degrade only
    through true shape distortion). The autonomous center trajectory is
    still integrated and returned for twin-run comparisons. The diagnostics
    potential carries the at-rest assembled convention (V_model - E0);
    propagation itself uses the plain model potential clamped at the grid's
    kinetic ceiling (densities are offset-invariant), prepared once.
    """
    grid = state0.psi.grid
    traj = _orbit(model, state0.point, config, T)
    nsteps, dt = len(traj) - 1, config.dt
    m, hbar = model.mass, model.hbar

    v_model = potential_value(model, grid.points)
    v_diag = RealField(grid, v_model - ground_energy(model))
    kernel = _split_step(grid.n, grid.dx, dt, m, hbar)
    steps, advance = _constant(kernel, _in_units(kernel, v_model),
                               _potential_cap(grid, m, hbar), nsteps)
    q0 = ground_moments(model, grid, tol).q0

    def frame_at(s, vals):
        # reference point anchored at the measured center, from the one
        # measurement record reads too
        psi = ComplexField(grid, vals)
        measured = _measure(psi, hbar)
        q_meas = measured.q_mean - q0
        pt = ClassicalPoint(Q=q_meas, P=measured.p_mean, t=s * dt)
        f_ref = float(classical_force(model, q_meas))
        rec = _record(psi, measured, model, pt, v_diag, f_ref, tol)
        return Frame(s, psi, v_diag, pt, rec)

    return _run(state0, steps, advance, frame_at, traj, model,
                replace(config, mode="static"), tol)


def _run(state0, operands, advance, frame_at, traj, model, config, tol) -> RunResult:
    """The step loop of both modes: advance psi by one operand per step,
    check it with the run's _monitor, and collect frame_at(step, values) at
    the snapshot steps (the first and last step included).

    Steps and checks run without numpy's invalid and overflow warnings: a
    state that turns non-finite is reported by the check's own error alone.
    Frames are measured under the caller's numpy error handling."""
    grid = state0.psi.grid
    nsteps = len(traj) - 1
    check = _monitor(grid, tol)
    vals = state0.psi.values.copy()
    frames = [frame_at(0, vals)]
    caller = np.geterr()
    with np.errstate(invalid="ignore", over="ignore"):
        for s, operand in enumerate(operands, start=1):
            vals = advance(vals, operand)
            check(vals, s)
            if s % config.snapshot_stride == 0 or s == nsteps:
                with np.errstate(**caller):
                    frames.append(frame_at(s, vals))
    return RunResult(
        frames=tuple(frames), trajectory=traj, grid=grid, model=model, config=config
    )
