"""The plain array assembly against the in-place forms it replaced.

The functions below named _reference_* are the earlier in-place forms, kept
as references: models._potential_into (V(x) written into a caller's array),
the snapshot assembler's fill (V(x, t) written into two reused grid buffers)
and the coefficient table of hydrodynamics._stepping_basis (every column
written into a preallocated table with out=). potential_value, _closed_form
and coefficients now build new arrays from the same operands in the same
order, so each must equal its reference bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsdyn import Grid, PotentialModel, ground_energy, potential_value
from gcsdyn.hydrodynamics import _closed_form, _stepping_basis
from gcsdyn.models import _EXP_CAP
from gcsdyn.propagation import _split_step


def _reference_potential_into(model, x, out):
    if model.kind == "harmonic":
        np.multiply(x, 0.5 * model.mass * model.omega**2, out=out)
        return np.multiply(out, x, out=out)
    np.multiply(x, -model.a, out=out)
    np.minimum(out, _EXP_CAP, out=out)
    np.exp(out, out=out)
    np.subtract(1.0, out, out=out)
    np.square(out, out=out)
    return np.multiply(out, model.well_depth, out=out)


def _reference_potential_value(model, x):
    x = np.asarray(x, dtype=np.float64)
    v = _reference_potential_into(model, x, np.empty_like(x))
    return v if v.ndim else float(v)


def _reference_closed_form(model, grid, q, p, dPdt):
    x = grid.points
    m = model.mass
    out = np.empty(grid.n)
    xi = np.empty(grid.n)
    np.subtract(x, q, out=xi)
    _reference_potential_into(model, xi, out)
    np.subtract(out, ground_energy(model), out=out)
    np.multiply(x, dPdt, out=xi)
    np.subtract(out, xi, out=out)
    np.subtract(out, p**2 / (2.0 * m), out=out)
    return np.add(out, 0.5 * (p / m * p + dPdt * q), out=out)


def _reference_coefficients(model, q, p, dPdt, shift, scale):
    m, e0 = model.mass, ground_energy(model)
    table = np.empty((len(q), 3 if model.kind == "harmonic" else 4))
    lead, lin, *_, c = table.T
    np.divide(p, m, out=c)
    np.multiply(c, p, out=c)
    np.multiply(dPdt, q, out=lead)
    np.add(c, lead, out=c)
    np.multiply(c, 0.5, out=c)
    np.multiply(p, p, out=lead)
    np.divide(lead, 2.0 * m, out=lead)
    np.subtract(c, lead, out=c)
    np.subtract(c, e0, out=c)
    if model.kind == "harmonic":
        k = m * model.omega**2
        np.multiply(q, 0.5 * k, out=lead)
        np.multiply(lead, q, out=lead)
        np.add(lead, c, out=c)
        np.multiply(q, -k, out=lin)
        np.subtract(lin, dPdt, out=lin)
        lead[...] = 0.5 * k
    else:
        a, u0 = model.a, model.well_depth
        np.add(u0, c, out=c)
        np.negative(dPdt, out=table[:, 2])
        g = np.exp(np.multiply(q, a, out=lin), out=lin)
        np.multiply(g, u0, out=lead)
        np.multiply(lead, g, out=lead)
        np.multiply(g, -2.0 * u0, out=lin)
    np.add(c, shift, out=c)
    return np.multiply(table, scale, out=table)


def _bits(v):
    return np.asarray(v, dtype=np.float64).view(np.uint64)


# both families over their parameters; the Morse depth stays below ~1e2 so
# that V at the exponent cap, U0 e^700, is finite
_models = st.one_of(
    st.builds(PotentialModel.harmonic, omega=st.floats(0.05, 20.0),
              mass=st.floats(0.5, 4.0), hbar=st.floats(0.5, 2.0)),
    st.builds(PotentialModel.morse, a=st.floats(0.2, 4.0),
              mass=st.floats(0.5, 4.0), hbar=st.floats(0.5, 2.0)),
)
# positions in units of _EXP_CAP / a (1 for harmonic wells): past +-1.5, so
# the Morse exponent -a x is capped on the left
_spans = st.floats(-1.5, 1.5, allow_subnormal=False)


def _unit(model):
    return _EXP_CAP / model.a if model.kind == "morse" else 1.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_models, st.one_of(_spans, st.lists(_spans, min_size=0, max_size=40)),
       st.sampled_from([None, 1.0, 1e-3, 30.0]))
def test_potential_value_is_the_in_place_form_bit_for_bit(model, t, zoom):
    # 0-d and 1-d inputs, positions on both sides of the cap (-a x =
    # _EXP_CAP exactly at t = -1); zoom None keeps them in cap units, the
    # other values rescale them to the well's own scale
    x = np.asarray(t) * (_unit(model) if zoom is None else zoom)
    if x.ndim == 0:
        x = float(x)
    got, want = potential_value(model, x), _reference_potential_value(model, x)
    assert type(got) is type(want)
    assert np.array_equal(_bits(got), _bits(want))


def test_potential_value_at_the_cap_is_the_in_place_form_bit_for_bit():
    # the samples around -a x = _EXP_CAP, where np.minimum switches sides
    for model in (PotentialModel.morse(a=1.0), PotentialModel.morse(a=0.7, mass=2.0)):
        edge = -_EXP_CAP / model.a
        x = edge + np.arange(-3, 4) * np.spacing(abs(edge))
        assert np.array_equal(_bits(potential_value(model, x)),
                              _bits(_reference_potential_value(model, x)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_models, st.integers(0, 2**32 - 1), st.integers(16, 300))
def test_closed_form_is_the_reused_buffer_assembly_bit_for_bit(model, seed, n):
    rng = np.random.default_rng(seed)
    reach = 3.0 * model.dq
    grid = Grid(-8.0 * model.dq - rng.uniform(0, 5), 16.0 * model.dq + rng.uniform(0, 5), n)
    for _ in range(4):
        q, p, f = rng.uniform(-reach, reach), rng.normal(), rng.normal()
        got = _closed_form(model, grid, q, p, f)
        assert np.array_equal(_bits(got), _bits(_reference_closed_form(model, grid, q, p, f)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_models, st.integers(1, 5000), st.integers(0, 2**32 - 1),
       st.floats(1e-5, 0.1))
def test_coefficients_are_the_in_place_table_bit_for_bit(model, nsteps, seed, dt):
    # whole-run tables of 1 to 5000 states, in the split step's operand
    # units (scale -dt/4hbar; the reference adds a shift of 0)
    rng = np.random.default_rng(seed)
    reach = 3.0 * model.dq
    q = rng.uniform(-reach, reach, nsteps)
    p = rng.normal(size=nsteps) * 10.0 ** rng.uniform(-3.0, 1.0)
    f = rng.normal(size=nsteps) * 10.0 ** rng.uniform(-3.0, 1.0)
    grid = Grid(-10.0, 30.0, 16)
    kernel = _split_step(grid.n, grid.dx, dt, model.mass, model.hbar)
    _, coefficients = _stepping_basis(model, grid)
    got = coefficients(q, p, f, kernel.scale)
    want = _reference_coefficients(model, q, p, f, 0.0, kernel.scale)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(want))
