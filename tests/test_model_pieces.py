"""The default model functions evaluate each piece only on the cells where
it applies; they must equal the every-piece ``np.where``/``np.select`` forms
of ``tests/reference_model.py`` bit for bit (NaN compared as NaN)."""

import numpy as np
import pytest

import reference_model as ref
from surfflow.constitutive import (AUDIT_PAIRS, AUDIT_SEED, ModelParams,
                                   SamplingSpec, _pieces, build_default_set)

UNARY = ("W", "Wp", "f", "fp", "h", "d", "rho", "rhop")
BINARY = ("secant_W", "dsecant_W_da")
PARAMS = (ModelParams(), ModelParams(q_min=-0.3, q_max=0.7, beta=2.0, h0=3.0))


def _pair(params):
    new = build_default_set(params)
    old = ref.parametrized(params)
    return new, {name: getattr(ref, name, None) or getattr(old, name)
                 for name in UNARY + BINARY}


def assert_bitwise(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype == float
    nan = np.isnan(old)
    assert np.array_equal(np.isnan(new), nan)
    assert np.array_equal(new[~nan].view(np.int64), old[~nan].view(np.int64))


def _neighbours(points):
    """Each point, its two neighbouring floats and the floats one more away."""
    pts = np.asarray(points, dtype=float)
    up1, dn1 = np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf)
    up2, dn2 = np.nextafter(up1, np.inf), np.nextafter(dn1, -np.inf)
    return np.concatenate([pts, up1, dn1, up2, dn2])


def _boundary_points(params):
    edges = [1.0, 2.0, -1.0, -2.0, params.q_min, params.q_max]
    return np.concatenate([_neighbours(edges), [0.0, -0.0, 3.0, -3.0]])


def _samples(params):
    """Audit windows, audit pairs, piece boundaries and a mixed sweep."""
    spec = SamplingSpec()
    q, phi = spec.q_samples(params), spec.phi_samples()
    rng = np.random.default_rng(AUDIT_SEED)
    qa = rng.uniform(q[0], q[-1], AUDIT_PAIRS)
    qb = rng.uniform(q[0], q[-1], AUDIT_PAIRS)
    sweep = np.random.default_rng(7).uniform(-9.0, 9.0, 4096)
    return np.concatenate([q, phi, qa, qb, sweep, _boundary_points(params)])


@pytest.mark.parametrize("params", PARAMS, ids=("default", "shifted"))
def test_unary_functions_equal_reference(params):
    new, old = _pair(params)
    x = _samples(params)
    for name in UNARY:
        assert_bitwise(getattr(new, name)(x), old[name](x))
        # one cell at a time: 0-d inputs, each on its own piece
        for xi in _boundary_points(params):
            assert_bitwise(getattr(new, name)(np.float64(xi)), old[name](xi))
            assert_bitwise(getattr(new, name)(float(xi)), old[name](xi))


@pytest.mark.parametrize("params", PARAMS, ids=("default", "shifted"))
def test_interior_only_inputs_equal_reference(params):
    # arrays with no cell off the interior piece skip every other piece
    new, old = _pair(params)
    rng = np.random.default_rng(3)
    phi = rng.uniform(-0.99, 0.99, 1000)
    q = params.q_min + (params.q_max - params.q_min) * rng.uniform(0, 1, 1000)
    for name in ("W", "Wp", "rho", "rhop"):
        assert_bitwise(getattr(new, name)(phi), old[name](phi))
    for name in ("f", "fp", "h", "d"):
        assert_bitwise(getattr(new, name)(q), old[name](q))
    b = phi + rng.choice([0.0, 1e-12, -0.3], phi.size)
    for name in BINARY:
        assert_bitwise(getattr(new, name)(phi, b), old[name](phi, b))


def _pairs():
    """(a, b) over every pair of secant pieces: the audit pairs, equal
    pairs, boundary points against each other, and a mixed sweep."""
    params = PARAMS[0]
    spec = SamplingSpec()
    rng = np.random.default_rng(AUDIT_SEED)
    phi = spec.phi_samples()
    a = [phi, rng.uniform(-3.0, 3.0, AUDIT_PAIRS)]
    b = [phi[::-1], rng.uniform(-3.0, 3.0, AUDIT_PAIRS)]
    pts = _boundary_points(params)
    pa, pb = np.meshgrid(pts, pts)
    a.append(pa.ravel())
    b.append(pb.ravel())
    sweep = np.random.default_rng(11).uniform(-5.0, 5.0, 20_000)
    a += [sweep, sweep]
    b += [sweep, sweep + np.random.default_rng(12).choice(
        [0.0, 1e-15, -1e-12, 1e-9, 0.5, -2.0, 4.5], sweep.size)]
    return np.concatenate(a), np.concatenate(b)


def test_secant_and_derivative_equal_reference():
    new, old = _pair(PARAMS[0])
    a, b = _pairs()
    for name in BINARY:
        assert_bitwise(getattr(new, name)(a, b), old[name](a, b))
        assert_bitwise(getattr(new, name)(b, a), old[name](b, a))


def test_secant_broadcasts_and_0d_equal_reference():
    new, old = _pair(PARAMS[0])
    pts = _boundary_points(PARAMS[0])
    for name in BINARY:
        fn, ref_fn = getattr(new, name), old[name]
        for x in pts:
            assert_bitwise(fn(x, pts), ref_fn(x, pts))
            assert_bitwise(fn(pts, x), ref_fn(pts, x))
            assert_bitwise(fn(x, -x), ref_fn(x, -x))
            assert_bitwise(fn(x, x), ref_fn(x, x))
        col = pts[:, None]
        assert_bitwise(fn(col, pts[None, :]), ref_fn(col, pts[None, :]))


def test_non_finite_inputs_equal_reference():
    new, old = _pair(PARAMS[0])
    x = np.array([np.nan, np.inf, -np.inf, 0.5, 3.0, -3.0])
    with np.errstate(all="ignore"):
        for name in UNARY:
            assert_bitwise(getattr(new, name)(x), old[name](x))
        a, b = np.meshgrid(x, x)
        for name in BINARY:
            assert_bitwise(getattr(new, name)(a, b), old[name](a, b))


def test_inputs_are_not_modified():
    new, _ = _pair(PARAMS[0])
    x = np.array([-3.0, -0.5, 0.25, 2.5])
    keep = x.copy()
    for name in UNARY:
        getattr(new, name)(x)
    for name in BINARY:
        getattr(new, name)(x, x[::-1])
    assert np.array_equal(x, keep)


def _recorded(calls, name, formula):
    """``formula``, logging its name and the arguments it is called with."""
    def call(*args):
        calls.append((name, [a.copy() for a in args]))
        return formula(*args)
    return call


def test_piece_table_evaluates_each_piece_on_its_cells_only():
    calls = []
    x = np.arange(12.0).reshape(3, 4)
    y = -x
    out = _pieces(x * 10.0, (x, y), [
        (x > 5.0, _recorded(calls, "above 5", lambda x, y: x + 100.0)),
        (x > 99.0, _recorded(calls, "never", lambda x, y: x)),
        ((x > 8.0) | (x == 0.0), _recorded(calls, "last", lambda x, y: y))])
    # the formulas see their cells only, in C order; an empty mask calls
    # nothing
    assert [name for name, _ in calls] == ["above 5", "last"]
    (_, (xa, ya)), (_, (xl, yl)) = calls
    assert np.array_equal(xa, x[x > 5.0]) and np.array_equal(ya, -xa)
    assert np.array_equal(xl, [0.0, 9.0, 10.0, 11.0])
    assert np.array_equal(yl, -xl)
    # a later piece wins where masks overlap
    want = np.where(x > 5.0, x + 100.0, x * 10.0)
    want = np.where((x > 8.0) | (x == 0.0), -x, want)
    assert_bitwise(out, want)
    assert out.shape == x.shape


def test_piece_table_0d_result_is_writable():
    x = np.asarray(3.0)
    for mask, want in ((x > 2.0, 1.5), (x > 4.0, 9.0)):
        out = _pieces(x * x, (x,), [(mask, lambda x: x / 2.0)])
        assert isinstance(out, np.ndarray) and out.ndim == 0
        assert out.flags.writeable
        assert_bitwise(out, np.float64(want))
    W = build_default_set(PARAMS[0]).W
    for xi in (np.float64(3.0), 0.5, np.asarray(-2.5)):
        out = W(xi)
        assert isinstance(out, np.ndarray) and out.ndim == 0
        assert out.flags.writeable
        assert_bitwise(out, ref.W(xi))
