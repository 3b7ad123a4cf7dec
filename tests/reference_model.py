"""Reference forms of the default model functions: every piece evaluated on
every cell and picked with ``np.where`` / ``np.select`` (the general
``np.select`` path for the secant, with its cross pieces under
``np.errstate``).  ``constitutive``'s defaults evaluate each piece only on
the cells where it applies and must equal these bit for bit."""

from types import SimpleNamespace

import numpy as np

_WELL_EDGE = 2.0
_WELL_VAL = 2.25
_WELL_SLOPE = 6.0


def W(x):
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    quart = (1.0 - x * x) ** 2 / 4.0
    lin = _WELL_VAL + _WELL_SLOPE * (ax - _WELL_EDGE)
    return np.where(ax <= _WELL_EDGE, quart, lin)


def Wp(x):
    x = np.asarray(x, dtype=float)
    inner = (x * x - 1.0) * x
    outer = _WELL_SLOPE * np.sign(x)
    return np.where(np.abs(x) <= _WELL_EDGE, inner, outer)


def _secant_quartic(p, q):
    return (p + q) * (p * p + q * q - 2.0) / 4.0


def secant_W(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    e = _WELL_EDGE
    s = _WELL_SLOPE
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = np.where(hi > lo, hi - lo, 1.0)
        both_q = _secant_quartic(lo, hi)
        left_cross = (s * (e + lo) + _secant_quartic(-e, hi) * (hi + e)) / den
        right_cross = (_secant_quartic(lo, e) * (e - lo) + s * (hi - e)) / den
        full_cross = s * (lo + hi) / den
    conds = [
        a == b,
        (lo >= -e) & (hi <= e),
        lo >= e,
        hi <= -e,
        (lo < -e) & (hi <= e),
        (lo >= -e) & (hi > e),
    ]
    choices = [Wp(b), both_q, np.full_like(lo, s),
               np.full_like(lo, -s), left_cross, right_cross]
    return np.select(conds, choices, default=full_cross)


def dsecant_W_da(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    e = _WELL_EDGE
    same_q = (np.abs(a) <= e) & (np.abs(b) <= e)
    same_lin = ((a >= e) & (b >= e)) | ((a <= -e) & (b <= -e))
    in_q = (3.0 * a * a + 2.0 * a * b + b * b - 2.0) / 4.0
    with np.errstate(divide="ignore", invalid="ignore"):
        den = np.where(a != b, a - b, 1.0)
        cross = (Wp(a) - secant_W(a, b)) / den
    return np.select([same_q, same_lin], [in_q, np.zeros_like(a)], default=cross)


def parametrized(params):
    """The parameter-dependent reference forms f, fp, h, d, rho, rhop."""
    beta = params.beta
    h0 = params.h0
    qlo, qhi = params.q_min, params.q_max
    width = qhi - qlo

    def f(q):
        t = np.clip((np.asarray(q, dtype=float) - qlo) / width, 0.0, 1.0)
        return beta * t * t * (3.0 - 2.0 * t)

    def fp(q):
        q = np.asarray(q, dtype=float)
        t = (q - qlo) / width
        inside = (t >= 0.0) & (t <= 1.0)
        return np.where(inside, 6.0 * beta / width * t * (1.0 - t), 0.0)

    def _F(q):
        q = np.asarray(q, dtype=float)
        t = np.clip((q - qlo) / width, 0.0, 1.0)
        core = width * beta * (t ** 3 - 0.5 * t ** 4)
        tail = np.where(q > qhi, beta * (q - qhi), 0.0)
        return core + tail

    def h(q):
        return h0 - _F(q)

    def d(q):
        q = np.asarray(q, dtype=float)
        return h(q) + f(q) * q

    rho_mid = 0.5 * (params.rho1 + params.rho2)
    rho_half = 0.5 * (params.rho2 - params.rho1)

    def _T(phi):
        phi = np.asarray(phi, dtype=float)
        ax = np.abs(phi)
        sat = np.sign(phi) * (2.0 - np.exp(1.0 - ax))
        return np.where(ax <= 1.0, phi, sat)

    def _Tp(phi):
        phi = np.asarray(phi, dtype=float)
        ax = np.abs(phi)
        return np.where(ax <= 1.0, 1.0, np.exp(1.0 - ax))

    def rho(phi):
        return rho_mid + rho_half * _T(phi)

    def rhop(phi):
        return rho_half * _Tp(phi)

    return SimpleNamespace(f=f, fp=fp, h=h, d=d, rho=rho, rhop=rhop)
