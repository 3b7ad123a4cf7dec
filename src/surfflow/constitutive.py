"""Model functions for the surfactant two-phase flow system.

The free-energy structure is carried by a small family of scalar functions:
a double-well potential W for the order parameter, an interfacial coupling f
and squared surface tension h for the surfactant potential q (related by
h' = -f, with d = h + f*q the interfacial free-energy density), a bulk
potential pair (g, G) with G'(q) = g'(q)*q, mobilities m and m_tilde, the
viscosity eta and the extended density rho.

The defaults below are the simplest closed forms that satisfy every
structural condition the implicit scheme's stability argument needs
(monotone f, concave h, strongly monotone g, W >= 0 with controlled growth,
bounded positive rho).  ``audit_assumptions`` re-checks all of these
conditions numerically for any user-supplied set.

The exact secant slope H(a, b) of W, with H(a,b)*(a-b) = W(a) - W(b), is
computed from per-piece closed forms rather than the naive quotient, so the
identity survives floating point even for nearly equal arguments.

The piecewise defaults W, W', the secant and its derivative, f' and h
(through F) go through one piece table, ``_pieces``: the interior piece (the
quartic well, the active interval [q_min, q_max]) on every cell, then each
other piece only on the cells where it applies, and not at all when none
does.  The closed forms and the piece priority are those of an every-piece
``np.where``/``np.select``, and the values equal it bit for bit.  f (a
clamp) and the density's saturation keep ``np.clip``/``np.where``: their
other pieces cost less than picking out the cells they apply to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ConstitutiveError",
    "ModelParams",
    "ConstitutiveSet",
    "SamplingSpec",
    "ClauseResult",
    "AuditReport",
    "InequalityReport",
    "build_default_set",
    "audit_assumptions",
    "pointwise_step_inequalities",
]


class ConstitutiveError(ValueError):
    """Raised when parameters or model functions violate a structural clause."""


def config_key(default, doc: str):
    """A config key: the field's default and its ``print-config`` comment."""
    return field(default=default, metadata={"doc": doc})


@dataclass(frozen=True)
class ModelParams:
    """Physical and structural parameters; the ``[params]`` config section.

    delta adds delta*Lap^2 v to the momentum equation and delta*d_t phi to
    the chemical-potential relation (delta = 0 switches both off).  Outside
    [q_min, q_max] f' vanishes and d is constant.  Construction checks the
    structural invariants and raises ``ConstitutiveError``.
    """

    epsilon: float = config_key(0.1, "epsilon: interface thickness parameter")
    delta: float = config_key(1e-3, "delta: regularization strength (>= 0)")
    rho1: float = config_key(1.0, "rho_1: bulk density of fluid 1")
    rho2: float = config_key(2.0, "rho_2: bulk density of fluid 2")
    eta1: float = config_key(1.0, "eta_1: bulk viscosity of fluid 1")
    eta2: float = config_key(2.0, "eta_2: bulk viscosity of fluid 2")
    beta: float = config_key(1.0, "beta: surfactant coupling amplitude in f")
    h0: float = config_key(1.0, "h_0: surface-energy offset, h(q) = h_0 below q_min")
    q_min: float = config_key(0.0, "q_min: lower edge of the active q interval")
    q_max: float = config_key(1.0, "q_max: upper edge of the active q interval")
    c0: float = config_key(0.5, "c_0: strong-monotonicity constant of g")
    c1: float = config_key(0.1, "c_1: lower bound for d, m, m_tilde, eta")
    c2: float = config_key(10.0, "c_2: upper bound for m, m_tilde, eta")

    def __post_init__(self) -> None:
        checks = [
            (self.epsilon > 0, "epsilon > 0"),
            (self.delta >= 0, "delta >= 0"),
            (self.rho1 > 0, "rho1 > 0"),
            (self.rho2 > 0, "rho2 > 0"),
            (self.eta1 > 0, "eta1 > 0"),
            (self.eta2 > 0, "eta2 > 0"),
            (self.beta > 0, "beta > 0"),
            (self.h0 > 0, "h0 > 0"),
            (self.q_min < self.q_max, "q_min < q_max"),
            (self.c0 > 0, "c0 > 0"),
            (0 < self.c1 < self.c2, "0 < c1 < c2"),
            # saturation keeps inf rho > 0: the density profile ranges over
            # ((3*rho1 - rho2)/2, (3*rho2 - rho1)/2)
            (self.rho2 < 3 * self.rho1, "rho2 < 3*rho1 (positive density floor)"),
            (self.rho1 < 3 * self.rho2, "rho1 < 3*rho2 (positive density floor)"),
        ]
        bad = [name for ok, name in checks if not ok]
        if bad:
            raise ConstitutiveError("invalid parameters: " + "; ".join(bad))


@dataclass(frozen=True)
class ConstitutiveSet:
    """A complete set of model functions.  All callables broadcast over numpy
    arrays.  ``secant_W`` is the exact divided difference of W;
    ``dsecant_W_da`` is its derivative in the first argument (used by the
    stepper's Newton Jacobian)."""

    W: Callable
    Wp: Callable
    f: Callable
    fp: Callable
    g: Callable
    gp: Callable
    G: Callable
    h: Callable
    hp: Callable
    d: Callable
    m: Callable
    mtilde: Callable
    eta: Callable
    rho: Callable
    rhop: Callable
    secant_W: Callable
    dsecant_W_da: Callable


# ---------------------------------------------------------------------------
# default closed forms
# ---------------------------------------------------------------------------

_WELL_EDGE = 2.0       # |phi| beyond which W continues linearly
_WELL_VAL = 2.25       # W at the matching point, (1 - 4)^2 / 4
_WELL_SLOPE = 6.0      # W' at the matching point


def _pieces(first, args, pieces):
    """The interior piece's values ``first`` with each ``(mask, formula)``
    of ``pieces`` put, in order, on the cells where its mask holds: a later
    piece wins where masks overlap.  A formula sees ``args`` taken at its
    cells (flat, C order) and is not called when its mask picks none."""
    # asarray: a 0-d input gives a numpy scalar, which put cannot write to
    out = np.asarray(first)
    for mask, formula in pieces:
        i = mask.ravel().nonzero()[0]
        if i.size:
            out.put(i, formula(*(a.take(i) for a in args)))
    return out


def _off_quartic(a, b):
    # pairs not both on the quartic piece; a NaN pair stays on it
    return np.maximum(np.abs(a), np.abs(b)) > _WELL_EDGE


def _default_W(x):
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return _pieces((1.0 - x * x) ** 2 / 4.0, (ax,), [
        (ax > _WELL_EDGE,
         lambda ax: _WELL_VAL + _WELL_SLOPE * (ax - _WELL_EDGE))])


def _default_Wp(x):
    x = np.asarray(x, dtype=float)
    return _pieces((x * x - 1.0) * x, (x,), [
        (np.abs(x) > _WELL_EDGE, lambda x: np.copysign(_WELL_SLOPE, x))])


def _secant_quartic(p, q):
    # divided difference of (x^4 - 2 x^2 + 1)/4 between p and q; symmetric
    # in p and q bit for bit
    return (p + q) * (p * p + q * q - 2.0) / 4.0


def _secant_off_quartic(a, b):
    """The secant on pairs that are not both on the quartic piece."""
    e, s = _WELL_EDGE, _WELL_SLOPE
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return _pieces(np.where(lo >= e, s, -s), (lo, hi), [
        # lo < -2 < hi <= 2: the linear piece up to -2, the quartic beyond
        ((lo < -e) & (hi > -e) & (hi <= e), lambda lo, hi:
         (s * (e + lo) + _secant_quartic(-e, hi) * (hi + e)) / (hi - lo)),
        # -2 <= lo < 2 < hi: the quartic up to 2, the linear piece beyond
        ((lo >= -e) & (lo < e) & (hi > e), lambda lo, hi:
         (_secant_quartic(lo, e) * (e - lo) + s * (hi - e)) / (hi - lo)),
        # lo < -2 and 2 < hi: W(hi) - W(lo) = s (hi + lo) on the two lines
        ((lo < -e) & (hi > e), lambda lo, hi: s * (lo + hi) / (hi - lo))])


def _default_secant_W(a, b):
    """Exact divided difference of the default W, piece by piece.

    The quartic closed form has no cancellation and is evaluated on every
    pair.  Each other piece is evaluated only on the pairs it applies to:
    both ends on one linear piece give its slope, and cross-piece pairs
    split at the matching points +-2, where |a - b| is bounded below by the
    distance to the crossed boundary, so the division is safe.  Pairs with
    a == b take the defining case H(a, a) = W'(a) last, over every piece.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    return _pieces(_secant_quartic(a, b), (a, b), [
        (_off_quartic(a, b), _secant_off_quartic),
        (a == b, lambda a, b: _default_Wp(b))])


def _dsecant_off_quartic(a, b):
    # zero where one linear piece holds both ends; across pieces the
    # quotient rule is stable because a - b is bounded away from zero by the
    # crossed matching point
    e = _WELL_EDGE
    return _pieces(np.zeros_like(a), (a, b), [
        (~(((a >= e) & (b >= e)) | ((a <= -e) & (b <= -e))), lambda a, b:
         (_default_Wp(a) - _default_secant_W(a, b)) / (a - b))])


def _default_dsecant_W_da(a, b):
    """d/da of the exact secant of the default W, piece by piece like the
    secant: the quartic piece's on every pair, the others where they apply."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    return _pieces((3.0 * a * a + 2.0 * a * b + b * b - 2.0) / 4.0, (a, b),
                   [(_off_quartic(a, b), _dsecant_off_quartic)])


def build_default_set(params: ModelParams) -> ConstitutiveSet:
    """Closed-form default model functions for the given parameters.

    The surfactant functions are normalized to the unit interval internally
    and rescaled to [q_min, q_max]:

        f(q) = beta * t^2 (3 - 2t),  t = clamp((q - q_min)/(q_max - q_min))
        h(q) = h0 - integral of f from q_min
        d(q) = h(q) + f(q) q
        g(q) = q, G(q) = q^2/2, m = m_tilde = 1
        eta, rho: linear in phi on [-1, 1], saturating outside (rho) or
        clamped (eta)
    """
    if params.h0 <= params.c1:
        raise ConstitutiveError(
            f"d_lower: h0 = {params.h0} must exceed c1 = {params.c1} "
            "so that d(q) > c1 everywhere"
        )
    beta = params.beta
    h0 = params.h0
    qlo, qhi = params.q_min, params.q_max
    width = qhi - qlo

    def f(q):
        t = np.clip((np.asarray(q, dtype=float) - qlo) / width, 0.0, 1.0)
        return beta * t * t * (3.0 - 2.0 * t)

    def fp(q):
        t = (np.asarray(q, dtype=float) - qlo) / width
        return _pieces(6.0 * beta / width * t * (1.0 - t), (),
                       [(~((t >= 0.0) & (t <= 1.0)), lambda: 0.0)])

    # integral of f from q_min: width * beta * (t^3 - t^4/2) on [0, 1]
    # (t clamped at 0 below), then its value at t = 1 plus beta per unit q
    # beyond q_max
    F_max = width * beta * 0.5

    def _F(q):
        q = np.asarray(q, dtype=float)
        t = np.maximum((q - qlo) / width, 0.0)
        return _pieces(width * beta * (t ** 3 - 0.5 * t ** 4), (q,), [
            (q > qhi, lambda q: F_max + beta * (q - qhi))])

    def h(q):
        return h0 - _F(q)

    def hp(q):
        return -f(q)

    def d(q):
        q = np.asarray(q, dtype=float)
        return h(q) + f(q) * q

    def g(q):
        return np.asarray(q, dtype=float)

    def gp(q):
        return np.ones_like(np.asarray(q, dtype=float))

    def G(q):
        q = np.asarray(q, dtype=float)
        return 0.5 * q * q

    def m(phi, q):
        return np.ones_like(np.asarray(phi, dtype=float))

    def mtilde(phi):
        return np.ones_like(np.asarray(phi, dtype=float))

    eta_mid = 0.5 * (params.eta1 + params.eta2)
    eta_half = 0.5 * (params.eta2 - params.eta1)

    def eta(phi):
        return eta_mid + eta_half * np.clip(np.asarray(phi, dtype=float), -1.0, 1.0)

    rho_mid = 0.5 * (params.rho1 + params.rho2)
    rho_half = 0.5 * (params.rho2 - params.rho1)

    def _T(phi):
        phi = np.asarray(phi, dtype=float)
        ax = np.abs(phi)
        sat = np.sign(phi) * (2.0 - np.exp(1.0 - ax))
        return np.where(ax <= 1.0, phi, sat)

    def _Tp(phi):
        # exp(1 - 1) = 1 on [-1, 1]
        return np.exp(1.0 - np.maximum(np.abs(np.asarray(phi, dtype=float)),
                                        1.0))

    def rho(phi):
        return rho_mid + rho_half * _T(phi)

    def rhop(phi):
        return rho_half * _Tp(phi)

    return ConstitutiveSet(
        W=_default_W, Wp=_default_Wp,
        f=f, fp=fp, g=g, gp=gp, G=G,
        h=h, hp=hp, d=d,
        m=m, mtilde=mtilde, eta=eta,
        rho=rho, rhop=rhop,
        secant_W=_default_secant_W,
        dsecant_W_da=_default_dsecant_W_da,
    )


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# the audit's sample window: q over [q_min - AUDIT_PAD, q_max + AUDIT_PAD],
# phi over [AUDIT_PHI_LO, AUDIT_PHI_HI]; pair-based clauses draw AUDIT_PAIRS
# pseudo-random pairs from AUDIT_SEED
AUDIT_PAD = 1.0
AUDIT_PHI_LO = -3.0
AUDIT_PHI_HI = 3.0
AUDIT_PAIRS = 4096
AUDIT_SEED = 20260809


@dataclass(frozen=True)
class SamplingSpec:
    """Deterministic sample layout for the structural audit: n points
    (>= 1000) each over the q and phi windows."""

    n: int = 4096

    def q_samples(self, params: ModelParams) -> np.ndarray:
        return np.linspace(params.q_min - AUDIT_PAD, params.q_max + AUDIT_PAD,
                           self.n)

    def phi_samples(self) -> np.ndarray:
        return np.linspace(AUDIT_PHI_LO, AUDIT_PHI_HI, self.n)


@dataclass(frozen=True)
class ClauseResult:
    clause_id: str
    passed: bool
    witness_q: float
    witness_phi: float
    margin: float
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    clauses: tuple
    spec: SamplingSpec

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failed_ids(self):
        return [c.clause_id for c in self.clauses if not c.passed]

    def to_text(self) -> str:
        lines = ["constitutive audit (%d samples, seed %d)" % (self.spec.n, AUDIT_SEED)]
        for c in self.clauses:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.clause_id:24s} margin={c.margin: .6e} "
                f"witness_q={c.witness_q: .6g} witness_phi={c.witness_phi: .6g}"
                + (f"  ({c.note})" if c.note else "")
            )
        lines.append("result: " + ("all clauses pass" if self.passed else
                                   "FAILED: " + ", ".join(self.failed_ids())))
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["clause_id,pass,witness_q,witness_phi,margin"]
        for c in self.clauses:
            rows.append("%s,%d,%.17g,%.17g,%.17g"
                        % (c.clause_id, int(c.passed), c.witness_q, c.witness_phi, c.margin))
        return "\n".join(rows) + "\n"


def _worst(values: np.ndarray, samples: np.ndarray):
    """Index of the minimum margin and its location."""
    i = int(np.argmin(values))
    return float(values[i]), float(samples[i])


def _fd_consistency(fun, dfun, xs, name, rel=1e-6, step=1e-7):
    """Margin of agreement between dfun and a central difference of fun."""
    xs = np.asarray(xs, dtype=float)
    fd = (fun(xs + step) - fun(xs - step)) / (2.0 * step)
    exact = dfun(xs)
    err = np.abs(fd - exact)
    tol = rel * (1.0 + np.abs(exact)) + 1e-8
    margins = tol - err
    m, w = _worst(margins, xs)
    return m, w, name


def audit_assumptions(cset: ConstitutiveSet, params: ModelParams,
                      spec: SamplingSpec | None = None) -> AuditReport:
    """Check every structural clause on a deterministic sample set.

    Derivative clauses are checked both through the supplied derivative
    functions and by central finite differences (relative consistency 1e-6).
    Growth clauses are unfalsifiable by sampling; they get a fitted constant
    on the window and are reported informationally.  The audit always
    evaluates every clause (no early abort).
    """
    if spec is None:
        spec = SamplingSpec()
    if spec.n < 1000:
        raise ConstitutiveError("sampling spec must use at least 1000 points")
    q = spec.q_samples(params)
    phi = spec.phi_samples()
    rng = np.random.default_rng(AUDIT_SEED)
    qa = rng.uniform(q[0], q[-1], AUDIT_PAIRS)
    qb = rng.uniform(q[0], q[-1], AUDIT_PAIRS)
    nan = float("nan")
    out = []

    # f monotone (through fp, and fp consistent with f)
    mono = cset.fp(q)
    m1, w1 = _worst(mono, q)
    m2, w2, _ = _fd_consistency(cset.f, cset.fp, q, "f")
    if m2 < m1:
        out.append(ClauseResult("f_monotone", m2 >= 0 and m1 >= 0, w2, nan, m2,
                                "derivative consistency limiting"))
    else:
        out.append(ClauseResult("f_monotone", m1 >= 0 and m2 >= 0, w1, nan, m1))

    # G strictly convex with slope bound c0: G'(q)/q > c0 off zero, G'(0) = 0
    Gp = cset.gp(q) * q          # G' = g'(q) q by construction of the set
    off = np.abs(q) > 1e-12
    ratio = np.where(off, Gp / np.where(off, q, 1.0), np.inf)
    mg, wg = _worst(ratio - params.c0, q)
    step0 = 1e-6
    g0 = abs(float(cset.G(np.array([step0]))[0] - cset.G(np.array([-step0]))[0])) / (2 * step0)
    out.append(ClauseResult("G_convex_c0", mg > 0 and g0 <= 1e-5, wg, nan, mg))

    # G'(q) = g'(q) q  (compare against finite differences of G)
    mG, wG, _ = _fd_consistency(cset.G, lambda x: cset.gp(x) * x, q, "G",
                                step=1e-6)
    out.append(ClauseResult("G_g_identity", mG >= 0, wG, nan, mG))

    # G growth: fitted constants, informational
    Cg = float(np.max(np.abs(cset.G(q)) / (q * q + 1.0)))
    Cgp = float(np.max(np.abs(Gp) / (np.abs(q) + 1.0)))
    out.append(ClauseResult("G_growth", True, nan, nan, max(Cg, Cgp),
                            f"fitted C={max(Cg, Cgp):.3g} on sample window"))

    # Legendre structure: h' = -f and d = h + f q = h - h' q
    e1 = np.abs(cset.hp(q) + cset.f(q))
    t1 = 1e-12 * (1.0 + np.abs(cset.f(q)))
    mh, wh = _worst(t1 - e1, q)
    dv = cset.d(q)
    e2 = np.abs(dv - cset.h(q) + cset.hp(q) * q)
    t2 = 1e-12 * (1.0 + np.abs(dv))
    md, wd = _worst(t2 - e2, q)
    if md < mh:
        out.append(ClauseResult("legendre", mh >= 0 and md >= 0, wd, nan, md,
                                "d = h - h'q limiting"))
    else:
        out.append(ClauseResult("legendre", mh >= 0 and md >= 0, wh, nan, mh,
                                "h' = -f limiting"))

    # d > c1
    mdl, wdl = _worst(dv - params.c1, q)
    out.append(ClauseResult("d_lower", mdl > 0, wdl, nan, mdl))

    # W >= 0
    Wv = cset.W(phi)
    mW, wW = _worst(Wv, phi)
    out.append(ClauseResult("W_nonneg", mW >= 0, nan, wW, mW))

    # c1 <= m, mtilde, eta <= c2 on a (phi, q) grid
    pg, qg = np.meshgrid(phi[::16], q[::16], indexing="ij")
    coeffs = np.stack([
        np.broadcast_to(cset.m(pg, qg), pg.shape),
        np.broadcast_to(cset.mtilde(pg), pg.shape),
        np.broadcast_to(cset.eta(pg), pg.shape),
    ])
    lo_margin = float(np.min(coeffs) - params.c1)
    hi_margin = float(params.c2 - np.max(coeffs))
    mb = min(lo_margin, hi_margin)
    flat = np.argmin(np.minimum(coeffs - params.c1, params.c2 - coeffs).min(axis=0))
    wp, wq = pg.ravel()[flat], qg.ravel()[flat]
    out.append(ClauseResult("coeff_bounds", mb >= 0, float(wq), float(wp), mb))

    # h concave: h' nonincreasing, h' consistent with h
    hp_vals = cset.hp(q)
    dh = np.diff(hp_vals)
    mc = float(-np.max(dh)) if len(dh) else 0.0
    wc = float(q[int(np.argmax(dh))]) if len(dh) else nan
    mfd, wfd, _ = _fd_consistency(cset.h, cset.hp, q, "h")
    tol_c = 1e-12 * (1.0 + np.max(np.abs(hp_vals)))
    ok_c = mc >= -tol_c and mfd >= 0
    out.append(ClauseResult("h_concave", ok_c, wc if mc < mfd else wfd, nan,
                            min(mc, mfd)))

    # d constant and f' zero outside [q_min, q_max] (per side)
    below = q[q < params.q_min]
    above = q[q > params.q_max]
    margins = []
    for side in (below, above):
        if len(side) == 0:
            continue
        dval = cset.d(side)
        margins.append(1e-12 * (1 + np.abs(dval)) - np.abs(dval - dval[-1 if side is below else 0]))
        margins.append(1e-12 - np.abs(cset.fp(side)))
    allm = np.concatenate(margins) if margins else np.array([0.0])
    mo = float(np.min(allm))
    out.append(ClauseResult("d_const_outside", mo >= 0, nan, nan, mo,
                            "d constant per side; f' = 0 outside"))

    # W growth: |W| <= C1(|a|^3+1), |W'| <= C1(a^2+1), W >= C2|a| - C3; fitted
    aphi = np.abs(phi)
    C1a = float(np.max(np.abs(Wv) / (aphi ** 3 + 1)))
    C1b = float(np.max(np.abs(cset.Wp(phi)) / (aphi ** 2 + 1)))
    out.append(ClauseResult("W_growth", True, nan, nan, max(C1a, C1b),
                            f"fitted C1={max(C1a, C1b):.3g}; linear lower bound "
                            "witnessed by construction"))

    # W' sublinear when the density actually varies (s = 1/2 window fit)
    if params.rho1 != params.rho2:
        Cs = float(np.max(np.abs(cset.Wp(phi)) / (np.sqrt(aphi) + 1)))
        out.append(ClauseResult("Wp_sublinear", True, nan, nan, Cs,
                                f"fitted C={Cs:.3g} at s=1/2 on sample window"))
    else:
        out.append(ClauseResult("Wp_sublinear", True, nan, nan, 0.0,
                                "not required: density is matched"))

    # g strongly monotone on random pairs plus all consecutive sample pairs
    # (the latter probe every neighborhood, e.g. a flat spot of g' at 0)
    pa = np.concatenate([qa, q[:-1]])
    pb = np.concatenate([qb, q[1:]])
    diff = pa - pb
    lhs = (cset.g(pa) - cset.g(pb)) * diff
    gap = lhs - params.c0 * diff * diff
    rel_gap = gap / np.maximum(diff * diff, 1e-300)
    mgm, idx = float(np.min(rel_gap)), int(np.argmin(rel_gap))
    out.append(ClauseResult("g_strong_monotone", mgm >= -1e-9,
                            float(pa[idx]), nan, mgm,
                            "margin is ((g(a)-g(b))(a-b) - c0(a-b)^2)/(a-b)^2"))

    # density extension: positive, bounded, exactly linear on [-1, 1]
    rv = cset.rho(phi)
    mrho = float(np.min(rv))
    inner = phi[np.abs(phi) <= 1.0]
    lin = 0.5 * (params.rho1 + params.rho2) + 0.5 * (params.rho2 - params.rho1) * inner
    err_lin = np.abs(cset.rho(inner) - lin)
    m_lin = float(np.max(err_lin)) if len(inner) else 0.0
    ok_rho = (mrho > 0 and np.max(np.abs(rv)) < np.inf
              and np.max(np.abs(cset.rhop(phi))) < np.inf
              and m_lin <= 1e-14 * (1 + abs(params.rho2)))
    out.append(ClauseResult("rho_extension", bool(ok_rho), nan,
                            float(phi[int(np.argmin(rv))]), mrho,
                            f"max linear-law error {m_lin:.2e}"))

    # remaining derivative consistency (W, g, rho)
    worst = (np.inf, nan, "")
    for fun, dfun, xs, name in ((cset.W, cset.Wp, phi, "W"),
                                (cset.g, cset.gp, q, "g"),
                                (cset.rho, cset.rhop, phi, "rho")):
        m, w, n = _fd_consistency(fun, dfun, xs, name)
        if m < worst[0]:
            worst = (m, w, n)
    out.append(ClauseResult("derivative_consistency", worst[0] >= 0,
                            nan, worst[1], worst[0], f"worst: {worst[2]}"))

    return AuditReport(clauses=tuple(out), spec=spec)


# ---------------------------------------------------------------------------
# per-step pointwise inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    n_pairs: int
    min_slack_f: float
    min_slack_g: float
    violations: int
    witness: tuple

    @property
    def passed(self) -> bool:
        return self.violations == 0


def pointwise_step_inequalities(cset: ConstitutiveSet, pairs) -> InequalityReport:
    """Slack of the two scalar inequalities the energy estimate rests on.

    For old/new value pairs (a, b):

        (f(b) - f(a)) b >= f(b) b - f(a) a + h(b) - h(a)     [concavity of h]
        (g(b) - g(a)) b >= G(b) - G(a)                       [monotonicity of g]

    Nonnegative slack for every pair is what makes the implicit update
    dissipative regardless of step size.  Violations are reported with the
    witness pair; identical pairs have exactly zero slack.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim == 1:
        pairs = pairs.reshape(1, 2)
    a = pairs[:, 0]
    b = pairs[:, 1]
    slack_f = cset.f(a) * (a - b) + cset.h(a) - cset.h(b)
    slack_g = (cset.g(b) - cset.g(a)) * b - (cset.G(b) - cset.G(a))
    tol = -1e-13 * (1.0 + np.abs(cset.h(a)) + np.abs(cset.G(b)))
    bad = (slack_f < tol) | (slack_g < tol)
    nviol = int(np.count_nonzero(bad))
    i_f = int(np.argmin(slack_f))
    i_g = int(np.argmin(slack_g))
    worst = i_f if slack_f[i_f] <= slack_g[i_g] else i_g
    return InequalityReport(
        n_pairs=len(a),
        min_slack_f=float(slack_f[i_f]),
        min_slack_g=float(slack_g[i_g]),
        violations=nviol,
        witness=(float(a[worst]), float(b[worst])),
    )
