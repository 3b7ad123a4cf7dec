"""Model-function defaults, the exact secant slope of W, and the audit."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from surfflow.constitutive import (ConstitutiveError, ModelParams,
                                   SamplingSpec, audit_assumptions,
                                   build_default_set,
                                   pointwise_step_inequalities)


class TestDefaults:
    def test_f_smoothstep_midpoint(self, cset):
        assert float(cset.f(0.5)) == pytest.approx(0.5, abs=0)

    def test_h_and_d_at_one(self, cset):
        # oracle: integral of f over [0, 1] by quadrature equals 1/2,
        # so h(1) = h0 - 1/2 and d(1) = h0 + beta/2
        integral, err = quad(lambda s: s * s * (3 - 2 * s), 0.0, 1.0)
        assert integral == pytest.approx(0.5, abs=1e-12)
        assert float(cset.h(1.0)) == pytest.approx(0.5, abs=1e-15)
        assert float(cset.d(1.0)) == pytest.approx(1.5, abs=1e-15)

    def test_d_constant_outside_active_interval(self, cset):
        assert float(cset.d(-3.0)) == pytest.approx(1.0, abs=0)
        assert float(cset.d(7.0)) == pytest.approx(1.5, abs=1e-15)
        assert float(cset.fp(-3.0)) == 0.0
        assert float(cset.fp(7.0)) == 0.0

    def test_rejects_h0_below_c1(self):
        with pytest.raises(ConstitutiveError, match="d_lower"):
            build_default_set(ModelParams(h0=0.05, c1=0.1))

    def test_param_invariants(self):
        with pytest.raises(ConstitutiveError, match="q_min < q_max"):
            ModelParams(q_min=1.0, q_max=0.0)
        with pytest.raises(ConstitutiveError, match="c1 < c2"):
            ModelParams(c1=5.0, c2=1.0)
        with pytest.raises(ConstitutiveError, match="positive density floor"):
            ModelParams(rho1=1.0, rho2=3.5)

    def test_density_linear_inside_and_saturating(self, cset, params):
        phi = np.linspace(-1.0, 1.0, 101)
        lin = 0.5 * (params.rho1 + params.rho2) \
            + 0.5 * (params.rho2 - params.rho1) * phi
        assert np.array_equal(cset.rho(phi), lin)
        far = np.array([-50.0, 50.0])
        assert np.all(cset.rho(far) > 0)
        assert np.all(np.abs(cset.rhop(far)) < 1e-18)


class TestSecantSlope:
    def test_equal_arguments_give_derivative(self, cset):
        for x in (-3.0, -1.2, 0.5, 2.0, 4.0):
            assert float(cset.secant_W(x, x)) == pytest.approx(
                float(cset.Wp(x)), abs=0)
        assert float(cset.secant_W(0.5, 0.5)) == pytest.approx(-0.375, abs=0)

    def test_symmetric_well_endpoints(self, cset):
        assert float(cset.secant_W(1.0, -1.0)) == 0.0

    def test_exact_rational_oracle(self, cset):
        # extended-precision divided difference at (1.2, 0.3)
        def W(x):
            return (1 - x * x) ** 2 / 4

        a, b = Fraction(12, 10), Fraction(3, 10)
        exact = float((W(a) - W(b)) / (a - b))
        got = float(cset.secant_W(1.2, 0.3))
        assert got == pytest.approx(exact, abs=1e-14 * (1 + abs(exact)))
        assert abs(got * 0.9 - (float(cset.W(1.2)) - float(cset.W(0.3)))) \
            <= 1e-14 * (1 + abs(float(cset.W(1.2))) + abs(float(cset.W(0.3))))

    def test_identity_sweep_including_tiny_gaps(self, cset, rng):
        a = rng.uniform(-4.0, 4.0, 50_000)
        gaps = rng.choice([0.0, 1e-12, -1e-12, 1e-9, 0.3, -1.7, 3.0], 50_000)
        b = a + gaps
        H = cset.secant_W(a, b)
        err = np.abs(H * (a - b) - (cset.W(a) - cset.W(b)))
        tol = 1e-14 * (1.0 + np.abs(cset.W(a)) + np.abs(cset.W(b)))
        assert np.all(err <= tol)

    def test_secant_derivative_matches_finite_differences(self, cset, rng):
        a = rng.uniform(-3.0, 3.0, 2000)
        b = rng.uniform(-3.0, 3.0, 2000)
        keep = np.abs(np.abs(a) - 2.0) > 1e-4   # stay off the C^1 kinks
        a, b = a[keep], b[keep]
        h = 1e-6
        fd = (cset.secant_W(a + h, b) - cset.secant_W(a - h, b)) / (2 * h)
        an = cset.dsecant_W_da(a, b)
        assert np.max(np.abs(fd - an) / (1.0 + np.abs(an))) < 1e-6


class TestAudit:
    def test_default_set_passes_all_clauses(self, cset, params):
        rep = audit_assumptions(cset, params)
        assert rep.passed, rep.to_text()
        ids = [c.clause_id for c in rep.clauses]
        assert len(ids) == len(set(ids))

    def test_report_is_deterministic(self, cset, params):
        r1 = audit_assumptions(cset, params)
        r2 = audit_assumptions(cset, params)
        assert r1.to_csv() == r2.to_csv()

    def test_cubic_g_fails_strong_monotonicity(self, cset, params):
        bad = dataclasses.replace(
            cset,
            g=lambda q: np.asarray(q, dtype=float) ** 3,
            gp=lambda q: 3.0 * np.asarray(q, dtype=float) ** 2,
            G=lambda q: 0.75 * np.asarray(q, dtype=float) ** 4,
        )
        rep = audit_assumptions(bad, params)
        failed = rep.failed_ids()
        assert "g_strong_monotone" in failed

    def test_convex_h_fails_concavity(self, cset, params):
        # f = -2q makes the derived h' = 2q that of h = q^2: the set is
        # convex, not merely inconsistent
        bad = dataclasses.replace(
            cset,
            h=lambda q: np.asarray(q, dtype=float) ** 2,
            f=lambda q: -2.0 * np.asarray(q, dtype=float),
        )
        rep = audit_assumptions(bad, params)
        assert "h_concave" in rep.failed_ids()

    def test_sampling_floor(self, cset, params):
        with pytest.raises(ConstitutiveError, match="1000"):
            audit_assumptions(cset, params, SamplingSpec(n=100))

    def test_csv_report_shape(self, cset, params):
        rep = audit_assumptions(cset, params)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "clause_id,pass,witness_q,witness_phi,margin"
        assert len(lines) == len(rep.clauses) + 1


class TestStructuralIdentities:
    def test_legendre_relation(self, cset):
        q = np.linspace(-2.0, 3.0, 10_000)
        d = cset.d(q)
        err = np.abs(d - cset.h(q) + cset.hp(q) * q)
        assert np.all(err <= 1e-12 * (1.0 + np.abs(d)))

    def test_hp_equals_minus_f(self, cset):
        q = np.linspace(-2.0, 3.0, 10_000)
        err = np.abs(cset.hp(q) + cset.f(q))
        assert np.all(err <= 1e-12 * (1.0 + np.abs(cset.f(q))))

    @pytest.mark.parametrize("change", [
        {}, {"h": lambda q: np.cos(np.asarray(q, dtype=float))},
        {"f": lambda q: np.tanh(np.asarray(q, dtype=float))}],
        ids=["default", "h", "f"])
    def test_hp_and_d_derived_from_f_and_h(self, cset, change):
        # h' and d are no fields: a set computes them, bit for bit, from
        # its own f and h, a replaced one included
        assert {f.name for f in dataclasses.fields(cset)}.isdisjoint(
            {"hp", "d"})
        s = dataclasses.replace(cset, **change)
        q = np.linspace(-2.0, 3.0, 10_001)
        assert s.hp(q).tobytes() == (-s.f(q)).tobytes()
        assert s.d(q).tobytes() == (s.h(q) + s.f(q) * q).tobytes()
        assert s.d(2.5) == s.h(2.5) + s.f(2.5) * 2.5

    def test_G_prime_identity_exact(self, cset):
        q = np.linspace(-4.0, 4.0, 10_000)
        h = 1e-6
        Gp = (cset.G(q + h) - cset.G(q - h)) / (2 * h)
        assert np.max(np.abs(Gp - cset.gp(q) * q)) < 1e-9


class TestStepInequalities:
    def test_identical_pairs_have_exactly_zero_slack(self, cset, rng):
        q = rng.uniform(-2.0, 3.0, 100)
        rep = pointwise_step_inequalities(cset, np.column_stack([q, q]))
        assert rep.min_slack_f == 0.0
        assert rep.min_slack_g == 0.0
        assert rep.violations == 0

    def test_random_sweep_has_no_violations(self, cset, rng):
        pairs = rng.uniform(-2.0, 3.0, size=(100_000, 2))
        rep = pointwise_step_inequalities(cset, pairs)
        assert rep.violations == 0
        assert rep.min_slack_f >= 0.0
        assert rep.min_slack_g >= -1e-13

    def test_convex_h_violates_first_inequality(self, cset):
        bad = dataclasses.replace(
            cset,
            h=lambda q: np.asarray(q, dtype=float) ** 2,
            f=lambda q: -2.0 * np.asarray(q, dtype=float),
        )
        rep = pointwise_step_inequalities(bad, [(0.0, 1.0)])
        assert rep.min_slack_f < 0.0
        assert rep.violations == 1
        assert rep.witness == (0.0, 1.0)


# ---------------------------------------------------------------------------
# property tests: the same relations and tolerances as the point tests above,
# on inputs drawn around the piece boundaries of W (+-2) and of f, h
# (q_min, q_max)
# ---------------------------------------------------------------------------

_PROPERTY = settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
_PARAMS = ModelParams()
_CSET = build_default_set(_PARAMS)
_BOUNDARIES = (-2.0, 2.0, _PARAMS.q_min, _PARAMS.q_max)


def _near(points, lo, hi):
    """Floats in [lo, hi], often a boundary point or a hair beside one."""
    offsets = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9])
    at_point = st.builds(lambda x, d: x + d, st.sampled_from(points), offsets)
    return st.one_of(at_point, st.floats(lo, hi))


_PHI = _near((-2.0, 2.0, -1.0, 1.0, 0.0), -4.0, 4.0)
_GAP = st.one_of(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9]),
                 st.floats(-3.0, 3.0))


class TestSecantProperties:
    @_PROPERTY
    @given(a=_PHI, gap=_GAP)
    def test_secant_identity(self, a, gap):
        b = a + gap
        H = float(_CSET.secant_W(a, b))
        Wa, Wb = float(_CSET.W(a)), float(_CSET.W(b))
        assert abs(H * (a - b) - (Wa - Wb)) <= 1e-14 * (1.0 + abs(Wa) + abs(Wb))

    @_PROPERTY
    @given(a=_PHI.filter(lambda x: abs(x) <= 3.0 and abs(abs(x) - 2.0) > 1e-4),
           b=_near((-2.0, 2.0, -1.0, 1.0, 0.0), -3.0, 3.0))
    def test_secant_derivative_matches_central_differences(self, a, b):
        h = 1e-6
        fd = (float(_CSET.secant_W(a + h, b))
              - float(_CSET.secant_W(a - h, b))) / (2 * h)
        an = float(_CSET.dsecant_W_da(a, b))
        assert abs(fd - an) / (1.0 + abs(an)) < 1e-6


class TestStepInequalityProperties:
    @_PROPERTY
    @given(a=_near(_BOUNDARIES, -3.0, 4.0), b=_near(_BOUNDARIES, -3.0, 4.0))
    def test_nonnegative_slack_at_piece_boundaries(self, a, b):
        # next to q_max the exact slack of the first inequality is ~0 (f' and
        # f - f(a) vanish there), so it holds to round-off: both slacks get
        # the -1e-13 floor of the g inequality in the sweep above
        rep = pointwise_step_inequalities(_CSET, [(a, b)])
        assert rep.violations == 0
        assert rep.min_slack_f >= -1e-13
        assert rep.min_slack_g >= -1e-13
