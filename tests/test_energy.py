"""Total energy evaluation and the per-step energy audit."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fields import copy_state, iterate_of
from surfflow.cli import build_objects, parse_config
from surfflow.constitutive import build_default_set
from surfflow.energy import (LEDGER_COLUMNS, SLACK_TOL, audit_step,
                             estimate_slack, rows_to_csv, total_energy)
from surfflow.mesh import Grid
from surfflow.state import (ScenarioConfig, evaluated, initialize_scenario,
                            observables)
from surfflow.stepper import StepConfig, run, step


class TestTotalEnergy:
    def test_pure_phase_zero_energy(self, cset, params):
        g = Grid(8, 8)
        s = initialize_scenario(ScenarioConfig(name="uniform", phi0=1.0, q0=0.0),
                                g, params, cset)
        E = total_energy(s, cset, params)
        assert E.E_tot == 0.0
        assert (E.E_kin, E.E_grad, E.E_surf, E.E_bulk) == (0.0, 0.0, 0.0, 0.0)

    def test_closed_form_well_center(self, cset, params):
        # phi = 0, q = 0: only the interfacial term d(0) W(0) / epsilon
        # = 1 * (1/4) / 0.1 = 2.5 on the unit square
        g = Grid(16, 16)
        s = initialize_scenario(ScenarioConfig(name="uniform", phi0=0.0, q0=0.0),
                                g, params, cset)
        E = total_energy(s, cset, params)
        assert E.E_tot == pytest.approx(2.5, abs=1e-13)
        assert E.E_surf == pytest.approx(2.5, abs=1e-13)

    def test_mu_shift_invariance(self, cset, params):
        g = Grid(12, 12)
        s = initialize_scenario(ScenarioConfig(name="droplet", q0=0.2),
                                g, params, cset)
        E1 = total_energy(s, cset, params)
        s.mu.data += 17.0
        E2 = total_energy(s, cset, params)
        assert E1 == E2

    def test_additivity_bitwise(self, cset, params):
        g = Grid(16, 16)
        s = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.2,
                                               shear=0.4), g, params, cset)
        E = total_energy(s, cset, params)
        assert E.E_tot == E.E_kin + E.E_grad + E.E_surf + E.E_bulk


class TestAuditStep:
    def test_identical_uniform_states_zero_slack(self, cset, params):
        g = Grid(8, 8)
        s = initialize_scenario(ScenarioConfig(name="uniform", phi0=0.2, q0=0.4),
                                g, params, cset)
        row = audit_step(s, s, cset, params, tau=1e-3,
                         E_k=total_energy(s, cset, params).E_tot)
        assert row.slack == 0.0
        for name in ("visc", "q_diss", "mu_diss", "kin_jump", "grad_jump",
                     "phi_jump", "biharm"):
            assert getattr(row, name) == 0.0

    def test_valid_step_has_nonnegative_slack(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=True)
        s1, rep = step(s0, g, cset, params, cfg)
        E0 = total_energy(s0, cset, params).E_tot
        row = audit_step(s0, s1, cset, params, rep.tau_used, E0)
        assert row.slack >= -1e-8 * max(E0, 1.0)
        assert row.q_diss >= 0 and row.mu_diss >= 0 and row.grad_jump >= 0

    def test_perturbed_result_detected(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=True)
        s1, rep = step(s0, g, cset, params, cfg)
        E0 = total_energy(s0, cset, params).E_tot
        bad = copy_state(s1)
        bad.q.data[100] += 0.1
        row = audit_step(s0, bad, cset, params, rep.tau_used, E0)
        assert row.slack < -1e-8 * max(E0, 1.0)

    def test_quadrature_matches_stepper_operators(self, cset, params, rng):
        # the audited dissipation integral equals the quadratic form of the
        # frozen diffusion block, minus the (mu, mu) block of J_CC
        from surfflow.stepper import _jacobian, _Terms, assemble_linear
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.3),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=True)
        lin = assemble_linear(s0, g, cset, params, cfg)
        J = _jacobian(_Terms(lin, cset, cfg, cfg.tau, *iterate_of(s0)))
        mu_block = slice(g.n_cells, 2 * g.n_cells)      # [q, mu, phi]
        mu = rng.standard_normal(g.n_cells)
        form = float((J.CC[mu_block, mu_block] @ mu) @ mu) * g.dV
        gmu = g.ops.G @ mu
        direct = float((lin.mt_faces * gmu) @ gmu) * g.dV
        assert form == pytest.approx(direct, rel=1e-12)

    def test_csv_schema(self, cset, params):
        g = Grid(8, 8)
        s = initialize_scenario(ScenarioConfig(name="uniform"), g, params, cset)
        row = audit_step(s, s, cset, params, tau=1e-3,
                         E_k=total_energy(s, cset, params).E_tot)
        text = rows_to_csv([row])
        header, line = text.strip().splitlines()
        assert header == ",".join(LEDGER_COLUMNS)
        assert len(line.split(",")) == len(LEDGER_COLUMNS)


class TestEnergyReuse:
    @pytest.mark.parametrize("v0_mode", (True, False), ids=("v0", "coupled"))
    def test_each_state_energy_is_computed_once(self, cset, params,
                                                 monkeypatch, v0_mode):
        # run hands each row's E_tot to the next audit: N steps evaluate
        # N + 1 energies, and the rows equal audits that recompute E(k)
        import surfflow.energy as energy_module
        calls = []

        def counted(s, *args):
            calls.append(s)
            return total_energy(s, *args)

        monkeypatch.setattr(energy_module, "total_energy", counted)
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        states = [s0]
        res = run(s0, g, cset, params, StepConfig(tau=1e-3, v0_mode=v0_mode),
                  T=3e-3, callbacks=[lambda s, rep, row: states.append(s)])
        monkeypatch.undo()
        assert len(res.rows) == 3
        assert len(calls) == len(res.rows) + 1
        fresh = [audit_step(old, new, cset, params, rep.tau_used,
                            total_energy(old, cset, params).E_tot,
                            nl_iters=rep.iterations)
                 for old, new, rep in zip(states, states[1:], res.reports)]
        assert rows_to_csv(fresh) == rows_to_csv(res.rows)


@pytest.fixture(scope="module", ids=lambda p: p[0],
                params=[("relaxation-v0", 20), ("shear-droplet", 5)])
def shipped_run_16(request):
    """A shipped config at 16^2 run its given steps: (params, cset, stepper
    config, the states from the initial one on, the run result)."""
    name, steps = request.param
    config = Path(__file__).parent.parent / "configs" / f"{name}.ini"
    _, params, _, cfg, scenario, _ = build_objects(parse_config(config))
    g = Grid(16, 16)
    cset = build_default_set(params)
    states = [initialize_scenario(scenario, g, params, cset)]
    res = run(states[0], g, cset, params, cfg, T=steps * cfg.tau,
              callbacks=[lambda s, rep, row: states.append(s)])
    assert len(res.rows) == steps
    return params, cset, cfg, states, res


class TestCarriedValues:
    """Each accepted state carries the values evaluated at it
    (``state.evaluated``); the ledger reads them instead of evaluating them
    again."""

    def test_rows_equal_audits_of_fresh_states(self, shipped_run_16):
        # fresh copies carry nothing: every row equals, bit for bit, the
        # audit that evaluates each term from the fields alone
        params, cset, _, states, res = shipped_run_16
        E_k = total_energy(copy_state(states[0]), cset, params).E_tot
        assert E_k == res.E0
        for old, new, rep, row in zip(states, states[1:], res.reports,
                                      res.rows):
            fresh = audit_step(copy_state(old), copy_state(new), cset, params,
                               rep.tau_used, E_k, nl_iters=rep.iterations)
            assert rows_to_csv([fresh]) == rows_to_csv([row])
            E_k = fresh.E_tot

    def test_carried_arrays_equal_fresh_evaluations(self, shipped_run_16):
        # no reader writes a carried array in place: after the run each one
        # still equals its evaluation on a fresh copy of its state
        _, cset, cfg, states, _ = shipped_run_16
        flow = not cfg.v0_mode
        iterate = {"W", "f", "g", "grad_phi", "grad_q", "grad_mu"} | (
            {"rho"} if flow else set())
        frozen = {"m_faces", "mt_faces"} | ({"eta"} if flow else set())
        for k, s in enumerate(states):
            key, carried = s._carried
            assert key is cset
            assert carried.keys() == (iterate if k else set()) | (
                frozen if k < len(states) - 1 else set()), k
            fresh = copy_state(s)
            for name, value in carried.items():
                assert not value.flags.writeable
                assert np.array_equal(value, evaluated(fresh, cset, name)), \
                    (k, name)

    def test_values_belong_to_their_set(self, shipped_run_16):
        # under a second set the states' carried values are not read: the
        # energy, the observables and the audit equal those of fresh copies
        params, cset, _, states, res = shipped_run_16
        p2 = dataclasses.replace(params, beta=2.0 * params.beta,
                                 rho2=1.25 * params.rho2,
                                 eta2=1.5 * params.eta2)
        cs2 = build_default_set(p2)
        old, new = states[-2], states[-1]
        E_old = total_energy(copy_state(old), cs2, p2).E_tot
        want = (total_energy(copy_state(new), cs2, p2),
                observables(copy_state(new), cs2, p2),
                audit_step(copy_state(old), copy_state(new), cs2, p2,
                           res.reports[-1].tau_used, E_old))
        assert want[1] != observables(new, cset, params)
        got = (total_energy(new, cs2, p2), observables(new, cs2, p2),
               audit_step(old, new, cs2, p2, res.reports[-1].tau_used, E_old))
        assert got == want
        # reads under another set leave the states their own set's values
        assert old._carried[0] is cset and new._carried[0] is cset


class TestLedgerSlack:
    def test_first_row_floor_is_initial_energy(self, cset, params):
        # the first step's pre-step energy includes that step's dissipation
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-3), T=2e-3)
        E0 = total_energy(s0, cset, params).E_tot
        rel, _ = estimate_slack(res.rows, 0.0, E0)
        assert rel[0] == res.rows[0].slack / max(abs(E0), 1.0)
        assert np.array_equal(rel[1:], [r.slack / max(abs(e.E_tot), 1.0)
                                        for r, e in zip(res.rows[1:],
                                                        res.rows[:-1])])

    def test_estimate_slack_is_slack_less_defect(self, params):
        # random-seed at 8^2, tau 1e-2: the raw slack of a coupled step
        # includes its transport defect, which the estimate does not bound
        p = dataclasses.replace(params, epsilon=0.1)
        cs = build_default_set(p)
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="random-seed", sigma=0.5,
                                                q0=0.1), g, p, cs)
        res = run(s0, g, cs, p, StepConfig(tau=1e-2), T=0.02)
        defects = np.array([rep.transport_defect for rep in res.reports])
        raw, _ = estimate_slack(res.rows, 0.0, res.E0)
        e_prev = np.array([res.E0] + [r.E_tot for r in res.rows[:-1]])
        rel, violated = estimate_slack(res.rows, defects, res.E0)
        slack = np.array([r.slack for r in res.rows])
        assert np.array_equal(rel, (slack - defects)
                              / np.maximum(np.abs(e_prev), 1.0))
        assert np.array_equal(violated, rel < -SLACK_TOL)
        assert raw.min() < -SLACK_TOL and not violated.any()

    def test_estimate_slack_is_ledger_slack_without_flow(self, cset, params):
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-3, v0_mode=True),
                  T=2e-3)
        defects = [rep.transport_defect for rep in res.reports]
        assert defects == [0.0, 0.0]
        rel, violated = estimate_slack(res.rows, defects, res.E0)
        assert np.array_equal(rel, estimate_slack(res.rows, 0.0, res.E0)[0])
        assert not violated.any()


class TestSlackTracksTolerance:
    """Transport-free slack is nonnegative to solver tolerance.

    Testing the q equation with tau*q, the phi evolution with tau*mu and the
    mu relation with phi - phi_k (cell quadrature dV) splits the slack into
    pointwise step-inequality terms, which are >= 0 at any iterate, plus
    dV * (tau <r_q, q> + tau <r_mu, mu> + <r_phi, phi - phi_k>).  An accepted
    iterate has |r_b| <= tol_nl * (1 + S_b) for each block b, S_b being the
    block's largest term norm, so the relative slack is at least
    -tol_nl * B with

        B = dV * (tau |q| (1 + S_q) + tau |mu| (1 + S_mu)
                  + |phi - phi_k| (1 + S_phi)) / max(|E|, 1).

    On this run (16^2, tau = 1e-3, 20 steps) B <= 0.13 at every step
    (S_mu <= 700, |mu| <= 40, |q| <= 3.1, |phi - phi_k| <= 0.7), so C = 1.
    """

    C = 1.0
    TOLS = (1e-6, 1e-8, 1e-10)

    @pytest.fixture(scope="class")
    def relative_slacks(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        E0 = total_energy(s0, cset, params).E_tot
        out = {}
        for tol in self.TOLS + (1e-13,):
            res = run(s0, g, cset, params,
                      StepConfig(tau=1e-3, v0_mode=True, tol_nl=tol), T=0.02)
            E_prev = np.array([E0] + [r.E_tot for r in res.rows[:-1]])
            out[tol] = np.array([r.slack for r in res.rows]) \
                / np.maximum(np.abs(E_prev), 1.0)
        return out

    @pytest.mark.parametrize("tol", TOLS)
    def test_min_slack_bounded_by_tolerance(self, relative_slacks, tol):
        assert relative_slacks[tol].min() >= -self.C * tol

    @pytest.mark.parametrize("tol", TOLS)
    def test_slack_converges_with_tolerance(self, relative_slacks, tol):
        # the scheme's own dissipation keeps the slack positive (~1e-6), so
        # the lower bound alone is loose; the slack of every step also moves
        # by at most C * tol_nl against a run at tol_nl = 1e-13 (measured:
        # at most 3e-4 * tol_nl)
        dev = np.abs(relative_slacks[tol] - relative_slacks[1e-13])
        assert dev.max() <= self.C * tol


class TestCoupledEstimateTracksTolerance:
    """With flow, the slack less the transport defect is nonnegative to
    solver tolerance.

    The split of ``TestSlackTracksTolerance`` with the momentum equation
    tested with tau*v: the slack less the step's transport defect
    (``stepper.transport_defect``, the three coupling forms that do not
    cancel on the stencil) is a sum of pointwise step-inequality terms,
    each >= 0 at any iterate, plus dV * (tau <r_v, v> + tau <r_q, q>
    + tau <r_mu, mu> + <r_phi, phi - phi_k>), so the relative estimate slack
    (slack - defect) / max(|E(k-1)|, 1) is at least -tol_nl * B with

        B = dV * (tau |v| (1 + S_v) + tau |q| (1 + S_q) + tau |mu| (1 + S_mu)
                  + |phi - phi_k| (1 + S_phi)) / max(|E(k-1)|, 1).

    The run is stressed: random-seed (sigma 0.5, q0 0.1, epsilon 0.1) at
    16^2, tau = 1e-2, five steps.  Its first step's raw relative slack is
    -1.2e-4, the capillary power in the defect, so the defect term decides
    the sign.  B <= 0.41 at every step (S_v <= 900, S_mu <= 800,
    |phi - phi_k| the largest weight), so C = 1; the relative estimate
    slack is at least 4.0e-6 at every tolerance.
    """

    C = 1.0
    TOLS = (1e-6, 1e-8, 1e-10)

    @pytest.fixture(scope="class")
    def relative_slacks(self, params):
        p = dataclasses.replace(params, epsilon=0.1)
        cs = build_default_set(p)
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="random-seed", sigma=0.5,
                                                q0=0.1), g, p, cs)
        out = {}
        for tol in self.TOLS + (1e-13,):
            res = run(s0, g, cs, p, StepConfig(tau=1e-2, tol_nl=tol), T=0.05)
            assert len(res.rows) == 5
            raw, _ = estimate_slack(res.rows, 0.0, res.E0)
            assert raw.min() < -1e-4
            defects = [rep.transport_defect for rep in res.reports]
            out[tol] = estimate_slack(res.rows, defects, res.E0)[0]
        return out

    @pytest.mark.parametrize("tol", TOLS)
    def test_min_estimate_slack_bounded_by_tolerance(self, relative_slacks,
                                                     tol):
        assert relative_slacks[tol].min() >= -self.C * tol

    @pytest.mark.parametrize("tol", TOLS)
    def test_estimate_slack_converges_with_tolerance(self, relative_slacks,
                                                     tol):
        dev = np.abs(relative_slacks[tol] - relative_slacks[1e-13])
        assert dev.max() <= self.C * tol
