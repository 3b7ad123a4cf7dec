"""Implicit step: fixed point, oracle equivalence, assembly, conservation."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.optimize import root

import reference_assembly
import surfflow.mesh as mesh
from fields import from_function, iterate_of, ux2d, view2d
from surfflow.cli import build_objects, parse_config
from surfflow.constitutive import ModelParams, build_default_set
from surfflow.energy import rows_to_csv, total_energy
from surfflow.linalg import LU_OPTIONS
from surfflow.mesh import Grid, ScalarField, VectorField, convect_skew
from surfflow.state import ScenarioConfig, State, initialize_scenario
from surfflow.stepper import (FACTOR_COST_PER_FILL, StepConfig, StepFailure,
                              PREDICTOR_DEPTH, StepReport, _BLOCKS,
                              _CH_BLOCKS, _HeldLU, _advanced, _cells,
                              _jacobian, _LU, _predicted, _Terms,
                              assemble_linear, run, step)


def _ch_layout(g):
    """The slices of q, mu and phi within the C run [q, mu, phi] of the
    unknowns (the rows and columns of J_CC and the rows of J_CS)."""
    nc = g.n_cells
    return {b: slice(i * nc, (i + 1) * nc) for i, b in enumerate(_CH_BLOCKS)}


def two_cell_oracle(phi_k, q_k, cset, params, tau, dx, x0=None):
    """Independent root-finder for the transport-free step on two cells.

    The discrete system for (q, mu, phi) on a two-cell row with Neumann
    walls, written out by hand and handed to a general-purpose solver.
    """
    eps, delta = params.epsilon, params.delta

    def lap(c):
        return np.array([c[1] - c[0], c[0] - c[1]]) / dx ** 2

    W_k = cset.W(phi_k)

    def residual(x):
        q, mu, phi = x[0:2], x[2:4], x[4:6]
        r_q = ((cset.f(q) - cset.f(q_k)) * W_k
               + cset.f(q) * (cset.W(phi) - W_k)) / (eps * tau) \
            + (cset.g(q) - cset.g(q_k)) / tau - lap(q)
        r_phi = (phi - phi_k) / tau - lap(mu)
        r_mu = mu + eps * lap(phi) \
            - cset.h(q) * cset.secant_W(phi, phi_k) / eps \
            - delta * (phi - phi_k) / tau
        return np.concatenate([r_q, r_phi, r_mu])

    if x0 is None:
        mu0 = cset.h(q_k) * cset.Wp(phi_k) / eps
        x0 = np.concatenate([q_k, mu0, phi_k])
    sol = root(residual, x0, method="hybr", tol=1e-13)
    # certify by the recomputed residual, not the solver's own flag
    assert np.abs(residual(sol.x)).max() < 1e-11, sol.message
    return sol.x[0:2], sol.x[2:4], sol.x[4:6]


def two_cell_state(grid, phi_pair, q_pair, cset, params):
    phi = np.repeat(phi_pair, grid.ny)
    q = np.repeat(q_pair, grid.ny)
    s = State(v=VectorField.zeros(grid),
              p=ScalarField.zeros(grid),
              phi=ScalarField(grid, phi),
              mu=ScalarField.zeros(grid),
              q=ScalarField(grid, q))
    mu = -params.epsilon * (grid.ops.D @ (grid.ops.G @ s.phi.data)) \
        + cset.h(s.q.data) * cset.Wp(s.phi.data) / params.epsilon
    s.mu.data[:] = mu
    return s


class TestFixedPoint:
    def test_uniform_state_exact_one_iteration(self, cset, params):
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="uniform", phi0=0.3, q0=0.5),
                                 g, params, cset)
        s1, rep = step(s0, g, cset, params, StepConfig(tau=0.05))
        assert rep.iterations == 1
        assert rep.converged
        assert rep.residual_history[0]["total"] == 0.0
        for a, b in ((s1.phi, s0.phi), (s1.q, s0.q), (s1.mu, s0.mu),
                     (s1.v, s0.v), (s1.p, s0.p)):
            assert np.array_equal(a.data, b.data)
        assert s1.t == pytest.approx(s0.t + 0.05)
        assert s1.k == 1

    def test_random_uniform_states(self, cset, params, rng):
        g = Grid(6, 6)
        for _ in range(5):
            phi0 = rng.uniform(-1.2, 1.2)
            q0 = rng.uniform(-0.5, 1.5)
            s0 = initialize_scenario(ScenarioConfig(name="uniform", phi0=phi0,
                                                    q0=q0), g, params, cset)
            s1, rep = step(s0, g, cset, params, StepConfig(tau=1e-2))
            assert rep.iterations == 1
            assert np.array_equal(s1.phi.data, s0.phi.data)
            assert np.array_equal(s1.q.data, s0.q.data)


def _mass_flux(phi_k, mu, cset, params):
    """The stepper's diffusive mass flux at an iterate with potential mu,
    coefficients frozen at phi_k: its mass flux M at v = 0."""
    g = phi_k.grid
    s = State(v=VectorField.zeros(g), p=ScalarField.zeros(g), phi=phi_k,
              mu=mu, q=ScalarField.zeros(g))
    cfg = StepConfig(tau=1e-3)
    lin = assemble_linear(s, g, cset, params, cfg)
    return VectorField(g, _Terms(lin, cset, cfg, cfg.tau, *iterate_of(s)).M)


class TestMassFlux:
    def test_constant_mu_gives_zero_flux(self, cset, params):
        g = Grid(10, 10)
        phi = from_function(g, lambda X, Y: np.tanh(4 * (X - 0.5)))
        J = _mass_flux(phi, ScalarField.full(g, 2.0), cset, params)
        assert np.all(J.data == 0.0)

    def test_matched_densities_give_zero_flux(self, params):
        matched_params = dataclasses.replace(params, rho2=params.rho1)
        matched = build_default_set(matched_params)
        g = Grid(10, 10)
        phi = from_function(g, lambda X, Y: X - 0.5)
        mu = from_function(g, lambda X, Y: np.cos(3 * X * Y))
        J = _mass_flux(phi, mu, matched, matched_params)
        assert np.all(J.data == 0.0)

    def test_linear_mu_uniform_flux(self, cset, params):
        # mu = x on the periodic grid: interior faces carry the uniform flux
        # -(rho2 - rho1)/2 * mtilde(0); the wrap faces carry the jump
        g = Grid(16, 16, 1.0, 1.0, "periodic")
        phi = ScalarField.zeros(g)
        mu = from_function(g, lambda X, Y: X)
        J = _mass_flux(phi, mu, cset, params)
        jx = ux2d(J)
        expect = -(params.rho2 - params.rho1) / 2.0
        assert np.allclose(jx[1:, :], expect, atol=1e-14)
        assert np.allclose(J.uy, 0.0)


class TestAssembly:
    def test_blocks_symmetric(self, cset, params, rng):
        # the velocity form and the diagonal blocks of the Jacobian: at
        # v = 0 each scalar block is its diffusion operator plus a diagonal
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.2),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3)
        lin = assemble_linear(s0, g, cset, params, cfg)
        J = _jacobian(_Terms(lin, cset, cfg, cfg.tau, *iterate_of(s0)))
        C = _ch_layout(g)
        probes = {}
        for name, mat in (("velocity", lin.A_form),
                          *((b, J.CC[C[b], C[b]]) for b in C)):
            worst = 0.0
            for _ in range(6):
                x = rng.standard_normal(mat.shape[0])
                y = rng.standard_normal(mat.shape[0])
                a, b = float((mat @ x) @ y), float(x @ (mat @ y))
                worst = max(worst, abs(a - b) / (1.0 + abs(a) + abs(b)))
            probes[name] = worst
        assert all(v <= 1e-13 for v in probes.values()), probes

    def test_diffusion_blocks_annihilate_constants(self, cset, params):
        # the constants are the kernel of the mobility diffusion D diag(m) G
        g = Grid(10, 10)
        s0 = initialize_scenario(ScenarioConfig(name="uniform"), g, params, cset)
        lin = assemble_linear(s0, g, cset, params, StepConfig(tau=1e-3))
        c = np.full(g.n_cells, 4.0)
        out = reference_assembly.diffusion(g, lin.m_faces) @ c
        assert np.allclose(out, 0.0)

    def test_coefficient_bounds_enforced(self, cset, params):
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="uniform"), g, params, cset)
        tight = dataclasses.replace(params, c1=0.9, c2=1.05)  # eta(0) = 1.5
        with pytest.raises(ValueError, match="eta"):
            assemble_linear(s0, g, cset, tight, StepConfig(tau=1e-3))

    def test_stationary_uniform_rhs_consistency(self, cset, params):
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="uniform", phi0=0.4,
                                                q0=0.3), g, params, cset)
        cfg = StepConfig(tau=1e-3)
        lin = assemble_linear(s0, g, cset, params, cfg)
        t = _Terms(lin, cset, cfg, cfg.tau, *iterate_of(s0))
        r, res = t.residual()
        assert max(res.values()) == 0.0
        assert np.all(r == 0.0)

    def test_single_interface_momentum_rhs_is_capillary(self, cset, params):
        # v = 0, uniform q: the momentum load reduces to the capillary force
        g = Grid(24, 24)
        phi = from_function(
            g, lambda X, Y: np.tanh((X - 0.5) / (np.sqrt(2) * params.epsilon)))
        q = ScalarField.full(g, 0.4)
        mu = ScalarField(g, -params.epsilon * (g.ops.D @ (g.ops.G @ phi.data))
                         + cset.h(q.data) * cset.Wp(phi.data) / params.epsilon)
        s0 = State(VectorField.zeros(g), ScalarField.zeros(g), phi, mu, q)
        cfg = StepConfig(tau=1e-3)
        lin = assemble_linear(s0, g, cset, params, cfg)
        t = _Terms(lin, cset, cfg, cfg.tau, *iterate_of(s0))
        cap_cells = mu.data - cset.h(q.data) * cset.Wp(phi.data) / params.epsilon
        expect = (g.ops.Acf @ cap_cells) * (g.ops.G @ phi.data)
        assert np.abs(t.rhs_v - expect).max() < 1e-13

    def test_matched_density_rhs_reduction(self, params, rng):
        # rho' = 0: no diffusive flux, no density-rate correction; the
        # convection reduces to the skew form with M = rho * v
        p2 = dataclasses.replace(params, rho2=params.rho1)
        cs2 = build_default_set(p2)
        g = Grid(10, 10)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.2,
                                                shear=0.5), g, p2, cs2)
        cfg = StepConfig(tau=1e-3)
        lin = assemble_linear(s0, g, cs2, p2, cfg)
        t = _Terms(lin, cs2, cfg, cfg.tau, *iterate_of(s0))
        # the diffusive flux -jcoef G mu in M vanishes
        assert np.all(lin.jcoef_faces * t.grad_mu == 0.0)
        assert np.all(t.corr == 0.0)
        M = (g.ops.Acf @ cs2.rho(s0.phi.data)) * s0.v.data
        ref = t.cap - t.time_term - convect_skew(g, M, s0.v.data)
        assert np.abs(t.rhs_v - ref).max() < 1e-14


class TestTwoCellOracle:
    @pytest.mark.parametrize("phi_pair,q_pair,tau", [
        ((0.5, -0.5), (0.2, 0.8), 0.1),
        ((0.9, -0.2), (0.05, 0.6), 0.1),
        ((-0.3, 0.4), (0.3, 0.7), 0.05),
    ])
    def test_matches_independent_root_finder(self, cset, params, phi_pair,
                                             q_pair, tau):
        g = Grid(2, 2)
        s0 = two_cell_state(g, np.array(phi_pair), np.array(q_pair), cset, params)
        cfg = StepConfig(tau=tau, v0_mode=True, tol_nl=1e-12)
        s1, rep = step(s0, g, cset, params, cfg)
        assert rep.tau_used == tau
        q_o, mu_o, phi_o = two_cell_oracle(np.array(phi_pair), np.array(q_pair),
                                           cset, params, tau, g.dx)
        got_q = view2d(s1.q)[:, 0]
        got_mu = view2d(s1.mu)[:, 0]
        got_phi = view2d(s1.phi)[:, 0]
        assert np.abs(got_q - q_o).max() < 1e-10
        assert np.abs(got_mu - mu_o).max() < 1e-10
        assert np.abs(got_phi - phi_o).max() < 1e-10
        # y-uniformity preserved
        assert np.abs(np.diff(view2d(s1.phi), axis=1)).max() < 1e-12


class TestStepBehavior:
    def test_deterministic(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=True)
        a, _ = step(s0, g, cset, params, cfg)
        b, _ = step(s0, g, cset, params, cfg)
        assert np.array_equal(a.phi.data, b.phi.data)
        assert np.array_equal(a.q.data, b.q.data)

    def test_accepted_residual_history_monotone(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        s1, rep = step(s0, g, cset, params, StepConfig(tau=1e-3, v0_mode=True))
        hist = [h["total"] for h in rep.residual_history if np.isfinite(h["total"])]
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_v0_mode_requires_zero_velocity(self, cset, params):
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", shear=0.5,
                                                q0=0.1), g, params, cset)
        with pytest.raises(ValueError, match="zero velocity"):
            step(s0, g, cset, params, StepConfig(tau=1e-3, v0_mode=True))

    def test_failure_carries_report(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        # one Newton iteration cannot reach tol_nl from the old state
        cfg = StepConfig(tau=1e-3, v0_mode=True, max_newton=1, max_backoff=1)
        with pytest.raises(StepFailure) as exc:
            step(s0, g, cset, params, cfg)
        rep = exc.value.report
        assert rep.backoffs == 1
        assert not rep.converged
        assert "budget" in rep.failure_reason
        # both attempts, at tau and tau / 2, are listed; the last is why
        # the step failed
        assert rep.abandoned == [rep.failure_reason] * 2
        assert rep.tau_used == pytest.approx(5e-4)

    def test_zero_budget_fails_without_halving(self, cset, params):
        # the old state is the only iterate, and its scaled residual does
        # not shrink with tau: halving cannot help
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3, max_newton=0)
        with pytest.raises(StepFailure, match="after 0 tau halvings") as exc:
            step(s0, g, cset, params, cfg)
        rep = exc.value.report
        assert rep.backoffs == 0 and rep.iterations == 1
        assert rep.tau_used == cfg.tau
        assert "max_newton = 0" in rep.failure_reason

    def test_zero_budget_converges_at_a_fixed_point(self, cset, params):
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="uniform", phi0=0.3,
                                                q0=0.5), g, params, cset)
        s1, rep = step(s0, g, cset, params, StepConfig(tau=0.05, max_newton=0))
        assert rep.converged and rep.iterations == 1
        assert rep.newton_iterations == 0 and rep.backoffs == 0
        assert np.array_equal(s1.phi.data, s0.phi.data)

    def test_backoff_reduces_tau_and_recovers(self, cset, params):
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        # iteration budget too small for the large step, enough for smaller
        cfg = StepConfig(tau=0.2, v0_mode=True, max_newton=4, max_backoff=10)
        s1, rep = step(s0, g, cset, params, cfg)
        assert rep.converged
        assert rep.tau_used < 0.2
        assert rep.backoffs >= 1
        assert s1.t == pytest.approx(s0.t + rep.tau_used)

    def test_short_budget_refactors_instead_of_backing_off(self, cset, params):
        # five iterations reach tol_nl at the large step once the LU is
        # rebuilt whenever the observed contraction cannot make it in time
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        cfg = StepConfig(tau=0.2, v0_mode=True, max_newton=5, max_backoff=10)
        _, rep = step(s0, g, cset, params, cfg)
        assert rep.converged and rep.backoffs == 0 and rep.tau_used == 0.2

    def test_retry_restarts_from_the_old_state(self, cset, params):
        # every tau attempt starts Newton from the old state: the first
        # residual after the retry note is that of a fresh step at tau/2
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        tau = 0.02
        s1, _ = step(s0, g, cset, params, StepConfig(tau=tau, v0_mode=True))
        cfg = StepConfig(tau=tau, v0_mode=True, max_newton=1, max_backoff=1)
        with pytest.raises(StepFailure) as exc:
            step(s1, g, cset, params, cfg)
        hist = exc.value.report.residual_history
        notes = [i for i, h in enumerate(hist) if "note" in h]
        assert len(notes) == 1 and hist[notes[0]]["note"] == f"retry tau={tau / 2:g}"
        half = StepConfig(tau=tau / 2, v0_mode=True, max_newton=1,
                          max_backoff=0)
        try:
            _, rep = step(s1, g, cset, params, half)
        except StepFailure as e:
            rep = e.report
        assert hist[notes[0] + 1] == rep.residual_history[0]
        # the first attempt moved off the old state, so a retry that went on
        # from where it stopped would start elsewhere
        assert hist[notes[0] - 1]["total"] < hist[0]["total"]


class TestRun:
    def test_uniform_run_identical_rows(self, cset, params):
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="uniform", phi0=0.2,
                                                q0=0.3), g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-2), T=3e-2)
        assert len(res.rows) == 3
        assert len({r.E_tot for r in res.rows}) == 1
        assert len({r.phi_mass for r in res.rows}) == 1
        assert all(r.slack == 0.0 for r in res.rows)

    def test_conservation_short_droplet(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-3), T=5e-3)
        masses = [r.phi_mass for r in res.rows]
        surfs = [r.surf_total for r in res.rows]
        assert max(masses) - min(masses) <= 1e-12 * abs(masses[0])
        assert max(surfs) - min(surfs) <= 1e-10 * abs(surfs[0])
        assert max(r.div_inf for r in res.rows) <= 1e-9

    def test_energy_nonincreasing_with_flow(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-3), T=5e-3)
        E0 = total_energy(s0, cset, params).E_tot
        Es = [E0] + [r.E_tot for r in res.rows]
        assert all(a >= b - 1e-12 for a, b in zip(Es, Es[1:]))

    def test_defect_measured_only_with_flow(self, cset, params):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-3, v0_mode=True), T=2e-3)
        assert all(rep.transport_defect == 0.0 for rep in res.reports)

    def test_partial_ledger_on_failure(self, cset, params):
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=True, max_newton=1, max_backoff=0)
        with pytest.raises(StepFailure) as exc:
            run(s0, g, cset, params, cfg, T=1e-2)
        assert hasattr(exc.value, "partial")
        assert exc.value.partial.rows == []

    def test_final_partial_step_lands_on_horizon(self, cset, params):
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="uniform", phi0=0.1),
                                 g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=4e-3), T=1e-2)
        assert res.final_state.t == pytest.approx(1e-2, rel=1e-12)

    def test_random_seed_coupled_run(self, cset, params):
        # early spinodal decomposition with flow: invariants must hold from
        # an unstructured initial state too
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="random-seed", sigma=0.05,
                                                q0=0.2, seed=99), g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-3), T=3e-3)
        masses = [r.phi_mass for r in res.rows]
        surfs = [r.surf_total for r in res.rows]
        assert max(masses) - min(masses) <= 1e-11
        assert max(surfs) - min(surfs) <= 1e-9 * max(1.0, abs(surfs[0]))
        assert all(r.slack >= -1e-8 for r in res.rows)

    def test_periodic_coupled_run(self, cset, params):
        # every Newton update C dpsi has zero component means, so the
        # velocity means stay at the initial state's zero; conservation and
        # dissipation still hold
        g = Grid(16, 16, 1.0, 1.0, "periodic")
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.4), g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-3), T=3e-3)
        v = res.final_state.v
        assert abs(v.ux.mean()) < 1e-12 and abs(v.uy.mean()) < 1e-12
        masses = [r.phi_mass for r in res.rows]
        assert max(masses) - min(masses) <= 1e-11 * max(1.0, abs(masses[0]))
        assert max(r.div_inf for r in res.rows) <= 1e-9
        E0 = total_energy(s0, cset, params).E_tot
        Es = [E0] + [r.E_tot for r in res.rows]
        assert all(a >= b - 1e-10 for a, b in zip(Es, Es[1:]))

    def test_delta_zero_runs_without_regularization(self, cset, params):
        import dataclasses as dc
        p0 = dc.replace(params, delta=0.0)
        cs0 = build_default_set(p0)
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, p0, cs0)
        res = run(s0, g, cs0, p0, StepConfig(tau=1e-3, v0_mode=True), T=3e-3)
        assert all(r.phi_jump == 0.0 and r.biharm == 0.0 for r in res.rows)
        assert all(r.slack >= -1e-8 for r in res.rows)

    def test_delta_zero_coupled_run(self, cset, params):
        # without the biharmonic term J_vv, and so K, loses the form's
        # explicit biharmonic zeros: K's pattern is sparser than for
        # delta > 0 but still the same for every build of the run
        p0 = dataclasses.replace(params, delta=0.0)
        cs0 = build_default_set(p0)
        g = Grid(12, 12)

        def once():
            s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                     g, p0, cs0)
            return run(s0, g, cs0, p0, StepConfig(tau=1e-3), T=4e-3)

        res = once()
        assert len(res.rows) == 4
        assert all(r.phi_jump == 0.0 and r.biharm == 0.0 for r in res.rows)
        E = [res.E0] + [r.E_tot for r in res.rows]
        for r, rep, e in zip(res.rows, res.reports, E):
            assert r.slack - rep.transport_defect >= -1e-8 * max(abs(e), 1.0)
        assert sum(rep.ss_lus for rep in res.reports) >= 1
        again = once()
        assert rows_to_csv(again.rows) == rows_to_csv(res.rows)

        def K(p, cs, s):
            cfg = StepConfig(tau=1e-3)
            lin = assemble_linear(s, g, cs, p, cfg)
            return _jacobian(_Terms(lin, cs, cfg, cfg.tau,
                                    *iterate_of(s))).K
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, p0, cs0)
        rest, flow = K(p0, cs0, s0), K(p0, cs0, res.final_state)
        assert np.array_equal(rest.indptr, flow.indptr)
        assert np.array_equal(rest.indices, flow.indices)
        assert rest.nnz < K(params, cset, s0).nnz


def _relaxation(cset, params, n):
    """relaxation-v0 at n^2: grid, initial state, stepper config."""
    g = Grid(n, n)
    s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                             g, params, cset)
    return g, s0, StepConfig(tau=1e-3, v0_mode=True)


@pytest.fixture(scope="module")
def relax16(cset, params):
    return _relaxation(cset, params, 16)


def _held_at(s, g, cset, params, cfg) -> _HeldLU:
    """A holder with the LU of the Jacobian at the state ``s``."""
    lin = assemble_linear(s, g, cset, params, cfg)
    held = _HeldLU()
    assert held.build(_Terms(lin, cset, cfg, cfg.tau, *iterate_of(s)),
                      StepReport())
    return held


def _shipped(name: str):
    """A shipped config: grid, params, cset, stepper config, initial state."""
    config = Path(__file__).parent.parent / "configs" / f"{name}.ini"
    grid, params, _, cfg, scenario, _ = build_objects(parse_config(config))
    cset = build_default_set(params)
    return grid, params, cset, cfg, initialize_scenario(scenario, grid,
                                                        params, cset)


def _sub_lus(held: _HeldLU) -> dict:
    """The held LUs of a Newton operator by block: J_CC's, and with flow
    the Stokes LU of K."""
    return {b: getattr(held, b) for b in _BLOCKS
            if getattr(held, b) is not None}


def _forced(held: _HeldLU, price: float, base=None, excess=0) -> _HeldLU:
    """``held`` with the refactor state of its J_CC LU set directly instead
    of from the LU's fill, so a test's setup does not move with the
    ordering."""
    held.C.price, held.C.base, held.C.excess = price, base, excess
    return held


def _priced(s_price, c_price, s_base=None, c_base=None) -> _HeldLU:
    """A coupled holder with placeholder LUs at the given prices (no Stokes
    LU without ``s_price``)."""
    return _HeldLU(S=None if s_price is None else _LU("S", s_price, s_base),
                   CS=None if s_price is None else "CS",
                   C=_LU("C", c_price, c_base))


class TestHeldLU:
    """The Newton LU outlives the step: reused while the residual contracts,
    dropped on a tau change, refactored when a stale full step fails."""

    def test_fewer_factorizations_than_steps(self, cset, params, relax16):
        g, s0, cfg = relax16
        res = run(s0, g, cset, params, cfg, T=20 * cfg.tau)
        assert len(res.reports) == 20
        assert sum(rep.cc_lus for rep in res.reports) < 20
        assert res.reports[0].cc_lus >= 1
        assert all(rep.tau_used == cfg.tau and rep.backoffs == 0
                   for rep in res.reports)

    def test_shorter_last_step_refactors(self, cset, params, relax16):
        g, s0, cfg = relax16
        res = run(s0, g, cset, params, cfg, T=5.5 * cfg.tau)
        last = res.reports[-1]
        assert last.tau_used < cfg.tau
        assert last.cc_lus >= 1

    def test_backoff_refactors_at_each_tau(self, cset, params, relax16):
        g, s0, cfg = relax16
        s = run(s0, g, cset, params, cfg, T=2 * cfg.tau).final_state
        held = _forced(_held_at(s, g, cset, params, cfg), price=10.0)
        # three iterations cannot reach tol_nl at the full tau, refactored
        # or not (Newton from this state takes four): the step backs off
        tight = dataclasses.replace(cfg, max_newton=3, max_backoff=3)
        s, rep = step(s, g, cset, params, tight, held=held)
        assert rep.converged and rep.backoffs >= 1
        # every halved tau drops the LU and factors its own
        assert rep.cc_lus >= rep.backoffs
        assert held.tau == rep.tau_used < cfg.tau
        # the next full-tau step drops the LU of the smaller tau
        _, rep = step(s, g, cset, params, cfg, held=held)
        assert rep.backoffs == 0 and rep.cc_lus >= 1
        assert held.tau == cfg.tau

    def test_lu_from_initial_state_still_converges(self, cset, params, relax16):
        g, s0, cfg = relax16
        s20 = run(s0, g, cset, params, cfg, T=20 * cfg.tau).final_state
        held = _held_at(s0, g, cset, params, cfg)
        _, rep = step(s20, g, cset, params, cfg, held=held)
        assert rep.converged
        assert rep.backoffs == 0 and rep.tau_used == cfg.tau

    def test_stale_full_step_refactors_instead_of_backing_off(
            self, cset, params, relax16):
        g, s0, cfg = relax16
        # an LU from an unrelated (uniform) state: its full step from the
        # droplet does not lower the residual
        other = initialize_scenario(ScenarioConfig(name="uniform", phi0=0.3,
                                                   q0=0.5), g, params, cset)
        held = _held_at(other, g, cset, params, cfg)
        _, rep = step(s0, g, cset, params, cfg, held=held)
        assert rep.converged and rep.backoffs == 0
        assert rep.rejected >= 1 and rep.cc_lus >= 1
        # the rejected direction is solved again with the fresh LU
        assert rep.linear_solves > rep.newton_iterations

    def test_reruns_bitwise_identical(self, cset, params, relax16):
        # the refactor rule reads no clock: the same steps factor anew
        g, s0, cfg = relax16
        a, b = (run(s0, g, cset, params, cfg, T=20 * cfg.tau)
                for _ in range(2))
        assert [dataclasses.astuple(r) for r in a.rows] == \
            [dataclasses.astuple(r) for r in b.rows]
        assert [(r.newton_iterations, r.cc_lus) for r in a.reports] \
            == [(r.newton_iterations, r.cc_lus) for r in b.reports]

    def test_v0_counts_match_the_one_lu_rule(self, cset, params, relax16):
        # v0 mode has J_CC's LU alone, priced as the whole operator was
        # before each LU had its own price: per step, the Newton iterations
        # and LUs that rule takes here from the backward-difference starts
        # (120 iterations and 10 LUs from the old states, 106 and 8 from
        # the linear and quadratic starts)
        g, s0, cfg = relax16
        res = run(s0, g, cset, params, cfg, T=20 * cfg.tau)
        assert [(r.newton_iterations, r.cc_lus) for r in res.reports] == [
            (5, 2), (5, 1), (4, 1), (9, 0), (4, 1), (7, 0), (7, 0), (9, 0),
            (9, 0), (9, 0), (9, 0), (2, 1), (4, 0), (4, 0), (5, 0), (5, 0),
            (5, 0), (5, 0), (5, 0), (5, 0)]
        assert all(r.ss_lus == 0 for r in res.reports)

    def test_coupled_counts_match_the_per_lu_rule(self, shear_droplet_10):
        # shipped shear-droplet 32^2: per step, the Newton iterations,
        # Stokes LUs and J_CC LUs the per-LU rule takes (J_CC refreshed
        # from the second contraction on, the Stokes LU once its excess
        # pays for both)
        assert [(r.newton_iterations, r.ss_lus, r.cc_lus)
                for r in shear_droplet_10] == [
            (6, 2, 2), (7, 0, 1), (10, 0, 0), (9, 0, 1), (10, 0, 0),
            (10, 0, 0), (6, 1, 1), (7, 0, 0), (8, 0, 0), (9, 0, 0)]

    def test_iterations_do_not_climb(self, cset, params):
        # an LU is rebuilt once the iterations its later steps spend beyond
        # its first step pay for a factorization (without that drop they
        # climb from 6.4 to 11.0 per step here)
        g, s0, cfg = _relaxation(cset, params, 32)
        res = run(s0, g, cset, params, cfg, T=40 * cfg.tau)
        its = [rep.newton_iterations for rep in res.reports]
        assert np.mean(its[-5:]) <= np.mean(its[1:6])

    def test_price_is_fill_per_unknown(self, cset, params):
        # each LU is priced from its own fill over the unknowns of the
        # saddle form [v, p, b, q, mu, phi] the price was fitted on, not
        # over the Newton vector's [psi, q, mu, phi]; the periodic grid's
        # saddle has its 2 border unknowns b
        for bc, v0 in (("box", True), ("box", False), ("periodic", False)):
            g = Grid(12, 12, 1.0, 1.0, bc)
            s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                     g, params, cset)
            held = _held_at(s0, g, cset, params,
                            StepConfig(tau=1e-3, v0_mode=v0))
            subs = _sub_lus(held)
            assert set(subs) == ({"C"} if v0 else {"S", "C"})
            n = 3 * g.n_cells if v0 else \
                g.n_faces + 4 * g.n_cells + (2 if bc == "periodic" else 0)
            for sub in subs.values():
                assert sub.price == FACTOR_COST_PER_FILL * sub.lu.nnz / n
                assert sub.base is None and sub.excess == 0

    def test_chord_prediction(self):
        def held(s_price, c_price, c_fresh=False):
            h = _priced(s_price, c_price)
            h.rebuilt = {"C"} if c_fresh else set()
            return h

        both = ("S", "C")
        # contraction 0.1 from 1e-2 needs 8 more iterations to 1e-10; at
        # first the chord is weighed against the J_CC LU alone
        h = held(20.0, 10.0)
        assert h.refactor(1e-2, 1e-1, 1e-10, left=50, first=False) == ()
        assert h.refactor(1e-2, 1e-1, 1e-10, left=7, first=False) == ("C",)
        assert held(20.0, 5.0).refactor(1e-2, 1e-1, 1e-10, left=50,
                                        first=False) == ("C",)
        # a J_CC LU built in this attempt that still contracts too slowly
        # is weighed against both prices, and both LUs are rebuilt
        cheap_c = held(20.0, 5.0, c_fresh=True)
        assert cheap_c.refactor(1e-2, 1e-1, 1e-10, left=50,
                                first=False) == ()
        assert cheap_c.refactor(1e-2, 1e-1, 1e-10, left=7,
                                first=False) == both
        assert held(3.0, 2.0, c_fresh=True).refactor(
            1e-2, 1e-1, 1e-10, left=50, first=False) == both
        # the first iteration of an attempt has no contraction to go by
        assert h.refactor(1e-2, np.inf, 1e-10, left=1, first=False) == ()
        # a dropped operator is rebuilt whole, a dropped J_CC LU alone,
        # whatever the contraction
        for first in (False, True):
            assert _HeldLU().refactor(1e-2, 1e-1, 1e-10, left=1,
                                      first=first) == both
            c_dropped = held(20.0, 10.0)
            c_dropped.CS = c_dropped.C = None
            assert c_dropped.refactor(1e-2, 1e-1, 1e-10, left=1,
                                      first=first) == ("C",)

    @pytest.mark.parametrize("ratio", [0.75, 0.2, 1e-5])
    @pytest.mark.parametrize("c_fresh", [False, True])
    def test_first_contraction_prices_only_the_v0_operator(self, ratio,
                                                           c_fresh):
        # out of the old state exact Newton contracts as slowly as the held
        # sweep (0.75 at shear-droplet's first step): with a Stokes LU held,
        # the attempt's first contraction refactors nothing at any ratio
        # and budget; the later ones are judged as before
        res, tol = 1e-2, 1e-10
        coupled = _priced(0.5, 0.5)
        coupled.rebuilt = {"C"} if c_fresh else set()
        for left in (50, 1):
            assert coupled.refactor(res, res / ratio, tol, left,
                                    first=True) == ()
        # from 1e-2 to 1e-10 the ratios need 64, 11 and 1.6 iterations,
        # against a price of 0.5 (J_CC) or 1.0 (both) plus two
        expected = ((_BLOCKS if c_fresh else ("C",)) if ratio > 1e-3
                    else ())
        assert coupled.refactor(res, res / ratio, tol, 50,
                                first=False) == expected
        # J_CC's LU is the whole v0 operator: its first contraction is
        # judged as every later one
        v0 = _priced(None, 0.5)
        v0.rebuilt = coupled.rebuilt
        for first in (True, False):
            assert v0.refactor(res, res / ratio, tol, 50,
                               first=first) == expected

    def test_stokes_lu_dropped_once_its_excess_pays_for_both(self):
        # dropping the Stokes LU rebuilds J_CC's too: its excess iterations
        # are weighed against both prices (3 + 5 here), not its own
        held = _priced(3.0, 5.0, s_base=6)
        S = held.S
        for iterations, excess in ((10, 4), (9, 7)):
            held.rebuilt = {"C"}
            held.settle(iterations)
            assert held.S.excess == excess
            assert held.C is not None and held.C.lu == "C"
        held.rebuilt = {"C"}
        held.settle(7)
        assert S.excess == 8
        assert held.S is held.CS is held.C is None
        # J_CC's own excess still drops J_CC's LU alone at its price
        held = _priced(3.0, 5.0, s_base=6, c_base=6)
        held.settle(11)
        assert held.S.lu == "S" and held.CS is None and held.C is None

    def test_budget_short_of_chord_refactors(self, cset, params, relax16):
        g, s0, cfg = relax16
        s = run(s0, g, cset, params, cfg, T=5 * cfg.tau).final_state

        def held_at_s():
            # the LU at the step's first iterate, priced at ten chord
            # iterations
            return _forced(_held_at(s, g, cset, params, cfg), price=10.0)

        # with the full budget the held LU converges the next step as is
        _, rep = step(s, g, cset, params, cfg, held=held_at_s())
        assert rep.cc_lus == 0 and rep.newton_iterations > 4
        # four iterations are fewer than the chord needs, and fewer than a
        # refactorization is worth: the LU is rebuilt, with no backoff
        tight = dataclasses.replace(cfg, max_newton=4, max_backoff=0)
        held = held_at_s()
        assert held.C.price + 2.0 > tight.max_newton
        _, rep = step(s, g, cset, params, tight, held=held)
        assert rep.converged and rep.backoffs == 0
        assert rep.cc_lus >= 1

    def test_cheap_refactorization_taken_within_the_step(
            self, cset, params, relax16):
        g, s0, cfg = relax16
        s = run(s0, g, cset, params, cfg, T=5 * cfg.tau).final_state
        # the chord of the test above, but a refactorization priced at one
        # chord iteration is cheaper than the iterations it still needs
        held = _forced(_held_at(s, g, cset, params, cfg), price=1.0)
        _, rep = step(s, g, cset, params, cfg, held=held)
        assert rep.converged and rep.backoffs == 0
        assert rep.cc_lus >= 1


class TestFactorOrdering:
    """J_CC and K are structurally symmetric with a zero-free diagonal and
    get a symmetric ordering, in v0 and coupled mode alike."""

    @staticmethod
    def _lu_and_jacobian(s, g, cset, params, cfg):
        held = _held_at(s, g, cset, params, cfg)
        lin = assemble_linear(s, g, cset, params, cfg)
        return held, _jacobian(_Terms(lin, cset, cfg, cfg.tau,
                                         *iterate_of(s)))

    def test_v0_lu_ordered_symmetrically(self, cset, params, relax16):
        g, s0, cfg = relax16
        op, J = self._lu_and_jacobian(s0, g, cset, params, cfg)
        assert op.S is None and op.CS is None and J.VV is None
        lu = op.C.lu
        # the diagonal pivots are all taken: no row exchanges
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert lu.nnz <= 0.6 * spla.splu(J.CC).nnz

    def test_report_sums_fill_of_lus_built(self, cset, params):
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        for v0 in (True, False):
            cfg = StepConfig(tau=1e-3, v0_mode=v0)
            lin = assemble_linear(s0, g, cset, params, cfg)
            t = _Terms(lin, cset, cfg, cfg.tau, *iterate_of(s0))
            held, report = _HeldLU(), StepReport()
            fills = []
            for _ in range(2):
                assert held.build(t, report)
                fills += [sub.lu.nnz for sub in _sub_lus(held).values()]
            # one count per LU built, the fill of every LU
            assert report.cc_lus == 2 and report.ss_lus == (0 if v0 else 2)
            assert len(fills) == (2 if v0 else 4)
            assert report.factor_fill == sum(fills) > 0

    def test_coupled_lus_ordered_symmetrically(self, cset, params):
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1),
                                 g, params, cset)
        op, J = self._lu_and_jacobian(s0, g, cset, params,
                                      StepConfig(tau=1e-3))
        # the Stokes LU of K: diagonal pivots, and a fraction of the fill of
        # the saddle J_SS's default LU (0.16 here)
        lu = op.S.lu
        assert np.array_equal(lu.perm_r, lu.perm_c)
        J_SS = reference_assembly.saddle(g, J.VV)
        assert lu.nnz <= 0.3 * spla.splu(J_SS).nnz
        # the Cahn-Hilliard block with transport: still diagonal pivots
        assert np.array_equal(op.C.lu.perm_r, op.C.lu.perm_c)
        assert op.C.lu.nnz <= 0.6 * spla.splu(J.CC).nnz

    def test_every_lu_is_superlus_own(self, cset, params, rng, monkeypatch):
        # each LU a run builds, first or later, is SuperLU's own LU of its
        # block: the same orderings and fill, and bitwise the same solves
        built = []
        build = _HeldLU.build

        def checked(held, t, report, blocks=_BLOCKS):
            assert build(held, t, report, blocks)
            J = _jacobian(t, blocks)
            for name, A in zip(_BLOCKS, (J.K, J.CC)):
                if A is None or name not in blocks:
                    continue
                lu, own = getattr(held, name).lu, spla.splu(A, **LU_OPTIONS)
                assert np.array_equal(lu.perm_c, own.perm_c)
                assert np.array_equal(lu.perm_r, own.perm_r)
                assert lu.nnz == own.nnz
                b = rng.standard_normal(A.shape[0])
                assert np.array_equal(lu.solve(b), own.solve(b))
                built.append(name)
            return True

        monkeypatch.setattr(_HeldLU, "build", checked)
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        # the shorter last step drops the operator: every block's LU is
        # built again
        run(s0, g, cset, params, StepConfig(tau=1e-3), T=4.5e-3)
        assert built.count("S") >= 2 and built.count("C") >= 2
        built.clear()
        g, s0, cfg = _relaxation(cset, params, 12)
        run(s0, g, cset, params, cfg, T=4.5 * cfg.tau)
        assert built == ["C"] * len(built) and len(built) >= 2


@pytest.fixture(scope="module")
def shear_droplet_10():
    """The reports of the shipped shear-droplet's first ten steps."""
    grid, params, cset, cfg, s0 = _shipped("shear-droplet")
    return run(s0, grid, cset, params, cfg, T=10 * cfg.tau).reports


class TestBlockOperator:
    """The Newton operator is one block Gauss-Seidel sweep: it solves the
    lower block triangle [K 0; J_CS C J_CC] of the Jacobian over
    [psi, q, mu, phi] exactly."""

    @pytest.mark.parametrize("bc", ["box", "periodic"])
    def test_sweep_solves_the_lower_block_triangle(self, cset, params, rng,
                                                   bc):
        g = Grid(10, 8, 1.0, 1.0, bc)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        cfg = StepConfig(tau=1e-3)
        lin = assemble_linear(s0, g, cset, params, cfg)
        t = _Terms(lin, cset, cfg, cfg.tau,
                   *_iterate_near(s0, rng, 0.01, False))
        held = _HeldLU()
        assert held.build(t, StepReport())
        # the saddle form's Jacobian reduced to [psi, q, mu, phi]
        J = reference_assembly.divergence_free(
            g, reference_assembly.jacobian(t))
        ns = g.ops.C.shape[1]
        b = rng.standard_normal(J.shape[0])
        y = held.solve(b)
        r_s = J[:ns, :ns] @ y[:ns] - b[:ns]
        r_c = J[ns:, :ns] @ y[:ns] + J[ns:, ns:] @ y[ns:] - b[ns:]
        assert max(np.abs(r_s).max(), np.abs(r_c).max()) \
            <= 1e-10 * np.abs(b).max()

    @pytest.mark.parametrize("bc", ["box", "periodic"])
    def test_stokes_solve_matches_the_saddle_lu(self, cset, params, rng, bc):
        # for a divergence-free right-hand side (zero continuity and border
        # rows) the LU of K = C^T J_vv C gives, as v = C psi, the velocity
        # of a direct LU of the saddle, pressure pin and border rows included
        g = Grid(12, 12, 1.0, 1.0, bc)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        cfg = StepConfig(tau=1e-3)
        lin = assemble_linear(s0, g, cset, params, cfg)
        t = _Terms(lin, cset, cfg, cfg.tau, *_iterate_near(s0, rng, 0.01, False))
        held = _HeldLU()
        assert held.build(t, StepReport())
        J_SS = reference_assembly.saddle(g, _jacobian(t).VV)
        nf, C = g.n_faces, g.ops.C
        b = np.zeros(J_SS.shape[0])
        b[:nf] = rng.standard_normal(nf)
        x = spla.splu(J_SS).solve(b)[:nf]
        v = C @ held.S.lu.solve(C.T @ b[:nf])
        assert np.abs(v - x).max() <= 1e-10 * np.abs(x).max()

    def test_v0_operator_is_the_jacobian_lu(self, cset, params, rng, relax16):
        g, s0, cfg = relax16
        held = _held_at(s0, g, cset, params, cfg)
        lin = assemble_linear(s0, g, cset, params, cfg)
        J = _jacobian(_Terms(lin, cset, cfg, cfg.tau, *iterate_of(s0)))
        b = rng.standard_normal(J.CC.shape[0])
        x = held.solve(b)
        assert np.array_equal(x, held.C.lu.solve(b))
        assert np.abs(J.CC @ x - b).max() <= 1e-10 * np.abs(b).max()

    def test_coupled_droplet_iterations_stay_low(self):
        # the shipped coupled droplet at 32^2: the held sweep converges its
        # first ten steps in 61 Newton iterations (87 when both LUs were
        # rebuilt together; the held LU of the whole saddle took 165,
        # climbing from 10 to 24 per step)
        grid, params, cset, cfg, s0 = _shipped("droplet")
        res = run(s0, grid, cset, params, cfg, T=10 * cfg.tau)
        assert len(res.reports) == 10
        assert all(rep.backoffs == 0 for rep in res.reports)
        assert sum(rep.newton_iterations for rep in res.reports) <= 120


    def test_cc_refresh_keeps_the_ss_lu(self, cset, params, rng):
        g = Grid(12, 12)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        cfg = StepConfig(tau=1e-3)
        held = _held_at(s0, g, cset, params, cfg)
        S, C = held.S, held.C
        b = rng.standard_normal(g.ops.C.shape[1])
        before = S.lu.solve(b)
        lin = assemble_linear(s0, g, cset, params, cfg)
        t = _Terms(lin, cset, cfg, cfg.tau, *_iterate_near(s0, rng, 0.01, False))
        report = StepReport()
        assert held.build(t, report, ("C",))
        assert report.cc_lus == 1 and report.ss_lus == 0
        assert report.factor_fill == held.C.lu.nnz
        # the same Stokes solve, so bitwise the same S solves; J_CC's LU
        # and J_CS are those of the new iterate
        assert held.S is S and held.C is not C
        assert np.array_equal(held.S.lu.solve(b), before)
        assert abs(held.CS - _jacobian(t).CS).max() == 0.0

    @pytest.mark.parametrize("bc", ["box", "periodic"])
    def test_cc_only_jacobian_skips_ss(self, cset, params, rng, bc):
        # a J_CC refresh assembles J_CS and J_CC alone, bitwise as the
        # full build does
        g = Grid(10, 8, 1.0, 1.0, bc)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        cfg = StepConfig(tau=1e-3)
        lin = assemble_linear(s0, g, cset, params, cfg)
        t = _Terms(lin, cset, cfg, cfg.tau, *_iterate_near(s0, rng, 0.01, False))
        full, c_only = _jacobian(t), _jacobian(t, ("C",))
        assert full.VV is not None and c_only.VV is None
        for name in ("CS", "CC"):
            a, b = getattr(full, name), getattr(c_only, name)
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_fresh_cc_on_an_old_ss_lu_converges_like_a_fresh_operator(self):
        # shipped droplet 32^2: the J_CC LU is the part of a held operator
        # that goes stale; a Stokes LU eight steps old with a fresh J_CC LU
        # converges step 11 like a fully fresh operator (6 iterations), the
        # operator eight steps old as a whole takes 25
        grid, params, cset, cfg, s0 = _shipped("droplet")
        states = [s0]
        run(s0, grid, cset, params, cfg, T=10 * cfg.tau,
            callbacks=[lambda s, rep, row: states.append(s)])
        old, now = states[2], states[10]

        def iterations(held):
            for sub in _sub_lus(held).values():   # no refactor at any price
                sub.price = math.inf
            _, rep = step(now, grid, cset, params, cfg, held=held)
            assert rep.converged and rep.backoffs == 0 and rep.ss_lus == 0
            return rep.newton_iterations, rep.cc_lus

        fresh = _held_at(now, grid, cset, params, cfg)
        mixed = _held_at(old, grid, cset, params, cfg)
        lin = assemble_linear(now, grid, cset, params, cfg)
        assert mixed.build(_Terms(lin, cset, cfg, cfg.tau, *iterate_of(now)),
                           StepReport(), ("C",))
        its_fresh, lus_fresh = iterations(fresh)
        its_mixed, lus_mixed = iterations(mixed)
        assert lus_fresh == lus_mixed == 0
        assert abs(its_mixed - its_fresh) <= 1
        its_stale, _ = iterations(_held_at(old, grid, cset, params, cfg))
        assert its_stale >= 2 * its_fresh

    def test_shear_droplet_lu_fill_stays_low(self, shear_droplet_10):
        # shipped shear-droplet 32^2, ten steps: J_CC's LU is refreshed
        # where the held operator is too slow after the first iteration,
        # the Stokes LU only once its excess iterations pay for both LUs.
        # All LUs built hold 1.24M L+U fill (3 of K at 111k, 5 of J_CC at
        # 181k); 2.62M (4 and 12) when the first contraction priced the
        # operator, 3.82M (3 and 11) with the saddle LU of J_SS (605k) in
        # place of K's
        reports = shear_droplet_10
        assert len(reports) == 10
        assert all(rep.backoffs == 0 for rep in reports)
        assert sum(rep.factor_fill for rep in reports) <= 2.0e6

    def test_first_contraction_builds_no_shear_droplet_lu(
            self, shear_droplet_10):
        # exact Newton out of the old state contracts 0.18-0.75 at the
        # first iteration of steps 1-6 here: judged by it, every step
        # refreshed J_CC (12 LUs in ten steps); judged from the second
        # iteration on, five
        assert sum(rep.cc_lus for rep in shear_droplet_10) <= 7


class TestJacobian:
    @pytest.mark.parametrize("bc,v0", [("box", True), ("box", False),
                                       ("periodic", False)])
    def test_matches_finite_differences(self, cset, params, rng, bc, v0):
        g = Grid(6, 5, 1.0, 1.0, bc)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.2,
                                                shear=0.3, radius=0.3),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-2, v0_mode=v0)
        if v0:
            s0.v.data[:] = 0.0
        lin = assemble_linear(s0, g, cset, params, cfg)
        w = (s0.v.data + (0.0 if v0 else 0.01 * rng.standard_normal(g.n_faces)),
             s0.q.data + 0.01 * rng.standard_normal(g.n_cells),
             s0.mu.data + 0.01 * rng.standard_normal(g.n_cells),
             s0.phi.data + 0.01 * rng.standard_normal(g.n_cells))
        tau = cfg.tau
        J = _jacobian(_Terms(lin, cset, cfg, tau, *w))
        ns = 0 if v0 else g.ops.C.shape[1]
        n = ns + J.CC.shape[0]

        def fd_along(dx):
            # the Newton vector [psi, q, mu, phi] as a field update, v by
            # C psi (kept in v0 mode)
            h = 1e-7
            dpsi, *d = np.split(dx, [ns + i * g.n_cells for i in range(3)])
            dw = (np.zeros(g.n_faces) if v0 else g.ops.C @ dpsi, *d)
            rp, rm = (_Terms(lin, cset, cfg, tau,
                             *(a + s * da for a, da in zip(w, dw))).residual()[0]
                      for s in (h, -h))
            return (rp - rm) / (2 * h)

        def check(fd, jd):
            assert np.max(np.abs(fd - jd)) / (1.0 + np.max(np.abs(jd))) < 1e-6

        # stream-function directions v = C psi: every row, through J_CS C
        # and K (J_vv in the saddle of the reference assembly, reduced to
        # psi by the curl)
        K = None if v0 else reference_assembly.divergence_free(
            g, reference_assembly.saddle(g, J.VV))
        for _ in range(4 if ns else 0):
            dx = np.zeros(n)
            dx[:ns] = rng.standard_normal(ns)
            check(fd_along(dx), np.concatenate([K @ dx[:ns], J.CS @ dx[:ns]]))
        # C-only directions: the C rows, through J_CC (the S rows would
        # need J_SC, which the Newton operator leaves out)
        for _ in range(4):
            dx = np.zeros(n)
            dx[ns:] = rng.standard_normal(n - ns)
            check(fd_along(dx)[ns:], J.CC @ dx[ns:])


def _iterate_near(s, rng, scale, v0):
    """The fields (v, q, mu, phi) of the state ``s`` perturbed by ``scale``
    (v kept in v0 mode)."""
    v, *w = (a + scale * rng.standard_normal(a.size) for a in iterate_of(s))
    return (s.v.data if v0 else v, *w)


class TestFixedPattern:
    """Every Jacobian of a grid and mode shares one pattern, which holds
    the sparse-product assembly's nonzeros and values."""

    CASES = [("box", True), ("box", False), ("periodic", False)]

    @pytest.mark.parametrize("bc,v0", CASES)
    def test_pattern_is_the_same_for_every_jacobian(self, cset, params, rng,
                                                    bc, v0):
        g = Grid(10, 8, 1.0, 1.0, bc)
        # droplet: the coupled first step starts at v = 0
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=v0)
        s2 = run(s0, g, cset, params, cfg, T=2 * cfg.tau).final_state
        assert v0 or np.abs(s2.v.data).max() > 0.0
        jacs = []
        for s in (s0, s2):                      # steps
            lin = assemble_linear(s, g, cset, params, cfg)
            for tau in (cfg.tau, 0.5 * cfg.tau):    # a tau halving
                for scale in (0.0, 0.01):           # iterates
                    w = _iterate_near(s, rng, scale, v0)
                    jacs.append(_jacobian(_Terms(lin, cset, cfg, tau, *w)))
        for name in ("CC",) if v0 else ("VV", "K", "CS", "CC"):
            first = getattr(jacs[0], name)
            for J in jacs[1:]:
                assert np.array_equal(getattr(J, name).indptr, first.indptr)
                assert np.array_equal(getattr(J, name).indices, first.indices)

    @pytest.mark.parametrize("bc,v0", CASES)
    def test_matches_reference_assembly(self, cset, params, rng, bc, v0):
        g = Grid(7, 6, 1.0, 1.0, bc)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.2,
                                                shear=0.3, radius=0.3),
                                 g, params, cset)
        if v0:
            s0.v.data[:] = 0.0
        cfg = StepConfig(tau=1e-2, v0_mode=v0)
        lin = assemble_linear(s0, g, cset, params, cfg)
        t = _Terms(lin, cset, cfg, cfg.tau, *_iterate_near(s0, rng, 0.01, v0))
        J = _jacobian(t)
        # the saddle form's Jacobian, reduced to [psi, q, mu, phi]
        full = reference_assembly.jacobian(t)
        ref = full if v0 else reference_assembly.divergence_free(g, full)
        ns = 0 if v0 else g.ops.C.shape[1]
        assert ref.shape == (ns + J.CC.shape[0],) * 2
        assert (J.VV is None) == (J.K is None) == (J.CS is None) == v0
        blocks = [(J.CC, ref[ns:, ns:])]
        if not v0:
            nf = g.n_faces
            blocks += [(J.VV, full[:nf, :nf]), (J.CS, ref[ns:, :ns]),
                       (J.K, ref[:ns, :ns])]
        for B, R in blocks:
            assert B.shape == R.shape
            assert abs(B - R).max() <= 1e-12 * abs(R).max()
            # every nonzero of the reference is structural in the pattern
            S = B.copy()
            S.data[:] = 1.0
            R = R.tocsc()
            R.eliminate_zeros()
            R.data[:] = 1.0
            assert (R - R.multiply(S)).count_nonzero() == 0

    def test_convection_operators_built_once_per_grid(self, cset, params,
                                                      monkeypatch):
        # convect_skew (once per iterate) and the J_vv pattern share the
        # grid's stacked convection operators; a v0 run, which has no
        # transport, never builds them
        built = []
        stacked = mesh.SkewConvection
        monkeypatch.setattr(mesh, "SkewConvection",
                            lambda *ops: built.append(ops) or stacked(*ops))
        g = Grid(10, 8)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        res = run(s0, g, cset, params, StepConfig(tau=1e-3), T=2e-3)
        assert sum(rep.ss_lus for rep in res.reports) >= 1
        assert ("jacobian", False) in g.ops._cache
        assert len(built) == 1
        assert mesh.skew_convection(g) is g.ops._cache["convection"]

        g16, s16, cfg = _relaxation(cset, params, 16)
        run(s16, g16, cset, params, cfg, T=3 * cfg.tau)
        assert ("jacobian", True) in g16.ops._cache
        assert "convection" not in g16.ops._cache
        assert len(built) == 1

    def test_coupled_run_after_projection_builds_no_poisson_lu(
            self, cset, params, monkeypatch):
        # the initial projection builds the grid's one Poisson LU and every
        # residual of the run recovers its pressure with it: the run
        # factors only K and J_CC
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu",
                            lambda *a, **k: calls.append(a) or splu(*a, **k))
        res = run(s0, g, cset, params, StepConfig(tau=1e-3), T=2e-3)
        assert sum(rep.ss_lus for rep in res.reports) >= 1
        assert len(calls) == sum(rep.ss_lus + rep.cc_lus
                                 for rep in res.reports)


class TestDivergenceFreeNewton:
    """Newton iterates on the stream function: the unknowns hold no
    pressure, pin or border multiplier, D v keeps the initial state's
    divergence, and the pressure is recovered from the momentum residual."""

    @pytest.mark.parametrize("bc", ["box", "periodic"])
    def test_newton_vector_is_stream_function_and_ch_blocks(self, cset,
                                                            params, bc):
        g = Grid(10, 8, 1.0, 1.0, bc)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        cfg = StepConfig(tau=1e-3)
        # box: psi on the interior nodes; periodic: every node but one
        n_psi = (g.nx * g.ny - 1 if bc == "periodic"
                 else (g.nx - 1) * (g.ny - 1))
        nc = g.n_cells
        assert g.ops.C.shape == (g.n_faces, n_psi)
        lin = assemble_linear(s0, g, cset, params, cfg)
        r, _ = _Terms(lin, cset, cfg, cfg.tau, *iterate_of(s0)).residual()
        assert r.size == n_psi + 3 * nc
        held = _held_at(s0, g, cset, params, cfg)
        assert held.solve(r).size == r.size
        assert held.S.lu.shape == (n_psi, n_psi)
        assert held.C.lu.shape == (3 * nc, 3 * nc)
        # v0 mode: no psi, the C run [q, mu, phi] alone
        v0 = StepConfig(tau=1e-3, v0_mode=True)
        s0.v.data[:] = 0.0
        lin = assemble_linear(s0, g, cset, params, v0)
        r, _ = _Terms(lin, cset, v0, v0.tau, *iterate_of(s0)).residual()
        assert r.size == 3 * nc

    @pytest.mark.parametrize("bc", ["box", "periodic"])
    def test_divergence_stays_at_the_initial_state(self, cset, params, bc):
        # no continuity rows correct D v: every ledger row keeps the initial
        # divergence up to the round-off of D C psi, far below
        # State.validate's 1e-9
        g = Grid(16, 16, 1.0, 1.0, bc)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        div0 = float(np.abs(g.ops.D @ s0.v.data).max())
        res = run(s0, g, cset, params, StepConfig(tau=1e-3), T=50e-3)
        assert len(res.rows) == 50
        assert max(r.div_inf for r in res.rows) <= div0 + 1e-13

    @pytest.mark.parametrize("bc", ["box", "periodic"])
    def test_recovered_pressure_meets_the_momentum_tolerance(self, cset,
                                                             params, bc):
        # the new state's p, put into the momentum residual with its
        # gradient, meets tol_nl in the scaled norm of the saddle form
        g = Grid(12, 12, 1.0, 1.0, bc)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        cfg = StepConfig(tau=1e-3)
        s1, rep = step(s0, g, cset, params, cfg)
        assert rep.converged and rep.newton_iterations > 0
        s1.validate()
        assert np.abs(s1.p.data).max() > 0.0
        ops = g.ops
        lin = assemble_linear(s0, g, cset, params, cfg)
        t = _Terms(lin, cset, cfg, rep.tau_used, *iterate_of(s1))
        visc = (lin.A_form @ s1.v.data) / g.dV
        gp = ops.G @ s1.p.data
        r_v = visc + gp - t.rhs_v
        if g.periodic:
            nxf = g.n_xfaces
            r_v[:nxf] -= r_v[:nxf].mean()
            r_v[nxf:] -= r_v[nxf:].mean()
        scale = max(np.linalg.norm(x) for x in
                    (visc, gp, t.cap, t.time_term, t.conv))
        assert np.linalg.norm(r_v) / (1.0 + scale) <= cfg.tol_nl

    def test_v0_mode_keeps_the_pressure(self, cset, params, rng, relax16):
        g, s0, cfg = relax16
        p = rng.standard_normal(g.n_cells)
        s0 = dataclasses.replace(s0, p=ScalarField(g, p - p.mean()))
        s1, rep = step(s0, g, cset, params, cfg)
        assert rep.converged
        assert np.array_equal(s1.p.data, s0.p.data - s0.p.data.mean())


class TestTransportDefect:
    @pytest.mark.parametrize("bc,v0", [("box", False), ("periodic", False),
                                       ("box", True)])
    def test_matches_state_pair_reference(self, cset, params, bc, v0):
        # each step's defect, read from its converged terms, against the
        # three forms rebuilt from the two states; exactly 0 without flow
        g = Grid(12, 12, 1.0, 1.0, bc)
        scenario = (ScenarioConfig(name="droplet", q0=0.1) if v0 else
                    ScenarioConfig(name="shear-droplet", q0=0.1, shear=0.5))
        s0 = initialize_scenario(scenario, g, params, cset)
        pairs = []
        states = [s0]

        def record(s, rep, row):
            pairs.append((rep.transport_defect,
                          reference_assembly.transport_defect(
                              states[-1], s, cset, params)))
            states.append(s)

        run(s0, g, cset, params, StepConfig(tau=1e-3, v0_mode=v0), T=4e-3,
            callbacks=[record])
        assert len(pairs) == 4
        if v0:
            assert all(d == 0.0 and ref == 0.0 for d, ref in pairs)
        else:
            assert all(ref != 0.0 for _, ref in pairs)
            for d, ref in pairs:
                assert abs(d - ref) <= 1e-13 * abs(ref)

    def test_mu_coupling_cancels_exactly(self, cset, params, rng):
        # the mu-part of the capillary force pairs with the phi transport
        # through the exact transpose averaging, so a defect evaluated with
        # h = 0 fields reduces to the q-transport term alone
        g = Grid(10, 10)
        ops = g.ops
        v = rng.standard_normal(g.n_faces)
        mu = rng.standard_normal(g.n_cells)
        phi_k = rng.standard_normal(g.n_cells)
        gp = ops.G @ phi_k
        z = float((ops.Afc @ (gp * v)) @ mu) * g.dV
        x = float(((ops.Acf @ mu) * gp) @ v) * g.dV
        assert z == pytest.approx(x, rel=1e-13)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _run_states(s0, g, cset, params, cfg, steps):
    """A run from ``s0`` to ``steps`` tau: its states (``s0`` first) and
    step reports."""
    states = [s0]
    res = run(s0, g, cset, params, cfg, T=steps * cfg.tau,
              callbacks=[lambda s, rep, row: states.append(s)])
    return states, res.reports


def _table_of(xs):
    """The backward differences at the newest of the cell arrays ``xs``
    (newest first), per field [x_k, nabla x_k, ..., nabla^p x_k], each row
    of differences taken from the whole row before it."""
    table = []
    for field in zip(*xs):
        d = np.stack(field)
        col = [d[0]]
        while len(d) > 1:
            d = d[:-1] - d[1:]
            col.append(d[0])
        table.append(col)
    return tuple(table)


def _same_table(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ca) == len(cb) and all(np.array_equal(_bits(x), _bits(y))
                                   for x, y in zip(ca, cb))
        for ca, cb in zip(a, b))


def _first_residual(s, start, g, cset, params, cfg):
    """The first residual_history entry of an attempt of ``cfg.tau`` from
    the old state ``s`` whose first iterate has cell arrays ``start``."""
    lin = assemble_linear(s, g, cset, params, cfg)
    _, norms = _Terms(lin, cset, cfg, cfg.tau, s.v.data, *start).residual()
    return dict(norms, total=max(norms.values()))


class TestPredictedStart:
    """In v0 mode ``run`` hands each step a start extrapolated through the
    old states of up to ``PREDICTOR_DEPTH`` last steps, and the step
    retries from its own old state at the same tau if that fails; coupled
    steps are given no start."""

    def test_start_is_the_extrapolated_state(self, cset, params, relax16):
        g, s0, cfg = relax16
        states, reports = _run_states(s0, g, cset, params, cfg, 12)
        s0, s1, s2 = states[:3]
        # step 1 has no old state before it: its start is the old state
        assert reports[0].residual_history[0] == _first_residual(
            s0, _cells(s0), g, cset, params, cfg)
        linear = [b + (b - a) for a, b in zip(_cells(s0), _cells(s1))]
        assert reports[1].residual_history[0] == _first_residual(
            s1, linear, g, cset, params, cfg)
        # every second difference is smaller than the first here
        quadratic = [c + (c - b) + ((c - b) - (b - a)) for a, b, c in
                     zip(_cells(s0), _cells(s1), _cells(s2))]
        assert reports[2].residual_history[0] == _first_residual(
            s2, quadratic, g, cset, params, cfg)
        # step 12 extrapolates through the eight old states before its own
        table = _table_of([_cells(s) for s in states[11:2:-1]])
        assert reports[11].residual_history[0] == _first_residual(
            states[11], _predicted(table, 1.0), g, cset, params, cfg)
        assert all(r.restarts == 0 for r in reports)
        # a step called without a start starts from its old state
        _, rep = step(s2, g, cset, params, cfg)
        assert rep.residual_history[0] == _first_residual(
            s2, _cells(s2), g, cset, params, cfg)

    def test_linear_start_scales_with_the_tau_ratio(self, cset, params,
                                                    relax16):
        # the last step of a run to 2.5 tau steps by tau / 2 from s2, so
        # both earlier steps took another tau: a linear start at ratio 1/2
        g, s0, cfg = relax16
        (_, s1, s2, _), reports = _run_states(s0, g, cset, params, cfg, 2.5)
        last = dataclasses.replace(cfg, tau=reports[-1].tau_used)
        assert last.tau < cfg.tau
        ratio = last.tau / cfg.tau
        linear = [b + ratio * (b - a)
                  for a, b in zip(_cells(s1), _cells(s2))]
        assert reports[-1].residual_history[0] == _first_residual(
            s2, linear, g, cset, params, last)

    def test_failed_start_retries_from_the_old_state(self, cset, params):
        # on this rough state the extrapolated start of step 2 stalls; the
        # step then starts again from its old state at the full tau, before
        # any halving, and says why it left the start
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="random-seed", sigma=1.0,
                                                q0=0.1), g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=True)
        states, reports = _run_states(s0, g, cset, params, cfg, 30)
        assert [k for k, r in enumerate(reports, 1) if r.restarts] == [2]
        rep, s = reports[1], states[1]
        assert rep.restarts == 1 and rep.converged
        assert rep.backoffs == 0 and rep.tau_used == cfg.tau
        notes = [i for i, h in enumerate(rep.residual_history)
                 if "note" in h]
        assert len(notes) == 1
        i = notes[0]
        assert rep.residual_history[i] == {
            "total": np.inf, "note": "retry from the old state"}
        assert rep.residual_history[i + 1] == _first_residual(
            s, _cells(s), g, cset, params, cfg)
        assert rep.failure_reason == ""
        assert rep.abandoned == ["Newton line search stalled"]
        record = dataclasses.asdict(rep)
        assert record["restarts"] == 1
        assert record["abandoned"] == ["Newton line search stalled"]
        assert all(r.failure_reason == "" and r.abandoned == []
                   for k, r in enumerate(reports, 1) if k != 2)

    def test_no_start_past_a_shorter_step(self, cset, params):
        # step 1 halves tau four times on this stiff state; step 2 first
        # tries the full tau, 16 times the last step, and starts it from its
        # old state instead of extrapolating that far
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="random-seed", sigma=1.0,
                                                q0=0.5), g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=True)
        (_, s1, *_), (rep1, rep2, *_) = _run_states(s0, g, cset, params,
                                                    cfg, 2)
        assert rep1.backoffs == 4 and rep1.tau_used == cfg.tau / 16
        assert rep1.converged and rep1.failure_reason == ""
        assert len(rep1.abandoned) == 4
        assert rep2.restarts == 0
        assert rep2.residual_history[0] == _first_residual(
            s1, _cells(s1), g, cset, params, cfg)
        table = _advanced(tuple([x] for x in _cells(s0)), _cells(s1), False)
        assert _predicted(table, cfg.tau / rep1.tau_used) is None

    def test_table_is_the_differences_of_the_old_states(self, cset, params,
                                                        monkeypatch):
        # at every step of this run (tau halvings, a restart and a clamped
        # last step) the table run carries equals the backward differences
        # of the old states since the last change of tau, at most
        # PREDICTOR_DEPTH of them, bit for bit
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="random-seed", sigma=1.0,
                                                q0=0.5), g, params, cset)
        cfg = StepConfig(tau=1e-3, v0_mode=True)
        calls = []

        def spy(table, ratio):
            calls.append((table, ratio))
            return _predicted(table, ratio)
        monkeypatch.setattr("surfflow.stepper._predicted", spy)
        states, reports = _run_states(s0, g, cset, params, cfg, 30)
        taus = [r.tau_used for r in reports]
        assert sum(r.backoffs for r in reports) > 0
        assert sum(r.restarts for r in reports) == 1
        assert cfg.tau / 16 < taus[-1] < cfg.tau
        assert len(calls) == len(reports) - 1
        depths = set()
        for k, (table, ratio) in enumerate(calls, 1):
            # the call before step k + 1, from states[k]
            last, p = taus[k - 1], 1
            while p < min(k, PREDICTOR_DEPTH) and taus[k - 1 - p] == last:
                p += 1
            depths.add(p)
            olds = [_cells(s) for s in states[k::-1][:p + 1]]
            assert _same_table(table, _table_of(olds)), k
            if reports[k].backoffs == 0:
                assert ratio == taus[k] / taus[k - 1]
        assert {1, PREDICTOR_DEPTH} <= depths

    def test_coupled_run_steps_as_without_history(self, cset, params,
                                                  monkeypatch):
        g = Grid(16, 16)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet",
                                                shear=0.5, q0=0.1),
                                 g, params, cset)
        cfg = StepConfig(tau=1e-3)
        starts = []

        def spy(*args, **kwargs):
            starts.append(args[6] if len(args) > 6 else kwargs.get("start"))
            return step(*args, **kwargs)
        monkeypatch.setattr("surfflow.stepper.step", spy)
        res = run(s0, g, cset, params, cfg, T=8 * cfg.tau)
        # a coupled run hands no step a start
        assert starts == [None] * 8
        held, s = _HeldLU(), s0
        for rep in res.reports:
            s, plain = step(s, g, cset, params, cfg, held=held)
            assert dataclasses.replace(rep, wall_time=0.0) == \
                dataclasses.replace(plain, wall_time=0.0)
            assert plain.restarts == 0
        assert np.array_equal(s.phi.data, res.final_state.phi.data)
        assert np.array_equal(s.v.data, res.final_state.v.data)


def _cell_state(q, mu, phi) -> State:
    """A state on a 4 x 4 grid with cell arrays ``q``, ``mu``, ``phi``."""
    g = Grid(4, 4)
    return State(v=VectorField.zeros(g), p=ScalarField.zeros(g),
                 phi=ScalarField(g, phi), mu=ScalarField(g, mu),
                 q=ScalarField(g, q))


def _history_of(diffs, steps):
    """The fields x_k, x_k-1, ..., x_k-steps (arrays of shape (3, 16)) whose
    backward differences at x_k are ``diffs`` (nabla^0 x_k first), exactly
    in real arithmetic: x_k-i = sum_j (-1)^j C(i, j) nabla^j x_k."""
    return [sum((-1) ** j * math.comb(i, j) * d for j, d in enumerate(diffs))
            for i in range(steps + 1)]


def _start(xs, taus):
    """``_predicted`` at the newest of the fields ``xs`` for a step of
    1e-2, from the table that ``_advanced`` carries from the oldest of
    them, ``taus`` the steps between them (newest first)."""
    table, last = tuple([x] for x in xs[-1]), None
    for x, tau in zip(xs[-2::-1], taus[::-1]):
        table, last = _advanced(table, tuple(x), tau == last), tau
    return np.array(_predicted(table, 1e-2 / last))


class TestBackwardDifferenceStart:
    """``_predicted`` from the table ``_advanced`` carries over the last
    steps of one tau, at most ``PREDICTOR_DEPTH``: x_k + nabla x_k + ... +
    nabla^p x_k per field, each difference after the first added while it
    shrinks."""

    def test_constant_history_gives_the_state_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 16))
        x[:, :3] = -0.0
        start = _start([x] * (PREDICTOR_DEPTH + 1), [1e-2] * PREDICTOR_DEPTH)
        assert np.array_equal(_bits(start), _bits(x))
        # a constant field stays bitwise while the others move
        xs = [x.copy() for _ in range(4)]
        for i, xi in enumerate(xs):
            xi[1] += 0.01 * i
        start = _start(xs, [1e-2] * 3)
        assert np.array_equal(_bits(start[[0, 2]]), _bits(x[[0, 2]]))
        assert np.allclose(start[1], x[1] - 0.01, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("degree", range(8))
    def test_polynomial_in_time_is_predicted(self, degree):
        # fields polynomial in t, sampled at t_k - i tau on equal taus,
        # extrapolated to t_k + tau to round-off
        rng = np.random.default_rng(degree)
        coef = rng.normal(size=(degree + 1, 3, 16))
        tau, t_k = 1e-2, 0.3

        def at(t):
            return sum(c * t ** j for j, c in enumerate(coef))

        xs = [at(t_k - i * tau) for i in range(PREDICTOR_DEPTH + 1)]
        start = _start(xs, [tau] * PREDICTOR_DEPTH)
        assert np.abs(start - at(t_k + tau)).max() < 1e-12
        if degree >= 2:
            # far from the linear start
            linear = 2.0 * xs[0] - xs[1]
            assert np.abs(linear - at(t_k + tau)).max() > 1e-6

    def test_alternating_noise_stops_at_the_second_difference(self):
        # x_k-i = base + (-1)^i e: nabla^j x_k = 2^j e grows from j = 1 on,
        # so only the first difference is added
        rng = np.random.default_rng(1)
        base, e = rng.normal(size=(2, 3, 16))
        xs = [base + (-1) ** i * 1e-3 * e for i in range(PREDICTOR_DEPTH + 1)]
        start = _start(xs, [1e-2] * PREDICTOR_DEPTH)
        assert np.array_equal(_bits(start), _bits(xs[0] + (xs[0] - xs[1])))

    def test_first_difference_that_grows_ends_the_sum(self):
        # nabla^3 grows past nabla^2, and nabla^4 shrinks again: the sum
        # stops at nabla^2, leaving out every difference after it
        rng = np.random.default_rng(2)
        u = rng.normal(size=(3, 16))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        diffs = [rng.normal(size=(3, 16))] + [
            s * u for s in (1.0, 0.5, 0.6, 0.1)]
        start = _start(_history_of(diffs, PREDICTOR_DEPTH),
                       [1e-2] * PREDICTOR_DEPTH)
        assert np.allclose(start, diffs[0] + diffs[1] + diffs[2],
                           rtol=0, atol=1e-13)
        assert np.abs(start - sum(diffs[:3]) - diffs[4]).max() > 1e-3

    @pytest.mark.parametrize("depth", range(1, PREDICTOR_DEPTH))
    def test_tau_change_caps_the_order(self, depth):
        # the steps before the first one of another tau do not enter: with
        # shrinking differences the sum ends at nabla^depth x_k
        rng = np.random.default_rng(depth)
        diffs = [rng.normal(size=(3, 16)) for _ in range(9)]
        for j, d in enumerate(diffs[1:], 1):
            d *= 2.0 ** -j / np.linalg.norm(d, axis=1, keepdims=True)
        xs = _history_of(diffs, PREDICTOR_DEPTH)
        taus = [1e-2] * depth + [2e-2] * (PREDICTOR_DEPTH - depth)
        start = _start(xs, taus)
        assert np.array_equal(_bits(start),
                              _bits(_start(xs[:depth + 1], taus[:depth])))
        assert np.allclose(start, sum(diffs[:depth + 1]), rtol=0,
                           atol=1e-13)
        assert np.abs(start - sum(diffs[:depth + 2])).max() > 1e-4
