"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line.  The heavy runs (criteria 6-10) share
module-scoped fixtures; reported runtimes are asserted against the stated
budgets.
"""

import dataclasses
import time

import numpy as np
import pytest

from fields import view2d
from surfflow.constitutive import (ModelParams, SamplingSpec,
                                   audit_assumptions, build_default_set,
                                   pointwise_step_inequalities)
from surfflow.energy import rows_to_csv, total_energy
from surfflow.harness import (SimulationSetup, study_delta, study_defect,
                              study_tau)
from surfflow.mesh import Grid, sbp_selftest
from surfflow.state import ScenarioConfig, initialize_scenario
from surfflow.stepper import StepConfig, run, step
from tests.test_stepper import two_cell_oracle, two_cell_state


def _report(num, passed, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def acc_params():
    return ModelParams()       # epsilon 0.1, delta 1e-3, default couplings


@pytest.fixture(scope="module")
def acc_cset(acc_params):
    return build_default_set(acc_params)


@pytest.fixture(scope="module")
def droplet_run(acc_params, acc_cset):
    """Criterion 6 configuration: droplet, 32x32, tau=1e-3, 100 steps."""
    grid = Grid(32, 32)
    scn = ScenarioConfig(name="droplet", q0=0.1)
    state0 = initialize_scenario(scn, grid, acc_params, acc_cset)
    cfg = StepConfig(tau=1e-3)
    t0 = time.perf_counter()
    result = run(state0, grid, acc_cset, acc_params, cfg, T=0.1)
    elapsed = time.perf_counter() - t0
    return {"grid": grid, "scn": scn, "cfg": cfg, "state0": state0,
            "result": result, "elapsed": elapsed}


def test_criterion_1_structural_audit(acc_params, acc_cset):
    t0 = time.perf_counter()
    rep = audit_assumptions(acc_cset, acc_params, SamplingSpec(n=10_000))
    q = np.linspace(acc_params.q_min - 1.0, acc_params.q_max + 1.0, 10_000)
    d = acc_cset.d(q)
    legendre = np.abs(d - acc_cset.h(q) + acc_cset.hp(q) * q)
    hp_f = np.abs(acc_cset.hp(q) + acc_cset.f(q))
    elapsed = time.perf_counter() - t0
    ok = (rep.passed
          and np.all(legendre <= 1e-12 * (1.0 + np.abs(d)))
          and np.all(hp_f <= 1e-12 * (1.0 + np.abs(acc_cset.f(q))))
          and elapsed < 1.0)
    _report(1, ok, f"all {len(rep.clauses)} clauses pass; worst legendre "
            f"{legendre.max():.2e}; {elapsed:.2f}s")


def test_criterion_2_pointwise_inequalities(acc_cset):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    pairs = rng.uniform(-2.0, 3.0, size=(100_000, 2))
    rep = pointwise_step_inequalities(acc_cset, pairs)
    planted = dataclasses.replace(
        acc_cset,
        h=lambda q: np.asarray(q, dtype=float) ** 2,
        hp=lambda q: 2.0 * np.asarray(q, dtype=float),
        f=lambda q: -2.0 * np.asarray(q, dtype=float))
    bad = pointwise_step_inequalities(planted, [(0.0, 1.0)])
    elapsed = time.perf_counter() - t0
    ok = (rep.violations == 0 and rep.min_slack_f >= 0.0
          and rep.min_slack_g >= -1e-13
          and bad.violations == 1 and elapsed < 1.0)
    _report(2, ok, f"10^5 pairs, min slacks ({rep.min_slack_f:.2e}, "
            f"{rep.min_slack_g:.2e}); planted violation detected; {elapsed:.2f}s")


def test_criterion_3_discrete_duality():
    t0 = time.perf_counter()
    worst = 0.0
    all_ok = True
    for n in (16, 32, 64):
        for bc in ("box", "periodic"):
            rep = sbp_selftest(Grid(n, n, 1.0, 1.0, bc))
            all_ok &= rep.passed
            worst = max(worst, max(r for _, _, r in rep.checks))
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 5.0
    _report(3, ok, f"16^2..64^2 both modes, worst identity residual "
            f"{worst:.2e}; {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence(acc_params, acc_cset):
    t0 = time.perf_counter()
    grid = Grid(2, 2)
    tau = 0.02
    rng = np.random.default_rng(11)
    worst = 0.0
    ok = True
    for _ in range(20):
        phi_pair = rng.uniform(-1.0, 1.0, 2)
        q_pair = rng.uniform(0.0, 1.0, 2)
        s0 = two_cell_state(grid, phi_pair, q_pair, acc_cset, acc_params)
        s1, rep = step(s0, grid, acc_cset, acc_params,
                       StepConfig(tau=tau, v0_mode=True, tol_nl=1e-12))
        ok &= rep.tau_used == tau
        q_o, mu_o, phi_o = two_cell_oracle(phi_pair, q_pair, acc_cset,
                                           acc_params, tau, grid.dx)
        err = max(np.abs(view2d(s1.q)[:, 0] - q_o).max(),
                  np.abs(view2d(s1.mu)[:, 0] - mu_o).max(),
                  np.abs(view2d(s1.phi)[:, 0] - phi_o).max())
        worst = max(worst, err)
        ok &= err <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(4, ok, f"20 random ICs, worst deviation {worst:.2e} <= 1e-10; "
            f"{elapsed:.2f}s")


def test_criterion_5_uniform_fixed_points(acc_params, acc_cset):
    rng = np.random.default_rng(31)
    grid = Grid(8, 8)
    ok = True
    for _ in range(10):
        scn = ScenarioConfig(name="uniform", phi0=float(rng.uniform(-1.5, 1.5)),
                             q0=float(rng.uniform(-1.0, 2.0)))
        s0 = initialize_scenario(scn, grid, acc_params, acc_cset)
        s1, rep = step(s0, grid, acc_cset, acc_params, StepConfig(tau=1e-2))
        ok &= rep.iterations == 1
        ok &= rep.residual_history[0]["total"] == 0.0
        ok &= np.array_equal(s1.phi.data, s0.phi.data)
        ok &= np.array_equal(s1.q.data, s0.q.data)
        ok &= np.array_equal(s1.mu.data, s0.mu.data)
        ok &= np.array_equal(s1.v.data, s0.v.data)
    _report(5, ok, "10 random uniform states reproduced exactly "
            "(zero residual, one iteration)")


def test_criterion_6_conservation(droplet_run):
    res = droplet_run["result"]
    rows = res.rows
    masses = np.array([r.phi_mass for r in rows])
    surfs = np.array([r.surf_total for r in rows])
    div_max = max(r.div_inf for r in rows)
    mass_drift = np.abs(masses - masses[0]).max() / abs(masses[0])
    surf_drift = np.abs(surfs - surfs[0]).max() / abs(surfs[0])
    elapsed = droplet_run["elapsed"]
    ok = (len(rows) == 100 and mass_drift <= 1e-10 and surf_drift <= 1e-8
          and div_max <= 1e-9 and elapsed < 300.0)
    _report(6, ok, f"100 steps: phi-mass drift {mass_drift:.2e} (<=1e-10), "
            f"surfactant drift {surf_drift:.2e} (<=1e-8), "
            f"max|div v| {div_max:.2e} (<=1e-9); {elapsed:.0f}s")


def test_criterion_7_energy_stability_exact_regime(acc_params, acc_cset):
    t0 = time.perf_counter()
    grid = Grid(32, 32)
    s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1),
                             grid, acc_params, acc_cset)
    result = run(s0, grid, acc_cset, acc_params,
                 StepConfig(tau=1e-3, v0_mode=True), T=0.1)
    E0 = total_energy(s0, acc_cset, acc_params).E_tot
    E_prev = np.array([E0] + [r.E_tot for r in result.rows[:-1]])
    slacks = np.array([r.slack for r in result.rows])
    floor = np.maximum(np.abs(E_prev), 1.0)
    min_rel = float(np.min(slacks / floor))
    mono = bool(np.all(E_prev >= [r.E_tot for r in result.rows]))
    elapsed = time.perf_counter() - t0
    ok = (len(result.rows) == 100 and min_rel >= -1e-8 and mono
          and elapsed < 120.0)
    _report(7, ok, f"100 transport-free steps: min relative slack "
            f"{min_rel:.2e} >= -1e-8, energy non-increasing; {elapsed:.0f}s")


def test_criterion_8_energy_stability_coupled_regime():
    t0 = time.perf_counter()
    params = ModelParams(epsilon=0.15)
    base = SimulationSetup(
        grid=Grid(16, 16), params=params,
        scenario=ScenarioConfig(name="shear-droplet", q0=0.1, shear=0.5),
        stepcfg=StepConfig(tau=1e-3), T=5e-3)
    rep = study_defect(base, [16, 32, 64])
    elapsed = time.perf_counter() - t0
    fine = rep.rows[-1]
    ok = (rep.passed and rep.order is not None and rep.order >= 1.0
          and fine["E_monotone"] == 1 and elapsed < 1200.0)
    _report(8, ok, f"defect decay order {rep.order:.2f} >= 1 over 16/32/64; "
            f"64^2 energy non-increasing at tau=1e-3; {elapsed:.0f}s")


def test_criterion_9_limit_studies(acc_params):
    t0 = time.perf_counter()
    scn = ScenarioConfig(name="droplet", q0=0.1)
    base_delta = SimulationSetup(
        grid=Grid(32, 32), params=acc_params, scenario=scn,
        stepcfg=StepConfig(tau=1e-3, v0_mode=True), T=0.02)
    rep_d = study_delta(base_delta, [1e-2, 1e-3, 1e-4])
    base_tau = SimulationSetup(
        grid=Grid(32, 32), params=acc_params, scenario=scn,
        stepcfg=StepConfig(tau=4e-3, v0_mode=True), T=0.04)
    rep_t = study_tau(base_tau, [4e-3, 2e-3, 1e-3])
    elapsed = time.perf_counter() - t0
    ratio = rep_t.ratios[0] if rep_t.ratios else float("nan")
    ok = (rep_d.passed and rep_d.monotone
          and rep_t.passed and abs(ratio - 2.0) <= 0.6
          and elapsed < 1800.0)
    _report(9, ok, f"delta continuation monotone "
            f"({', '.join(f'{d:.2e}' for d in rep_d.diffs)}); "
            f"Richardson ratio {ratio:.2f} in 2 +- 0.6; {elapsed:.0f}s")


def test_criterion_10_determinism(droplet_run, acc_params, acc_cset):
    first_csv = rows_to_csv(droplet_run["result"].rows)
    state0 = initialize_scenario(droplet_run["scn"], droplet_run["grid"],
                                 acc_params, acc_cset)
    again = run(state0, droplet_run["grid"], acc_cset, acc_params,
                droplet_run["cfg"], T=0.1)
    second_csv = rows_to_csv(again.rows)
    ok = first_csv == second_csv
    _report(10, ok, "repeated conservation run reproduces ledger.csv bitwise")
