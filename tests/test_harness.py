"""Continuation and refinement studies."""

import pytest

from surfflow.harness import (SimulationSetup, StudyReport, study_delta,
                              study_defect, study_tau)
from surfflow.mesh import Grid
from surfflow.state import ScenarioConfig
from surfflow.stepper import StepConfig


def _uniform_setup():
    return SimulationSetup(
        grid=Grid(8, 8),
        params=__import__("surfflow").ModelParams(),
        scenario=ScenarioConfig(name="uniform", phi0=0.2, q0=0.3),
        stepcfg=StepConfig(tau=2e-3, v0_mode=True),
        T=6e-3)


def _droplet_setup(v0=True, **kw):
    from surfflow import ModelParams
    return SimulationSetup(
        grid=Grid(16, 16),
        params=ModelParams(),
        scenario=ScenarioConfig(name="droplet", q0=0.1),
        stepcfg=StepConfig(tau=2e-3, v0_mode=v0, **kw),
        T=8e-3)


class TestDeltaStudy:
    def test_uniform_state_gives_zero_differences(self):
        rep = study_delta(_uniform_setup(), [1e-2, 1e-3, 1e-4])
        assert rep.passed
        assert all(d == 0.0 for d in rep.diffs)
        assert rep.monotone

    def test_needs_three_values(self):
        with pytest.raises(ValueError, match="at least 3"):
            study_delta(_uniform_setup(), [1e-2, 1e-3])

    def test_needs_descending_values(self):
        with pytest.raises(ValueError, match="descending"):
            study_delta(_uniform_setup(), [1e-4, 1e-3, 1e-2])

    def test_droplet_differences_decrease(self):
        rep = study_delta(_droplet_setup(), [1e-2, 1e-3, 1e-4])
        assert rep.passed
        assert rep.monotone
        assert rep.diffs[0] > rep.diffs[1] > 0

    def test_csv_and_summary(self):
        rep = study_delta(_uniform_setup(), [1e-2, 1e-3, 1e-4])
        assert rep.config_hash in rep.to_csv()
        assert "delta" in rep.summary()

    def test_csv_of_mixed_rows_has_every_key(self):
        # a failed run's row has only its own key; the columns are every
        # row's keys, first seen first, and a missing cell is empty
        rep = StudyReport(kind="tau", config_hash="abc",
                          labels=["tau=0.1", "tau=0.05", "tau=0.01"],
                          rows=[{"failed": 1},
                                {"E_final": 0.5, "steps": 2},
                                {"E_final": 0.25, "steps": 10}])
        assert rep.to_csv().splitlines() == [
            "# study tau config_hash=abc",
            "label,failed,E_final,steps",
            "tau=0.1,1,,",
            "tau=0.05,,0.5,2",
            "tau=0.01,,0.25,10"]


class TestTauStudy:
    def test_uniform_state_gives_zero_differences(self):
        rep = study_tau(_uniform_setup(), [2e-3, 1e-3, 5e-4])
        assert rep.passed
        assert all(d == 0.0 for d in rep.diffs)

    def test_slack_checked_for_every_run(self):
        rep = study_tau(_droplet_setup(), [2e-3, 1e-3, 5e-4])
        assert rep.passed
        assert all("min_rel_estimate_slack" in row for row in rep.rows)

    def test_first_order_richardson(self):
        rep = study_tau(_droplet_setup(), [4e-3, 2e-3, 1e-3])
        assert rep.passed
        assert rep.ratios[0] == pytest.approx(2.0, rel=0.3)


class TestDefectStudy:
    def test_transport_free_mode_has_no_defect(self):
        rep = study_defect(_droplet_setup(), [8, 16])
        assert rep.passed
        assert rep.order == float("inf")
        assert all(row["defect_max"] == 0.0 for row in rep.rows)

    def test_constant_states_zero_defect_on_all_grids(self):
        setup = _uniform_setup()
        setup = SimulationSetup(grid=setup.grid, params=setup.params,
                                scenario=setup.scenario,
                                stepcfg=StepConfig(tau=2e-3), T=6e-3)
        rep = study_defect(setup, [8, 16])
        assert rep.passed
        assert all(row["defect_max"] <= 1e-13 for row in rep.rows)

    def test_coupled_defect_positive_and_reported(self):
        from surfflow import ModelParams
        setup = SimulationSetup(
            grid=Grid(8, 8), params=ModelParams(epsilon=0.2),
            scenario=ScenarioConfig(name="shear-droplet", q0=0.1, shear=0.4),
            stepcfg=StepConfig(tau=2e-3), T=4e-3)
        rep = study_defect(setup, [8, 16])
        assert rep.passed
        assert rep.rows[0]["defect_max"] > 0.0
        assert rep.order is not None

    def test_needs_refining_grids(self):
        with pytest.raises(ValueError, match="refining"):
            study_defect(_droplet_setup(), [32, 16])


class TestConcurrency:
    def test_threaded_matches_serial(self):
        setup = _droplet_setup()
        a = study_delta(setup, [1e-2, 1e-3, 1e-4], threads=1)
        b = study_delta(setup, [1e-2, 1e-3, 1e-4], threads=3)
        assert a.diffs == b.diffs
        assert a.rows == b.rows
