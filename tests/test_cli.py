"""Command-line interface: config validation, exit codes, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

import surfflow.state as state
from fields import read_field_snapshot
from surfflow.cli import (EXIT_AUDIT, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION,
                          ConfigError, default_config, effective_config_text,
                          main, parse_config)

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))


# a coupled run whose raw slack is negative (the transport defect, about
# -4e-4 of the energy at step 1) while slack - defect stays positive
STRESSED = """
[grid]
nx = 8
ny = 8

[params]
epsilon = 0.1

[scenario]
name = random-seed
sigma = 0.5
q0 = 0.1

[stepper]
tau = 1e-2

[output]
t_final = 0.02

[study]
taus = 1e-2, 5e-3, 2.5e-3
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_unknown_keys_listed(self, tmp_path):
        path = write(tmp_path, "[grid]\nnx = 16\nnz = 4\n\n[outputs]\nx = 1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        msg = str(exc.value)
        assert "nz" in msg and "[outputs]" in msg

    @pytest.mark.parametrize("config", [None] + CONFIGS,
                             ids=lambda p: p.stem if p else "defaults")
    def test_defaults_round_trip(self, tmp_path, config):
        values = parse_config(str(config)) if config else default_config()
        path = write(tmp_path, effective_config_text(values))
        assert parse_config(path) == values

    @pytest.mark.parametrize("section,key,raw", [
        ("grid", "nx", "many"), ("stepper", "v0_mode", "maybe"),
        ("study", "taus", "1e-2, x"), ("study", "grids", "16, 3.5")],
        ids=["int", "bool", "float-list", "int-list"])
    def test_type_errors_reported(self, tmp_path, section, key, raw):
        path = write(tmp_path, f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/conf.ini")

    @pytest.mark.parametrize("text,match", [
        ("[grid]\nnx = 8\nnx = 16\n", "already exists"),
        ("nx = 8\n", "no section headers"),
        ("[scenario]\nname = 50%droplet\n", "'%'")],
        ids=["duplicate-key", "no-section", "stray-percent"])
    def test_malformed_ini_exits_one(self, tmp_path, capsys, text, match):
        path = write(tmp_path, text)
        with pytest.raises(ConfigError, match=match):
            parse_config(path)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()


class TestExitCodes:
    def test_invalid_invariant_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "[params]\nq_min = 2.0\nq_max = 1.0\n")
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "q_min < q_max" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["bogus"],
                                      ["print-config", "--threads", "abc"]],
                             ids=["command", "option"])
    def test_usage_error_exits_one(self, capsys, argv):
        # argparse's own exit code, 2, is the solver-failure code
        assert main(argv) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage:" in capsys.readouterr().out

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "[stepper]\ntimestep = 0.1\n")
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "timestep" in capsys.readouterr().err

    def test_selftest_clean_build(self, tmp_path, capsys):
        code = main(["selftest", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "grad_div_adjoint" in out
        assert "worst pair (" in out

    def test_audit_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        code = main(["audit", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "audit.txt").exists()
        assert (out / "audit.csv").read_text().startswith("clause_id,")

    @pytest.mark.parametrize("command", ["run", "study-delta", "study-tau",
                                         "study-defect"])
    def test_run_and_studies_require_the_audit(self, tmp_path, capsys,
                                               command):
        # c2 = 1.5 fails the audit's coefficient bounds; no member runs
        path = write(tmp_path, "[params]\nc2 = 1.5\n\n[grid]\nnx = 8\n"
                               "ny = 8\n\n[output]\nt_final = 4e-3\n\n"
                               "[study]\ngrids = 4, 8\n")
        out = tmp_path / "out"
        assert main([command, path, "--out", str(out)]) == EXIT_AUDIT
        assert capsys.readouterr().err == \
            "constitutive audit failed: coeff_bounds\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "study-tau"])
    def test_horizon_below_end_tolerance_exits_one(self, tmp_path, capsys,
                                                   command):
        # a run to 1e-13 would take no step, so leave no ledger behind
        path = write(tmp_path, "[grid]\nnx = 8\nny = 8\n\n"
                               "[output]\nt_final = 1e-13\n")
        out = tmp_path / "out"
        assert main([command, path, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [output] t_final")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "audit", "study-tau"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below"])
    def test_unusable_out_exits_one(self, tmp_path, capsys, monkeypatch,
                                    command, below):
        # --out at a file, or below one: no run or study member starts
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was made")
        monkeypatch.setattr("surfflow.cli.run", no_work)
        monkeypatch.setattr("surfflow.cli.study_tau", no_work)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "out" if below else taken
        path = write(tmp_path, "[grid]\nnx = 8\nny = 8\n")
        assert main([command, path, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"validation error: --out {out}: cannot create")
        assert taken.read_text() == ""

    def test_audit_failure_exits_three(self, tmp_path):
        # h0 below c1 violates the d > c1 clause at build time -> validation
        path = write(tmp_path, "[params]\nh0 = 0.05\n")
        code = main(["audit", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION


class TestRunCommand:
    def _uniform_cfg(self, tmp_path, extra=""):
        return write(tmp_path, f"""
[grid]
nx = 8
ny = 8

[scenario]
name = uniform
phi0 = 0.2
q0 = 0.3

[stepper]
tau = 2e-3

[output]
t_final = 6e-3
{extra}
""")

    def test_uniform_run(self, tmp_path, capsys):
        path = self._uniform_cfg(tmp_path)
        out = tmp_path / "out"
        code = main(["run", path, "--out", str(out)])
        assert code == EXIT_OK
        ledger = (out / "ledger.csv").read_text().strip().splitlines()
        assert len(ledger) == 4        # header + 3 identical steps
        body = [line.split(",")[3:] for line in ledger[1:]]
        assert body[0] == body[1] == body[2]
        assert (out / "config.effective.ini").exists()

    def test_summary_reports_solver_counts(self, tmp_path, capsys):
        # the LUs of each block per step: J_CC's alone in v0 mode, the
        # Stokes LU (of K) and J_CC's with flow
        for v0 in ("true", "false"):
            path = write(tmp_path, f"""
[grid]
nx = 8
ny = 8

[scenario]
name = droplet
q0 = 0.1

[stepper]
tau = 2e-3
v0_mode = {v0}

[output]
t_final = 6e-3
""")
            out = tmp_path / f"out-{v0}"
            assert main(["run", path, "--out", str(out)]) == EXIT_OK
            line = capsys.readouterr().out.splitlines()[0]
            assert line.startswith("run complete: 3 steps")
            counts = dict(part.rsplit(" ", 1)
                          for part in line.split(", ")[-4:])
            assert (float(counts["Stokes LUs/step"]) > 0) == (v0 == "false")
            assert float(counts["J_CC LUs/step"]) > 0
            assert float(counts["Newton it./step"]) > 0
            assert int(counts["fill/LU"]) > 0
            # solver counts stay out of the ledger
            header = (out / "ledger.csv").read_text().splitlines()[0]
            assert "fill" not in header and "factor" not in header

    def test_summary_reports_restarts(self, tmp_path, capsys):
        # on this rough v0 state the extrapolated start of step 2 fails,
        # and the step starts again from its old state
        path = write(tmp_path, """
[grid]
nx = 16
ny = 16

[scenario]
name = random-seed
sigma = 1.0
q0 = 0.1

[stepper]
tau = 1e-3
v0_mode = true

[output]
t_final = 3e-3
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        assert ", restarts 1, " in line

    def test_summary_counts_energy_estimate_violations(self, tmp_path,
                                                       capsys):
        # the one-step estimate bounds slack - transport_defect, so the
        # negative raw slack of this run is no violation
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, STRESSED), "--out",
                     str(out)]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        assert "energy-estimate violations: 0," in line
        ledger = np.genfromtxt(out / "ledger.csv", delimiter=",", names=True)
        assert ledger["slack"].min() < -1e-4 * np.abs(ledger["E_tot"]).max()

    def test_rerun_is_bitwise_identical(self, tmp_path):
        path = self._uniform_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1)]) == EXIT_OK
        # rerun from the effective config it wrote
        eff = out1 / "config.effective.ini"
        assert main(["run", str(eff), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "ledger.csv").read_bytes() == (out2 / "ledger.csv").read_bytes()
        # a coupled periodic run, twice: each run builds its own grid, and
        # so its own pinned Poisson LU and Stokes LUs
        path = write(tmp_path, """
[grid]
nx = 10
ny = 10
bc = periodic

[scenario]
name = droplet
q0 = 0.1

[stepper]
tau = 2e-3

[output]
t_final = 8e-3
""")
        outs = [tmp_path / "p1", tmp_path / "p2"]
        for out in outs:
            assert main(["run", path, "--out", str(out)]) == EXIT_OK
        ledgers = [(out / "ledger.csv").read_bytes() for out in outs]
        assert ledgers[0] == ledgers[1]
        assert len(ledgers[0].splitlines()) == 5       # header + 4 steps

    def test_snapshots_written(self, tmp_path):
        path = self._uniform_cfg(tmp_path, "write_fields = true\nsnapshot_every = 2")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        snap = out / "fields" / "phi_000002.bin"
        assert snap.exists()
        data, meta = read_field_snapshot(snap)
        assert meta["nx"] == 8 and meta["step"] == 2
        assert np.allclose(data, 0.2)

    def test_failure_writes_report(self, tmp_path, capsys):
        path = write(tmp_path, """
[grid]
nx = 8
ny = 8

[scenario]
name = droplet
q0 = 0.1

[stepper]
tau = 2e-3
v0_mode = true
max_newton = 1
max_backoff = 0

[output]
t_final = 6e-3
""")
        out = tmp_path / "out"
        code = main(["run", path, "--out", str(out)])
        assert code == EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err
        assert (out / "ledger.csv").read_text().count("\n") == 1   # header
        report = json.loads((out / "failure.json").read_text())
        assert report["converged"] is False
        assert report["backoffs"] == 0
        assert report["tau_used"] == 2e-3
        assert report["newton_iterations"] == 1
        # the first step's only LU, J_CC's: v0 mode has no J_SS
        assert report["cc_lus"] == 1 and report["ss_lus"] == 0
        assert "budget" in report["failure_reason"]
        assert report["abandoned"] == [report["failure_reason"]]
        hist = report["residual_history"]
        assert len(hist) == 2
        assert hist[1]["total"] < hist[0]["total"]
        assert set(hist[0]) == {"q", "phi_evolution", "mu_relation", "total"}

    def test_failure_report_nonfinite_as_null(self, tmp_path):
        # the retry note carries an infinite residual; JSON has no inf
        path = write(tmp_path, """
[grid]
nx = 8
ny = 8

[scenario]
name = droplet
q0 = 0.1

[stepper]
tau = 2e-3
v0_mode = true
max_newton = 1
max_backoff = 1

[output]
t_final = 6e-3
""")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_SOLVER
        text = (out / "failure.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        report = json.loads(text)
        assert report["backoffs"] == 1
        notes = [h for h in report["residual_history"] if "note" in h]
        assert notes == [{"total": None, "note": "retry tau=0.001"}]

    def test_projection_failure_exits_as_solver_failure(self, tmp_path, capsys,
                                                        monkeypatch):
        # an initial projection left above its bound is a solver failure
        # that states the reached divergence and the bound
        monkeypatch.setattr(state, "gradient_potential",
                            lambda g, f: np.zeros(g.n_cells))
        path = write(tmp_path, "[grid]\nnx = 8\nny = 8\n\n"
                     "[scenario]\nname = shear-droplet\nshear = 0.5\n")
        assert main(["run", path, "--out", str(tmp_path / "out")]) \
            == EXIT_SOLVER
        assert "projection reached max |div|" in capsys.readouterr().err

    def test_print_config(self, tmp_path, capsys):
        path = self._uniform_cfg(tmp_path)
        assert main(["print-config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[grid]" in out and "nx = 8" in out
        assert "epsilon" in out

    def test_operator_dump(self, tmp_path):
        path = self._uniform_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--dump-operators"]) == EXIT_OK
        assert (out / "operators" / "velocity_form.mtx").exists()
        assert (out / "operators" / "q_diffusion.mtx").exists()

    def test_operator_dump_has_no_explicit_zeros(self, tmp_path):
        # at delta = 0 the form's pattern keeps the biharmonic entries as
        # explicit zeros; the dump leaves them out
        import scipy.io

        path = self._uniform_cfg(tmp_path, "[params]\ndelta = 0")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--dump-operators"]) == EXIT_OK
        for name in ("velocity_form", "q_diffusion", "mu_diffusion",
                     "phi_laplacian"):
            mat = scipy.io.mmread(str(out / "operators" / f"{name}.mtx"))
            assert mat.nnz > 0 and np.all(mat.data != 0.0), name


class TestStudies:
    def test_uniform_delta_study(self, tmp_path, capsys):
        path = write(tmp_path, """
[grid]
nx = 8
ny = 8

[scenario]
name = uniform
phi0 = 0.2

[stepper]
tau = 2e-3
v0_mode = true

[output]
t_final = 4e-3

[study]
deltas = 1e-2, 1e-3, 1e-4
""")
        out = tmp_path / "out"
        code = main(["study-delta", path, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "study.csv").exists()
        assert "differences: 0.000000e+00" in capsys.readouterr().out

    def test_short_study_list_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "[study]\ndeltas = 1e-2, 1e-3\n")
        code = main(["study-delta", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == ("validation error: delta "
                                           "continuation needs at least 3 "
                                           "values for a ratio\n")

    def test_tau_study_command(self, tmp_path, capsys):
        path = write(tmp_path, """
[grid]
nx = 8
ny = 8

[scenario]
name = droplet
q0 = 0.1

[stepper]
tau = 2e-3
v0_mode = true

[output]
t_final = 4e-3

[study]
taus = 2e-3, 1e-3, 5e-4
""")
        out = tmp_path / "out"
        assert main(["study-tau", path, "--out", str(out)]) == EXIT_OK
        assert "ratios" in capsys.readouterr().out
        assert (out / "study.csv").exists()

    def test_tau_study_with_failed_members(self, tmp_path, capsys):
        # tau 0.05 and 0.001 fail after two halvings, 5e-4 finishes
        path = write(tmp_path, """
[grid]
nx = 12
ny = 12

[scenario]
name = random-seed
sigma = 2.9
q0 = 0.1

[stepper]
tau = 0.05
v0_mode = true
max_backoff = 2

[output]
t_final = 0.05

[study]
taus = 0.05, 0.001, 0.0005
""")
        out = tmp_path / "out"
        assert main(["study-tau", path, "--out", str(out)]) == EXIT_SOLVER
        assert "FAILURES: tau=0.05: " in capsys.readouterr().out
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[1] == "label,failed,E_final,min_rel_estimate_slack,steps"
        assert [line.split(",")[:2] for line in lines[2:]] == [
            ["tau=0.05", "1"], ["tau=0.001", "1"], ["tau=0.0005", ""]]
        assert lines[4].split(",")[-1] == "105"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, monkeypatch,
                                        threads):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread pool was started")
        monkeypatch.setattr("surfflow.harness.ThreadPoolExecutor", no_thread)
        out = tmp_path / "out"
        code = main(["study-tau", write(tmp_path, STRESSED), "--out",
                     str(out), "--threads", threads])
        assert code == EXIT_VALIDATION
        assert f"--threads must be at least 1, not {threads}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_tau_study_checks_slack_less_defect(self, tmp_path, capsys):
        # every member's raw slack is negative, none violates the estimate
        out = tmp_path / "out"
        assert main(["study-tau", write(tmp_path, STRESSED), "--out",
                     str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "FAILURES" not in text
        assert text.count("min_rel_estimate_slack=") == 3

    def test_defect_study_command(self, tmp_path, capsys):
        path = write(tmp_path, """
[grid]
nx = 8
ny = 8

[scenario]
name = droplet
q0 = 0.1

[stepper]
tau = 2e-3
v0_mode = true

[output]
t_final = 4e-3

[study]
grids = 8, 16
""")
        code = main(["study-defect", path, "--out", str(tmp_path / "out"),
                     "--threads", "2"])
        assert code == EXIT_OK
        assert "decay order: inf" in capsys.readouterr().out
