"""Command-line entry point and configuration handling.

Configs are flat INI files with sections [grid], [params], [stepper],
[scenario], [output], [study].  Each section is one frozen dataclass
(``_SECTIONS``): its fields are the section's keys, their defaults and
types, and their ``doc`` metadata the comments of ``print-config``; each
dataclass checks its own values on construction.  Unknown sections or keys
and malformed INI text are hard errors (no silent defaults for typos).
Every run writes the fully resolved configuration (config.effective.ini)
next to its outputs; rerunning from that file is bitwise reproducible in
single-threaded mode.

Exit codes: 0 success, 1 validation error (a usage error included),
2 solver failure, 3 audit/selftest failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .constitutive import (ConstitutiveError, ModelParams, SamplingSpec,
                           audit_assumptions, build_default_set, config_key,
                           pointwise_step_inequalities)
from .energy import estimate_slack, write_ledger_csv
from .harness import SimulationSetup, study_delta, study_defect, study_tau
from .linalg import SolverFailure, gradient_potential
from .mesh import (FIELD_KIND_CELL, FIELD_KIND_XFACE, FIELD_KIND_YFACE, Grid,
                   sbp_selftest, write_field_snapshot)
from .state import ScenarioConfig, initialize_scenario
from .stepper import END_TOL, StepConfig, StepFailure, before_horizon, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_AUDIT = 3


@dataclass(frozen=True)
class _GridKeys:
    """The ``[grid]`` keys; ``Grid`` checks them."""

    nx: int = config_key(32, "cells in x")
    ny: int = config_key(32, "cells in y")
    lx: float = config_key(1.0, "domain extent in x")
    ly: float = config_key(1.0, "domain extent in y")
    bc: str = config_key("box", "boundary mode: box | periodic")


@dataclass(frozen=True)
class _OutputKeys:
    """The ``[output]`` keys."""

    t_final: float = config_key(0.01, "simulation horizon T")
    snapshot_every: int = config_key(0, "snapshot cadence in steps (0 = final only)")
    write_fields: bool = config_key(False, "write binary field snapshots")

    def __post_init__(self):
        if not (math.isfinite(self.t_final)
                and before_horizon(0.0, self.t_final)):
            raise ValueError(f"[output] t_final must be finite and more than "
                             f"{END_TOL:g} (the end tolerance of a run), "
                             f"got {self.t_final}")
        if self.snapshot_every < 0:
            raise ValueError(f"[output] snapshot_every must be >= 0, "
                             f"got {self.snapshot_every}")


@dataclass(frozen=True)
class _StudyKeys:
    """The ``[study]`` keys; the studies check their lists."""

    deltas: tuple = config_key((1e-2, 1e-3, 1e-4), "descending delta list")
    taus: tuple = config_key((1e-2, 5e-3, 2.5e-3), "descending tau list")
    grids: tuple = config_key((16, 32, 64), "refining grid sizes")


_SECTIONS = {"grid": _GridKeys, "params": ModelParams, "stepper": StepConfig,
             "scenario": ScenarioConfig, "output": _OutputKeys,
             "study": _StudyKeys}


class ConfigError(ValueError):
    pass


def _coerce(default, raw: str, where: str):
    """``raw`` converted to the type of ``default``; a tuple default takes
    a comma- or space-separated list of its first element's type.  A float
    (alone or in a list) must be finite: ``float()`` accepts inf and nan."""
    try:
        if isinstance(default, bool):
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, tuple):
            kind = type(default[0])
            value = tuple(kind(x) for x in raw.replace(",", " ").split())
        else:
            value = type(default)(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if any(isinstance(x, float) and not math.isfinite(x)
           for x in (value if isinstance(value, tuple) else (value,))):
        raise ConfigError(f"{where}: not a finite number")
    return value


def default_config() -> dict:
    return {section: {f.name: f.default for f in dataclasses.fields(cls)}
            for section, cls in _SECTIONS.items()}


def parse_config(path) -> dict:
    """Read an INI config; unknown sections/keys are hard errors."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        sections = {section: cp.items(section) for section in cp.sections()}
    except configparser.Error as exc:     # malformed INI text
        raise ConfigError(str(exc)) from exc
    values = default_config()
    unknown = []
    for section, items in sections.items():
        if section not in values:
            unknown.append(f"[{section}]")
            continue
        for key, raw in items:
            if key not in values[section]:
                unknown.append(f"[{section}] {key}")
                continue
            values[section][key] = _coerce(values[section][key], raw,
                                           f"[{section}] {key}")
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    return values


def _ini_value(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(_ini_value(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def effective_config_text(values: dict) -> str:
    lines = [f"# surfflow {__version__} effective configuration"]
    for section, cls in _SECTIONS.items():
        lines.append(f"\n[{section}]")
        for f in dataclasses.fields(cls):
            lines.append(f"# {f.metadata['doc']}")
            lines.append(f"{f.name} = {_ini_value(values[section][f.name])}")
    return "\n".join(lines) + "\n"


def build_objects(values: dict):
    """Simulation objects from a config dictionary, each validated by its own
    constructor; the audit always samples with the fixed ``SamplingSpec()``."""
    try:
        grid = Grid(**values["grid"])
        params = ModelParams(**values["params"])
        stepcfg = StepConfig(**values["stepper"])
        scenario = ScenarioConfig(**values["scenario"])
        T = _OutputKeys(**values["output"]).t_final
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return grid, params, SamplingSpec(), stepcfg, scenario, T


def _write_snapshots(outdir: Path, state) -> None:
    fields = outdir / "fields"
    fields.mkdir(parents=True, exist_ok=True)
    g = state.grid
    for name, data, kind in (("phi", state.phi.data, FIELD_KIND_CELL),
                             ("mu", state.mu.data, FIELD_KIND_CELL),
                             ("q", state.q.data, FIELD_KIND_CELL),
                             ("p", state.p.data, FIELD_KIND_CELL),
                             ("vx", state.v.ux, FIELD_KIND_XFACE),
                             ("vy", state.v.uy, FIELD_KIND_YFACE)):
        write_field_snapshot(fields / f"{name}_{state.k:06d}.bin", data,
                             g.nx, g.ny, kind, state.t, state.k)


def _json_safe(x):
    """``x`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def _write_failure_json(path, report) -> None:
    """The full report of a failed step (residual history included)."""
    path.write_text(json.dumps(_json_safe(dataclasses.asdict(report)),
                               indent=1, allow_nan=False) + "\n")


def _make_outdir(outdir: Path) -> None:
    """Create ``outdir`` and its parents before a command's work; a path
    that cannot be a directory is a validation error naming it."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {outdir}: cannot create the output "
                         f"directory ({exc.strerror})") from exc


def _cmd_print_config(values, outdir, args) -> int:
    sys.stdout.write(effective_config_text(values))
    return EXIT_OK


def _cmd_audit(values, outdir, args) -> int:
    _, params, sampling, _, _, _ = build_objects(values)
    cset = build_default_set(params)
    report = audit_assumptions(cset, params, sampling)
    _make_outdir(outdir)
    (outdir / "audit.txt").write_text(report.to_text() + "\n")
    (outdir / "audit.csv").write_text(report.to_csv())
    print(report.to_text())
    return EXIT_OK if report.passed else EXIT_AUDIT


def _cmd_selftest(values, outdir, args) -> int:
    _, params, sampling, _, _, _ = build_objects(values)
    ok = True
    for n in (16, 32):
        for bc in ("box", "periodic"):
            rep = sbp_selftest(Grid(n, n, 1.0, 1.0, bc))
            print(rep.to_text())
            ok &= rep.passed
    # linear-solver certification: the grid's pinned Poisson LU on a
    # manufactured potential (x[0] = 0, the pin)
    g = Grid(24, 24, 1.0, 1.0, "box")
    x_true = np.random.default_rng(1).standard_normal(g.n_cells)
    x_true[0] = 0.0
    x = gradient_potential(g, g.ops.G @ x_true)
    cert = float(np.abs(x - x_true).max())
    print(f"linear certification: pinned Poisson solve error {cert:.3e} "
          f"[{'pass' if cert < 1e-8 else 'FAIL'}]")
    ok &= cert < 1e-8
    # the sweeps draw seed 0's stream past its first n_faces + n_cells
    # normals: the samples, and so the minima printed, stay fixed
    rng = np.random.default_rng(0)
    rng.standard_normal(g.n_faces + g.n_cells)
    cset = build_default_set(params)
    pairs = rng.uniform(-2.0, 3.0, size=(100_000, 2))
    ineq = pointwise_step_inequalities(cset, pairs)
    print(f"pointwise inequalities: {ineq.n_pairs} pairs, "
          f"min slacks ({ineq.min_slack_f:.3e}, {ineq.min_slack_g:.3e}), "
          f"worst pair ({ineq.witness[0]:.6g}, {ineq.witness[1]:.6g}), "
          f"violations {ineq.violations} "
          f"[{'pass' if ineq.passed else 'FAIL'}]")
    ok &= ineq.passed
    a = rng.uniform(-4, 4, 50_000)
    b = a + rng.choice([0.0, 1e-12, -1e-9, 0.5, -2.0], 50_000)
    H = cset.secant_W(a, b)
    err = np.abs(H * (a - b) - (cset.W(a) - cset.W(b)))
    tol = 1e-14 * (1.0 + np.abs(cset.W(a)) + np.abs(cset.W(b)))
    hok = bool(np.all(err <= tol))
    print(f"secant identity: worst ratio {float(np.max(err / tol)):.3e} "
          f"[{'pass' if hok else 'FAIL'}]")
    ok &= hok
    audit = audit_assumptions(cset, params, sampling)
    print(f"constitutive audit: "
          f"[{'pass' if audit.passed else 'FAIL: ' + ','.join(audit.failed_ids())}]")
    ok &= audit.passed
    print("selftest:", "all checks passed" if ok else "FAILURES present")
    return EXIT_OK if ok else EXIT_AUDIT


def _audited_set(params, sampling):
    """The default constitutive set of ``params`` if it passes the audit that
    ``run`` and every study require; else None, the failed checks printed.
    The audit does not read delta, so it covers every member of a study."""
    cset = build_default_set(params)
    audit = audit_assumptions(cset, params, sampling)
    if audit.passed:
        return cset
    print("constitutive audit failed: " + ", ".join(audit.failed_ids()),
          file=sys.stderr)
    return None


def _cmd_run(values, outdir, args) -> int:
    grid, params, sampling, stepcfg, scenario, T = build_objects(values)
    cset = _audited_set(params, sampling)
    if cset is None:
        return EXIT_AUDIT
    _make_outdir(outdir)
    (outdir / "config.effective.ini").write_text(effective_config_text(values))
    if params.delta == 0.0:
        print("note: delta = 0 disables the regularization terms; the run is "
              "outside the regime the dissipative structure covers")
    state0 = initialize_scenario(scenario, grid, params, cset)
    snap_every = values["output"]["snapshot_every"]
    write_fields = values["output"]["write_fields"]
    callbacks = []
    if write_fields and snap_every > 0:
        callbacks.append(lambda s, rep, row:
                         _write_snapshots(outdir, s) if s.k % snap_every == 0
                         else None)
    try:
        result = run(state0, grid, cset, params, stepcfg, T,
                     callbacks=callbacks)
    except StepFailure as exc:
        write_ledger_csv(outdir / "ledger.csv", exc.partial.rows)
        _write_failure_json(outdir / "failure.json", exc.report)
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    write_ledger_csv(outdir / "ledger.csv", result.rows)
    if write_fields:
        _write_snapshots(outdir, result.final_state)
    if args.dump_operators:
        import scipy.io
        import scipy.sparse as sp

        from .stepper import assemble_linear
        lin = assemble_linear(state0, grid, cset, params, stepcfg)
        D, G = grid.ops.D, grid.ops.G
        opdir = outdir / "operators"
        opdir.mkdir(parents=True, exist_ok=True)
        for name, mat in (
                ("velocity_form", lin.A_form),
                ("q_diffusion", (D @ sp.diags(lin.m_faces) @ G).tocsr()),
                ("mu_diffusion", (D @ sp.diags(lin.mt_faces) @ G).tocsr()),
                ("phi_laplacian", params.epsilon * (D @ G).tocsr())):
            if mat is not None:
                mat = mat.copy()          # the form keeps explicit zeros
                mat.eliminate_zeros()
                scipy.io.mmwrite(str(opdir / f"{name}.mtx"), mat)
    last = result.rows[-1]
    _, violated = estimate_slack(
        result.rows, [rep.transport_defect for rep in result.reports],
        result.E0)
    n_steps = len(result.rows)
    ss_lus, cc_lus, newton, fill, restarts = (
        sum(getattr(rep, key) for rep in result.reports)
        for key in ("ss_lus", "cc_lus", "newton_iterations", "factor_fill",
                    "restarts"))
    print(f"run complete: {n_steps} steps to t={last.t:g}, "
          f"E_tot={last.E_tot:.9g}, phi_mass={last.phi_mass:.12g}, "
          f"max|div v|={max(r.div_inf for r in result.rows):.3e}, "
          f"energy-estimate violations: {int(violated.sum())}, "
          f"restarts {restarts}, "
          f"Stokes LUs/step {ss_lus / n_steps:.3g}, "
          f"J_CC LUs/step {cc_lus / n_steps:.3g}, Newton it./step "
          f"{newton / n_steps:.3g}, "
          f"fill/LU {fill / max(ss_lus + cc_lus, 1):.0f}")
    print(f"ledger: {outdir / 'ledger.csv'}")
    return EXIT_OK


def _cmd_study(kind):
    def cmd(values, outdir, args) -> int:
        grid, params, sampling, stepcfg, scenario, T = build_objects(values)
        if _audited_set(params, sampling) is None:
            return EXIT_AUDIT
        _make_outdir(outdir)
        setup = SimulationSetup(grid=grid, params=params, scenario=scenario,
                                stepcfg=stepcfg, T=T)
        if kind == "delta":
            rep = study_delta(setup, values["study"]["deltas"],
                              threads=args.threads)
        elif kind == "tau":
            rep = study_tau(setup, values["study"]["taus"],
                            threads=args.threads)
        else:
            rep = study_defect(setup, values["study"]["grids"],
                               threads=args.threads)
        (outdir / "config.effective.ini").write_text(effective_config_text(values))
        (outdir / "study.csv").write_text(rep.to_csv())
        print(rep.summary())
        return EXIT_OK if rep.passed else EXIT_SOLVER
    return cmd


_COMMANDS = {
    "run": _cmd_run,
    "audit": _cmd_audit,
    "selftest": _cmd_selftest,
    "study-delta": _cmd_study("delta"),
    "study-tau": _cmd_study("tau"),
    "study-defect": _cmd_study("defect"),
    "print-config": _cmd_print_config,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="surfflow",
        description="Energy-stable implicit simulator for two-phase flow "
                    "with a soluble surfactant")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", nargs="?", help="INI configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="concurrent runs inside studies")
    parser.add_argument("--dump-operators", action="store_true",
                        help="export assembled operator blocks (matrix market)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # argparse exits 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION

    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, not {args.threads}")
        values = parse_config(args.config) if args.config else default_config()
        return _COMMANDS[args.command](values, Path(args.out), args)
    except (ConfigError, ConstitutiveError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StepFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SolverFailure as exc:
        print(f"linear solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
