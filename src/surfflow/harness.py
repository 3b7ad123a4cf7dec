"""Scenario runner and continuation studies.

Three studies probe the scheme's limiting behavior numerically:

  * study_delta: fixed grid and step size, decreasing regularization
    strengths; reports Cauchy differences of the final order parameter.
  * study_tau: decreasing step sizes to a common horizon; reports Richardson
    ratios (the implicit Euler backbone gives ratio ~2 under halving) and
    checks the energy-estimate slack for every run.
  * study_defect: grid refinement of a smooth coupled scenario; fits the
    decay order of the per-step transport energy defect.

Runs inside a study are independent and may execute concurrently; report
assembly is serialized and deterministic.  A run of the base setup in the
study's effective config with the list entry a member's label names
reproduces that member; the config hash only identifies the base setup.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .constitutive import ModelParams, build_default_set
from .energy import estimate_slack
from .mesh import Grid
from .state import ScenarioConfig, initialize_scenario
from .stepper import RunResult, StepConfig, run

__all__ = ["SimulationSetup", "StudyReport", "study_delta", "study_tau",
           "study_defect"]

# a largest per-step transport defect at or below this counts as absent
DEFECT_FLOOR = 1e-13


@dataclass(frozen=True)
class SimulationSetup:
    """Everything needed to reproduce one run."""

    grid: Grid
    params: ModelParams
    scenario: ScenarioConfig
    stepcfg: StepConfig
    T: float

    def execute(self) -> RunResult:
        cset = build_default_set(self.params)
        state0 = initialize_scenario(self.scenario, self.grid, self.params, cset)
        return run(state0, self.grid, cset, self.params, self.stepcfg, self.T)

    def fingerprint(self) -> str:
        text = repr((self.grid, self.params, self.scenario, self.stepcfg, self.T))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class StudyReport:
    kind: str
    config_hash: str
    labels: list = field(default_factory=list)     # one per run
    rows: list = field(default_factory=list)       # per-run summary dicts
    diffs: list = field(default_factory=list)      # pairwise differences
    ratios: list = field(default_factory=list)
    order: Optional[float] = None
    monotone: Optional[bool] = None
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"study {self.kind} (config {self.config_hash})"]
        for lab, row in zip(self.labels, self.rows):
            items = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in row.items())
            lines.append(f"  {lab}: {items}")
        if self.diffs:
            lines.append("  differences: " + ", ".join(f"{d:.6e}" for d in self.diffs))
        if self.ratios:
            lines.append("  ratios: " + ", ".join(f"{r:.3f}" for r in self.ratios))
        if self.order is not None:
            lines.append(f"  fitted decay order: {self.order:.3f}")
        if self.monotone is not None:
            lines.append(f"  monotone decrease: {self.monotone}")
        if self.failures:
            lines.append("  FAILURES: " + "; ".join(self.failures))
        return "\n".join(lines)

    def to_csv(self) -> str:
        if not self.rows:
            return f"# study {self.kind} {self.config_hash}\n"
        # a failed run's row has none of a finished run's keys
        keys = list(dict.fromkeys(k for row in self.rows for k in row))
        out = [f"# study {self.kind} config_hash={self.config_hash}",
               ",".join(["label"] + keys)]
        for lab, row in zip(self.labels, self.rows):
            vals = [row.get(k, "") for k in keys]
            out.append(",".join([str(lab)] + ["%.17g" % v if isinstance(v, float)
                                              else str(v) for v in vals]))
        return "\n".join(out) + "\n"


def _l2(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.sqrt((d @ d) * grid.dV))


def _execute_all(setups, threads: int):
    """Run all setups, preserving order; exceptions recorded not raised."""
    def job(s):
        try:
            return s.execute()
        except Exception as exc:   # noqa: BLE001 - reported
            return exc
    if threads <= 1:
        return [job(s) for s in setups]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(job, setups))


def _continuation(base: SimulationSetup, kind: str, values, vary, threads: int,
                  check_slack: bool = False) -> StudyReport:
    """Runs ``vary(value)`` for at least three strictly descending values and
    reports the L2 differences of the final order parameter between
    consecutive runs; with ``check_slack`` a run that violates the one-step
    energy estimate (``energy.estimate_slack``) is a failure."""
    values = [float(x) for x in values]
    if len(values) < 3:
        raise ValueError(f"{kind} continuation needs at least 3 values for a ratio")
    if any(x2 >= x1 for x1, x2 in zip(values, values[1:])):
        raise ValueError(f"{kind} list must be strictly descending")
    results = _execute_all([vary(x) for x in values], threads)
    rep = StudyReport(kind=kind, config_hash=base.fingerprint())
    finals = []
    for x, res in zip(values, results):
        label = f"{kind}={x:g}"
        rep.labels.append(label)
        if isinstance(res, Exception):
            rep.failures.append(f"{label}: {res}")
            rep.rows.append({"failed": 1})
            finals.append(None)
            continue
        rel_slack, violated = estimate_slack(
            res.rows, [r.transport_defect for r in res.reports], res.E0)
        worst = float(rel_slack.min())
        rep.rows.append({"E_final": res.rows[-1].E_tot,
                         "min_rel_estimate_slack": worst,
                         "steps": len(res.rows)})
        if check_slack and violated.any():
            rep.failures.append(f"{label}: relative energy-estimate slack "
                                f"{worst:.3e} below tolerance")
        finals.append(res.final_state.phi.data)
    if all(f is not None for f in finals):
        rep.diffs = [_l2(base.grid, finals[i], finals[i + 1])
                     for i in range(len(finals) - 1)]
        rep.ratios = [rep.diffs[i] / rep.diffs[i + 1]
                      if rep.diffs[i + 1] > 0 else np.inf
                      for i in range(len(rep.diffs) - 1)]
        rep.monotone = all(d1 >= d2 or d1 < 1e-14
                           for d1, d2 in zip(rep.diffs, rep.diffs[1:]))
    return rep


def study_delta(base: SimulationSetup, deltas, threads: int = 1) -> StudyReport:
    """Cauchy continuation in the regularization strength; expects the
    differences to decrease monotonically."""
    return _continuation(
        base, "delta", deltas,
        lambda d: replace(base, params=replace(base.params, delta=d)), threads)


def study_tau(base: SimulationSetup, taus, threads: int = 1) -> StudyReport:
    """Step-size refinement to a common horizon with slack verification."""
    return _continuation(
        base, "tau", taus,
        lambda t: replace(base, stepcfg=replace(base.stepcfg, tau=t)), threads,
        check_slack=True)


def study_defect(base: SimulationSetup, grid_sizes,
                 threads: int = 1) -> StudyReport:
    """Grid refinement of the per-step transport energy defect.

    The defect is the measured residual of the transport/Marangoni
    cancellation (zero in the continuum and in the transport-free mode);
    its maximum over the run is fitted against the grid spacing.
    """
    sizes = [int(n) for n in grid_sizes]
    if len(sizes) < 2:
        raise ValueError("defect study needs at least 2 grids")
    if any(n2 <= n1 for n1, n2 in zip(sizes, sizes[1:])):
        raise ValueError("grid list must be strictly refining")
    setups = [replace(base, grid=Grid(n, n, base.grid.lx, base.grid.ly,
                                      base.grid.bc)) for n in sizes]
    results = _execute_all(setups, threads)
    rep = StudyReport(kind="defect", config_hash=base.fingerprint())
    metrics = []
    dxs = []
    for n, res in zip(sizes, results):
        rep.labels.append(f"grid={n}x{n}")
        if isinstance(res, Exception):
            rep.failures.append(f"grid={n}: {res}")
            rep.rows.append({"failed": 1})
            continue
        defect = max((abs(rep.transport_defect) for rep in res.reports),
                     default=0.0)
        rel_slack, _ = estimate_slack(res.rows, 0.0, res.E0)
        E = np.array([res.E0] + [r.E_tot for r in res.rows])
        neg_slack = max(0.0, -min(r.slack for r in res.rows))
        rep.rows.append({"dx": base.grid.lx / n, "defect_max": defect,
                         "neg_slack": neg_slack,
                         "min_rel_slack": float(rel_slack.min()),
                         "E_final": res.rows[-1].E_tot,
                         "E_monotone": int(bool(np.all(E[:-1] >= E[1:] - 1e-12))),
                         "steps": len(res.rows)})
        metrics.append(defect)
        dxs.append(base.grid.lx / n)
    if len(metrics) == len(sizes):
        if max(metrics) <= DEFECT_FLOOR:
            rep.order = float("inf")     # defect absent (e.g. transport off)
        else:
            m = np.maximum(metrics, DEFECT_FLOOR)
            rep.order = float(np.polyfit(np.log(dxs), np.log(m), 1)[0])
    return rep
