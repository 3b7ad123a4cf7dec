"""One measured surfflow run in a fresh process, started by run.py.

    python3 bench/child.py SPEC_JSON SPAWN_TIME

SPEC_JSON names the generated config, the output directory and the mode;
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start and imports.  The child
drives the same calls as ``surfflow run``, stamps every accepted step from a
run callback and writes ``result.json`` (and ``spans.jsonl``) into the output
directory.  Output correctness is checked by the parent from ``ledger.csv``.

An untraced child also times the calibration kernel (probe.py) after set-up
and after every step, outside the timed intervals, and reports each interval
in reference seconds next to its raw wall time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from probe import Probe
from spans import Instrumentation, Tracer, layer_totals, subtree

SETUP_PROBE_PASSES = 20

# StepReport counters summed per step; read with defaults so that a renamed
# or removed counter reads 0 instead of failing the run
STEP_COUNTERS = {"nl_iters": "iterations", "newton_iters": "newton_iterations",
                 "rejected": "rejected", "backoffs": "backoffs",
                 "linear_solves": "linear_solves"}


def _snapshot_writer(outdir: Path, every: int):
    """The field snapshots ``surfflow run --snapshot-every`` writes."""
    from surfflow.mesh import (FIELD_KIND_CELL, FIELD_KIND_XFACE,
                               FIELD_KIND_YFACE, write_field_snapshot)
    fields = outdir / "fields"
    fields.mkdir(parents=True, exist_ok=True)

    def write(s, rep, row):
        if s.k % every:
            return
        g = s.grid
        for name, data, kind in (("phi", s.phi.data, FIELD_KIND_CELL),
                                 ("mu", s.mu.data, FIELD_KIND_CELL),
                                 ("q", s.q.data, FIELD_KIND_CELL),
                                 ("p", s.p.data, FIELD_KIND_CELL),
                                 ("vx", s.v.ux, FIELD_KIND_XFACE),
                                 ("vy", s.v.uy, FIELD_KIND_YFACE)):
            write_field_snapshot(fields / f"{name}_{s.k:06d}.bin", data,
                                 g.nx, g.ny, kind, s.t, s.k)
    return write


def _layer_metrics(tracer: Tracer, root, setup_spans, steps: int,
                     counters: dict):
    """Per-layer metrics of a traced run (times in s over the run, counts
    per accepted step) and the sum of all self times under ``root``."""
    seconds, calls = layer_totals(subtree(tracer.spans, root.id))
    n = max(steps, 1)
    out = {}
    for layer in ("stepper.newton_factor", "stepper.krylov", "linalg.factor",
                  "linalg.solve", "stepper.terms", "constitutive.eval",
                  "stepper.jacobian", "mesh.convect", "stepper.newton_solve"):
        out[f"{layer}_s"] = seconds.get(layer, 0.0)
        out[f"{layer}_calls"] = calls[layer] / n
    for layer in ("stepper.assemble_linear", "energy.audit",
                  "stepper.transport_defect", "energy.ledger_write",
                  "mesh.snapshot_write", "linalg.init"):
        out[f"{layer}_s"] = seconds.get(layer, 0.0)
    out["stepper.step_self_s"] = seconds.get("stepper.step", 0.0)
    out["trace.unattributed_s"] = seconds.get("run", 0.0)
    for layer in ("stepper.newton_factor", "linalg.factor"):
        k = tracer.fill_factors[layer]
        out[f"{layer}_fill_nnz"] = tracer.fill_nnz[layer] / k if k else 0.0
    for key, total in counters.items():
        out[f"stepper.{key}"] = total / n
    nf = calls["stepper.newton_factor"]
    out["stepper.newton_per_factor"] = counters["newton_iters"] / nf if nf else 0.0
    trials = counters["nl_iters"] + counters["rejected"]
    out["stepper.trial_accept_ratio"] = counters["nl_iters"] / trials if trials else 0.0
    for sp in setup_spans:
        out[f"{sp.name}_s"] = sp.end - sp.start
    return out, sum(seconds.values())


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    t_spawn = float(argv[2])
    outdir = Path(spec["outdir"])
    sys.path.insert(0, spec["src"])
    tracer = Tracer(spec["run_id"], clock=time.monotonic)
    result = {"ok": False, "failure": None}

    with tracer.span("surfflow.import") as s_import:
        from surfflow import cli, constitutive, energy, state, stepper
    with tracer.span("cli.config") as s_config:
        values = cli.parse_config(spec["config"])
        grid, params, sampling, stepcfg, scenario, T = cli.build_objects(values)
    with tracer.span("constitutive.audit") as s_audit:
        cset = constitutive.build_default_set(params)
        audit = constitutive.audit_assumptions(cset, params, sampling)
    with tracer.span("mesh.ops_build") as s_ops:
        grid.ops
    with tracer.span("state.init") as s_init:
        state0 = state.initialize_scenario(scenario, grid, params, cset)
    t_first = time.monotonic()
    result["setup_s"] = t_first - t_spawn
    probe = None if spec["trace"] else Probe()
    if probe:
        result["setup_ref_s"] = result["setup_s"] / probe.slowdown(SETUP_PROBE_PASSES)
    result["tol_nl"] = stepcfg.tol_nl
    result["T"] = T
    if not audit.passed:
        result["failure"] = "constitutive audit failed: " + ", ".join(audit.failed_ids())
    if spec["setup_only"] or not audit.passed:
        result["ok"] = audit.passed
        (outdir / "result.json").write_text(json.dumps(result))
        return 0

    absent = []
    run_cset = cset
    if spec["trace"]:
        inst = Instrumentation(tracer).install()
        run_cset = inst.traced_cset(cset)
        absent = inst.absent
    spans_s = []              # (start, end, resume) of each accepted step
    slowdowns = []            # probe slowdown measured right after each step
    reports = []
    callbacks = []
    out = values["output"]
    if out["write_fields"] and out["snapshot_every"] > 0:
        callbacks.append(tracer.wrap(_snapshot_writer(outdir, out["snapshot_every"]),
                                     "mesh.snapshot_write"))

    def stamp(s, rep, row):
        end = time.monotonic()
        reports.append(rep)
        start = spans_s[-1][2] if spans_s else t_run
        if probe:
            slowdowns.append(probe.slowdown_after_step(end - start))
        spans_s.append((start, end, time.monotonic()))
    callbacks.append(stamp)

    t_run = time.monotonic()
    with tracer.span("run") as root:
        try:
            res = stepper.run(state0, grid, run_cset, params, stepcfg, T,
                              callbacks=callbacks)
        except stepper.StepFailure as exc:
            res = exc.partial
            result["failure"] = f"StepFailure: {exc}"
        with tracer.span("energy.ledger_write"):
            energy.write_ledger_csv(outdir / "ledger.csv", res.rows)
    t_end = time.monotonic()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_s = sum(resume - end for _, end, resume in spans_s)
    result["run_s"] = t_end - t_run - probe_s
    result["step_s"] = [end - start for start, end, _ in spans_s]
    if probe:
        result["step_slowdown"] = slowdowns
        result["step_ref_s"] = [s / f for s, f in zip(result["step_s"], slowdowns)]
        rest = result["run_s"] - sum(result["step_s"])   # ledger write, entry
        last = slowdowns[-1] if slowdowns else probe.slowdown()
        result["run_ref_s"] = sum(result["step_ref_s"]) + rest / last
    result["converged"] = all(getattr(r, "converged", True) for r in reports)
    counters = {key: [int(getattr(r, attr, 0)) for r in reports]
                for key, attr in STEP_COUNTERS.items()}
    result["counters"] = counters
    obs = state.observables(state0, cset, params)
    result["initial"] = {
        "E_tot": energy.total_energy(state0, cset, params).E_tot,
        "phi_mass": obs.phi_mass, "surf_total": obs.surf_total}
    if spec["trace"]:
        steps = len(res.rows)
        layers, result["layer_sum_s"] = _layer_metrics(
            tracer, root, (s_import, s_config, s_audit, s_ops, s_init), steps,
            {k: sum(v) for k, v in counters.items()})
        layers["trace.run_s"] = root.end - root.start
        layers["energy.ledger_bytes"] = os.path.getsize(outdir / "ledger.csv")
        fields = outdir / "fields"
        layers["mesh.snapshot_bytes"] = sum(
            p.stat().st_size for p in fields.iterdir()) if fields.is_dir() else 0
        result["layers"] = layers
        result["absent"] = absent
    tracer.write_jsonl(outdir / "spans.jsonl")
    result["ok"] = result["failure"] is None
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
