"""The benchmark's traced layers and step counters still name surfflow
functions and report fields, and its measured child still runs.

``bench/spans.py`` wraps the functions listed in its ``FUNCTION_LAYERS``
where the stepper looks them up at call time.  A name that a refactor
removes is skipped there and reported only as an absent layer of a traced
run, so these checks keep the list and the package in step.
``bench/child.py`` drives the package as ``surfflow run`` does (the
objects ``cli.build_objects`` returns, the audit, ``run``'s callbacks, the
state's fields); a short run of it, untraced and traced, keeps that in
step too.
"""

import ast
import configparser
import dataclasses
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from surfflow.mesh import Grid
from surfflow.state import ScenarioConfig, initialize_scenario
from surfflow.stepper import StepConfig, StepReport, run

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"
CHILD = BENCH / "child.py"

# names removed from the package while the benchmark was frozen; they go
# from FUNCTION_LAYERS with its next change
KNOWN_STALE = {
    ("surfflow.stepper", "_residual_vector"),
    ("surfflow.stepper", "convect_matrix"),
    ("surfflow.stepper", "convect_flux_jacobian"),
    ("surfflow.linalg", "SaddleSolver.__init__"),
    ("surfflow.linalg", "SaddleSolver.solve"),
    ("surfflow.linalg", "MeanPoissonSolver.__init__"),
    ("surfflow.linalg", "MeanPoissonSolver.solve"),
}


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = _spans()
    absent = {(module, dotted) for module, dotted, _ in spans.FUNCTION_LAYERS
              if spans._resolve(module, dotted) is None}
    assert absent <= KNOWN_STALE, sorted(absent - KNOWN_STALE)


def test_step_counters_name_report_fields():
    # bench/child.py reads each counter with getattr(report, attr, 0): a
    # renamed StepReport field would read zero instead of failing
    tree = ast.parse(CHILD.read_text())
    counters = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "STEP_COUNTERS"
                for t in node.targets))
    fields = {f.name for f in dataclasses.fields(StepReport)}
    assert counters and set(counters.values()) <= fields, \
        sorted(set(counters.values()) - fields)


def test_traced_coupled_run_charges_every_layer(cset, params):
    # a wrapped name that still resolves but is no longer called through
    # the wrapped attribute (the transport defect, say) would read zero
    spans = _spans()
    tracer = spans.Tracer("test")
    inst = spans.Instrumentation(tracer).install()
    try:
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="shear-droplet", q0=0.1,
                                                shear=0.5), g, params, cset)
        run(s0, g, cset, params, StepConfig(tau=1e-3), T=2e-3)
    finally:
        inst.restore()
    expected = {name.split("/")[0]
                for module, dotted, name in spans.FUNCTION_LAYERS
                if (module, dotted) not in KNOWN_STALE}
    seen = {sp.layer for sp in tracer.spans}
    assert expected <= seen, sorted(expected - seen)


def test_traced_v0_run_charges_every_v0_layer(cset, params):
    # the v0 benchmark workload (relax-v0-32) reaches a subset of the
    # layers: no convection and no transport defect without flow
    spans = _spans()
    tracer = spans.Tracer("test")
    inst = spans.Instrumentation(tracer).install()
    try:
        g = Grid(8, 8)
        s0 = initialize_scenario(ScenarioConfig(name="droplet", q0=0.1), g,
                                 params, cset)
        run(s0, g, cset, params, StepConfig(tau=1e-3, v0_mode=True), T=2e-3)
    finally:
        inst.restore()
    seen = {sp.layer for sp in tracer.spans}
    assert {"stepper.step", "stepper.assemble_linear", "stepper.terms",
            "stepper.jacobian", "energy.audit"} <= seen, sorted(seen)
    assert not seen & {"mesh.convect", "stepper.transport_defect"}, \
        sorted(seen)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_child_runs_a_short_coupled_config(tmp_path, trace):
    # the shipped shear-droplet config cut to 2 steps on 8 x 8, with a
    # field snapshot after each, as bench/run.py hands it to a fresh child
    cp = configparser.ConfigParser()
    cp.read(ROOT / "configs" / "shear-droplet.ini")
    cp["grid"].update(nx="8", ny="8")
    cp["output"].update(t_final="2e-3", write_fields="true",
                        snapshot_every="1")
    config = tmp_path / "config.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    outdir = tmp_path / "out"
    outdir.mkdir()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"), "config": str(config),
        "outdir": str(outdir), "run_id": "smoke", "trace": trace,
        "setup_only": False}))
    proc = subprocess.run([sys.executable, str(CHILD), str(spec),
                           repr(time.monotonic())], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads((outdir / "result.json").read_text())
    assert result["ok"], result["failure"]
    assert len(result["step_s"]) == 2
    ledger = (outdir / "ledger.csv").read_text().splitlines()
    assert len(ledger) == 3                  # the header and two rows
    assert len(list((outdir / "fields").iterdir())) == 2 * 6
    if trace:
        stale = {f"({module}.{dotted})" for module, dotted in KNOWN_STALE}
        unknown = [name for name in result["absent"]
                   if name.split(" ", 1)[-1] not in stale]
        assert not unknown, unknown
