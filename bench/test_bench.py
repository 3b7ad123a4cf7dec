"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from run import ROOT, start_child
from spans import (FUNCTION_LAYERS, Instrumentation, Span, Tracer,
                   layer_totals, self_times, subtree)
from workloads import WORKLOADS, make_config


def _span(id, name, start, end, parent):
    return Span(id, name, start, end, parent, "synthetic")


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        _span(0, "run", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "a/detail", 2.0, 3.0, 1),
        _span(3, "b", 3.5, 6.0, 0),      # overlaps a: the overlap counts once
        _span(4, "c", 9.0, 12.0, 0),     # overhangs the root: clipped at 10
        _span(5, "other", 20.0, 21.0, None),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 1.0)   # covered: [1, 6], [9, 10]
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(2.5)
    assert st[4] == pytest.approx(3.0)

    tree = subtree(spans, 0)
    assert [s.id for s in tree] == [0, 1, 2, 3, 4]
    seconds, calls = layer_totals(tree)
    assert seconds["a"] == pytest.approx(3.0)          # a and a/detail
    assert calls["a"] == 1 and calls["run"] == 1


def test_nested_spans_sum_to_the_root():
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    with tracer.span("run") as root:
        for _ in range(3):
            with tracer.span("step"):
                with tracer.span("factor"):
                    pass
                with tracer.span("step/residual"):
                    pass
    seconds, calls = layer_totals(subtree(tracer.spans, root.id))
    assert sum(seconds.values()) == pytest.approx(root.end - root.start)
    assert calls == {"run": 1, "step": 3, "factor": 3}


def test_missing_wrapped_name_is_reported_absent():
    sys.path.insert(0, str(ROOT / "src"))
    from surfflow import stepper
    original = stepper.step
    layers = FUNCTION_LAYERS + (
        ("surfflow.stepper", "no_such_function", "stepper.gone"),
        ("surfflow.stepper", "NoSuchClass.method", "stepper.gone_too"),
        ("no_such_module", "f", "elsewhere.gone"),
    )
    inst = Instrumentation(Tracer("t")).install(layers)
    try:
        assert stepper.step is not original
        assert inst.absent == [
            "stepper.gone (surfflow.stepper.no_such_function)",
            "stepper.gone_too (surfflow.stepper.NoSuchClass.method)",
            "elsewhere.gone (no_such_module.f)"]
    finally:
        inst.restore()
    assert stepper.step is original


@pytest.mark.parametrize("name, t_final", [("relax-v0-32", "0.003"),
                                           ("shear-droplet-32", "0.002")])
def test_benchmark_run_writes_the_ledger_surfflow_run_writes(tmp_path, name, t_final):
    config = tmp_path / "config.ini"
    config.write_text(make_config(WORKLOADS[name], 5, ROOT / "configs", t_final))
    spec = {"src": str(ROOT / "src"), "config": str(config),
            "outdir": str(tmp_path / "bench"), "run_id": "test",
            "trace": False, "setup_only": False}
    result = start_child(spec, time.monotonic() + 120.0)
    assert result["ok"], result.get("failure")
    # every step has its time in reference seconds, and they add up to run_s
    assert len(result["step_ref_s"]) == len(result["step_s"]) > 0
    assert all(f > 0 for f in result["step_slowdown"])
    rest = result["run_s"] - sum(result["step_s"])
    assert result["run_ref_s"] == pytest.approx(
        sum(result["step_ref_s"]) + rest / result["step_slowdown"][-1])

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "surfflow.cli", "run", str(config),
                    "--out", str(tmp_path / "cli")], env=env, check=True,
                   capture_output=True, timeout=120)
    bench_ledger = (tmp_path / "bench" / "ledger.csv").read_bytes()
    assert bench_ledger == (tmp_path / "cli" / "ledger.csv").read_bytes()
    assert len(bench_ledger.splitlines()) == 1 + round(float(t_final) / 1e-3)
