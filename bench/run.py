"""surfflow benchmark: time to horizon, per-step latency and memory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a surfflow checkout (``src/``, ``configs/``).  Each run
is a fresh child process (bench/child.py), one at a time: a closed loop with
a single client.  BLAS and OpenMP are pinned to one thread.  The parent only
orchestrates and checks; it imports neither numpy nor surfflow.

``--trace 0`` measures the end-to-end metrics: a few set-up-only runs (for
``setup_s``), then runs to the horizon until the next one would end after
``--seconds``, at least one.  ``--trace 1`` makes untraced runs for half the
budget, then one traced run, and reports the per-layer metrics.  Every run
to the horizon has its ledger checked (see ``check_run``); a run that raises
``StepFailure`` or fails a check counts in ``failed``.  End-to-end times are
in reference seconds (bench/probe.py): wall time over the host slowdown
measured next to it; the raw wall times are printed beside them.

The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
every metric with its unit for people.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (REF_COLUMNS, WORKLOADS, make_config,
                       reference_tolerance, variant_of)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_ONLY_RUNS = 5
TIME_LIMIT_S = 170.0          # whole invocation, kept under a 180 s limit

THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}

# acceptance criteria 6 and 7 bounds
MASS_DRIFT_MAX = 1e-10
SURF_DRIFT_MAX = 1e-8
DIV_MAX = 1e-9
SLACK_REL_MIN = -1e-8

TIMES = ("setup_s", "run_s", "step_ms_p50", "step_ms_p80")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "step_ms_p50": "ms",
                    "step_ms_p80": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _fixed_address_layout() -> None:
    """Start the child without address-space randomization.

    With randomized layouts the same run's peak RSS differs by up to 20%
    between runs (heap and mapping placement); a fixed layout makes it
    repeat.  Runs in the forked child before exec; failure leaves the
    default layout.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | 0x0040000)       # ADDR_NO_RANDOMIZE


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "threads": ",".join(f"{k}=1" for k in THREAD_ENV)}


def start_child(spec: dict, deadline: float) -> dict:
    """Run one child to completion; returns its result.json (or a failure)."""
    outdir = Path(spec["outdir"])
    outdir.mkdir(parents=True)
    spec_path = outdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path),
         repr(t_spawn)], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, preexec_fn=_fixed_address_layout)
    try:
        log, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "failure": "timed out", "wall_s": time.monotonic() - t_spawn}
    wall = time.monotonic() - t_spawn
    (outdir / "child.log").write_text(log)
    result_path = outdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = log.strip().splitlines()[-1:] or [""]
        return {"ok": False, "wall_s": wall,
                "failure": f"child exited {proc.returncode}: {tail[0]}"}
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall
    return result


def read_ledger(path: Path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def ledger_problems(result: dict, rows: list, workload) -> list:
    """Checks of one run to the horizon that need no reference."""
    bad = []
    T = result["T"]
    if not rows or abs(rows[-1]["t"] - T) > 1e-12 * max(T, 1.0):
        return ["horizon not reached"]
    if not result["converged"]:
        bad.append("a step did not converge")
    init = result["initial"]
    for col, bound in (("phi_mass", MASS_DRIFT_MAX), ("surf_total", SURF_DRIFT_MAX)):
        drift = max(abs(r[col] - init[col]) for r in rows) / abs(init[col])
        if drift > bound:
            bad.append(f"{col} drift {drift:.3e} > {bound:.0e}")
    div = max(r["div_inf"] for r in rows)
    if div > DIV_MAX:
        bad.append(f"max|div v| {div:.3e} > {DIV_MAX:.0e}")
    energies = [init["E_tot"]] + [r["E_tot"] for r in rows]
    if any(b > a for a, b in zip(energies, energies[1:])):
        bad.append("E_tot increased")
    if workload.transport_free:
        rel = min(r["slack"] / max(abs(e), 1.0) for r, e in zip(rows, energies))
        if rel < SLACK_REL_MIN:
            bad.append(f"relative slack {rel:.3e} < {SLACK_REL_MIN:.0e}")
    return bad


def reference_problems(result: dict, rows: list, reference) -> list:
    """Final energy and conservation columns against the stored reference."""
    if reference is None:
        return ["no stored reference for this workload and variant"]
    if len(rows) != reference["steps"]:
        return [f"{len(rows)} steps, reference has {reference['steps']}"]
    bad = []
    for col in REF_COLUMNS:
        ref = reference["final"][col]
        tol = reference_tolerance(result["tol_nl"], reference["steps"], ref)
        if abs(rows[-1][col] - ref) > tol:
            bad.append(f"final {col} {rows[-1][col]!r} differs from "
                       f"reference {ref!r} by more than {tol:.1e}")
    return bad


def check_run(result: dict, ledger_path: Path, workload, reference) -> list:
    """Output checks of one run to the horizon; returns the failures."""
    if not result.get("ok"):
        return [result.get("failure") or "run failed"]
    rows = read_ledger(ledger_path)
    return ledger_problems(result, rows, workload) \
        + reference_problems(result, rows, reference)


def fingerprint(result: dict, ledger_path: Path) -> str:
    """Ledger bytes and per-step counters; equal for equal workload, seed
    and program."""
    h = hashlib.sha256(ledger_path.read_bytes())
    h.update(json.dumps(result.get("counters"), sort_keys=True).encode())
    return h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    deadline = t0 + TIME_LIMIT_S

    if not (ROOT / "src" / "surfflow" / "__init__.py").is_file():
        raise BenchError(f"no surfflow sources under {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    variant = variant_of(args.seed)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = refs.get(workload.name, {}).get(str(variant))
    config_text = make_config(workload, args.seed, ROOT / "configs")

    run_root = OUT_DIR / "runs" / f"{workload.name}-s{args.seed}"
    shutil.rmtree(run_root, ignore_errors=True)
    run_root.mkdir(parents=True)
    config_path = run_root / "config.ini"
    config_path.write_text(config_text)

    env = environment()
    print(f"workload {workload.name} seed {args.seed} (variant {variant}), "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"setup: nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={env['python']} pinned {env['threads']}")

    n_child = 0

    def child(mode: str) -> dict:
        nonlocal n_child
        n_child += 1
        run_id = f"{workload.name}-s{args.seed}-{n_child:02d}-{mode}"
        spec = {"src": str(ROOT / "src"), "config": str(config_path),
                "outdir": str(run_root / run_id), "run_id": run_id,
                "trace": mode == "traced", "setup_only": mode == "setup"}
        res = start_child(spec, deadline)
        res["outdir"] = spec["outdir"]
        return res

    setups = []
    if not args.trace:
        for _ in range(SETUP_ONLY_RUNS):
            res = child("setup")
            if not res.get("ok"):
                raise BenchError(f"set-up failed: {res.get('failure')}")
            setups.append(res)

    budget = args.seconds / 2 if args.trace else args.seconds
    runs = []
    while True:
        res = child("run")
        runs.append(res)
        typical = statistics.median(r["wall_s"] for r in runs)
        now = time.monotonic()
        if now - t0 + typical > budget or now + 2 * typical > deadline:
            break
    traced = child("traced") if args.trace else None

    # output checks, and identical ledgers and counters for identical inputs
    known_path = OUT_DIR / "fingerprints.json"
    known = json.loads(known_path.read_text()) if known_path.is_file() else {}
    key = f"{workload.name}:v{variant}:{source_digest()}"
    failed = 0
    for res in runs + ([traced] if traced else []):
        ledger = Path(res["outdir"]) / "ledger.csv"
        problems = check_run(res, ledger, workload, reference)
        if not problems:
            fp = fingerprint(res, ledger)
            if known.setdefault(key, fp) != fp:
                problems.append("ledger.csv or step counters differ from an "
                                "earlier run of the same workload and seed")
        res["problems"] = problems
        failed += bool(problems)
    known_path.write_text(json.dumps(known, indent=1, sort_keys=True))

    for i, res in enumerate(runs + ([traced] if traced else []), 1):
        kind = "traced" if res is traced else "run"
        status = "ok" if not res["problems"] else "FAILED: " + "; ".join(res["problems"])
        timing = (f"setup {res['setup_s']:.3f} s, run {res['run_s']:.3f} s "
                  f"({res.get('run_ref_s', res['run_s']):.3f} reference s), "
                  f"{len(res['step_s'])} steps, peak rss {res['peak_rss_mb']:.1f} MB"
                  if "run_s" in res else f"{res.get('wall_s', 0.0):.1f} s")
        print(f"{kind} {i}: {timing}: {status}")

    # timings come from runs that reached the horizon, unless none did
    done = [r for r in runs if r.get("ok")] or [r for r in runs if "run_s" in r]
    if not done:
        raise BenchError("no run reached the end of its horizon")
    setups += done
    e2e = end_to_end(setups, done, "_ref_s")
    wall = end_to_end(setups, done, "_s")
    n_steps = sum(len(r["step_s"]) for r in done)
    attempted = len(runs) + (1 if traced else 0)
    samples = {"setup_s": f"median of {len(setups)} set-ups",
               "run_s": f"median of {len(done)} runs",
               "step_ms_p50": f"median of {n_steps} steps",
               "step_ms_p80": f"80th percentile of {n_steps} steps",
               "peak_rss_mb": f"median of {len(done)} runs"}
    print("times in reference seconds (see bench/probe.py), raw wall time after them")
    for name, value in e2e.items():
        unit = END_TO_END_UNITS[name]
        raw = f"wall {wall[name]:.4f} {unit}, " if name in TIMES else ""
        print(f"{name:<14} {value:12.4f} {unit:<5} ({raw}{samples[name]})")
    print(f"{'failed_share':<14} {failed / attempted:12.4f} {'1':<5} "
          f"({failed} of {attempted} runs failed)")

    if args.trace:
        metrics = layer_metrics(traced, wall["run_s"])
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(setups: list, done: list, kind: str) -> dict:
    """End-to-end metrics from the children's results; ``kind`` "_ref_s"
    takes the times in reference seconds, "_s" the raw wall times."""
    steps_ms = [1000.0 * s for r in done for s in r["step" + kind]]
    return {
        "setup_s": statistics.median(r["setup" + kind] for r in setups),
        "run_s": statistics.median(r["run" + kind] for r in done),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p80": quantile(steps_ms, 0.8),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }


def layer_metrics(traced: dict, untraced_run_s: float) -> dict:
    if "layers" not in traced:
        raise BenchError(f"traced run failed: {traced.get('failure')}")
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = layers["trace.run_s"] / untraced_run_s - 1.0
    for layer in traced.get("absent", []):
        print(f"layer {layer}: absent (wrapped name not found), its time and "
              "calls read 0")
    print(f"trace: layer self times {traced['layer_sum_s']:.6f} s "
          f"(unattributed {layers['trace.unattributed_s']:.6f} s) "
          f"against traced run_s {layers['trace.run_s']:.6f} s")
    print("fill nnz: L+U nonzeros as counted by SuperLU (computed, not measured memory)")
    metrics = {}
    for name, value in sorted(layers.items()):
        unit = layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<36} {value:16.6f} {unit}")
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_nnz"):
        return "nnz"
    if name.endswith(("_ratio", "_share", "_per_factor")):
        return "ratio"
    return "1/step"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
