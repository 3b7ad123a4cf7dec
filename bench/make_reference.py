"""Regenerate bench/reference.json: the final energy and conservation
columns of every workload and scenario variant.

    python3 bench/make_reference.py [WORKLOAD ...]

Run it only when the scheme's results are meant to change; each entry is
one untraced run that has passed every check that needs no reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from run import (OUT_DIR, REFERENCE, ROOT, ledger_problems, read_ledger,
                 start_child)
from workloads import N_VARIANTS, REF_COLUMNS, WORKLOADS, make_config


def main(names) -> int:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entry = {}
        for variant in range(N_VARIANTS):
            rundir = OUT_DIR / "reference" / f"{name}-v{variant}"
            shutil.rmtree(rundir, ignore_errors=True)
            rundir.mkdir(parents=True)
            config = rundir / "config.ini"
            config.write_text(make_config(workload, variant, ROOT / "configs"))
            spec = {"src": str(ROOT / "src"), "config": str(config),
                    "outdir": str(rundir / "run"), "run_id": f"{name}-v{variant}",
                    "trace": False, "setup_only": False}
            res = start_child(spec, time.monotonic() + 600.0)
            if not res.get("ok"):
                print(f"{name} variant {variant}: {res.get('failure')}")
                return 1
            rows = read_ledger(rundir / "run" / "ledger.csv")
            problems = ledger_problems(res, rows, workload)
            if problems:
                print(f"{name} variant {variant}: {'; '.join(problems)}")
                return 1
            entry[str(variant)] = {"steps": len(rows),
                                   "final": {c: rows[-1][c] for c in REF_COLUMNS}}
            print(f"{name} variant {variant}: {len(rows)} steps, "
                  f"E_tot {rows[-1]['E_tot']!r}, run {res['run_s']:.2f} s")
        refs[name] = entry
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
