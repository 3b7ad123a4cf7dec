"""The benchmark's workloads and the configs it generates from a seed.

Each workload is a shipped config plus the overrides that make it a
benchmark input: the grid, the horizon and, for ``relax-v0-32``, periodic
field snapshots.  The seed selects one of ``N_VARIANTS`` scenario variants;
variant 0 (seeds 0, 8, 16, ...) keeps the shipped scenario, the others move
the droplet centre by at most ``CENTER_BAND`` and scale the surfactant-blob
amplitude by at most ``1 +- AMP_BAND``.  The band is small so that every
variant does the same kind of work; the finite set lets every variant have a
stored reference.

No generated config sets a stepper key: the solver settings are the
program's defaults (``tol_nl = 1e-10``).
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass, field

N_VARIANTS = 8
CENTER_BAND = 0.002
AMP_BAND = 0.005

# scenario defaults of the config schema, for shipped configs that omit them
_SCENARIO_DEFAULTS = {"center_x": 0.5, "center_y": 0.5, "q_amp": 0.5}

# accepted final energy/conservation values may differ from the stored
# reference by REF_TOL_FACTOR * tol_nl * steps * max(1, |reference|): each
# accepted step leaves a scaled residual of at most tol_nl, the scaling
# divides by 1 + the largest term norm (at most ~100 on these grids), and
# step errors add at most linearly over the horizon
REF_TOL_FACTOR = 100.0
REF_COLUMNS = ("E_kin", "E_grad", "E_surf", "E_bulk", "E_tot",
               "phi_mass", "surf_total")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                    # shipped config under configs/
    why: str
    overrides: dict = field(default_factory=dict)
    transport_free: bool = False   # the slack check is exact to tolerance


WORKLOADS = {w.name: w for w in (
    Workload(
        "relax-v0-32", "relaxation-v0.ini",
        "cheapest step, transport-free 3-block Jacobian (n=3072) with field "
        "snapshots every 10 steps: residuals, frozen-block assembly and "
        "per-step writes carry their largest share",
        {"output": {"t_final": "0.1", "write_fields": "true",
                    "snapshot_every": "10"}},
        transport_free=True),
    Workload(
        "shear-droplet-32", "shear-droplet.ini",
        "coupled 5-block saddle Jacobian (n=6080), ~3 LU factors per step "
        "with SuperLU most of the step; transport defect and a projection "
        "in setup",
        {"output": {"t_final": "0.01"}}),
    Workload(
        "droplet-64", "droplet.ini",
        "fill-bound LU at 64^2 (n=24448, ~13.6M L+U nonzeros, seconds per "
        "factor): where scaling shows and the memory of a kept LU",
        {"grid": {"nx": "64", "ny": "64"}, "output": {"t_final": "0.001"}}),
)}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def scenario_shift(variant: int) -> dict:
    """Centre shift (dx, dy) and blob-amplitude factor of a variant > 0."""
    rng = random.Random(variant)
    return {"dx": rng.uniform(-CENTER_BAND, CENTER_BAND),
            "dy": rng.uniform(-CENTER_BAND, CENTER_BAND),
            "amp": 1.0 + rng.uniform(-AMP_BAND, AMP_BAND)}


def make_config(workload: Workload, seed: int, configs_dir,
                t_final: str | None = None) -> str:
    """INI text of the workload's config for ``seed``."""
    cp = configparser.ConfigParser()
    if not cp.read(configs_dir / workload.config):
        raise FileNotFoundError(configs_dir / workload.config)
    for section, keys in workload.overrides.items():
        if not cp.has_section(section):
            cp.add_section(section)
        for key, value in keys.items():
            cp.set(section, key, value)
    if t_final is not None:
        cp.set("output", "t_final", t_final)
    variant = variant_of(seed)
    if variant:
        shift = scenario_shift(variant)
        base = {k: cp.getfloat("scenario", k, fallback=v)
                for k, v in _SCENARIO_DEFAULTS.items()}
        cp.set("scenario", "center_x", repr(base["center_x"] + shift["dx"]))
        cp.set("scenario", "center_y", repr(base["center_y"] + shift["dy"]))
        cp.set("scenario", "q_amp", repr(base["q_amp"] * shift["amp"]))
    lines = []
    for section in cp.sections():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in cp.items(section))
        lines.append("")
    return "\n".join(lines)


def reference_tolerance(tol_nl: float, steps: int, reference: float) -> float:
    return REF_TOL_FACTOR * tol_nl * steps * max(1.0, abs(reference))
