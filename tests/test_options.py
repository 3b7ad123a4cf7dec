"""Every shipped config combined with every boolean stepper option.

Each combination either runs to its (shortened) horizon with every step
converged, or is rejected by validation with a message naming the cause.
Out-of-range stepper values are rejected by validation, keys that no longer
exist by the config parser, and the parser's defaults are the dataclasses'
defaults.
"""

import configparser
import math
from pathlib import Path

import pytest

from surfflow.cli import (EXIT_VALIDATION, ConfigError, build_objects,
                          default_config, main, parse_config)
from surfflow.constitutive import ModelParams, SamplingSpec, build_default_set
from surfflow.state import ScenarioConfig, initialize_scenario
from surfflow.stepper import StepConfig, run

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))
STEPS = 2
REMOVED_KEYS = (
    [("stepper", k) for k in ("omega", "max_picard", "newton",
                              "newton_threshold", "preconditioner",
                              "lin_rel_tol", "lin_abs_tol", "tau_backoff",
                              "extrapolate")]
    + [("output", "slack_tol")]
    + [("constitutive", k) for k in ("audit_n", "audit_pad", "audit_phi_lo",
                                     "audit_phi_hi", "audit_pairs",
                                     "audit_seed")])
INVALID_STEPPER = [("max_newton", -3), ("max_backoff", -1),
                   ("tau", math.nan), ("tau", math.inf),
                   ("tol_nl", math.nan), ("tol_nl", math.inf)]
# 1e-13 is below a run's end tolerance: it would take no step
INVALID_HORIZONS = [math.nan, math.inf, 0.0, -1e-3, 1e-13]
# float() reads each of these; none is a finite number
NON_FINITE = [("run", "grid", "lx", "inf"), ("run", "params", "q_max", "inf"),
              ("run", "params", "delta", "inf"), ("run", "grid", "lx", "nan"),
              ("study-tau", "study", "taus", "1e-2, nan, 1e-3")]


def _with_options(src: Path, dest: Path, **stepper) -> str:
    cp = configparser.ConfigParser()
    cp.read(src)
    for key, value in stepper.items():
        cp.set("stepper", key, str(value).lower())
    tau = cp.getfloat("stepper", "tau", fallback=1e-3)
    cp.set("output", "t_final", repr(STEPS * tau))
    with open(dest, "w") as fh:
        cp.write(fh)
    return str(dest)


def test_shipped_configs_found():
    assert {p.stem for p in CONFIGS} >= {"droplet", "relaxation-v0",
                                         "shear-droplet"}


@pytest.mark.parametrize("v0_mode", (False, True))
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_option_matrix(tmp_path, config, v0_mode):
    path = _with_options(config, tmp_path / "c.ini", v0_mode=v0_mode)
    grid, params, _, cfg, scenario, T = build_objects(parse_config(path))
    cset = build_default_set(params)
    state0 = initialize_scenario(scenario, grid, params, cset)
    if v0_mode and float(abs(state0.v.data).max()) > 0.0:
        # a scenario with initial flow cannot freeze v = 0
        with pytest.raises(ValueError, match="v0_mode"):
            run(state0, grid, cset, params, cfg, T)
        return
    res = run(state0, grid, cset, params, cfg, T)
    assert len(res.rows) == STEPS
    assert res.final_state.t == pytest.approx(T, rel=1e-12)
    assert all(rep.converged for rep in res.reports)


@pytest.mark.parametrize("section,key",
                         [pytest.param(s, k, id=k) for s, k in REMOVED_KEYS])
def test_removed_stepper_key_rejected(tmp_path, section, key):
    """Removed keys of any section fail; a removed section is named whole."""
    path = tmp_path / "c.ini"
    path.write_text(f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match="unknown configuration keys") as exc:
        parse_config(str(path))
    assert key in str(exc.value) or f"[{section}]" in str(exc.value)


@pytest.mark.parametrize("key,value", INVALID_STEPPER,
                         ids=[f"{k}={v}" for k, v in INVALID_STEPPER])
def test_invalid_stepper_value_rejected(key, value):
    values = default_config()
    values["stepper"][key] = value
    with pytest.raises(ConfigError, match=key):
        build_objects(values)


@pytest.mark.parametrize("command,section,key,value", NON_FINITE,
                         ids=[f"{k}={v}" for _, _, k, v in NON_FINITE])
def test_non_finite_config_value_rejected(tmp_path, capsys, command, section,
                                          key, value):
    cp = configparser.ConfigParser()
    cp.read_dict({"grid": {"nx": "8", "ny": "8"}, section: {key: value}})
    path = tmp_path / "c.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    code = main([command, str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert f"[{section}] {key}: not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("t_final", INVALID_HORIZONS, ids=str)
def test_invalid_horizon_rejected(t_final):
    values = default_config()
    values["output"]["t_final"] = t_final
    with pytest.raises(ConfigError, match="t_final"):
        build_objects(values)


def test_negative_snapshot_cadence_rejected():
    # a negative cadence would write only the final snapshot, silently
    values = default_config()
    values["output"].update(snapshot_every=-3, write_fields=True)
    with pytest.raises(ConfigError, match="snapshot_every"):
        build_objects(values)


@pytest.mark.parametrize("T", INVALID_HORIZONS, ids=str)
def test_run_rejects_invalid_horizon(T):
    grid, params, _, _, scenario, _ = build_objects(default_config())
    cset = build_default_set(params)
    state0 = initialize_scenario(scenario, grid, params, cset)
    # a budget of zero fails the first step, so a horizon that slips past
    # validation cannot step without end
    cfg = StepConfig(max_newton=0, max_backoff=0)
    with pytest.raises(ValueError, match="horizon"):
        run(state0, grid, cset, params, cfg, T)


@pytest.mark.parametrize("section,key,value", [
    ("grid", "bc", "wrap"), ("scenario", "name", "bubble")])
def test_unknown_choice_rejected(section, key, value):
    values = default_config()
    values[section][key] = value
    with pytest.raises(ConfigError, match=f"{key}.*{value}"):
        build_objects(values)


def test_schema_defaults_match_dataclasses():
    _, params, sampling, cfg, scenario, _ = build_objects(default_config())
    assert params == ModelParams()
    assert cfg == StepConfig()
    assert scenario == ScenarioConfig()
    assert sampling == SamplingSpec()
