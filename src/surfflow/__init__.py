"""Energy-stable implicit simulator for two-phase flow with a soluble
surfactant, built on a staggered grid whose discrete operators satisfy the
exact dualities the scheme's energy estimate rests on."""

__version__ = "0.1.0"

from .constitutive import (AuditReport, ConstitutiveSet, ModelParams,
                           SamplingSpec, audit_assumptions, build_default_set,
                           pointwise_step_inequalities)
from .energy import EnergyLedgerRow, audit_step, total_energy
from .mesh import Grid, ScalarField, VectorField, sbp_selftest
from .state import ScenarioConfig, State, initialize_scenario, observables
from .stepper import StepConfig, StepFailure, StepReport, run, step

__all__ = [
    "__version__",
    "AuditReport", "ConstitutiveSet", "ModelParams", "SamplingSpec",
    "audit_assumptions", "build_default_set", "pointwise_step_inequalities",
    "EnergyLedgerRow", "audit_step", "total_energy",
    "Grid", "ScalarField", "VectorField", "sbp_selftest",
    "ScenarioConfig", "State", "initialize_scenario", "observables",
    "StepConfig", "StepFailure", "StepReport", "run", "step",
]
