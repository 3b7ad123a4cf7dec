"""Simulation state at one time level and conserved-quantity observables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import ConstitutiveSet, ModelParams, config_key
from .linalg import SolverFailure, gradient_potential
from .mesh import Grid, ScalarField, VectorField

__all__ = ["State", "Observables", "observables", "initialize_scenario",
           "ScenarioConfig", "SCENARIO_NAMES", "project_divergence_free"]

SCENARIO_NAMES = ("uniform", "droplet", "shear-droplet", "random-seed")


@dataclass
class State:
    """One time level: face velocity, cell pressure (mean zero), order
    parameter phi, chemical potentials mu and q, time t, step index k."""

    v: VectorField
    p: ScalarField
    phi: ScalarField
    mu: ScalarField
    q: ScalarField
    t: float = 0.0
    k: int = 0

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    def validate(self, div_tol: float = 1e-9) -> None:
        for name, f in (("v", self.v), ("p", self.p), ("phi", self.phi),
                        ("mu", self.mu), ("q", self.q)):
            if not f.is_finite():
                raise ValueError(f"state field {name} contains non-finite values")
        d = float(np.abs(self.grid.ops.D @ self.v.data).max())
        if d > div_tol:
            raise ValueError(f"state velocity is not divergence free: {d:.3e}")
        if abs(self.p.mean()) > 1e-10 * (1.0 + float(np.abs(self.p.data).max())):
            raise ValueError("pressure mean is not pinned to zero")


@dataclass(frozen=True)
class Observables:
    phi_mass: float
    surf_total: float
    div_inf: float


def observables(s: State, cset: ConstitutiveSet, params: ModelParams) -> Observables:
    """Midpoint-rule observables sharing the stepper's operators.

    surf_total integrates the surfactant density f(q) W(phi)/epsilon + g(q).
    """
    phi, q = s.phi.data, s.q.data
    surf = cset.f(q) * cset.W(phi) / params.epsilon + cset.g(q)
    return Observables(
        phi_mass=s.phi.integral(),
        surf_total=float(surf.sum()) * s.grid.dV,
        div_inf=float(np.abs(s.grid.ops.D @ s.v.data).max()),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Initial-state settings; the ``[scenario]`` config section.  See
    ``initialize_scenario`` for what each name builds."""

    name: str = config_key("uniform", " | ".join(SCENARIO_NAMES))
    phi0: float = config_key(0.0, "background order parameter")
    q0: float = config_key(0.0, "background surfactant potential")
    radius: float = config_key(0.25, "droplet radius")
    center_x: float = config_key(0.5, "droplet center x")
    center_y: float = config_key(0.5, "droplet center y")
    q_amp: float = config_key(0.5, "surfactant blob amplitude")
    q_sigma: float = config_key(0.15, "surfactant blob width")
    shear: float = config_key(0.0, "shear velocity amplitude")
    sigma: float = config_key(0.01, "random perturbation amplitude")
    seed: int = config_key(1234, "random scenario seed")

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario name {self.name!r}; "
                             f"know {SCENARIO_NAMES}")


# the initial velocity's max |div v| bound; the projection refines to it
DIV_TOL = 1e-12


def project_divergence_free(v: VectorField) -> VectorField:
    """L2 projection onto the discretely divergence-free face fields.

    u - G x with x = ``gradient_potential(u)``, D G x = D u - mean(D u)
    with cell 0 pinned; D = -G^T makes the result orthogonal to every
    discrete gradient.  While max |div| stays above DIV_TOL the result is
    projected again, at most twice in all (shear profiles and random
    fields at 16^2-160^2 reach 6.4e-13 in two passes); a result still
    above it raises ``SolverFailure``.
    """
    g = v.grid
    u = v.data
    for _ in range(2):
        if float(np.abs(g.ops.D @ u).max()) <= DIV_TOL:
            break
        u = u - g.ops.G @ gradient_potential(g, u)
    d = float(np.abs(g.ops.D @ u).max())
    if d > DIV_TOL:
        raise SolverFailure(f"projection reached max |div| {d:.3e} "
                            f"> {DIV_TOL:.3e}")
    return VectorField(g, u)


def _consistent_mu(phi: ScalarField, q: ScalarField, cset: ConstitutiveSet,
                   params: ModelParams) -> ScalarField:
    g = phi.grid
    lap_phi = g.ops.D @ (g.ops.G @ phi.data)
    mu = -params.epsilon * lap_phi \
        + cset.h(q.data) * cset.Wp(phi.data) / params.epsilon
    return ScalarField(g, mu)


def initialize_scenario(scn: ScenarioConfig, grid: Grid, params: ModelParams,
                        cset: ConstitutiveSet) -> State:
    """Build the initial state for a named scenario.

    uniform       -- constant fields (an exact fixed point of the scheme)
    droplet       -- tanh circular interface of width ~epsilon, Gaussian
                     surfactant-potential blob, fluid at rest
    shear-droplet -- droplet plus a shear profile projected to the discrete
                     divergence-free space
    random-seed   -- small seeded perturbation around phi0

    mu is initialized from the chemical-potential relation so the state
    starts consistent; the initial velocity is always projected to
    max |div v| <= DIV_TOL.
    """
    X, Y = grid.cell_centers()

    if scn.name == "uniform":
        phi = ScalarField.full(grid, scn.phi0)
        q = ScalarField.full(grid, scn.q0)
        v = VectorField.zeros(grid)
    elif scn.name in ("droplet", "shear-droplet"):
        r = np.hypot(X - scn.center_x, Y - scn.center_y)
        prof = np.tanh((scn.radius - r) / (np.sqrt(2.0) * params.epsilon))
        phi = ScalarField(grid, prof.ravel())
        blob = scn.q0 + scn.q_amp * np.exp(-0.5 * (r / scn.q_sigma) ** 2)
        q = ScalarField(grid, blob.ravel())
        v = VectorField.zeros(grid)
        if scn.name == "shear-droplet":
            XF, YF = grid.xface_coords()
            if grid.periodic:
                ux = scn.shear * np.sin(2.0 * np.pi * YF / grid.ly)
            else:
                ux = scn.shear * (2.0 * YF / grid.ly - 1.0)
            v = VectorField(grid, np.concatenate([ux.ravel(),
                                                  np.zeros(grid.n_yfaces)]))
    else:  # random-seed
        rng = np.random.default_rng(scn.seed)
        phi = ScalarField(grid, scn.phi0 + scn.sigma * rng.standard_normal(grid.n_cells))
        q = ScalarField.full(grid, scn.q0)
        v = VectorField.zeros(grid)

    if float(np.abs(v.data).max()) > 0.0:
        v = project_divergence_free(v)
        if grid.periodic:
            # every Newton update C dpsi has zero component means, so the
            # means keep their initial values: start them at zero
            ux, uy = v.ux, v.uy
            v = VectorField(grid, np.concatenate([ux - ux.mean(), uy - uy.mean()]))
    mu = _consistent_mu(phi, q, cset, params)
    s = State(v=v, p=ScalarField.zeros(grid), phi=phi, mu=mu, q=q, t=0.0, k=0)
    s.validate(div_tol=DIV_TOL)
    return s
