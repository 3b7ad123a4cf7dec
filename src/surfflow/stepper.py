"""One implicit time step of the regularized surfactant flow system.

The step advances (v, phi, mu, q) by solving the fully coupled nonlinear
system with all couplings frozen at the old level exactly where the
energy-stable discretization prescribes: viscosity, mobilities, density and
the transported gradients use the old phi/q, while the potentials f, g, h
and the secant slope H of W are evaluated implicitly.

The solver is a Newton iteration on the full coupled residual.  With flow
every attempt (each tau halving included) starts it from the old state.
In v0 mode a step of ``run`` first starts it from q, mu and phi extrapolated
in shrinking backward differences at the old state, which ``run`` carries
over up to eight steps (``_predicted``; Hairer & Wanner, Solving ODEs II,
sec. IV.8), and from the old state at the same tau if that fails.  It works
on the divergence-free velocities, as the weak formulation does (the
null-space method: Benzi, Golub & Liesen, Numerical solution of saddle point
problems, Acta Numerica 2005, sec. 6): each iterate moves v by C psi,
C the grid's discrete curl (D C = 0; periodic: zero component means), and
the momentum equation enters tested against C's columns, C^T r_v, which
has no pressure.  The unknowns are the stream function psi (the Stokes
block S) and the Cahn-Hilliard blocks C = [q, mu, phi]; no pressure, pin
or border multiplier is iterated on, and D v stays at the old state's up
to round-off.  The iterate is the four field arrays v, q, mu and phi of
``_Terms``; each Newton update [dpsi, dq, dmu, dphi] is split into views
and a line-search trial moves the arrays by C dpsi and the cell blocks
(``_moved``).  The pressure is recovered from the momentum residual at
every iterate with the grid's pinned Poisson LU (``_Terms.residual``): it
scales the momentum norm and is the new state's p.  The Newton operator is
one block Gauss-Seidel sweep over S and C: y_S = K^-1 r_S with the
stream-function operator K = C^T J_vv C of the velocity block J_vv, then
y_C = J_CC^-1 (r_C - J_CS C y_S), with sparse LUs of K and J_CC; J_SC, the
response of the momentum to q, mu and phi, is never built.  In v0 mode
there is no S block and the operator is the LU of J_CC, the exact
transport-free Jacobian.  J_CS C, J_CC and J_vv less its frozen velocity
form each have one fixed pattern per grid and mode
(``_build_jacobian_patterns``, explicit zeros kept): each term is a
constant operator chain with at most two diagonal weights, so a block is
one sparse product of a per-grid map with the weights, for every iterate,
step and tau alike.  K = C^T J_vv C is one sparse product at each Stokes
build: a run makes too few of them for a per-grid map of K to pay for
itself.  K and J_CC are structurally symmetric with a zero-free diagonal, so
their LUs take a symmetric minimum-degree ordering (half the fill of
COLAMD's on J_CC), each LU its own.  ``run`` holds the operator from step to
step (chord iterations); ``_HeldLU`` owns it, with the rule that prices
each LU from its fill and decides which to rebuild and when.
A backtracking line search on a fresh operator's direction accepts an
iterate only if it lowers the scaled residual, so the accepted residual
history is strictly decreasing; a full step from an operator not built
whole at the current iterate that does not lower the residual is solved
again with a fresh one.  When the line search stalls or the iteration
budget runs out (or the residual is not finite), the step is retried:
from the old state after an extrapolated start, else with tau halved.

Momentum convection uses the skew form (M . grad) v + (div M) v / 2 with
mass flux M = rho_k v + J, discretized as 0.5 O ((Phi M) * (E v)) with the
grid's stacked edge operators (``mesh.convect_skew``) so that its kinetic
energy contribution vanishes identically; the half density-rate correction
then cancels the excess from the d_t(rho v) telescope exactly.
Every coupling term shared by two equations (the transported phi gradient,
the capillary/Marangoni pair) is evaluated once per iterate from one
discrete form; the cell<->face averaging pair is an exact transpose pair,
which makes the mu-part of that coupling cancel exactly in the energy
telescope.  The part that cannot cancel on a fixed stencil (the nonlinear
chain rule of the surfactant transport) is measured from those forms at
each step's converged iterate (``transport_defect``).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import ConstitutiveSet, ModelParams, config_key
from .linalg import (LU_OPTIONS, FixedPattern, assemble_velocity_form, chain,
                     gradient_potential, scaled)
from .mesh import (Grid, ScalarField, VectorField, convect_skew,
                   skew_convection)
from .state import State, evaluated

__all__ = [
    "StepConfig", "StepReport", "StepFailure", "LinearizedSystem",
    "assemble_linear", "step", "run", "RunResult", "transport_defect",
    "END_TOL", "before_horizon", "check_v0_mode",
]


@dataclass(frozen=True)
class StepConfig:
    """Stepper settings; the ``[stepper]`` config section.  ``v0_mode``
    drops transport entirely."""

    tau: float = config_key(1e-3, "tau: time step")
    tol_nl: float = config_key(1e-10, "relative nonlinear residual tolerance")
    max_newton: int = config_key(50, "Newton iteration budget per tau attempt")
    max_backoff: int = config_key(8, "maximum tau halvings per step")
    v0_mode: bool = config_key(False, "freeze v = 0 (exact energy-estimate mode)")

    def __post_init__(self):
        for key in ("tau", "tol_nl"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be positive and finite, got {value}")
        for key in ("max_newton", "max_backoff"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")


@dataclass
class StepReport:
    iterations: int = 0                 # accepted iterates, one residual each
    newton_iterations: int = 0
    residual_history: list = field(default_factory=list)   # accepted, per block
    rejected: int = 0                   # line-search trials not accepted
    linear_solves: int = 0
    ss_lus: int = 0                     # Stokes-block LUs (of K), all attempts
    cc_lus: int = 0                     # J_CC LUs built, all attempts
    factor_fill: int = 0                # summed L+U fill (lu.nnz) of every LU
    tau_used: float = 0.0
    transport_defect: float = 0.0       # at the converged iterate (0 in v0)
    backoffs: int = 0
    restarts: int = 0                   # extrapolated starts abandoned (v0)
    converged: bool = False
    failure_reason: str = ""            # why the step failed
    abandoned: list = field(default_factory=list)  # why each attempt failed
    wall_time: float = 0.0


class StepFailure(RuntimeError):
    """All retries exhausted; carries the full report (no partial state)."""

    def __init__(self, message: str, report: StepReport):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# frozen linear part
# ---------------------------------------------------------------------------

@dataclass
class LinearizedSystem:
    grid: Grid
    params: ModelParams
    # frozen coefficient fields (old time level); the four flow fields are
    # None in v0 mode
    phi_k: np.ndarray
    v_k: np.ndarray
    rho_k: Optional[np.ndarray]         # cells
    rho_k_faces: Optional[np.ndarray]
    jcoef_faces: Optional[np.ndarray]   # rho'(phi_k) mtilde(phi_k) on faces
    grad_phi_k: np.ndarray              # faces
    W_k: np.ndarray
    Wp_k: Optional[np.ndarray]
    f_qk: np.ndarray
    g_qk: np.ndarray
    m_faces: np.ndarray
    mt_faces: np.ndarray
    # frozen operators
    A_form: Optional[sp.csc_matrix]     # velocity form (None in v0 mode)


def assemble_linear(state_k: State, grid: Grid, cset: ConstitutiveSet,
                    params: ModelParams, cfg: StepConfig) -> LinearizedSystem:
    """Freeze the coefficient fields and linear operators of one step.

    Velocity form: 2 eta(phi_k) symmetric-gradient form plus the
    delta-weighted biharmonic pairing (coupled mode only).  The diffusion
    blocks div(m grad .) and div(mtilde grad .) take the face-averaged
    old-level mobilities.  Mobility values outside [c1, c2] at the state
    samples are rejected, and with flow viscosity values too.  W, f, g,
    G phi and rho are read from ``state_k`` (``state.evaluated``), which
    then carries the face mobilities and eta for the step's audit.  In v0
    mode, without flow, rho_k, rho_k_faces, jcoef_faces, Wp_k and A_form
    are None and eta is not evaluated.
    """
    phi_k, q_k = state_k.phi.data, state_k.q.data
    flow = not cfg.v0_mode
    mvals = np.broadcast_to(cset.m(phi_k, q_k), phi_k.shape)
    mtvals = cset.mtilde(phi_k)
    bounded = {"m": mvals, "mtilde": mtvals}
    if flow:
        bounded["eta"] = evaluated(state_k, cset, "eta", cset.eta(phi_k))
    for name, vals in bounded.items():
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if lo < params.c1 or hi > params.c2:
            raise ValueError(
                f"coefficient {name} leaves [c1, c2] = [{params.c1}, {params.c2}] "
                f"at state samples (range [{lo:.3g}, {hi:.3g}])")

    ops = grid.ops
    rho_k = evaluated(state_k, cset, "rho") if flow else None
    return LinearizedSystem(
        grid=grid, params=params,
        phi_k=phi_k.copy(), v_k=state_k.v.data.copy(),
        rho_k=rho_k, rho_k_faces=ops.Acf @ rho_k if flow else None,
        jcoef_faces=ops.Acf @ (cset.rhop(phi_k) * mtvals) if flow else None,
        grad_phi_k=evaluated(state_k, cset, "grad_phi"),
        W_k=evaluated(state_k, cset, "W"),
        Wp_k=cset.Wp(phi_k) if flow else None,
        f_qk=evaluated(state_k, cset, "f"), g_qk=evaluated(state_k, cset, "g"),
        m_faces=evaluated(state_k, cset, "m_faces", ops.Acf @ mvals),
        mt_faces=evaluated(state_k, cset, "mt_faces", ops.Acf @ mtvals),
        A_form=assemble_velocity_form(grid, bounded["eta"], params.delta)
        if flow else None,
    )


# ---------------------------------------------------------------------------
# nonlinear terms and the residual at an iterate
# ---------------------------------------------------------------------------

_CH_BLOCKS = ("q", "mu", "phi")
_BLOCKS = ("S", "C")                    # Stokes and Cahn-Hilliard runs


class _Terms:
    """The Newton context at the iterate of face array ``v`` and cell arrays
    ``q``, ``mu``, ``phi``: the step's frozen part, model functions,
    settings and tau, and every nonlinear coupling evaluated there (shared
    forms, G mu among them, are computed once and reused by the residual,
    the Jacobian and the defect)."""

    def __init__(self, lin: LinearizedSystem, cset: ConstitutiveSet,
                 cfg: StepConfig, tau: float, v: np.ndarray, q: np.ndarray,
                 mu: np.ndarray, phi: np.ndarray):
        g = lin.grid
        ops = g.ops
        eps = lin.params.epsilon
        delta = lin.params.delta
        self.lin, self.cset, self.cfg, self.tau = lin, cset, cfg, tau
        self.v, self.q, self.mu, self.phi = v, q, mu, phi
        self.grad_q, self.grad_mu = ops.G @ q, ops.G @ mu
        self.grad_phi = ops.G @ phi

        self.h_q, self.f_q, self.g_q = cset.h(q), cset.f(q), cset.g(q)
        self.W_phi, self.H = cset.W(phi), cset.secant_W(phi, lin.phi_k)

        # surfactant equation pieces (old-level W in the transported density)
        self.Fq_time = ((self.f_q - lin.f_qk) * lin.W_k
                        + self.f_q * (self.W_phi - lin.W_k)) / (eps * tau) \
            + (self.g_q - lin.g_qk) / tau
        self.mu_relation_explicit = self.h_q * self.H / eps \
            + delta * (phi - lin.phi_k) / tau

        if not cfg.v0_mode:
            self.rho_it = cset.rho(phi)
            self.grad_surf = ops.G @ (self.f_q * lin.W_k / eps + self.g_q)
            self.transport_q = ops.Afc @ (self.grad_surf * v)
            self.transport_phi = ops.Afc @ (lin.grad_phi_k * v)
            cap_cells = mu - self.h_q * lin.Wp_k / eps
            self.cap = (ops.Acf @ cap_cells) * lin.grad_phi_k
            self.rho_faces = ops.Acf @ self.rho_it
            self.time_term = (self.rho_faces * v - lin.rho_k_faces * lin.v_k) / tau
            # mass flux: rho_k v plus the diffusive flux -jcoef G mu
            self.M = lin.rho_k_faces * v - lin.jcoef_faces * self.grad_mu
            self.conv = convect_skew(g, self.M, v)
            self.rho_rate_faces = ops.Acf @ ((self.rho_it - lin.rho_k) / tau)
            self.corr = 0.5 * self.rho_rate_faces * v
            # momentum load: everything but the viscous form and grad p
            self.rhs_v = self.cap - self.time_term - self.conv + self.corr

    def residual(self):
        """(stacked residual, per-block scaled norms) at this iterate.

        The vector follows the Jacobian's row order; each norm is
        ``|r| / (1 + largest term norm)`` of one equation in field units.
        Only with flow do the q and phi rows take their transport terms,
        and the vector has momentum rows, C^T r_v, which has no pressure.
        Its norm is that of r_v + G p with the pressure p that makes it
        divergence free, p = -x with x r_v's gradient potential (the grid's
        pinned Poisson LU, ``linalg.gradient_potential``; kept as
        ``self.p``, the new state's pressure once the step converges),
        periodic constant modes projected out.
        """
        lin, tau = self.lin, self.tau
        g = lin.grid
        ops = g.ops
        eps = lin.params.epsilon

        diff_q = ops.D @ (lin.m_faces * self.grad_q)
        diff_mu = ops.D @ (lin.mt_faces * self.grad_mu)
        dphi = (self.phi - lin.phi_k) / tau
        # factored application: exactly zero on constants, unlike the
        # precomputed product matrix
        lap_phi = eps * (ops.D @ self.grad_phi)
        r_phi = self.mu + lap_phi - self.mu_relation_explicit
        # the time terms, then with flow the transport terms
        rate_q, rate_phi = [self.Fq_time], [dphi]
        if not self.cfg.v0_mode:
            rate_q.append(self.transport_q)
            rate_phi.append(self.transport_phi)
        r_q = sum(rate_q[1:], rate_q[0]) - diff_q
        r_mu = sum(rate_phi[1:], rate_phi[0]) - diff_mu
        norms = {
            "q": _rel(r_q, rate_q + [diff_q]),
            "phi_evolution": _rel(r_mu, rate_phi + [diff_mu]),
            "mu_relation": _rel(r_phi, [self.mu, lap_phi,
                                        self.mu_relation_explicit]),
        }
        if self.cfg.v0_mode:
            return np.concatenate([r_q, r_mu, r_phi]), norms

        visc = (lin.A_form @ self.v) / g.dV
        r_v = visc - self.rhs_v
        self.p = -gradient_potential(g, r_v)
        gp = ops.G @ self.p
        r_v_free = r_v + gp
        if g.periodic:
            nxf = g.n_xfaces
            r_v_free[:nxf] -= r_v_free[:nxf].mean()
            r_v_free[nxf:] -= r_v_free[nxf:].mean()
        norms["momentum"] = _rel(r_v_free, [visc, gp, self.cap,
                                            self.time_term, self.conv])
        return np.concatenate([ops.CT @ r_v, r_q, r_mu, r_phi]), norms


def _norm(x: np.ndarray) -> float:
    # what np.linalg.norm computes for a 1-D float array, without its
    # dispatch
    return math.sqrt(x @ x)


def _rel(r: np.ndarray, terms) -> float:
    return _norm(r) / (1.0 + max(map(_norm, terms), default=0.0))


# ---------------------------------------------------------------------------
# Newton linearization
# ---------------------------------------------------------------------------

class _Jacobian(NamedTuple):
    """The blocks of the Newton Jacobian the operator uses, over S = [psi]
    and C = [q, mu, phi]: J_vv, the momentum residual's derivative in the
    velocity, the stream-function operator K = C^T J_vv C (C the grid's
    curl, the S block's own Jacobian) and ``CS`` = J_CS C, the C rows'
    derivative in psi, all None in v0 mode, and J_CC.  J_SC is never
    built."""
    VV: Optional[sp.csc_matrix]
    K: Optional[sp.csc_matrix]
    CS: Optional[sp.csc_matrix]
    CC: sp.csc_matrix


def _build_jacobian_patterns(g: Grid, v0: bool) -> tuple:
    """The fixed patterns (J_vv less its velocity form, J_CS C, J_CC) of
    ``_jacobian``'s blocks, the first two None in v0 mode: one named term
    per coefficient, each C block at its index in ``_CH_BLOCKS`` and J_CS C
    in the psi columns.  K, a product formed at each build, has none."""
    ops = g.ops
    nc, nf = g.n_cells, g.n_faces
    Ic = sp.identity(nc, format="csr")
    nC = 3 * nc

    def at(row, col):
        return (_CH_BLOCKS.index(row) * nc,
                0 if col == "psi" else _CH_BLOCKS.index(col) * nc)

    cc = [
        ("q_q", chain(Ic, Ic, at=at("q", "q"))),
        ("q_q_diff", chain(ops.D, ops.G, at=at("q", "q"))),
        ("q_phi", chain(Ic, Ic, at=at("q", "phi"))),
        ("mu_mu", chain(ops.D, ops.G, at=at("mu", "mu"))),
        ("mu_phi", scaled(Ic, at=at("mu", "phi"))),
        ("phi_q", chain(Ic, Ic, at=at("phi", "q"))),
        ("const", scaled(Ic, at=at("phi", "mu"))),
        ("phi_phi", chain(Ic, Ic, at=at("phi", "phi"))),
        ("phi_phi_lap", scaled(ops.D @ ops.G, at=at("phi", "phi"))),
    ]
    if v0:
        return None, None, FixedPattern((nC, nC), cc)
    cc.append(("q_q_transport",
               chain(ops.Afc, Ic, Y=ops.G, at=at("q", "q"))))

    If = sp.identity(nf, format="csr")
    cs = [("q_v", chain(ops.Afc, ops.C, at=at("q", "psi"))),
          ("mu_v", chain(ops.Afc, ops.C, at=at("mu", "psi")))]
    # skew convection 0.5 O ((Phi M) * (E v)) (mesh.convect_skew): in v with
    # weight Phi M, and in M = rho_k v - jcoef G mu through rho_k v with
    # weight E v (the jcoef G mu part is J_SC)
    conv = skew_convection(g)
    VV = FixedPattern((nf, nf), [
        ("v_v", chain(If, If)),
        ("conv", chain(0.5 * conv.O, conv.E)),
        ("flux", chain(0.5 * conv.O, If, Y=conv.Phi)),
    ])
    return (VV, FixedPattern((nC, ops.C.shape[1]), cs),
            FixedPattern((nC, nC), cc))


def _jacobian(t: _Terms, blocks: tuple = _BLOCKS) -> _Jacobian:
    """The blocks J_vv, K, J_CS C and J_CC of the Jacobian of the coupled
    residual at the iterate in ``t``.  J_CS C and J_CC are on the grid's
    fixed patterns (``_build_jacobian_patterns``), J_vv is its pattern's
    matrix plus the frozen velocity form, and K is the sparse product
    C^T J_vv C.  Without "S" in ``blocks`` neither J_vv nor K is built
    (``VV`` and ``K`` are None)."""
    lin, cset, cfg, tau = t.lin, t.cset, t.cfg, t.tau
    g = lin.grid
    eps = lin.params.epsilon
    delta = lin.params.delta

    fq_p, gq_p = cset.fp(t.q), cset.gp(t.q)
    Wp_it = cset.Wp(t.phi)
    dH = cset.dsecant_W_da(t.phi, lin.phi_k)
    w_cc = {
        "q_q": fq_p * t.W_phi / (eps * tau) + gq_p / tau,
        "q_q_diff": -lin.m_faces,
        "q_phi": t.f_q * Wp_it / (eps * tau),
        "mu_mu": -lin.mt_faces,
        "mu_phi": 1.0 / tau,
        "phi_q": t.f_q * t.H / eps,         # -h'(q) H / eps
        "const": 1.0,
        "phi_phi": -t.h_q * dH / eps - delta / tau,
        "phi_phi_lap": eps,
    }
    VV_p, CS_p, CC_p = g.ops.cached(("jacobian", cfg.v0_mode), lambda:
                                    _build_jacobian_patterns(g, cfg.v0_mode))
    if cfg.v0_mode:
        return _Jacobian(None, None, None, CC_p.matrix(w_cc))
    w_cc["q_q_transport"] = (t.v, fq_p * lin.W_k / eps + gq_p)
    CS = CS_p.matrix({"q_v": t.grad_surf, "mu_v": lin.grad_phi_k})
    CC = CC_p.matrix(w_cc)
    if "S" not in blocks:
        return _Jacobian(None, None, CS, CC)
    conv = skew_convection(g)
    VV = VV_p.matrix({
        "v_v": t.rho_faces / tau - 0.5 * t.rho_rate_faces,
        "conv": conv.Phi @ t.M,
        "flux": (conv.E @ t.v, lin.rho_k_faces),
    }) + lin.A_form / g.dV
    return _Jacobian(VV, (g.ops.CT @ VV @ g.ops.C).tocsc(), CS, CC)


# ---------------------------------------------------------------------------
# the step
# ---------------------------------------------------------------------------

# Building one LU of the Newton operator (its blocks of the Jacobian and
# that LU) costs about this many chord iterations (one operator apply
# plus one residual) per unit of its L+U fill per unknown;
# the fill is SuperLU's stored count ``lu.nnz`` (reading ``lu.L``/``lu.U``
# would copy the factors).  n is the unknown count of the saddle form
# [v, p, b, q, mu, phi] the constant was fitted on (``_HeldLU.build``), not
# the Newton vector's [psi, q, mu, phi], which would raise every coupled
# price 1.5x at 32^2 and move solver decisions.  Measured build /
# iteration time over fill / n, medians of 5-9 repeats, three runs each on
# one 2-core x86 host, shear-droplet and droplet after 3 steps: the Stokes
# LU (J_vv and K assembled, K's LU) 0.19-0.24 at 32^2 (fill / n 18, 9.3-11
# ms against 2.5-2.9 ms) and 0.17-0.22 at 64^2 (fill / n 30, 52-60 ms
# against 9.0-10.4 ms); J_CC 0.17-0.19 at 32^2 (fill / n 30, 13-15 ms) and
# 0.16-0.23 at 64^2 (fill / n 46).  The medians are 0.18-0.20 for both, so
# one constant fits both LUs; it stays at 0.17, at the low end of both
# spreads, which keeps every v0 decision (the v0 operator, J_CC's LU alone
# over a cheaper iteration, measured 0.28).  Fitted while later LUs reused
# their block's first ordering (J_CC's 10% cheaper), it keeps every decision.
FACTOR_COST_PER_FILL = 0.17

# Most old states a v0 start extrapolates through: on relaxation-v0 (32^2,
# 100 steps) 4 give 360 Newton iterations, 10 LUs; 8 to 24 give 290-294, 6.
PREDICTOR_DEPTH = 8


@dataclass
class _LU:
    """One held LU of the Newton operator and its chord accounting.
    ``price`` is its rebuild in chord iterations, ``FACTOR_COST_PER_FILL *
    fill / n``; ``base`` is the Newton iteration count of the first step
    converged on it without refactoring it, and ``excess`` adds up what
    each later such step spends beyond that."""
    lu: object
    price: float
    base: Optional[int] = None
    excess: int = 0

    def settle(self, iterations: int) -> None:
        """Account a step converged on this LU."""
        if self.base is None:
            self.base = iterations
        else:
            self.excess += max(iterations - self.base, 0)


@dataclass
class _HeldLU:
    """The Newton operator, held from step to step, and the policy that
    rebuilds its LUs: the chord/refactor trade-off (Kelley, Iterative
    Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 5), priced
    per LU.

    The operator is one block Gauss-Seidel sweep over S = [psi] and C
    (``solve``): y_S = K^-1 r_S by the Stokes LU ``S`` of K = C^T J_vv C,
    then y_C = J_CC^-1 (r_C - J_CS C y_S) by J_CC's LU ``C``, with ``CS``
    = J_CS C (block triangular preconditioning as in Elman, Silvester &
    Wathen, Finite Elements and Fast Iterative Solvers, 2nd ed., OUP 2014).
    In v0 mode ``S`` and ``CS`` are None and the operator is J_CC's LU
    alone.  ``C`` and ``CS`` are None while J_CC's LU is dropped and the
    Stokes LU still held; all three while the whole operator is.

    The two LUs age apart: a held J_CC goes stale within a few steps, a
    held Stokes LU (of K, the S block's whole operator) stays good for
    longer.  So J_CC's LU is refreshed first, though K's is the cheaper one
    (0.6x J_CC's fill at 32^2).  Within a Newton attempt (``begin``), from
    its second iteration on, ``refactor`` weighs the iterations the observed
    contraction still needs against the price of J_CC's LU, and refreshes
    it (with J_CS C) at the current iterate; only when a J_CC LU built in
    the same attempt (``rebuilt``) still contracts too slowly does it weigh
    them against both prices and rebuild both.  Across steps, ``settle``
    adds up each LU's excess iterations on its own: J_CC's LU is dropped
    when they pay for J_CC's price, the whole operator when the Stokes LU's
    pay for both.  The operator is also dropped when an attempt runs at
    another tau than it was built at (the shorter last step, every tau
    halving).  No clock is read, so reruns repeat bitwise.  In v0 mode
    there is only J_CC, the whole operator, and the rule is the one-LU
    rule, the first contraction included.  Each LU is SuperLU's own
    (``linalg.LU_OPTIONS``) and depends only on its block.
    """
    S: Optional[_LU] = None
    CS: Optional[sp.csc_matrix] = None
    C: Optional[_LU] = None
    tau: float = 0.0
    rebuilt: set = field(default_factory=set)   # blocks built this attempt

    def begin(self, tau: float) -> None:
        """Start a Newton attempt at ``tau``."""
        if tau != self.tau:
            self.S = self.CS = self.C = None
        self.rebuilt = set()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The block sweep applied to ``rhs`` over [psi, q, mu, phi]."""
        if self.S is None:
            return self.C.lu.solve(rhs)
        ns = rhs.size - self.C.lu.shape[0]
        y_s = self.S.lu.solve(rhs[:ns])
        return np.concatenate([y_s, self.C.lu.solve(rhs[ns:] - self.CS @ y_s)])

    def price(self, blocks: tuple) -> float:
        """The rebuild of the held LUs among ``blocks``, in chord
        iterations."""
        return sum(getattr(self, b).price for b in blocks
                   if getattr(self, b) is not None)

    def settle(self, iterations: int) -> None:
        """Account a converged step to each held LU not rebuilt in this
        attempt.  J_CC's LU is dropped when its excess iterations reach its
        price; the Stokes LU, whose drop rebuilds the whole operator, when
        its excess reaches both prices."""
        if self.C is None:
            return
        for b in _BLOCKS:
            # an LU rebuilt in this attempt has no excess yet
            if getattr(self, b) is not None and b not in self.rebuilt:
                getattr(self, b).settle(iterations)
        if self.S is not None and self.S.excess >= self.price(_BLOCKS):
            self.S = self.CS = self.C = None
        elif self.C.excess >= self.C.price:
            self.CS = self.C = None

    def refactor(self, res: float, prev_res: float, tol: float, left: int,
                 first: bool) -> tuple:
        """The blocks to factor at the current iterate before the next
        Newton iteration: both without an operator, J_CC without its LU.
        Else, from the residual ``res`` at the contraction ``res /
        prev_res`` of the last iteration, J_CC when the chord iterations
        still needed exceed its price plus two, or the ``left`` iterations
        of the budget; once a J_CC LU was built in this attempt, both when
        they exceed both prices plus two.

        With a Stokes LU held, the contraction of the attempt's ``first``
        iteration refactors nothing: out of the old state exact Newton
        contracts as slowly there (0.18-0.75 on shear-droplet, from the q
        equation's nonlinearity), so it does not price the operator."""
        if self.C is None:
            return _BLOCKS if self.S is None else ("C",)
        if not math.isfinite(prev_res):     # no iteration yet in this attempt
            return ()
        if first and self.S is not None:
            return ()
        # accepted residuals strictly decrease, so log(res / prev_res) < 0
        needed = math.log(tol / res) / math.log(res / prev_res)
        blocks = _BLOCKS if "C" in self.rebuilt else ("C",)
        return blocks if needed > min(self.price(blocks) + 2.0, left) else ()

    def build(self, t: _Terms, report: StepReport,
              blocks: tuple = _BLOCKS) -> bool:
        """Factor ``blocks`` of the Jacobian at ``t`` into the operator,
        counted and filled in ``report``; False (with the reason in the
        report) when a factorization fails.

        With "S" in ``blocks`` the whole operator is rebuilt: J_CC always,
        the Stokes LU (of K) in coupled mode only.  Without it, J_CC's LU
        and J_CS C are replaced and the held Stokes LU is kept.  Each LU is
        priced over the ``n`` unknowns of the saddle form (see
        ``FACTOR_COST_PER_FILL``)."""
        # free the old LUs before building the new
        if "S" in blocks:
            self.S = None
        self.CS = self.C = None
        J = _jacobian(t, blocks)
        g = t.lin.grid
        # [v, p, b] and [q, mu, phi]
        n = J.CC.shape[0] + (0 if J.CS is None else
                             g.n_faces + g.n_cells + (2 if g.periodic else 0))

        def factor(A: sp.csc_matrix) -> _LU:
            lu = spla.splu(A, **LU_OPTIONS)
            report.factor_fill += lu.nnz
            return _LU(lu, FACTOR_COST_PER_FILL * lu.nnz / n)

        try:
            S = self.S
            if J.K is not None:
                S = factor(J.K)
                report.ss_lus += 1
            C = factor(J.CC)
            report.cc_lus += 1
        except RuntimeError as exc:
            report.abandoned.append(f"Newton linearization failed: {exc}")
            return False
        self.S, self.CS, self.C, self.tau = S, J.CS, C, t.tau
        self.rebuilt.update(blocks)
        return True


def _try_step(state_k: State, lin: LinearizedSystem, cset: ConstitutiveSet,
              cfg: StepConfig, tau: float, report: StepReport,
              held: _HeldLU,
              start: Optional[tuple] = None) -> Optional[State]:
    """The Newton iteration on the coupled system for one tau from
    ``state_k``, or from the cell arrays ``start`` = (q, mu, phi) with v
    at ``state_k``'s; None when the residual is not finite, the line search
    stalls or the budget runs out.

    The operator in ``held`` may come from an earlier iterate or step (a
    chord iteration); its LUs are rebuilt as ``held`` decides.
    """
    g = lin.grid
    # the Newton vector [psi, q, mu, phi] (no psi in v0 mode)
    ns = 0 if cfg.v0_mode else g.ops.C.shape[1]
    held.begin(tau)
    t = _Terms(lin, cset, cfg, tau, state_k.v.data,
               *(_cells(state_k) if start is None else start))
    rvec, blocks = t.residual()
    newton_left = cfg.max_newton
    prev_res = np.inf
    while True:
        res = max(blocks.values())
        report.iterations += 1
        report.residual_history.append(dict(blocks, total=res))
        if not np.isfinite(res):
            report.abandoned.append("non-finite residual")
            return None
        if res <= cfg.tol_nl:
            report.converged = True
            held.settle(cfg.max_newton - newton_left)
            if not cfg.v0_mode:
                report.transport_defect = transport_defect(t)
            return _finalize(state_k, t)
        if newton_left == 0:
            report.abandoned.append("Newton iteration budget exhausted "
                                    f"(max_newton = {cfg.max_newton})")
            return None
        stale = held.refactor(res, prev_res, cfg.tol_nl, newton_left,
                              first=newton_left == cfg.max_newton - 1)
        newton_left -= 1
        report.newton_iterations += 1
        if stale and not held.build(t, report, stale):
            return None
        # the whole operator was built at this iterate
        fresh = bool(stale) and (held.S is None or "S" in stale)
        prev_res = res
        alpha = 1.0
        while True:
            if alpha == 1.0:      # first trial, or after a stale-operator build
                y = held.solve(-rvec)
                dv = None if cfg.v0_mode else g.ops.C @ y[:ns]
                d = (dv, *y[ns:].reshape(3, -1))
                report.linear_solves += 1
            t_try = _Terms(lin, cset, cfg, tau, *_moved(t, d, alpha))
            rvec_try, blocks_try = t_try.residual()
            res_try = max(blocks_try.values())
            if np.isfinite(res_try) and res_try < res:
                t, rvec, blocks = t_try, rvec_try, blocks_try
                break
            report.rejected += 1
            if not fresh:
                # a full step from an operator (or Stokes LU) of an earlier
                # iterate does not descend: rebuild both at this iterate,
                # line search only on that direction
                fresh = True
                if not held.build(t, report):
                    return None
                continue
            alpha *= 0.5
            if alpha < 1.0 / 256.0:
                report.abandoned.append("Newton line search stalled")
                return None


def _moved(t: _Terms, d: tuple, alpha: float) -> tuple:
    """The fields (v, q, mu, phi) of ``t`` moved by ``alpha`` times their
    updates ``d`` (a full step without the multiply, which is exact); a
    field whose update is None (v in v0 mode) stays."""
    return tuple(x if dx is None else x + (dx if alpha == 1.0 else alpha * dx)
                 for x, dx in zip((t.v, t.q, t.mu, t.phi), d))


def transport_defect(t: _Terms) -> float:
    """Energy defect of the transport/Marangoni cancellation at the
    converged iterate ``t`` of a coupled step.

    Continuously the three coupling terms sum to an exact divergence; on a
    fixed stencil the nonlinear chain rule leaves a residual.  This pairs
    the three discrete forms the residual used with their unknowns:
    tau * (q-transport + phi-transport - capillary power).
    """
    return t.tau * t.lin.grid.dV * float(
        t.transport_q @ t.q + t.transport_phi @ t.mu - t.cap @ t.v)


def _finalize(state_k: State, t: _Terms) -> State:
    """The new state at the converged iterate ``t``; its pressure is the
    one recovered by the residual (the old state's in v0 mode), shifted to
    mean zero.  It carries the iterate's W(phi), f(q), g(q), G phi, G q,
    G mu and, with flow, rho(phi) for the ledger audit and the next step
    (``state.evaluated``)."""
    grid = state_k.grid
    p = state_k.p.data if t.cfg.v0_mode else t.p
    s = State(
        v=VectorField(grid, t.v.copy()),
        p=ScalarField(grid, p - p.mean()),
        phi=ScalarField(grid, t.phi.copy()),
        mu=ScalarField(grid, t.mu.copy()),
        q=ScalarField(grid, t.q.copy()),
        t=state_k.t + t.tau,
        k=state_k.k + 1,
    )
    values = {"W": t.W_phi, "f": t.f_q, "g": t.g_q, "grad_phi": t.grad_phi,
              "grad_q": t.grad_q, "grad_mu": t.grad_mu}
    if not t.cfg.v0_mode:
        values["rho"] = t.rho_it
    for name, value in values.items():
        evaluated(s, t.cset, name, value)
    return s


def _cells(s: State) -> tuple:
    """The cell arrays (q, mu, phi) of the state ``s``."""
    return s.q.data, s.mu.data, s.phi.data


def _predicted(table: tuple, ratio: float) -> Optional[tuple]:
    """The start (q, mu, phi) of a step ``ratio`` times the last, from
    ``table``: None if longer, x_k + ratio nabla x_k if shorter, else x_k +
    nabla x_k + ... per field, each term while nonzero and shrinking."""
    if ratio > 1.0:
        return None
    if ratio < 1.0:
        return tuple(x + ratio * d for x, d, *_ in table)

    def summed(out, *diffs):
        prev = math.inf
        for d in diffs:
            size = _norm(d)
            if not 0.0 < size < prev:
                break
            out, prev = out + d, size
        return out
    return tuple(summed(*col) for col in table)


def _advanced(table: tuple, x: tuple, same_tau: bool) -> tuple:
    """``table``, per field [x, nabla x, ..., nabla^p x] over steps of one
    tau, at the new cell arrays ``x``: nabla^j x_k = nabla^j-1 x_k -
    nabla^j-1 x_k-1, p <= PREDICTOR_DEPTH, and p = 1 after a new tau."""
    keep = PREDICTOR_DEPTH if same_tau else 1
    return tuple(list(accumulate(col[:keep], np.subtract, initial=new))
                 for new, col in zip(x, table))


def check_v0_mode(s: State, cfg: StepConfig) -> None:
    """Raise ValueError when ``cfg`` freezes v = 0 (``v0_mode``) but the
    state ``s`` has flow."""
    if cfg.v0_mode and s.v.data.any():
        raise ValueError("v0_mode requires a state with identically zero velocity")


def step(state_k: State, grid: Grid, cset: ConstitutiveSet,
         params: ModelParams, cfg: StepConfig,
         held: Optional[_HeldLU] = None, start: Optional[tuple] = None):
    """Advance one implicit step, halving tau on failure up to the limit.

    With ``start`` (cell arrays q, mu, phi: ``run``'s v0 extrapolation)
    the first attempt starts Newton there with v at ``state_k``'s.  If it
    fails, the step retries from ``state_k`` at the same tau (counted in
    ``StepReport.restarts``).  That attempt and every halved one start
    from ``state_k``, as every attempt does without ``start``; each failed
    attempt's reason is listed in ``StepReport.abandoned``.  With
    ``max_newton = 0`` tau is never halved: the old state's residual does
    not shrink with tau.  ``held`` carries the Newton LU from step to step
    (``run`` passes one); without it the LU lives for this call only.
    Returns (state_{k+1}, StepReport).  Raises StepFailure when every retry
    is exhausted; no partial state escapes.  ``check_v0_mode`` comes first.
    """
    t0 = _time.perf_counter()
    check_v0_mode(state_k, cfg)
    lin = assemble_linear(state_k, grid, cset, params, cfg)
    report = StepReport()
    held = _HeldLU() if held is None else held
    tau = cfg.tau
    backoffs = cfg.max_backoff if cfg.max_newton else 0
    while True:
        report.tau_used = tau
        out = _try_step(state_k, lin, cset, cfg, tau, report, held, start)
        if out is not None:
            report.wall_time = _time.perf_counter() - t0
            return out, report
        if start is not None:
            start = None
            report.restarts += 1
            note = "retry from the old state"
        elif report.backoffs < backoffs:
            tau *= 0.5
            report.backoffs += 1
            note = f"retry tau={tau:g}"
        else:
            break
        report.residual_history.append({"total": np.inf, "note": note})
    report.wall_time = _time.perf_counter() - t0
    report.failure_reason = report.abandoned[-1]
    raise StepFailure(
        f"step failed after {report.backoffs} tau halvings "
        f"(last reason: {report.failure_reason})", report)


# ---------------------------------------------------------------------------
# time loop
# ---------------------------------------------------------------------------

# a run ends at its first state within END_TOL * max(T, 1) of its horizon T
END_TOL = 1e-12


def before_horizon(t: float, T: float) -> bool:
    """Whether a run at time ``t`` takes another step towards ``T``."""
    return t < T - END_TOL * max(T, 1.0)


@dataclass
class RunResult:
    rows: list                    # energy-ledger rows (see energy module)
    reports: list
    final_state: State
    E0: float                     # total energy of the initial state


def run(state0: State, grid: Grid, cset: ConstitutiveSet, params: ModelParams,
        cfg: StepConfig, T: float, callbacks=None):
    """Repeated stepping to the horizon T with per-step energy accounting.

    Appends one ledger row per accepted step.  The Newton LU is held from
    step to step, in v0 mode also ``table`` (``_advanced``) and ``last``,
    its steps' tau, for each step's start (``_predicted``).  A StepFailure
    propagates with the partial ledger attached to it (``exc.partial``).
    """
    from . import energy

    if not (math.isfinite(T) and before_horizon(state0.t, T)):
        raise ValueError(f"horizon T = {T} leaves no step from t = {state0.t}")
    rows, reports = [], []
    s = state0
    held = _HeldLU()
    table, last = tuple([x] for x in _cells(state0)), None
    result = RunResult(rows, reports, state0,
                       energy.total_energy(state0, cset, params).E_tot)
    E_k = result.E0                 # the energy of s, computed once
    while before_horizon(s.t, T):
        step_cfg = cfg
        remaining = T - s.t
        if remaining < cfg.tau * (1.0 - 1e-12):
            step_cfg = replace(cfg, tau=remaining)
        start = _predicted(table, step_cfg.tau / last) if last else None
        try:
            s_new, rep = step(s, grid, cset, params, step_cfg, held, start)
        except StepFailure as exc:
            exc.partial = result
            raise
        row = energy.audit_step(s, s_new, cset, params, rep.tau_used, E_k,
                                nl_iters=rep.iterations)
        E_k = row.E_tot
        rows.append(row)
        reports.append(rep)
        if callbacks:
            for cb in callbacks:
                cb(s_new, rep, row)
        if cfg.v0_mode:             # only v0 steps use it
            table = _advanced(table, _cells(s_new), rep.tau_used == last)
            last = rep.tau_used
        s = s_new
    result.final_state = s
    return result
