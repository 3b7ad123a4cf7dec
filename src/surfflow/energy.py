"""Total energy and the per-step discrete energy audit.

The audit recomputes every term of the one-step energy estimate with the
same operators and quadrature the stepper uses, then reports the signed
slack

    slack = E(k) - E(k+1) - sum(dissipation terms),

which is nonnegative (up to solver tolerance) whenever the step satisfies
the dissipative structure of the scheme.  With transport disabled the slack
is exact to solver tolerance; with flow the transport chain-rule defect
enters and is measured separately (see ``stepper.transport_defect``), and
the estimate bounds the slack less that defect (``estimate_slack``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .constitutive import ConstitutiveSet, ModelParams
from .linalg import assemble_velocity_form
from .state import State, observables

__all__ = ["EnergyComponents", "EnergyLedgerRow", "LEDGER_COLUMNS",
           "total_energy", "audit_step", "estimate_slack",
           "write_ledger_csv", "rows_to_csv"]

# a relative slack of the one-step estimate (see ``estimate_slack``) below
# -SLACK_TOL flags a step that did not dissipate
SLACK_TOL = 1e-8


@dataclass(frozen=True)
class EnergyComponents:
    E_kin: float
    E_grad: float
    E_surf: float
    E_bulk: float
    E_tot: float


def total_energy(s: State, cset: ConstitutiveSet,
                 params: ModelParams) -> EnergyComponents:
    """Midpoint-quadrature energy, gradient term through the grid's G."""
    g = s.grid
    dV = g.dV
    phi, q = s.phi.data, s.q.data
    u2 = g.ops.Afc @ (s.v.data * s.v.data)
    E_kin = 0.5 * dV * float((cset.rho(phi) * u2).sum())
    gp = g.ops.G @ phi
    E_grad = 0.5 * params.epsilon * dV * float(gp @ gp)
    E_surf = dV * float((cset.d(q) * cset.W(phi)).sum()) / params.epsilon
    E_bulk = dV * float(cset.G(q).sum())
    return EnergyComponents(E_kin, E_grad, E_surf, E_bulk,
                            E_kin + E_grad + E_surf + E_bulk)


@dataclass(frozen=True)
class EnergyLedgerRow:
    step: int
    t: float
    tau: float
    E_kin: float
    E_grad: float
    E_surf: float
    E_bulk: float
    E_tot: float
    visc: float
    q_diss: float
    mu_diss: float
    kin_jump: float
    grad_jump: float
    phi_jump: float
    biharm: float
    slack: float
    phi_mass: float
    surf_total: float
    div_inf: float
    nl_iters: int

    def to_csv_line(self) -> str:
        vals = []
        for c in LEDGER_COLUMNS:
            v = getattr(self, c)
            vals.append(str(v) if isinstance(v, int) else "%.17g" % v)
        return ",".join(vals)


LEDGER_COLUMNS = tuple(f.name for f in fields(EnergyLedgerRow))


def audit_step(state_k: State, state_k1: State, cset: ConstitutiveSet,
               params: ModelParams, tau: float, E_k: float,
               nl_iters: int = 0) -> EnergyLedgerRow:
    """Evaluate the one-step energy estimate term by term.

    ``E_k`` is the total energy of ``state_k`` (``total_energy``), which the
    caller already holds: the previous row's E_tot, or the initial state's.
    Dissipation coefficients follow the one-step estimate (no factor of two
    on the mtilde term).  All coefficients freeze at the old level exactly
    as in the stepper, and every quadrature shares the stepper's operators,
    so the reported slack is the scheme's own inequality slack.
    """
    g = state_k.grid
    ops = g.ops
    dV = g.dV
    eps, delta = params.epsilon, params.delta
    phi_k, q_k = state_k.phi.data, state_k.q.data
    v1 = state_k1.v.data
    E1 = total_energy(state_k1, cset, params)

    if float(np.abs(v1).max()) > 0.0 or float(np.abs(state_k.v.data).max()) > 0.0:
        A_visc = assemble_velocity_form(g, cset.eta(phi_k), 0.0)
        visc = tau * float(v1 @ (A_visc @ v1))
        dv = v1 - state_k.v.data
        kin_jump = 0.5 * dV * float(((ops.Acf @ cset.rho(phi_k)) * dv) @ dv)
        if delta > 0.0:
            lv = ops.Lvec @ v1
            biharm = delta * tau * dV * float(lv @ lv)
        else:
            biharm = 0.0
    else:
        visc = kin_jump = biharm = 0.0

    m_faces = ops.Acf @ np.broadcast_to(cset.m(phi_k, q_k), phi_k.shape)
    mt_faces = ops.Acf @ cset.mtilde(phi_k)
    gq = ops.G @ state_k1.q.data
    gmu = ops.G @ state_k1.mu.data
    q_diss = tau * dV * float((m_faces * gq) @ gq)
    mu_diss = tau * dV * float((mt_faces * gmu) @ gmu)

    dgp = ops.G @ (state_k1.phi.data - phi_k)
    grad_jump = 0.5 * eps * dV * float(dgp @ dgp)
    dphi = state_k1.phi.data - phi_k
    phi_jump = (delta / tau) * dV * float(dphi @ dphi) if delta > 0.0 else 0.0

    dissipation = (visc + q_diss + mu_diss + kin_jump + grad_jump
                   + phi_jump + biharm)
    slack = E_k - E1.E_tot - dissipation

    obs = observables(state_k1, cset, params)
    return EnergyLedgerRow(
        step=state_k1.k, t=state_k1.t, tau=tau,
        E_kin=E1.E_kin, E_grad=E1.E_grad, E_surf=E1.E_surf,
        E_bulk=E1.E_bulk, E_tot=E1.E_tot,
        visc=visc, q_diss=q_diss, mu_diss=mu_diss, kin_jump=kin_jump,
        grad_jump=grad_jump, phi_jump=phi_jump, biharm=biharm, slack=slack,
        phi_mass=obs.phi_mass, surf_total=obs.surf_total,
        div_inf=obs.div_inf, nl_iters=nl_iters,
    )


def estimate_slack(rows, defects, E0: float):
    """(relative slack, violated) of each step's one-step energy estimate.

    The estimate bounds the ledger's slack less the step's transport defect
    (``stepper.transport_defect``, 0 in v0 mode; a zero defect gives the
    ledger's own relative slack): the relative slack is
    (slack - defect) / max(|E(k-1)|, 1), E(k-1) the previous row's E_tot,
    ``E0`` (the initial state's) for the first row, and a step below
    -SLACK_TOL violates the estimate."""
    e_prev = np.array([E0] + [r.E_tot for r in rows[:-1]])
    slack = np.array([r.slack for r in rows]) - np.asarray(defects, float)
    rel = slack / np.maximum(np.abs(e_prev), 1.0)
    return rel, rel < -SLACK_TOL


def rows_to_csv(rows) -> str:
    out = [",".join(LEDGER_COLUMNS)]
    out.extend(r.to_csv_line() for r in rows)
    return "\n".join(out) + "\n"


def write_ledger_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))
