"""Reference assemblies by sparse products, the way the solver's fixed
patterns must reproduce them: the convection matrices of
``mesh.convect_skew``, the velocity form ``B^T diag(w) B``, the cell
diffusion operator ``D diag(w) G``, the saddle J_SS around a velocity
block, and the Jacobian of the saddle form over [v, p, b, q, mu, phi]
(J_SC included, which the stepper never builds) as one ``sp.bmat`` of its
blocks, each reduced to the stepper's Newton unknowns [psi, q, mu, phi] by
the grid's curl (``divergence_free``); and the transport defect of a step
rebuilt from its two states, which the stepper reads from its converged
terms.  ``grid_operators`` rebuilds the gradient, the cell -> face average
and the vector Laplacian of ``mesh.GridOperators`` from explicit 1D
stencils."""

import numpy as np
import scipy.sparse as sp

from surfflow.mesh import VectorField


def _diff_avg(n, d, periodic):
    """1D cell -> face difference and two-point average (box: interior
    faces only)."""
    m = n if periodic else n - 1
    rows = np.repeat(np.arange(m), 2)
    cols = (np.arange(m)[:, None] + ([-1, 0] if periodic else [0, 1])) % n
    diff = sp.csr_matrix((np.tile([-1.0 / d, 1.0 / d], m),
                          (rows, cols.ravel())), shape=(m, n))
    avg = sp.csr_matrix((np.full(2 * m, 0.5), (rows, cols.ravel())),
                        shape=(m, n))
    return diff, avg


def _lap1_normal(n, d, periodic):
    """1D Laplacian of a face component along its normal.  box: (n-1, n-1)
    on the interior faces, which lie between zero-valued wall nodes at
    distance d; periodic: (n, n)."""
    if periodic:
        return _lap1_periodic(n, d)
    main = -2.0 * np.ones(n - 1)
    off = np.ones(n - 2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (d * d)


def _lap1_tangential(n, d, periodic):
    """1D Laplacian of a face component along its face.  box: odd-reflection
    ghosts (wall at half spacing, value 0); periodic: wraps.  (n, n)."""
    if periodic:
        return _lap1_periodic(n, d)
    main = -2.0 * np.ones(n)
    main[0] = main[-1] = -3.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (d * d)


def _lap1_periodic(n, d):
    m = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                 [-1, 0, 1], format="lil")
    m[0, n - 1] += 1.0
    m[n - 1, 0] += 1.0
    return (m / (d * d)).tocsr()


def grid_operators(g):
    """{name: matrix} of the grid's G, Acf and Lvec, each assembled by
    Kronecker products of the explicit 1D stencils above in the order
    ``mesh.GridOperators`` assembles it."""
    per, nx, ny, dx, dy = g.periodic, g.nx, g.ny, g.dx, g.dy
    (d1x, a1x), (d1y, a1y) = _diff_avg(nx, dx, per), _diff_avg(ny, dy, per)
    Ix, Iy = sp.identity(nx, format="csr"), sp.identity(ny, format="csr")
    Ifx = sp.identity(d1x.shape[0], format="csr")
    Ify = sp.identity(d1y.shape[0], format="csr")
    Lxx = (sp.kron(_lap1_normal(nx, dx, per), Iy)
           + sp.kron(Ifx, _lap1_tangential(ny, dy, per))).tocsr()
    Lyy = (sp.kron(_lap1_tangential(nx, dx, per), Ify)
           + sp.kron(Ix, _lap1_normal(ny, dy, per))).tocsr()
    return {"G": sp.vstack([sp.kron(d1x, Iy, format="csr"),
                            sp.kron(Ix, d1y, format="csr")], format="csr"),
            "Acf": sp.vstack([sp.kron(a1x, Iy, format="csr"),
                              sp.kron(Ix, a1y, format="csr")], format="csr"),
            "Lvec": sp.block_diag([Lxx, Lyy], format="csr")}


def _conv_sets(g):
    """Per component (x, y) of the convected velocity, its two edge sets of
    ``mesh.convect_skew``, normal edges (on the cell lattice) first, then
    tangential (on the corner lines): each the edge-flux difference P, the
    edge average Q and the flux interpolation f, with the index (0: x, 1: y)
    of the component of M that f reads."""
    per = g.periodic
    d1x, a1x = _diff_avg(g.nx, g.dx, per)
    d1y, a1y = _diff_avg(g.ny, g.dy, per)
    Ix, Iy = sp.identity(g.nx), sp.identity(g.ny)
    Ifx, Ify = sp.identity(d1x.shape[0]), sp.identity(d1y.shape[0])
    return (
        ((sp.kron(d1x, Iy), sp.kron(a1x, Iy).T, sp.kron(a1x, Iy).T, 0),
         (sp.kron(Ifx, -d1y.T), sp.kron(Ifx, a1y), sp.kron(a1x, Ify), 1)),
        ((sp.kron(Ix, d1y), sp.kron(Ix, a1y).T, sp.kron(Ix, a1y).T, 1),
         (sp.kron(-d1x.T, Ify), sp.kron(a1x, Ify), sp.kron(Ifx, a1y), 0)),
    )


def convect_matrix(M):
    """Matrix of v -> convect_skew(g, M, v) (block diagonal over
    components) for the vector field M on g."""
    comps = (M.ux, M.uy)
    blocks = []
    for sets in _conv_sets(M.grid):
        dd = sum(P @ sp.diags(f @ comps[a]) @ Q for P, Q, f, a in sets)
        blocks.append(0.5 * (dd - dd.T))
    return sp.block_diag(blocks, format="csr")


def convect_flux_jacobian(v):
    """Matrix of M -> convect_skew(g, M, v) for the fixed vector field v on
    g (linear in the flux)."""
    rows = []
    for sets, u in zip(_conv_sets(v.grid), (v.ux, v.uy)):
        row = [None, None]
        for P, Q, f, a in sets:
            row[a] = 0.5 * (P @ sp.diags(Q @ u) - Q.T @ sp.diags(P.T @ u)) @ f
        rows.append(row)
    return sp.bmat(rows, format="csr")


def velocity_form(g, eta, delta):
    """2 B^T diag(eta) B over the strains plus delta Lvec^T Lvec."""
    ops = g.ops
    Wc = sp.diags(2.0 * eta * g.dV)
    Wk = sp.diags((ops.Acorner @ eta) * g.dV)
    Axx = ops.B11.T @ Wc @ ops.B11 + ops.B12x.T @ Wk @ ops.B12x
    Axy = ops.B12x.T @ Wk @ ops.B12y
    Ayy = ops.B22.T @ Wc @ ops.B22 + ops.B12y.T @ Wk @ ops.B12y
    A = sp.bmat([[Axx, Axy], [Axy.T, Ayy]], format="csr")
    return (A + delta * g.dV * (ops.Lvec.T @ ops.Lvec)).tocsr()


def diffusion(g, w):
    """The cell diffusion operator D diag(w) G of face coefficients w."""
    return (g.ops.D @ sp.diags(w) @ g.ops.G).tocsr()


def saddle(g, Jvv):
    """J_SS over [v, p, b] (``b`` periodic only) around its velocity block
    ``Jvv``: the pressure gradient, the continuity rows with the first
    replaced by the pressure pin and, periodic, the border rows and
    columns of the velocity component sums."""
    ops = g.ops
    nc = g.n_cells
    D_mod = ops.D.tolil()
    D_mod[0, :] = 0.0
    p_pin = sp.csr_matrix(([1.0], ([0], [0])), shape=(nc, nc))
    if not g.periodic:
        return sp.bmat([[Jvv, ops.G], [D_mod.tocsr(), p_pin]], format="csc")
    E = np.zeros((g.n_faces, 2))
    E[:g.n_xfaces, 0] = 1.0
    E[g.n_xfaces:, 1] = 1.0
    E = sp.csr_matrix(E)
    return sp.bmat([[Jvv, ops.G, E],
                    [D_mod.tocsr(), p_pin, None],
                    [E.T, None, sp.csr_matrix((2, 2))]], format="csc")


def divergence_free(g, A):
    """``A``, a matrix over [v, p, b] (``b`` periodic only) and any
    further unknowns, reduced to [psi, ...] with v = C psi: blockdiag(C, I)
    on the columns, blockdiag(C^T, I) on the rows, the p and b rows and
    columns dropped."""
    C = g.ops.C
    ns = g.n_faces + g.n_cells + (2 if g.periodic else 0)
    blocks = [sp.vstack([C, sp.csr_matrix((ns - g.n_faces, C.shape[1]))])]
    if A.shape[0] > ns:
        blocks.append(sp.identity(A.shape[0] - ns))
    P = sp.block_diag(blocks, format="csc")
    return (P.T @ A @ P).tocsc()


def jacobian(t):
    """The Jacobian of the saddle form at the iterate ``t`` (with the
    pressure, pin and border rows the stepper no longer iterates on)
    assembled block by block, in the unknown order [v, p, b, q, mu, phi]
    (``b`` periodic only); v0 mode: [q, mu, phi]."""
    lin, cset, cfg, tau = t.lin, t.cset, t.cfg, t.tau
    g = lin.grid
    ops = g.ops
    eps = lin.params.epsilon
    delta = lin.params.delta
    nc = g.n_cells
    Ic = sp.identity(nc, format="csr")
    lap_q = diffusion(g, lin.m_faces)
    lap_mu = diffusion(g, lin.mt_faces)

    fq_p = cset.fp(t.q)
    gq_p = cset.gp(t.q)
    hq_p = cset.hp(t.q)
    Wp_it = cset.Wp(t.phi)
    dH = cset.dsecant_W_da(t.phi, lin.phi_k)

    Jqq = sp.diags(fq_p * t.W_phi / (eps * tau) + gq_p / tau) - lap_q
    if not cfg.v0_mode:
        Dq_surf = sp.diags(fq_p * lin.W_k / eps + gq_p)
        Jqq = Jqq + ops.Afc @ sp.diags(t.v) @ ops.G @ Dq_surf
    Jq_phi = sp.diags(t.f_q * Wp_it / (eps * tau))
    Jmu_mu = -lap_mu
    Jmu_phi = Ic / tau
    Jp_q = sp.diags(-hq_p * t.H / eps)
    Jp_mu = Ic
    Jp_phi = (eps * (ops.D @ ops.G) - sp.diags(t.h_q * dH / eps)
              - (delta / tau) * Ic)
    CC = sp.bmat([[Jqq, None, Jq_phi],
                  [None, Jmu_mu, Jmu_phi],
                  [Jp_q, Jp_mu, Jp_phi]], format="csc")
    if cfg.v0_mode:
        return CC

    nf = g.n_faces
    vf = VectorField(g, t.v)
    Jvv = (lin.A_form / g.dV
           + sp.diags((ops.Acf @ t.rho_it) / tau)
           + convect_matrix(VectorField(g, t.M))
           + convect_flux_jacobian(vf) @ sp.diags(lin.rho_k_faces)
           - 0.5 * sp.diags(ops.Acf @ ((t.rho_it - lin.rho_k) / tau)))
    Gpk = sp.diags(lin.grad_phi_k)
    Jvq = Gpk @ ops.Acf @ sp.diags(hq_p * lin.Wp_k / eps)
    Jvmu = -(Gpk @ ops.Acf) \
        - convect_flux_jacobian(vf) @ (sp.diags(lin.jcoef_faces) @ ops.G)
    Jvphi = 0.5 * sp.diags(t.v) @ ops.Acf @ sp.diags(cset.rhop(t.phi) / tau)
    Jqv = ops.Afc @ sp.diags(t.grad_surf)
    Jmv = ops.Afc @ Gpk
    SS = saddle(g, Jvv)
    npb = SS.shape[0] - nf              # the p and b unknowns
    SC = sp.vstack([sp.hstack([Jvq, Jvmu, Jvphi]),
                    sp.csr_matrix((npb, 3 * nc))])
    CS = sp.hstack([sp.vstack([Jqv, Jmv, sp.csr_matrix((nc, nf))]),
                    sp.csr_matrix((3 * nc, npb))])
    return sp.bmat([[SS, SC], [CS, CC]], format="csc")


def transport_defect(state_k, state_k1, cset, params):
    """tau * (q-transport + phi-transport - capillary power) of the step
    from ``state_k`` to ``state_k1``, each form evaluated from the two
    states with the old-level coefficients the stepper freezes."""
    g = state_k.grid
    ops = g.ops
    eps = params.epsilon
    tau = state_k1.t - state_k.t
    v1 = state_k1.v.data
    phi_k = state_k.phi.data
    grad_phi_k = ops.G @ phi_k
    W_k = cset.W(phi_k)
    q1, mu1 = state_k1.q.data, state_k1.mu.data
    surf = cset.f(q1) * W_k / eps + cset.g(q1)
    Y = float((ops.Afc @ ((ops.G @ surf) * v1)) @ q1) * g.dV
    Z = float((ops.Afc @ (grad_phi_k * v1)) @ mu1) * g.dV
    cap = (ops.Acf @ (mu1 - cset.h(q1) * cset.Wp(phi_k) / eps)) * grad_phi_k
    X = float(cap @ v1) * g.dV
    return tau * (Y + Z - X)
