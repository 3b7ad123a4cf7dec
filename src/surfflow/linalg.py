"""The velocity form and the one certified direct solve outside the stepper.

``assemble_velocity_form`` builds the viscous-plus-biharmonic form matrix
the stepper's momentum block and the energy audit share.
``MeanPoissonSolver`` solves the mean-augmented variable-coefficient
Neumann-Poisson problem div(w grad x) - (integral of x) = rhs, which is
invertible on the whole cell space (the mean functional removes the
constant kernel), by a sparse LU of the bordered operator.  Every solve is
certified by recomputing the residual through a forward application of the
operator and raises ``SolverFailure`` when it misses the tolerance.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Grid

__all__ = ["SolverFailure", "MeanPoissonSolver", "assemble_velocity_form"]

REL_TOL = 1e-10
ABS_TOL = 1e-14


class SolverFailure(RuntimeError):
    """A linear solve whose forward residual missed the tolerance."""


def assemble_velocity_form(grid: Grid, eta_cells: np.ndarray,
                           delta: float) -> sp.csr_matrix:
    """Form matrix of  2 integral eta(phi) Dv : Dw  +  delta integral Lap v . Lap w.

    Normal strains are evaluated at cells, the shear strain at corners with
    the viscosity averaged there; the regularization term pairs the discrete
    componentwise Laplacians, which weakly imposes a vanishing Laplacian on
    the boundary.  Symmetric positive definite on the no-slip velocity space.
    """
    ops = grid.ops
    eta_cells = np.asarray(eta_cells, dtype=float).ravel()
    Wc = sp.diags(2.0 * eta_cells * grid.dV)
    Wk = sp.diags((ops.Acorner @ eta_cells) * grid.dV)
    Axx = ops.B11.T @ Wc @ ops.B11 + ops.B12x.T @ Wk @ ops.B12x
    Axy = ops.B12x.T @ Wk @ ops.B12y
    Ayy = ops.B22.T @ Wc @ ops.B22 + ops.B12y.T @ Wk @ ops.B12y
    A = sp.bmat([[Axx, Axy], [Axy.T, Ayy]], format="csr")
    if delta > 0.0:
        bih = sp.block_diag([ops.Lxx.T @ ops.Lxx, ops.Lyy.T @ ops.Lyy],
                            format="csr")
        A = (A + delta * grid.dV * bih).tocsr()
    return A


class MeanPoissonSolver:
    """Solves  div(w grad x) - (integral x) * 1 = rhs  on cell fields.

    The operator is the variable-coefficient Neumann Laplacian made
    invertible by subtracting the integral functional; no cell is pinned.
    Factorized once per coefficient field and reused.
    """

    def __init__(self, grid: Grid, coeff_faces: np.ndarray):
        coeff_faces = np.asarray(coeff_faces, dtype=float).ravel()
        if coeff_faces.size != grid.n_faces:
            raise ValueError("coefficient must live on faces")
        if np.any(coeff_faces <= 0):
            raise ValueError("mean-augmented solve needs positive face coefficients")
        ops = grid.ops
        self.lap = (ops.D @ sp.diags(coeff_faces) @ ops.G).tocsr()
        self.dV = grid.dV
        self.volume = grid.volume
        e = np.full((grid.n_cells, 1), 1.0)
        self._lu = spla.splu(sp.bmat([[self.lap, e], [e.T, None]], format="csc"))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.lap @ x - (self.dV * x.sum())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float).ravel()
        n = rhs.size
        nb = float(np.linalg.norm(rhs))
        if nb == 0.0:
            return np.zeros(n)
        # integral of x is determined by integrating the equation:
        # the diffusion part integrates to zero exactly
        int_x = -float(rhs.sum()) * self.dV / self.volume
        sol = self._lu.solve(np.concatenate([rhs + int_x, [0.0]]))
        x = sol[:n] + int_x / self.volume
        res = float(np.linalg.norm(self.apply(x) - rhs))
        target = REL_TOL * nb + ABS_TOL
        if res > max(target, 1e-9 * nb):
            raise SolverFailure(f"mean-augmented solve residual {res:.3e} "
                                f"> {target:.3e}")
        return x
