"""Fixed-pattern assembly, the velocity form, and the one certified direct
solve outside the stepper.

A ``FixedPattern`` is the sparsity pattern of a matrix whose values are
linear in a few weight vectors, as in ``X diag(w) Z`` or
``X diag(w1) Y diag(w2) Z`` with constant operators X, Y, Z.  It is built
once per grid (``GridOperators.cached``) with every structural nonzero,
explicit zeros included, plus a sparse map from the weights to the data
array; a matrix is then one sparse product ``data = map @ w``, and every
matrix of one pattern shares its ``indptr``/``indices``.
``assemble_velocity_form`` builds the viscous-plus-biharmonic form matrix
the stepper's momentum block and the energy audit share that way.
``MeanPoissonSolver`` solves the mean-augmented variable-coefficient
Neumann-Poisson problem div(w grad x) - (integral of x) = rhs, which is
invertible on the whole cell space (the mean functional removes the
constant kernel), by a sparse LU of the bordered operator.  Every solve is
certified by recomputing the residual through a forward application of the
operator and raises ``SolverFailure`` when it misses the tolerance.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Grid

__all__ = ["SolverFailure", "MeanPoissonSolver", "assemble_velocity_form",
           "velocity_form_pattern", "FixedPattern", "chain", "scaled"]

REL_TOL = 1e-10
ABS_TOL = 1e-14


class SolverFailure(RuntimeError):
    """A linear solve whose forward residual missed the tolerance."""


class Entries(NamedTuple):
    """Entries of one weighted term: entry (rows[i], cols[i]) takes
    ``coefs[i] * w[k[i]]`` for a weight vector w of length ``width``;
    ``pair`` = (r, c) when w is the product w1[r] * w2[c] of two vectors."""

    rows: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray
    k: np.ndarray
    width: int
    pair: Optional[tuple] = None


def chain(X, Z, Y=None, at=(0, 0)) -> Entries:
    """Entries of ``X diag(w) Z`` or, with Y, of ``X diag(w1) Y diag(w2) Z``.

    With Y the weight runs over Y's nonzeros (r, c): ``w1[r] * w2[c]``, Y's
    values folded into the coefficients.  ``at`` offsets rows and columns
    (the block position in a larger matrix).  Zero coefficients are left out.
    """
    X, Z = sp.csc_matrix(X), sp.csr_matrix(Z)
    pair = None
    if Y is not None:
        Y = sp.coo_matrix(Y)
        pair = (Y.row, Y.col)
        X = X[:, Y.row]
        X.data = X.data * np.repeat(Y.data, np.diff(X.indptr))
        Z = Z[Y.col, :]
    # every pair (nonzero of X's column k, nonzero of Z's row k), per k
    nz = np.diff(Z.indptr)
    count = np.diff(X.indptr) * nz
    k = np.repeat(np.arange(count.size, dtype=np.int32), count)
    t = np.arange(k.size, dtype=np.int32) \
        - np.repeat((np.cumsum(count) - count).astype(np.int32), count)
    a = X.indptr[k] + t // nz[k]
    b = Z.indptr[k] + t % nz[k]
    coefs = X.data[a] * Z.data[b]
    keep = coefs != 0.0
    return Entries(X.indices[a[keep]] + at[0], Z.indices[b[keep]] + at[1],
                   coefs[keep], k[keep], X.shape[1], pair)


def scaled(C, at=(0, 0)) -> Entries:
    """Entries of ``s * C`` for a constant matrix C and one scalar weight s."""
    C = sp.coo_matrix(C)
    return Entries(C.row + at[0], C.col + at[1], C.data,
                   np.zeros(C.nnz, dtype=np.int32), 1)


class FixedPattern:
    """CSC pattern of a matrix whose data is linear in named weight vectors.

    ``terms`` are (name, Entries) pairs; entries under one name add up and
    share its weight.  Entries at one position add up; the position stays
    structural even where the sum is zero.
    """

    def __init__(self, shape, terms):
        nrow, ncol = shape
        self.shape = shape
        self._terms = []            # (name, width, pair) in weight order
        start = {}
        for name, e in terms:
            if name not in start:
                start[name] = sum(width for _, width, _ in self._terms)
                self._terms.append((name, e.width, e.pair))
        keys, pos = np.unique(np.concatenate(
            [e.cols.astype(np.int64) * nrow + e.rows for _, e in terms]),
            return_inverse=True)
        self._map = sp.csr_matrix(
            (np.concatenate([e.coefs for _, e in terms]),
             (pos, np.concatenate([e.k + start[name] for name, e in terms]))),
            shape=(keys.size, sum(width for _, width, _ in self._terms)))
        self.indices = (keys % nrow).astype(np.int32)
        self.indptr = np.searchsorted(keys // nrow,
                                      np.arange(ncol + 1)).astype(np.int32)

    def matrix(self, weights: dict) -> sp.csc_matrix:
        """The matrix for ``weights``: name -> vector (a scalar broadcasts),
        or (w1, w2) for a term with a middle operator."""
        if weights.keys() != {name for name, _, _ in self._terms}:
            raise KeyError(f"weights {sorted(weights)} do not match the terms "
                           f"{sorted(name for name, _, _ in self._terms)}")
        parts = []
        for name, width, pair in self._terms:
            w = weights[name]
            if pair is not None:
                w = w[0][pair[0]] * w[1][pair[1]]
            parts.append(np.broadcast_to(w, (width,)))
        data = self._map @ np.concatenate(parts)
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def congruence(self, C) -> Entries:
        """Entries of ``C^T A C`` for the matrices A of this pattern, as a
        term whose weight is A's data array: one weight per nonzero of A,
        so the term has no more entries than A has nonzeros times the
        nonzeros of two rows of C, and no triple product per matrix."""
        C = sp.csr_matrix(C)
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return chain(C[self.indices].T, C[cols])

    def entries(self, at=(0, 0)) -> Entries:
        """This pattern's nonzeros as a term of a larger pattern, one weight
        per nonzero in data order."""
        n = self.indices.size
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return Entries(self.indices + at[0], cols + at[1], np.ones(n),
                       np.arange(n, dtype=np.int32), n)


def velocity_form_pattern(grid: Grid) -> FixedPattern:
    """The velocity form's pattern (biharmonic entries included), built on
    first use per grid."""
    def build():
        ops = grid.ops
        normal = sp.block_diag([ops.B11, ops.B22])    # normal strains, cells
        shear = sp.hstack([ops.B12x, ops.B12y])        # shear strain, corners
        return FixedPattern((grid.n_faces, grid.n_faces), [
            ("normal", chain(normal.T, normal)),
            ("shear", chain(shear.T, shear)),
            ("biharmonic", scaled(ops.Lvec.T @ ops.Lvec)),
        ])
    return grid.ops.cached("velocity_form", build)


def assemble_velocity_form(grid: Grid, eta_cells: np.ndarray,
                           delta: float) -> sp.csc_matrix:
    """Form matrix of  2 integral eta(phi) Dv : Dw  +  delta integral Lap v . Lap w.

    Normal strains are evaluated at cells, the shear strain at corners with
    the viscosity averaged there; the regularization term pairs the discrete
    componentwise Laplacians, which weakly imposes a vanishing Laplacian on
    the boundary.  Symmetric positive definite on the no-slip velocity space.
    One pattern for every eta and delta (delta = 0 leaves the biharmonic
    entries as explicit zeros).
    """
    ops = grid.ops
    eta = np.asarray(eta_cells, dtype=float).ravel()
    wc = 2.0 * eta * grid.dV
    return velocity_form_pattern(grid).matrix({
        "normal": np.concatenate([wc, wc]),
        "shear": (ops.Acorner @ eta) * grid.dV,
        "biharmonic": delta * grid.dV,
    })


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
        bound = max(REL_TOL * nb + ABS_TOL, 1e-9 * nb)
        if res > bound:
            raise SolverFailure(f"mean-augmented solve residual {res:.3e} "
                                f"> {bound:.3e}")
        return x
