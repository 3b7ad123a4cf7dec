"""Fixed-pattern assembly, the velocity form, and the grid's one Poisson LU.

A ``FixedPattern`` is the sparsity pattern of a matrix whose values are
linear in a few weight vectors, as in ``X diag(w) Z`` or
``X diag(w1) Y diag(w2) Z`` with constant operators X, Y, Z.  It is built
once per grid (``GridOperators.cached``) with every structural nonzero,
explicit zeros included, plus a sparse map from the weights to the data
array; a matrix is then one sparse product ``data = map @ w``, and every
matrix of one pattern shares its ``indptr``/``indices``.
``assemble_velocity_form`` builds the viscous-plus-biharmonic form matrix
the stepper's momentum block and the energy audit share that way.
``poisson_lu`` is the LU of the cell Laplacian D G with cell 0 pinned, one
per grid; ``gradient_potential`` solves with it for the potential of a face
field's gradient part, which the initial projection removes and every
coupled residual takes as its pressure.  Every LU here and in the stepper
uses ``LU_OPTIONS``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Grid, KernelCSC, KernelCSR

__all__ = ["SolverFailure", "LU_OPTIONS", "poisson_lu", "gradient_potential",
           "assemble_velocity_form", "FixedPattern", "chain", "scaled"]

# SuperLU options of every LU.  J_CC ([q, mu, phi]), K and the pinned cell
# Laplacian are structurally symmetric with a zero-free diagonal: a
# minimum-degree ordering of J^T + J, applied to rows and columns alike,
# has half COLAMD's fill on J_CC; the diagonal pivots have passed the 0.01
# threshold on every matrix seen (no row exchanges).
LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                  options=dict(SymmetricMode=True))


class SolverFailure(RuntimeError):
    """A linear solve that missed its bound."""


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
        self._map = KernelCSR(
            (np.concatenate([e.coefs for _, e in terms]),
             (pos, np.concatenate([e.k + start[name] for name, e in terms]))),
            shape=(keys.size, sum(width for _, width, _ in self._terms)))
        self.indices = (keys % nrow).astype(np.int32)
        self.indptr = np.searchsorted(keys // nrow,
                                      np.arange(ncol + 1)).astype(np.int32)

    def matrix(self, weights: dict) -> KernelCSC:
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
        return KernelCSC((data, self.indices, self.indptr), shape=self.shape)


def assemble_velocity_form(grid: Grid, eta_cells: np.ndarray,
                           delta: float) -> KernelCSC:
    """Form matrix of  2 integral eta(phi) Dv : Dw  +  delta integral Lap v . Lap w.

    Normal strains are evaluated at cells, the shear strain at corners with
    the viscosity averaged there; the regularization term pairs the discrete
    componentwise Laplacians, which weakly imposes a vanishing Laplacian on
    the boundary.  Symmetric positive definite on the no-slip velocity space.
    One pattern per grid, built on first use, for every eta and delta
    (delta = 0 leaves the biharmonic entries as explicit zeros).
    """
    ops = grid.ops

    def pattern():
        normal = sp.block_diag([ops.B11, ops.B22])    # normal strains, cells
        shear = sp.hstack([ops.B12x, ops.B12y])        # shear strain, corners
        return FixedPattern((grid.n_faces, grid.n_faces), [
            ("normal", chain(normal.T, normal)),
            ("shear", chain(shear.T, shear)),
            ("biharmonic", scaled(ops.Lvec.T @ ops.Lvec)),
        ])

    eta = np.asarray(eta_cells, dtype=float).ravel()
    wc = 2.0 * eta * grid.dV
    return ops.cached("velocity_form", pattern).matrix({
        "normal": np.concatenate([wc, wc]),
        "shear": (ops.Acorner @ eta) * grid.dV,
        "biharmonic": delta * grid.dV,
    })


def poisson_lu(grid: Grid):
    """The LU of the cell Laplacian D G with cell 0 pinned (row and column
    0 those of the identity), one per grid: x = solve(r) with r[0] = 0 has
    x[0] = 0 and (D G x)[i] = r[i] for every i >= 1, and then
    (D G x)[0] = -sum(r[1:]), as the rows of D G add up to zero."""
    def build():
        ops = grid.ops
        n = grid.n_cells
        free = sp.diags(np.r_[0.0, np.ones(n - 1)])
        L = free @ ops.D @ ops.G @ free \
            + sp.csc_matrix(([1.0], ([0], [0])), shape=(n, n))
        L = L.tocsc()
        L.eliminate_zeros()
        return spla.splu(L, **LU_OPTIONS)
    return grid.ops.cached("pinned_poisson", build)


def gradient_potential(grid: Grid, f: np.ndarray) -> np.ndarray:
    """The cell field x with D G x = D f - mean(D f) and x[0] = 0: f - G x
    is f's divergence-free part up to round-off.  D f sums to zero up to
    round-off; subtracting its mean spreads that round-off over the cells
    rather than leaving it all to the pinned cell 0."""
    rhs = grid.ops.D @ f
    rhs -= rhs.mean()
    rhs[0] = 0.0
    return poisson_lu(grid).solve(rhs)
