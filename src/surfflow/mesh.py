"""Staggered rectangular grid and mimetic difference operators.

Scalars (phi, mu, q, p) live at cell centers; vector components live on the
cell faces (x-component on vertical faces, y-component on horizontal faces).
Two boundary modes:

  box      -- velocity components vanish on boundary faces (which are not
              stored), cell scalars get homogeneous Neumann ghosts
  periodic -- everything wraps

The boundary mode is decided only in the 1D building blocks below; the
operator bundle combines them by Kronecker products in one form for both
modes.

The discrete gradient and divergence are exact negative adjoints of each
other under the uniform cell/face inner products (D = -G^T as matrices), and
cell<->face averaging operators are exact transposes of each other.  Every
cancellation in the discrete energy accounting relies on such exact
dualities, not on consistency orders, so the operators are assembled once as
sparse matrices and reused everywhere (quadrature = midpoint sums with the
same weights).  Every operator of the bundle and of skew convection is a
``KernelCSR``: its product with a float64 vector calls the kernel scipy's
own ``A @ x`` ends in, without scipy's Python dispatch, and is scipy's
result bit for bit (``linalg``'s fixed-pattern matrices are ``KernelCSC``).

Layout: a field with index (ix, iy) is flattened C-style to ix*ny + iy.
Operators acting along x are kron(Op1d, I_ny); along y, kron(I_nx, Op1d).
``ScalarField`` and ``VectorField`` hold a state's arrays; the operators,
skew convection (``convect_skew``) included, take and return plain cell or
face arrays, so the stepper's Newton iterate is four arrays.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp
# the kernels scipy's own ``A @ x`` ends in for a CSR / CSC matrix
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

__all__ = [
    "Grid", "ScalarField", "VectorField", "sbp_selftest", "SbpReport",
    "write_field_snapshot", "KernelCSR", "KernelCSC",
    "FIELD_KIND_CELL", "FIELD_KIND_XFACE", "FIELD_KIND_YFACE",
]

BOX = "box"
PERIODIC = "periodic"

FIELD_KIND_CELL = 0
FIELD_KIND_XFACE = 1
FIELD_KIND_YFACE = 2

_SNAPSHOT_MAGIC = b"CHNSFLD1"
_SNAPSHOT_HEADER = struct.Struct("<8sIIIIdq")   # magic nx ny kind pad time step
_SNAPSHOT_HEADER_LEN = 64


# ---------------------------------------------------------------------------
# the kernel path of a sparse matrix-vector product
# ---------------------------------------------------------------------------

_F8 = np.dtype(np.float64)


class _KernelPath:
    """``A @ x`` for a C-contiguous 1-D float64 ndarray x of A's column
    count, with float64 data: scipy's own kernel (``_matvec``) called into
    a fresh zero vector, as ``A @ x`` ends in, without scipy's dispatch.
    Any other operand, a vector of the wrong length included (which scipy
    rejects), goes to scipy, so every result is scipy's bit for bit."""

    def __matmul__(self, x):
        m, n = self._shape
        if (x.__class__ is np.ndarray and x.shape == (n,) and x.dtype is _F8
                and self.data.dtype is _F8 and x.flags.c_contiguous):
            out = np.zeros(m)
            self._matvec(m, n, self.indptr, self.indices, self.data, x, out)
            return out
        return super().__matmul__(x)


class KernelCSR(_KernelPath, sp.csr_matrix):
    """A CSR matrix whose ``@`` on a vector takes the kernel path."""
    _matvec = staticmethod(csr_matvec)


class KernelCSC(_KernelPath, sp.csc_matrix):
    """A CSC matrix whose ``@`` on a vector takes the kernel path."""
    _matvec = staticmethod(csc_matvec)


# ---------------------------------------------------------------------------
# 1D sparse building blocks
# ---------------------------------------------------------------------------

def _diff1(n: int, d: float, periodic: bool) -> sp.csr_matrix:
    """Cell -> face difference.  box: (n-1, n) interior faces; periodic:
    (n, n), the wrap entry (0, n-1) on its own diagonal."""
    if periodic:
        return sp.diags([-1.0 / d, 1.0 / d, -1.0 / d], [-1, 0, n - 1],
                        shape=(n, n), format="csr")
    return sp.diags([-1.0 / d, 1.0 / d], [0, 1], shape=(n - 1, n),
                    format="csr")


def _avg1(n: int, periodic: bool) -> sp.csr_matrix:
    """Cell -> face two-point average, same sparsity as _diff1."""
    m = _diff1(n, 2.0, periodic).copy()
    m.data = np.abs(m.data)
    return m


def _lap1_tangential(n: int, d: float, periodic: bool) -> sp.csr_matrix:
    """1D Laplacian of a face component along its face, -U^T U / d^2 with U
    the unit difference.  box: odd-reflection ghosts (wall at half spacing,
    value 0); periodic: wraps.  (n, n).  Scaled once, after the product of
    exact +-1 entries: a product of d-scaled differences can be 1 ulp off
    the explicit stencil."""
    U = _diff1(n, 1.0, periodic)
    lap = -(U.T @ U)
    if not periodic:
        lap = lap - sp.diags(np.r_[2.0, np.zeros(n - 2), 2.0])
    return (lap / (d * d)).tocsr()


def _d1_corner(n: int, d: float, periodic: bool) -> sp.csr_matrix:
    """Face-tangential difference onto corner lines, with odd reflection at
    walls.  box: (n+1, n); periodic: (n, n)."""
    if periodic:
        return _diff1(n, d, True)
    return _between_walls(_diff1(n, d, False), 2.0 / d, -2.0 / d)


def _avg1_corner(n: int, periodic: bool) -> sp.csr_matrix:
    """Cell -> corner-line average; nearest cell at box boundary lines."""
    if periodic:
        return _avg1(n, True)
    return _between_walls(_avg1(n, False), 1.0, 1.0)


def _between_walls(m: sp.csr_matrix, first: float,
                   last: float) -> sp.csr_matrix:
    """The (n-1, n) interior-line rows ``m`` between the wall rows ``first``
    on cell 0 and ``last`` on cell n-1: (n+1, n)."""
    n = m.shape[1]

    def wall(value, col):
        return sp.csr_matrix(([value], ([0], [col])), shape=(1, n))

    return sp.vstack([wall(first, 0), m, wall(last, n - 1)], format="csr")


def _embed_wall_zero(n: int, periodic: bool) -> sp.csr_matrix:
    """Map interior tangential-edge values into the full edge line, zero at
    wall edges.  box: (n+1, n-1); periodic: identity (n, n)."""
    if periodic:
        return sp.identity(n, format="csr")
    return sp.eye(n + 1, n - 1, k=-1, format="csr")


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

class Grid:
    """Uniform staggered grid on [0, lx] x [0, ly]."""

    def __init__(self, nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
                 bc: str = BOX):
        if nx < 2 or ny < 2:
            raise ValueError("grid needs nx, ny >= 2")
        if bc not in (BOX, PERIODIC):
            raise ValueError(f"bc must be {BOX} or {PERIODIC}, got {bc!r}")
        if lx <= 0 or ly <= 0:
            raise ValueError("domain extents must be positive")
        self.nx = int(nx)
        self.ny = int(ny)
        self.lx = float(lx)
        self.ly = float(ly)
        self.bc = bc
        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny
        self.dV = self.dx * self.dy
        self._ops = None

    # shapes ---------------------------------------------------------------
    @property
    def periodic(self) -> bool:
        return self.bc == PERIODIC

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def xface_shape(self) -> Tuple[int, int]:
        return (self.nx, self.ny) if self.periodic else (self.nx - 1, self.ny)

    @property
    def yface_shape(self) -> Tuple[int, int]:
        return (self.nx, self.ny) if self.periodic else (self.nx, self.ny - 1)

    @property
    def n_xfaces(self) -> int:
        s = self.xface_shape
        return s[0] * s[1]

    @property
    def n_yfaces(self) -> int:
        s = self.yface_shape
        return s[0] * s[1]

    @property
    def n_faces(self) -> int:
        return self.n_xfaces + self.n_yfaces

    def __repr__(self):
        return f"Grid({self.nx}x{self.ny}, {self.lx}x{self.ly}, {self.bc})"

    # coordinates ----------------------------------------------------------
    def cell_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def xface_coords(self):
        if self.periodic:
            x = np.arange(self.nx) * self.dx
        else:
            x = np.arange(1, self.nx) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    @property
    def ops(self) -> "GridOperators":
        if self._ops is None:
            self._ops = GridOperators(self)
        return self._ops


class GridOperators:
    """Sparse operator bundle for one grid (field units, no volume weights)."""

    def __init__(self, g: Grid):
        per = g.periodic
        nx, ny, dx, dy = g.nx, g.ny, g.dx, g.dy
        Ix = sp.identity(nx, format="csr")
        Iy = sp.identity(ny, format="csr")
        d1x, d1y = _diff1(nx, dx, per), _diff1(ny, dy, per)
        a1x, a1y = _avg1(nx, per), _avg1(ny, per)

        self.Gx = sp.kron(d1x, Iy, format="csr")
        self.Gy = sp.kron(Ix, d1y, format="csr")
        self.G = sp.vstack([self.Gx, self.Gy], format="csr")
        self.D = (-self.G.T).tocsr()

        self.Acf_x = sp.kron(a1x, Iy, format="csr")
        self.Acf_y = sp.kron(Ix, a1y, format="csr")
        self.Acf = sp.vstack([self.Acf_x, self.Acf_y], format="csr")
        self.Afc = self.Acf.T.tocsr()

        # componentwise vector Laplacian (Dirichlet ghosts in box mode);
        # along its normal a face component's is -U U^T / d^2, U the unit
        # difference (box: the faces lie between zero-valued wall nodes)
        Ifx = sp.identity(d1x.shape[0], format="csr")     # x-face lines in x
        Ify = sp.identity(d1y.shape[0], format="csr")     # y-face lines in y
        ux, uy = _diff1(nx, 1.0, per), _diff1(ny, 1.0, per)
        Lxx = (sp.kron(-(ux @ ux.T) / (dx * dx), Iy)
               + sp.kron(Ifx, _lap1_tangential(ny, dy, per))).tocsr()
        Lyy = (sp.kron(_lap1_tangential(nx, dx, per), Ify)
               + sp.kron(Ix, -(uy @ uy.T) / (dy * dy))).tocsr()
        self.Lvec = sp.block_diag([Lxx, Lyy], format="csr")

        # symmetric-gradient pieces: normal strains at cells, shear at corners
        self.B11 = (-self.Gx.T).tocsr()
        self.B22 = (-self.Gy.T).tocsr()
        dcx, dcy = _d1_corner(nx, dx, per), _d1_corner(ny, dy, per)
        ex, ey = _embed_wall_zero(nx, per), _embed_wall_zero(ny, per)
        self.B12x = sp.kron(ex, dcy, format="csr")
        self.B12y = sp.kron(dcx, ey, format="csr")
        self.Acorner = sp.kron(_avg1_corner(nx, per), _avg1_corner(ny, per),
                               format="csr")

        # skew convection 0.5 O ((Phi M) * (E v)): E, Phi and O are built on
        # first use (``skew_convection``), so a v0 run never builds them

        # discrete curl, nodes -> faces: (u, v) = (d psi/dy, -d psi/dx) with
        # psi on the cell corners.  box: interior nodes only (psi = 0 on the
        # walls); periodic: every node but node 0, where psi is pinned.  The
        # Kronecker factors make D @ C and C^T @ G exactly zero, and the
        # columns span the divergence-free face fields (periodic: those
        # with zero component means)
        C = sp.vstack([sp.kron(Ifx, d1y.T), -sp.kron(d1x.T, Ify)],
                      format="csr")
        self.C = C[:, 1:].tocsr() if per else C
        self.CT = self.C.T.tocsr()
        # every operator above applies through the kernel path
        vars(self).update((name, KernelCSR(op))
                          for name, op in vars(self).items())
        self._cache = {}

    def cached(self, key, build):
        """The per-grid object cached under ``key`` (a fixed pattern, see
        ``linalg.FixedPattern``, or a constant LU), built by ``build()`` on
        first use."""
        found = self._cache.get(key)
        if found is None:
            found = self._cache.setdefault(key, build())
        return found


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class ScalarField:
    grid: Grid
    data: np.ndarray

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.n_cells))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.n_cells, float(value)))

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float).ravel()
        if self.data.size != self.grid.n_cells:
            raise ValueError("scalar field size does not match grid")

    def integral(self) -> float:
        return float(self.data.sum() * self.grid.dV)

    def mean(self) -> float:
        return float(self.data.mean())

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))


@dataclass
class VectorField:
    grid: Grid
    data: np.ndarray

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros(grid.n_faces))

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float).ravel()
        if self.data.size != self.grid.n_faces:
            raise ValueError("vector field size does not match grid")

    @property
    def ux(self) -> np.ndarray:
        return self.data[:self.grid.n_xfaces]

    @property
    def uy(self) -> np.ndarray:
        return self.data[self.grid.n_xfaces:]

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

class SkewConvection(NamedTuple):
    """The stacked edge operators of ``convect_skew``, which is
    0.5 O ((Phi M) * (E v)).  Each component u of v has two edge sets, each
    with an edge-flux difference P (edges -> faces), an average Q (faces ->
    edges) and a flux interpolation f from one component of M onto its
    edges; the set adds the antisymmetric part of P diag(f M) Q to u's rows
    and columns.  Normal edges sit on the cell lattice, a half spacing ahead
    of their face, tangential edges on the corner lines, a half spacing
    behind (box wall edges, where M's normal components vanish, carry zero
    flux and are left out)."""
    E: KernelCSR                # faces -> edges: Q u and P^T u per set
    Phi: KernelCSR              # faces -> edges: f M, twice per set
    O: KernelCSR                # edges -> faces: [P, -Q^T] per set


def skew_convection(g: Grid) -> SkewConvection:
    """The grid's stacked convection operators, built on first use."""
    def build():
        ops, per = g.ops, g.periodic
        d1x, d1y = _diff1(g.nx, g.dx, per), _diff1(g.ny, g.dy, per)
        a1x, a1y = _avg1(g.nx, per), _avg1(g.ny, per)
        Ifx, Ify = sp.identity(d1x.shape[0]), sp.identity(d1y.shape[0])
        # (P, Q, f, flux component) per component and edge set, normal first
        sets = (((ops.Gx, ops.Acf_x.T, ops.Acf_x.T, 0),
                 (sp.kron(Ifx, -d1y.T), sp.kron(Ifx, a1y), sp.kron(a1x, Ify), 1)),
                ((ops.Gy, ops.Acf_y.T, ops.Acf_y.T, 1),
                 (sp.kron(-d1x.T, Ify), sp.kron(a1x, Ify), sp.kron(Ifx, a1y), 0)))
        E = sp.block_diag([sp.vstack([B for P, Q, _, _ in comp for B in (Q, P.T)])
                           for comp in sets], format="csr")
        O = sp.block_diag([sp.hstack([B for P, Q, _, _ in comp for B in (P, -Q.T)])
                           for comp in sets], format="csr")
        Phi = sp.bmat([[f if a == c else None for c in (0, 1)]
                       for comp in sets for _, _, f, a in comp for _ in (0, 1)],
                      format="csr")
        return SkewConvection(KernelCSR(E), KernelCSR(Phi), KernelCSR(O))
    return g.ops.cached("convection", build)


def convect_skew(g: Grid, M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Skew-symmetric convection of the face array v by the face mass flux
    M, both of ``g``'s faces.

    Discretizes (M . grad) v + (div M) v / 2 component by component as the
    antisymmetric part of a conservative edge-flux divergence, stacked as
    0.5 O ((Phi M) * (E v)) (see ``SkewConvection``), so that
    <convect_skew(g, M, v), v> = 0 to round-off for any M, even div M != 0.
    """
    c = skew_convection(g)
    return 0.5 * (c.O @ ((c.Phi @ M) * (c.E @ v)))


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SbpReport:
    grid: str
    checks: tuple        # (name, passed, worst_residual)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_text(self) -> str:
        lines = [f"discrete-duality self-test on {self.grid}"]
        for name, ok, res in self.checks:
            lines.append(f"  [{'pass' if ok else 'FAIL'}] {name:34s} residual={res:.3e}")
        return "\n".join(lines)


# sbp_selftest's random trials, their seed, and the largest residual a
# check passes with
SELFTEST_TRIALS = 20
SELFTEST_SEED = 7
SELFTEST_TOL = 1e-12


def sbp_selftest(grid: Grid) -> SbpReport:
    """Verify the discrete identities the energy accounting depends on.

    On SELFTEST_TRIALS random fields: grad/-div adjointness, the discrete
    divergence theorem, symmetry / negative semidefiniteness / constant
    kernel of the variable-coefficient cell Laplacian, cell<->face
    interpolation duality, operator linearity, and symmetry of the velocity
    form as ``linalg.assemble_velocity_form`` assembles it (a random
    positive viscosity, delta = 1e-3).
    """
    from .linalg import assemble_velocity_form     # linalg imports mesh

    rng = np.random.default_rng(SELFTEST_SEED)
    ops = grid.ops
    dV = grid.dV

    worst = {k: 0.0 for k in [
        "grad_div_adjoint", "divergence_theorem", "laplace_symmetry",
        "laplace_negative", "laplace_kernel_constants", "laplace_mean_zero",
        "interpolation_duality", "linearity", "velocity_form_symmetry"]}

    for _ in range(SELFTEST_TRIALS):
        c = rng.standard_normal(grid.n_cells)
        c2 = rng.standard_normal(grid.n_cells)
        u = rng.standard_normal(grid.n_faces)
        w = np.exp(rng.standard_normal(grid.n_faces))   # positive face coeff

        gc = ops.G @ c
        du = ops.D @ u
        lhs = float(gc @ u) * dV
        rhs = -float(c @ du) * dV
        scale = 1.0 + abs(lhs) + abs(rhs)
        worst["grad_div_adjoint"] = max(worst["grad_div_adjoint"],
                                        abs(lhs - rhs) / scale)

        tot = abs(float(du.sum()) * dV) / (1.0 + float(np.abs(u).max()))
        worst["divergence_theorem"] = max(worst["divergence_theorem"], tot)

        Lc = ops.D @ (w * (ops.G @ c))
        Lc2 = ops.D @ (w * (ops.G @ c2))
        s1 = float(Lc @ c2) * dV
        s2 = float(c @ Lc2) * dV
        worst["laplace_symmetry"] = max(worst["laplace_symmetry"],
                                        abs(s1 - s2) / (1.0 + abs(s1) + abs(s2)))

        ray = float(Lc @ c) * dV
        worst["laplace_negative"] = max(worst["laplace_negative"],
                                        max(ray, 0.0) / (1.0 + abs(ray)))

        const = ops.D @ (w * (ops.G @ np.ones(grid.n_cells)))
        worst["laplace_kernel_constants"] = max(worst["laplace_kernel_constants"],
                                                float(np.abs(const).max()))

        worst["laplace_mean_zero"] = max(worst["laplace_mean_zero"],
                                         abs(float(Lc.sum()) * dV)
                                         / (1.0 + float(np.abs(Lc).max())))

        a1 = float((ops.Acf @ c) @ u) * dV
        a2 = float(c @ (ops.Afc @ u)) * dV
        worst["interpolation_duality"] = max(worst["interpolation_duality"],
                                             abs(a1 - a2) / (1.0 + abs(a1)))

        lin = ops.G @ (2.5 * c - 0.5 * c2) - (2.5 * gc - 0.5 * (ops.G @ c2))
        worst["linearity"] = max(worst["linearity"],
                                 float(np.abs(lin).max()) / (1.0 + float(np.abs(gc).max())))

        v2 = rng.standard_normal(grid.n_faces)
        A = assemble_velocity_form(
            grid, np.exp(rng.standard_normal(grid.n_cells)), 1e-3)
        b1 = float(u @ (A @ v2))
        b2 = float(v2 @ (A @ u))
        worst["velocity_form_symmetry"] = max(worst["velocity_form_symmetry"],
                                              abs(b1 - b2) / (1.0 + abs(b1)))

    checks = tuple((name, res <= SELFTEST_TOL, res)
                   for name, res in worst.items())
    return SbpReport(grid=repr(grid), checks=checks)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def write_field_snapshot(path, data: np.ndarray, nx: int, ny: int, kind: int,
                         time: float, step: int) -> None:
    """Flat little-endian float64 payload after a 64-byte header."""
    header = _SNAPSHOT_HEADER.pack(_SNAPSHOT_MAGIC, nx, ny, kind, 0, time, step)
    header += b"\0" * (_SNAPSHOT_HEADER_LEN - len(header))
    payload = np.ascontiguousarray(data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
