"""Staggered-grid operators: exact dualities, consistency, convection, I/O."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from fields import (div, from_function, grad, iterate_of,
                    read_field_snapshot, ux2d, uy2d, view2d, yface_coords)
from surfflow.constitutive import ModelParams, build_default_set
from reference_assembly import (convect_flux_jacobian, convect_matrix,
                                grid_operators)
from surfflow.linalg import assemble_velocity_form
from surfflow.mesh import (FIELD_KIND_CELL, Grid, KernelCSC, KernelCSR,
                           ScalarField, VectorField, convect_skew,
                           sbp_selftest, skew_convection, write_field_snapshot)
from surfflow.state import State
from surfflow.stepper import StepConfig, _jacobian, _Terms, assemble_linear

BCS = ("box", "periodic")


def _stepper_diffusion(g, rng, m=None):
    """The stepper's frozen step over a random state, with mobilities that
    vary from face to face, and the diffusion blocks div(m grad .) and
    div(mtilde grad .) its Newton Jacobian applies: minus the (q, q) and
    (mu, mu) blocks of J_CC in v0 mode.  With f' = g' = 0 the (q, q) block
    holds no other term."""
    params = ModelParams()
    cset = dataclasses.replace(
        build_default_set(params),
        m=m or (lambda phi, q: np.exp(0.3 * np.tanh(phi + q))),
        mtilde=lambda phi: np.exp(-0.3 * np.tanh(phi)),
        fp=np.zeros_like, gp=np.zeros_like)
    s = State(v=VectorField.zeros(g), p=ScalarField.zeros(g),
              phi=ScalarField(g, rng.standard_normal(g.n_cells)),
              mu=ScalarField.zeros(g),
              q=ScalarField(g, rng.standard_normal(g.n_cells)))
    cfg = StepConfig(v0_mode=True)
    lin = assemble_linear(s, g, cset, params, cfg)
    J = _jacobian(_Terms(lin, cset, cfg, cfg.tau, *iterate_of(s)))
    nc = g.n_cells                      # J_CC over [q, mu, phi]
    return lin, [-J.CC[i * nc:(i + 1) * nc, i * nc:(i + 1) * nc]
                 for i in range(2)]


class TestGradDiv:
    def test_constant_gives_zero_gradient(self):
        for bc in BCS:
            g = Grid(12, 10, 1.0, 2.0, bc)
            u = grad(ScalarField.full(g, 3.7))
            assert np.all(u.data == 0.0)

    def test_linear_field_periodic_wrap(self):
        g = Grid(16, 16, 1.0, 1.0, "periodic")
        u = grad(from_function(g, lambda X, Y: X))
        ux = ux2d(u)
        assert np.allclose(ux[1:, :], 1.0)
        assert np.allclose(ux[0, :], 1.0 - g.lx / g.dx)

    def test_adjointness_random_fields(self, rng):
        for bc in BCS:
            g = Grid(20, 24, 1.3, 0.8, bc)
            for _ in range(5):
                c = ScalarField(g, rng.standard_normal(g.n_cells))
                u = VectorField(g, rng.standard_normal(g.n_faces))
                lhs = float(grad(c).data @ u.data) * g.dV
                rhs = -float(c.data @ div(u).data) * g.dV
                assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs) + abs(rhs))

    def test_zero_divergence_of_zero_field(self):
        g = Grid(8, 8)
        assert np.all(div(VectorField.zeros(g)).data == 0.0)

    def test_laplacian_consistency_interior(self):
        # div(grad(x^2 + y^2)) -> 4 at interior cells, O(dx^2)
        errs = []
        for n in (16, 32):
            g = Grid(n, n, 1.0, 1.0, "box")
            c = from_function(g, lambda X, Y: X ** 2 + Y ** 2)
            lap = view2d(div(grad(c)))
            interior = lap[2:-2, 2:-2]
            errs.append(np.abs(interior - 4.0).max())
        assert errs[0] < 1e-10    # quadratic is differenced exactly inside
        assert errs[1] < 1e-10

    def test_discrete_divergence_theorem(self, rng):
        for bc in BCS:
            g = Grid(14, 18, 1.0, 1.0, bc)
            u = VectorField(g, rng.standard_normal(g.n_faces))
            assert abs(div(u).data.sum() * g.dV) < 1e-13


class TestStencils:
    """The 1D stencils the operators are built from: ``G``, ``Acf`` and
    ``Lvec`` equal, byte for byte, their assembly from explicit stencils,
    on box and periodic grids with unit and non-unit spacing, odd and
    non-square sizes."""

    @pytest.mark.parametrize("nx,ny,lx,bc", [
        (7, 8, 0.7, "box"), (10, 11, 0.7, "periodic"), (24, 25, 1.0, "periodic"),
        (32, 33, 1.0, "box"), (5, 6, 1.3, "box"), (2, 3, 0.3, "box"),
        (2, 2, 1.0, "periodic")])
    @pytest.mark.parametrize("name", ["G", "Acf", "Lvec"])
    def test_operator_equals_explicit_stencils(self, nx, ny, lx, bc, name):
        g = Grid(nx, ny, lx, 1.0, bc)
        ref, op = grid_operators(g)[name], getattr(g.ops, name)
        assert op.shape == ref.shape
        for arr in ("indptr", "indices", "data"):
            a, b = getattr(op, arr), getattr(ref, arr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), arr


class TestCurl:
    """The curl C maps corner values psi to face velocities; its columns
    span the divergence-free fields (box) or those with zero component
    means (periodic), exactly."""

    GRIDS = [(12, 10, 1.0, 2.0), (7, 9, 1.3, 0.8), (6, 6, 1.0, 1.0)]

    @pytest.mark.parametrize("bc", BCS)
    def test_div_curl_and_curl_grad_vanish_exactly(self, bc):
        for nx, ny, lx, ly in self.GRIDS:
            ops = Grid(nx, ny, lx, ly, bc).ops
            assert abs(ops.D @ ops.C).max() == 0.0
            assert abs(ops.C.T @ ops.G).max() == 0.0

    @pytest.mark.parametrize("bc", BCS)
    def test_rank_is_the_divergence_free_dimension(self, bc):
        # box: div has rank n_cells - 1 on the faces; periodic: the two
        # constant component modes are divergence-free but not curls
        for nx, ny, lx, ly in self.GRIDS:
            g = Grid(nx, ny, lx, ly, bc)
            rank = np.linalg.matrix_rank(g.ops.C.toarray())
            expected = g.n_faces - g.n_cells + (-1 if g.periodic else 1)
            assert rank == expected == g.ops.C.shape[1]


class TestLaplaceNeumann:
    def test_constants_in_kernel(self, rng):
        for bc in BCS:
            g = Grid(12, 12, 1.0, 1.0, bc)
            lin, _ = _stepper_diffusion(g, rng)
            # the residual applies the blocks factored, D (w G c), which is
            # exact on constants (the assembled product is only to round-off)
            c = np.full(g.n_cells, 2.0)
            for w in (lin.m_faces, lin.mt_faces):
                assert np.all(g.ops.D @ (w * (g.ops.G @ c)) == 0.0)

    def test_periodic_eigenfunction(self, rng):
        g = Grid(64, 8, 1.0, 1.0, "periodic")
        k = 2 * np.pi / g.lx
        c = from_function(g, lambda X, Y: np.cos(k * X))
        # the unit Laplacian as the residual applies it, factored
        out = g.ops.D @ (g.ops.G @ c.data)
        sym = -(2.0 * np.sin(0.5 * k * g.dx) / g.dx) ** 2
        # exact discrete eigenvalue, and second-order close to the analytic one
        assert np.abs(out - sym * c.data).max() < 1e-11
        assert abs(sym + k * k) < k ** 4 * g.dx ** 2

    def test_symmetry(self, rng):
        for bc in BCS:
            g = Grid(10, 14, 1.0, 1.0, bc)
            _, laps = _stepper_diffusion(g, rng)
            a = rng.standard_normal(g.n_cells)
            b = rng.standard_normal(g.n_cells)
            for lap in laps:
                s1 = float((lap @ a) @ b)
                s2 = float(a @ (lap @ b))
                assert abs(s1 - s2) <= 1e-13 * (1 + abs(s1) + abs(s2))

    def test_mean_preservation(self, rng):
        g = Grid(16, 16, 1.0, 1.0, "box")
        _, laps = _stepper_diffusion(g, rng)
        c = rng.standard_normal(g.n_cells)
        for lap in laps:
            assert abs((lap @ c).sum() * g.dV) < 1e-13

    def test_rejects_nonpositive_coefficient(self, rng):
        # the stepper checks its mobilities against [c1, c2] before building
        # the diffusion blocks
        g = Grid(8, 8)
        with pytest.raises(ValueError, match="coefficient m leaves"):
            _stepper_diffusion(g, rng, m=lambda phi, q: 0.0 * phi)


class TestVectorLaplacian:
    def test_zero(self):
        g = Grid(8, 8)
        assert np.all(g.ops.Lvec @ np.zeros(g.n_faces) == 0.0)

    def test_linear_profile_harmonic_periodic(self):
        g = Grid(16, 16, 1.0, 1.0, "periodic")
        # constant x-velocity: harmonic, Laplacian vanishes
        u = np.concatenate([np.full(g.n_xfaces, 0.7), np.zeros(g.n_yfaces)])
        assert np.abs(g.ops.Lvec @ u).max() < 1e-13


class TestSelfTest:
    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("n", (16, 32))
    def test_identities_pass(self, bc, n):
        rep = sbp_selftest(Grid(n, n, 1.0, 1.0, bc))
        assert rep.passed, rep.to_text()

    def test_asymmetric_velocity_form_fails(self, monkeypatch):
        # the assembled form with one entry moved off its transpose's
        import surfflow.linalg as linalg
        assemble = linalg.assemble_velocity_form

        def skewed(grid, eta, delta):
            A = assemble(grid, eta, delta).tolil()
            A[0, 1] += 1e-6 * abs(A[0, 1])
            return A.tocsc()

        monkeypatch.setattr(linalg, "assemble_velocity_form", skewed)
        rep = sbp_selftest(Grid(12, 12))
        failed = [name for name, ok, _ in rep.checks if not ok]
        assert failed == ["velocity_form_symmetry"], rep.to_text()

    def test_biased_gradient_breaks_adjointness(self, rng):
        # deliberately one-sided (forward) difference as the gradient
        g = Grid(12, 12, 1.0, 1.0, "periodic")
        n = 12
        rows = np.repeat(np.arange(n), 2)
        cols = np.empty(2 * n, dtype=int)
        cols[0::2] = np.arange(n)
        cols[1::2] = (np.arange(n) + 1) % n
        vals = np.tile([-1.0 / g.dx, 1.0 / g.dx], n)
        biased1d = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        Gb = sp.vstack([sp.kron(biased1d, sp.identity(n)),
                        sp.kron(sp.identity(n), biased1d)]).tocsr()
        c = rng.standard_normal(g.n_cells)
        u = rng.standard_normal(g.n_faces)
        lhs = float((Gb @ c) @ u) * g.dV
        rhs = -float(c @ (g.ops.D @ u)) * g.dV
        assert abs(lhs - rhs) > 1e-6 * (1 + abs(lhs))


class TestConvection:
    @staticmethod
    def _dense_reference(g, M, v):
        """Brute-force skew convection via explicit per-component loops."""
        out = np.zeros(g.n_faces)
        per = g.periodic
        nx, ny, dx, dy = g.nx, g.ny, g.dx, g.dy
        ux = ux2d(v)
        uy = uy2d(v)
        Mx = ux2d(M)
        My = uy2d(M)

        def get(arr, i, j, n0, n1):
            if per:
                return arr[i % n0, j % n1]
            if 0 <= i < n0 and 0 <= j < n1:
                return arr[i, j]
            return 0.0            # absent boundary-normal faces

        # x component: x-edges at cells, y-edges at corner rows
        sx = g.xface_shape
        cx = np.zeros(sx)
        for fi in range(sx[0]):
            for j in range(sx[1]):
                # physical x-face index offset: box face fi is at (fi+1)*dx
                ei = fi if per else fi + 1
                # east/west cell-edge fluxes and values
                phiW = 0.5 * (get(Mx, fi - 1, j, *sx) + get(Mx, fi, j, *sx))
                phiE = 0.5 * (get(Mx, fi, j, *sx) + get(Mx, fi + 1, j, *sx))
                uW = 0.5 * (get(ux, fi - 1, j, *sx) + get(ux, fi, j, *sx))
                uE = 0.5 * (get(ux, fi, j, *sx) + get(ux, fi + 1, j, *sx))
                dW = (get(ux, fi, j, *sx) - get(ux, fi - 1, j, *sx)) / dx
                dE = (get(ux, fi + 1, j, *sx) - get(ux, fi, j, *sx)) / dx
                dd = (phiE * uE - phiW * uW) / dx
                aa = 0.5 * (phiE * dE + phiW * dW)
                # y edges at corners
                sy = g.yface_shape

                def myc(jc):
                    # average My in x onto the corner column of this face
                    if per:
                        return 0.5 * (get(My, ei - 1, jc, *sy) + get(My, ei, jc, *sy))
                    return 0.5 * (get(My, ei - 1, jc - 1, *sy) + get(My, ei, jc - 1, *sy))

                phiS = myc(j)
                phiN = myc(j + 1)
                if per:
                    uS = 0.5 * (get(ux, fi, j - 1, *sx) + get(ux, fi, j, *sx))
                    uN = 0.5 * (get(ux, fi, j, *sx) + get(ux, fi, j + 1, *sx))
                    dS = (get(ux, fi, j, *sx) - get(ux, fi, j - 1, *sx)) / dy
                    dN = (get(ux, fi, j + 1, *sx) - get(ux, fi, j, *sx)) / dy
                else:
                    uS = 0.0 if j == 0 else 0.5 * (ux[fi, j - 1] + ux[fi, j])
                    uN = 0.0 if j == sx[1] - 1 else 0.5 * (ux[fi, j] + ux[fi, j + 1])
                    ghostS = -ux[fi, j] if j == 0 else ux[fi, j - 1]
                    ghostN = -ux[fi, j] if j == sx[1] - 1 else ux[fi, j + 1]
                    dS = (ux[fi, j] - ghostS) / dy
                    dN = (ghostN - ux[fi, j]) / dy
                dd += (phiN * uN - phiS * uS) / dy
                aa += 0.5 * (phiN * dN + phiS * dS)
                cx[fi, j] = 0.5 * (dd + aa)
        out[:g.n_xfaces] = cx.ravel()
        return out

    def test_exact_skewness(self, rng):
        for bc in BCS:
            g = Grid(9, 7, 1.0, 1.3, bc)
            M = VectorField(g, rng.standard_normal(g.n_faces))
            v = VectorField(g, rng.standard_normal(g.n_faces))
            w = VectorField(g, rng.standard_normal(g.n_faces))
            c = convect_skew(g, M.data, v.data)
            cw = convect_skew(g, M.data, w.data)
            assert abs(c @ v.data) < 1e-12 * (1 + np.abs(c).max())
            assert abs(c @ w.data + cw @ v.data) \
                < 1e-12 * (1 + abs(c @ w.data))

    def test_x_component_matches_dense_reference(self, rng):
        for bc in BCS:
            g = Grid(5, 4, 1.0, 1.0, bc)
            M = VectorField(g, rng.standard_normal(g.n_faces))
            v = VectorField(g, rng.standard_normal(g.n_faces))
            got = convect_skew(g, M.data, v.data)[:g.n_xfaces]
            ref = self._dense_reference(g, M, v)[:g.n_xfaces]
            assert np.abs(got - ref).max() < 1e-13, bc

    def test_y_component_matches_x_on_transposed_grid(self, rng):
        # swapping the axes maps y-faces onto x-faces, so the y-component
        # is the x-component (checked against the dense reference) of the
        # transposed problem
        for bc in BCS:
            g = Grid(5, 4, 1.0, 1.3, bc)
            gt = Grid(4, 5, 1.3, 1.0, bc)
            M = VectorField(g, rng.standard_normal(g.n_faces))
            v = VectorField(g, rng.standard_normal(g.n_faces))

            def transposed(u):
                return VectorField(gt, np.concatenate([uy2d(u).T.ravel(),
                                                       ux2d(u).T.ravel()]))

            got = uy2d(VectorField(g, convect_skew(g, M.data, v.data)))
            ref = ux2d(VectorField(gt, convect_skew(
                gt, transposed(M).data, transposed(v).data))).T
            assert np.abs(got - ref).max() < 1e-13, bc

    def test_matrix_and_flux_jacobian_agree_with_apply(self, rng):
        for bc in BCS:
            g = Grid(8, 6, 1.0, 1.0, bc)
            M = VectorField(g, rng.standard_normal(g.n_faces))
            dM = VectorField(g, rng.standard_normal(g.n_faces))
            v = VectorField(g, rng.standard_normal(g.n_faces))
            c1 = convect_matrix(M) @ v.data
            c2 = convect_skew(g, M.data, v.data)
            assert np.abs(c1 - c2).max() < 1e-13
            d1 = convect_flux_jacobian(v) @ dM.data
            d2 = convect_skew(g, dM.data, v.data)
            assert np.abs(d1 - d2).max() < 1e-13

    def test_consistency_with_skew_advection_form(self):
        # refinement against (M . grad)v + (div M) v / 2 for smooth fields
        errs = []
        for n in (16, 32, 64):
            g = Grid(n, n, 1.0, 1.0, "periodic")
            two = 2 * np.pi
            XF, YF = g.xface_coords()
            XG, YG = yface_coords(g)
            M = VectorField(g, np.concatenate([
                (np.sin(two * XF) * np.cos(two * YF)).ravel(),
                (0.5 * np.cos(two * XG) * np.sin(two * YG) + 0.3).ravel()]))
            v = VectorField(g, np.concatenate([
                (np.cos(two * XF) + 0.2 * np.sin(two * YF)).ravel(),
                (np.sin(two * XG) * np.cos(two * YG)).ravel()]))

            def Mx(x, y):
                return np.sin(two * x) * np.cos(two * y)

            def My(x, y):
                return 0.5 * np.cos(two * x) * np.sin(two * y) + 0.3

            def vx(x, y):
                return np.cos(two * x) + 0.2 * np.sin(two * y)

            h = 1e-6
            tgt = (Mx(XF, YF) * (vx(XF + h, YF) - vx(XF - h, YF)) / (2 * h)
                   + My(XF, YF) * (vx(XF, YF + h) - vx(XF, YF - h)) / (2 * h)
                   + 0.5 * ((Mx(XF + h, YF) - Mx(XF - h, YF)) / (2 * h)
                            + (My(XF, YF + h) - My(XF, YF - h)) / (2 * h))
                   * vx(XF, YF))
            got = convect_skew(g, M.data, v.data)[:g.n_xfaces].reshape(
                g.xface_shape)
            errs.append(np.abs(got - tgt).max())
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0


def _kernel_operators(g, rng):
    """(name, matrix) of every operator of ``g`` that a run applies through
    the kernel path: the bundle's, the skew-convection operators, and a
    velocity form (the fixed patterns' CSC matrices)."""
    ops = g.ops
    conv = skew_convection(g)
    form = assemble_velocity_form(g, np.exp(rng.standard_normal(g.n_cells)),
                                  1e-3)
    return ([(name, getattr(ops, name)) for name in
             ("G", "D", "Acf", "Afc", "C", "CT", "Lvec")]
            + list(conv._asdict().items()) + [("velocity_form", form)])


def _scipy_matmul(A, x):
    """``A @ x`` through scipy's own dispatch."""
    plain = sp.csc_matrix if isinstance(A, KernelCSC) else sp.csr_matrix
    return plain.__matmul__(A, x)


def _same_bits(a, b) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


class TestKernelPath:
    """``A @ x`` on a grid operator calls scipy's kernel directly for a
    C-contiguous 1-D float64 vector and gives scipy's result bit for bit;
    every other operand is scipy's own."""

    @pytest.mark.parametrize("bc", BCS)
    def test_vectors_match_scipy_bit_for_bit(self, rng, bc):
        g = Grid(9, 7, 1.0, 1.3, bc)
        for name, A in _kernel_operators(g, rng):
            n = A.shape[1]
            special = np.resize([0.0, -0.0, np.inf, -np.inf, np.nan], n)
            for x in (rng.standard_normal(n), special,
                      np.where(rng.random(n) < 0.3, special,
                               rng.standard_normal(n))):
                assert _same_bits(A @ x, _scipy_matmul(A, x)), name

    @pytest.mark.parametrize("bc", BCS)
    def test_wrong_length_raises(self, rng, bc):
        g = Grid(9, 7, 1.0, 1.3, bc)
        for name, A in _kernel_operators(g, rng):
            for n in (A.shape[1] - 1, A.shape[1] + 1):
                with pytest.raises(ValueError):
                    A @ np.ones(n)

    @pytest.mark.parametrize("bc", BCS)
    def test_other_operands_give_scipy_s_result(self, rng, bc):
        g = Grid(9, 7, 1.0, 1.3, bc)
        for name, A in _kernel_operators(g, rng):
            n = A.shape[1]
            x = rng.standard_normal(n)
            for other in (rng.standard_normal(2 * n)[::2],   # not contiguous
                          np.arange(n),                      # integer
                          x.astype(np.float32),
                          x[:, None],                        # 2-D
                          np.stack([x, 2.0 * x], axis=1)):
                assert _same_bits(A @ other, _scipy_matmul(A, other)), name
            S = sp.random(n, 3, density=0.5, random_state=1, format="csr")
            assert (abs(A @ S - _scipy_matmul(A, S)) > 0).nnz == 0, name

    @pytest.mark.parametrize("bc", BCS)
    def test_every_operator_takes_the_kernel_path(self, rng, bc):
        # a sparse operator added to the bundle, the convection operators or
        # the fixed patterns must not fall back to scipy's dispatch
        g = Grid(9, 7, 1.0, 1.3, bc)
        held = {name: op for name, op in vars(g.ops).items()
                if sp.issparse(op)}
        held.update(skew_convection(g)._asdict())
        assert {"G", "D", "Acf", "Afc", "C", "CT", "Lvec", "E", "Phi",
                "O"} <= held.keys()
        for name, op in held.items():
            assert type(op) is KernelCSR, name
        form = assemble_velocity_form(g, np.ones(g.n_cells), 1e-3)
        assert type(form) is KernelCSC


class TestSnapshots:
    def test_roundtrip(self, tmp_path, rng):
        g = Grid(6, 5)
        data = rng.standard_normal(g.n_cells)
        path = tmp_path / "phi_000003.bin"
        write_field_snapshot(path, data, g.nx, g.ny, FIELD_KIND_CELL,
                             time=0.25, step=3)
        assert path.stat().st_size == 64 + 8 * g.n_cells
        back, meta = read_field_snapshot(path)
        assert np.array_equal(back, data)
        assert meta == {"magic": b"CHNSFLD1", "nx": 6, "ny": 5,
                        "kind": FIELD_KIND_CELL, "time": 0.25, "step": 3,
                        "tail": bytes(24)}


class TestGridValidation:
    def test_minimum_size(self):
        with pytest.raises(ValueError, match="nx, ny"):
            Grid(1, 8)

    def test_unknown_bc(self):
        with pytest.raises(ValueError, match="bc"):
            Grid(8, 8, bc="open")
