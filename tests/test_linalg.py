"""The velocity form, the grid's pinned Poisson solve and the projection."""

import numpy as np
import pytest

import reference_assembly
import surfflow.linalg as linalg
from fields import cell_shape, div, from_function, ux2d, uy2d
from surfflow.linalg import (SolverFailure, assemble_velocity_form,
                             gradient_potential, poisson_lu)
from surfflow.mesh import Grid, VectorField
from surfflow.state import DIV_TOL, project_divergence_free


class TestMeanPoisson:
    """The pinned LU of D G and the potential of a face field's gradient
    part, its right-hand side's mean subtracted; a pinned potential is
    c - c[0]."""

    def test_zero_rhs(self, rng):
        g = Grid(12, 12)
        x = gradient_potential(g, np.zeros(g.n_faces))
        assert np.all(x == 0.0)

    def test_recovers_forward_application(self, rng):
        for bc in ("box", "periodic"):
            g = Grid(16, 12, 1.0, 1.0, bc)
            x_true = rng.standard_normal(g.n_cells)
            x_true[0] = 0.0
            rhs = reference_assembly.diffusion(g, np.ones(g.n_faces)) @ x_true
            rhs[0] = 0.0
            x = poisson_lu(g).solve(rhs)
            assert np.abs(x - x_true).max() < 1e-10
            c = rng.standard_normal(g.n_cells)
            x = gradient_potential(g, g.ops.G @ c)
            assert np.abs(x - (c - c[0])).max() < 1e-10

    def test_one_dimensional_analytic_solution(self):
        # y-uniform cosine on an elongated grid is the 1D Neumann problem;
        # the discrete solution matches cos(kx)/k^2 to O(dx^2)
        errs = []
        for n in (32, 64):
            g = Grid(n, 2, 1.0, 1.0, "box")
            k = 2 * np.pi / g.lx
            rhs = from_function(g, lambda X, Y: -np.cos(k * X)).data
            rhs = rhs - rhs.mean()
            rhs[0] = 0.0
            sol = poisson_lu(g).solve(rhs)
            exact = from_function(
                g, lambda X, Y: np.cos(k * X) / k ** 2).data
            errs.append(np.abs(sol - (exact - exact[0])).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_failure_states_the_applied_bound(self, rng, monkeypatch):
        # a solve perturbed by a potential d with max |D G d| = 1 leaves
        # about the perturbation's size as the projection's divergence: one
        # pass is accepted just below DIV_TOL, and just above it both passes
        # miss and the failure quotes the reached value and DIV_TOL
        g = Grid(10, 10)
        lu = poisson_lu(g)
        d = rng.standard_normal(g.n_cells)
        d /= np.abs(g.ops.D @ (g.ops.G @ d)).max()

        class Perturbed:
            size = 0.0

            def solve(self, b):
                return lu.solve(b) + self.size * d

        perturbed = Perturbed()
        monkeypatch.setattr(linalg, "poisson_lu", lambda grid: perturbed)
        v = VectorField(g, rng.standard_normal(g.n_faces))
        perturbed.size = 0.5 * DIV_TOL
        assert np.abs(div(project_divergence_free(v)).data).max() <= DIV_TOL
        perturbed.size = 2.0 * DIV_TOL
        with pytest.raises(SolverFailure,
                           match=rf"\|div\| [12]\.\d{{3}}e-12 > {DIV_TOL:.3e}$"):
            project_divergence_free(v)


class TestSaddle:
    """The mass-block saddle problem solved by the initial projection."""

    def test_gradient_rhs_recovers_pressure(self, rng):
        for bc in ("box", "periodic"):
            g = Grid(14, 14, 1.0, 1.0, bc)
            c = rng.standard_normal(g.n_cells)
            gc = g.ops.G @ c
            v = project_divergence_free(VectorField(g, gc))
            assert np.abs(v.data).max() < 1e-11
            # the pressure of a gradient load is its potential, cell 0 pinned
            p = gradient_potential(g, gc)
            assert np.abs(p - (c - c[0])).max() < 1e-9

    def test_divergence_free_rhs_identity_block(self, rng):
        g = Grid(12, 12)
        u = rng.standard_normal(g.n_faces)
        v0 = project_divergence_free(VectorField(g, u))
        v1 = project_divergence_free(v0)
        assert np.abs(v1.data - v0.data).max() < 1e-11
        p1 = gradient_potential(g, v0.data)
        assert np.abs(p1).max() < 1e-11

    def test_output_discretely_divergence_free(self, rng):
        g = Grid(16, 16)
        v = project_divergence_free(
            VectorField(g, rng.standard_normal(g.n_faces)))
        assert np.abs(div(v).data).max() < 1e-10
        # orthogonality to all discrete gradients
        c = rng.standard_normal(g.n_cells)
        assert abs((g.ops.G @ c) @ v.data) * g.dV < 1e-10


class TestVelocityForm:
    def test_symmetry_probe(self, rng):
        for bc in ("box", "periodic"):
            g = Grid(12, 10, 1.0, 1.0, bc)
            A = assemble_velocity_form(g, 1.0 + rng.random(g.n_cells), 2e-3)
            for _ in range(8):
                x = rng.standard_normal(g.n_faces)
                y = rng.standard_normal(g.n_faces)
                a, b = float((A @ x) @ y), float(x @ (A @ y))
                assert abs(a - b) / (1.0 + abs(a) + abs(b)) < 1e-13

    def test_positive_definite_on_noslip_space(self, rng):
        g = Grid(8, 8)
        A = assemble_velocity_form(g, np.ones(g.n_cells), 0.0)
        for _ in range(10):
            v = rng.standard_normal(g.n_faces)
            assert v @ (A @ v) > 0.0

    def test_matches_brute_force_assembly(self, rng):
        # independent dense-loop assembly of 2 eta Dv:Dw on a tiny box grid
        g = Grid(4, 3, 1.0, 1.0, "box")
        eta = 1.0 + rng.random(g.n_cells)
        A = assemble_velocity_form(g, eta, 0.0)
        eta2 = eta.reshape(cell_shape(g))
        nf = g.n_faces

        def strain_terms(vvec):
            v = VectorField(g, vvec)
            ux, uy = ux2d(v), uy2d(v)
            nx, ny = g.nx, g.ny
            d11 = np.zeros((nx, ny))
            d22 = np.zeros((nx, ny))
            for i in range(nx):
                for j in range(ny):
                    w = ux[i, j] if i < nx - 1 else 0.0
                    e = ux[i - 1, j] if i > 0 else 0.0
                    d11[i, j] = (w - e) / g.dx
                    n_ = uy[i, j] if j < ny - 1 else 0.0
                    s_ = uy[i, j - 1] if j > 0 else 0.0
                    d22[i, j] = (n_ - s_) / g.dy
            d12 = np.zeros((nx + 1, ny + 1))
            for i in range(nx + 1):
                for j in range(ny + 1):
                    # d(ux)/dy with odd ghosts; boundary x-faces are zero
                    def uxv(fi, jj):
                        if not (0 <= fi < nx - 1):
                            return 0.0
                        if jj < 0:
                            return -ux[fi, 0]
                        if jj >= ny:
                            return -ux[fi, ny - 1]
                        return ux[fi, jj]

                    def uyv(ii, fj):
                        if not (0 <= fj < ny - 1):
                            return 0.0
                        if ii < 0:
                            return -uy[0, fj]
                        if ii >= nx:
                            return -uy[nx - 1, fj]
                        return uy[ii, fj]

                    a = (uxv(i - 1, j) - uxv(i - 1, j - 1)) / g.dy
                    b = (uyv(i, j - 1) - uyv(i - 1, j - 1)) / g.dx
                    d12[i, j] = 0.5 * (a + b)
            return d11, d22, d12

        eta_k = (g.ops.Acorner @ eta).reshape(g.nx + 1, g.ny + 1)
        for _ in range(4):
            v1 = rng.standard_normal(nf)
            v2 = rng.standard_normal(nf)
            a11, a22, a12 = strain_terms(v1)
            b11, b22, b12 = strain_terms(v2)
            form = (2.0 * eta2 * (a11 * b11 + a22 * b22)).sum() * g.dV \
                + (2.0 * eta_k * 2.0 * a12 * b12).sum() * g.dV
            assert v1 @ (A @ v2) == pytest.approx(form, rel=1e-12, abs=1e-12)

    def test_matches_product_reference(self, rng):
        # the fixed-pattern map against B^T diag(w) B by sparse products
        for bc in ("box", "periodic"):
            g = Grid(9, 7, 1.0, 1.3, bc)
            eta = 1.0 + rng.random(g.n_cells)
            for delta in (0.0, 2e-3):
                A = assemble_velocity_form(g, eta, delta)
                R = reference_assembly.velocity_form(g, eta, delta)
                assert abs(A - R).max() <= 1e-14 * abs(R).max()
            # one pattern for every eta and delta
            B = assemble_velocity_form(g, 2.0 + rng.random(g.n_cells), 0.0)
            assert np.array_equal(A.indptr, B.indptr)
            assert np.array_equal(A.indices, B.indices)

    def test_biharmonic_term_added(self, rng):
        g = Grid(8, 8)
        A0 = assemble_velocity_form(g, np.ones(g.n_cells), 0.0)
        A1 = assemble_velocity_form(g, np.ones(g.n_cells), 0.5)
        v = rng.standard_normal(g.n_faces)
        lv = g.ops.Lvec @ v
        assert v @ (A1 @ v) - v @ (A0 @ v) == pytest.approx(
            0.5 * g.dV * (lv @ lv), rel=1e-12)

