import numpy as np
import pytest
import scipy.sparse.linalg as spla

from irkprec.assembly import (assemble_mass, assemble_stiffness, coefficient_preset,
                              read_matrix_market, write_matrix_market)
from irkprec.butcher import gauss_legendre, nystrom_from, radau_iia
from irkprec.errors import SubsolveError
from irkprec.krylov import gmres
from irkprec.mesh import build_hierarchy, build_mesh
from irkprec.precond import VCycleSubsolver, build_preconditioner, galerkin_levels
from irkprec.stageop import StageOperator

ALL_KINDS = ("J", "GSL", "TRIU", "LD", "DU")


@pytest.fixture(scope="module")
def system_k1():
    mesh = build_mesh(1)
    coeff = coefficient_preset("constant-ones")
    return mesh, assemble_mass(mesh), assemble_stiffness(mesh, coeff), coeff


class TestApplyInverse:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_matches_dense_inverse(self, system_k1, kind, s):
        mesh, M, F, _ = system_k1
        t = radau_iia(s)
        h_t = 0.3
        prec = build_preconditioner(t, kind, M, F, h_t, 1, subsolve="exact")
        Ph = StageOperator(prec.P, M, F, h_t, 1).materialize()
        rng = np.random.default_rng(s)
        r = rng.standard_normal(prec.size)
        z = prec.apply_inverse(r)
        z_dense = np.linalg.solve(Ph, r)
        assert np.linalg.norm(z - z_dense) <= 1e-10 * np.linalg.norm(z_dense)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip_with_stage_operator(self, system_k1, kind):
        # apply_inverse(P) after apply(P_h as operator) recovers the input
        mesh, M, F, _ = system_k1
        t = nystrom_from(gauss_legendre(3))
        h_t = 0.4
        prec = build_preconditioner(t, kind, M, F, h_t, 2, subsolve="exact")
        op_p = StageOperator(prec.P, M, F, h_t, 2)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(prec.size)
        back = prec.apply_inverse(op_p.apply(x))
        assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

    def test_jacobi_blocks_independent(self, system_k1):
        mesh, M, F, _ = system_k1
        t = radau_iia(2)
        prec = build_preconditioner(t, "J", M, F, 0.5, 1, subsolve="exact")
        N = mesh.num_nodes
        r = np.zeros(2 * N)
        r[:N] = np.random.default_rng(0).standard_normal(N)
        z = prec.apply_inverse(r)
        assert np.abs(z[N:]).max() == 0.0  # no coupling into stage 2

    def test_perfect_preconditioner_single_iteration(self, system_k1):
        # P = A itself: the preconditioner is an exact solve of the system
        mesh, M, F, _ = system_k1
        t = radau_iia(3)
        h_t = 0.3
        op = StageOperator(t, M, F, h_t, 1)
        x, report = gmres(op, op.solve,
                          np.random.default_rng(1).standard_normal(op.size),
                          tol=1e-10)
        assert report.iterations == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_inverse_transpose_consistent(self, system_k1, kind):
        mesh, M, F, _ = system_k1
        t = radau_iia(3)
        prec = build_preconditioner(t, kind, M, F, 0.3, 1, subsolve="exact")
        Ph = StageOperator(prec.P, M, F, 0.3, 1).materialize()
        rng = np.random.default_rng(2)
        r = rng.standard_normal(prec.size)
        z = prec.apply_inverse_transpose(r)
        assert np.linalg.norm(z - np.linalg.solve(Ph.T, r)) <= 1e-10 * np.linalg.norm(z)

    def test_small_ht_reduces_to_mass_solve(self, system_k1):
        mesh, M, F, _ = system_k1
        t = radau_iia(2)
        lu = spla.splu(M.tocsc())
        rng = np.random.default_rng(3)
        r = rng.standard_normal(2 * mesh.num_nodes)
        N = mesh.num_nodes
        mass_z = np.concatenate([lu.solve(r[:N]), lu.solve(r[N:])])
        for kind in ALL_KINDS:
            prec = build_preconditioner(t, kind, M, F, 1e-7, 1, subsolve="exact")
            z = prec.apply_inverse(r)
            assert np.linalg.norm(z - mass_z) <= 1e-4 * np.linalg.norm(mass_z)

    def test_zero_diagonal_rejected(self, system_k1):
        mesh, M, F, _ = system_k1
        bad = radau_iia(2).A.copy()
        bad[0, 0] = 0.0
        with pytest.raises(SubsolveError):
            build_preconditioner(bad, "J", M, F, 0.5, 1, subsolve="exact")


class TestVCycle:
    def make_vcycle(self, k_fine, tau, preset="constant-ones"):
        hierarchy = build_hierarchy(k_fine)
        mesh = build_mesh(k_fine)
        coeff = coefficient_preset(preset)
        levels = galerkin_levels(assemble_mass(mesh), assemble_stiffness(mesh, coeff),
                                 hierarchy.prolongations)
        return VCycleSubsolver(levels, hierarchy.prolongations, tau)

    def test_zero_input(self):
        sub = self.make_vcycle(3, 0.1)
        r = np.zeros(sub.S[-1].shape[0])
        assert np.array_equal(sub.solve(r), r)

    def test_coarsest_level_exact(self):
        # a one-level hierarchy is just the coarse LU solve
        sub = self.make_vcycle(1, 0.1)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(sub.S[0].shape[0])
        z = sub.solve(r)
        assert np.linalg.norm(sub.S[0] @ z - r) <= 1e-12 * np.linalg.norm(r)

    @pytest.mark.parametrize("tau", [2.0 ** -5, 0.1, 1.0, 10.0])
    def test_contraction_factor(self, tau):
        # one cycle cuts the energy-norm error by at least 0.7 every time
        sub = self.make_vcycle(5, tau)
        S = sub.S[-1]
        n = S.shape[0]
        rng = np.random.default_rng(8)
        x_star = rng.standard_normal(n)
        b = S @ x_star
        x = np.zeros(n)

        def energy(e):
            return np.sqrt(e @ (S @ e))

        for _ in range(10):
            before = energy(x_star - x)
            x = x + sub.solve(b - S @ x)
            after = energy(x_star - x)
            assert after <= 0.7 * before

    @pytest.mark.parametrize("preset", ["constant-ones", "constant-diffusion"])
    def test_galerkin_levels_match_assembly(self, preset):
        # on nested P1 meshes R^T (M + c F) R is the coarse mesh's M + c F
        # for constant coefficients
        k, tau = 4, 0.3
        sub = self.make_vcycle(k, tau, preset)
        coeff = coefficient_preset(preset)
        assert len(sub.S) == k
        for S, mesh in zip(sub.S, (build_mesh(j) for j in range(1, k + 1))):
            ref = assemble_mass(mesh) + tau * assemble_stiffness(mesh, coeff)
            assert spla.norm(S - ref) <= 1e-13 * spla.norm(ref)

    def test_recursion_bypasses_public_solve(self):
        # one subsolve is one call of solve, however many levels it visits
        sub = self.make_vcycle(4, 0.1)
        calls = []
        solve = sub.solve
        sub.solve = lambda r: calls.append(1) or solve(r)
        sub.solve(np.ones(sub.S[-1].shape[0]))
        assert len(calls) == 1


class TestVCycleSubsolves:
    @pytest.mark.parametrize("kind", ("GSL", "LD", "DU"))
    def test_preconditioner_close_to_exact(self, kind):
        # a V-cycle-backed preconditioner approximates its exact version
        k = 3
        mesh = build_mesh(k)
        coeff = coefficient_preset("variable")
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coeff)
        hierarchy = build_hierarchy(k)
        t = radau_iia(3)
        h_t = 0.3
        exact = build_preconditioner(t, kind, M, F, h_t, 1, subsolve="exact")
        mg = build_preconditioner(t, kind, M, F, h_t, 1, subsolve="vcycle",
                                  hierarchy=hierarchy)
        rng = np.random.default_rng(9)
        r = rng.standard_normal(exact.size)
        z_exact = exact.apply_inverse(r)
        z_mg = mg.apply_inverse(r)
        rel = np.linalg.norm(z_mg - z_exact) / np.linalg.norm(z_exact)
        assert rel < 0.5  # a single cycle is a rough but usable solve

    def test_requires_hierarchy(self):
        mesh = build_mesh(2)
        coeff = coefficient_preset("constant-ones")
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coeff)
        with pytest.raises(ValueError):
            build_preconditioner(radau_iia(2), "LD", M, F, 0.5, 1,
                                 subsolve="vcycle")

    def test_hierarchy_mesh_mismatch(self):
        mesh = build_mesh(3)
        coeff = coefficient_preset("constant-ones")
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coeff)
        with pytest.raises(ValueError):
            build_preconditioner(radau_iia(2), "LD", M, F, 0.5, 1,
                                 subsolve="vcycle",
                                 hierarchy=build_hierarchy(2))

    def test_needs_only_matrices_and_hierarchy(self, tmp_path):
        # M and F read back from Matrix Market files carry no mesh or
        # coefficient field, and the V-cycle needs neither
        k = 3
        mesh = build_mesh(k)
        coeff = coefficient_preset("variable")
        for name, A in (("M", assemble_mass(mesh)), ("F", assemble_stiffness(mesh, coeff))):
            write_matrix_market(A, tmp_path / f"{name}.mtx")
        M, F = (read_matrix_market(tmp_path / f"{name}.mtx") for name in "MF")
        t = radau_iia(2)
        prec = build_preconditioner(t, "LD", M, F, 0.3, 1, subsolve="vcycle",
                                    hierarchy=build_hierarchy(k))
        exact = build_preconditioner(t, "LD", M, F, 0.3, 1, subsolve="exact")
        r = np.random.default_rng(10).standard_normal(prec.size)
        z_exact = exact.apply_inverse(r)
        assert np.linalg.norm(prec.apply_inverse(r) - z_exact) < 0.5 * np.linalg.norm(z_exact)
