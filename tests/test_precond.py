import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from irkprec.assembly import (assemble_mass, assemble_stiffness, coefficient_preset,
                              on_stencil, read_matrix_market, write_matrix_market)
from irkprec.butcher import gauss_legendre, nystrom_from, radau_iia
from irkprec.errors import SubsolveError
from irkprec.krylov import gmres
from irkprec.mesh import build_hierarchy, build_mesh, stencil_offsets
from irkprec.precond import (POST_SWEEPS, PRE_SWEEPS, SMOOTHER_DAMPING,
                             BlockPreconditioner, VCycleSubsolver, build_preconditioner,
                             galerkin_levels, restrictions)
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
        return VCycleSubsolver(levels, hierarchy.prolongations,
                               restrictions(hierarchy.prolongations), tau)

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

    @pytest.mark.parametrize("preset", ["variable", "constant-diffusion"])
    def test_levels_on_the_stencil_hold_the_csr_products(self, preset):
        # every coarse level is stored on its grid's 7 diagonals, once, and
        # holds the bits of the CSR Galerkin product R^T X R
        k = 4
        mesh, hierarchy = build_mesh(k), build_hierarchy(k)
        M, F = assemble_mass(mesh), assemble_stiffness(mesh, coefficient_preset(preset))
        levels = galerkin_levels(M, F, hierarchy.prolongations)
        assert levels[-1][0] is M and levels[-1][1] is F
        csr = [(M.tocsr(), F.tocsr())]
        for R in reversed(hierarchy.prolongations):
            csr.append(tuple((R.T @ X @ R).tocsr() for X in csr[-1]))
        for level, (pair, ref) in enumerate(zip(levels, csr[::-1])):
            for X, Y in zip(pair, ref):
                assert X.format == "dia"
                assert np.array_equal(X.offsets, stencil_offsets(2 ** (level + 2)))
                for name in ("data", "indices", "indptr"):
                    assert getattr(X.tocsr(), name).tobytes() == getattr(Y, name).tobytes()

    def test_on_stencil_keeps_other_matrices_csr(self):
        grid = sp.identity(25, format="csr")
        assert on_stencil(grid).format == "dia"
        # node 0 coupled with node 2, two to its right: no stencil edge
        wide = grid + sp.csr_matrix(([1.0], ([0], [2])), shape=(25, 25))
        Y = on_stencil(wide)
        assert Y.format == "csr" and (Y != wide).nnz == 0

    def test_recursion_bypasses_public_solve(self):
        # one subsolve is one call of solve, however many levels it visits
        sub = self.make_vcycle(4, 0.1)
        calls = []
        solve = sub.solve
        sub.solve = lambda r: calls.append(1) or solve(r)
        sub.solve(np.ones(sub.S[-1].shape[0]))
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_cycle_with_zero_start(self, k):
        # the first pre-smoothing sweep skips S x for x = 0; the cycle that
        # computes it must give the same bits
        sub = self.make_vcycle(k, 0.1, "variable")

        def jacobi(level, x, b, sweeps):
            for _ in range(sweeps):
                x = x + SMOOTHER_DAMPING * (b - sub.S[level] @ x) / sub.diag[level]
            return x

        def cycle(r, level):
            if level == 0:
                return sub.coarse_lu.solve(r)
            R = sub.prolongations[level - 1]
            x = jacobi(level, np.zeros_like(r), r, PRE_SWEEPS)
            x = x + R @ cycle(R.T @ (r - sub.S[level] @ x), level - 1)
            return jacobi(level, x, r, POST_SWEEPS)

        r = np.random.default_rng(k).standard_normal(sub.S[-1].shape[0])
        assert np.array_equal(sub.solve(r), cycle(r, k - 1))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_stored_restrictions_match_transpose(self, k):
        # the CSR restriction adds in the order of the CSC view R.T
        sub = self.make_vcycle(k, 0.1, "variable")

        def cycle(r, level):
            if level == 0:
                return sub.coarse_lu.solve(r)
            R = sub.prolongations[level - 1]
            x = sub._jacobi(level, SMOOTHER_DAMPING * r / sub.diag[level], r,
                            PRE_SWEEPS - 1)
            x = x + R @ cycle(R.T @ (r - sub.S[level] @ x), level - 1)
            return sub._jacobi(level, x, r, POST_SWEEPS)

        r = np.random.default_rng(k).standard_normal(sub.S[-1].shape[0])
        assert np.array_equal(sub.solve(r), cycle(r, k - 1))

    @pytest.mark.parametrize("k", [3, 4])
    def test_complex_shift_matches_matmul_cycle(self, k):
        # a complex shift c makes the level matrices, the work vectors and
        # the result complex; the in-place cycle keeps the bits of the
        # cycle written with @, for a real and a complex right-hand side
        sub = self.make_vcycle(k, 0.3 + 0.2j, "variable")

        def jacobi(level, x, b, sweeps):
            for _ in range(sweeps):
                x = x + SMOOTHER_DAMPING * (b - sub.S[level] @ x) / sub.diag[level]
            return x

        def cycle(r, level):
            if level == 0:
                return sub.coarse_lu.solve(r)
            R, Rt = sub.prolongations[level - 1], sub.restrictions[level - 1]
            x = jacobi(level, SMOOTHER_DAMPING * r / sub.diag[level], r, PRE_SWEEPS - 1)
            x = x + R @ cycle(Rt @ (r - sub.S[level] @ x), level - 1)
            return jacobi(level, x, r, POST_SWEEPS)

        rng = np.random.default_rng(k)
        n = sub.S[-1].shape[0]
        for r in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            z = sub.solve(r)
            assert z.dtype == np.complex128
            assert np.array_equal(z, cycle(r, k - 1))

    def test_solve_owns_no_returned_array(self):
        # the work vectors are reused by every solve; the argument and the
        # arrays earlier solves returned are not among them
        sub = self.make_vcycle(4, 0.1, "variable")
        r1, r2 = np.random.default_rng(11).standard_normal((2, sub.S[-1].shape[0]))
        r1_before = r1.copy()
        z1 = sub.solve(r1)
        z1_before = z1.copy()
        z2 = sub.solve(r2)
        assert np.array_equal(r1, r1_before)
        assert np.array_equal(z1, z1_before)
        assert not np.shares_memory(z1, z2)
        assert np.array_equal(sub.solve(r1), z1)


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

    def test_factor_nnz_counts_distinct_subsolvers(self):
        # J of Gauss-Legendre Nystrom s=2 has two equal diagonal entries: one
        # subsolver serves both stages and is counted once
        k = 3
        mesh = build_mesh(k)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        for subsolve, hierarchy in (("exact", None), ("vcycle", build_hierarchy(k))):
            prec = build_preconditioner(nystrom_from(gauss_legendre(2)), "J", M, F,
                                        0.3, 2, subsolve=subsolve, hierarchy=hierarchy)
            assert prec.subsolvers[0] is prec.subsolvers[1]
            assert prec.factor_nnz == prec.subsolvers[0].nnz > 0

    def test_subsolvers_share_restrictions(self):
        # LD of Radau IIA s=3 has three distinct diagonal entries
        k = 3
        mesh = build_mesh(k)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        prec = build_preconditioner(radau_iia(3), "LD", M, F, 0.3, 1,
                                    subsolve="vcycle", hierarchy=build_hierarchy(k))
        first, *rest = prec.subsolvers
        assert len({id(sub) for sub in prec.subsolvers}) == 3
        assert all(sub.restrictions is first.restrictions for sub in rest)
        assert len(first.restrictions) == k - 1

    def test_vcycle_refuses_block_input(self):
        # a V-cycle smooths one vector; a block of them would broadcast
        # wrongly through r / diag (here m = N, where the shapes agree)
        k = 2
        mesh = build_mesh(k)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        prec = build_preconditioner(radau_iia(2), "LD", M, F, 0.3, 1,
                                    subsolve="vcycle", hierarchy=build_hierarchy(k))
        R = np.ones((prec.size, mesh.num_nodes))
        for solve in (prec.apply_inverse, prec.apply_inverse_transpose):
            with pytest.raises(ValueError):
                solve(R)

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

    @pytest.mark.parametrize("fmt", ["csc", "coo"])
    def test_vcycle_takes_any_sparse_format(self, fmt):
        # build_preconditioner passes M and F straight to the V-cycle; in
        # another format than DIA they are used as CSR, and the cycle
        # gives the values of the assembled DIA matrices' cycle
        k = 3
        mesh = build_mesh(k)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("constant-diffusion"))
        t, hierarchy = radau_iia(2), build_hierarchy(k)
        dia = build_preconditioner(t, "LD", M, F, 0.3, 1, subsolve="vcycle",
                                   hierarchy=hierarchy)
        other = build_preconditioner(t, "LD", M.asformat(fmt), F.asformat(fmt), 0.3, 1,
                                     subsolve="vcycle", hierarchy=hierarchy)
        assert all(S.format == "csr" for sub in other.subsolvers for S in sub.S[-1:])
        r = np.random.default_rng(11).standard_normal(dia.size)
        assert np.array_equal(other.apply_inverse(r), dia.apply_inverse(r))

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


@st.composite
def triangular_cases(draw):
    """(P, lower, h_t, mu, k, rng): a random lower or upper triangular P,
    s = 1..5, whose diagonal repeats values from a pool of three."""
    s = draw(st.integers(1, 5))
    pool = draw(st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3, unique=True))
    diag = draw(st.lists(st.sampled_from(pool), min_size=s, max_size=s))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    lower = draw(st.booleans())
    P = np.tril(rng.uniform(-1.0, 1.0, (s, s)), -1) + np.diag(diag)
    return (P if lower else P.T.copy(), lower, draw(st.floats(1e-2, 1.0)),
            draw(st.sampled_from((1, 2))), draw(st.integers(1, 2)), rng)


class TestOneBlockSolvePath:
    """Exact and V-cycle preconditioners share StageOperator's substitution
    and its one-solver-per-distinct-diagonal-value rule."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(case=triangular_cases())
    def test_block_solvers(self, case):
        P, lower, h_t, mu, k, rng = case
        mesh = build_mesh(k)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        kind = "GSL" if lower else "TRIU"  # P is its own tril / triu
        exact = build_preconditioner(P, kind, M, F, h_t, mu, subsolve="exact")
        mg = build_preconditioner(P, kind, M, F, h_t, mu, subsolve="vcycle",
                                  hierarchy=build_hierarchy(k))
        assert isinstance(exact, BlockPreconditioner)
        assert np.array_equal(exact.P, P)
        dense = StageOperator(P, M, F, h_t, mu).materialize()
        r = rng.standard_normal(exact.size)
        for solve, D in ((exact.solve, dense), (exact.solve_transpose, dense.T)):
            x = np.linalg.solve(D, r)
            assert np.linalg.norm(solve(r) - x) <= 1e-10 * np.linalg.norm(x)
        diag = np.diag(P)
        for prec in (exact, mg):
            subs = prec.subsolvers
            assert len(subs) == len(diag)
            assert len({id(sub) for sub in subs}) == len(set(diag))
            for i in range(len(diag)):
                for j in range(len(diag)):
                    assert (subs[i] is subs[j]) == (diag[i] == diag[j])
            distinct = {id(sub): sub for sub in subs}.values()
            assert prec.factor_nnz == sum(sub.nnz for sub in distinct)
        first, *rest = mg.subsolvers
        assert all(sub.restrictions is first.restrictions for sub in rest)
