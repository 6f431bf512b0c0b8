import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from irkprec.assembly import assemble_mass, assemble_stiffness, coefficient_preset
from irkprec.butcher import nystrom_from, gauss_legendre, radau_iia
from irkprec import driver, krylov
from irkprec.errors import ResourceLimitError
from irkprec.krylov import BREAKDOWN_TOL, gmres, reference_solve
from irkprec.mesh import build_mesh
from irkprec.precond import build_preconditioner
from irkprec.stageop import StageOperator, lu_block


@pytest.fixture(scope="module")
def diffusion_system():
    mesh = build_mesh(2)
    coeff = coefficient_preset("constant-diffusion")
    M = assemble_mass(mesh)
    F = assemble_stiffness(mesh, coeff)
    t = radau_iia(2)
    h_t = 0.25
    op = StageOperator(t, M, F, h_t, 1)
    rng = np.random.default_rng(17)
    b = rng.standard_normal(op.size)
    return mesh, M, F, t, op, b


def numpy_mgs_gmres(op, prec, b, tol, max_iter):
    """The numpy modified Gram-Schmidt loop gmres replaced (one temporary
    per projection), for converged runs: (x, iterations, history)."""
    apply_prec = prec.apply_inverse
    pb = apply_prec(b)
    beta = np.linalg.norm(pb)
    V = [pb / beta]
    H = np.zeros((max_iter + 1, max_iter))
    cs, sn = np.zeros(max_iter), np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = beta
    history = []
    for j in range(max_iter):
        w = apply_prec(op.apply(V[j]))
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        hnext = np.linalg.norm(w)
        H[j + 1, j] = hnext
        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        r = np.hypot(H[j, j], H[j + 1, j])
        cs[j], sn[j] = H[j, j] / r, H[j + 1, j] / r
        H[j, j], H[j + 1, j] = r, 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        history.append(abs(g[j + 1]) / beta)
        if history[-1] <= tol:
            break
        V.append(w / hnext)
    k = len(history)
    y = np.linalg.solve(np.triu(H[:k, :k]), g[:k])
    x = np.zeros_like(b)
    for i in range(k):
        x += y[i] * V[i]
    return x, k, history


@pytest.fixture(scope="module")
def k3_systems():
    """Diffusion Radau IIA s=2 and wave Gauss-Legendre Nystrom s=3 at k=3."""
    k = 3
    mesh = build_mesh(k)
    M = assemble_mass(mesh)
    F = assemble_stiffness(mesh, coefficient_preset("constant-diffusion"))
    rng = np.random.default_rng(41)
    systems = {}
    for name, tableau, mu in (("diffusion", radau_iia(2), 1),
                              ("wave", nystrom_from(gauss_legendre(3)), 2)):
        op = StageOperator(tableau, M, F, mesh.h, mu)
        systems[name] = (tableau, mu, op, rng.standard_normal(op.size))
    return M, F, systems


class TestBlasKernel:
    @pytest.mark.parametrize("subsolve", ["exact", "vcycle"])
    @pytest.mark.parametrize("kind", ["J", "LD"])
    @pytest.mark.parametrize("problem", ["diffusion", "wave"])
    def test_matches_numpy_mgs(self, k3_systems, problem, kind, subsolve):
        M, F, systems = k3_systems
        tableau, mu, op, b = systems[problem]
        prec = build_preconditioner(tableau, kind, M, F, op.h_t, mu, subsolve=subsolve)
        b_in = b.copy()
        x, report = gmres(op, prec, b_in, tol=1e-10, max_iter=300)
        assert np.array_equal(b_in, b)
        x_ref, k_ref, hist_ref = numpy_mgs_gmres(op, prec, b, 1e-10, 300)
        assert report.stop_reason == "converged"
        assert report.iterations == k_ref
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        np.testing.assert_allclose(report.residual_history, hist_ref, rtol=1e-9)

    def test_strided_preconditioner_output(self, k3_systems):
        # daxpy returns a copy for a non-contiguous w; the loop must use it
        M, F, systems = k3_systems
        tableau, mu, op, b = systems["wave"]
        prec = build_preconditioner(tableau, "LD", M, F, op.h_t, mu)

        def strided(v):
            out = np.zeros((op.size, 2))
            out[:, 1] = prec.apply_inverse(v)
            return out[:, 1]

        x, report = gmres(op, prec, b, tol=1e-10)
        xs, rs = gmres(op, strided, b, tol=1e-10)
        assert rs.converged
        assert rs.iterations == report.iterations
        assert np.array_equal(xs, x)

    def test_float32_preconditioner_output(self, k3_systems):
        # a float32 w is converted, not projected in single precision
        M, F, systems = k3_systems
        tableau, mu, op, b = systems["diffusion"]
        prec = build_preconditioner(tableau, "LD", M, F, op.h_t, mu)
        x, report = gmres(op, lambda v: prec.apply_inverse(v).astype(np.float32),
                          b, tol=1e-6)
        assert report.converged
        assert x.dtype == np.float64
        x_ref = reference_solve(op, b)
        assert np.linalg.norm(x - x_ref) <= 1e-5 * np.linalg.norm(x_ref)

    def test_rhs_not_mutated_without_preconditioner(self, k3_systems):
        *_, systems = k3_systems
        _, _, op, b = systems["diffusion"]
        b_in = b.copy()
        gmres(op, None, b_in, tol=1e-6, max_iter=50)
        assert np.array_equal(b_in, b)


class TestGmres:
    def test_identity_like_system_one_iteration(self):
        I = sp.identity(30, format="csr")
        Z = sp.csr_matrix((30, 30))
        op = StageOperator(np.zeros((1, 1)), I, Z, 1.0, 1)  # pure unit mass
        b = np.random.default_rng(0).standard_normal(30)
        x, report = gmres(op, None, b, tol=1e-10)
        assert report.iterations == 1
        assert np.allclose(x, b, atol=1e-12)

    def test_exact_inverse_preconditioner_one_iteration(self, diffusion_system):
        *_, op, b = diffusion_system
        x, report = gmres(op, op.solve, b, tol=1e-8)
        assert report.iterations == 1
        assert report.converged
        assert report.stop_reason == "converged"

    def test_residual_monotone_and_converged(self, diffusion_system):
        mesh, M, F, t, op, b = diffusion_system
        prec = build_preconditioner(t, "LD", M, F, op.h_t, 1, subsolve="exact")
        x, report = gmres(op, prec, b, tol=1e-10)
        assert report.converged
        assert report.rel_residual <= 1e-10
        hist = np.asarray(report.residual_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_agrees_with_reference_solve(self, diffusion_system):
        mesh, M, F, t, op, b = diffusion_system
        prec = build_preconditioner(t, "GSL", M, F, op.h_t, 1, subsolve="exact")
        x, _ = gmres(op, prec, b, tol=1e-12, max_iter=300)
        x_ref = reference_solve(op, b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_unpreconditioned_equals_preconditioner_none(self, diffusion_system):
        *_, op, b = diffusion_system
        x1, r1 = gmres(op, None, b, tol=1e-6, max_iter=400)
        assert r1.converged
        assert np.linalg.norm(op.apply(x1) - b) <= 1e-5 * np.linalg.norm(b)

    def test_max_iter_reports_nonconvergence(self, diffusion_system):
        *_, op, b = diffusion_system
        x, report = gmres(op, None, b, tol=1e-14, max_iter=3)
        assert not report.converged
        assert report.stop_reason == "max_iter"
        assert report.iterations == 3

    def test_zero_rhs(self, diffusion_system):
        *_, op, _ = diffusion_system
        x, report = gmres(op, None, np.zeros(op.size), tol=1e-8)
        assert report.converged
        assert report.stop_reason == "converged"
        assert np.array_equal(x, np.zeros(op.size))

    def test_breakdown_returns_exact_solution(self):
        # rhs is an eigenvector: the Krylov space closes after one step
        I = sp.identity(10, format="csr")
        op = StageOperator(np.array([[1.0]]), I, I, 1.0, 1)  # 2 I
        b = np.zeros(10)
        b[3] = 1.0
        x, report = gmres(op, None, b, tol=1e-16, max_iter=10)
        assert np.allclose(x, b / 2.0, atol=1e-14)
        assert report.iterations <= 2

    def test_singular_breakdown_is_reported_not_converged(self):
        # A = diag(1, 0) and b = (1, 1): the second Arnoldi column is
        # dependent, b is not in the range of A, and no division by zero
        # may happen on the way
        M = sp.diags([1.0, 0.0]).tocsr()
        F = sp.csr_matrix((2, 2))
        op = StageOperator(np.zeros((1, 1)), M, F, 1.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, report = gmres(op, None, np.array([1.0, 1.0]), tol=1e-8)
        assert report.stop_reason == "breakdown"
        assert not report.converged
        assert report.iterations == 1
        assert np.all(np.isfinite(x))
        assert report.true_rel_residual > 1e-8

    def test_breakdown_converged_by_recomputed_residual(self):
        # A = [[1, 0], [d, 1]] with d below the breakdown threshold: the
        # Givens estimate d misses tol, but a preconditioner that flushes
        # entries below 1e-110 to zero leaves a recomputed residual of 0
        d = 0.1 * BREAKDOWN_TOL
        A = np.array([[1.0, 0.0], [d, 1.0]])

        class Dense:
            def apply(self, x):
                return A @ x

        def flush(v):
            return np.where(np.abs(v) < 1e-110, 0.0, v)

        x, report = gmres(Dense(), flush, np.array([1e-100, 0.0]), tol=0.1 * d)
        assert report.stop_reason == "breakdown"
        assert report.converged
        assert report.iterations == 1
        assert report.residual_history[-1] > 0.1 * d
        assert report.rel_residual == 0.0

    def test_breakdown_test_independent_of_rhs_scale(self, diffusion_system):
        # the breakdown threshold scales with the operator, not with b
        *_, op, b = diffusion_system
        _, ref = gmres(op, None, b, tol=1e-8, max_iter=400)
        x, report = gmres(op, None, 1e14 * b, tol=1e-8, max_iter=400)
        assert report.stop_reason == "converged"
        assert report.converged
        assert report.iterations == ref.iterations

    def test_invalid_arguments(self, diffusion_system):
        *_, op, b = diffusion_system
        with pytest.raises(ValueError):
            gmres(op, None, b, tol=0.0)
        with pytest.raises(ValueError):
            gmres(op, None, b, tol=1e-8, max_iter=0)

    def test_vcycle_preconditioned_convergence(self):
        k = 4
        mesh = build_mesh(k)
        coeff = coefficient_preset("variable")
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coeff)
        t = radau_iia(2)
        h_t = mesh.h ** (2.0 / 3.0)
        op = StageOperator(t, M, F, h_t, 1)
        prec = build_preconditioner(t, "LD", M, F, h_t, 1, subsolve="vcycle")
        b = np.random.default_rng(23).standard_normal(op.size)
        x, report = gmres(op, prec, b, tol=1e-8)
        assert report.converged
        assert report.iterations <= 25
        x_ref = reference_solve(op, b)
        assert np.linalg.norm(x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)


class TestReferenceSolve:
    def test_residual_small(self, diffusion_system):
        *_, op, b = diffusion_system
        x = reference_solve(op, b)
        assert np.linalg.norm(op.apply(x) - b) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self, diffusion_system):
        *_, op, _ = diffusion_system
        assert np.allclose(reference_solve(op, np.zeros(op.size)), 0.0)

    def test_single_stage_reduces_to_sparse_solve(self):
        mesh = build_mesh(1)
        coeff = coefficient_preset("constant-ones")
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coeff)
        t = radau_iia(1)
        op = StageOperator(t, M, F, 0.5, 1)
        b = np.random.default_rng(5).standard_normal(op.size)
        import scipy.sparse.linalg as spla
        expected = spla.spsolve((M + 0.5 * t.A[0, 0] * F).tocsc(), b)
        assert np.allclose(reference_solve(op, b), expected, atol=1e-11)

    def test_guard(self):
        I = sp.identity(200001, format="csr")
        op = StageOperator(radau_iia(3), I, I, 1.0, 1)
        with pytest.raises(ResourceLimitError):
            reference_solve(op, np.zeros(op.size))

    @pytest.mark.parametrize("tableau", [radau_iia(3), nystrom_from(gauss_legendre(5))],
                             ids=["radau-3", "gl-nystrom-5"])
    def test_frees_its_factors_and_leaves_op_unfactored(self, tableau):
        # both couplings have a complex Schur block, so a real and a
        # complex LU are made and must both be gone on return
        mesh = build_mesh(2)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        made, shifts = [], []

        class Held:
            def __init__(self, lu):
                self.lu, self.nnz = lu, lu.nnz

            def solve(self, r):
                return self.lu.solve(r)

        def held_block(M, F, c):
            shifts.append(c)
            held = Held(lu_block(M, F, c))
            made.append(weakref.ref(held))
            return held

        mu = 1 if tableau.b_prime is None else 2
        op = StageOperator(tableau, M, F, 0.3, mu, block_solver=held_block)
        b = np.random.default_rng(29).standard_normal(op.size)
        x = reference_solve(op, b)
        assert any(isinstance(c, complex) for c in shifts)
        assert made and all(ref() is None for ref in made)
        assert op.factor_nnz == 0
        assert np.array_equal(x, StageOperator(tableau, M, F, 0.3, mu).solve(b))

    def test_one_guard_for_both_direct_solves(self, monkeypatch, diffusion_system):
        *_, M, F, t, _, b = diffusion_system
        calls = []

        def counting_block(M, F, c):
            calls.append(c)
            return lu_block(M, F, c)

        op = StageOperator(t, M, F, 0.25, 1, block_solver=counting_block)
        monkeypatch.setattr(krylov, "DIRECT_GUARD", op.size - 1)
        with pytest.raises(ResourceLimitError):
            reference_solve(op, b)
        with pytest.raises(ResourceLimitError):
            driver.direct_solver(op, b)
        assert calls == []
