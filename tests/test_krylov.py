import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from irkprec.assembly import assemble_mass, assemble_stiffness, coefficient_preset
from irkprec.butcher import nystrom_from, gauss_legendre, radau_iia
from irkprec.errors import ResourceLimitError
from irkprec.krylov import gmres, reference_solve, residual_history_csv
from irkprec.mesh import build_hierarchy, build_mesh
from irkprec.precond import build_preconditioner
from irkprec.stageop import StageOperator


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
        assert report.iterations == 3

    def test_zero_rhs(self, diffusion_system):
        *_, op, _ = diffusion_system
        x, report = gmres(op, None, np.zeros(op.size), tol=1e-8)
        assert report.converged
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
        assert report.breakdown
        assert not report.converged
        assert report.iterations == 1
        assert np.all(np.isfinite(x))
        assert report.true_rel_residual > 1e-8

    def test_breakdown_test_independent_of_rhs_scale(self, diffusion_system):
        # the breakdown threshold scales with the operator, not with b
        *_, op, b = diffusion_system
        _, ref = gmres(op, None, b, tol=1e-8, max_iter=400)
        x, report = gmres(op, None, 1e14 * b, tol=1e-8, max_iter=400)
        assert not report.breakdown
        assert report.converged
        assert report.iterations == ref.iterations

    def test_invalid_arguments(self, diffusion_system):
        *_, op, b = diffusion_system
        with pytest.raises(ValueError):
            gmres(op, None, b, tol=0.0)
        with pytest.raises(ValueError):
            gmres(op, None, b, tol=1e-8, max_iter=0)

    def test_true_residual_tracking(self, diffusion_system):
        mesh, M, F, t, op, b = diffusion_system
        prec = build_preconditioner(t, "LD", M, F, op.h_t, 1, subsolve="exact")
        x, report = gmres(op, prec, b, tol=1e-10, track_true_residual=True)
        assert len(report.true_residual_history) == report.iterations
        assert report.true_residual_history[-1] <= 1e-8
        text = residual_history_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,preconditioned_residual,unpreconditioned_residual"
        assert len(lines) == report.iterations + 1

    def test_vcycle_preconditioned_convergence(self):
        k = 4
        mesh = build_mesh(k)
        coeff = coefficient_preset("variable")
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coeff)
        t = radau_iia(2)
        h_t = mesh.h ** (2.0 / 3.0)
        op = StageOperator(t, M, F, h_t, 1)
        prec = build_preconditioner(t, "LD", M, F, h_t, 1, subsolve="vcycle",
                                    hierarchy=build_hierarchy(k), coeff=coeff)
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
