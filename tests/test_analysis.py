import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from irkprec import analysis, stageop
from irkprec.analysis import (GRAM_KAPPA_MAX, _svdvals, butcher_kappa,
                              condition_number, condition_number_iterative,
                              field_of_values, preconditioned_dense, spectrum)
from irkprec.assembly import assemble_mass, assemble_stiffness, coefficient_preset
from irkprec.butcher import (butcher_preconditioner_matrix, gauss_legendre,
                             nystrom_from, radau_iia)
from irkprec.driver import method_tableau, mms_problem, timestep_rule
from irkprec.errors import ResourceLimitError
from irkprec.mesh import build_mesh
from irkprec.precond import build_preconditioner
from irkprec.stageop import StageOperator


@pytest.fixture(scope="module")
def kappa_systems():
    """(label, A_h, tableau) for Radau IIA diffusion (s = 2 at k = 3, s = 3
    at k = 2) and Gauss-Legendre Nystrom wave (s = 3 at k = 3), h_t = 0.5."""
    coeff = coefficient_preset("constant-diffusion")
    systems = []
    for name, t, mu, k in (("radau-iia-2", radau_iia(2), 1, 3),
                           ("radau-iia-3", radau_iia(3), 1, 2),
                           ("gl-nystrom-3", nystrom_from(gauss_legendre(3)), 2, 3)):
        mesh = build_mesh(k)
        M, F = assemble_mass(mesh), assemble_stiffness(mesh, coeff)
        systems.append((name, StageOperator(t, M, F, 0.5, mu), t))
    return systems


@pytest.fixture(scope="module")
def wave_system():
    # constant-coefficient wave equation pieces on the k=2 mesh
    mesh = build_mesh(2)
    coeff = coefficient_preset("constant-diffusion")
    M = assemble_mass(mesh)
    F = assemble_stiffness(mesh, coeff)
    return mesh, M, F


def stage_prec(op, P):
    """P_h = I (x) M + h_t^mu P (x) F on op's M, F, h_t and mu, unfactored;
    None for P None."""
    return None if P is None else StageOperator(P, op.M, op.F, op.h_t, op.mu)


def identity_operator(n):
    I = sp.identity(n, format="csr")
    Z = sp.csr_matrix((n, n))
    return StageOperator(np.zeros((1, 1)), I, Z, 1.0, 1)


class TestConditionNumber:
    def test_identity(self):
        assert abs(condition_number(identity_operator(40)) - 1.0) <= 1e-12

    def test_prec_equal_to_coupling_gives_one(self, wave_system):
        _, M, F = wave_system
        t = nystrom_from(gauss_legendre(2))
        op = StageOperator(t, M, F, 0.4, 2)
        assert abs(condition_number(op, stage_prec(op, t.A)) - 1.0) <= 1e-10

    def test_unitary_similarity_invariance(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((60, 60))
        Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        sv1 = np.linalg.svd(B, compute_uv=False)
        sv2 = np.linalg.svd(Q @ B @ Q.T, compute_uv=False)
        assert abs(sv1[0] / sv1[-1] - sv2[0] / sv2[-1]) <= 1e-8 * (sv1[0] / sv1[-1])

    def test_guard(self):
        big = sp.identity(25000, format="csr")
        op = StageOperator(np.array([[1.0]]), big, big, 1.0, 1)
        with pytest.raises(ResourceLimitError):
            condition_number(op)

    @pytest.mark.parametrize("kind", ["J", "GSL", "TRIU", "LD", "DU"])
    def test_iterative_matches_dense(self, kappa_systems, kind):
        for name, op, t in kappa_systems:
            P = stage_prec(op, butcher_preconditioner_matrix(t, kind))
            dense = condition_number(op, P)
            iterative = condition_number_iterative(op, P, seed=1)
            assert abs(iterative - dense) <= 1e-8 * dense, name

    def test_iterative_unpreconditioned_matches_dense(self, kappa_systems):
        for name, op, _ in kappa_systems:
            dense = condition_number(op)
            iterative = condition_number_iterative(op, seed=2)
            assert abs(iterative - dense) <= 1e-8 * dense, name

    @pytest.mark.parametrize("kind", ["none", "J", "LD"])
    def test_iterative_independent_of_seed(self, kappa_systems, kind):
        for name, op, t in kappa_systems:
            P = stage_prec(op, None if kind == "none" else butcher_preconditioner_matrix(t, kind))
            kappas = [condition_number_iterative(op, P, seed=seed) for seed in (0, 1, 2)]
            assert max(kappas) - min(kappas) <= 1e-8 * min(kappas), name

    @pytest.mark.parametrize("route", [condition_number, condition_number_iterative, spectrum])
    @pytest.mark.parametrize("kind", ["J", "LD", "DU"])
    def test_given_factors_are_the_ones_applied(self, monkeypatch, wave_system, route, kind):
        # build_preconditioner factors each distinct block of P once; the
        # route applies those factors and factors no block of P again.
        # Radau IIA s=2 has one complex Schur block, so A_h's
        # factorization (the iterative route's) has a complex shift only
        _, M, F = wave_system
        t, h_t = radau_iia(2), 0.3
        shifts = []
        lu_block = stageop.lu_block
        monkeypatch.setattr(stageop, "lu_block",
                            lambda M, F, c: shifts.append(c) or lu_block(M, F, c))
        prec = build_preconditioner(t, kind, M, F, h_t, 1, subsolve="exact")
        expected = sorted(h_t * p for p in set(np.diag(prec.coupling)))
        assert sorted(shifts) == expected
        route(StageOperator(t, M, F, h_t, 1), prec)
        assert sorted(c for c in shifts if not isinstance(c, complex)) == expected

    def test_unconverged_k1_lanczos_has_no_eigenvalue(self):
        # what _sigma_max's eigsh call raises when it runs out of steps
        A = sp.diags(np.linspace(1.0, 1.0001, 400))
        with pytest.raises(spla.ArpackNoConvergence) as info:
            spla.eigsh(A, k=1, which="LA", tol=1e-14, v0=np.ones(400), maxiter=1)
        assert info.value.eigenvalues.size == 0

    @pytest.mark.parametrize("partial", [[], [4.0]])
    def test_iterative_raises_when_lanczos_does_not_converge(self, monkeypatch,
                                                             partial):
        # no kappa is made from a Lanczos run that did not converge, not
        # even from an eigenvalue it reports as converged
        def no_convergence(A, k, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.array(partial),
                                           np.ones((A.shape[0], len(partial))))

        monkeypatch.setattr(analysis.spla, "eigsh", no_convergence)
        with pytest.raises(spla.ArpackNoConvergence):
            condition_number_iterative(identity_operator(40))

    @pytest.mark.parametrize("kind", ["J", "GSL", "TRIU", "LD", "DU"])
    def test_dense_route_materializes_only_a(self, monkeypatch, kind):
        # P_h^-1 A_h comes from P_h's Kronecker solve: no dense P_h is built
        mesh = build_mesh(2)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        t = radau_iia(3)
        op = StageOperator(t, M, F, 0.3, 1)
        P = butcher_preconditioner_matrix(t, kind)
        A = op.materialize()
        Ph = StageOperator(P, M, F, 0.3, 1).materialize()
        prec = stage_prec(op, P)
        calls = []
        materialize = StageOperator.materialize
        monkeypatch.setattr(StageOperator, "materialize",
                            lambda self: calls.append(self) or materialize(self))
        B = preconditioned_dense(op, prec)
        assert calls == [op]
        expected = np.linalg.solve(Ph, A)
        assert np.linalg.norm(B - expected) <= 1e-12 * np.linalg.norm(expected)


def peak_in_buffers(op, fn):
    """Peak traced allocation of fn() in units of one (s N)^2 float64
    buffer."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * op.size ** 2)


def svd_kappa(op, prec):
    """kappa_2 from the singular values of P_h^-1 A_h."""
    sv = _svdvals(preconditioned_dense(op, prec))
    return sv[0] / sv[-1]


class TestGramRoute:
    """condition_number takes kappa from the eigenvalues of the Gram
    matrix of P_h^-1 A_h and falls back to its singular values where the
    Gram kappa is too inaccurate."""

    @pytest.fixture(scope="class")
    def matrices(self):
        coeff = coefficient_preset("constant-diffusion")
        return {k: (assemble_mass(build_mesh(k)), assemble_stiffness(build_mesh(k), coeff))
                for k in (1, 2, 3)}

    @pytest.mark.parametrize("problem", ["diffusion", "wave"])
    @pytest.mark.parametrize("kind", ["none", "J", "GSL", "TRIU", "LD", "DU"])
    @settings(derandomize=True, deadline=None, database=None, max_examples=5)
    @given(k=st.integers(1, 3), s=st.integers(2, 3),
           h_t=st.floats(-2.0, np.log10(40.0)).map(lambda e: 10.0 ** e))
    @example(k=2, s=3, h_t=40.0)  # kappa(A_h) up to 7.3e4
    def test_matches_svd(self, matrices, problem, kind, k, s, h_t):
        # Radau IIA for diffusion, Gauss-Legendre Nystrom for wave. The
        # Gram kappa is accurate to about eps kappa^2: 1e-11 wherever that
        # is smaller (kappa < 210, as on every preconditioned row here)
        t = method_tableau(problem, s)
        op = StageOperator(t, *matrices[k], h_t, mms_problem(problem, "constant-diffusion").mu)
        P = stage_prec(op, None if kind == "none" else butcher_preconditioner_matrix(t, kind))
        expected = svd_kappa(op, P)
        tol = max(1e-11, np.finfo(float).eps * expected ** 2)
        assert abs(condition_number(op, P) - expected) <= tol * expected

    @staticmethod
    def count_svd_calls(monkeypatch):
        calls = []
        svdvals = analysis._svdvals
        monkeypatch.setattr(analysis, "_svdvals", lambda B: calls.append(B.shape) or svdvals(B))
        return calls

    def test_below_threshold_takes_no_svd(self, monkeypatch, matrices):
        t = method_tableau("wave", 3)
        op = StageOperator(t, *matrices[2], 0.5, 2)
        calls = self.count_svd_calls(monkeypatch)
        assert condition_number(op, stage_prec(op, butcher_preconditioner_matrix(t, "LD"))) < 10
        assert calls == []

    def test_above_threshold_falls_back_to_svd(self, monkeypatch):
        # Klein-Gordon Gauss-Legendre Nystrom s=5, k=2, h_t=40: kappa 4.6e4
        mesh = build_mesh(2)
        op = StageOperator(method_tableau("klein-gordon", 5), assemble_mass(mesh),
                           assemble_stiffness(mesh, coefficient_preset("variable")), 40.0, 2)
        expected = svd_kappa(op, None)
        assert expected > GRAM_KAPPA_MAX
        calls = self.count_svd_calls(monkeypatch)
        assert condition_number(op) == expected     # bit for bit
        assert calls == [(op.size, op.size)]
        # the Gram buffer is freed before B is formed again: measured 1.20
        # (the buffer and the Gram route's 64 x s N temporary, s N = 405;
        # 1.64 with 256 rows), 2.2 with G kept alive. Bound: measured + 16%
        assert peak_in_buffers(op, lambda: condition_number(op)) <= 1.39

    def test_zero_lambda_min_falls_back_to_svd(self, monkeypatch):
        # lambda_min of the Gram matrix, 1e-400, underflows to 0; the
        # singular values still give kappa = 1e200
        M = sp.diags([1.0, 1e-200], format="csr")
        op = StageOperator(np.zeros((1, 1)), M, sp.csr_matrix((2, 2)), 1.0, 1)
        calls = self.count_svd_calls(monkeypatch)
        assert condition_number(op) == 1e200
        assert calls == [(2, 2)]


class TestDenseRouteInPlace:
    """The dense route works in A_h's own (s N)^2 buffer: P_h^-1 A_h is
    solved `width` columns at a time and written back over A_h."""

    @pytest.fixture(scope="class")
    def system(self):
        # s N = 3 * 81 = 243
        mesh = build_mesh(2)
        return assemble_mass(mesh), assemble_stiffness(mesh, coefficient_preset("variable"))

    @pytest.mark.parametrize("tableau,mu", [(radau_iia(3), 1),
                                            (nystrom_from(gauss_legendre(3)), 2)])
    @pytest.mark.parametrize("kind", ["A", "J", "GSL", "TRIU", "LD", "DU"])
    def test_blocks_match_one_shot_solve(self, monkeypatch, system, tableau, mu, kind):
        # SuperLU solves each column of a block on its own, so the blocks
        # give the bits of one solve with all s N columns; "A" takes the
        # Schur route, with complex shifts
        M, F = system
        op = StageOperator(tableau, M, F, 0.4, mu)
        P = tableau.A if kind == "A" else butcher_preconditioner_matrix(tableau, kind)
        expected = StageOperator(P, M, F, 0.4, mu).solve(op.materialize())
        for width in (1, 100, op.size, 1000):    # 100 does not divide 243
            monkeypatch.setattr(analysis, "DENSE_SOLVE_WIDTH", width)
            assert np.array_equal(preconditioned_dense(op, stage_prec(op, P)), expected)

    @pytest.fixture(scope="class")
    def radau_k3(self):
        mesh = build_mesh(3)
        t = radau_iia(3)
        op = StageOperator(t, assemble_mass(mesh),
                           assemble_stiffness(mesh, coefficient_preset("constant-diffusion")),
                           0.5, 1)
        return op, t

    def test_materialize_peak(self, radau_k3):
        # measured 1.05 (s N = 867): the buffer plus the sparse Kronecker
        # sum; the dense np.kron form took 3.0. Bound: measured + 20%.
        op, _ = radau_k3
        assert peak_in_buffers(op, op.materialize) <= 1.25

    @pytest.mark.parametrize("kind", ["none", "J", "GSL", "TRIU", "LD", "DU"])
    def test_condition_number_peak(self, radau_k3, kind):
        # measured 1.08 (none: the buffer and the Gram route's 64 x s N
        # temporary), 1.13 (J) and 1.18 (the others: the P_h solve's
        # temporaries) at s N = 867 with width 64; width 256 took 1.30,
        # 1.49 and 1.69, and solving all columns at once into a new array
        # 3.0-3.35. Bound: the largest measured + 20%.
        op, t = radau_k3
        P = stage_prec(op, None if kind == "none" else butcher_preconditioner_matrix(t, kind))
        assert peak_in_buffers(op, lambda: condition_number(op, P)) <= 1.41


class TestSpectrum:
    def test_identity_coupling_unit_mass(self):
        result = spectrum(identity_operator(25))
        assert result.eigenvalues.shape == (25,)
        assert np.allclose(result.eigenvalues, 1.0, atol=1e-12)
        assert result.kappa >= 1.0

    def test_symmetric_matrix_real_spectrum(self, wave_system):
        _, M, F = wave_system
        op = StageOperator(np.array([[2.0]]), M, F, 0.3, 1)
        result = spectrum(op)
        assert np.abs(result.eigenvalues.imag).max() <= 1e-10

    def test_preconditioning_moves_spectrum_off_origin(self, wave_system):
        _, M, F = wave_system
        t = nystrom_from(gauss_legendre(3))
        h_t = build_mesh(2).h ** (1.0 / 3.0)
        op = StageOperator(t, M, F, h_t, 2)
        prec = build_preconditioner(t, "LD", M, F, h_t, 2, subsolve="exact")
        plain = spectrum(op)
        preconditioned = spectrum(op, prec)
        assert (np.abs(preconditioned.eigenvalues).min()
                > np.abs(plain.eigenvalues).min())

    def test_count(self, wave_system):
        _, M, F = wave_system
        t = radau_iia(2)
        op = StageOperator(t, M, F, 0.2, 1)
        result = spectrum(op)
        assert result.eigenvalues.shape == (op.size,)


class TestFieldOfValues:
    def test_hermitian_collapses_to_real_segment(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((30, 30))
        B = 0.5 * (B + B.T)
        w = np.linalg.eigvalsh(B)
        fov = field_of_values(B, n_angles=64)
        assert np.abs(fov.boundary_points.imag).max() <= 1e-10
        assert fov.boundary_points.real.max() <= w[-1] + 1e-10
        assert fov.boundary_points.real.min() >= w[0] - 1e-10

    def test_nilpotent_disk_radius_half(self):
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        fov = field_of_values(B, n_angles=256)
        radii = np.abs(fov.boundary_points)
        assert abs(radii.max() - 0.5) <= 1e-6
        # brute-force interior samples stay inside the traced boundary
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(500):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            worst = max(worst, abs(np.conj(v) @ B @ v))
        assert worst <= radii.max() + 1e-9

    def test_single_point(self):
        fov = field_of_values(np.array([[2.0]]), n_angles=16)
        assert np.allclose(fov.boundary_points, 2.0)
        assert fov.min_distance_to_origin == 2.0

    def test_contains_eigenvalues(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((25, 25))
        fov = field_of_values(B, n_angles=128)
        evs = np.linalg.eigvals(B)
        pts = fov.boundary_points
        # supporting half-plane test: every eigenvalue lies inside all of them
        for k in range(len(pts)):
            theta = 2.0 * np.pi * k / len(pts)
            support = (np.exp(1j * theta) * pts[k]).real
            assert np.all((np.exp(1j * theta) * evs).real <= support + 1e-8)

    def test_boundary_convex(self):
        # increasing theta rotates the support direction clockwise, so the
        # traced polygon turns consistently clockwise (cross products <= 0)
        rng = np.random.default_rng(7)
        B = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        fov = field_of_values(B, n_angles=64)
        pts = fov.boundary_points
        n = len(pts)
        scale = np.abs(pts).max() ** 2
        for i in range(n):
            a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
            cross = (b - a).real * (c - b).imag - (b - a).imag * (c - b).real
            assert cross <= 1e-9 * scale

    def test_resolution_stability(self, wave_system):
        _, M, F = wave_system
        t = nystrom_from(gauss_legendre(2))
        op = StageOperator(t, M, F, 0.4, 2)
        B = op.materialize()
        d64 = field_of_values(B, n_angles=64).min_distance_to_origin
        d256 = field_of_values(B, n_angles=256).min_distance_to_origin
        assert abs(d64 - d256) <= 0.02 * max(d64, d256)

    def test_min_angles(self):
        with pytest.raises(ValueError):
            field_of_values(np.eye(3), n_angles=4)

    @pytest.mark.parametrize("B", [[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    def test_origin_inside_reads_zero(self, B):
        # the disk |z| <= 1/2 and the segment [-1, 1] both contain 0; the
        # nearest boundary points lie at 0.5 and 1.0
        fov = field_of_values(np.array(B), n_angles=64)
        assert fov.min_distance_to_origin == 0.0
        assert np.abs(fov.boundary_points).min() >= 0.5 - 1e-12

    @pytest.mark.parametrize("kind,inside", [("J", True), ("LD", False)])
    def test_distance_of_cli_rows(self, kind, inside):
        # diffusion, Radau IIA s=2, k=1, as the fov command builds it: the
        # FOV of P_J^-1 A_h contains 0, that of P_LD^-1 A_h does not, and
        # there the distance is the nearest sampled boundary point's
        mesh = build_mesh(1)
        problem = mms_problem("diffusion", "constant-diffusion")
        t = method_tableau("diffusion", 2)
        op = StageOperator(t, assemble_mass(mesh), assemble_stiffness(mesh, problem.coeff),
                           timestep_rule(mesh.h, 2, t.kind), problem.mu)
        B = preconditioned_dense(op, stage_prec(op, butcher_preconditioner_matrix(t, kind)))
        fov = field_of_values(B, n_angles=64)
        nearest = np.abs(fov.boundary_points).min()
        assert nearest > 0.3
        if inside:
            assert fov.min_distance_to_origin == 0.0
        else:
            assert abs(fov.min_distance_to_origin - nearest) <= 1e-12 * nearest

    @staticmethod
    def _assert_support_is_top_eigenvalue(B, fov, n_angles, rtol):
        for k, p in enumerate(fov.boundary_points):
            rot = np.exp(2j * np.pi * k / n_angles)
            top = np.linalg.eigvalsh(0.5 * (rot * B + (rot * B).conj().T))[-1]
            assert abs((rot * p).real - top) <= rtol * abs(top)

    def test_one_route_matches_eigvalsh(self):
        # the support values are the top eigenvalues of the Hermitian parts
        # to rounding, and the temporaries stay a small multiple of B (one
        # complex n x n buffer for all angles, one real one at a time)
        n = 650
        rng = np.random.default_rng(8)
        B = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
        tracemalloc.start()
        try:
            fov = field_of_values(B, n_angles=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * B.nbytes
        self._assert_support_is_top_eigenvalue(B, fov, 8, 1e-12)
        again = field_of_values(B, n_angles=8)
        assert np.array_equal(again.boundary_points, fov.boundary_points)

    def test_wave_ld_support_is_exact(self):
        # wave, Gauss-Legendre Nystrom s=3, k=3, LD, as the fov command
        # builds it (s N = 867): each support value is the top eigenvalue
        # of its angle's Hermitian part to well below an iterative
        # eigensolver's usual 1e-6
        mesh = build_mesh(3)
        problem = mms_problem("wave", "constant-diffusion")
        t = method_tableau("wave", 3)
        op = StageOperator(t, assemble_mass(mesh), assemble_stiffness(mesh, problem.coeff),
                           timestep_rule(mesh.h, 3, t.kind), problem.mu)
        B = preconditioned_dense(op, stage_prec(op, butcher_preconditioner_matrix(t, "LD")))
        assert B.shape == (867, 867)
        fov = field_of_values(B, n_angles=8)
        self._assert_support_is_top_eigenvalue(B, fov, 8, 1e-10)


class TestButcherKappa:
    def test_p_equals_a(self):
        A = radau_iia(3).A
        assert abs(butcher_kappa(A, A) - 1.0) <= 1e-13

    def test_identity_preconditioner(self):
        A = radau_iia(3).A
        sv = np.linalg.svd(A, compute_uv=False)
        assert abs(butcher_kappa(np.eye(3), A) - sv[0] / sv[-1]) <= 1e-12

    def test_ld_beats_jacobi_for_radau3(self):
        t = radau_iia(3)
        P_ld = butcher_preconditioner_matrix(t, "LD")
        P_j = butcher_preconditioner_matrix(t, "J")
        assert butcher_kappa(P_ld, t.A) < butcher_kappa(P_j, t.A)

    def test_singular_p_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            butcher_kappa(np.zeros((2, 2)), np.eye(2))
