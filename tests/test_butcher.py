import numpy as np
import pytest

from irkprec.butcher import (ButcherTableau, PreconditionerKind, TableauKind,
                             butcher_preconditioner_matrix, gauss_legendre,
                             ldu, nystrom_from, radau_iia, tableau_from_json,
                             weakly_positive_definite)
from irkprec.errors import FactorizationError


def quadrature_residual(b, c, order):
    """Max residual of sum_i b_i c_i^(k-1) - 1/k for k = 1..order."""
    worst = 0.0
    for k in range(1, order + 1):
        worst = max(worst, abs(b @ c ** (k - 1) - 1.0 / k))
    return worst


def collocation_residual(A, c):
    """Max residual of sum_j a_ij c_j^(k-1) - c_i^k / k for k = 1..s."""
    s = len(c)
    worst = 0.0
    for k in range(1, s + 1):
        worst = max(worst, np.abs(A @ c ** (k - 1) - c ** k / k).max())
    return worst


def stability_function(t, z):
    s = t.s
    return 1.0 + z * t.b @ np.linalg.solve(np.eye(s) - z * t.A, np.ones(s))


class TestRadauIIA:
    def test_one_stage_is_backward_euler(self):
        t = radau_iia(1)
        assert np.allclose(t.A, [[1.0]], atol=1e-14)
        assert np.allclose(t.b, [1.0], atol=1e-14)
        assert np.allclose(t.c, [1.0], atol=1e-14)

    def test_two_stage_closed_form(self):
        # hand solution of the 2-stage collocation conditions
        t = radau_iia(2)
        assert np.allclose(t.c, [1.0 / 3.0, 1.0], atol=1e-14)
        assert np.allclose(t.A, [[5.0 / 12.0, -1.0 / 12.0],
                                 [3.0 / 4.0, 1.0 / 4.0]], atol=1e-14)
        assert np.allclose(t.b, [3.0 / 4.0, 1.0 / 4.0], atol=1e-14)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_quadrature_identities(self, s):
        t = radau_iia(s)
        assert quadrature_residual(t.b, t.c, 2 * s - 1) < 1e-10

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_collocation_conditions(self, s):
        t = radau_iia(s)
        assert collocation_residual(t.A, t.c) < 1e-12

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_b_is_last_row_and_c_range(self, s):
        t = radau_iia(s)
        assert np.allclose(t.b, t.A[-1], atol=1e-13)
        assert t.c[-1] == 1.0
        assert np.all(np.diff(t.c) > 0)
        assert np.all(t.c > 0.0)

    def test_order_by_stability_function(self):
        # |R(z) - e^z| ~ C z^(p+1): observed local order from two z values
        for s, p in ((2, 3), (3, 5)):
            t = radau_iia(s)
            e1 = abs(stability_function(t, 0.1) - np.exp(0.1))
            e2 = abs(stability_function(t, 0.05) - np.exp(0.05))
            slope = np.log(e1 / e2) / np.log(2.0)
            assert abs(slope - (p + 1)) < 0.5

    @pytest.mark.parametrize("s", [0, 6, -3])
    def test_invalid_stage_count(self, s):
        with pytest.raises(ValueError):
            radau_iia(s)


class TestGaussLegendre:
    def test_one_stage_midpoint(self):
        t = gauss_legendre(1)
        assert np.allclose(t.A, [[0.5]], atol=1e-14)
        assert np.allclose(t.b, [1.0], atol=1e-14)
        assert np.allclose(t.c, [0.5], atol=1e-14)

    def test_two_stage_nodes(self):
        t = gauss_legendre(2)
        r = np.sqrt(3.0) / 6.0
        assert np.allclose(t.c, [0.5 - r, 0.5 + r], atol=1e-14)
        assert np.allclose(t.b, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_quadrature_identities(self, s):
        t = gauss_legendre(s)
        assert quadrature_residual(t.b, t.c, 2 * s) < 1e-10

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_collocation_conditions(self, s):
        t = gauss_legendre(s)
        assert collocation_residual(t.A, t.c) < 1e-12

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_c_strictly_inside(self, s):
        t = gauss_legendre(s)
        assert np.all(t.c > 0.0) and np.all(t.c < 1.0)
        assert np.all(np.diff(t.c) > 0)

    def test_order_by_stability_function(self):
        t = gauss_legendre(2)  # order 4
        e1 = abs(stability_function(t, 0.2) - np.exp(0.2))
        e2 = abs(stability_function(t, 0.1) - np.exp(0.1))
        slope = np.log(e1 / e2) / np.log(2.0)
        assert abs(slope - 5) < 0.5

    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            gauss_legendre(6)


class TestNystrom:
    def test_one_stage_values(self):
        ny = nystrom_from(gauss_legendre(1))
        assert np.allclose(ny.A, [[0.25]], atol=1e-14)
        assert np.allclose(ny.c, [0.5], atol=1e-14)
        assert np.allclose(ny.b_prime, [1.0], atol=1e-14)
        assert np.allclose(ny.b, [0.5], atol=1e-14)  # b_hat (1 - c_hat)

    def test_matrix_square(self):
        base = gauss_legendre(2)
        ny = nystrom_from(base)
        assert np.allclose(ny.A, base.A @ base.A, atol=1e-15)
        assert ny.kind is TableauKind.NYSTROM_GAUSS_LEGENDRE

    def test_rejects_nystrom_input(self):
        ny = nystrom_from(gauss_legendre(2))
        with pytest.raises(ValueError):
            nystrom_from(ny)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_squares_weakly_positive_definite(self, s):
        ny = nystrom_from(gauss_legendre(s))
        assert weakly_positive_definite(ny.A)


class TestLdu:
    def test_scalar(self):
        f = ldu(np.array([[0.5]]))
        assert f.L[0, 0] == 1.0 and f.U[0, 0] == 1.0 and f.D[0, 0] == 0.5

    def test_identity(self):
        f = ldu(np.eye(3))
        assert np.array_equal(f.L, np.eye(3))
        assert np.array_equal(f.D, np.eye(3))
        assert np.array_equal(f.U, np.eye(3))

    def test_radau2_reconstruction(self):
        A = radau_iia(2).A
        f = ldu(A)
        err = np.linalg.norm(f.L @ f.D @ f.U - A) / np.linalg.norm(A)
        assert err <= 1e-14

    @pytest.mark.parametrize("make", [radau_iia, gauss_legendre])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_library_reconstruction(self, make, s):
        t = make(s)
        f = ldu(t)
        assert np.linalg.norm(f.L @ f.D @ f.U - t.A) <= 1e-12 * np.linalg.norm(t.A)
        assert np.array_equal(np.diag(f.L), np.ones(s))
        assert np.array_equal(np.diag(f.U), np.ones(s))
        assert np.all(np.diag(f.D) != 0.0)

    def test_zero_pivot_reports_index(self):
        with pytest.raises(FactorizationError) as exc:
            ldu(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert exc.value.pivot_index == 0


class TestWeaklyPositiveDefinite:
    def test_identity(self):
        assert weakly_positive_definite(np.eye(2))

    def test_negative_scalar(self):
        assert not weakly_positive_definite(np.array([[-1.0]]))

    def test_singular(self):
        assert not weakly_positive_definite(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rotation_allowed(self):
        # eigenvalues +-i lie off the negative real axis
        assert weakly_positive_definite(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_library_tableaus_and_squares(self, s):
        r, g = radau_iia(s), gauss_legendre(s)
        assert weakly_positive_definite(r.A)
        assert weakly_positive_definite(g.A)
        assert weakly_positive_definite(r.A @ r.A)
        assert weakly_positive_definite(g.A @ g.A)


class TestPreconditionerMatrices:
    def test_jacobi_and_gsl_radau2(self):
        t = radau_iia(2)
        J = butcher_preconditioner_matrix(t, "J")
        assert np.allclose(J, [[5.0 / 12.0, 0.0], [0.0, 0.25]], atol=1e-14)
        G = butcher_preconditioner_matrix(t, "GSL")
        assert np.allclose(G, [[5.0 / 12.0, 0.0], [0.75, 0.25]], atol=1e-14)

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_ld_du_factor_algebra(self, s):
        t = radau_iia(s)
        f = ldu(t)
        P_ld = butcher_preconditioner_matrix(t, "LD")
        P_du = butcher_preconditioner_matrix(t, "DU")
        # P_LD U = A and L P_DU = A
        assert np.allclose(P_ld @ f.U, t.A, atol=1e-13)
        assert np.allclose(f.L @ P_du, t.A, atol=1e-13)

    @pytest.mark.parametrize("make", [radau_iia, gauss_legendre])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_triangularity_and_wpd(self, make, s):
        t = make(s)
        for kind in PreconditionerKind:
            P = butcher_preconditioner_matrix(t, kind)
            assert weakly_positive_definite(P)
            if kind in (PreconditionerKind.TRIU, PreconditionerKind.DU):
                assert np.allclose(P, np.triu(P))
            else:
                assert np.allclose(P, np.tril(P))

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_nystrom_preconditioners_wpd(self, s):
        ny = nystrom_from(gauss_legendre(s))
        for kind in PreconditionerKind:
            assert weakly_positive_definite(butcher_preconditioner_matrix(ny, kind))


class TestSerialization:
    def test_json_round_trip(self):
        for t in (radau_iia(3), nystrom_from(gauss_legendre(2))):
            back = tableau_from_json(t.to_json())
            assert back.kind is t.kind
            assert np.array_equal(back.A, t.A)
            assert np.array_equal(back.b, t.b)
            assert np.array_equal(back.c, t.c)
            if t.b_prime is None:
                assert back.b_prime is None
            else:
                assert np.array_equal(back.b_prime, t.b_prime)

    def test_arrays_read_only(self):
        t = radau_iia(2)
        with pytest.raises(ValueError):
            t.A[0, 0] = 99.0
