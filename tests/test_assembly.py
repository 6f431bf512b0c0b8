import math

import numpy as np
import pytest
import scipy.sparse as sp

from irkprec.assembly import (QUAD_POINTS, QUAD_WEIGHTS, CoefficientField,
                              assemble_load, assemble_mass, assemble_stiffness,
                              coefficient_preset, read_matrix_market,
                              write_matrix_market)
from irkprec.errors import CoefficientError
from irkprec.mesh import build_mesh


@pytest.fixture(scope="module")
def mesh2():
    return build_mesh(2)


def test_quadrature_rule_degree_four_exact():
    # reference-triangle monomial integrals: a! b! / (a + b + 2)!
    for a in range(5):
        for b in range(5 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            approx = 0.5 * np.sum(
                QUAD_WEIGHTS * QUAD_POINTS[:, 0] ** a * QUAD_POINTS[:, 1] ** b)
            assert abs(approx - exact) < 1e-15


def midpoint_rule_mass(mesh):
    """Independent mass assembly: the edge-midpoint rule is exact for the
    quadratic integrands phi_i phi_j."""
    mids = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    phi = np.column_stack([1.0 - mids[:, 0] - mids[:, 1], mids[:, 0], mids[:, 1]])
    N = mesh.num_nodes
    M = np.zeros((N, N))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        e1, e2 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        local = (area / 3.0) * phi.T @ phi
        for a in range(3):
            for b in range(3):
                M[tri[a], tri[b]] += local[a, b]
    return M


class TestMass:
    def test_against_midpoint_rule_oracle(self):
        mesh = build_mesh(1)
        M = assemble_mass(mesh).toarray()
        assert np.allclose(M, midpoint_rule_mass(mesh), atol=1e-15)

    def test_local_template(self):
        mesh = build_mesh(1)
        tri = mesh.triangles[0]
        area = mesh.h ** 2 / 2.0
        expected = (area / 12.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
        sub = assemble_mass(mesh).toarray()[np.ix_(tri, tri)]
        # corner entries accumulate neighbors; the off-corner couplings of a
        # single element are checked through the midpoint oracle instead
        assert np.all(sub >= expected - 1e-15)

    def test_total_integral(self, mesh2):
        assert abs(assemble_mass(mesh2).sum() - 4.0) <= 1e-12

    def test_row_sums_positive(self, mesh2):
        v = assemble_mass(mesh2) @ np.ones(mesh2.num_nodes)
        assert np.all(v > 0)

    def test_symmetry_and_definiteness(self, mesh2):
        M = assemble_mass(mesh2)
        d = abs(M - M.T).max()
        assert d <= 1e-13 * abs(M).max()
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = rng.standard_normal(mesh2.num_nodes)
            assert v @ (M @ v) > 0


class TestStiffness:
    def test_constants_in_kernel_when_beta_zero(self, mesh2):
        F = assemble_stiffness(mesh2, coefficient_preset("constant-diffusion"))
        assert np.abs(F @ np.ones(mesh2.num_nodes)).max() <= 1e-12

    def test_variable_beta_zero_kernel(self, mesh2):
        F = assemble_stiffness(mesh2, coefficient_preset("variable-beta-zero"))
        assert np.abs(F @ np.ones(mesh2.num_nodes)).max() <= 1e-12

    def test_linearity_constant_ones(self, mesh2):
        F = assemble_stiffness(mesh2, coefficient_preset("constant-ones"))
        F_lap = assemble_stiffness(mesh2, coefficient_preset("constant-diffusion"))
        M = assemble_mass(mesh2)
        assert abs(F - (F_lap + M)).max() <= 1e-13 * abs(F).max()

    def test_variable_near_zero_alpha_reduces_to_mass(self, mesh2):
        coeff = CoefficientField(
            alpha=lambda x, y: np.full_like(np.asarray(x, dtype=float), 1e-14),
            beta=lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
        F = assemble_stiffness(mesh2, coeff)
        M = assemble_mass(mesh2)
        assert abs(F - M).max() <= 1e-12

    def test_constant_vs_quadrature_paths_agree(self, mesh2):
        # same coefficients once through the closed form, once through the rule
        const = coefficient_preset("constant-ones")
        quad = CoefficientField(
            alpha=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
            beta=lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
        Fc = assemble_stiffness(mesh2, const)
        Fq = assemble_stiffness(mesh2, quad)
        assert abs(Fc - Fq).max() <= 1e-13 * abs(Fc).max()

    def test_symmetry_and_semidefiniteness_variable(self, mesh2):
        F = assemble_stiffness(mesh2, coefficient_preset("variable"))
        assert abs(F - F.T).max() <= 1e-13 * abs(F).max()
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(mesh2.num_nodes)
            assert v @ (F @ v) >= -1e-12 * (v @ v)

    def test_nonpositive_alpha_rejected(self, mesh2):
        bad = CoefficientField(
            alpha=lambda x, y: np.asarray(x, dtype=float),  # negative for x < 0
            beta=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
        with pytest.raises(CoefficientError):
            assemble_stiffness(mesh2, bad)
        with pytest.raises(CoefficientError):
            assemble_stiffness(mesh2, CoefficientField(
                alpha=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                beta=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
                const_alpha=0.0, const_beta=1.0))


class TestLoad:
    def test_constant_one_equals_mass_row_sums(self, mesh2):
        load = assemble_load(mesh2, lambda x, y: np.ones_like(x))
        M = assemble_mass(mesh2)
        assert np.allclose(load, M @ np.ones(mesh2.num_nodes), atol=1e-13)

    def test_zero(self, mesh2):
        assert np.array_equal(
            assemble_load(mesh2, lambda x, y: np.zeros_like(x)),
            np.zeros(mesh2.num_nodes))

    def test_linear_f_matches_mass_action(self, mesh2):
        load = assemble_load(mesh2, lambda x, y: x + y)
        nodal = mesh2.nodes[:, 0] + mesh2.nodes[:, 1]
        M = assemble_mass(mesh2)
        assert np.abs(load - M @ nodal).max() <= 1e-12

    def test_refinement_consistency(self):
        # <f, 1> should approach the exact integral at O(h^2)
        exact = 8.0 / 3.0  # integral of x^2 + y^2 over the square
        vals = []
        for k in (2, 3, 4):
            mesh = build_mesh(k)
            vals.append(assemble_load(mesh, lambda x, y: x ** 2 + y ** 2).sum())
        errs = [abs(v - exact) for v in vals]
        assert errs[0] < 1e-2
        # the degree-4 rule integrates quadratics exactly per element
        assert errs[2] <= 1e-12


class TestMatrixMarket:
    def test_exact_round_trip(self, tmp_path, mesh2):
        F = assemble_stiffness(mesh2, coefficient_preset("variable"))
        path = tmp_path / "stiffness.mtx"
        write_matrix_market(F, path)
        back = read_matrix_market(path)
        assert (F != back).nnz == 0  # element-wise exact
