import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from irkprec import stageop
from irkprec.assembly import (assemble_load, assemble_mass, assemble_stiffness,
                              coefficient_preset, stencil_csr)
from irkprec.butcher import (butcher_preconditioner_matrix, gauss_legendre,
                             nystrom_from, radau_iia)
from irkprec.driver import method_tableau, mms_problem, timestep_rule
from irkprec.errors import FactorizationError, ResourceLimitError
from irkprec.mesh import build_hierarchy, build_mesh, diagonal_layout
from irkprec.precond import build_preconditioner
from irkprec.stageop import StageOperator, build_stage_rhs


@pytest.fixture(scope="module")
def small_system():
    mesh = build_mesh(1)
    coeff = coefficient_preset("constant-ones")
    return mesh, assemble_mass(mesh), assemble_stiffness(mesh, coeff)


def dense_kron_oracle(coupling, M, F, h_t, mu):
    """Brute-force Kronecker assembly the operator is checked against."""
    return (np.kron(np.eye(coupling.shape[0]), M.toarray())
            + h_t ** mu * np.kron(coupling, F.toarray()))


class TestApply:
    def test_single_stage_is_m_plus_f(self, small_system):
        _, M, F = small_system
        op = StageOperator(np.array([[1.0]]), M, F, 1.0, 1)
        x = np.arange(M.shape[0], dtype=float)
        assert np.allclose(op.apply(x), (M + F) @ x, atol=1e-13)

    def test_zero_maps_to_zero(self, small_system):
        _, M, F = small_system
        op = StageOperator(radau_iia(2), M, F, 0.25, 1)
        assert np.array_equal(op.apply(np.zeros(op.size)), np.zeros(op.size))

    @pytest.mark.parametrize("s,mu", [(1, 1), (2, 1), (3, 2), (5, 2)])
    def test_matches_dense_kron_oracle(self, small_system, s, mu):
        _, M, F = small_system
        t = radau_iia(s) if mu == 1 else nystrom_from(gauss_legendre(s))
        op = StageOperator(t, M, F, 0.3, mu)
        rng = np.random.default_rng(s * 10 + mu)
        dense = dense_kron_oracle(t.A, M, F, 0.3, mu)
        for _ in range(5):
            x = rng.standard_normal(op.size)
            y = op.apply(x)
            assert np.linalg.norm(y - dense @ x) <= 1e-12 * np.linalg.norm(y)

    def test_linearity(self, small_system):
        _, M, F = small_system
        op = StageOperator(radau_iia(3), M, F, 0.1, 1)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, op.size))
        lhs = op.apply(x + y)
        rhs = op.apply(x) + op.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_identity_coupling_is_blockwise(self, small_system):
        _, M, F = small_system
        op = StageOperator(np.eye(2), M, F, 0.5, 1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(op.size)
        N = M.shape[0]
        S = (M + 0.5 * F)
        expected = np.concatenate([S @ x[:N], S @ x[N:]])
        assert np.allclose(op.apply(x), expected, atol=1e-13)

    def test_dimension_mismatch(self, small_system):
        _, M, F = small_system
        op = StageOperator(radau_iia(2), M, F, 0.5, 1)
        with pytest.raises(ValueError):
            op.apply(np.zeros(op.size + 1))
        with pytest.raises(ValueError):
            op.apply_transpose(np.zeros(op.size + 1))

    @pytest.mark.parametrize("h_t", [0.0, -0.5, np.nan, np.inf])
    def test_rejects_bad_timestep(self, small_system, h_t):
        # nan and inf passed "h_t <= 0" and gave all-nan or all-inf applies
        _, M, F = small_system
        with pytest.raises(ValueError):
            StageOperator(radau_iia(2), M, F, h_t, 1)

    def test_matvec_counters(self, small_system):
        _, M, F = small_system
        op = StageOperator(radau_iia(3), M, F, 0.5, 1)
        x = np.zeros(op.size)
        op.apply(x)
        op.apply(x)
        assert op.n_mass_matvecs == 6
        assert op.n_stiffness_matvecs == 6
        op.reset_counters()
        assert op.n_mass_matvecs == 0
        op.apply_transpose(x)
        assert op.n_mass_matvecs == 3
        assert op.n_stiffness_matvecs == 3

    def test_transpose_consistent(self, small_system):
        _, M, F = small_system
        op = StageOperator(radau_iia(3), M, F, 0.4, 1)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, op.size))
        assert abs(y @ op.apply(x) - x @ op.apply_transpose(y)) <= 1e-10

    def test_strided_input(self, small_system):
        _, M, F = small_system
        op = StageOperator(radau_iia(3), M, F, 0.4, 1)
        x = np.random.default_rng(6).standard_normal(2 * op.size)[::2]
        for apply in (op.apply, op.apply_transpose):
            assert np.array_equal(apply(x), apply(x.copy()))


class TestSpmv:
    """spmv(A, x, out) writes the bits of A @ x into out."""

    @pytest.fixture(scope="class")
    def operands(self):
        mesh = build_mesh(2)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        R = build_hierarchy(2).prolongations[0]  # CSR, not square
        S = M + (0.3 + 0.2j) * F
        return {"F": F, "F (CSR)": F.tocsr(), "M + cF": S, "M + cF (CSR)": S.tocsr(),
                "R": R, "R^T": R.T.tocsr()}

    @pytest.mark.parametrize("name", ["F", "F (CSR)", "M + cF", "M + cF (CSR)", "R", "R^T"])
    @pytest.mark.parametrize("x_complex", [False, True])
    @pytest.mark.parametrize("m", [None, 3])
    def test_bit_equal_to_matmul(self, operands, name, x_complex, m):
        A = operands[name]
        rng = np.random.default_rng(7)
        shape = (A.shape[1],) if m is None else (A.shape[1], m)
        x = rng.standard_normal(shape)
        if x_complex:
            x = x + 1j * rng.standard_normal(shape)
        expected = A @ x
        # stale values in out must not leak into the sum
        out = np.full(expected.shape, np.nan, expected.dtype)
        assert stageop.spmv(A, x, out) is out
        assert np.array_equal(out, expected)

    def test_rejects_mismatched_operands(self, operands):
        F = operands["F"]
        n = F.shape[0]
        x = np.ones(n)
        for out in (np.empty(n - 1), np.empty((n, 1)), np.empty(n, np.complex128),
                    np.empty(n, np.float32), np.empty(2 * n)[::2]):
            with pytest.raises(ValueError):
                stageop.spmv(F, x, out)
        with pytest.raises(ValueError):
            stageop.spmv(F, x + 1j, np.empty(n))        # complex product, real out
        with pytest.raises(ValueError):
            stageop.spmv(F, np.ones(n - 1), np.empty(n))  # the kernel reads x[:n]
        with pytest.raises(ValueError):
            stageop.spmv(F.tocsc(), x, np.empty(n))


class TestDiagonalStorage:
    """spmv on a grid matrix in diagonal storage writes the bytes of the
    CSR product, on every row, boundary rows included."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(k=st.integers(1, 6), complex_data=st.booleans(), complex_x=st.booleans(),
           m=st.sampled_from([None, 1, 3]), zeros=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2 ** 16))
    def test_bytes_equal_csr_product(self, k, complex_data, complex_x, m, zeros, seed):
        # random values on the stencil entries, a share of them explicit
        # +0 or -0, and zeros on the row wraps, as the assembly leaves them;
        # x has +0 and -0 entries too, so that products of zeros are signed
        n = 2 ** (k + 1)
        N = (n + 1) ** 2
        offsets, slots = diagonal_layout(n)
        stored = np.unique(slots)
        rng = np.random.default_rng(seed)

        def draw(shape, is_complex, zero_share):
            v = rng.standard_normal(shape)
            if is_complex:
                v = v + 1j * rng.standard_normal(shape)
            hit = rng.random(shape) < zero_share
            v[hit] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[hit]
            return v

        data = np.zeros(7 * N, np.complex128 if complex_data else float)
        data[stored] = draw(stored.size, complex_data, zeros)
        A = sp.dia_matrix((data.reshape(7, N), offsets), shape=(N, N))
        x = draw((N,) if m is None else (N, m), complex_x, 0.1)
        expected = stencil_csr(A) @ x
        for B in (A, stencil_csr(A), A.tocsr()):
            out = np.full(expected.shape, np.nan, expected.dtype)
            assert stageop.spmv(B, x, out) is out
            assert out.tobytes() == expected.tobytes()

    def test_non_finite_x_reaches_padded_entries(self):
        # DIA adds 0 x_q for the zeros on the row wraps, so an inf in x
        # gives NaN there, where the CSR product skips the entry
        n = 4
        N = (n + 1) ** 2
        A = assemble_mass(build_mesh(1))
        x = np.ones(N)
        x[n + 1] = np.inf                    # node (0, 1); node (n, 0) wraps onto it
        dia = stageop.spmv(A, x, np.empty(N))
        csr = stageop.spmv(stencil_csr(A), x, np.empty(N))
        assert np.isnan(dia[n]) and np.isfinite(csr[n])
        finite = np.ones(N)
        assert stageop.spmv(A, finite, np.empty(N)).tobytes() == (stencil_csr(A) @ finite).tobytes()

    @pytest.mark.parametrize("c", [0.3, np.float64(0.3), 0.3 + 0.2j, np.complex128(0.3 + 0.2j)])
    def test_block_sum_stays_on_the_diagonals(self, c):
        # lu_block and the V-cycle form M + c F with scipy's sum; for two
        # DIA matrices on the same offsets it must stay DIA on them, with
        # the data M.data + c F.data, for the nested-dissection order and
        # the DIA sweeps to apply
        mesh = build_mesh(3)
        M, F = assemble_mass(mesh), assemble_stiffness(mesh, coefficient_preset("variable"))
        S = M + c * F
        assert S.format == "dia" and np.array_equal(S.offsets, M.offsets)
        assert S.data.tobytes() == (M.data + c * F.data).tobytes()
        ref = M.tocsr() + c * F.tocsr()
        for name in ("data", "indices", "indptr"):
            assert getattr(S.tocsr(), name).tobytes() == getattr(ref, name).tobytes()


class TestMaterialize:
    def test_agreement_with_apply(self, small_system):
        _, M, F = small_system
        op = StageOperator(nystrom_from(gauss_legendre(2)), M, F, 0.5, 2)
        D = op.materialize()
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(op.size)
            assert np.linalg.norm(op.apply(x) - D @ x) <= 1e-12 * np.linalg.norm(D @ x)

    def test_symmetric_inputs_give_symmetric_matrix(self, small_system):
        _, M, F = small_system
        op = StageOperator(np.array([[2.0, 1.0], [1.0, 3.0]]), M, F, 0.2, 1)
        D = op.materialize()
        assert np.allclose(D, D.T, atol=1e-13)

    def test_small_ht_limit_is_mass(self, small_system):
        _, M, F = small_system
        t = radau_iia(2)
        mass_block = np.kron(np.eye(2), M.toarray())
        coupling_norm = np.linalg.norm(np.kron(t.A, F.toarray()))
        for h_t in (1e-4, 1e-6):
            D = StageOperator(t, M, F, h_t, 2).materialize()
            dev = np.linalg.norm(D - mass_block)
            assert dev <= (1.0 + 1e-8) * h_t ** 2 * coupling_norm
            assert dev <= 1e-6 * np.linalg.norm(mass_block)

    def test_guard(self, small_system):
        _, M, F = small_system
        big = sp.identity(15000, format="csr")
        op = StageOperator(radau_iia(2), big, big, 0.5, 1)
        # refused before allocating; the message names the bytes it would take
        with pytest.raises(ResourceLimitError, match="7200000000 bytes"):
            op.materialize()



TABLEAUS = {"radau-iia": radau_iia,
            "gauss-legendre-nystrom": lambda s: nystrom_from(gauss_legendre(s))}
ALL_KINDS = ("J", "GSL", "TRIU", "LD", "DU")
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def stage_cases(draw, couplings=("A",) + ALL_KINDS):
    """(tableau, coupling name, C, h_t, mu, rng) over s = 1..5, both
    tableaus, the Butcher matrix and every preconditioner matrix."""
    t = TABLEAUS[draw(st.sampled_from(sorted(TABLEAUS)))](draw(st.integers(1, 5)))
    which = draw(st.sampled_from(couplings))
    C = t.A if which == "A" else butcher_preconditioner_matrix(t, which)
    h_t = draw(st.floats(1e-3, 1.0))
    mu = draw(st.sampled_from((1, 2)))
    return t, which, C, h_t, mu, np.random.default_rng(draw(st.integers(0, 2 ** 16)))


@st.composite
def materialize_cases(draw):
    """(k, C, h_t, mu): C the Butcher matrix or a preconditioner matrix of
    either tableau at s = 1..5, or a random s x s matrix with zero and
    negative entries."""
    s = draw(st.integers(1, 5))
    which = draw(st.sampled_from(("A", "random") + ALL_KINDS))
    if which == "random":
        entry = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
        C = np.array(draw(st.lists(entry, min_size=s * s, max_size=s * s))).reshape(s, s)
    else:
        t = TABLEAUS[draw(st.sampled_from(sorted(TABLEAUS)))](s)
        C = t.A if which == "A" else butcher_preconditioner_matrix(t, which)
    return (draw(st.integers(1, 2)), C, draw(st.floats(1e-3, 2.0)),
            draw(st.sampled_from((1, 2))))


@pytest.fixture(scope="module")
def variable_system():
    mesh = build_mesh(1)
    return assemble_mass(mesh), assemble_stiffness(mesh, coefficient_preset("variable"))


@pytest.fixture(scope="module")
def variable_systems():
    """{k: (M, F)} with variable coefficients on the meshes k = 1, 2."""
    coeff = coefficient_preset("variable")
    return {k: (assemble_mass(build_mesh(k)), assemble_stiffness(build_mesh(k), coeff))
            for k in (1, 2)}


class TestApplyBitForBit:
    """apply and apply_transpose give the bits of the Kronecker form on
    the (N, s) view X of x, whose columns are the stage blocks."""

    @staticmethod
    def kronecker_form(op, x, C):
        X = x.reshape(op.s, op.N).T
        return (op.M @ X + op.h_t ** op.mu * ((op.F @ X) @ C.T)).T.ravel()

    @PROPERTY
    @given(s=st.integers(1, 5), mu=st.sampled_from((1, 2)), k=st.integers(1, 2),
           h_t=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 16))
    def test_matches_kronecker_form(self, variable_systems, s, mu, k, h_t, seed):
        M, F = variable_systems[k]
        rng = np.random.default_rng(seed)
        C = rng.standard_normal((s, s))
        op = StageOperator(C, M, F, h_t, mu)
        x = rng.standard_normal(op.size)
        assert np.array_equal(op.apply(x), self.kronecker_form(op, x, C))
        assert np.array_equal(op.apply_transpose(x), self.kronecker_form(op, x, C.T))
        assert op.n_mass_matvecs == op.n_stiffness_matvecs == 2 * s


class TestMaterializeBitForBit:
    """materialize() makes the sparse Kronecker sum dense once; it does the
    float operations of the np.kron form: c f, then h_t^mu (c f), then
    m + that."""

    @PROPERTY
    @given(case=materialize_cases())
    def test_matches_dense_kronecker_form(self, variable_systems, case):
        k, C, h_t, mu = case
        M, F = variable_systems[k]
        D = StageOperator(C, M, F, h_t, mu).materialize()
        assert D.dtype == np.float64 and D.flags.c_contiguous
        assert np.array_equal(D, dense_kron_oracle(C, M, F, h_t, mu))


class TestSolve:
    @PROPERTY
    @given(case=stage_cases())
    def test_apply_undoes_solve(self, variable_system, case):
        M, F = variable_system
        _, _, C, h_t, mu, rng = case
        op = StageOperator(C, M, F, h_t, mu)
        r = rng.standard_normal(op.size)
        assert np.linalg.norm(op.apply(op.solve(r)) - r) <= 1e-11 * np.linalg.norm(r)

    @PROPERTY
    @given(case=stage_cases())
    def test_solve_matches_dense(self, variable_system, case):
        M, F = variable_system
        _, _, C, h_t, mu, rng = case
        op = StageOperator(C, M, F, h_t, mu)
        r = rng.standard_normal(op.size)
        x = np.linalg.solve(op.materialize(), r)
        assert np.linalg.norm(op.solve(r) - x) <= 1e-11 * np.linalg.norm(x)

    @PROPERTY
    @given(case=stage_cases())
    def test_solve_transpose_is_adjoint(self, variable_system, case):
        M, F = variable_system
        _, _, C, h_t, mu, rng = case
        op = StageOperator(C, M, F, h_t, mu)
        x, y = rng.standard_normal((2, op.size))
        u, v = op.solve(x), op.solve_transpose(y)
        assert abs(u @ y - x @ v) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(y)

    @PROPERTY
    @given(case=stage_cases(couplings=ALL_KINDS))
    def test_exact_preconditioner_is_the_solve(self, variable_system, case):
        M, F = variable_system
        t, kind, _, h_t, mu, rng = case
        prec = build_preconditioner(t, kind, M, F, h_t, mu, subsolve="exact")
        op = StageOperator(prec.P, M, F, h_t, mu)
        r = rng.standard_normal(op.size)
        assert np.array_equal(prec.apply_inverse(r), op.solve(r))
        assert np.array_equal(prec.apply_inverse_transpose(r), op.solve_transpose(r))

    @PROPERTY
    @given(case=stage_cases(), m=st.integers(1, 4))
    def test_block_solve_matches_columns(self, variable_system, case, m):
        # an (s N, m) block is solved column by column
        M, F = variable_system
        _, _, C, h_t, mu, rng = case
        op = StageOperator(C, M, F, h_t, mu)
        R = rng.standard_normal((op.size, m))
        for solve in (op.solve, op.solve_transpose):
            X = solve(R)
            assert X.shape == R.shape
            columns = np.column_stack([solve(R[:, j]) for j in range(m)])
            assert np.linalg.norm(X - columns) <= 1e-13 * np.linalg.norm(columns)

    @pytest.mark.parametrize("shape", [(7,), (7, 2), (2, 9, 2)])
    def test_solve_rejects_wrong_shape(self, small_system, shape):
        _, M, F = small_system
        op = StageOperator(radau_iia(2), M, F, 0.5, 1)
        with pytest.raises(ValueError):
            op.solve(np.ones(shape))

    def test_nothing_factored_before_first_solve(self, small_system, monkeypatch):
        _, M, F = small_system
        calls = []
        monkeypatch.setattr(stageop, "splu",
                            lambda A, *args, **kwargs: calls.append(A) or splu(A, *args, **kwargs))
        op = StageOperator(radau_iia(3), M, F, 0.4, 1)
        op.apply(np.ones(op.size))
        assert calls == []
        r = np.ones(op.size)
        assert np.array_equal(op.solve(r), op.solve(r))
        assert len(calls) == 2  # one real eigenvalue, one conjugate pair

    def test_unstandardized_schur_block_rejected(self, small_system, monkeypatch):
        _, M, F = small_system
        T = np.array([[1.0, 2.0], [-1.0, 1.5]])  # unequal diagonal
        monkeypatch.setattr(stageop, "schur", lambda C, output: (T, np.eye(2)))
        op = StageOperator(radau_iia(2), M, F, 0.5, 1)
        with pytest.raises(FactorizationError):
            op.solve(np.ones(op.size))


class TestFactor:
    """The symmetric-ordering LUs of the blocks M + c F at mesh size."""

    @pytest.mark.parametrize("name,coeff", [("diffusion", "constant-diffusion"),
                                            ("pennes", "variable"),
                                            ("wave", "constant-diffusion"),
                                            ("klein-gordon", "variable")])
    def test_solve_accurate_at_mesh_size(self, name, coeff):
        # s = 3 gives one real block and one complex Schur block for both tableaus
        mesh = build_mesh(4)
        problem = mms_problem(name, coeff)
        t = method_tableau(name, 3)
        op = StageOperator(t, assemble_mass(mesh), assemble_stiffness(mesh, problem.coeff),
                           timestep_rule(mesh.h, 3, t.kind), problem.mu)
        r = np.random.default_rng(3).standard_normal(op.size)
        assert np.linalg.norm(op.apply(op.solve(r)) - r) <= 1e-12 * np.linalg.norm(r)

    @pytest.mark.parametrize("coupling,c", [([[0.3]], 0.3),
                                            ([[0.3, -0.2], [0.2, 0.3]], 0.3 + 0.2j)])
    def test_less_fill_than_default_ordering(self, coupling, c):
        mesh = build_mesh(5)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        op = StageOperator(np.array(coupling), M, F, 0.1, 1)
        assert op.factor_nnz == 0
        op.solve(np.ones(op.size))
        default = splu((M + 0.1 * c * F).tocsc())
        assert 0 < op.factor_nnz < default.L.nnz + default.U.nnz

    @pytest.fixture(scope="class")
    def level6(self):
        mesh = build_mesh(6)
        return assemble_mass(mesh), assemble_stiffness(mesh, coefficient_preset("variable"))

    @pytest.mark.parametrize("coupling,c", [([[0.3]], 0.3),
                                            ([[0.3, -0.2], [0.2, 0.3]], 0.3 + 0.2j)])
    def test_nested_dissection_at_level_six(self, level6, coupling, c):
        # one real or one complex block of N = 16641 >= ND_MIN_NODES nodes
        M, F = level6
        op = StageOperator(np.array(coupling), M, F, 0.1, 1)
        rng = np.random.default_rng(6)
        r = rng.standard_normal(op.size)
        assert np.linalg.norm(op.apply(op.solve(r)) - r) <= 1e-12 * np.linalg.norm(r)
        S = M + 0.1 * c * F
        lu = stageop.factor(S)
        assert lu.order is not None                     # nested dissection
        minimum_degree = splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A",
                              options={"SymmetricMode": True})
        assert op.factor_nnz == lu.nnz < minimum_degree.nnz
        # the dense kappa route solves (N, m) blocks
        B = rng.standard_normal((S.shape[0], 3))
        X = lu.solve(B)
        columns = np.column_stack([lu.solve(B[:, j]) for j in range(3)])
        assert X.dtype == columns.dtype and X.tobytes() == columns.tobytes()

    def test_minimum_degree_below_the_size_or_off_the_stencil(self, level6):
        mesh = build_mesh(5)
        assert mesh.num_nodes < stageop.ND_MIN_NODES
        small = assemble_mass(mesh) + 0.03 * assemble_stiffness(
            mesh, coefficient_preset("variable"))
        M, F = level6
        S = M + 0.03 * F
        N, side = S.shape[0], 129
        # node (1, 0) coupled with (0, 1), and (0, 0) with (2, 0): no stencil
        # edges, so diagonal storage needs a diagonal off the stencil
        outside = [(S + sp.csr_matrix(([1e-3, 1e-3], ([i, j], [j, i])), shape=(N, N))).todia()
                   for i, j in ((1, side), (0, 2))]
        assert all(block.offsets.size == 9 for block in outside)
        # a grid block given in CSR storage carries no stencil to read
        for block in [small, S.tocsr()] + outside:
            lu = stageop.factor(block)
            assert lu.order is None                     # minimum degree
            b = np.ones(block.shape[0])
            assert np.linalg.norm(block @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("c", [0.3, 0.3 + 0.2j])
    @pytest.mark.parametrize("level", [5, 6])
    def test_solves_with_s_not_its_transpose(self, level6, level, c):
        # the factors are those of S^T, so a solve that dropped trans="T"
        # would solve with S^T. A skew-symmetric perturbation inside the
        # stencil (F's strict upper triangle, minus its transpose) makes S^T
        # differ from S, keeps S's Hermitian part positive definite and the
        # k=6 block on the nested-dissection route.
        if level == 6:
            M, F = level6
        else:
            mesh = build_mesh(level)
            M, F = assemble_mass(mesh), assemble_stiffness(mesh, coefficient_preset("variable"))
        U = sp.triu(F, 1)
        S = (M + c * F + 0.1 * (U - U.T)).todia()
        lu = stageop.factor(S)
        assert (lu.order is not None) == (level == 6)
        rng = np.random.default_rng(level)
        for b in (rng.standard_normal(S.shape[0]), rng.standard_normal((S.shape[0], 3))):
            x = lu.solve(b)
            assert np.linalg.norm(S @ x - b) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(S.T @ x - b) > 1e-3 * np.linalg.norm(b)


class TestStageRhs:
    def test_constant_state_zero_forcing(self, small_system):
        mesh, M, F0 = small_system
        coeff = coefficient_preset("constant-diffusion")
        F = assemble_stiffness(mesh, coeff)
        t = radau_iia(2)
        rhs = build_stage_rhs(mesh, coeff, t, 0.25, 1, 0.0,
                              np.full(mesh.num_nodes, 3.0),
                              g=lambda x, y, tt: np.zeros_like(x), F=F)
        assert np.abs(rhs).max() <= 1e-12

    def test_missing_udot_rejected(self, small_system):
        mesh, M, F = small_system
        t = nystrom_from(gauss_legendre(2))
        with pytest.raises(ValueError):
            build_stage_rhs(mesh, coefficient_preset("constant-ones"), t,
                            0.25, 2, 0.0, np.zeros(mesh.num_nodes),
                            g=lambda x, y, tt: np.zeros_like(x), F=F)

    def test_udot_coefficient_scales_with_c(self, small_system):
        # the udot term enters block i with weight h_t * c_i
        mesh, M, F = small_system
        t = nystrom_from(gauss_legendre(2))
        u = np.zeros(mesh.num_nodes)
        udot = np.ones(mesh.num_nodes)
        g0 = lambda x, y, tt: np.zeros_like(x)
        rhs = build_stage_rhs(mesh, coefficient_preset("constant-ones"), t,
                              0.5, 2, 0.0, u, udot, g0, F=F)
        N = mesh.num_nodes
        for i in range(2):
            expected = -0.5 * t.c[i] * (F @ udot)
            assert np.allclose(rhs[i * N:(i + 1) * N], expected, atol=1e-13)

    def test_g_evaluated_at_stage_times(self, small_system):
        mesh, M, F = small_system
        t = radau_iia(2)
        seen = []

        def g(x, y, tt):
            seen.append(tt)
            return np.zeros_like(x)

        build_stage_rhs(mesh, coefficient_preset("constant-ones"), t, 0.5, 1,
                        2.0, np.zeros(mesh.num_nodes), g=g, F=F)
        assert np.allclose(sorted(seen), 2.0 + 0.5 * t.c, atol=1e-14)

    @pytest.mark.parametrize("name,preset,s", [
        ("diffusion", "variable-beta-zero", 3), ("pennes", "variable", 2),
        ("wave", "constant-diffusion", 3), ("klein-gordon", "variable", 2)])
    def test_bare_callable_matches_per_stage_assembly(self, name, preset, s):
        # a bare g(x, y, t) is assembled one stage slice at a time, each
        # load taken as it is: bit for bit the per-stage reference below
        problem = mms_problem(name, preset)
        mesh = build_mesh(3)
        F = assemble_stiffness(mesh, problem.coeff)
        tableau = method_tableau(name, s)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(mesh.num_nodes)
        udot = rng.standard_normal(mesh.num_nodes) if problem.mu == 2 else None
        t_prev, h_t = 0.3, 0.125
        bare = lambda x, y, t: problem.g(x, y, t) + x * y * t
        rhs = build_stage_rhs(mesh, problem.coeff, tableau, h_t, problem.mu,
                              t_prev, u, udot, bare, F=F)
        loads = np.array([assemble_load(mesh, lambda x, y: bare(x, y, t_prev + ci * h_t))
                          for ci in tableau.c])
        W = u[None, :]
        if problem.mu == 2:
            W = W + np.outer(h_t * tableau.c, udot)
        expected = (loads - (F @ W.T).T).ravel()
        assert rhs.tobytes() == expected.tobytes()
