import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from irkprec import assembly, stageop
from irkprec.assembly import (PRESETS, QUAD_PHI, QUAD_POINTS, QUAD_WEIGHTS,
                              CoefficientField, assemble_load, assemble_loads,
                              assemble_mass, assemble_stiffness,
                              coefficient_preset, read_matrix_market,
                              write_matrix_market)
from irkprec.driver import PROBLEM_NAMES, forcing_loads, mms_problem
from irkprec.errors import CoefficientError
from irkprec.mesh import (LOAD_TERMS, MATRIX_TERMS, build_mesh, padding_views, stencil_mask,
                          stencil_offsets)


@pytest.fixture(scope="module")
def mesh2():
    return build_mesh(2)


def ones(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


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
        d = abs(M - M.T).tocsr().max()
        assert d <= 1e-13 * abs(M).tocsr().max()
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
        assert abs(F - (F_lap + M)).tocsr().max() <= 1e-13 * abs(F).tocsr().max()

    def test_variable_near_zero_alpha_reduces_to_mass(self, mesh2):
        coeff = CoefficientField(
            alpha=lambda x, y: np.full_like(np.asarray(x, dtype=float), 1e-14),
            beta=lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
        F = assemble_stiffness(mesh2, coeff)
        M = assemble_mass(mesh2)
        assert abs(F - M).tocsr().max() <= 1e-12

    def test_constant_vs_quadrature_paths_agree(self, mesh2):
        # same coefficients once through the closed form, once through the rule
        const = coefficient_preset("constant-ones")
        quad = CoefficientField(
            alpha=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
            beta=lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
        Fc = assemble_stiffness(mesh2, const)
        Fq = assemble_stiffness(mesh2, quad)
        assert abs(Fc - Fq).tocsr().max() <= 1e-13 * abs(Fc).tocsr().max()

    def test_symmetry_and_semidefiniteness_variable(self, mesh2):
        F = assemble_stiffness(mesh2, coefficient_preset("variable"))
        assert abs(F - F.T).tocsr().max() <= 1e-13 * abs(F).tocsr().max()
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


class TestCoefficientChecks:
    BAD = [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, 0.0),
           (-1.0, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)]

    @pytest.mark.parametrize("alpha,beta", BAD)
    def test_constant_path_refuses(self, mesh2, alpha, beta):
        field = CoefficientField(alpha=ones, beta=ones, const_alpha=alpha,
                                 const_beta=beta)
        with pytest.raises(CoefficientError):
            assemble_stiffness(mesh2, field)

    @pytest.mark.parametrize("alpha,beta", BAD)
    def test_quadrature_path_refuses(self, mesh2, alpha, beta):
        field = CoefficientField(
            alpha=lambda x, y: np.full_like(x, alpha),
            beta=lambda x, y: np.full_like(x, beta))
        with pytest.raises(CoefficientError):
            assemble_stiffness(mesh2, field)

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_one_bad_quadrature_point_is_enough(self, mesh2, which, bad):
        def spoilt(x, y):
            out = np.ones_like(x)
            out.flat[7] = bad
            return out
        field = CoefficientField(**{"alpha": ones, "beta": ones, which: spoilt})
        with pytest.raises(CoefficientError):
            assemble_stiffness(mesh2, field)

    def test_zero_beta_and_positive_alpha_pass(self, mesh2):
        assemble_stiffness(mesh2, CoefficientField(
            alpha=ones, beta=ones, const_alpha=1e-300, const_beta=0.0))
        assemble_stiffness(mesh2, CoefficientField(
            alpha=ones, beta=lambda x, y: np.zeros_like(x)))


# Reference assembly: one plain formula per quantity, on the (T, 3, 2)
# array nodes[triangles]. The assembly must stay bit for bit equal to it
# (see the assembly module docstring).

REF_MASS_TEMPLATE = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def ref_geometry(xy):
    e1 = xy[:, 1] - xy[:, 0]
    e2 = xy[:, 2] - xy[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * det
    grads = np.empty_like(xy)
    grads[:, 1, 0] = e2[:, 1] / det
    grads[:, 1, 1] = -e2[:, 0] / det
    grads[:, 2, 0] = -e1[:, 1] / det
    grads[:, 2, 1] = e1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return area, grads


def ref_quad_xy(mesh):
    xy = mesh.nodes[mesh.triangles]
    v0 = xy[:, 0][:, None, :]
    e1 = (xy[:, 1] - xy[:, 0])[:, None, :]
    e2 = (xy[:, 2] - xy[:, 0])[:, None, :]
    return v0 + QUAD_POINTS[None, :, 0, None] * e1 + QUAD_POINTS[None, :, 1, None] * e2


def element_entries(mesh):
    """Row and column of each local entry, in local.ravel() order: entry
    (t, i, j) of a (T, 3, 3) local array is (triangles[t, i], triangles[t, j])."""
    tri = mesh.triangles
    return np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel()


def coo_scatter(mesh, local):
    """scipy's COO -> CSR, which sums the duplicates in its own order."""
    rows, cols = element_entries(mesh)
    N = mesh.num_nodes
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(N, N)).tocsr()


def ref_scatter(mesh, local):
    """COO -> CSR's pattern, each entry the sum of its element terms in
    element order (np.add.at adds one term at a time, in index order)."""
    rows, cols = element_entries(mesh)
    A = coo_scatter(mesh, np.zeros(local.shape))
    keys = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)) * A.shape[0] + A.indices
    np.add.at(A.data, np.searchsorted(keys, rows * A.shape[0] + cols), local.ravel())
    return A


def ref_mass(mesh, scatter=ref_scatter):
    area, _ = ref_geometry(mesh.nodes[mesh.triangles])
    return scatter(mesh, area[:, None, None] * REF_MASS_TEMPLATE[None])


def ref_stiffness(mesh, coeff, scatter=ref_scatter):
    area, grads = ref_geometry(mesh.nodes[mesh.triangles])
    gdot = np.einsum("tix,tjx->tij", grads, grads)
    if coeff.is_constant:
        local = (coeff.const_alpha * area)[:, None, None] * gdot
        local += (coeff.const_beta * area)[:, None, None] * REF_MASS_TEMPLATE[None]
        return scatter(mesh, local)
    pts = ref_quad_xy(mesh)
    alpha_q = np.asarray(coeff.alpha(pts[..., 0], pts[..., 1]), dtype=float)
    beta_q = np.asarray(coeff.beta(pts[..., 0], pts[..., 1]), dtype=float)
    alpha_q = np.broadcast_to(alpha_q, pts.shape[:2]).copy()
    beta_q = np.broadcast_to(beta_q, pts.shape[:2]).copy()
    abar = alpha_q @ QUAD_WEIGHTS
    local = (area * abar)[:, None, None] * gdot
    wb = beta_q * QUAD_WEIGHTS
    local += area[:, None, None] * np.einsum("tq,qi,qj->tij", wb, QUAD_PHI, QUAD_PHI)
    return scatter(mesh, local)


def ref_load(mesh, f):
    area, _ = ref_geometry(mesh.nodes[mesh.triangles])
    pts = ref_quad_xy(mesh)
    f_q = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    f_q = np.broadcast_to(f_q, pts.shape[:2]).copy()
    local = area[:, None] * np.einsum("tq,q,qi->ti", f_q, QUAD_WEIGHTS, QUAD_PHI)
    out = np.zeros(mesh.num_nodes)
    np.add.at(out, mesh.triangles.ravel(), local.ravel())
    return out


def assert_same_bits(a, b):
    """a == b entry by entry, and stricter: the bit patterns match, so
    -0.0 and 0.0 count as different."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def on_diagonals(A, n):
    """The (7, N) DIA data of the CSR matrix A of the (n+1)^2 grid: each
    stored entry (p, q) in row d of offset q - p = stencil_offsets(n)[d],
    column q, and +0.0 wherever A stores no entry."""
    offsets = stencil_offsets(n)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    diagonal = np.searchsorted(offsets, A.indices - rows)
    assert np.array_equal(offsets[diagonal], A.indices - rows)
    data = np.zeros((offsets.size, A.shape[1]), A.dtype)
    data[diagonal, A.indices] = A.data
    return data


def assert_same_dia(A, B):
    """A, assembled in DIA storage, holds the entries of the CSR
    reference B bit for bit on the stencil's diagonals, and zeros
    elsewhere."""
    n = math.isqrt(B.shape[0]) - 1
    assert A.format == "dia" and A.shape == B.shape
    assert np.array_equal(A.offsets, stencil_offsets(n))
    assert_same_bits(A.data, on_diagonals(B, n))


# Fields that take the quadrature path with results the assembly must
# broadcast: a scalar, and a column, the value at each triangle's first
# point for all of its points (the last axis of length 1).
ODD_SHAPES = {
    "scalar": CoefficientField(alpha=lambda x, y: 1.5, beta=lambda x, y: 0.25),
    "column": CoefficientField(alpha=lambda x, y: 1.0 + 0.0 * x[..., :1],
                               beta=lambda x, y: np.abs(y[..., :1])),
}


# The four problems, each with both coefficient presets that fit it.
MMS_PAIRS = [(name, preset) for name in PROBLEM_NAMES for preset in {
    "diffusion": ("constant-diffusion", "variable-beta-zero"),
    "wave": ("constant-diffusion", "variable-beta-zero"),
    "pennes": ("constant-ones", "variable"),
    "klein-gordon": ("constant-ones", "variable")}[name]]


def forcing_profiles():
    """Each forcing profile of MMS_PAIRS, plus the summed forcing g at one
    time."""
    out = {}
    for name, preset in MMS_PAIRS:
        problem = mms_problem(name, preset)
        for m in range(len(problem.g.amplitudes)):
            out[f"{name}-{preset}-mode{m}"] = (
                lambda x, y, g=problem.g, m=m: list(g.profiles(x, y))[m])
        out[f"{name}-{preset}-g"] = (
            lambda x, y, g=problem.g: g(x, y, 0.37))
    return out


def oracle_mesh(k, jitter):
    """build_mesh(k), or with jitter its nodes moved by up to h/5 at
    random: on the uniform mesh every gradient is 0 or +-1/h, a power of
    two, so its products and sums are exact whatever their order."""
    mesh = build_mesh(k)
    if not jitter:
        return mesh
    rng = np.random.default_rng(k)
    return replace(mesh, nodes=mesh.nodes + rng.uniform(
        -0.2 * mesh.h, 0.2 * mesh.h, mesh.nodes.shape))


def record_field_calls(assemble):
    """The (x, y) of every call assemble(f) makes of a field f, each
    checked to be a C-contiguous float64 array."""
    calls = []

    def f(x, y):
        assert all(c.dtype == np.float64 and c.flags.c_contiguous for c in (x, y))
        calls.append((x, y))
        return 2.0 + x * y  # > 0, a valid alpha and beta

    assemble(f)
    return calls


def assert_points_of(mesh, calls):
    """The x and y of the calls, one a chunk in order, broadcast to the
    chunk's points and stacked, are bit for bit the quadrature points of
    the plain formula."""
    full = [np.broadcast_arrays(x, y) for x, y in calls]
    for c in (0, 1):
        got = np.concatenate([xy[c].reshape(-1, len(QUAD_WEIGHTS)) for xy in full])
        assert_same_bits(got, ref_quad_xy(mesh)[..., c])


MESHES = [(k, jitter) for k in (1, 2, 3, 4, 5) for jitter in (False, True)]

# Chunk sizes in triangles other than the default: one square row at a
# time (the most chunk boundaries) and the whole mesh in one chunk.
CHUNKS = {"one-row": 1, "whole-mesh": 2 ** 40}


@pytest.fixture(params=list(CHUNKS))
def chunk(request, monkeypatch):
    monkeypatch.setattr(assembly, "CHUNK_TRIANGLES", CHUNKS[request.param])


class TestBitForBit:
    @pytest.mark.parametrize("k,jitter", MESHES)
    def test_mass(self, k, jitter):
        mesh = oracle_mesh(k, jitter)
        assert_same_dia(assemble_mass(mesh), ref_mass(mesh))

    @pytest.mark.parametrize("k,jitter", MESHES)
    def test_stiffness(self, k, jitter):
        mesh = oracle_mesh(k, jitter)
        fields = [coefficient_preset(name) for name in PRESETS]
        for coeff in fields + list(ODD_SHAPES.values()):
            assert_same_dia(assemble_stiffness(mesh, coeff),
                            ref_stiffness(mesh, coeff))

    @pytest.mark.parametrize("k,jitter", MESHES)
    def test_load(self, k, jitter):
        mesh = oracle_mesh(k, jitter)
        profiles = dict(forcing_profiles(), scalar=lambda x, y: 2.5,
                        column=lambda x, y: x[..., :1] ** 2)
        for f in profiles.values():
            assert_same_bits(assemble_load(mesh, f), ref_load(mesh, f))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_uniform_constant_matrices_equal_coo_to_csr(self, k):
        # on the uniform mesh every element term of a constant preset is
        # exact, so any summation order, scipy's included, gives its bits
        mesh = build_mesh(k)
        assert_same_dia(assemble_mass(mesh), ref_mass(mesh, coo_scatter))
        for coeff in map(coefficient_preset, PRESETS):
            if coeff.is_constant:
                assert_same_dia(assemble_stiffness(mesh, coeff),
                                ref_stiffness(mesh, coeff, coo_scatter))

    def test_load_calls_f_once_on_contiguous_points(self):
        # one chunk (T = 128): x of its first square row and y of its first
        # square column on the plain grid, both full on a jittered mesh
        for jitter in (False, True):
            mesh = oracle_mesh(3, jitter)
            n, Q = mesh.n, len(QUAD_WEIGHTS)
            calls = record_field_calls(lambda f: assemble_load(mesh, f))
            shapes = ((1, n, 2, Q), (n, 1, 2, Q)) if not jitter else ((n, n, 2, Q),) * 2
            assert [(x.shape, y.shape) for x, y in calls] == [shapes]
            assert_points_of(mesh, calls)

    def test_load_calls_f_once_a_chunk(self, monkeypatch):
        # one square row (2n triangles) a chunk: one call each, in order,
        # as for the variable stiffness's alpha and beta
        monkeypatch.setattr(assembly, "CHUNK_TRIANGLES", 1)
        field = coefficient_preset("variable")
        for jitter in (False, True):
            mesh = oracle_mesh(3, jitter)
            n, Q = mesh.n, len(QUAD_WEIGHTS)
            shapes = ((1, n, 2, Q), (1, 1, 2, Q)) if not jitter else ((1, n, 2, Q),) * 2
            calls = record_field_calls(lambda f: assemble_load(mesh, f))
            assert [(x.shape, y.shape) for x, y in calls] == [shapes] * n
            assert_points_of(mesh, calls)
            calls = record_field_calls(lambda f: assemble_stiffness(
                mesh, replace(field, alpha=f, beta=f)))
            assert [(x.shape, y.shape) for x, y in calls] == [shapes] * (2 * n)
            assert_points_of(mesh, calls[::2])

    @pytest.mark.parametrize("k", [6, 7])
    def test_compact_coordinates_give_the_bytes_of_full_ones(self, k, monkeypatch):
        # against the full coordinates a moved-node mesh gets, forced here
        # on the plain grid; k=7 has 16 chunks (about 1.2 s for both k, one
        # BLAS thread, 2-core x86_64 host)
        mesh = build_mesh(k)
        problems = [mms_problem(name, preset) for name, preset in MMS_PAIRS]

        def assemble_all():
            return ([assemble_mass(mesh).data]
                    + [assemble_stiffness(mesh, coefficient_preset(name)).data
                       for name in PRESETS]
                    + [forcing_loads(problem, mesh) for problem in problems])

        compact = assemble_all()
        monkeypatch.setattr(assembly, "_compact_coordinates", lambda mesh: False)
        for a, b in zip(compact, assemble_all(), strict=True):
            assert_same_bits(a, b)


@pytest.mark.usefixtures("chunk")
class TestBitForBitInChunks:
    """TestBitForBit's checks of M, F and the loads with the chunk size
    patched to one square row and to the whole mesh."""

    test_mass = TestBitForBit.test_mass
    test_stiffness = TestBitForBit.test_stiffness
    test_load = TestBitForBit.test_load


class TestChunks:
    """Assembly a chunk of square rows at a time."""

    @pytest.mark.parametrize("k", [1, 6])
    def test_no_modes_give_no_rows(self, k, chunk):
        mesh = build_mesh(k)
        loads = assemble_loads(mesh, lambda x, y: ())
        assert loads.shape == (0, mesh.num_nodes) and loads.dtype == np.float64

    def test_mode_count_must_not_change_between_chunks(self, monkeypatch):
        monkeypatch.setattr(assembly, "CHUNK_TRIANGLES", 1)
        calls = []

        def profiles(x, y):
            calls.append(x.shape)
            return (x,) * len(calls)

        with pytest.raises(ValueError):
            assemble_loads(build_mesh(2), profiles)

    def test_first_bad_chunk_is_reported(self, monkeypatch):
        # alpha < 0 only in the top square row: every earlier chunk passes
        # the check, the last one raises and reports its own range
        monkeypatch.setattr(assembly, "CHUNK_TRIANGLES", 1)
        mesh = build_mesh(2)
        top = 1.0 - mesh.h
        field = CoefficientField(alpha=lambda x, y: np.where(y > top, -1.0, 1.0),
                                 beta=lambda x, y: np.zeros_like(x))
        with pytest.raises(CoefficientError, match=r"values in \[-1.0, -1.0\]"):
            assemble_stiffness(mesh, field)

    @pytest.mark.parametrize("name,k", [("mass", 7), ("stiffness", 7), ("loads", 8)])
    def test_traced_peak_is_at_most_three_results(self, name, k):
        # a chunk's temporaries are a few MB whatever k; the two mms
        # forcing loads are a quarter of a matrix's bytes, so they are
        # checked at k=8, where those few MB are less than two results
        mesh = build_mesh(k)
        assemble = {
            "mass": lambda: assemble_mass(mesh),
            "stiffness": lambda: assemble_stiffness(mesh, coefficient_preset("variable")),
            "loads": lambda: forcing_loads(mms_problem("pennes", "variable"), mesh),
        }[name]
        tracemalloc.start()
        try:
            result = assemble()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = result.data.nbytes if name != "loads" else result.nbytes
        assert peak <= 3 * size, (peak, size)


class TestStencilLayout:
    """mesh.MATRIX_TERMS, mesh.LOAD_TERMS and mesh.stencil_mask: where the
    element entries and the stencil's entries sit in diagonal storage."""

    @staticmethod
    def shifted(mesh, x, y, h):
        """Triangle index and vertices of half h of the square whose
        corner (x, y) is each node of the grid, -1 where there is none."""
        n = mesh.n
        t = np.full((n + 1, n + 1), -1)
        t[y:y + n, x:x + n] = 2 * np.arange(n * n).reshape(n, n) + h
        return t, np.where(t[..., None] >= 0, mesh.triangles[t], -1)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_slot_lands_on_its_entry(self, k):
        # each term's entries (p, q) of its triangles land on data[d, q]
        # with q - p = offsets[d], every element entry once, and an
        # entry's terms come in the order of their triangles
        mesh = build_mesh(k)
        n, N = mesh.n, mesh.num_nodes
        offsets = stencil_offsets(n)
        assert np.all(np.diff(offsets) > 0)
        assert sorted(term[3:] for term in MATRIX_TERMS) == [
            (h, i, j) for h in range(2) for i in range(3) for j in range(3)]
        last = np.full((offsets.size, N), -1)
        for d, x, y, h, i, j in MATRIX_TERMS:
            t, vertices = self.shifted(mesh, x, y, h)
            t, p, q = t.ravel(), vertices[..., i].ravel(), vertices[..., j].ravel()
            on = t >= 0
            assert np.array_equal(q[on], np.arange(N)[on])
            assert np.all(q[on] - p[on] == offsets[d])
            assert np.all(t[on] > last[d, on])
            last[d, on] = t[on]
        last = np.full(N, -1)
        for x, y, h, i in LOAD_TERMS:
            t, vertices = self.shifted(mesh, x, y, h)
            t = t.ravel()
            on = t >= 0
            assert np.array_equal(vertices[..., i].ravel()[on], np.arange(N)[on])
            assert np.all(t[on] > last[on])
            last[on] = t[on]
        assert sorted(term[2:] for term in LOAD_TERMS) == [
            (h, i) for h in range(2) for i in range(3)]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_pattern_is_that_of_coo_to_csr(self, k):
        # the in-grid slots, row by row, are the stored entries of scipy's
        # pattern in its order, so every other slot of the (7, N) data
        # (the row wraps and the ends of the outer diagonals) stays an
        # explicit zero
        mesh = build_mesh(k)
        N = mesh.num_nodes
        rows, diagonal = np.nonzero(stencil_mask(mesh.n))
        cols = rows + stencil_offsets(mesh.n)[diagonal]
        A = coo_scatter(mesh, np.ones((mesh.num_triangles, 3, 3)))
        assert np.array_equal(rows * N + cols,
                              np.repeat(np.arange(N), np.diff(A.indptr)) * N + A.indices)


    @pytest.mark.parametrize("k", range(1, 5))
    def test_padding_views_are_the_slots_off_the_mask(self, k):
        # data[d, q] holds entry (q - offsets[d], q): the padding views
        # cover exactly the slots of the (7, N) data that stencil_mask
        # leaves out, by columns
        n = build_mesh(k).n
        N = (n + 1) ** 2
        offsets = stencil_offsets(n)
        rows, diagonal = np.nonzero(stencil_mask(n))
        entry = np.zeros((offsets.size, N), bool)
        entry[diagonal, rows + offsets[diagonal]] = True
        marks = np.zeros((offsets.size, N))
        for view in padding_views(marks.reshape(-1, n + 1, n + 1)):
            view[...] = 1.0
        assert np.array_equal(marks == 1.0, ~entry)


class TestMatrixMarket:
    def test_exact_round_trip(self, tmp_path, mesh2):
        F = assemble_stiffness(mesh2, coefficient_preset("variable"))
        path = tmp_path / "stiffness.mtx"
        write_matrix_market(F, path)
        back = read_matrix_market(path)
        assert (F != back).nnz == 0  # element-wise exact

    def test_writes_the_stencil_pattern(self, tmp_path):
        # every in-grid stencil entry is written, the exact zeros of the
        # constant-diffusion hypotenuse couplings too, and no padded slot
        mesh = build_mesh(2)
        n, N = mesh.n, mesh.num_nodes
        F = assemble_stiffness(mesh, coefficient_preset("constant-diffusion"))
        path = tmp_path / "stiffness.mtx"
        write_matrix_market(F, path)
        back = scipy.io.mmread(path)   # the file's entries, as written
        # the diagonal, and two entries per horizontal, vertical and
        # diagonal grid edge
        assert back.nnz == N + 2 * (2 * n * (n + 1) + n * n)
        assert np.sum(back.data == 0.0) > 0
        assert (F != back).nnz == 0

    @pytest.mark.parametrize("k,jitter", [(1, False), (3, False), (3, True)])
    def test_grid_matrices_read_back_onto_their_diagonals(self, tmp_path, k, jitter):
        mesh = oracle_mesh(k, jitter)
        for A in (assemble_mass(mesh), assemble_stiffness(mesh, coefficient_preset("variable")),
                  assemble_stiffness(mesh, coefficient_preset("constant-diffusion"))):
            write_matrix_market(A, tmp_path / "A.mtx")
            back = read_matrix_market(tmp_path / "A.mtx")
            assert back.format == "dia"
            assert np.array_equal(back.offsets, A.offsets)
            assert_same_bits(back.data, A.data)

    def test_read_back_block_factors_in_nested_dissection(self, tmp_path):
        # a k=6 block of read-back M and F is a grid block, as assembled
        mesh = build_mesh(6)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coefficient_preset("variable"))
        for name, A in (("M", M), ("F", F)):
            write_matrix_market(A, tmp_path / f"{name}.mtx")
        M, F = (read_matrix_market(tmp_path / f"{name}.mtx") for name in "MF")
        assert mesh.num_nodes >= stageop.ND_MIN_NODES
        assert stageop.factor(M + 0.1 * F).order is not None

    def test_other_matrices_read_back_as_csr(self, tmp_path):
        # no grid's shape, or an entry off the stencil diagonals
        wide = sp.csr_matrix(([1.0, 2.0], ([0, 0], [0, 2])), shape=(25, 25))
        for A in (sp.identity(24, format="csr"), sp.random(9, 4, density=0.5, random_state=0),
                  wide):
            write_matrix_market(A, tmp_path / "A.mtx")
            back = read_matrix_market(tmp_path / "A.mtx")
            assert back.format == "csr" and back.shape == A.shape
            assert (back != A).nnz == 0
