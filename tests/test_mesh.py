import numpy as np
import pytest

from irkprec.assembly import assemble_mass
from irkprec.errors import ResourceLimitError
from irkprec.mesh import (MAX_LEVEL, build_hierarchy, build_mesh, nested_dissection,
                          nodes_at_level, p1_restriction, read_mesh_text, write_mesh_text)
from irkprec.precond import galerkin_levels


def signed_areas(mesh):
    xy = mesh.nodes[mesh.triangles]
    e1 = xy[:, 1] - xy[:, 0]
    e2 = xy[:, 2] - xy[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


class TestBuildMesh:
    def test_counts_k1(self):
        m = build_mesh(1)
        assert m.n == 4
        assert m.h == 0.5
        assert m.num_nodes == 25
        assert m.num_triangles == 32

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_areas(self, k):
        m = build_mesh(k)
        a = signed_areas(m)
        assert np.all(a > 0)
        assert np.allclose(a, m.h ** 2 / 2.0, rtol=1e-13)
        assert abs(a.sum() - 4.0) <= 1e-12

    def test_node_ordering_row_major(self):
        m = build_mesh(1)
        assert np.allclose(m.nodes[0], [-1.0, -1.0])
        assert np.allclose(m.nodes[1], [-0.5, -1.0])  # x varies fastest
        assert np.allclose(m.nodes[5], [-1.0, -0.5])

    def test_boundary_nodes(self):
        m = build_mesh(1)
        on_edge = (np.abs(m.nodes[:, 0]) == 1.0) | (np.abs(m.nodes[:, 1]) == 1.0)
        assert set(m.boundary_nodes) == set(np.flatnonzero(on_edge))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            build_mesh(0)

    @pytest.mark.parametrize("k", [True, np.True_, 2.5, 2.0, "2", None])
    def test_non_integer_levels_refused(self, k):
        for fn in (build_mesh, nodes_at_level, build_hierarchy):
            with pytest.raises(ValueError):
                fn(k)

    def test_node_count_at_integer_levels(self):
        assert [nodes_at_level(k) for k in (1, np.int64(2))] == [25, 81]

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            build_mesh(11)


class TestHierarchy:
    """The P1 transfers that galerkin_levels builds, checked against the
    COO reference and the meshes they join."""

    def test_two_levels_shapes(self):
        assert p1_restriction(4).shape == (25, 81)
        assert p1_restriction(4).T.tocsr().shape == (81, 25)

    @pytest.mark.parametrize("k", [1, 4])
    def test_prolongations_match_meshes(self, k):
        M = assemble_mass(build_mesh(k))
        levels = galerkin_levels(M, M)
        sizes = [build_mesh(j).num_nodes for j in range(1, k + 1)]
        assert [Ml.shape[0] for Ml, *_ in levels] == sizes
        assert [R.shape for _, _, R, _ in levels[1:]] == list(zip(sizes[1:], sizes))
        assert [Rt.shape for *_, Rt in levels[1:]] == list(zip(sizes, sizes[1:]))
        assert levels[0][2:] == (None, None)

    def test_guards(self):
        with pytest.raises(ValueError):
            build_hierarchy(0)
        with pytest.raises(ResourceLimitError):
            build_hierarchy(MAX_LEVEL + 1)

    def test_nestedness(self):
        levels = [build_mesh(k) for k in (1, 2, 3)]
        for coarse, fine in zip(levels, levels[1:]):
            coarse_set = {tuple(p) for p in np.round(coarse.nodes, 12)}
            fine_set = {tuple(p) for p in np.round(fine.nodes, 12)}
            assert coarse_set <= fine_set

    @pytest.mark.parametrize("k", range(1, 9))
    def test_prolongation_bytes_match_coo_route(self, coo_prolongation, k):
        # R^T by index arithmetic, and R as its transpose, hold the bytes
        # of the COO route's R and of R.T.tocsr(); k is the coarse level
        Q = coo_prolongation(2 ** (k + 1))
        Rt = p1_restriction(2 ** (k + 1))
        for P, ref in ((Rt.T.tocsr(), Q), (Rt, Q.T.tocsr())):
            assert P.has_canonical_format
            for name in ("data", "indices", "indptr"):
                a, b = getattr(P, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_prolongation_preserves_constants(self):
        for nc in (4, 8):
            P = p1_restriction(nc).T.tocsr()
            ones = np.ones(P.shape[1])
            assert np.allclose(P @ ones, 1.0, atol=1e-14)

    def test_prolongation_reproduces_linears(self):
        P = p1_restriction(4).T.tocsr()
        coarse, fine = build_mesh(1), build_mesh(2)
        v = coarse.nodes[:, 0] + coarse.nodes[:, 1]
        vf = P @ v
        assert np.allclose(vf, fine.nodes[:, 0] + fine.nodes[:, 1], atol=1e-13)


class TestNestedDissection:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_is_a_permutation_of_the_nodes(self, k):
        n = build_mesh(k).n
        order = nested_dissection(n)
        assert np.array_equal(np.sort(order), np.arange((n + 1) ** 2))

    def test_last_is_the_middle_grid_line(self):
        # the first cut is the middle column, which separates the two halves
        n = build_mesh(3).n
        order = nested_dissection(n)
        middle = np.arange(n + 1) * (n + 1) + n // 2
        assert np.array_equal(order[-(n + 1):], middle)


class TestTextExport:
    def test_round_trip(self, tmp_path):
        m = build_mesh(1)
        path = tmp_path / "mesh.txt"
        write_mesh_text(m, path)
        nodes, tris = read_mesh_text(path)
        assert np.array_equal(nodes, m.nodes)
        assert np.array_equal(tris, m.triangles)
