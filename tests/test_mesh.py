import numpy as np
import pytest

from irkprec.errors import ResourceLimitError
from irkprec.mesh import (MAX_LEVEL, build_hierarchy, build_mesh, nodes_at_level,
                          read_mesh_text, write_mesh_text)


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

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            build_mesh(11)


class TestHierarchy:
    def test_two_levels_shapes(self):
        hi = build_hierarchy(2)
        assert len(hi.prolongations) == 1
        P = hi.prolongations[0]
        assert P.shape == (81, 25)

    @pytest.mark.parametrize("k", [1, 4])
    def test_prolongations_match_meshes(self, k):
        hi = build_hierarchy(k)
        sizes = [build_mesh(j).num_nodes for j in range(1, k + 1)]
        assert [P.shape for P in hi.prolongations] == list(zip(sizes[1:], sizes))
        assert hi.num_nodes == sizes[-1] == nodes_at_level(k)

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

    def test_prolongation_preserves_constants(self):
        hi = build_hierarchy(3)
        for P in hi.prolongations:
            ones = np.ones(P.shape[1])
            assert np.allclose(P @ ones, 1.0, atol=1e-14)

    def test_prolongation_reproduces_linears(self):
        hi = build_hierarchy(2)
        coarse, fine = build_mesh(1), build_mesh(2)
        v = coarse.nodes[:, 0] + coarse.nodes[:, 1]
        vf = hi.prolongations[0] @ v
        assert np.allclose(vf, fine.nodes[:, 0] + fine.nodes[:, 1], atol=1e-13)


class TestTextExport:
    def test_round_trip(self, tmp_path):
        m = build_mesh(1)
        path = tmp_path / "mesh.txt"
        write_mesh_text(m, path)
        nodes, tris = read_mesh_text(path)
        assert np.array_equal(nodes, m.nodes)
        assert np.array_equal(tris, m.triangles)
