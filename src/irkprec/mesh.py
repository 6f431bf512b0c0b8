"""Uniform triangulations of [-1,1]^2 and nested hierarchies for multigrid."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ResourceLimitError

MAX_LEVEL = 10  # n = 2^(k+1) subdivisions; k = 10 is ~4.2M nodes


@dataclass(frozen=True)
class TriMesh:
    """Structured triangulation of [-1,1]^2.

    n squares per side, each split by its lower-left -> upper-right
    diagonal; nodes ordered row-major by y then x.
    """

    n: int
    h: float
    nodes: np.ndarray       # (N, 2)
    triangles: np.ndarray   # (2 n^2, 3), positively oriented
    boundary_nodes: np.ndarray

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]


def _check_level(k):
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"mesh exponent k must be an integer >= 1, got {k!r}")
    if k > MAX_LEVEL:
        raise ResourceLimitError(f"mesh exponent k={k} exceeds guard {MAX_LEVEL}")


def nodes_at_level(k):
    """Node count N of the mesh build_mesh(k)."""
    return (2 ** (k + 1) + 1) ** 2


def build_mesh(k):
    """Mesh with size h = 2^-k, i.e. n = 2^(k+1) subdivisions per side."""
    _check_level(k)
    return _build_mesh_n(2 ** (k + 1))


def _build_mesh_n(n):
    xs = np.linspace(-1.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n))
    ll = (iy * (n + 1) + ix).ravel()
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    idx = np.arange((n + 1) ** 2)
    col = idx % (n + 1)
    row = idx // (n + 1)
    boundary = idx[(col == 0) | (col == n) | (row == 0) | (row == n)]

    return TriMesh(n=n, h=2.0 / n, nodes=nodes, triangles=triangles,
                   boundary_nodes=boundary)


@dataclass(frozen=True)
class MeshHierarchy:
    """P1 interpolation operators between the nested meshes k = 1..k_fine,
    coarsest first, and the node count of the finest mesh."""

    prolongations: list    # prolongations[i]: level i -> level i+1
    num_nodes: int


def build_hierarchy(k_fine):
    """Prolongations between the meshes k = 1..k_fine; builds no TriMesh."""
    _check_level(k_fine)
    prolongations = [_p1_prolongation(2 ** (k + 1)) for k in range(1, k_fine)]
    return MeshHierarchy(prolongations=prolongations, num_nodes=nodes_at_level(k_fine))


def _p1_prolongation(nc):
    """Interpolation matrix from the nc-grid to the 2*nc-grid.

    Coincident nodes inject; edge midpoints average their two endpoints.
    The square-center fine nodes sit on the split diagonal, so they
    average the lower-left and upper-right coarse corners.
    """
    nf = 2 * nc
    Nc = (nc + 1) ** 2
    Nf = (nf + 1) ** 2
    rows, cols, vals = [], [], []

    fidx = np.arange(Nf)
    fx = fidx % (nf + 1)
    fy = fidx // (nf + 1)

    def coarse(cx, cy):
        return cy * (nc + 1) + cx

    even = (fx % 2 == 0) & (fy % 2 == 0)
    rows.append(fidx[even])
    cols.append(coarse(fx[even] // 2, fy[even] // 2))
    vals.append(np.ones(even.sum()))

    hor = (fx % 2 == 1) & (fy % 2 == 0)  # horizontal edge midpoints
    for shift in (0, 1):
        rows.append(fidx[hor])
        cols.append(coarse((fx[hor] - 1) // 2 + shift, fy[hor] // 2))
        vals.append(np.full(hor.sum(), 0.5))

    ver = (fx % 2 == 0) & (fy % 2 == 1)  # vertical edge midpoints
    for shift in (0, 1):
        rows.append(fidx[ver])
        cols.append(coarse(fx[ver] // 2, (fy[ver] - 1) // 2 + shift))
        vals.append(np.full(ver.sum(), 0.5))

    ctr = (fx % 2 == 1) & (fy % 2 == 1)  # on the ll->ur diagonal
    for shift in (0, 1):
        rows.append(fidx[ctr])
        cols.append(coarse((fx[ctr] - 1) // 2 + shift, (fy[ctr] - 1) // 2 + shift))
        vals.append(np.full(ctr.sum(), 0.5))

    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(Nf, Nc),
    )
    return P.tocsr()


def write_mesh_text(mesh, path):
    """Write one node per line "x y" then one triangle per line "i j k"
    (zero-based); line type is distinguished by token count."""
    with open(path, "w") as fh:
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def read_mesh_text(path):
    """Read a mesh written by write_mesh_text; returns (nodes, triangles)."""
    nodes, tris = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2:
                nodes.append((float(parts[0]), float(parts[1])))
            elif len(parts) == 3:
                tris.append((int(parts[0]), int(parts[1]), int(parts[2])))
            elif parts:
                raise ValueError(f"unrecognized mesh line: {line!r}")
    return np.asarray(nodes), np.asarray(tris, dtype=np.int64)
