"""Uniform triangulations of [-1,1]^2, the diagonal (DIA) storage layout
of their P1 matrices on the 7-point stencil, and the P1 coarsening of
those grids for multigrid: the grid of side n/2 is nested in that of
side n, the transfer R^T between them is CSR (p1_restriction), and the
Galerkin coarsening R^T X R of a grid matrix runs on its diagonals
(GALERKIN_LEFT_TERMS and GALERKIN_RIGHT_TERMS). All three read the
children of a coarse node and their weights from one table,
_CHILD_WEIGHT over _STENCIL."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ResourceLimitError

MAX_LEVEL = 10  # n = 2^(k+1) subdivisions; k = 10 is ~4.2M nodes
ND_LEAF_NODES = 16  # nested_dissection orders smaller rectangles row-major

# The two triangles of each square, lower then upper, as (dx, dy) offsets
# of their vertices from the square's lower-left node: the lower-left ->
# upper-right diagonal splits it, and both triangles are positively
# oriented.
_SQUARE_HALVES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))

# The 7-point P1 stencil of that split, as (dx, dy) node offsets in
# increasing column order: node (x, y) couples with (x + dx, y + dy).
_STENCIL = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class TriMesh:
    """Structured triangulation of [-1,1]^2.

    n squares per side, each split by its lower-left -> upper-right
    diagonal; nodes ordered row-major by y then x, and triangles two per
    square (lower, then upper), squares row-major by y then x. Assembly
    relies on that layout, through MATRIX_TERMS and LOAD_TERMS, and only
    the nodes may be moved (the jittered meshes of the assembly tests).
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
    # bool is an int subclass, but True is no mesh level
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"mesh exponent k must be an integer >= 1, got {k!r}")
    if k > MAX_LEVEL:
        raise ResourceLimitError(f"mesh exponent k={k} exceeds guard {MAX_LEVEL}")


def nodes_at_level(k):
    """Node count N of the mesh build_mesh(k)."""
    _check_level(k)
    return (2 ** (k + 1) + 1) ** 2


def build_mesh(k):
    """Mesh with size h = 2^-k, i.e. n = 2^(k+1) subdivisions per side."""
    _check_level(k)
    return _build_mesh_n(2 ** (k + 1))


def _build_mesh_n(n):
    xs = np.linspace(-1.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ll = _square_corners(n)
    triangles = np.empty((n * n, 2, 3), dtype=np.int64)
    for half, corners in enumerate(_SQUARE_HALVES):
        for i, (dx, dy) in enumerate(corners):
            triangles[:, half, i] = ll + dx + (n + 1) * dy
    triangles = triangles.reshape(2 * n * n, 3)

    idx = np.arange((n + 1) ** 2)
    col = idx % (n + 1)
    row = idx // (n + 1)
    boundary = idx[(col == 0) | (col == n) | (row == 0) | (row == n)]

    return TriMesh(n=n, h=2.0 / n, nodes=nodes, triangles=triangles,
                   boundary_nodes=boundary)


def _square_corners(n):
    """Lower-left node of each square, rows by y then x, as the triangles
    are ordered."""
    return (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()


def stencil_offsets(n):
    """The 7 diagonal offsets dx + (n+1) dy of the stencil on the (n+1)^2
    grid, ascending: entry (p, q) of a P1 matrix lies on diagonal q - p."""
    return np.array([dx + (n + 1) * dy for dx, dy in _STENCIL])


def stencil_mask(n):
    """(N, 7) bools, N = (n+1)^2: [p, d] is True when node p shifted by
    _STENCIL[d] stays on the grid, so that the P1 pattern holds entry
    (p, p + offsets[d]); in DIA storage that entry sits in data[d, p +
    offsets[d]]. The slots of the other (p, d) (row wraps, ends of the
    outer diagonals) hold explicit zeros."""
    y, x = np.divmod(np.arange((n + 1) ** 2), n + 1)
    return np.column_stack([(x + dx >= 0) & (x + dx <= n) & (y + dy >= 0) & (y + dy <= n)
                            for dx, dy in _STENCIL])


def padding_views(grid):
    """Views of the slots of DIA data on the stencil diagonals, viewed as
    the (7, n+1, n+1) grid of their columns, that hold no entry of the
    grid: diagonal d, (dx, dy) = _STENCIL[d], keeps entry (q - offsets[d],
    q) at column node q, whose row node q - (dx, dy) is off the grid in
    the column x = 0 (dx = 1) or x = n (dx = -1) and in the row y = 0
    (dy = 1) or y = n (dy = -1): the complement of stencil_mask, by
    columns."""
    for d, (dx, dy) in enumerate(_STENCIL):
        if dx:
            yield grid[d, :, 0 if dx > 0 else -1]
        if dy:
            yield grid[d, 0 if dy > 0 else -1]


def grid_side(A):
    """n when A is an N x N DIA matrix, N = (n+1)^2, stored on exactly the
    7 stencil diagonals of the (n+1)^2 grid (an assembled grid matrix or
    a block M + c F of two); else None."""
    n = math.isqrt(A.shape[0]) - 1
    on_stencil = (A.format == "dia" and A.shape == ((n + 1) ** 2,) * 2
                  and np.array_equal(A.offsets, stencil_offsets(n)))
    return n if on_stencil else None


# Where each element entry goes, in element order. Entry (i, j) of half h
# of the square with lower-left node (sx, sy) couples its vertices
# (sx, sy) + corners[i] and (sx, sy) + corners[j], corners =
# _SQUARE_HALVES[h]; it lies on the stencil diagonal d of their offset
# and, in DIA storage, in the column of vertex j. Over all squares, then,
# the term (d, x, y, h, i, j) adds the squares' entries (i, j) of half h
# onto the data of diagonal d, viewed as the (n+1)^2 grid, shifted by
# the corner (x, y) = corners[j]. The entry at node q receives it from
# the square q - (x, y); sorting by (-y, -x, h) puts the terms of every
# entry in the order of their triangles in build_mesh (square row, then
# square, then the lower half before the upper).
MATRIX_TERMS = tuple(sorted(
    ((_STENCIL.index((xj - xi, yj - yi)), xj, yj, h, i, j)
     for h, corners in enumerate(_SQUARE_HALVES)
     for i, (xi, yi) in enumerate(corners)
     for j, (xj, yj) in enumerate(corners)),
    key=lambda term: (-term[2], -term[1], term[3])))

# The same for the loads: the term (x, y, h, i) adds the squares' local
# loads i of half h onto the grid of nodes shifted by the corner
# (x, y) = _SQUARE_HALVES[h][i], in element order.
LOAD_TERMS = tuple(sorted(
    ((x, y, h, i) for h, corners in enumerate(_SQUARE_HALVES)
     for i, (x, y) in enumerate(corners)),
    key=lambda term: (-term[1], -term[0], term[2])))

# The Galerkin coarsening R^T X R of a matrix X on the stencil, R the P1
# prolongation (p1_restriction), in the order in which scipy's CSR
# products sum it. The children of coarse node I are the fine nodes
# 2I + a, a in _STENCIL, ascending, each with its weight R[2I + a, I]: 1
# at a = (0, 0), else 1/2. Row I of T = R^T X holds entries at the fine
# nodes 2I + e, e in GALERKIN_OFFSETS (the 19 sums a + s, ascending), and
# T_e(I) is the sum over the children a, ascending, of w_a X[2I + a,
# 2I + e], which DIA storage keeps in the column 2I + e of diagonal
# s = e - a. So the term (e, x, y, d, w) of GALERKIN_LEFT_TERMS adds w
# times diagonal d's data, viewed as the fine grid, on the stride-2 grid
# shifted by (x, y) = e onto T_e (49 terms). Entry (I, I + D) of T R is
# the sum over the children b of I + D, ascending, of w_b T_{2D+b}(I):
# the term (d, x, y, e, w) of GALERKIN_RIGHT_TERMS adds w times T_e,
# shifted by (x, y) = D = _STENCIL[d], onto the coarse data of diagonal
# d (31 terms). No other D has a term: the coarse level keeps to the
# stencil.
GALERKIN_OFFSETS = tuple(sorted({(ax + sx, ay + sy) for ax, ay in _STENCIL
                                 for sx, sy in _STENCIL}, key=lambda e: (e[1], e[0])))
_CHILD_WEIGHT = {a: 1.0 if a == (0, 0) else 0.5 for a in _STENCIL}
GALERKIN_LEFT_TERMS = tuple(
    (e, ex, ey, _STENCIL.index((ex - ax, ey - ay)), _CHILD_WEIGHT[ax, ay])
    for e, (ex, ey) in enumerate(GALERKIN_OFFSETS)
    for ax, ay in _STENCIL if (ex - ax, ey - ay) in _STENCIL)
GALERKIN_RIGHT_TERMS = tuple(
    (d, dx, dy, GALERKIN_OFFSETS.index((2 * dx + bx, 2 * dy + by)), _CHILD_WEIGHT[bx, by])
    for d, (dx, dy) in enumerate(_STENCIL)
    for bx, by in _STENCIL if (2 * dx + bx, 2 * dy + by) in GALERKIN_OFFSETS)


def p1_restriction(nc):
    """R^T as CSR, R the P1 interpolation from the nc-grid to the 2nc-grid
    (coincident nodes inject, edge midpoints average their endpoints).
    Row I holds the children 2I + a of coarse node I that lie on the fine
    grid (those with I + a on the coarse grid, stencil_mask), a in
    _STENCIL ascending, which is their column order, each with weight
    _CHILD_WEIGHT[a]: the bytes of scipy's R.T.tocsr(), whose R.T.tocsr()
    in turn gives R's."""
    nf = 2 * nc
    y, x = np.divmod(np.arange((nc + 1) ** 2), nc + 1)
    on = stencil_mask(nc)
    children = (2 * y * (nf + 1) + 2 * x)[:, None] + stencil_offsets(nf)
    weights = np.broadcast_to([_CHILD_WEIGHT[a] for a in _STENCIL], on.shape)
    indptr = np.concatenate([[0], np.cumsum(on.sum(axis=1))])
    return sp.csr_matrix((weights[on], children[on], indptr),
                         shape=((nc + 1) ** 2, (nf + 1) ** 2))


def nested_dissection(n):
    """Nested-dissection order of the (n+1)^2 grid's nodes (George 1973):
    each rectangle of nodes is cut across its longer side by its middle
    grid line, a separator (no stencil edge joins nodes on both sides of
    it), and ordered as its two halves (recursively) and then that line. Rectangles of at most
    ND_LEAF_NODES nodes keep their row-major order. Returns node indices,
    order[i] being the node eliminated i-th."""
    pieces = []

    def dissect(block):
        rows, cols = block.shape
        if rows * cols <= ND_LEAF_NODES:
            pieces.append(block.ravel())
            return
        if cols >= rows:
            m = cols // 2
            dissect(block[:, :m])
            dissect(block[:, m + 1:])
            pieces.append(block[:, m])
        else:
            m = rows // 2
            dissect(block[:m])
            dissect(block[m + 1:])
            pieces.append(block[m])

    dissect(np.arange((n + 1) ** 2).reshape(n + 1, n + 1))
    return np.concatenate(pieces)


# returns None, for perfbench/workloads.py's call until ROADMAP item 1 deletes it
def build_hierarchy(k):
    _check_level(k)


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
