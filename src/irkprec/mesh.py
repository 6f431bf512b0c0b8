"""Uniform triangulations of [-1,1]^2, the diagonal (DIA) storage layout
of their P1 matrices on the 7-point stencil, and nested hierarchies for
multigrid. The prolongations between levels are CSR."""

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
    relies on that layout, through diagonal_layout(n), and only the nodes
    may be moved (the jittered meshes of the assembly tests).
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

    ll = _square_corners(n, n)
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


def _square_corners(n, rows):
    """Lower-left node of each square of the first `rows` of the n rows
    of squares, rows by y then x, as the triangles are ordered."""
    return (np.arange(rows)[:, None] * (n + 1) + np.arange(n)).ravel()


def stencil_offsets(n):
    """The 7 diagonal offsets dx + (n+1) dy of the stencil on the (n+1)^2
    grid, ascending: entry (p, q) of a P1 matrix lies on diagonal q - p."""
    return np.array([dx + (n + 1) * dy for dx, dy in _STENCIL])


def diagonal_layout(n, rows=None):
    """Diagonal (DIA) storage of the P1 matrices on the (n+1)^2 grid, and
    where each element entry of a band of square rows goes in it.

    Returns (offsets, slots): offsets is stencil_offsets(n), and slots
    covers the triangles of `rows` consecutive square rows (all n by
    default), in build_mesh's order, and the rows + 1 node rows they
    touch, a band of B = (rows + 1)(n + 1) nodes counted from its first
    node. slots[t, 3 i + j] = d B + q places the entry (p, q) of the
    band's t-th triangle, p its vertex i and q its vertex j, in row d of
    the band's (7, B) data array, column q, where q - p = offsets[d]
    (scipy's dia_matrix keeps entry (q - offsets[d], q) in data[d, q]).
    The slots of a row's stencil entries are then in ascending column
    order, as in CSR. Every band of the same height has the same slots;
    with rows = n the band is the whole grid (B = N). Computed from n
    and rows by index arithmetic alone, so nothing needs caching between
    calls.
    """
    rows = n if rows is None else rows
    side = n + 1
    band = (rows + 1) * side
    column = {d: o for o, d in enumerate(_STENCIL)}
    # slots[square, half, i, j] = B d + corner_j, one gather at corner_j =
    # square's node + a constant
    lookup = np.array([[[band * column[xj - xi, yj - yi] + xj + side * yj
                         for xj, yj in corners] for xi, yi in corners]
                       for corners in _SQUARE_HALVES])
    slots = _square_corners(n, rows)[:, None, None, None] + lookup
    return stencil_offsets(n), slots.reshape(2 * rows * n, 9)


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
