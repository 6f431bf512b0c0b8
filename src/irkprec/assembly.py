"""P1 assembly of mass and generalized stiffness matrices on TriMesh.

The stiffness form is <alpha grad u, grad v> + <beta u, v> for the
operator K u = -div(alpha grad u) + beta u under homogeneous Neumann
conditions (no rows or columns are modified).

Every matrix entry and load value is kept bit for bit equal to the plain
formulas that define it: element geometry from nodes[triangles], the
quadrature points v0 + P0 e1 + P1 e2, the einsum contractions over the
points, and the element matrices and loads summed in element order. As
in stageop's kernels, each product and sum is the same operation on the
same operands in the same order. The code only arranges that each piece
of work is done once per chunk (the vertex coordinates gathered once,
gradients only for the stiffness, f called once), each field once per
distinct coordinate, and without spare copies. The contractions are
explicit sums over the points in einsum's order (each entry's terms one
add at a time, in point order, from +0.0), on local arrays stored
entry-major, one contiguous row of T values per local entry, which the
grid adds read as they are. Swapping the two operands of one product or
sum is exact and allowed. Reordering a sum, fusing operations or
replacing a contraction by a matmul (which moved load entries by 1e-16)
is not: M, F and every stage right-hand side feed every row the CLI
reports, and the golden rows (tests/data/golden_rows.json) compare
those rows by exact equality. tests/test_assembly.py keeps the plain
formulas as references.

M and F are born in diagonal (DIA) storage: a scipy dia_matrix on the 7
offsets of the mesh's stencil, ascending (mesh.stencil_offsets). M and F
of one mesh share the same offsets, so M + c F is the sum of their data
arrays. Slots off the grid (row wraps and the ends of the outer
diagonals) stay explicit zeros.

On build_mesh's triangulation every element entry (i, j) of a lower or
upper half h lands on one fixed stencil diagonal d, in the column of a
fixed corner (x, y) of its square. So each of the 18 terms of
mesh.MATRIX_TERMS is one in-place add of the squares' entries (i, j) of
half h onto diagonal d's data, viewed as the (n+1)^2 grid and shifted by
(x, y); the 6 of mesh.LOAD_TERMS do the same for the loads. The tables
are sorted by the element order of the contributing triangle relative to
the entry (its square row, its square, then the lower half before the
upper), so every entry receives its terms one add at a time, in element
order, from +0.0. Fusing two terms before adding them would reorder the
sums. scipy's COO -> CSR conversion sums them in its own per-row sort
order, which gives the same bits only where every term is exact (the
uniform mesh with constant coefficients).

Matrices and loads are assembled in chunks of whole square rows, about
CHUNK_TRIANGLES triangles each, in element order, each chunk forming its
own geometry, quadrature points, coefficient values and local matrices.
Of the node rows its squares touch, only the first already holds sums,
those of the chunk before, so M, F and the loads are bit for bit those
of one pass over the whole mesh. A chunk's temporaries are a few MB
whatever the mesh: at k=8 (T = 524288) the traced peak of assemble_mass,
of assemble_stiffness with a variable field and of the two mms forcing
loads is 1.1x, 1.4x and 2.6x its result (6.4x, 21.6x and 66x in one
piece; one BLAS thread, 2-core x86_64 host).

Fields (CoefficientField.alpha and beta, Forcing.profiles, the f of
assemble_load) are called once per chunk, on x and y arrays that
broadcast to the chunk's quadrature points, laid out (rows, n, 2, Q):
square row, square, half, point. A field must be elementwise (its value
at a point depends on that point's x and y alone, as numpy's arithmetic
and ufuncs do); its result may have any shape that broadcasts to the
points (a scalar, say), and is broadcast to them before it is summed.
The coordinates are compact when every node's x depends, bit for bit,
on its column alone and its y on its row alone, as on build_mesh's grid
(decided once per call from mesh.nodes): then x comes from the chunk's
first square row, shape (1, n, 2, Q), and y from its first square
column, (rows, 1, 2, Q), so a cos(pi x) is taken once per distinct x. A
mesh with moved nodes gets both full, (rows, n, 2, Q). The points' x are
equal down a square column (y along a row), the same operations on
equal operands, and equal operands give equal IEEE results, so every
value is that of the full evaluation.

Loads have one path, assemble_loads: per chunk the geometry and the
quadrature points once, then one point sum per profile. Every stage
right-hand side goes through it (stageop.build_stage_rhs, once whatever
the stage count). At k=6 the joint pass over driver.mms_problem's two
forcing modes takes about 7 ms (about 17 ms with full coordinates and
einsum contractions), and assemble_stiffness of the `variable` preset
about 9 ms (17 ms), with one BLAS thread on a 2-core x86_64 host.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import CoefficientError
from .mesh import (LOAD_TERMS, MATRIX_TERMS, grid_side, padding_views, stencil_mask,
                   stencil_offsets)

# Triangles assembled at a time, in whole square rows (at least one):
# each chunk's temporaries stay a few MB, and in cache, whatever the mesh.
CHUNK_TRIANGLES = 2 ** 13

# Six-point symmetric triangle rule, exact for degree 4; weights sum to 1
# so that integral over K = area * sum_q w_q f(x_q).
_QA1 = 0.445948490915965
_QA2 = 0.091576213509771
QUAD_POINTS = np.array([
    [_QA1, _QA1], [1.0 - 2.0 * _QA1, _QA1], [_QA1, 1.0 - 2.0 * _QA1],
    [_QA2, _QA2], [1.0 - 2.0 * _QA2, _QA2], [_QA2, 1.0 - 2.0 * _QA2],
])
QUAD_WEIGHTS = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
QUAD_PHI = np.column_stack([
    1.0 - QUAD_POINTS[:, 0] - QUAD_POINTS[:, 1],
    QUAD_POINTS[:, 0],
    QUAD_POINTS[:, 1],
])

_MASS_TEMPLATE = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _geometry(mesh, triangles):
    """(ex, ey, det): vertex 0 and the edges e1 = v1 - v0, e2 = v2 - v0 of
    each of the given (T, 3) triangles of mesh, one coordinate at a time,
    ex = (x0, e1x, e2x) and ey = (y0, e1y, e2y), and det = e1 x e2, twice
    the signed areas; each a contiguous (T,) array. The vertex
    coordinates are gathered once per coordinate, vertex-major, as one
    C-contiguous (3, T) array."""
    ex, ey = [(v[0], v[1] - v[0], v[2] - v[0])
              for v in (coord[triangles.T] for coord in mesh.nodes.T)]
    (_, e1x, e2x), (_, e1y, e2y) = ex, ey
    return ex, ey, e1x * e2y - e1y * e2x


def _gradients(ex, ey, det):
    """x and y parts of the P1 basis gradients, two (3, T) arrays with
    one row per local basis function."""
    (_, e1x, e2x), (_, e1y, e2y) = ex, ey
    gx = np.empty((3, det.size))
    gy = np.empty((3, det.size))
    gx[1] = e2y / det
    gy[1] = -e2x / det
    gx[2] = -e1y / det
    gy[2] = e1x / det
    gx[0] = -gx[1] - gx[2]
    gy[0] = -gy[1] - gy[2]
    return gx, gy


def _gdot(gx, gy):
    """Local Gram matrices grad phi_i . grad phi_j = gx_i gx_j + gy_i gy_j,
    entry-major, shape (3, 3, T); each product and sum is commutative, so
    entry (j, i) is entry (i, j) bit for bit and is copied."""
    gdot = np.empty((3, 3, gx.shape[1]))
    for i in range(3):
        for j in range(i, 3):
            gdot[i, j] = gx[i] * gx[j] + gy[i] * gy[j]
            if j != i:
                gdot[j, i] = gdot[i, j]
    return gdot


def _compact_coordinates(mesh):
    """True when, bit for bit, every node's x depends on its column alone
    and its y on its row alone, as on build_mesh's grid; then so do the
    quadrature points' x and y, made from them by the same operations (a
    mesh with moved nodes gets False)."""
    grid = mesh.nodes.reshape(mesh.n + 1, mesh.n + 1, 2)
    bits = np.ascontiguousarray(grid, dtype=float).view(np.int64)
    return bool(np.all(bits[..., 0] == bits[:1, :, 0]) and np.all(bits[..., 1] == bits[:, :1, 1]))


def _quad_coord(v0, e1, e2):
    """One coordinate of the quadrature points, v0 + P0 e1 + P1 e2 for
    the reference points (P0, P1), as a C-contiguous array of shape
    v0.shape + (Q,)."""
    out = np.empty(v0.shape + (len(QUAD_POINTS),))
    for q, (p0, p1) in enumerate(QUAD_POINTS):
        out[..., q] = v0 + p0 * e1 + p1 * e2
    return out


def _quad_points(n, ex, ey, compact):
    """x and y of the quadrature points of a chunk of whole square rows of
    a mesh of side n, from its _geometry ex and ey: two C-contiguous
    arrays that broadcast to the points' (rows, n, 2, Q) layout (square
    row, square, half, point). With compact coordinates
    (_compact_coordinates) x comes from the chunk's first square row,
    shape (1, n, 2, Q), and y from its first square column, (rows, 1, 2,
    Q); else both are (rows, n, 2, Q)."""
    x, y = ([c.reshape(-1, n, 2) for c in e] for e in (ex, ey))
    if compact:
        x, y = [c[:1] for c in x], [c[:, :1] for c in y]
    return _quad_coord(*x), _quad_coord(*y)


def _point_values(values, shape):
    """values (of a field or a profile at the quadrature points, any
    shape that broadcasts to the points' (rows, n, 2, Q)) broadcast to
    those points and copied where needed, as a C-contiguous (T, Q) float
    array."""
    out = np.asarray(values, dtype=float)
    return np.ascontiguousarray(np.broadcast_to(out, shape)).reshape(-1, shape[-1])


def _stiffness_local(mesh, coeff, compact, triangles):
    """Local matrices of the bilinear form alpha grad.grad + beta id.id on
    the given triangles (whole square rows), entry-major, shape (3, 3, T)
    (one contiguous row of T values per entry (i, j)): closed form for
    a constant field, else the degree-4 rule on the coefficient values at
    the mapped quadrature points (_quad_points, compact or not), whose
    weights sum to 1, so that the element integral is area * sum_q w_q
    f(x_q) (the beta part by _mass_sum). Refuses bad values of a
    variable field at these triangles' points (_check_coefficients)."""
    ex, ey, det = _geometry(mesh, triangles)
    area = 0.5 * det
    gx, gy = _gradients(ex, ey, det)
    S = _gdot(gx, gy)
    if coeff.is_constant:
        S *= coeff.const_alpha * area
        S += (coeff.const_beta * area) * _MASS_TEMPLATE[:, :, None]
        return S
    xq, yq = _quad_points(mesh.n, ex, ey, compact)
    shape = np.broadcast_shapes(xq.shape, yq.shape)
    alpha_q = _point_values(coeff.alpha(xq, yq), shape)
    beta_q = _point_values(coeff.beta(xq, yq), shape)
    _check_coefficients(alpha_q, beta_q)
    S *= area * (alpha_q @ QUAD_WEIGHTS)
    S += area * _mass_sum(beta_q)
    return S


def _load_sum(f_q):
    """sum_q (f_q w_q) phi_qi of (T, Q) point values, entry-major, shape
    (3, T): each entry's terms added one at a time, in q order, from
    +0.0, the order of einsum("tq,q,qi->ti", f_q, QUAD_WEIGHTS,
    QUAD_PHI)."""
    out = np.zeros((3, f_q.shape[0]))
    for q, (w, phi) in enumerate(zip(QUAD_WEIGHTS, QUAD_PHI)):
        fw = f_q[:, q] * w
        for i in range(3):
            out[i] += fw * phi[i]
    return out


def _mass_sum(f_q):
    """sum_q ((f_q w_q) phi_qi) phi_qj of (T, Q) point values,
    entry-major, shape (3, 3, T): each entry's terms added one at a time,
    in q order, from +0.0, the order of einsum("tq,qi,qj->tij", f_q *
    QUAD_WEIGHTS, QUAD_PHI, QUAD_PHI)."""
    out = np.zeros((3, 3, f_q.shape[0]))
    for q, (w, phi) in enumerate(zip(QUAD_WEIGHTS, QUAD_PHI)):
        fw = f_q[:, q] * w
        for i in range(3):
            fw_phi = fw * phi[i]
            for j in range(3):
                out[i, j] += fw_phi * phi[j]
    return out


def _check_coefficients(alpha, beta):
    """Refuse alpha that is not finite and > 0, or beta that is not finite
    and >= 0, anywhere in the given values (a NaN fails every comparison).
    The variable-coefficient path checks each chunk's quadrature values
    as it assembles them, so it raises at the first bad chunk, and the
    range it reports is that chunk's."""
    a_lo, a_hi = np.min(alpha), np.max(alpha)
    b_lo, b_hi = np.min(beta), np.max(beta)
    if not (0.0 < a_lo and a_hi < np.inf):
        raise CoefficientError(
            f"need finite alpha > 0, got values in [{a_lo}, {a_hi}]")
    if not (0.0 <= b_lo and b_hi < np.inf):
        raise CoefficientError(
            f"need finite beta >= 0, got values in [{b_lo}, {b_hi}]")


@dataclass(frozen=True)
class CoefficientField:
    """Diffusivity alpha(x, y) > 0 and reaction beta(x, y) >= 0.

    const_alpha/const_beta are set for spatially constant presets and
    switch assembly to exact closed-form local matrices. Otherwise
    assemble_stiffness calls alpha and beta once per chunk of triangles,
    on x and y arrays that broadcast to its quadrature points (compact
    on build_mesh's grid, see the module docstring), so they must be
    elementwise. grad_alpha is the analytic gradient of alpha, needed
    for manufactured solutions.
    """

    alpha: Callable
    beta: Callable
    preset: str = "custom"
    const_alpha: Optional[float] = None
    const_beta: Optional[float] = None
    grad_alpha: Optional[Callable] = None

    @property
    def is_constant(self):
        return self.const_alpha is not None and self.const_beta is not None


PRESETS = ("constant-ones", "constant-diffusion", "variable", "variable-beta-zero")


def coefficient_preset(name):
    """Named coefficient fields used across the experiments."""
    if name == "constant-ones":
        return CoefficientField(
            alpha=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
            beta=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
            preset=name, const_alpha=1.0, const_beta=1.0,
            grad_alpha=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2,
        )
    if name == "constant-diffusion":
        return CoefficientField(
            alpha=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
            beta=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
            preset=name, const_alpha=1.0, const_beta=0.0,
            grad_alpha=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2,
        )
    if name == "variable":
        return CoefficientField(
            alpha=lambda x, y: 1.0 + 0.2 * x * y,
            beta=lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x) * np.cos(np.pi * y),
            preset=name,
            grad_alpha=lambda x, y: (0.2 * np.asarray(y, dtype=float),
                                     0.2 * np.asarray(x, dtype=float)),
        )
    if name == "variable-beta-zero":
        return CoefficientField(
            alpha=lambda x, y: 1.0 + 0.2 * x * y,
            beta=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
            preset=name,
            grad_alpha=lambda x, y: (0.2 * np.asarray(y, dtype=float),
                                     0.2 * np.asarray(x, dtype=float)),
        )
    raise ValueError(f"unknown coefficient preset {name!r}; choose from {PRESETS}")


def _chunks(mesh):
    """The mesh's triangles in element order, in bands of whole square
    rows (2n triangles a row) of about CHUNK_TRIANGLES triangles: (start
    row, row count, (T_c, 3) triangles) triples."""
    n = mesh.n
    height = max(1, CHUNK_TRIANGLES // (2 * n))
    for first in range(0, n, height):
        rows = min(height, n - first)
        yield first, rows, mesh.triangles[2 * n * first:2 * n * (first + rows)]


def _assemble_matrix(mesh, local_matrices):
    """Sum the entry-major (3, 3, T_c) local matrices
    local_matrices(triangles) of each chunk into a DIA matrix on the
    mesh's stencil diagonals, each entry's terms added in element order,
    from +0.0: per chunk of `rows` square
    rows, one in-place add of the entries (i, j) of half h of its
    squares onto diagonal d, shifted by the corner (x, y), for each term
    of mesh.MATRIX_TERMS in turn."""
    n, N = mesh.n, mesh.num_nodes
    offsets = stencil_offsets(n)
    data = np.zeros((offsets.size, N))
    grid = data.reshape(offsets.size, n + 1, n + 1)
    for start, rows, triangles in _chunks(mesh):
        local = local_matrices(triangles).reshape(3, 3, rows, n, 2)
        for d, x, y, h, i, j in MATRIX_TERMS:
            grid[d, start + y:start + y + rows, x:x + n] += local[i, j, :, :, h]
    return sp.dia_matrix((data, offsets), shape=(N, N))


def assemble_mass(mesh):
    """P1 mass matrix; the local matrix (area/12) [[2,1,1],[1,2,1],[1,1,2]]
    is exact for straight triangles."""
    def local_matrices(triangles):
        area = 0.5 * _geometry(mesh, triangles)[2]
        return area * _MASS_TEMPLATE[:, :, None]
    return _assemble_matrix(mesh, local_matrices)


def assemble_stiffness(mesh, coeff):
    """Generalized stiffness matrix of <alpha grad u, grad v> + <beta u, v>.

    Constant presets use exact closed-form local matrices; variable
    coefficients are integrated with the degree-4 rule. Raises
    CoefficientError unless alpha is finite and > 0 and beta finite and
    >= 0 (at every quadrature point for variable coefficients, checked a
    chunk at a time).
    """
    if coeff.is_constant:
        _check_coefficients(coeff.const_alpha, coeff.const_beta)
    compact = _compact_coordinates(mesh)
    return _assemble_matrix(mesh, partial(_stiffness_local, mesh, coeff, compact))


@dataclass(frozen=True)
class Forcing:
    """A separable forcing g(x, y, t) = sum_m a_m(t) p_m(x, y). The a_m
    are functions of time alone; profiles(x, y) yields p_0(x, y),
    p_1(x, y), ... in mode order from one joint evaluation, so the modes
    may share work (driver.mms_problem's w and K w share their cosines).
    assemble_loads calls it once per chunk of triangles, on x and y
    arrays that broadcast to that chunk's quadrature points (compact on
    build_mesh's grid, see the module docstring), so each p_m must be
    elementwise, and it must yield the same modes every time.
    """

    amplitudes: tuple        # (a_0(t), a_1(t), ...)
    profiles: Callable       # (x, y) -> iterable of p_m(x, y), in mode order

    def __call__(self, x, y, t):
        """g(x, y, t): zeros shaped like x plus each a_m(t) p_m(x, y) in
        mode order, broadcast."""
        out = np.zeros_like(np.asarray(x, dtype=float))
        for a, p in zip(self.amplitudes, self.profiles(x, y), strict=True):
            out = out + a(t) * p
        return out


def assemble_loads(mesh, profiles):
    """Load vectors <f_m, phi_l> of several profiles with the same degree-4
    quadrature, one row each of an m x N array. Chunk by chunk (as the
    matrices), the geometry and the quadrature points are made once;
    profiles(x, y) is called once per chunk, on two C-contiguous float
    arrays of that chunk's point coordinates that broadcast to its
    points (rows, n, 2, Q): compact, (1, n, 2, Q) and (rows, 1, 2, Q),
    when the mesh's coordinates are (see the module docstring), else
    full. It yields the f_m values in turn, as many on every chunk, each
    elementwise and of any shape that broadcasts to the points; each is
    summed to its (3, T_c) local loads (_load_sum) before the next is
    asked for. The cost of a pass is in the module docstring. A chunk's
    local loads are
    added onto the grid of nodes one term of mesh.LOAD_TERMS at a time,
    which relies on build_mesh's order of the triangles, as the
    matrices do."""
    n = mesh.n
    compact = _compact_coordinates(mesh)
    loads = None
    for start, rows, triangles in _chunks(mesh):
        ex, ey, det = _geometry(mesh, triangles)
        area = 0.5 * det
        xq, yq = _quad_points(n, ex, ey, compact)
        shape = np.broadcast_shapes(xq.shape, yq.shape)
        local = [area * _load_sum(_point_values(f_q, shape)) for f_q in profiles(xq, yq)]
        if loads is None:
            loads = np.zeros((len(local), mesh.num_nodes))
        for grid, terms in zip(loads.reshape(-1, n + 1, n + 1), local, strict=True):
            terms = terms.reshape(3, rows, n, 2)
            for x, y, h, i in LOAD_TERMS:
                grid[start + y:start + y + rows, x:x + n] += terms[i, :, :, h]
    return loads


def assemble_load(mesh, f):
    """Load vector of <f, phi_l>: assemble_loads of the one profile f."""
    return assemble_loads(mesh, lambda x, y: (f(x, y),))[0]


def stencil_csr(A):
    """The CSR form of a grid matrix A (DIA on the stencil diagonals,
    mesh.grid_side) on the full stencil pattern: every in-grid stencil
    entry stored (mesh.stencil_mask), explicit zeros too, columns
    ascending; the padded slots (row wraps, ends of the outer diagonals)
    are not. Any other matrix: A.tocsr()."""
    n = grid_side(A)
    if n is None:
        return A.tocsr()
    N = A.shape[0]
    # row-major over (row, diagonal): the offsets ascend, so do the columns
    rows, diagonal = np.nonzero(stencil_mask(n))
    cols = rows + A.offsets[diagonal]
    indptr = np.searchsorted(rows, np.arange(N + 1))
    return sp.csr_matrix((A.data[diagonal, cols], cols, indptr), shape=(N, N))


def write_matrix_market(matrix, path):
    """Matrix Market coordinate export with enough digits for an exact
    round trip of doubles. A grid matrix in DIA storage is written on its
    stencil pattern (stencil_csr), exact zeros included."""
    scipy.io.mmwrite(path, sp.coo_matrix(stencil_csr(matrix)), precision=17)


def on_stencil(X):
    """The N x N matrix X as a DIA matrix on the 7 stencil diagonals of
    the (n+1)^2 grid, N = (n+1)^2 (mesh.stencil_offsets), explicit zeros
    where X stores no entry and duplicate entries summed; X itself if it
    is one already, with one data column per node and zeros in the slots
    that hold no entry (mesh.padding_views); X as CSR if it is of no
    grid's shape or has an entry off its grid's stencil
    (mesh.stencil_mask). The V-cycle's galerkin_levels puts M and F onto
    the stencil through it, and refuses what stays CSR: it forms the
    coarse levels on the stencil diagonals."""
    n = grid_side(X)
    if n is not None and X.data.shape[1] == X.shape[1]:
        if not any(np.any(slots) for slots in padding_views(X.data.reshape(-1, n + 1, n + 1))):
            return X
    X = X.tocoo(copy=True)
    X.sum_duplicates()
    n = math.isqrt(X.shape[0]) - 1
    if X.shape != ((n + 1) ** 2,) * 2:
        return X.tocsr()
    offsets = stencil_offsets(n)
    offset = X.col - X.row
    diagonal = np.searchsorted(offsets, offset).clip(max=offsets.size - 1)
    if np.any(offsets[diagonal] != offset) or not np.all(stencil_mask(n)[X.row, diagonal]):
        return X.tocsr()
    data = np.zeros((offsets.size, X.shape[1]), X.dtype)
    data[diagonal, X.col] = X.data
    return sp.dia_matrix((data, offsets), shape=X.shape)


def read_matrix_market(path):
    """A matrix written by write_matrix_market; a grid matrix comes back
    on its stencil diagonals (on_stencil), as assembled."""
    return on_stencil(scipy.io.mmread(path))
