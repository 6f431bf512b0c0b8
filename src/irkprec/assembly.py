"""P1 assembly of mass and generalized stiffness matrices on TriMesh.

The stiffness form is <alpha grad u, grad v> + <beta u, v> for the
operator K u = -div(alpha grad u) + beta u under homogeneous Neumann
conditions (no rows or columns are modified).

Every matrix entry and load value is kept bit for bit equal to the plain
formulas that define it: element geometry from nodes[triangles], the
quadrature points v0 + P0 e1 + P1 e2, the einsum contractions, and the
element matrices and loads summed in element order. As in stageop's
kernels, each product and sum is the same operation on the same operands
in the same order. The code only arranges that each piece of work is
done once per chunk (the vertex coordinates gathered once, gradients only
for the stiffness, f called once) and without spare copies. Swapping the two
operands of one product or sum is exact and allowed. Reordering a sum,
fusing operations or replacing a contraction by a matmul (which moved
load entries by 1e-16) is not: M, F and every stage right-hand side feed
every row the CLI reports, and the golden rows
(tests/data/golden_rows.json) compare those rows by exact equality.
tests/test_assembly.py keeps the plain formulas as references.

M and F are born in diagonal (DIA) storage: a scipy dia_matrix on the 7
offsets of the mesh's stencil, ascending (mesh.diagonal_layout), whose
(7, N) data array np.bincount fills. M and F of one mesh share the same
offsets, so M + c F is the sum of their data arrays. Slots off the grid
(row wraps and the ends of the outer diagonals) stay explicit zeros.
bincount adds the terms of an entry one at a time in element order, as
the loads do; scipy's COO -> CSR conversion sums them in its own per-row
sort order, which gives the same bits only where every term is exact
(the uniform mesh with constant coefficients).

Matrices and loads are assembled in chunks of whole square rows, about
CHUNK_TRIANGLES triangles each, in element order. A chunk forms its own
geometry, quadrature points, coefficient values and local matrices, and
adds them into the band of nodes its rows touch, by one bincount whose
input starts with the band's running sums. Since bincount adds in input
order from 0, every entry is still summed term by term in element order
from 0, and M, F and the loads are bit for bit those of one bincount
over the whole mesh. A matrix chunk takes its slots from
diagonal_layout(n, rows), the layout of a band of its height, so no slot
array of the whole mesh is made, and only the band's first node row
holds running sums. A chunk's temporaries are a few MB whatever the
mesh: at k=8 (T = 524288) the traced peak of assemble_mass, of
assemble_stiffness with a variable field and of the two mms forcing
loads is 1.1x, 1.4x and 2.6x its result (6.4x, 21.6x and 66x in one
piece), and each takes 0.4-0.65x the time, as a chunk's arrays stay in
cache (one BLAS thread, 2-core x86_64 host). On meshes of one chunk
(k <= 5) the chunk bookkeeping costs 5-20% of the time.

Loads have one path, assemble_loads: per chunk the geometry and the
quadrature points once, then one contraction per profile. Every stage
right-hand side goes through it (stageop.build_stage_rhs). At k=6 the
joint pass over driver.mms_problem's two forcing modes takes about 17 ms
with one BLAS thread on a 2-core x86_64 host.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import CoefficientError
from .mesh import diagonal_layout, stencil_offsets

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
    shape (T, 3, 3); each product and sum is commutative, so entry (j, i)
    is entry (i, j) bit for bit and is copied."""
    gdot = np.empty((gx.shape[1], 3, 3))
    for i in range(3):
        for j in range(i, 3):
            gdot[:, i, j] = gx[i] * gx[j] + gy[i] * gy[j]
            if j != i:
                gdot[:, j, i] = gdot[:, i, j]
    return gdot


def _quad_coord(v0, e1, e2):
    """One coordinate of all quadrature points, v0 + P0 e1 + P1 e2 for the
    reference points (P0, P1), as a C-contiguous (T, Q) array."""
    out = np.empty((v0.size, len(QUAD_POINTS)))
    for q, (p0, p1) in enumerate(QUAD_POINTS):
        out[:, q] = v0 + p0 * e1 + p1 * e2
    return out


def _point_values(values, shape):
    """values (of a field or a profile at the quadrature points) as a
    C-contiguous float array of the points' shape; a result of another
    shape (a scalar, say) is broadcast and copied."""
    out = np.asarray(values, dtype=float)
    return np.ascontiguousarray(np.broadcast_to(out, shape))


def _stiffness_local(mesh, coeff, triangles):
    """Local matrices of the bilinear form alpha grad.grad + beta id.id on
    the given triangles, shape (T, 3, 3): closed form for a constant
    field, else the degree-4 rule on the coefficient values at the mapped
    quadrature points, whose weights sum to 1, so that the element
    integral is area * sum_q w_q f(x_q). Refuses bad values of a variable
    field at these triangles' points (_check_coefficients)."""
    ex, ey, det = _geometry(mesh, triangles)
    area = 0.5 * det
    gx, gy = _gradients(ex, ey, det)
    S = _gdot(gx, gy)
    if coeff.is_constant:
        S *= (coeff.const_alpha * area)[:, None, None]
        S += (coeff.const_beta * area)[:, None, None] * _MASS_TEMPLATE[None]
        return S
    xq, yq = _quad_coord(*ex), _quad_coord(*ey)
    alpha_q = _point_values(coeff.alpha(xq, yq), xq.shape)
    beta_q = _point_values(coeff.beta(xq, yq), xq.shape)
    _check_coefficients(alpha_q, beta_q)
    S *= (area * (alpha_q @ QUAD_WEIGHTS))[:, None, None]
    wb = beta_q * QUAD_WEIGHTS
    S += area[:, None, None] * np.einsum("tq,qi,qj->tij", wb, QUAD_PHI, QUAD_PHI)
    return S


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
    switch assembly to exact closed-form local matrices. grad_alpha is
    the analytic gradient of alpha, needed for manufactured solutions.
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


def _add_in_order(band, index, running, terms):
    """Add the terms to band in place, at the positions index[running.size:]
    of band's flattened form, onto its running sums `running` at the
    positions index[:running.size] (every other entry of band is zero).
    np.bincount adds its weights one at a time in input order, starting
    from 0; with the running sums put first, each entry continues its sum
    term by term, as one bincount over every chunk would. A first chunk
    has no running sums, and its terms are bincount's whole input."""
    weights = np.concatenate((running.ravel(), terms.ravel())) if running.size else terms.ravel()
    band[...] = np.bincount(index, weights, minlength=band.size).reshape(band.shape)


def _assemble_matrix(mesh, local_matrices):
    """Sum the (T_c, 3, 3) local matrices local_matrices(triangles) of each
    chunk into a DIA matrix on the mesh's stencil diagonals, each entry's
    terms added in element order. A chunk of `rows` square rows touches
    the (7, B) band of the data array over its rows + 1 node rows, laid
    out by diagonal_layout(n, rows); of these, only the first node row
    holds sums of earlier chunks."""
    n, N = mesh.n, mesh.num_nodes
    side = n + 1
    offsets = stencil_offsets(n)
    data = np.zeros((offsets.size, N))
    index = {}   # band height -> bincount positions of the running sums and the slots
    for start, rows, triangles in _chunks(mesh):
        band = data[:, start * side:(start + rows + 1) * side]
        if rows not in index:
            running = np.arange(offsets.size)[:, None] * band.shape[1] + np.arange(side)
            index[rows] = np.concatenate((running.ravel(), diagonal_layout(n, rows)[1].ravel()))
        carried = side if start > 0 else 0
        _add_in_order(band, index[rows][offsets.size * (side - carried):], band[:, :carried],
                      local_matrices(triangles))
    return sp.dia_matrix((data, offsets), shape=(N, N))


def assemble_mass(mesh):
    """P1 mass matrix; the local matrix (area/12) [[2,1,1],[1,2,1],[1,1,2]]
    is exact for straight triangles."""
    def local_matrices(triangles):
        area = 0.5 * _geometry(mesh, triangles)[2]
        return area[:, None, None] * _MASS_TEMPLATE[None]
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
    return _assemble_matrix(mesh, partial(_stiffness_local, mesh, coeff))


@dataclass(frozen=True)
class Forcing:
    """A separable forcing g(x, y, t) = sum_m a_m(t) p_m(x, y). The a_m
    are functions of time alone; profiles(x, y) yields p_0(x, y),
    p_1(x, y), ... in mode order from one joint evaluation, so the modes
    may share work (driver.mms_problem's w and K w share their cosines).
    assemble_loads calls it once per chunk of triangles, on that chunk's
    quadrature points, and it must yield the same modes every time.
    """

    amplitudes: tuple        # (a_0(t), a_1(t), ...)
    profiles: Callable       # (x, y) -> iterable of p_m(x, y), in mode order

    def __call__(self, x, y, t):
        """g(x, y, t): zeros shaped like x plus each a_m(t) p_m(x, y) in
        mode order."""
        out = np.zeros_like(np.asarray(x, dtype=float))
        for a, p in zip(self.amplitudes, self.profiles(x, y), strict=True):
            out = out + a(t) * p
        return out


def assemble_loads(mesh, profiles):
    """Load vectors <f_m, phi_l> of several profiles with the same degree-4
    quadrature, one row each of an m x N array. Chunk by chunk (as the
    matrices), the geometry and the quadrature points are made once;
    profiles(x, y) is called once per chunk, on two C-contiguous (T_c, Q)
    arrays of that chunk's point coordinates, and yields the f_m values
    in turn, as many on every chunk; each is contracted to its (T_c, 3)
    local loads before the next is asked for. A chunk's loads are added
    on the band of nodes from its smallest to its largest vertex, which
    holds for any order of the triangles."""
    loads = None
    for start, _, triangles in _chunks(mesh):
        ex, ey, det = _geometry(mesh, triangles)
        area = 0.5 * det
        xq, yq = _quad_coord(*ex), _quad_coord(*ey)
        local = [area[:, None] * np.einsum("tq,q,qi->ti", _point_values(f_q, xq.shape),
                                           QUAD_WEIGHTS, QUAD_PHI)
                 for f_q in profiles(xq, yq)]
        if loads is None:
            loads = np.zeros((len(local), mesh.num_nodes))
        lo, hi = triangles.min(), triangles.max() + 1
        index = (triangles - lo).ravel()
        if start > 0:
            index = np.concatenate((np.arange(hi - lo), index))
        for row, terms in zip(loads, local, strict=True):
            _add_in_order(row[lo:hi], index, row[lo:hi] if start > 0 else row[:0], terms)
    return loads


def assemble_load(mesh, f):
    """Load vector of <f, phi_l>: assemble_loads of the one profile f."""
    return assemble_loads(mesh, lambda x, y: (f(x, y),))[0]


def stencil_csr(A):
    """The CSR form of a grid matrix A (DIA on the stencil diagonals of
    mesh.diagonal_layout) on the full stencil pattern: every in-grid
    stencil entry stored, explicit zeros too, columns ascending; the
    padded slots (row wraps, ends of the outer diagonals) are not. Any
    other matrix: A.tocsr()."""
    N = A.shape[0]
    n = math.isqrt(N) - 1
    if (A.format != "dia" or A.shape != (N, N) or (n + 1) ** 2 != N
            or not np.array_equal(A.offsets, stencil_offsets(n))):
        return A.tocsr()
    offsets, slots = diagonal_layout(n)
    diagonal, cols = np.divmod(np.unique(slots), N)
    rows = cols - offsets[diagonal]
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=N))))
    return sp.csr_matrix((A.data[diagonal, cols][order], cols[order], indptr), shape=(N, N))


def write_matrix_market(matrix, path):
    """Matrix Market coordinate export with enough digits for an exact
    round trip of doubles. A grid matrix in DIA storage is written on its
    stencil pattern (stencil_csr), exact zeros included."""
    scipy.io.mmwrite(path, sp.coo_matrix(stencil_csr(matrix)), precision=17)


def on_stencil(X):
    """The N x N matrix X as a DIA matrix on the 7 stencil diagonals of
    the (n+1)^2 grid, N = (n+1)^2 (mesh.stencil_offsets), explicit zeros
    where X stores no entry; X as CSR if it is of no grid's shape or has
    an entry off them. The Galerkin product of P1 matrices with the P1
    prolongation keeps to the coarse stencil."""
    X = X.tocoo()
    n = math.isqrt(X.shape[0]) - 1
    if X.shape != ((n + 1) ** 2,) * 2:
        return X.tocsr()
    offsets = stencil_offsets(n)
    offset = X.col - X.row
    diagonal = np.searchsorted(offsets, offset).clip(max=offsets.size - 1)
    if np.any(offsets[diagonal] != offset):
        return X.tocsr()
    data = np.zeros((offsets.size, X.shape[1]), X.dtype)
    data[diagonal, X.col] = X.data
    return sp.dia_matrix((data, offsets), shape=X.shape)


def read_matrix_market(path):
    """A matrix written by write_matrix_market; a grid matrix comes back
    on its stencil diagonals (on_stencil), as assembled."""
    return on_stencil(scipy.io.mmread(path))
