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
done once per call (the vertex coordinates gathered once, gradients only
for the stiffness, f called once) and without spare copies. Swapping the two
operands of one product or sum is exact and allowed. Reordering a sum,
fusing operations or replacing a contraction by a matmul (which moved
load entries by 1e-16) is not: M, F and every stage right-hand side feed
every row the CLI reports, and the golden rows
(tests/data/golden_rows.json) compare those rows by exact equality.
tests/test_assembly.py keeps the plain formulas as references.

M and F are scattered by one np.bincount onto the mesh's CSR pattern,
mesh.stencil_layout, which also gives the slot of each of the 9 local
entries of every triangle; it is recomputed from n on each call, and M
and F of one mesh get the same indptr and indices. bincount adds the
terms of an entry one at a time in element order, as the loads do.
scipy's COO -> CSR conversion, which this replaces, summed them in its
own per-row sort order: the same bits wherever every term is exact (the
uniform mesh with constant coefficients), a last-bit difference on some
entries otherwise. At k=6 and 8 the scatter of one matrix takes
0.55-0.65x the time of the COO -> CSR conversion (one BLAS thread,
2-core x86_64 host).

Loads have one path, assemble_loads: the geometry and the quadrature
points once, then one contraction and one scatter per profile. Every
stage right-hand side goes through it (stageop.build_stage_rhs). At k=6
the joint pass over driver.mms_problem's two forcing modes takes about
25 ms with one BLAS thread on a 2-core x86_64 host.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import CoefficientError
from .mesh import stencil_layout

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


def _geometry(mesh):
    """(ex, ey, det): vertex 0 and the edges e1 = v1 - v0, e2 = v2 - v0 of
    every triangle, one coordinate at a time, ex = (x0, e1x, e2x) and
    ey = (y0, e1y, e2y), and det = e1 x e2, twice the signed areas; each a
    contiguous (T,) array. The vertex coordinates are gathered once per
    coordinate, vertex-major, as one C-contiguous (3, T) array."""
    ex, ey = [(v[0], v[1] - v[0], v[2] - v[0])
              for v in (coord[mesh.triangles.T] for coord in mesh.nodes.T)]
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


def _stiffness_local(area, gx, gy, alpha_q, beta_q):
    """Local matrices of the bilinear form alpha grad.grad + beta id.id.

    alpha_q, beta_q: coefficient values at the mapped quadrature points,
    shape (T, Q); the weights sum to 1, so the element integral is
    area * sum_q w_q f(x_q).
    """
    abar = alpha_q @ QUAD_WEIGHTS
    S = _gdot(gx, gy)
    S *= (area * abar)[:, None, None]
    wb = beta_q * QUAD_WEIGHTS
    S += area[:, None, None] * np.einsum("tq,qi,qj->tij", wb, QUAD_PHI, QUAD_PHI)
    return S


def _check_coefficients(alpha, beta):
    """Refuse alpha that is not finite and > 0, or beta that is not finite
    and >= 0, anywhere in the given values (a NaN fails every comparison)."""
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


def _scatter(mesh, local):
    """Sum the (T, 3, 3) local element matrices into a CSR matrix on the
    mesh's stencil layout, each entry's terms added in element order."""
    indptr, indices, slots = stencil_layout(mesh.n)
    data = np.bincount(slots.ravel(), local.ravel(), minlength=indices.size)
    N = mesh.num_nodes
    return sp.csr_matrix((data, indices, indptr), shape=(N, N))


def assemble_mass(mesh):
    """P1 mass matrix; the local matrix (area/12) [[2,1,1],[1,2,1],[1,1,2]]
    is exact for straight triangles."""
    area = 0.5 * _geometry(mesh)[2]
    local = area[:, None, None] * _MASS_TEMPLATE[None]
    return _scatter(mesh, local)


def assemble_stiffness(mesh, coeff):
    """Generalized stiffness matrix of <alpha grad u, grad v> + <beta u, v>.

    Constant presets use exact closed-form local matrices; variable
    coefficients are integrated with the degree-4 rule. Raises
    CoefficientError unless alpha is finite and > 0 and beta finite and
    >= 0 (at every quadrature point for variable coefficients).
    """
    ex, ey, det = _geometry(mesh)
    area = 0.5 * det
    gx, gy = _gradients(ex, ey, det)
    if coeff.is_constant:
        _check_coefficients(coeff.const_alpha, coeff.const_beta)
        local = _gdot(gx, gy)
        local *= (coeff.const_alpha * area)[:, None, None]
        local += (coeff.const_beta * area)[:, None, None] * _MASS_TEMPLATE[None]
        return _scatter(mesh, local)

    xq, yq = _quad_coord(*ex), _quad_coord(*ey)
    alpha_q = _point_values(coeff.alpha(xq, yq), xq.shape)
    beta_q = _point_values(coeff.beta(xq, yq), xq.shape)
    _check_coefficients(alpha_q, beta_q)
    local = _stiffness_local(area, gx, gy, alpha_q, beta_q)
    return _scatter(mesh, local)


@dataclass(frozen=True)
class Forcing:
    """A separable forcing g(x, y, t) = sum_m a_m(t) p_m(x, y). The a_m
    are functions of time alone; profiles(x, y) yields p_0(x, y),
    p_1(x, y), ... in mode order from one joint evaluation, so the modes
    may share work (driver.mms_problem's w and K w share their cosines).
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
    quadrature, one row each of an m x N array. The geometry and the
    quadrature points are made once; profiles(x, y) is called once, on
    two C-contiguous (T, Q) arrays of point coordinates, and yields the
    f_m values in turn. Each is contracted and scattered before the next
    is asked for, so a generator can drop its own (T, Q) arrays between
    profiles."""
    ex, ey, det = _geometry(mesh)
    area = 0.5 * det
    xq, yq = _quad_coord(*ex), _quad_coord(*ey)
    loads = []
    for f_q in profiles(xq, yq):
        f_q = _point_values(f_q, xq.shape)
        local = area[:, None] * np.einsum("tq,q,qi->ti", f_q, QUAD_WEIGHTS, QUAD_PHI)
        loads.append(np.bincount(mesh.triangles.ravel(), local.ravel(),
                                 minlength=mesh.num_nodes))
        del f_q, local
    return np.array(loads).reshape(-1, mesh.num_nodes)


def assemble_load(mesh, f):
    """Load vector of <f, phi_l>: assemble_loads of the one profile f."""
    return assemble_loads(mesh, lambda x, y: (f(x, y),))[0]


def write_matrix_market(matrix, path):
    """Matrix Market coordinate export with enough digits for an exact
    round trip of doubles."""
    scipy.io.mmwrite(path, sp.coo_matrix(matrix), precision=17)


def read_matrix_market(path):
    return scipy.io.mmread(path).tocsr()
