"""P1 assembly of mass and generalized stiffness matrices on TriMesh.

The stiffness form is <alpha grad u, grad v> + <beta u, v> for the
operator K u = -div(alpha grad u) + beta u under homogeneous Neumann
conditions (no rows or columns are modified).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import CoefficientError

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


def _tri_geometry(xy):
    """Signed areas and P1 basis gradients for triangles xy (T, 3, 2)."""
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


def _stiffness_local(area, grads, alpha_q, beta_q):
    """Local matrices of the bilinear form alpha grad.grad + beta id.id.

    alpha_q, beta_q: coefficient values at the mapped quadrature points,
    shape (T, Q); the weights sum to 1, so the element integral is
    area * sum_q w_q f(x_q).
    """
    abar = alpha_q @ QUAD_WEIGHTS
    gdot = np.einsum("tix,tjx->tij", grads, grads)
    S = (area * abar)[:, None, None] * gdot
    wb = beta_q * QUAD_WEIGHTS
    S += area[:, None, None] * np.einsum("tq,qi,qj->tij", wb, QUAD_PHI, QUAD_PHI)
    return S


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


def _quad_xy(mesh):
    """Physical coordinates of all quadrature points, shape (T, Q, 2)."""
    xy = mesh.nodes[mesh.triangles]
    v0 = xy[:, 0][:, None, :]
    e1 = (xy[:, 1] - xy[:, 0])[:, None, :]
    e2 = (xy[:, 2] - xy[:, 0])[:, None, :]
    return v0 + QUAD_POINTS[None, :, 0, None] * e1 + QUAD_POINTS[None, :, 1, None] * e2


def _scatter(mesh, local):
    """Sum local element contributions into a CSR matrix."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    N = mesh.num_nodes
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(N, N)).tocsr()


def assemble_mass(mesh):
    """P1 mass matrix; the local matrix (area/12) [[2,1,1],[1,2,1],[1,1,2]]
    is exact for straight triangles."""
    xy = mesh.nodes[mesh.triangles]
    area, _ = _tri_geometry(xy)
    local = area[:, None, None] * _MASS_TEMPLATE[None]
    return _scatter(mesh, local)


def assemble_stiffness(mesh, coeff):
    """Generalized stiffness matrix of <alpha grad u, grad v> + <beta u, v>.

    Constant presets use exact closed-form local matrices; variable
    coefficients are integrated with the degree-4 rule. Raises
    CoefficientError if alpha <= 0 or beta < 0 at any quadrature point.
    """
    xy = mesh.nodes[mesh.triangles]
    area, grads = _tri_geometry(xy)
    if coeff.is_constant:
        if coeff.const_alpha <= 0.0 or coeff.const_beta < 0.0:
            raise CoefficientError(
                f"need alpha > 0 and beta >= 0, got alpha={coeff.const_alpha}, "
                f"beta={coeff.const_beta}")
        gdot = np.einsum("tix,tjx->tij", grads, grads)
        local = (coeff.const_alpha * area)[:, None, None] * gdot
        local += (coeff.const_beta * area)[:, None, None] * _MASS_TEMPLATE[None]
        return _scatter(mesh, local)

    pts = _quad_xy(mesh)
    alpha_q = np.asarray(coeff.alpha(pts[..., 0], pts[..., 1]), dtype=float)
    beta_q = np.asarray(coeff.beta(pts[..., 0], pts[..., 1]), dtype=float)
    alpha_q = np.broadcast_to(alpha_q, pts.shape[:2]).copy()
    beta_q = np.broadcast_to(beta_q, pts.shape[:2]).copy()
    if alpha_q.min() <= 0.0:
        raise CoefficientError("alpha <= 0 at a quadrature point")
    if beta_q.min() < 0.0:
        raise CoefficientError("beta < 0 at a quadrature point")
    local = _stiffness_local(area, grads, alpha_q, beta_q)
    return _scatter(mesh, local)


def assemble_load(mesh, f):
    """Load vector of <f, phi_l> with the same degree-4 quadrature."""
    xy = mesh.nodes[mesh.triangles]
    area, _ = _tri_geometry(xy)
    pts = _quad_xy(mesh)
    f_q = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    f_q = np.broadcast_to(f_q, pts.shape[:2]).copy()
    local = area[:, None] * np.einsum("tq,q,qi->ti", f_q, QUAD_WEIGHTS, QUAD_PHI)
    out = np.zeros(mesh.num_nodes)
    np.add.at(out, mesh.triangles.ravel(), local.ravel())
    return out


def write_matrix_market(matrix, path):
    """Matrix Market coordinate export with enough digits for an exact
    round trip of doubles."""
    scipy.io.mmwrite(path, sp.coo_matrix(matrix), precision=17)


def read_matrix_market(path):
    return scipy.io.mmread(path).tocsr()
