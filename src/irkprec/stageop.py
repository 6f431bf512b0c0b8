"""Matrix-free stage operator I (x) M + h_t^mu C (x) F over stage vectors.

The coupling matrix C is the Butcher matrix A of the timestepper for
the system operator, or a preconditioner matrix P for the corresponding
block preconditioner. Stage vectors are stored stage-major: x[i*N:(i+1)*N]
is the i-th stage block.
"""

import numpy as np
import scipy.sparse as sp

from .assembly import assemble_load, assemble_stiffness
from .butcher import ButcherTableau
from .errors import ResourceLimitError

DENSE_GUARD = 20000  # max s*N for materialize()


class StageOperator:
    """Applies y_i = M x_i + h_t^mu sum_j c_ij F x_j without assembling
    the full s N x s N matrix.

    The counters n_mass_matvecs / n_stiffness_matvecs track work done by
    apply(); each call adds s to both (the s stiffness products are
    computed once and reused across stages).
    """

    def __init__(self, coupling, M, F, h_t, mu):
        if isinstance(coupling, ButcherTableau):
            self.tableau = coupling
            coupling = coupling.A
        else:
            self.tableau = None
            coupling = np.asarray(coupling, dtype=float)
        if coupling.ndim != 2 or coupling.shape[0] != coupling.shape[1]:
            raise ValueError("coupling must be a square matrix or tableau")
        if h_t <= 0:
            raise ValueError("h_t must be positive")
        if mu not in (1, 2):
            raise ValueError("mu must be 1 or 2")
        if M.shape != F.shape or M.shape[0] != M.shape[1]:
            raise ValueError("M and F must be square with equal shapes")
        self.coupling = coupling
        self.M = M.tocsr() if not sp.isspmatrix_csr(M) else M
        self.F = F.tocsr() if not sp.isspmatrix_csr(F) else F
        self.h_t = float(h_t)
        self.mu = int(mu)
        self.s = coupling.shape[0]
        self.N = M.shape[0]
        self.n_mass_matvecs = 0
        self.n_stiffness_matvecs = 0

    @property
    def size(self):
        return self.s * self.N

    def reset_counters(self):
        self.n_mass_matvecs = 0
        self.n_stiffness_matvecs = 0

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise ValueError(f"expected stage vector of length {self.size}, got {x.shape}")
        X = x.reshape(self.s, self.N).T          # columns are stage blocks
        FX = self.F @ X                           # s stiffness matvecs, reused
        Y = self.M @ X + (self.h_t ** self.mu) * (FX @ self.coupling.T)
        self.n_mass_matvecs += self.s
        self.n_stiffness_matvecs += self.s
        return Y.T.ravel()

    def apply_transpose(self, x):
        """Matvec with the transposed operator (M, F symmetric, so only
        the coupling matrix transposes)."""
        x = np.asarray(x, dtype=float)
        X = x.reshape(self.s, self.N).T
        Y = self.M @ X + (self.h_t ** self.mu) * ((self.F @ X) @ self.coupling)
        return Y.T.ravel()

    def materialize(self):
        """Explicit dense I (x) M + h_t^mu C (x) F for spectral analysis."""
        if self.size > DENSE_GUARD:
            raise ResourceLimitError(
                f"s*N = {self.size} exceeds dense guard {DENSE_GUARD}")
        return (np.kron(np.eye(self.s), self.M.toarray())
                + self.h_t ** self.mu * np.kron(self.coupling, self.F.toarray()))

    def to_sparse(self):
        """Sparse Kronecker form, for direct reference solves and spectral
        diagnostics only; the GMRES path never assembles it."""
        out = sp.kron(sp.identity(self.s, format="csr"), self.M, format="csr")
        out = out + self.h_t ** self.mu * sp.kron(self.coupling, self.F, format="csr")
        return out.tocsc()


def build_stage_rhs(mesh, coeff, tableau, h_t, mu, t_prev, u_prev,
                    udot_prev=None, g=None, F=None):
    """Stage right-hand side blocks for one step starting at t_prev.

    Block i is <g(., t_prev + c_i h_t), phi> - F (u_prev + (mu-1) h_t c_i
    udot_prev): the weak form of the stage equations with the previous
    solution moved to the right under the operator K (the data enters
    through -K, not additively).
    """
    if mu == 2 and udot_prev is None:
        raise ValueError("udot_prev is required when mu = 2")
    if F is None:
        F = assemble_stiffness(mesh, coeff)
    u_prev = np.asarray(u_prev, dtype=float)
    s = tableau.s
    N = u_prev.shape[0]
    rhs = np.empty(s * N)
    for i in range(s):
        ci = tableau.c[i]
        ti = t_prev + ci * h_t
        load = assemble_load(mesh, lambda x, y: g(x, y, ti))
        w = u_prev
        if mu == 2:
            w = u_prev + h_t * ci * np.asarray(udot_prev, dtype=float)
        rhs[i * N:(i + 1) * N] = load - F @ w
    return rhs
