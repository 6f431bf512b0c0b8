"""Matrix-free stage operator I (x) M + h_t^mu C (x) F over stage vectors,
and its exact solve.

The coupling matrix C is the Butcher matrix A of the timestepper for
the system operator, or a preconditioner matrix P for the corresponding
block preconditioner. Stage vectors are stored stage-major: x[i*N:(i+1)*N]
is the i-th stage block. The solve substitutes over stages with N x N
LUs: directly for a triangular C, else in the real Schur basis of C.
"""

import numpy as np
from scipy.linalg import schur
from scipy.sparse.linalg import splu

from .assembly import assemble_load, assemble_stiffness
from .butcher import ButcherTableau
from .errors import FactorizationError, ResourceLimitError

DENSE_GUARD = 20000  # max s*N for materialize()


class StageOperator:
    """Applies y_i = M x_i + h_t^mu sum_j c_ij F x_j without assembling
    the full s N x s N matrix, and solves with it exactly.

    The counters n_mass_matvecs / n_stiffness_matvecs track work done by
    apply() and apply_transpose(); each call adds s to both (the s
    stiffness products are computed once and reused across stages).
    """

    def __init__(self, coupling, M, F, h_t, mu):
        if isinstance(coupling, ButcherTableau):
            coupling = coupling.A
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
        self.M = M.tocsr()
        self.F = F.tocsr()
        self.h_t = float(h_t)
        self.mu = int(mu)
        self.s = coupling.shape[0]
        self.N = M.shape[0]
        self.n_mass_matvecs = 0
        self.n_stiffness_matvecs = 0
        self._factors = None  # built by the first solve

    @property
    def size(self):
        return self.s * self.N

    def reset_counters(self):
        self.n_mass_matvecs = 0
        self.n_stiffness_matvecs = 0

    def _blocks(self, x):
        """The stage vector x as an s x N array, one row per stage block."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise ValueError(f"expected stage vector of length {self.size}, got {x.shape}")
        return x.reshape(self.s, self.N)

    def apply(self, x):
        return self._apply(x, self.coupling)

    def apply_transpose(self, x):
        """Matvec with the transposed operator (M, F symmetric, so only
        the coupling matrix transposes)."""
        return self._apply(x, self.coupling.T)

    def _apply(self, x, C):
        X = self._blocks(x).T                     # columns are stage blocks
        FX = self.F @ X                           # s stiffness matvecs, reused
        Y = self.M @ X + (self.h_t ** self.mu) * (FX @ C.T)
        self.n_mass_matvecs += self.s
        self.n_stiffness_matvecs += self.s
        return Y.T.ravel()

    def solve(self, r):
        """Exact solve with the operator; factors on the first call."""
        return self._solve(r, transpose=False)

    def solve_transpose(self, r):
        """Exact solve with the transposed operator, on the same factors."""
        return self._solve(r, transpose=True)

    def _solve(self, r, transpose):
        """Forward (lower) or backward substitution over the stages of the
        quasi-triangular T, one solver per diagonal block of T, in the
        basis Q; each F z_j is formed at most once."""
        if self._factors is None:
            self._factors = self._factor()
        Q, T, lower, blocks = self._factors
        if transpose:
            T, lower = T.T, not lower
        R = self._blocks(r) if Q is None else Q.T @ self._blocks(r)
        scale = self.h_t ** self.mu
        Z = np.empty_like(R)
        FZ = [None] * self.s
        for lo, hi, solver in (blocks if lower else blocks[::-1]):
            acc = R[lo:hi].copy()
            for j in (range(lo) if lower else range(hi, self.s)):
                for i in range(lo, hi):
                    if T[i, j] != 0.0:
                        if FZ[j] is None:
                            FZ[j] = self.F @ Z[j]
                        acc[i - lo] -= scale * T[i, j] * FZ[j]
            if hi - lo == 1:
                Z[lo] = solver.solve(acc[0])
            else:
                # [[a, b], [c, a]], bc < 0: solver is the LU of M + scale (a + i w) F,
                # w = sqrt(-bc); z = LU^-1 (r1 + i k r2), k = -b/w, gives Re z, Im z / k
                b = T[lo, lo + 1]
                kappa = -b / np.sqrt(-b * T[lo + 1, lo])
                z = solver.solve(acc[0] + 1j * kappa * acc[1])
                Z[lo], Z[lo + 1] = z.real, z.imag / kappa
        return (Z if Q is None else Q @ Z).ravel()

    def _factor(self):
        """(Q, T, lower, blocks) for _solve(): C = Q T Q^T in real Schur form,
        or Q = None and T = C for a triangular C; one LU per distinct
        diagonal block."""
        C = self.coupling
        lower = np.array_equal(C, np.tril(C))
        Q, T = None, C
        if not (lower or np.array_equal(C, np.triu(C))):
            T, Q = schur(C, output="real")
        edges = [i for i in range(self.s)
                 if Q is None or i == 0 or T[i, i - 1] == 0.0] + [self.s]
        lus, blocks = {}, []
        for lo, hi in zip(edges, edges[1:]):
            a = T[lo, lo]
            if hi - lo == 2:
                bc = T[lo, lo + 1] * T[lo + 1, lo]
                if T[lo + 1, lo + 1] != a or bc >= 0.0:
                    raise FactorizationError(lo, f"Schur block at {lo} is not standardized")
                a = a + 1j * np.sqrt(-bc)
            if a not in lus:
                lus[a] = splu((self.M + self.h_t ** self.mu * a * self.F).tocsc())
            blocks.append((lo, hi, lus[a]))
        return Q, T, lower, blocks

    def materialize(self):
        """Explicit dense I (x) M + h_t^mu C (x) F for spectral analysis."""
        if self.size > DENSE_GUARD:
            raise ResourceLimitError(
                f"s*N = {self.size} exceeds dense guard {DENSE_GUARD}")
        return (np.kron(np.eye(self.s), self.M.toarray())
                + self.h_t ** self.mu * np.kron(self.coupling, self.F.toarray()))


def build_stage_rhs(mesh, coeff, tableau, h_t, mu, t_prev, u_prev,
                    udot_prev=None, g=None, F=None):
    """Stage right-hand side blocks for one step starting at t_prev.

    Block i is <g(., t_prev + c_i h_t), phi> - F (u_prev + (mu-1) h_t c_i
    udot_prev): the weak form of the stage equations with the previous
    solution moved to the right under the operator K (the data enters
    through -K, not additively). Assembles one load per stage from the
    callable g; `driver.integrate` instead combines loads it assembled
    once per forcing mode.
    """
    if mu == 2 and udot_prev is None:
        raise ValueError("udot_prev is required when mu = 2")
    if F is None:
        F = assemble_stiffness(mesh, coeff)
    loads = np.array([assemble_load(mesh, lambda x, y: g(x, y, t_prev + ci * h_t))
                      for ci in tableau.c])
    return _stage_rhs(loads, F, tableau.c, h_t, mu, u_prev, udot_prev)


def _stage_rhs(loads, F, c, h_t, mu, u_prev, udot_prev):
    """The stage vector with block i = loads[i] - F (u_prev + (mu-1) h_t
    c_i udot_prev), from an s x N array of stage loads."""
    W = np.asarray(u_prev, dtype=float)[None, :]
    if mu == 2:
        W = W + np.outer(h_t * c, np.asarray(udot_prev, dtype=float))
    return (loads - (F @ W.T).T).ravel()
