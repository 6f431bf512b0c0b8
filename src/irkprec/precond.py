"""Block preconditioners I (x) M + h_t^mu P (x) F applied by stage-wise
forward or backward substitution (StageOperator's solve) with exact or
multigrid diagonal subsolves. The multigrid levels are the Galerkin
coarsenings R^T X R of M and F, so only M, F and the prolongations R of a
mesh hierarchy are needed.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .butcher import PreconditionerKind, butcher_preconditioner_matrix, is_lower_kind
from .errors import SubsolveError
from .stageop import StageOperator

SMOOTHER_DAMPING = 2.0 / 3.0
PRE_SWEEPS = 2
POST_SWEEPS = 2


def galerkin_levels(M, F, prolongations):
    """[(M_l, F_l)] from coarsest to finest: M, F on the finest level and
    R^T X R of the next finer level below it, R = prolongations[l]."""
    levels = [(M.tocsr(), F.tocsr())]
    for R in reversed(prolongations):
        levels.append(tuple((R.T @ X @ R).tocsr() for X in levels[-1]))
    return levels[::-1]


class ExactSubsolver:
    """Sparse direct solver for one diagonal block M + h_t^mu p F."""

    def __init__(self, S):
        self.lu = spla.splu(S.tocsc())

    def solve(self, r):
        return self.lu.solve(r)


class VCycleSubsolver:
    """One geometric V(2,2) cycle for M + c F on the Galerkin levels
    (M_l, F_l) of galerkin_levels, coarse to fine.

    Damped Jacobi (omega = 2/3) smoothing, residual restriction by the
    transpose of the interpolation, exact LU solve on the coarsest level.
    """

    def __init__(self, levels, prolongations, c):
        self.S = [Ml + c * Fl for Ml, Fl in levels]
        self.diag = [S.diagonal() for S in self.S]
        if any(np.any(d == 0.0) for d in self.diag):
            raise SubsolveError("zero diagonal entry in multigrid level matrix")
        self.prolongations = prolongations  # [l]: level l -> level l + 1
        self.coarse_lu = spla.splu(self.S[0].tocsc())

    def solve(self, r):
        return self._cycle(r, len(self.S) - 1)

    def _cycle(self, r, level):
        if level == 0:
            return self.coarse_lu.solve(r)
        R = self.prolongations[level - 1]
        x = self._jacobi(level, np.zeros_like(r), r, PRE_SWEEPS)
        x = x + R @ self._cycle(R.T @ (r - self.S[level] @ x), level - 1)
        return self._jacobi(level, x, r, POST_SWEEPS)

    def _jacobi(self, level, x, b, sweeps):
        S, d = self.S[level], self.diag[level]
        for _ in range(sweeps):
            x = x + SMOOTHER_DAMPING * (b - S @ x) / d
        return x


class BlockPreconditioner(StageOperator):
    """Ready-to-apply block preconditioner: the stage operator of its
    triangular P, solved by stage-wise substitution (forward for the lower
    kinds, backward for the upper ones) with the given per-stage
    subsolvers of the diagonal blocks, exact or V-cycle.
    """

    def __init__(self, kind, P, M, F, h_t, mu, subsolvers):
        super().__init__(P, M, F, h_t, mu)
        self.kind = kind
        self.P = P
        self.subsolvers = subsolvers    # one per stage

    def _factor(self):
        blocks = [(i, i + 1, sub) for i, sub in enumerate(self.subsolvers)]
        return None, self.P, is_lower_kind(self.kind), blocks

    apply_inverse = StageOperator.solve
    apply_inverse_transpose = StageOperator.solve_transpose  # substitution with P^T


def build_preconditioner(tableau, kind, M, F, h_t, mu, subsolve="exact",
                         hierarchy=None, coeff=None):
    """Build one of the five block preconditioners for the stage system.

    subsolve="exact" factorizes each diagonal block M + h_t^mu p_ii F;
    subsolve="vcycle" gives each distinct diagonal entry one V-cycle
    subsolver on the Galerkin levels of M and F, computed once per call
    from the prolongations of `hierarchy` (required in that mode). `coeff`
    is unused; it is accepted so that callers passing it keep working.
    """
    kind = PreconditionerKind(kind)
    P = butcher_preconditioner_matrix(tableau, kind)
    diag = np.diag(P)
    if np.any(diag == 0.0):
        raise SubsolveError(f"preconditioner {kind.value} has a zero diagonal entry")
    scale = h_t ** mu

    if subsolve == "exact":
        def make(p):
            return ExactSubsolver(M + scale * p * F)
    elif subsolve == "vcycle":
        if hierarchy is None:
            raise ValueError("vcycle subsolves need a hierarchy")
        if hierarchy.num_nodes != M.shape[0]:
            raise ValueError("hierarchy finest mesh does not match M")
        levels = galerkin_levels(M, F, hierarchy.prolongations)

        def make(p):
            return VCycleSubsolver(levels, hierarchy.prolongations, scale * p)
    else:
        raise ValueError(f"unknown subsolve mode {subsolve!r}")

    cache = {p: make(p) for p in dict.fromkeys(diag)}
    subsolvers = [cache[p] for p in diag]
    return BlockPreconditioner(kind, P, M, F, h_t, mu, subsolvers)
