"""Block preconditioners I (x) M + h_t^mu P (x) F of a triangular P: the
stage operator of P (StageOperator), whose solve substitutes forward or
backward over the stages. StageOperator decides how each distinct diagonal
block M + h_t^mu p_ii F is solved, by its block solver: the exact LU by
default, or one V-cycle on the Galerkin coarsenings R^T X R of M and F,
which need only M, F and the prolongations R of a mesh hierarchy.
"""

import numpy as np

from .butcher import PreconditionerKind, butcher_preconditioner_matrix
from .errors import SubsolveError
from .stageop import StageOperator, factor

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


def restrictions(prolongations):
    """R^T of each prolongation, stored once as CSR (not rebuilt as the
    CSC view R.T on every use); its mat-vec adds in R.T's order."""
    return [R.T.tocsr() for R in prolongations]


class VCycleSubsolver:
    """One geometric V(2,2) cycle for M + c F on the Galerkin levels
    (M_l, F_l) of galerkin_levels, coarse to fine.

    Damped Jacobi (omega = 2/3) smoothing, residual restriction by the
    stored transpose of the interpolation (`restrictions`, shared by every
    subsolver built from the same hierarchy), exact LU solve on the
    coarsest level (nnz is that LU's fill).
    """

    def __init__(self, levels, prolongations, restrictions, c):
        self.S = [Ml + c * Fl for Ml, Fl in levels]
        self.diag = [S.diagonal() for S in self.S]
        if any(np.any(d == 0.0) for d in self.diag):
            raise SubsolveError("zero diagonal entry in multigrid level matrix")
        self.prolongations = prolongations  # [l]: level l -> level l + 1
        self.restrictions = restrictions    # [l]: prolongations[l].T as CSR
        self.coarse_lu = factor(self.S[0])
        self.nnz = self.coarse_lu.nnz

    def solve(self, r):
        if np.ndim(r) != 1:
            raise ValueError("a V-cycle subsolve takes one vector, not a block")
        return self._cycle(r, len(self.S) - 1)

    def _cycle(self, r, level):
        if level == 0:
            return self.coarse_lu.solve(r)
        R, Rt = self.prolongations[level - 1], self.restrictions[level - 1]
        # the first sweep starts from x = 0, where S x is not needed
        x = self._jacobi(level, SMOOTHER_DAMPING * r / self.diag[level], r,
                         PRE_SWEEPS - 1)
        x = x + R @ self._cycle(Rt @ (r - self.S[level] @ x), level - 1)
        return self._jacobi(level, x, r, POST_SWEEPS)

    def _jacobi(self, level, x, b, sweeps):
        S, d = self.S[level], self.diag[level]
        for _ in range(sweeps):
            x = x + SMOOTHER_DAMPING * (b - S @ x) / d
        return x


class BlockPreconditioner(StageOperator):
    """Ready-to-apply block preconditioner: the stage operator of its
    triangular P, factored on construction (so its build time includes
    the LUs or V-cycle set-ups). It differs from the system operator only
    in its block solver, exact LU (the default) or a V-cycle factory.
    """

    def __init__(self, P, M, F, h_t, mu, block_solver=None):
        super().__init__(P, M, F, h_t, mu, block_solver)
        self.P = self.coupling
        self._factors = self._factor()

    @property
    def subsolvers(self):
        """The solver of each stage's diagonal block, one object per
        distinct diagonal value."""
        return [solver for *_, solver in self._factors[3]]

    apply_inverse = StageOperator.solve
    apply_inverse_transpose = StageOperator.solve_transpose  # substitution with P^T


def build_preconditioner(tableau, kind, M, F, h_t, mu, subsolve="exact",
                         hierarchy=None, coeff=None):
    """Build one of the five block preconditioners for the stage system.

    subsolve="exact" factorizes each distinct diagonal block
    M + h_t^mu p_ii F; subsolve="vcycle" gives each one a V-cycle
    subsolver on the Galerkin levels of M and F and the restrictions,
    computed once per call from the prolongations of `hierarchy`
    (required in that mode) and shared by the subsolvers. `coeff`
    is unused; it is accepted so that callers passing it keep working.
    """
    kind = PreconditionerKind(kind)
    P = butcher_preconditioner_matrix(tableau, kind)
    if np.any(np.diag(P) == 0.0):
        raise SubsolveError(f"preconditioner {kind.value} has a zero diagonal entry")
    if subsolve == "exact":
        return BlockPreconditioner(P, M, F, h_t, mu)
    if subsolve != "vcycle":
        raise ValueError(f"unknown subsolve mode {subsolve!r}")
    if hierarchy is None:
        raise ValueError("vcycle subsolves need a hierarchy")
    if hierarchy.num_nodes != M.shape[0]:
        raise ValueError("hierarchy finest mesh does not match M")
    levels = galerkin_levels(M, F, hierarchy.prolongations)
    restrict = restrictions(hierarchy.prolongations)

    def vcycle(M, F, c):
        return VCycleSubsolver(levels, hierarchy.prolongations, restrict, c)

    return BlockPreconditioner(P, M, F, h_t, mu, vcycle)
