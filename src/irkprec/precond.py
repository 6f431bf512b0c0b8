"""Block preconditioners I (x) M + h_t^mu P (x) F of a triangular P: the
stage operator of P (StageOperator), whose solve substitutes forward or
backward over the stages. StageOperator decides how each distinct diagonal
block M + h_t^mu p_ii F is solved, by its block solver: the exact LU by
default, or one V-cycle on the Galerkin coarsenings R^T X R of M and F,
which need only M, F and the prolongations R of a mesh hierarchy.

Stage vectors are stage-major, as in stageop: the preconditioner's
apply_inverse takes and returns x[i*N:(i+1)*N] as the i-th stage block,
and each subsolve works on one such N-vector.

A V-cycle subsolver owns its work vectors: made once, on construction,
with the dtype of its level matrices (real, or complex for a complex
shift c), and overwritten by every cycle. The Jacobi sweeps, residuals,
restrictions and prolongations run in place in them through
stageop.spmv and in-place ufuncs, each the operation of the plain form
x + omega (b - S x) / d in the same order, so the results are bit for
bit that form's; as in stageop, no sum may be reordered, no sweep fused
and no omega/d precomputed. The array a solve returns is fresh, never a
work vector, so a later solve does not overwrite it. One subsolver must
not be called re-entrantly, nor from two threads at once.
"""

import numpy as np

from .butcher import PreconditionerKind, butcher_preconditioner_matrix
from .errors import SubsolveError
from .stageop import StageOperator, factor, spmv

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
        top = len(self.S) - 1
        # per level the sweep temporary t, the restricted residual b and
        # the iterate x; the finest level has only t, as its right-hand
        # side is the argument of solve and its iterate the result
        self._work = [tuple(np.empty(S.shape[0], S.dtype)
                            for _ in range(1 if level == top else 3))
                      for level, S in enumerate(self.S)]

    def solve(self, r):
        if np.ndim(r) != 1:
            raise ValueError("a V-cycle subsolve takes one vector, not a block")
        top = len(self.S) - 1
        if top == 0:
            return self.coarse_lu.solve(r)
        x = np.empty(r.shape, self.S[top].dtype)
        return self._cycle(r, x, top)

    def _cycle(self, r, x, level):
        """One V-cycle on S_level x = r, level >= 1, written into x."""
        t, (_, b, x_coarse) = self._work[level][0], self._work[level - 1]
        # the first sweep starts from x = 0, where S x is not needed
        np.multiply(SMOOTHER_DAMPING, r, out=x)
        x /= self.diag[level]
        self._jacobi(level, x, r, PRE_SWEEPS - 1)
        np.subtract(r, spmv(self.S[level], x, t), out=t)
        spmv(self.restrictions[level - 1], t, b)
        e = self.coarse_lu.solve(b) if level == 1 else self._cycle(b, x_coarse, level - 1)
        x += spmv(self.prolongations[level - 1], e, t)
        return self._jacobi(level, x, r, POST_SWEEPS)

    def _jacobi(self, level, x, b, sweeps):
        """Damped Jacobi sweeps x + omega (b - S x) / d, in place on x."""
        S, d = self.S[level], self.diag[level]
        t = self._work[level][0]
        for _ in range(sweeps):
            spmv(S, x, t)
            np.subtract(b, t, out=t)
            t *= SMOOTHER_DAMPING
            t /= d
            x += t
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
