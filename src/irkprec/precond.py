"""Block preconditioners I (x) M + h_t^mu P (x) F applied by stage-wise
forward or backward substitution (StageOperator's solve) with exact or
multigrid diagonal subsolves.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import assemble_mass, assemble_stiffness
from .butcher import PreconditionerKind, butcher_preconditioner_matrix, is_lower_kind
from .errors import SubsolveError
from .stageop import StageOperator

SMOOTHER_DAMPING = 2.0 / 3.0
PRE_SWEEPS = 2
POST_SWEEPS = 2


class GridLevel:
    """One level of a multigrid hierarchy for a fixed subsystem matrix."""

    def __init__(self, S, prolongation=None):
        self.S = S.tocsr()
        self.diag = self.S.diagonal()
        if np.any(self.diag == 0.0):
            raise SubsolveError("zero diagonal entry in multigrid level matrix")
        self.prolongation = prolongation  # from the next coarser level
        self.coarse_lu = None             # set on the coarsest level


def _jacobi(level, x, b, sweeps):
    for _ in range(sweeps):
        x = x + SMOOTHER_DAMPING * (b - level.S @ x) / level.diag
    return x


def vcycle(levels, r, level):
    """One V(2,2) cycle for the system levels[level].S x = r.

    Damped Jacobi (omega = 2/3) smoothing, residual restriction by the
    transpose of the interpolation, exact solve on the coarsest level.
    """
    lev = levels[level]
    if level == 0:
        return lev.coarse_lu.solve(r)
    x = _jacobi(lev, np.zeros_like(r), r, PRE_SWEEPS)
    resid = r - lev.S @ x
    coarse = vcycle(levels, lev.prolongation.T @ resid, level - 1)
    x = x + lev.prolongation @ coarse
    return _jacobi(lev, x, r, POST_SWEEPS)


class ExactSubsolver:
    """Sparse direct solver for one diagonal block M + h_t^mu p F."""

    def __init__(self, S):
        self.lu = spla.splu(S.tocsc())

    def solve(self, r):
        return self.lu.solve(r)


class VCycleSubsolver:
    """Single geometric V-cycle on re-assembled coarse operators."""

    def __init__(self, levels):
        self.levels = levels

    def solve(self, r):
        return vcycle(self.levels, r, len(self.levels) - 1)


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
    subsolve="vcycle" builds a geometric multigrid hierarchy per distinct
    diagonal entry, with the coarse-level matrices re-assembled on each
    coarser mesh of `hierarchy` (required, together with coeff, in that
    mode) and M, F themselves on the finest level.
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
        if hierarchy is None or coeff is None:
            raise ValueError("vcycle subsolves need hierarchy and coeff")
        if hierarchy.finest.num_nodes != M.shape[0]:
            raise ValueError("hierarchy finest mesh does not match M")
        level_mf = [(assemble_mass(m), assemble_stiffness(m, coeff))
                    for m in hierarchy.levels[:-1]] + [(M, F)]

        def make(p):
            levels = []
            for li, (Ml, Fl) in enumerate(level_mf):
                prol = hierarchy.prolongations[li - 1] if li > 0 else None
                levels.append(GridLevel(Ml + scale * p * Fl, prol))
            levels[0].coarse_lu = spla.splu(levels[0].S.tocsc())
            return VCycleSubsolver(levels)
    else:
        raise ValueError(f"unknown subsolve mode {subsolve!r}")

    cache = {p: make(p) for p in dict.fromkeys(diag)}
    subsolvers = [cache[p] for p in diag]
    return BlockPreconditioner(kind, P, M, F, h_t, mu, subsolvers)
