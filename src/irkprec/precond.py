"""Block preconditioners I (x) M + h_t^mu P (x) F of a triangular P:
build_preconditioner returns the stage operator of P (StageOperator),
factored, whose solve (alias apply_inverse) substitutes forward or
backward over the stages. Its block solver decides how each distinct
diagonal block M + h_t^mu p_ii F is solved: the exact LU by default, or
one V-cycle on the Galerkin coarsenings R^T X R of M and F, R the P1
prolongations between the nested grids below M's (galerkin_levels reads
the depth from M's grid side alone).

Every level is stored on its grid's 7 stencil diagonals (DIA storage,
as the assembled M and F): M and F go onto them once (on_stencil), and
each coarse level is formed from the next finer one's diagonal data by
strided in-place adds on grid views, in the order in which scipy's CSR
products R.T @ X @ R sum (mesh.GALERKIN_LEFT_TERMS and
GALERKIN_RIGHT_TERMS), so it is bit for bit that product. Every level's
M_l + c F_l is then the sum of two data arrays on shared offsets (the
bytes of scipy's DIA sum), and its sweeps and residuals are DIA
products. The transfers stay CSR: each R^T by index arithmetic
(mesh.p1_restriction) and R as its transpose, built with the levels.

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
import scipy.sparse as sp

from .assembly import on_stencil
from .butcher import PreconditionerKind, butcher_preconditioner_matrix
from .errors import SubsolveError
from .mesh import (GALERKIN_LEFT_TERMS, GALERKIN_OFFSETS, GALERKIN_RIGHT_TERMS, grid_side,
                   p1_restriction, stencil_offsets)
from .stageop import StageOperator, factor, spmv

SMOOTHER_DAMPING = 2.0 / 3.0
PRE_SWEEPS = 2
POST_SWEEPS = 2


def galerkin_levels(M, F):
    """[(M_l, F_l, R_l, Rt_l)] from the coarsest level, the 25-node grid
    (k = 1), to the finest: M and F on the finest level, put onto their
    grid's stencil diagonals (on_stencil), and below each level its
    Galerkin coarsening R^T X R, formed from that level's DIA data
    (_coarsen). R_l is the P1 prolongation from level l - 1 to level l
    and Rt_l its transpose (mesh.p1_restriction), both CSR, and both None
    on the coarsest level. Raises ValueError when M or F is no matrix of
    one (n+1)^2 grid's stencil or n is not 2^(k+1), k >= 1."""
    M, F = (on_stencil(X) for X in (M, F))
    n = grid_side(M)
    if n is None or grid_side(F) != n:
        raise ValueError("M and F must be matrices of one grid with no entry off its stencil")
    if n < 4 or n & (n - 1):
        raise ValueError(f"a grid of side {n} does not halve down to the 25-node grid")
    levels = []
    fine = [X.data.reshape(1, -1, n + 1, n + 1) for X in (M, F)]
    while n > 4:
        data = _coarsen(fine, n)
        Rt = p1_restriction(n // 2)
        levels.append((M, F, Rt.T.tocsr(), Rt))
        n //= 2
        offsets = stencil_offsets(n)
        M, F = (sp.dia_matrix((X, offsets), shape=(X.shape[1],) * 2) for X in data)
        fine = [data.reshape(2, -1, n + 1, n + 1)]
    levels.append((M, F, None, None))
    return levels[::-1]


def _coarsen(fine, n):
    """The (2, 7, (n/2+1)^2) DIA data of R^T M R and R^T F R from the data
    of M and F on the (n+1)^2 grid, `fine` one (m, 7, n+1, n+1) view of
    the m = 2 stacked or two of m = 1 each (the finest level, which is
    not copied to stack it). Each sum runs in scipy's order for the CSR
    product (mesh.GALERKIN_LEFT_TERMS and GALERKIN_RIGHT_TERMS), from
    +0.0, over the terms that reach the grid: a missing term is an
    explicit zero of scipy's, whose add leaves any sum's bits as they
    are. So every coarse entry is bit for bit R.T @ X @ R."""
    nc, dtype = n // 2, np.result_type(*fine, np.float64)  # R's dtype
    T = np.zeros((2, len(GALERKIN_OFFSETS), nc + 1, nc + 1), dtype)
    coarse = np.zeros((2, 7, nc + 1, nc + 1), dtype)
    scaled = np.empty((2, nc + 1, nc + 1), dtype)
    # along one axis, the coarse indices i with 2i + v on the fine grid,
    # and those fine indices; the coarse j with j - v on the coarse grid,
    # and those j - v
    stride2 = {v: (slice(int(v < 0), nc + 1 - int(v > 0)),
                   slice(2 * int(v < 0) + v, 2 * (nc - int(v > 0)) + 1 + v, 2))
               for v in range(-2, 3)}
    shift = {v: (slice(max(v, 0), nc + 1 + min(v, 0)), slice(max(-v, 0), nc + 1 + min(-v, 0)))
             for v in range(-1, 2)}
    for X, part in zip(fine, (T[:1], T[1:]) if len(fine) == 2 else (T,), strict=True):
        for e, ex, ey, d, w in GALERKIN_LEFT_TERMS:
            (cy, fy), (cx, fx) = stride2[ey], stride2[ex]
            _add_scaled(part[:, e, cy, cx], w, X[:, d, fy, fx], scaled)
    for d, dx, dy, e, w in GALERKIN_RIGHT_TERMS:
        (cy, ty), (cx, tx) = shift[dy], shift[dx]
        _add_scaled(coarse[:, d, cy, cx], w, T[:, e, ty, tx], scaled)
    return coarse.reshape(2, 7, -1)


def _add_scaled(out, w, x, scratch):
    """out += w x in place, as scipy's product adds the term w x (x
    itself for w = 1); w x is formed in the head of scratch."""
    if w != 1.0:
        x = np.multiply(w, x, out=scratch[:x.shape[0], :x.shape[1], :x.shape[2]])
    out += x


class VCycleSubsolver:
    """One geometric V(2,2) cycle for M + c F on the Galerkin levels
    (M_l, F_l, R_l, Rt_l) of galerkin_levels, coarse to fine; each level
    matrix is M_l + c F_l, and d is its diagonal.

    Damped Jacobi (omega = 2/3) smoothing, residual restriction by the
    stored transpose of the interpolation (the levels' transfers, shared
    by every subsolver built from the same levels), exact LU solve on the
    coarsest level (nnz is that LU's fill). Each M_l + c F_l is the sum of
    the two levels' data on their shared offsets, the bytes of scipy's
    DIA sum without its two calls and their checks.
    """

    def __init__(self, levels, c):
        self.S = [sp.dia_matrix((Ml.data + c * Fl.data, Ml.offsets), shape=Ml.shape)
                  for Ml, Fl, *_ in levels]
        self.diag = [S.diagonal() for S in self.S]
        if any(np.any(d == 0.0) for d in self.diag):
            raise SubsolveError("zero diagonal entry in multigrid level matrix")
        self.prolongations = [R for _, _, R, _ in levels[1:]]  # [l]: level l -> l + 1
        self.restrictions = [Rt for *_, Rt in levels[1:]]      # [l]: prolongations[l].T
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


def build_preconditioner(tableau, kind, M, F, h_t, mu, subsolve="exact",
                         hierarchy=None, coeff=None):
    """One of the five block preconditioners P_h = I (x) M + h_t^mu P (x) F
    of the stage system: the StageOperator of P, factored on construction
    (so its build time includes the LUs or V-cycle set-ups), which differs
    from the system operator only in its coupling and block solver.

    subsolve="exact" factorizes each distinct diagonal block
    M + h_t^mu p_ii F; subsolve="vcycle" gives each one a V-cycle
    subsolver on the Galerkin levels of M and F and their transfers
    (galerkin_levels), computed once per call and shared by the
    subsolvers. For it, M and F must be matrices of one grid of side
    2^(k+1), k >= 1, with no entry off its stencil (ValueError).
    `hierarchy` and `coeff` are unused; they are accepted so that callers
    passing them keep working.
    """
    kind = PreconditionerKind(kind)
    P = butcher_preconditioner_matrix(tableau, kind)
    if np.any(np.diag(P) == 0.0):
        raise SubsolveError(f"preconditioner {kind.value} has a zero diagonal entry")
    if subsolve == "exact":
        return StageOperator(P, M, F, h_t, mu).factorize()
    if subsolve != "vcycle":
        raise ValueError(f"unknown subsolve mode {subsolve!r}")
    levels = galerkin_levels(M, F)

    def vcycle(M, F, c):
        return VCycleSubsolver(levels, c)

    return StageOperator(P, M, F, h_t, mu, vcycle).factorize()
