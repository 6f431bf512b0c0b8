"""Matrix-free stage operator I (x) M + h_t^mu C (x) F over stage vectors,
and its stage-wise solve.

The coupling matrix C is the Butcher matrix A of the timestepper for
the system operator, or a triangular preconditioner matrix P: a block
preconditioner is the StageOperator of its P (from
precond.build_preconditioner), applied by solve, alias apply_inverse.
Stage vectors are stored stage-major: x[i*N:(i+1)*N] is the i-th stage
block, and apply() works on that layout as it is, the C-ordered s x N
view of x with one row per stage: it forms F x_i and M x_i row by row
with spmv() and adds h_t^mu C (F X), so it copies and transposes
nothing. apply() returns a fresh array on each call.

M and F are kept in the storage they come in when it is diagonal (DIA):
the assembled grid matrices, a scipy dia_matrix on the 7 stencil
diagonals, ascending (mesh.stencil_offsets). Their products need no index
arrays (0.64-0.68x the time of the CSR product at k = 4 and 6, 0.85x at
k = 7; one BLAS thread, 2-core x86_64 host) and they take 56 bytes a node
against 88 in CSR. Any other matrix is stored once as CSR. Each block
M + c F is scipy's sum: for two DIA matrices on the same offsets it is
the DIA matrix of M.data + c F.data on those offsets, so the blocks stay
on the stencil diagonals.

The hot kernels (apply, the substitution's F z_j, precond's V-cycle) are
kept bit for bit equal to their plain `@` forms: every product and sum is
the same operation in the same order. Rewriting them for speed must not
reorder a sum, fuse operations or precompute quotients (such as omega/d
in the V-cycle), since that moves the last digits of every row the CLI
reports.

The solve substitutes over stages: forward for a lower triangular C,
backward for an upper one, else in the real Schur basis of C. Each
diagonal block M + c F of the substitution, c = h_t^mu a for a diagonal
value a (complex for a 2 x 2 Schur block), is solved by
block_solver(M, F, c), called once per distinct a by factorize() (or
the first solve); subsolvers lists them. The default block solver,
lu_block, is its exact LU; a block preconditioner may pass an
approximate one (precond's V-cycle).

Every LU of a block M + c F (c real or complex) is a BlockLU made by
factor(), in a symmetric ordering with SuperLU's symmetric mode, which
prefers diagonal pivots: M and F share one symmetric pattern, and the
Hermitian part of M + c F is positive definite for Re c >= 0, so the
diagonal is a sound pivot sequence and a symmetric ordering fills less
than COLAMD. Partial pivoting stays on. The block is converted to CSR
once, for SuperLU alone, which factors its transpose, whose CSC arrays
are the block's CSR arrays (no copy), and every solve is the transposed
solve on those factors: a solve with the block itself. That kernel
solves one vector in 0.72-0.80x the time of the plain one at k = 4, 5,
with equal fill and residuals, but a block column by column, 1.2-1.5x
slower on 64-256 columns (one BLAS thread, 2-core x86_64 host). The
ordering is chosen from the block:

- A block of a mesh, N = mesh.nodes_at_level(k) >= ND_MIN_NODES (k >= 6)
  in diagonal storage on the mesh's 7 stencil diagonals, takes the grid's
  nested-dissection order (mesh.nested_dissection; George 1973), applied
  before SuperLU, which keeps it (NATURAL). Against minimum degree its
  fill measured -3%, -10% and -20% at k = 6, 7, 8, and its factor time
  0.84-0.94x, 0.68-0.71x and 0.50-0.57x (real and complex c).
- Every other block (fill +8% and +2% under nested dissection at k = 4,
  5), the V-cycle's coarsest level and any block in another storage
  (CSR, or DIA on other diagonals), takes SuperLU's minimum-degree
  ordering of the pattern of S^T + S.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import schur
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs, dia_matvec, dia_matvecs
from scipy.sparse.linalg import splu

from .assembly import Forcing, assemble_loads, assemble_stiffness
from .butcher import ButcherTableau
from .errors import FactorizationError, ResourceLimitError
from .mesh import grid_side, nested_dissection

# max s*N for materialize(), so for every dense route. The dense kappa
# route (analysis.condition_number: P_h^-1 A_h, then its Gram matrix)
# holds one (s N)^2 float64 buffer at a time, 3.2 GB at the guard, plus
# O(s N width) temporaries. spectrum and fov hold more buffers, so the
# CLI gives them lower limits of their own (cli.DENSE_LIMIT).
DENSE_GUARD = 20000

ND_MIN_NODES = 10_000  # factor() orders by nested dissection from here (k >= 6)


def spmv(A, x, out):
    """out = A @ x for a DIA or CSR matrix A and a vector or (n, m) block
    x, written into `out` (C-contiguous, of the dtype of A @ x); returns
    out.

    A DIA matrix (the grid matrices: M, F, M + c F and the Galerkin
    levels) is summed row by row in the order of its offsets, which for
    ascending offsets is CSR's column order, so for finite x the values
    are bit for bit those of A @ x and of the CSR product. DIA also adds
    0 x_q for each padded or explicit-zero entry, which leaves a finite
    sum unchanged (a sum started from +0 is never -0), but a non-finite
    x_q gives NaN where CSR skips the entry. A CSR matrix (the V-cycle's
    transfers R and R^T of precond.galerkin_levels, foreign matrices)
    goes through the CSR kernel; any other format is refused."""
    # A @ x ends in these same kernels (started from zeros, as here), but
    # first dispatches on the operand types and allocates its result; at
    # the sizes of the V-cycle's levels that overhead costs about as much
    # as the arithmetic. The kernels check no lengths, so they are
    # checked here.
    n_row, n_col = A.shape
    if (A.format not in ("csr", "dia") or x.ndim not in (1, 2) or x.shape[0] != n_col
            or out.shape != (n_row, *x.shape[1:]) or not out.flags.c_contiguous
            or out.dtype != np.promote_types(A.dtype, x.dtype)):
        raise ValueError(f"spmv: cannot write a {A.format} {A.shape} {A.dtype} "
                         f"times {x.shape} {x.dtype} into {out.shape} {out.dtype}")
    out.fill(0)
    if A.format == "dia":
        if x.ndim == 1:
            dia_matvec(n_row, n_col, *A.data.shape, A.offsets, A.data, x, out)
        else:
            dia_matvecs(n_row, n_col, *A.data.shape, A.offsets, A.data, x.shape[1], x, out)
    elif x.ndim == 1:
        csr_matvec(n_row, n_col, A.indptr, A.indices, A.data, x, out)
    else:
        csr_matvecs(n_row, n_col, x.shape[1], A.indptr, A.indices, A.data, x, out)
    return out


def factor(S):
    """Sparse LU of a block M + c F (a BlockLU): in nested-dissection
    order when S is a block of a mesh of at least ND_MIN_NODES nodes in
    diagonal storage on exactly its stencil diagonals (mesh.grid_side;
    a nonzero on those diagonals that joins no stencil neighbours, a row
    wrap, would only cost fill), else in minimum-degree order; see the
    module docstring."""
    n = grid_side(S) if S.shape[0] >= ND_MIN_NODES else None
    return BlockLU(S, None if n is None else nested_dissection(n))


class BlockLU:
    """SuperLU factors of A^T, A = S[order][:, order] in NATURAL column
    order, or A = S in minimum-degree order when order is None; solve(b)
    solves with S, nnz is the stored L + U nonzeros."""

    def __init__(self, S, order=None):
        self.order = order
        A = S.tocsr() if order is None else S.tocsr()[order][:, order]
        self.lu = splu(A.T, permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
                       options={"SymmetricMode": True})
        self.nnz = self.lu.nnz

    def solve(self, b):
        """S^-1 b for b of shape (N,) or (N, m), column by column."""
        if self.order is None:
            return self.lu.solve(np.asarray(b), trans="T")
        y = self.lu.solve(np.asarray(b)[self.order], trans="T")
        x = np.empty_like(y)
        x[self.order] = y
        return x


def _real(x):
    """x as a float64 array; TypeError for complex x, which the real
    operator would otherwise apply or solve as Re(x) (numpy's cast drops
    the imaginary part with only a ComplexWarning)."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError(f"a real stage operator (float64) cannot take a {x.dtype} "
                        f"stage vector: apply or solve its real and imaginary parts")
    return np.asarray(x, dtype=float)


def lu_block(M, F, c):
    """The default block solver: the exact LU of M + c F."""
    return factor(M + c * F)


class StageOperator:
    """Applies y_i = M x_i + h_t^mu sum_j c_ij F x_j without assembling
    the full s N x s N matrix, and solves with it by substitution over the
    stages, each diagonal block by block_solver(M, F, c) (default lu_block,
    an exact solve).

    The counters n_mass_matvecs / n_stiffness_matvecs track work done by
    apply() and apply_transpose(); each call adds s to both (the s
    stiffness products are computed once and reused across stages).
    """

    def __init__(self, coupling, M, F, h_t, mu, block_solver=None):
        if isinstance(coupling, ButcherTableau):
            coupling = coupling.A
        coupling = np.asarray(coupling, dtype=float)
        if coupling.ndim != 2 or coupling.shape[0] != coupling.shape[1]:
            raise ValueError("coupling must be a square matrix or tableau")
        if not 0 < h_t < np.inf:  # also refuses nan
            raise ValueError("h_t must be positive and finite")
        if mu not in (1, 2):
            raise ValueError("mu must be 1 or 2")
        if M.shape != F.shape or M.shape[0] != M.shape[1]:
            raise ValueError("M and F must be square with equal shapes")
        self.coupling = coupling
        # the grid matrices stay on their diagonals; any other format is
        # stored once as CSR
        self.M, self.F = (A if A.format == "dia" else A.tocsr() for A in (M, F))
        self.h_t = float(h_t)
        self.mu = int(mu)
        self.s = coupling.shape[0]
        self.N = M.shape[0]
        self.n_mass_matvecs = 0
        self.n_stiffness_matvecs = 0
        # module-level default: a closure over self would keep the LUs
        # alive in a reference cycle until the cyclic GC runs
        self.block_solver = lu_block if block_solver is None else block_solver
        self._factors = None  # built by factorize() or the first solve

    @property
    def size(self):
        return self.s * self.N

    @property
    def subsolvers(self):
        """The solver of each diagonal block of the substitution (one per
        stage for a triangular coupling), one object per distinct
        diagonal value; empty before the operator is factored."""
        return [] if self._factors is None else [solver for *_, solver in self._factors[3]]

    @property
    def factor_nnz(self):
        """Stored L + U nonzeros of the distinct block solvers behind
        solve() (SuperLU's count, no copy of the factors); 0 before the
        operator is factored."""
        return sum(solver.nnz for solver in {id(s): s for s in self.subsolvers}.values())

    def factorize(self):
        """Build the block solvers now, as the first solve does otherwise;
        returns the operator."""
        if self._factors is None:
            self._factors = self._factor()
        return self

    def reset_counters(self):
        self.n_mass_matvecs = 0
        self.n_stiffness_matvecs = 0

    def _blocks(self, x):
        """The stage vector x as an s x N array, one row per stage block."""
        x = _real(x)
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
        X = self._blocks(x)
        FX = np.empty(X.shape)                    # s stiffness matvecs, reused
        Y = np.empty(X.shape)
        for i in range(self.s):
            spmv(self.F, X[i], FX[i])
            spmv(self.M, X[i], Y[i])
        Y += (self.h_t ** self.mu) * (C @ FX)
        self.n_mass_matvecs += self.s
        self.n_stiffness_matvecs += self.s
        return Y.ravel()

    def solve(self, r):
        """Exact solve with the operator, of one stage vector or of the
        columns of an (s N, m) block; factors on the first call."""
        return self._solve(r, transpose=False)

    # the name krylov.gmres applies a preconditioner by; an instance may
    # rebind it (to trace the applies) without touching solve
    apply_inverse = solve

    def solve_transpose(self, r):
        """Exact solve with the transposed operator, on the same factors."""
        return self._solve(r, transpose=True)

    def _solve(self, r, transpose):
        """Forward (lower) or backward substitution over the stages of the
        quasi-triangular T, one solver per diagonal block of T, in the
        basis Q; each F z_j is formed at most once. r is a stage vector
        of length s N or an (s N, m) block of them, solved column-wise."""
        Q, T, lower, blocks = self.factorize()._factors
        if transpose:
            T, lower = T.T, not lower
        r = _real(r)
        if r.ndim not in (1, 2) or r.shape[0] != self.size:
            raise ValueError(f"expected {self.size} rows of stage vectors, got {r.shape}")
        R = r.reshape(self.s, self.N, *r.shape[1:])
        if Q is not None:
            R = np.tensordot(Q.T, R, axes=1)
        scale = self.h_t ** self.mu
        Z = np.empty_like(R)
        FZ = [None] * self.s
        product = np.empty(Z.shape[1:])         # one T_ij F z_j term at a time
        for lo, hi, solver in (blocks if lower else blocks[::-1]):
            acc = Z[lo:hi]                      # the right-hand side, then z
            acc[...] = R[lo:hi]
            for j in (range(lo) if lower else range(hi, self.s)):
                for i in range(lo, hi):
                    if T[i, j] != 0.0:
                        if FZ[j] is None:
                            FZ[j] = spmv(self.F, Z[j], np.empty(Z.shape[1:]))
                        acc[i - lo] -= np.multiply(scale * T[i, j], FZ[j], out=product)
            if hi - lo == 1:
                Z[lo] = solver.solve(acc[0])
            else:
                # [[a, b], [c, a]], bc < 0: solver is the LU of M + scale (a + i w) F,
                # w = sqrt(-bc); z = LU^-1 (r1 + i k r2), k = -b/w, gives Re z, Im z / k
                b = T[lo, lo + 1]
                kappa = -b / np.sqrt(-b * T[lo + 1, lo])
                z = solver.solve(acc[0] + 1j * kappa * acc[1])
                Z[lo], Z[lo + 1] = z.real, z.imag / kappa
        if Q is not None:
            Z = np.tensordot(Q, Z, axes=1)
        return Z.reshape(r.shape)

    def _factor(self):
        """(Q, T, lower, blocks) for _solve(): C = Q T Q^T in real Schur form,
        or Q = None and T = C for a triangular C; one block solver per
        distinct diagonal block."""
        C = self.coupling
        lower = np.array_equal(C, np.tril(C))
        Q, T = None, C
        if not (lower or np.array_equal(C, np.triu(C))):
            T, Q = schur(C, output="real")
        edges = [i for i in range(self.s)
                 if Q is None or i == 0 or T[i, i - 1] == 0.0] + [self.s]
        solvers, blocks = {}, []
        for lo, hi in zip(edges, edges[1:]):
            a = T[lo, lo]
            if hi - lo == 2:
                bc = T[lo, lo + 1] * T[lo + 1, lo]
                if T[lo + 1, lo + 1] != a or bc >= 0.0:
                    raise FactorizationError(lo, f"Schur block at {lo} is not standardized")
                a = a + 1j * np.sqrt(-bc)
            if a not in solvers:
                solvers[a] = self.block_solver(self.M, self.F, self.h_t ** self.mu * a)
            blocks.append((lo, hi, solvers[a]))
        return Q, T, lower, blocks

    def materialize(self):
        """Explicit dense I (x) M + h_t^mu C (x) F for spectral analysis.

        The Kronecker sum is formed sparse and made dense once, so the
        route allocates one (s N)^2 float64 buffer plus O(s^2 nnz(F))
        sparse temporaries. Every entry is the float sum of the dense
        form np.kron(I, M) + h_t^mu np.kron(C, F): c f, then h_t^mu (c f),
        then m + that."""
        n = self.size
        if n > DENSE_GUARD:
            raise ResourceLimitError(
                f"s*N = {n} exceeds dense guard {DENSE_GUARD}: the dense "
                f"matrix would take {n * n * 8} bytes ({n * n * 8 / 2**30:.1f} GiB)")
        return (sp.kron(sp.identity(self.s), self.M)
                + self.h_t ** self.mu * sp.kron(self.coupling, self.F)).toarray()


def build_stage_rhs(mesh, coeff, tableau, h_t, mu, t_prev, u_prev,
                    udot_prev=None, g=None, F=None, loads=None):
    """Stage right-hand side blocks for one step starting at t_prev: the
    one path by which `gmres` and the march (driver._step) form them.

    Block i is <g(., t_i), phi> - F (u_prev + (mu-1) h_t c_i udot_prev),
    t_i = t_prev + c_i h_t: the weak form of the stage equations with the
    previous solution moved to the right under the operator K (the data
    enters through -K, not additively).

    For an assembly.Forcing g (driver.mms_problem's is one), the stage
    loads are sum_m a_m(t_i) L_m, one product of the s x m amplitudes
    with its mode loads L_m = <p_m, phi>: `loads` when given (a march
    assembles them once), else one assemble_loads pass. Any other
    callable g(x, y, t) is taken as s modes of its own, its slices
    g(., ., t_i), each load used as it is.

    The load pass is the cost, one whatever s is (the assembly module
    docstring gives it at k=6; it grows 4x per level); the combination
    and the F products are O(s N).
    """
    if mu == 2 and udot_prev is None:
        raise ValueError("udot_prev is required when mu = 2")
    if F is None:
        F = assemble_stiffness(mesh, coeff)
    times = t_prev + tableau.c * h_t
    if isinstance(g, Forcing):
        if loads is None:
            loads = assemble_loads(mesh, g.profiles)
        scales = np.array([[a(t) for a in g.amplitudes] for t in times])
        stage_loads = scales @ loads
    else:
        stage_loads = assemble_loads(mesh, lambda x, y: (g(x, y, t) for t in times))
    W = np.asarray(u_prev, dtype=float)[None, :]
    if mu == 2:
        W = W + np.outer(h_t * tableau.c, np.asarray(udot_prev, dtype=float))
    return (stage_loads - (F @ W.T).T).ravel()
