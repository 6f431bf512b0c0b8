"""Spectral diagnostics of (preconditioned) stage operators: 2-norm
condition numbers, eigenvalue spectra, and field-of-values boundaries.

Each route applies the P_h it is given, a StageOperator (as
precond.build_preconditioner returns, factored once for every call) or
None for none; it builds no P_h of its own.

The dense route forms A_h by StageOperator.materialize and B = P_h^-1 A_h
by P_h's solve on column blocks of A_h, each written back over A_h; P_h
itself is never materialized.
condition_number then overwrites B with the Gram matrix G = B B^T, one
block of rows at a time, and takes kappa = sqrt(lambda_max / lambda_min)
from LAPACK's symmetric eigensolver, in place on the same buffer: one
tridiagonal reduction (4/3 n^3 flops, after n^3 for G in matrix-matrix
products) where the singular values of B need a bidiagonal one (8/3 n^3,
half of it memory-bound matrix-vector products). Squaring costs
accuracy: kappa comes out to about eps kappa^2 / 2, relative (measured
up to eps kappa^2). Where that would pass the iterative route's 1e-8
(Gram kappa above GRAM_KAPPA_MAX), or lambda_min <= 0, B is formed again
and kappa is sigma_max / sigma_min from its singular values. G is formed
from B, not as P_h^-1 (A_h A_h^T) P_h^-T from the sparse A_h: that form
carries the rounding of A_h A_h^T, relative to ||A_h||^2 ||P_h^-1||^2,
and so moved kappa by up to 3.5e-7 on wave rows with kappa = 60 but
kappa(A_h) = 2.7e5.

Memory: condition_number holds one (s N)^2 float64 buffer at a time
plus O(s N width) temporaries (width = DENSE_SOLVE_WIDTH = 64; 32-256
took the same time): LD's P_h solve held 2.7 MiB (2.5 s N x 64 blocks)
above the 36.2 MiB buffer at s N = 2178 (tracemalloc), 10.6 MiB with
256 columns. spectrum needs a second buffer: np.linalg.eigvals copies.

The iterative route (condition_number_iterative) takes sigma_max of
X = P_h^-1 A_h and of X^-1 = A_h^-1 P_h by Lanczos on the Gram operator
X^T X, applied with A_h's and P_h's apply/solve and their transposes. The
ARPACK residual test bounds the error of sigma^2 by tol sigma^2, so each
sigma is accurate to tol/2 and kappa to about tol, relative.

field_of_values takes one top eigenpair per angle from LAPACK's zheevr,
in place on one complex n x n buffer (n = s N) reused across angles: a
reduction to tridiagonal form (about 16/3 n^3 flops), then MRRR for that
eigenpair alone. With 8 angles on one core of an Intel Xeon it took
0.53 s at n = 578, 1.7 s at n = 867 and 27 s at n = 2178. Memory: B,
that buffer (two (s N)^2 float64 buffers) and one real n x n temporary
while it is formed, 4.0 buffers in all (tracemalloc). The support values
are LAPACK's backward-stable eigenvalues: they matched np.linalg.eigvalsh
to 5e-13 relative on a wave LD matrix at n = 867, 128 angles.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

DENSE_SOLVE_WIDTH = 64  # columns per P_h solve, rows per Gram block; see Memory
# A Gram kappa above this is recomputed from the singular values: the
# Gram kappa's error, up to about eps kappa^2 (measured), would pass the
# iterative route's tol of 1e-8 here
GRAM_KAPPA_MAX = np.sqrt(1e-8 / np.finfo(float).eps)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    kappa: float


@dataclass
class FovResult:
    boundary_points: np.ndarray   # complex, ordered by angle
    min_distance_to_origin: float


def preconditioned_dense(op, prec):
    """Dense A_h, or P_h^-1 A_h when the StageOperator prec = P_h is
    given, in A_h's own buffer: P_h's solve (stage-wise substitution with
    its block solvers, which must take blocks of columns: exact LUs)
    runs on DENSE_SOLVE_WIDTH columns of A_h at a time, and each block of
    solutions is written back over its columns. P_h is never
    materialized; A_h is, under the dense guard. Memory: one (s N)^2
    float64 buffer plus the solve's O(s N width) temporaries. SuperLU
    solves each column of a block on its own, so the result does not
    depend on the width."""
    A = op.materialize()
    if prec is None:
        return A
    width = DENSE_SOLVE_WIDTH
    for lo in range(0, A.shape[1], width):
        A[:, lo:lo + width] = prec.solve(A[:, lo:lo + width])
    return A


def _svdvals(B):
    """Singular values of B, descending. B is overwritten: LAPACK works in
    place on B.T, the Fortran-ordered view of a C-ordered B, and its
    singular values are B's."""
    return scipy.linalg.svdvals(B.T, overwrite_a=True, check_finite=False)


def _gram_in_place(B):
    """The lower triangle of G = B B^T over B's own buffer (the rest of
    the buffer is left stale), one block of DENSE_SOLVE_WIDTH rows at a
    time, from the last block up: rows lo:hi of G need only rows :hi of
    B, which no earlier block has overwritten. One (width, n) temporary."""
    n, width = B.shape[0], DENSE_SOLVE_WIDTH
    T = np.empty((min(width, n), n))
    for lo in reversed(range(0, n, width)):
        hi = min(lo + width, n)
        B[lo:hi, :hi] = np.matmul(B[lo:hi], B[:hi].T, out=T[:hi - lo, :hi])
    return B


def condition_number(op, prec=None):
    """kappa_2 of B = preconditioned_dense(op, prec), subject to the dense
    guard, as sqrt(lambda_max / lambda_min) of the Gram matrix G = B B^T:
    _gram_in_place forms G over B's buffer, and LAPACK's symmetric
    eigensolver works in place on G.T, G's Fortran-ordered view. kappa is
    accurate to about eps kappa^2 / 2, relative (lambda_min carries an
    absolute error of about eps lambda_max). Above GRAM_KAPPA_MAX, or when
    lambda_min <= 0, B is formed again and kappa is sigma_max / sigma_min
    from its singular values. One (s N)^2 float64 buffer at a time, plus
    O(s N width) temporaries."""
    G = _gram_in_place(preconditioned_dense(op, prec))
    # lower=False reads the upper triangle of G.T, the lower one of G
    lam = scipy.linalg.eigh(G.T, lower=False, eigvals_only=True, overwrite_a=True,
                            check_finite=False, driver="evd")
    del G  # the fallback's B takes its place
    if lam[-1] <= GRAM_KAPPA_MAX ** 2 * lam[0]:  # also false for lambda_min <= 0
        return np.sqrt(lam[-1] / lam[0])
    sv = _svdvals(preconditioned_dense(op, prec))
    return sv[0] / sv[-1]


def _sigma_max(matvec, rmatvec, n, tol, seed):
    """Largest singular value of X as ||X v|| for the top eigenvector v of
    the Gram operator X^T X, found by Lanczos (ARPACK) to relative
    residual tol from a seeded start vector. A Lanczos run that does not
    converge raises ArpackNoConvergence: with k=1 it has no converged
    eigenvalue to fall back on."""
    v0 = np.random.default_rng(seed).standard_normal(n)
    gram = spla.LinearOperator((n, n), dtype=float,
                               matvec=lambda x: rmatvec(matvec(x.ravel())))
    _, V = spla.eigsh(gram, k=1, which="LA", tol=tol, v0=v0, maxiter=5000)
    v = V[:, 0]
    return float(np.linalg.norm(matvec(v)) / np.linalg.norm(v))


def condition_number_iterative(op, prec=None, tol=1e-8, seed=0):
    """kappa_2 of X = P_h^-1 A_h (A_h without prec) as sigma_max(X) times
    sigma_max(X^-1), X^-1 = A_h^-1 P_h, each by Lanczos on its Gram
    operator (see _sigma_max), applied with op's and prec's apply/solve
    and their transposes. tol is the relative accuracy of kappa: the Gram
    residual tol bounds each sigma's relative error by tol/2, so kappa
    matches the dense route to about tol. `seed` sets the start vector;
    there is no dense-size guard."""
    n = op.size
    if prec is None:
        ident = lambda x: x
        p_apply = p_apply_t = p_solve = p_solve_t = ident
    else:
        p_apply, p_apply_t = prec.apply, prec.apply_transpose
        p_solve, p_solve_t = prec.solve, prec.solve_transpose
    smax = _sigma_max(lambda x: p_solve(op.apply(x)),
                      lambda x: op.apply_transpose(p_solve_t(x)), n, tol, seed)
    smin_inv = _sigma_max(lambda x: op.solve(p_apply(x)),
                          lambda x: p_apply_t(op.solve_transpose(x)), n, tol, seed)
    return smax * smin_inv


def spectrum(op, prec=None):
    """Full eigenvalue set of the (preconditioned) dense matrix. Two
    (s N)^2 buffers: np.linalg.eigvals copies the matrix."""
    B = preconditioned_dense(op, prec)
    ev = np.linalg.eigvals(B)
    sv = _svdvals(B)  # after eigvals: overwrites B
    return SpectrumResult(eigenvalues=ev, kappa=sv[0] / sv[-1])


def field_of_values(matrix, n_angles=128):
    """Boundary of the numerical range W = {v* B v : ||v|| = 1} of a real
    or complex square B, by Johnson's support-function method.

    For each of n_angles equally spaced angles theta, H(theta), the
    Hermitian part of e^(i theta) B, is formed in one complex buffer
    reused across angles, and LAPACK's MRRR eigensolver (zheevr) works in
    place on it for its top eigenpair (lambda_max, v) alone. p = v* B v is
    the supporting point of the convex boundary at theta, and the support
    value Re(e^(i theta) p) = lambda_max. The distance from the origin to
    W is max(0, -min over theta of the support value): 0 when W contains
    the origin.
    """
    if n_angles < 8:
        raise ValueError("n_angles must be >= 8")
    B = np.asarray(matrix)
    n = B.shape[0]
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    points = np.empty(n_angles, dtype=complex)
    H = np.empty((n, n), dtype=complex)
    X, Y = H.real, H.imag
    for k, theta in enumerate(thetas):
        # H = conj(H(theta)) = H(theta)^T, so that H.T, H's Fortran-ordered
        # view, is H(theta) and LAPACK works on it in place. Each overlapping
        # operand is copied by numpy first: one real temporary at a time
        np.multiply(B, 0.5 * np.exp(1j * theta), out=H)
        X += X.T
        np.subtract(Y.T, Y, out=Y)
        _, V = scipy.linalg.eigh(H.T, overwrite_a=True, check_finite=False,
                                 subset_by_index=[n - 1, n - 1])
        v = V[:, 0]
        # B times v's real and imaginary parts: B @ v would copy a real B
        # to complex
        Bv = B @ np.column_stack((v.real, v.imag))
        points[k] = v.conj() @ (Bv[:, 0] + 1j * Bv[:, 1])
    support = (np.exp(1j * thetas) * points).real
    return FovResult(boundary_points=points,
                     min_distance_to_origin=max(0.0, float(-support.min())))


def butcher_kappa(P, A):
    """kappa_2(P^-1 A) of the small s x s matrices."""
    P = np.asarray(P, dtype=float)
    A = np.asarray(A, dtype=float)
    sv = scipy.linalg.svdvals(np.linalg.solve(P, A))
    return sv[0] / sv[-1]
