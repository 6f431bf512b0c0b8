"""Spectral diagnostics of (preconditioned) stage operators: 2-norm
condition numbers, eigenvalue spectra, and field-of-values boundaries.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .stageop import StageOperator

FOV_EIGH_CUTOFF = 600  # full eigh below, Lanczos above


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    kappa: float
    label: str = ""


@dataclass
class FovResult:
    boundary_points: np.ndarray   # complex, ordered by angle
    min_distance_to_origin: float


def _prec_matrix(prec):
    """Accept a BlockPreconditioner or a plain s x s matrix."""
    if prec is None:
        return None
    P = getattr(prec, "P", prec)
    return np.asarray(P, dtype=float)


def preconditioned_dense(op, prec):
    """Dense A_h, or dense(P_h)^-1 dense(A_h) when prec is given; both
    are subject to the dense-materialization guard."""
    A = op.materialize()
    P = _prec_matrix(prec)
    if P is None:
        return A
    Ph = StageOperator(P, op.M, op.F, op.h_t, op.mu).materialize()
    return np.linalg.solve(Ph, A)


def condition_number(op, prec=None):
    """kappa_2 via singular values of the materialized matrix, or of
    dense(P_h)^-1 dense(A_h) with exact dense inversion when prec is given.
    Subject to the dense-materialization guard."""
    sv = scipy.linalg.svdvals(preconditioned_dense(op, prec))
    return sv[0] / sv[-1]


def _sigma_max(matvec, rmatvec, n, tol, seed):
    v0 = np.random.default_rng(seed).standard_normal(n)
    lin = spla.LinearOperator((n, n), matvec=lambda x: matvec(x.ravel()),
                              rmatvec=lambda x: rmatvec(x.ravel()))
    try:
        s = spla.svds(lin, k=1, which="LM", tol=tol, v0=v0,
                      return_singular_vectors=False, maxiter=5000)
    except spla.ArpackNoConvergence as exc:
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            return float(np.sqrt(np.abs(exc.eigenvalues).max()))
        raise
    return float(s[0])


def condition_number_iterative(op, prec=None, tol=1e-8, seed=0):
    """kappa_2 of P_h^-1 A_h (A_h without prec) from sigma_max by Lanczos
    and sigma_min as 1/sigma_max of the inverse, A_h^-1 P_h, applied with
    StageOperator.apply/solve and their transposes. Matches the dense
    route to solver tolerance and has no dense-size guard."""
    n = op.size
    P = _prec_matrix(prec)
    if P is None:
        ident = lambda x: x
        p_apply = p_apply_t = p_solve = p_solve_t = ident
    else:
        Ph = StageOperator(P, op.M, op.F, op.h_t, op.mu)
        p_apply, p_apply_t = Ph.apply, Ph.apply_transpose
        p_solve, p_solve_t = Ph.solve, Ph.solve_transpose
    smax = _sigma_max(lambda x: p_solve(op.apply(x)),
                      lambda x: op.apply_transpose(p_solve_t(x)), n, tol, seed)
    smin_inv = _sigma_max(lambda x: op.solve(p_apply(x)),
                          lambda x: p_apply_t(op.solve_transpose(x)), n, tol, seed)
    return smax * smin_inv


def spectrum(op, prec=None, label=""):
    """Full eigenvalue set of the (preconditioned) dense matrix."""
    B = preconditioned_dense(op, prec)
    ev = np.linalg.eigvals(B)
    sv = scipy.linalg.svdvals(B)
    return SpectrumResult(eigenvalues=ev, kappa=sv[0] / sv[-1], label=label)


def _top_eigvec(H, v0=None):
    """Top eigenvector of a Hermitian matrix, warm-startable.

    Rayleigh quotients are second-order accurate in the eigenvector error,
    so a loose LOBPCG tolerance is plenty for boundary points."""
    n = H.shape[0]
    rng = np.random.default_rng(12345)
    X = np.empty((n, 2), dtype=complex)
    X[:, 0] = rng.standard_normal(n) if v0 is None else v0
    X[:, 1] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    try:
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w, V = spla.lobpcg(H, X, largest=True, tol=1e-4 * np.abs(H).max(),
                               maxiter=25)
        order = np.argsort(w)
        return V[:, order[-1]]
    except Exception:
        _, V = spla.eigsh(H, k=1, which="LA", tol=1e-5, ncv=min(n, 40),
                          maxiter=300)
        return V[:, 0]


def field_of_values(matrix, n_angles=128):
    """Boundary of the numerical range {v* B v : ||v|| = 1}.

    For each angle, the top eigenvector of the Hermitian part of
    e^(i theta) B gives a supporting point of the convex boundary.
    """
    if n_angles < 8:
        raise ValueError("n_angles must be >= 8")
    B = np.asarray(matrix)
    n = B.shape[0]
    if n == 1:
        z = complex(B[0, 0])
        return FovResult(boundary_points=np.array([z] * n_angles),
                         min_distance_to_origin=abs(z))
    points = np.empty(n_angles, dtype=complex)
    v0 = None
    for k in range(n_angles):
        theta = 2.0 * np.pi * k / n_angles
        R = np.exp(1j * theta) * B
        H = 0.5 * (R + R.conj().T)
        if n <= FOV_EIGH_CUTOFF:
            w, V = np.linalg.eigh(H)
            v = V[:, -1]
        else:
            v = _top_eigvec(H, v0)
            v0 = v  # adjacent angles have nearby top eigenvectors
        points[k] = v.conj() @ (B @ v)
    return FovResult(boundary_points=points,
                     min_distance_to_origin=float(np.abs(points).min()))


def butcher_kappa(P, A):
    """kappa_2(P^-1 A) of the small s x s matrices."""
    P = np.asarray(P, dtype=float)
    A = np.asarray(A, dtype=float)
    sv = scipy.linalg.svdvals(np.linalg.solve(P, A))
    return sv[0] / sv[-1]
