"""Left-preconditioned GMRES over stage vectors, without restart."""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError

DIRECT_GUARD = 600000  # max s*N for reference_solve
BREAKDOWN_TOL = 1e-14


@dataclass
class SolveReport:
    """Instrumentation of one GMRES run.

    rel_residual is the preconditioned relative residual recomputed from
    the returned iterate; true_rel_residual is the unpreconditioned one.
    residual_history holds the per-iteration preconditioned estimates.
    """

    iterations: int
    wall_time: float
    rel_residual: float
    true_rel_residual: float
    converged: bool
    breakdown: bool = False
    residual_history: list = field(default_factory=list)


def _as_apply(obj):
    if obj is None:
        return lambda v: v
    if callable(obj):
        return obj
    if hasattr(obj, "apply_inverse"):
        return obj.apply_inverse
    raise TypeError(f"cannot interpret {type(obj).__name__} as a preconditioner")


def gmres(op, prec, b, tol=1e-8, max_iter=500):
    """Full GMRES with modified Gram-Schmidt on the left-preconditioned
    system, zero initial guess.

    Convergence is declared when ||P^-1 (b - A x)|| / ||P^-1 b|| <= tol,
    monitored through the Givens recurrence. Exceeding max_iter returns
    the report with converged=False rather than raising. An Arnoldi
    breakdown (closed Krylov space, or a singular system) returns the
    iterate of the last nonsingular column with breakdown=True, converged
    only if its recomputed preconditioned residual is <= tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    apply_prec = _as_apply(prec)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    t0 = time.perf_counter()

    pb = apply_prec(b)
    beta = np.linalg.norm(pb)
    norm_b = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros(n), SolveReport(0, time.perf_counter() - t0, 0.0, 0.0, True)

    V = [pb / beta]
    H = np.zeros((max_iter + 1, max_iter))
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = beta
    history = []
    converged = False
    breakdown = False
    k = 0

    for j in range(max_iter):
        w = apply_prec(op.apply(V[j]))
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        hnext = np.linalg.norm(w)
        H[j + 1, j] = hnext
        col_norm = np.linalg.norm(H[:j + 2, j])  # = ||P^-1 A v_j||, kept by rotations

        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        r = np.hypot(H[j, j], H[j + 1, j])
        if r <= BREAKDOWN_TOL * col_norm:
            # singular system: stop at the last nonsingular column
            breakdown = True
            break
        cs[j] = H[j, j] / r
        sn[j] = H[j + 1, j] / r
        H[j, j] = r
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        k = j + 1
        res = abs(g[j + 1]) / beta
        history.append(res)
        if res <= tol:
            converged = True
            break
        if hnext <= BREAKDOWN_TOL * col_norm:
            breakdown = True
            break
        V.append(w / hnext)

    y = np.linalg.solve(np.triu(H[:k, :k]), g[:k])
    x = np.zeros(n)
    for i in range(k):
        x += y[i] * V[i]
    resid = b - op.apply(x)
    true_res = np.linalg.norm(resid) / norm_b
    prec_res = np.linalg.norm(apply_prec(resid)) / beta
    if breakdown:
        converged = bool(prec_res <= tol)
    report = SolveReport(
        iterations=k,
        wall_time=time.perf_counter() - t0,
        rel_residual=prec_res,
        true_rel_residual=true_res,
        converged=converged,
        breakdown=breakdown,
        residual_history=history,
    )
    return x, report


def reference_solve(op, b):
    """Exact solution of the full stage system by op.solve, whose factors
    stay cached on op; the oracle for relative-error columns."""
    if op.size > DIRECT_GUARD:
        raise ResourceLimitError(
            f"s*N = {op.size} exceeds direct-solve guard {DIRECT_GUARD}")
    return op.solve(b)
