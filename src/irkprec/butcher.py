"""Butcher tableaus for Radau IIA and Gauss-Legendre collocation methods.

Tableaus are generated at call time by integrating Lagrange cardinal
polynomials over the collocation nodes rather than from hard-coded
coefficient tables; the order conditions in the test suite double as a
check on the construction.
"""

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import FactorizationError

MAX_STAGES = 5

# An eigenvalue counts as lying on the closed negative real axis when
# |Im| <= WPD_TOL * |lambda| and Re <= WPD_TOL.
WPD_TOL = 1e-10


class TableauKind(Enum):
    RADAU_IIA = "radau-iia"
    GAUSS_LEGENDRE = "gauss-legendre"
    NYSTROM_GAUSS_LEGENDRE = "nystrom-gauss-legendre"


class PreconditionerKind(Enum):
    J = "J"
    GSL = "GSL"
    TRIU = "TRIU"
    LD = "LD"
    DU = "DU"


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients (A, b, c) of a collocation method, plus the second
    weight vector b' for Nystrom methods.

    Instances are immutable; the arrays are set read-only on construction.
    """

    kind: TableauKind
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    b_prime: np.ndarray | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.b_prime is not None:
            object.__setattr__(self, "b_prime", np.asarray(self.b_prime, dtype=float))
        s = A.shape[0]
        if A.shape != (s, s) or self.b.shape != (s,) or self.c.shape != (s,):
            raise ValueError("inconsistent tableau dimensions")
        for arr in (self.A, self.b, self.c, self.b_prime):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def s(self):
        return self.A.shape[0]

    @property
    def is_nystrom(self):
        return self.b_prime is not None

    def to_json(self):
        """Serialize as {kind, s, A (row-major), b, c, b_prime?}."""
        doc = {
            "kind": self.kind.value,
            "s": self.s,
            "A": self.A.ravel().tolist(),
            "b": self.b.tolist(),
            "c": self.c.tolist(),
        }
        if self.b_prime is not None:
            doc["b_prime"] = self.b_prime.tolist()
        return json.dumps(doc)


def tableau_from_json(text):
    doc = json.loads(text)
    s = doc["s"]
    return ButcherTableau(
        kind=TableauKind(doc["kind"]),
        A=np.asarray(doc["A"], dtype=float).reshape(s, s),
        b=np.asarray(doc["b"], dtype=float),
        c=np.asarray(doc["c"], dtype=float),
        b_prime=np.asarray(doc["b_prime"], dtype=float) if "b_prime" in doc else None,
    )


@dataclass(frozen=True)
class LduFactors:
    """Unpivoted LDU factorization A = L @ D @ U with unit-triangular L, U."""

    L: np.ndarray
    D: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        for arr in (self.L, self.D, self.U):
            arr.flags.writeable = False


def _collocation_matrix(c):
    """Integrate the Lagrange cardinal polynomials on the nodes c.

    Returns (A, b) with a_ij = integral of ell_j over [0, c_i] and
    b_j = integral of ell_j over [0, 1].
    """
    s = len(c)
    A = np.empty((s, s))
    b = np.empty(s)
    for j in range(s):
        p = np.poly1d([1.0])
        for r in range(s):
            if r != j:
                p *= np.poly1d([1.0, -c[r]]) / (c[j] - c[r])
        pint = np.polyint(p)
        A[:, j] = pint(c)
        b[j] = pint(1.0)
    return A, b


def _check_stage_count(s):
    if not isinstance(s, (int, np.integer)) or not 1 <= s <= MAX_STAGES:
        raise ValueError(f"stage count must be an integer in [1, {MAX_STAGES}], got {s!r}")


def radau_iia(s):
    """s-stage Radau IIA tableau.

    The abscissae are the roots of P_s(2x-1) - P_{s-1}(2x-1) (right Radau
    quadrature, c_s = 1); A solves the collocation conditions and b is the
    last row of A.
    """
    _check_stage_count(s)
    coeffs = np.zeros(s + 1)
    coeffs[s] = 1.0
    coeffs[s - 1] = -1.0
    roots = np.polynomial.legendre.legroots(coeffs)
    c = np.sort((np.real(roots) + 1.0) / 2.0)
    c[-1] = 1.0  # exact right endpoint of the Radau rule
    A, b = _collocation_matrix(c)
    return ButcherTableau(kind=TableauKind.RADAU_IIA, A=A, b=b, c=c)


def gauss_legendre(s):
    """s-stage Gauss-Legendre tableau.

    The abscissae are the shifted Legendre roots on (0, 1), the weights
    the shifted Gauss weights, and A solves the collocation conditions.
    """
    _check_stage_count(s)
    t, w = np.polynomial.legendre.leggauss(s)
    order = np.argsort(t)
    c = (t[order] + 1.0) / 2.0
    b = w[order] / 2.0
    A, _ = _collocation_matrix(c)
    return ButcherTableau(kind=TableauKind.GAUSS_LEGENDRE, A=A, b=b, c=c)


def nystrom_from(base):
    """Nystrom tableau from a base IRK method by indirect collocation.

    A = A_hat @ A_hat, c unchanged, b'_i = b_hat_i and b_i = b_hat_i (1 - c_i).
    """
    if base.is_nystrom:
        raise ValueError("base tableau is already a Nystrom method")
    if base.kind is not TableauKind.GAUSS_LEGENDRE:
        raise ValueError("Nystrom construction is provided for Gauss-Legendre bases")
    return ButcherTableau(
        kind=TableauKind.NYSTROM_GAUSS_LEGENDRE,
        A=base.A @ base.A,
        b=base.b * (1.0 - base.c),
        c=base.c.copy(),
        b_prime=base.b.copy(),
    )


def ldu(t):
    """Unpivoted LDU factorization of the Butcher matrix of `t`.

    Accepts a tableau or a plain square matrix. Raises FactorizationError
    naming the pivot index if a zero (relative to ||A||) pivot appears.
    """
    A = t.A if isinstance(t, ButcherTableau) else np.asarray(t, dtype=float)
    s = A.shape[0]
    scale = np.abs(A).max()
    L = np.eye(s)
    U = A.astype(float).copy()
    for k in range(s):
        if abs(U[k, k]) <= 1e-14 * scale:
            raise FactorizationError(k)
        for i in range(k + 1, s):
            L[i, k] = U[i, k] / U[k, k]
            U[i, k:] -= L[i, k] * U[k, k:]
            U[i, k] = 0.0
    d = np.diag(U).copy()
    D = np.diag(d)
    Uu = U / d[:, None]
    return LduFactors(L=L, D=D, U=Uu)


def weakly_positive_definite(A):
    """True iff A is nonsingular and has no eigenvalue on the closed
    negative real axis (the numerical stand-in for the existence of a
    positive definite C with CA positive definite)."""
    A = np.asarray(A, dtype=float)
    lam = np.linalg.eigvals(A)
    for ev in lam:
        if abs(ev) == 0.0:
            return False
        if abs(ev.imag) <= WPD_TOL * abs(ev) and ev.real <= WPD_TOL:
            return False
    return True


def butcher_preconditioner_matrix(t, kind):
    """The s x s matrix P of the requested preconditioner family member.

    J: diag(A); GSL: tril(A); TRIU: triu(A); LD: L @ D; DU: D @ U.
    """
    A = t.A if isinstance(t, ButcherTableau) else np.asarray(t, dtype=float)
    kind = PreconditionerKind(kind)
    if kind is PreconditionerKind.J:
        return np.diag(np.diag(A))
    if kind is PreconditionerKind.GSL:
        return np.tril(A)
    if kind is PreconditionerKind.TRIU:
        return np.triu(A)
    factors = ldu(A)
    if kind is PreconditionerKind.LD:
        return factors.L @ factors.D
    return factors.D @ factors.U

