"""DAE system containers and the canonical decomposition S E T = [[I, 0], [0, 0]].

A control-form DAE is  d(Ex)/dt = A_hat x + B_hat u  with square E that may
be singular (or zero); an observed DAE is  d(Fx)/dt = A x + f,  y = H x + eta.
Neither regularity of the pencil nor solvability from every initial state is
assumed anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, require
from .linalg import DEFAULT_RANK_TOL, _rank, _svd, as_matrix


@dataclass(frozen=True)
class DaeSystem:
    """Matrix triple (E, A_hat, B_hat) of d(Ex)/dt = A_hat x + B_hat u."""

    E: np.ndarray
    A_hat: np.ndarray
    B_hat: np.ndarray

    def __post_init__(self):
        E = as_matrix(self.E, "E")
        A = as_matrix(self.A_hat, "A_hat")
        B = as_matrix(self.B_hat, "B_hat")
        n = E.shape[0]
        if E.shape != (n, n):
            raise InputError(f"E must be square, got shape {E.shape}")
        if A.shape != (n, n):
            raise InputError(f"A_hat must be {n}x{n}, got shape {A.shape}")
        if B.shape[0] != n:
            raise InputError(f"B_hat must have {n} rows, got shape {B.shape}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A_hat", A)
        object.__setattr__(self, "B_hat", B)

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def m(self) -> int:
        return self.B_hat.shape[1]


@dataclass(frozen=True)
class ObservedDae:
    """Matrix triple (F, A, H) of d(Fx)/dt = A x + f, y = H x + eta."""

    F: np.ndarray
    A: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        F = as_matrix(self.F, "F")
        A = as_matrix(self.A, "A")
        H = as_matrix(self.H, "H")
        n = F.shape[0]
        if F.shape != (n, n):
            raise InputError(f"F must be square, got shape {F.shape}")
        if A.shape != (n, n):
            raise InputError(f"A must be {n}x{n}, got shape {A.shape}")
        if H.shape[1] != n:
            raise InputError(f"H must have {n} columns, got shape {H.shape}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "H", H)

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def p(self) -> int:
        return self.H.shape[0]


def dual_dae(obs: ObservedDae) -> DaeSystem:
    """Adjoint control-form system of an observed DAE.

    The estimation problem for (F, A, H) maps to a control problem for the
    time-reversed adjoint, whose matrices are E = F^T, A_hat = A^T and
    B_hat = -H^T.
    """
    return DaeSystem(obs.F.T.copy(), obs.A.T.copy(), -obs.H.T)


@dataclass(frozen=True)
class CanonicalForm:
    """Coordinates in which E becomes [[I_r, 0], [0, 0]].

    S and T are the invertible row/column transforms (built from the SVD of
    E, so they are orthogonal up to the singular-value scaling), r is the
    numerical rank of E, and the remaining fields are the blocks of
    S A_hat T and S B_hat:

        S A_hat T = [[A_tilde, A12], [A21, A22]],   S B_hat = [[B1], [B2]].

    The derived maps G = [A12, B1], C_tilde = A21, D_tilde = [A22, B2]
    define the auxiliary linear system whose output-zeroing trajectories
    are exactly the DAE trajectories.
    """

    sys: DaeSystem
    S: np.ndarray
    T: np.ndarray
    r: int
    A_tilde: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    B1: np.ndarray
    B2: np.ndarray

    @property
    def n(self) -> int:
        return self.sys.n

    @property
    def m(self) -> int:
        return self.sys.m

    @property
    def q_dim(self) -> int:
        """Input dimension n - r + m of the auxiliary linear system."""
        return self.n - self.r + self.m

    @property
    def G(self) -> np.ndarray:
        return np.hstack([self.A12, self.B1])

    @property
    def C_tilde(self) -> np.ndarray:
        return self.A21

    @property
    def D_tilde(self) -> np.ndarray:
        return np.hstack([self.A22, self.B2])


def _partition(sys: DaeSystem, S: np.ndarray, T: np.ndarray,
               r: int) -> CanonicalForm:
    """Blocks of S A_hat T and S B_hat split at the rank r of E."""
    M = S @ sys.A_hat @ T
    B = S @ sys.B_hat
    return CanonicalForm(
        sys=sys, S=S, T=T, r=r,
        A_tilde=M[:r, :r], A12=M[:r, r:], A21=M[r:, :r], A22=M[r:, r:],
        B1=B[:r, :], B2=B[r:, :],
    )


def canonical_form(sys: DaeSystem,
                   rank_tol: float = DEFAULT_RANK_TOL) -> CanonicalForm:
    """Compute S, T with S E T = diag(I_r, 0) and the induced partitions.

    S and T come from the SVD of E: T = [V_r, V_perp] and S stacks
    Sigma_r^{-1} U_r^T on top of U_perp^T.  Degenerate ranks r = 0 (purely
    algebraic system) and r = n (ordinary ODE) are legal.
    """
    E = sys.E
    n = sys.n
    U, s, Vt = _svd(E)
    r = _rank(s, E.shape, rank_tol)
    if r:
        S = np.vstack([U[:, :r].T / s[:r, None], U[:, r:].T])
    else:
        S = U.T.copy()
    T = Vt.T.copy()

    # The trailing block of S E T holds the singular values the rank
    # decision cut; it is zero by that decision, not by construction.
    defect = S @ E @ T
    defect[:r, :r] -= np.eye(r)
    defect[r:, r:] = 0.0
    require("S E T = diag(I_r, 0)", np.linalg.norm(defect),
            1e-10 * max(1.0, float(np.linalg.norm(E))) * max(n, 1))

    return _partition(sys, S, T, r)


def canonical_form_from_transforms(sys: DaeSystem, S, T,
                                   rank_tol: float = DEFAULT_RANK_TOL) -> CanonicalForm:
    """Build a canonical form from caller-supplied transforms S, T.

    The pair must satisfy S E T = diag(I_r, 0); this is checked.  Used for
    exercising alternative (e.g. randomized) coordinate choices, which all
    lead to feedback-equivalent constructions downstream.
    """
    S = as_matrix(S, "S")
    T = as_matrix(T, "T")
    n = sys.n
    if S.shape != (n, n) or T.shape != (n, n):
        raise InputError("S and T must be square of the system dimension")
    D = S @ sys.E @ T
    s = np.linalg.svd(D, compute_uv=False) if n else np.zeros(0)
    r = _rank(s, D.shape, rank_tol)
    resid = np.linalg.norm(D - np.diag(np.r_[np.ones(r), np.zeros(n - r)]))
    if resid > 1e-8 * max(1.0, float(np.linalg.norm(D))) * max(n, 1):
        raise InputError(
            f"supplied transforms do not normalize E: defect {resid:.3e}"
        )
    return _partition(sys, S, T, r)
