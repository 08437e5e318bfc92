"""Geometric control machinery for the auxiliary linear system.

Given the canonical-form blocks (A_tilde, G, C_tilde, D_tilde) of a DAE,
this module computes

* the largest output-nulling ("weakly observable") subspace V*: initial
  states from which some input keeps the auxiliary output identically zero,
* a friend F_tilde, i.e. a feedback with (A_tilde + G F_tilde) V* within V*
  and (C_tilde + D_tilde F_tilde) V* = 0, and
* a full-column-rank matrix L whose image is ker D_tilde and the G-preimage
  of V*, parametrizing the residual input freedom.

The DAE's consistent trajectories live exactly on V*, which is what makes
the reduction to an ordinary linear system possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dae import CanonicalForm
from .errors import IDENTITY_TOL, require
from .linalg import (
    DEFAULT_RANK_TOL,
    Subspace,
    _rank,
    _svd,
    kernel_basis,
    numerical_rank,
    pseudoinverse,
)


def _system_scale(cf: CanonicalForm) -> float:
    """Magnitude of the auxiliary-system data, used to floor rank cut-offs
    so that blocks vanishing up to roundoff are treated as zero."""
    return max(
        1.0,
        float(np.linalg.norm(cf.A_tilde)) if cf.A_tilde.size else 0.0,
        float(np.linalg.norm(cf.G)) if cf.G.size else 0.0,
        float(np.linalg.norm(cf.C_tilde)) if cf.C_tilde.size else 0.0,
        float(np.linalg.norm(cf.D_tilde)) if cf.D_tilde.size else 0.0,
    )


def _nested_step(cf: CanonicalForm, Q: np.ndarray, c: int,
                 rank_tol: float) -> tuple[np.ndarray, int]:
    """One output-nulling step, searched inside V_k = Im Q[:, :c].

    With Q = [W, W_perp] orthogonal, V_{k+1} is W times the image of the
    y-block N_y of the kernel of
    M = [[W_perp' A_tilde W, W_perp' G], [C_tilde W, D_tilde]].
    The kernel cut keeps the shape and scale of the unrestricted stack
    [(I - P_V)[A_tilde, G]; [C_tilde, D_tilde]]; the image cut of N_y is
    floored at 1, the norm of the orthonormal kernel basis.  N_y is not
    formed: if [R_y, R_q] is an orthonormal basis of M's row space, the CS
    decomposition gives N_y and R_q the same singular values short of 1,
    so the vectors R_y' a, for the left singular vectors a of R_q cut
    under N_y's threshold, span exactly the lost directions.  That takes
    an SVD of the k x q block R_q where image_basis(N_y') would take one
    of a c x c block each step.  Returns (Q', c') with
    V_{k+1} = Im Q'[:, :c']; Q' = Q when no direction is lost.
    """
    r = cf.r
    W, W_perp = Q[:, :c], Q[:, c:]
    p, q = cf.D_tilde.shape
    M = np.vstack([np.hstack([W_perp.T @ cf.A_tilde @ W, W_perp.T @ cf.G]),
                   np.hstack([cf.C_tilde @ W, cf.D_tilde])])
    _, s, Vt = _svd(M)
    k = _rank(s, (r + p, r + q), rank_tol, _system_scale(cf))
    U, s_q, _ = _svd(Vt[:k, c:])
    kept = _rank(s_q, (c, c + q - k), rank_tol, 1.0)
    c_next = c - k + kept
    if c_next in (0, c):
        return Q, c_next
    X = np.linalg.qr(Vt[:k, :c].T @ U[:, kept:], mode="complete")[0]
    lost = c - c_next
    return np.hstack([W @ X[:, lost:], W @ X[:, :lost], W_perp]), c_next


def weakly_observable_subspace(cf: CanonicalForm,
                               rank_tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Largest output-nulling subspace of the auxiliary linear system.

    Runs the classical decreasing iteration V_0 = R^r,
    V_{k+1} = {x : exists q, A_tilde x + G q in V_k, C_tilde x + D_tilde q = 0},
    each step searching V_{k+1} inside V_k (:func:`_nested_step`), so the
    iterates are nested by construction and the dimension stops falling
    within r steps.  The result may be the zero subspace; when no step
    removes a direction it is R^r with the identity basis.
    """
    Q, c = np.eye(cf.r), cf.r
    while c:
        Q, c_next = _nested_step(cf, Q, c, rank_tol)
        if c_next == c:
            break
        c = c_next
    return Subspace(Q[:, :c].copy())


def friend(cf: CanonicalForm, V: Subspace,
           rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """A feedback F_tilde rendering V invariant with zero output on it.

    For each basis vector v of V the linear system

        (I - P_V)(A_tilde v + G u) = 0,   C_tilde v + D_tilde u = 0

    is solved for u by minimum-norm least squares; the feasibility residual
    is checked explicitly (failure indicates a tolerance problem, since V
    guarantees solvability).  Off V the friend acts as zero.
    """
    q_dim = cf.q_dim
    r = cf.r
    if V.dim == 0 or q_dim == 0:
        return np.zeros((q_dim, r))
    W = V.basis
    Pp = V.perp_projector()
    lhs = np.vstack([Pp @ cf.G, cf.D_tilde])
    rhs = -np.vstack([Pp @ cf.A_tilde @ W, cf.C_tilde @ W])
    U = pseudoinverse(lhs, rank_tol, scale=_system_scale(cf)) @ rhs
    scale = 1.0 + float(np.linalg.norm(cf.A_tilde)) + float(np.linalg.norm(cf.G))
    require("friend feasibility", np.linalg.norm(lhs @ U - rhs),
            IDENTITY_TOL * scale)
    return U @ W.T


def input_kernel_matrix(cf: CanonicalForm, V: Subspace,
                        rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal L with Im L = ker D_tilde intersected with G^{-1}(V).

    The column count k may be zero.  G^{-1}(V) is computed as the kernel of
    (I - P_V) G.
    """
    stacked = np.vstack([cf.D_tilde, V.perp_projector() @ cf.G])
    return kernel_basis(stacked, rank_tol, scale=_system_scale(cf)).basis


@dataclass(frozen=True)
class OutputNullingData:
    """Bundle (V*, F_tilde, L) for one canonical form."""

    V: Subspace
    F_tilde: np.ndarray
    L: np.ndarray

    @property
    def k(self) -> int:
        return self.L.shape[1]

    def defects(self, cf: CanonicalForm) -> dict[str, float]:
        """Residuals of the defining conditions, for checks and reports."""
        W = self.V.basis
        Pp = self.V.perp_projector()
        Acl = cf.A_tilde + cf.G @ self.F_tilde
        out = cf.C_tilde + cf.D_tilde @ self.F_tilde
        return {
            "invariance": float(np.linalg.norm(Pp @ Acl @ W)),
            "output_zeroing": float(np.linalg.norm(out @ W)),
            "L_in_kernel": float(np.linalg.norm(cf.D_tilde @ self.L)),
            "GL_in_V": float(np.linalg.norm(Pp @ cf.G @ self.L)),
        }


def output_nulling(cf: CanonicalForm,
                   rank_tol: float = DEFAULT_RANK_TOL) -> OutputNullingData:
    """Compute (V*, F_tilde, L) and verify the defining identities."""
    V = weakly_observable_subspace(cf, rank_tol)
    F_tilde = friend(cf, V, rank_tol)
    L = input_kernel_matrix(cf, V, rank_tol)
    data = OutputNullingData(V=V, F_tilde=F_tilde, L=L)
    scale = 1.0 + float(np.linalg.norm(cf.A_tilde)) + float(np.linalg.norm(cf.G))
    for name, value in data.defects(cf).items():
        require(f"output-nulling {name}", value, IDENTITY_TOL * scale)
    require("rank(L) = k", data.k - numerical_rank(L, rank_tol), 0)
    return data
