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


def _annihilator_levels(cf: CanonicalForm, rank_tol: float):
    """Grow an orthonormal basis Y of V_k^perp, one level per step.

    In dual form the classical iteration reads
    V_{k+1}^perp = {a : (a, 0) in the row space of [[Y_k' A_tilde, Y_k' G],
    [C_tilde, D_tilde]]}, and that row space only grows with k.  Its
    u-projection has rank at most q and is carried by pivot rows (Bx, Bu)
    with Bu orthonormal; the rows entering at a level (C_tilde, D_tilde
    first, then Y_new' [A_tilde, G]) are reduced against them, the
    combinations whose u-part falls under the cut become candidates, and
    their x-parts, orthogonalized twice against Y, give the new directions.
    Both cuts keep the shape (r + p) x (r + q) and the scale of the
    unrestricted stack.  Yields Y after each level that adds a direction.
    """
    r = cf.r
    p, q = cf.D_tilde.shape
    shape, scale = (r + p, r + q), _system_scale(cf)
    Y = np.zeros((r, 0))
    Bx, Bu = np.zeros((0, r)), np.zeros((0, q))
    Rx, Ru = cf.C_tilde, cf.D_tilde
    while Rx.shape[0] and Y.shape[1] < r:
        for _ in range(2):
            coef = Ru @ Bu.T
            Rx, Ru = Rx - coef @ Bx, Ru - coef @ Bu
        U, s, Vt = _svd(Ru)
        k = _rank(s, shape, rank_tol, scale)
        Bx = np.vstack([Bx, (U[:, :k].T @ Rx) / s[:k, None]])
        Bu = np.vstack([Bu, Vt[:k]])
        X = U[:, k:].T @ Rx
        for _ in range(2):
            X = X - (X @ Y) @ Y.T
        _, s, Vt = _svd(X, full=False)
        t = _rank(s, shape, rank_tol, scale)
        if t == 0:
            return
        Y_new = Vt[:t].T
        Y = np.hstack([Y, Y_new])
        yield Y
        Rx, Ru = Y_new.T @ cf.A_tilde, Y_new.T @ cf.G


def weakly_observable_subspace(cf: CanonicalForm,
                               rank_tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Largest output-nulling subspace of the auxiliary linear system.

    Runs the classical decreasing iteration V_0 = R^r,
    V_{k+1} = {x : exists q, A_tilde x + G q in V_k, C_tilde x + D_tilde q = 0}
    on the complements (:func:`_annihilator_levels`): each level adds the
    directions V_k loses, so the iterates are nested by construction and
    the loop ends within r levels.  V* is the complement of the final Y,
    from one complete QR; it may be the zero subspace, and when no level
    adds a direction it is R^r with the identity basis.
    """
    Y = np.zeros((cf.r, 0))
    for Y in _annihilator_levels(cf, rank_tol):
        pass
    d = Y.shape[1]
    if d == 0:
        return Subspace(np.eye(cf.r))
    return Subspace(np.linalg.qr(Y, mode="complete")[0][:, d:].copy())


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
