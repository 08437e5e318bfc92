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
the reduction to an ordinary linear system possible.  This module only
computes: the identities (V*, F_tilde, L) must meet are checked once per
build, by :func:`daeobs.lti.assemble`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dae import CanonicalForm
from .linalg import (
    DEFAULT_RANK_TOL,
    Subspace,
    _rank,
    complement_basis,
    kernel_basis,
    thin_qr_solve,
)


def _system_scale(cf: CanonicalForm) -> float:
    """Magnitude of the auxiliary-system data, used to floor rank cut-offs
    so that blocks vanishing up to roundoff are treated as zero."""
    blocks = (cf.A_tilde, cf.G, cf.C_tilde, cf.D_tilde)
    return max(1.0, *(float(np.linalg.norm(M)) for M in blocks))


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
        U, s, Vt = np.linalg.svd(Ru)
        k = _rank(s, shape, rank_tol, scale)
        Bx = np.vstack([Bx, (U[:, :k].T @ Rx) / s[:k, None]])
        Bu = np.vstack([Bu, Vt[:k]])
        X = U[:, k:].T @ Rx
        for _ in range(2):
            X = X - (X @ Y) @ Y.T
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
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
    the loop ends within r levels.  V* is the complement of the final Y
    (:func:`daeobs.linalg.complement_basis`); it may be the zero subspace,
    and when no level adds a direction it is R^r with the identity basis.
    """
    Y = np.zeros((cf.r, 0))
    for Y in _annihilator_levels(cf, rank_tol):
        pass
    return Subspace(complement_basis(Y))


def friend(cf: CanonicalForm, V: Subspace, L: np.ndarray) -> np.ndarray:
    """A feedback F_tilde rendering V invariant with zero output on it.

    For each basis vector v of V the linear system

        C_tilde v + D_tilde u = 0,   (I - P_V)(A_tilde v + G u) = 0

    is solved for u by minimum-norm least squares in K = [D_tilde;
    (I - P_V) G], cut at the rank decision that gave L = ker K
    (:func:`input_kernel_matrix`).  With N the orthonormal complement of
    Im L (:func:`daeobs.linalg.complement_basis`), K N has full column
    rank and u = N (K N)^+ [-C_tilde v; -(I - P_V) A_tilde v], from the
    thin-QR solve :func:`daeobs.linalg.thin_qr_solve`: this is K's
    truncated pseudoinverse, and no second rank decision is made.  Off V
    the friend acts as zero.  Its feasibility residual, the invariance
    and output-zeroing defects of V under the friend, is checked by
    :func:`daeobs.lti.assemble` (failure indicates a tolerance problem,
    since V guarantees solvability).
    """
    W = V.basis
    Pp = V.perp_projector()
    lhs = np.vstack([cf.D_tilde, Pp @ cf.G])
    rhs = -np.vstack([cf.C_tilde @ W, Pp @ cf.A_tilde @ W])
    N = complement_basis(L)
    U = N @ thin_qr_solve(lhs @ N, rhs)[1]
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
    """Bundle (V*, F_tilde, L) for one canonical form, unchecked:
    :func:`daeobs.lti.assemble` checks every bundle it is given."""

    V: Subspace
    F_tilde: np.ndarray
    L: np.ndarray

    @property
    def k(self) -> int:
        return self.L.shape[1]


def output_nulling(cf: CanonicalForm,
                   rank_tol: float = DEFAULT_RANK_TOL) -> OutputNullingData:
    """Compute (V*, F_tilde, L): V* first, then L from the one rank cut on
    K = [D_tilde; (I - P_V) G], then the friend that reads that cut.
    Nothing is checked here (see :func:`daeobs.lti.assemble`)."""
    V = weakly_observable_subspace(cf, rank_tol)
    L = input_kernel_matrix(cf, V, rank_tol)
    return OutputNullingData(V=V, F_tilde=friend(cf, V, L), L=L)
