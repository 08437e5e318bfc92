"""Reduction of a DAE to an ordinary linear system.

For  d(Ex)/dt = A_hat x + B_hat u  this module builds a linear system
(A_l, B_l, C_l, D_l) whose outputs, split as (x, u) = (C_s v + D_s g,
C_inp v + D_inp g), are exactly the DAE's trajectory pairs:

* the state space is the output-nulling subspace V* of the auxiliary
  system in canonical coordinates,
* the consistency space X = Im(E C_s) collects the values E x0 from which
  the DAE admits a solution on any horizon, and
* Lambda = (E C_s)^+ maps consistent initial data to the reduced state,
  with Lambda (E x(t)) = v(t) along every trajectory.

E C_s = S^{-1} [W; 0] has full column rank n_hat by construction (S is
invertible and W is the orthonormal V* basis), so no rank is decided
here: the thin-QR solve :func:`daeobs.linalg.thin_qr_solve`, E C_s = Q R,
gives X = Im Q and Lambda = R^{-1} Q^T.
Identities enforced on every build, in :func:`assemble`: those of the
output-nulling data, whichever step chose them, then E D_s = 0 and
Lambda (E C_s) = I, which fails for an E C_s that is rank deficient or
too ill conditioned to invert.  The measured defects of these last two
are kept in ``ConstructionRecord.checks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dae import CanonicalForm, DaeSystem, canonical_form
from .errors import IDENTITY_TOL, require
from .geometric import OutputNullingData, output_nulling
from .linalg import DEFAULT_RANK_TOL, Subspace, thin_qr_solve


@dataclass(frozen=True)
class AssociatedLti:
    """The ordinary linear system parametrizing a DAE's trajectories."""

    A_l: np.ndarray
    B_l: np.ndarray
    C_l: np.ndarray
    D_l: np.ndarray
    C_s: np.ndarray
    C_inp: np.ndarray
    D_s: np.ndarray
    D_inp: np.ndarray
    X: Subspace
    Lambda: np.ndarray

    @property
    def n(self) -> int:
        return self.C_s.shape[0]

    @property
    def m(self) -> int:
        return self.C_inp.shape[0]

    @property
    def n_hat(self) -> int:
        return self.A_l.shape[0]

    @property
    def k(self) -> int:
        return self.D_l.shape[1]


@dataclass(frozen=True)
class ConstructionRecord:
    """Everything produced while reducing one DAE.

    Keeps the canonical form, subspace basis, friend and L alongside the
    final linear system so that two independent builds of the same DAE can
    be compared (they are always feedback equivalent).  ``checks`` maps
    each reported identity to its measured (defect, tolerance) pair.
    """

    sys: DaeSystem
    cf: CanonicalForm
    ond: OutputNullingData
    lti: AssociatedLti
    checks: dict[str, tuple[float, float]]

    @property
    def V(self) -> Subspace:
        return self.ond.V


def _lift(cf: CanonicalForm, top: np.ndarray, X: np.ndarray) -> np.ndarray:
    """blkdiag(T, I_m) [top; X] into (x, u): ``top`` and the first n - r
    rows of ``X`` are canonical state coordinates, the rest are inputs."""
    n, r = cf.n, cf.r
    return np.vstack([cf.T @ np.vstack([top, X[: n - r]]), X[n - r:]])


def assemble(cf: CanonicalForm, ond: OutputNullingData) -> ConstructionRecord:
    """Check the output-nulling data and assemble the associated linear
    system from them.

    ``ond`` may come from :func:`daeobs.geometric.output_nulling` or carry
    any other legal basis/friend/L choice; all choices yield feedback-
    equivalent systems.  This is the one place a choice is checked, before
    anything else: 'friend feasibility', 'output-nulling L_in_kernel' and
    'output-nulling GL_in_V' (docs/theory.md, section 4).  X = Im Q and
    Lambda = R^{-1} Q' come from one thin_qr_solve of E C_s.
    """
    sys = cf.sys
    n, r = cf.n, cf.r
    W = ond.V.basis
    n_hat = ond.V.dim
    F_tilde, L = ond.F_tilde, ond.L

    Acl = cf.A_tilde + cf.G @ F_tilde
    GL = cf.G @ L
    Pp = ond.V.perp_projector()
    tol = IDENTITY_TOL * (1.0 + float(np.linalg.norm(cf.A_tilde))
                          + float(np.linalg.norm(cf.G)))
    require("friend feasibility", np.linalg.norm(
        np.vstack([(cf.C_tilde + cf.D_tilde @ F_tilde) @ W, Pp @ Acl @ W])), tol)
    require("output-nulling L_in_kernel", np.linalg.norm(cf.D_tilde @ L), tol)
    require("output-nulling GL_in_V", np.linalg.norm(Pp @ GL), tol)

    A_l = W.T @ Acl @ W
    B_l = W.T @ GL

    # Output map [x; u] = Cbar p + Dbar w in original coordinates.
    C_l = _lift(cf, np.eye(r), F_tilde) @ W
    D_l = _lift(cf, np.zeros((r, ond.k)), L)
    C_s, C_inp = C_l[:n, :], C_l[n:, :]
    D_s, D_inp = D_l[:n, :], D_l[n:, :]

    E = sys.E
    ECs = E @ C_s
    Q, Lambda = thin_qr_solve(ECs)
    checks = {
        "E_Ds": require("E D_s = 0", np.linalg.norm(E @ D_s),
                        IDENTITY_TOL * (1.0 + float(np.linalg.norm(E)))),
        "Lambda_ECs_minus_I": require(
            "Lambda (E C_s) = I", np.linalg.norm(Lambda @ ECs - np.eye(n_hat)),
            IDENTITY_TOL * 2.0),
    }
    X = Subspace(Q)

    lti = AssociatedLti(
        A_l=A_l, B_l=B_l, C_l=C_l, D_l=D_l,
        C_s=C_s, C_inp=C_inp, D_s=D_s, D_inp=D_inp,
        X=X, Lambda=Lambda,
    )
    return ConstructionRecord(sys=sys, cf=cf, ond=ond, lti=lti, checks=checks)


def construct(sys: DaeSystem,
              rank_tol: float = DEFAULT_RANK_TOL) -> ConstructionRecord:
    """Full reduction pipeline: canonical form, output-nulling data,
    associated linear system."""
    cf = canonical_form(sys, rank_tol)
    ond = output_nulling(cf, rank_tol)
    return assemble(cf, ond)
