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

Structural identities enforced on every build: E D_s = 0,
rank(E C_s) = n_hat, Lambda (E C_s) = I, rank(D_l) = k.  The measured
defects of the first three are kept in ``ConstructionRecord.checks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dae import CanonicalForm, DaeSystem, canonical_form
from .errors import IDENTITY_TOL, InputError, require
from .geometric import OutputNullingData, output_nulling
from .linalg import (
    DEFAULT_RANK_TOL,
    Subspace,
    _pinv,
    _rank,
    _svd,
    as_vector,
    numerical_rank,
)
from .signals import SampledSignal, integrate_lti


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


def assemble(cf: CanonicalForm, ond: OutputNullingData,
             rank_tol: float = DEFAULT_RANK_TOL) -> ConstructionRecord:
    """Assemble the associated linear system from its ingredients.

    ``ond`` may come from :func:`daeobs.geometric.output_nulling` or carry
    any other legal basis/friend/L choice; all choices yield feedback-
    equivalent systems.
    """
    sys = cf.sys
    n, r = cf.n, cf.r
    W = ond.V.basis
    n_hat = ond.V.dim
    F_tilde, L = ond.F_tilde, ond.L
    k = ond.k

    Acl = cf.A_tilde + cf.G @ F_tilde
    GL = cf.G @ L
    Pp = ond.V.perp_projector()
    require("(A + G F) V within V", np.linalg.norm(Pp @ Acl @ W),
            IDENTITY_TOL * (2.0 + float(np.linalg.norm(Acl))))
    require("G L within V", np.linalg.norm(Pp @ GL),
            IDENTITY_TOL * (2.0 + float(np.linalg.norm(GL))))

    A_l = W.T @ Acl @ W
    B_l = W.T @ GL

    # Output map [x; u] = Cbar p + Dbar w in original coordinates.
    C_l = _lift(cf, np.eye(r), F_tilde) @ W
    D_l = _lift(cf, np.zeros((r, k)), L)
    C_s, C_inp = C_l[:n, :], C_l[n:, :]
    D_s, D_inp = D_l[:n, :], D_l[n:, :]

    E = sys.E
    ECs = E @ C_s
    # Lambda, the rank check and X all come from one SVD of E C_s.
    U, s, Vt = _svd(ECs)
    rank = _rank(s, ECs.shape, rank_tol)
    Lambda = _pinv(U, s, Vt, rank)
    checks = {
        "E_Ds": require("E D_s = 0", np.linalg.norm(E @ D_s),
                        IDENTITY_TOL * (1.0 + float(np.linalg.norm(E)))),
        "rank_ECs_equals_n_hat": require(
            "rank(E C_s) = n_hat", n_hat - rank, 0),
        "Lambda_ECs_minus_I": require(
            "Lambda (E C_s) = I", np.linalg.norm(Lambda @ ECs - np.eye(n_hat)),
            IDENTITY_TOL * 2.0),
    }
    require("rank(D_l) = k", k - numerical_rank(D_l, rank_tol), 0)
    X = Subspace(U[:, :rank].copy())

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
    return assemble(cf, ond, rank_tol)


def output_trajectory_from_v0(lti: AssociatedLti, v0,
                              g: SampledSignal) -> tuple[SampledSignal, SampledSignal, SampledSignal]:
    """Integrate the reduced system from v(0) = v0 and emit (x, u, v)."""
    v0 = as_vector(v0, "v0")
    if v0.size != lti.n_hat:
        raise InputError(f"v0 must have length {lti.n_hat}")
    if g.dim != lti.k:
        raise InputError(f"input signal must have dimension {lti.k}")
    v = integrate_lti(lti.A_l, lti.B_l, v0, g)
    x_vals = lti.C_s @ v.values + lti.D_s @ g.values
    u_vals = lti.C_inp @ v.values + lti.D_inp @ g.values
    x = SampledSignal(g.grid.copy(), x_vals)
    u = SampledSignal(g.grid.copy(), u_vals)
    return x, u, v
