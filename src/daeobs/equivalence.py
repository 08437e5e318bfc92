"""Feedback equivalence of independently built reductions.

The associated linear system of a DAE is unique only up to the choice of
the normalizing transforms (S, T), the friend and the input-kernel basis.
Any two builds from the same DAE are feedback equivalent: a state
similarity, a state feedback and an input coordinate change map one onto
the other.  This module constructs that equivalence explicitly from two
construction records and evaluates the six defining identities, plus a
direct verification on the reduced quadruples.

Writing R = T2^{-1} T1 and Hm = S2 S1^{-1}, the block structure
R = [[R11, 0], [R21, R22]], Hm = [[H11, H12], [0, H22]] with H11 = R11 is
forced by S_i E T_i = diag(I_r, 0); the equivalence is then

    T = R11,  U = L1^+ Uh L2,  F = L1^+ (Fh + Uh F2 R11 - F1),

with Fh = [[-R22^{-1} R21], [0]] and Uh = blkdiag(R22^{-1}, I_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dae import canonical_form_from_transforms
from .errors import InputError, InternalConsistencyError, require
from .geometric import (
    OutputNullingData,
    input_kernel_matrix,
    weakly_observable_subspace,
    friend,
)
from .linalg import DEFAULT_RANK_TOL, Subspace, pseudoinverse
from .lti import AssociatedLti, ConstructionRecord, _lift, assemble

STRUCTURAL_TOL = 1e-8


@dataclass(frozen=True)
class FeedbackEquivalence:
    """State similarity T, feedback F and input change U relating two
    builds, stored in the reduced (V-basis) coordinates, together with the
    residuals of the six defining identities."""

    T: np.ndarray
    F: np.ndarray
    U: np.ndarray
    defects: dict[str, float]

    @property
    def max_defect(self) -> float:
        return max(self.defects.values()) if self.defects else 0.0


@dataclass(frozen=True)
class EquivalenceReport:
    """Residuals of the transformed-quadruple comparison."""

    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def _rel(value: float, scale: float) -> float:
    return float(value) / (1.0 + float(scale))


def build_equivalence(rec1: ConstructionRecord, rec2: ConstructionRecord,
                      rank_tol: float = DEFAULT_RANK_TOL) -> FeedbackEquivalence:
    """Construct the feedback equivalence between two reductions of one DAE.

    Asserts the structural zeros of the transition blocks first (their
    violation means the records do not come from the same DAE or a
    tolerance failed), then forms (T, F, U) and evaluates all six
    identities as relative residuals.
    """
    s1, s2 = rec1.sys, rec2.sys
    if not (np.allclose(s1.E, s2.E) and np.allclose(s1.A_hat, s2.A_hat)
            and np.allclose(s1.B_hat, s2.B_hat)):
        raise InputError("records were built from different DAE systems")
    cf1, cf2 = rec1.cf, rec2.cf
    if cf1.r != cf2.r:
        raise InternalConsistencyError("ranks of E disagree between records")
    n, m, r = cf1.n, cf1.m, cf1.r

    R = np.linalg.solve(cf2.T, cf1.T)
    Hm = np.linalg.solve(cf1.S.T, cf2.S.T).T  # S2 S1^{-1}
    R11, R12 = R[:r, :r], R[:r, r:]
    R21, R22 = R[r:, :r], R[r:, r:]
    H11, H12 = Hm[:r, :r], Hm[:r, r:]
    H21 = Hm[r:, :r]
    scale_R = 1.0 + float(np.linalg.norm(R))
    require("upper-right block of T2^{-1} T1 = 0", np.linalg.norm(R12),
            STRUCTURAL_TOL * scale_R)
    require("lower-left block of S2 S1^{-1} = 0", np.linalg.norm(H21),
            STRUCTURAL_TOL * (1.0 + np.linalg.norm(Hm)))
    require("H11 = R11", np.linalg.norm(H11 - R11), STRUCTURAL_TOL * scale_R)

    if rec1.V.dim != rec2.V.dim:
        raise InternalConsistencyError(
            "output-nulling dimensions disagree between records"
        )
    F1, L1 = rec1.ond.F_tilde, rec1.ond.L
    F2, L2 = rec2.ond.F_tilde, rec2.ond.L
    k = L1.shape[1]
    if L2.shape[1] != k:
        raise InternalConsistencyError("input-kernel ranks disagree between records")

    F_hat = np.vstack([-np.linalg.solve(R22, R21) if n - r else np.zeros((0, r)),
                       np.zeros((m, r))])
    U_hat = np.zeros((n - r + m, n - r + m))
    if n - r:
        U_hat[: n - r, : n - r] = np.linalg.inv(R22)
    U_hat[n - r:, n - r:] = np.eye(m)

    L1p = pseudoinverse(L1, rank_tol)
    T_full = R11
    F_full = L1p @ (F_hat + U_hat @ F2 @ R11 - F1)
    U = L1p @ U_hat @ L2

    W1, W2 = rec1.V.basis, rec2.V.basis
    G1, G2 = cf1.G, cf2.G
    A1cl = cf1.A_tilde + G1 @ F1 + G1 @ L1 @ F_full
    A2cl = cf2.A_tilde + G2 @ F2
    P1perp = rec1.V.perp_projector()
    P2perp = rec2.V.perp_projector()

    blk1 = _lift(cf1, np.eye(r), F1 + L1 @ F_full)
    blk2 = _lift(cf2, np.eye(r), F2)
    d1 = _lift(cf1, np.zeros((r, k)), L1 @ U)
    d2 = _lift(cf2, np.zeros((r, k)), L2)

    scale_A = 1.0 + float(np.linalg.norm(A1cl)) + float(np.linalg.norm(A2cl))
    defects = {
        "maps_v1_onto_v2": _rel(np.linalg.norm(P2perp @ T_full @ W1), np.linalg.norm(T_full)),
        "invariance_of_v1": _rel(np.linalg.norm(P1perp @ A1cl @ W1), scale_A),
        "state_map": _rel(np.linalg.norm(T_full @ A1cl @ W1 - A2cl @ T_full @ W1), scale_A),
        "input_map": _rel(np.linalg.norm(T_full @ G1 @ L1 @ U - G2 @ L2),
                          np.linalg.norm(G2 @ L2)),
        "feedthrough": _rel(np.linalg.norm(d1 - d2), np.linalg.norm(d2)),
        "output_map": _rel(np.linalg.norm(blk1 @ W1 - blk2 @ T_full @ W1),
                           np.linalg.norm(blk2)),
    }

    return FeedbackEquivalence(
        T=W2.T @ T_full @ W1,
        F=F_full @ W1,
        U=U,
        defects=defects,
    )


def verify_equivalence(sys1: AssociatedLti, sys2: AssociatedLti,
                       eq: FeedbackEquivalence) -> EquivalenceReport:
    """Check that (A1 + B1 F, B1 U, C1 + D1 F, D1 U) transformed by the
    state similarity T reproduces sys2, reporting per-matrix residuals."""
    T, F, U = eq.T, eq.F, eq.U
    if T.shape != (sys2.n_hat, sys1.n_hat):
        raise InputError("equivalence dimensions do not match the systems")
    A1f = sys1.A_l + sys1.B_l @ F
    C1f = sys1.C_l + sys1.D_l @ F
    residuals = {
        "A": _rel(np.linalg.norm(T @ A1f - sys2.A_l @ T), np.linalg.norm(sys2.A_l)),
        "B": _rel(np.linalg.norm(T @ sys1.B_l @ U - sys2.B_l), np.linalg.norm(sys2.B_l)),
        "C": _rel(np.linalg.norm(C1f - sys2.C_l @ T), np.linalg.norm(sys2.C_l)),
        "D": _rel(np.linalg.norm(sys1.D_l @ U - sys2.D_l), np.linalg.norm(sys2.D_l)),
    }
    return EquivalenceReport(residuals=residuals)


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0))
    M = rng.standard_normal((n, n))
    Q, Rq = np.linalg.qr(M)
    return Q * np.sign(np.diag(Rq))


def _well_conditioned(rng: np.random.Generator, n: int,
                      spread: float = 0.4) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0))
    while True:
        M = np.eye(n) + spread * rng.standard_normal((n, n))
        if np.linalg.cond(M) < 50.0:
            return M


def randomized_construction(base: ConstructionRecord, rng: np.random.Generator,
                            rank_tol: float = DEFAULT_RANK_TOL) -> ConstructionRecord:
    """An alternative legal reduction of the DAE that ``base`` reduces.

    Randomizes every free choice of the construction: the normalizing pair
    (S, T) within the family preserving S E T = diag(I_r, 0), the
    subspace basis, the friend (shifted along the input-kernel directions
    and off the subspace) and the column basis of L.
    """
    sys = base.sys
    n, m, r = base.cf.n, base.cf.m, base.cf.r

    # S' = M S, T' = T N with M = [[M11, M12], [0, M22]],
    # N = [[M11^{-1}, 0], [N21, N22]] keeps S' E T' = diag(I_r, 0).
    M11 = _well_conditioned(rng, r)
    M22 = _well_conditioned(rng, n - r)
    N22 = _well_conditioned(rng, n - r)
    M = np.zeros((n, n))
    M[:r, :r] = M11
    M[:r, r:] = 0.4 * rng.standard_normal((r, n - r))
    M[r:, r:] = M22
    N = np.zeros((n, n))
    if r:
        N[:r, :r] = np.linalg.inv(M11)
    N[r:, :r] = 0.4 * rng.standard_normal((n - r, r))
    N[r:, r:] = N22
    cf = canonical_form_from_transforms(sys, M @ base.cf.S, base.cf.T @ N,
                                        rank_tol)

    V = weakly_observable_subspace(cf, rank_tol)
    if V.dim != base.V.dim:
        raise InternalConsistencyError(
            "output-nulling dimension changed under a coordinate change"
        )
    O = _random_orthogonal(rng, V.dim)
    V = Subspace(V.basis @ O)

    F0 = friend(cf, V, rank_tol)
    L0 = input_kernel_matrix(cf, V, rank_tol)
    k = L0.shape[1]
    Z = 0.5 * rng.standard_normal((k, V.dim))
    Y = 0.5 * rng.standard_normal((cf.q_dim, r))
    F_tilde = F0 + L0 @ Z @ V.basis.T + Y @ V.perp_projector()
    L = L0 @ _well_conditioned(rng, k)
    ond = OutputNullingData(V=V, F_tilde=F_tilde, L=L)
    return assemble(cf, ond, rank_tol)
