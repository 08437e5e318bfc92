"""Minimax observer synthesis for observed DAEs.

For  d(Fx)/dt = A x + f,  y = H x + eta  with (x0, f, eta) confined to the
ellipsoid  x0^T Q0 x0 + int (f^T Q f + eta^T R eta) dt <= 1,  the linear
estimator of ell^T F x(t) with the smallest worst-case asymptotic squared
error is obtained by duality:

1. form the adjoint control-form system (F^T, A^T, -H^T),
2. reduce it to its associated linear system and solve the LQ Riccati
   equation with the inverted weights X = diag(Q^{-1}, R^{-1}),
3. transpose the resulting dynamic controller into the observer

       sdot = A_c^T s + C_u^T y,  s(0) = 0,   estimate = ell^T F B_c^T s,

whose worst-case error is  sigma = ell^T F Lambda^T P Lambda F^T ell.

A single synthesis serves every functional ell: only the output row and
sigma depend on it.  The functional is estimable exactly when F^T ell lies
in the adjoint system's consistency space; otherwise the adjoint DAE has
no solution on the whole time axis and no minimax observer exists for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .dae import ObservedDae, dual_dae
from .errors import InestimableError, InputError, NotStabilizableError
from .linalg import (
    DEFAULT_RANK_TOL,
    _pinv,
    _rank,
    _svd,
    as_matrix,
    as_vector,
    require_spd,
    require_spd_inverse,
    symmetrize,
)
from .lti import ConstructionRecord, construct
from .riccati import (
    DEFAULT_ARE_TOL,
    DynamicController,
    LqWeights,
    RiccatiSolution,
    assemble_controller,
    solve_are,
)


@dataclass(frozen=True)
class EstimationProblem:
    """Observed DAE, ellipsoid weights and the target functional ell."""

    obs: ObservedDae
    Q0: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    ell: np.ndarray

    def __post_init__(self):
        n, p = self.obs.n, self.obs.p
        Q0 = require_spd(self.Q0, "Q0")
        Q = require_spd(self.Q, "Q")
        R = require_spd(self.R, "R")
        ell = as_vector(self.ell, "ell")
        if Q0.shape[0] != n or Q.shape[0] != n:
            raise InputError("Q0 and Q must be n x n")
        if R.shape[0] != p:
            raise InputError("R must be p x p")
        if ell.size != n:
            raise InputError(f"ell must have length {n}")
        object.__setattr__(self, "Q0", Q0)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "ell", ell)

    @property
    def n(self) -> int:
        return self.obs.n

    @property
    def p(self) -> int:
        return self.obs.p


@dataclass(frozen=True)
class Observer:
    """Stable realization of a minimax estimator.

    sdot = A_o s + B_o y from s(0) = 0, estimate = C_o s; sigma is the
    guaranteed worst-case asymptotic squared error, P the Riccati solution
    of the adjoint problem and Lambda the reduction map (F^T C_s)^+.
    """

    A_o: np.ndarray
    B_o: np.ndarray
    C_o: np.ndarray
    sigma: float
    P: np.ndarray
    Lambda: np.ndarray

    @property
    def n_hat(self) -> int:
        return self.A_o.shape[0]

    @property
    def p(self) -> int:
        return self.B_o.shape[1]

    @property
    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvals(self.A_o) if self.A_o.size else np.zeros(0, complex)


def q0_bar(F, Q0, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Terminal weight of the adjoint control problem.

    With U an orthonormal basis of ker F^T, the correction
    d* = Lambda_opt w minimizes (F^T+ w - d)^T Q0^{-1} (F^T+ w - d) over
    {d : F^T d = 0}, where Lambda_opt = U (U^T Q0^{-1} U)^{-1} U^T Q0^{-1} F^T+
    (zero when ker F^T is trivial).  Then
    Q0_bar = (F^T+ - Lambda_opt)^T Q0^{-1} (F^T+ - Lambda_opt) is symmetric
    positive semidefinite, and w^T Q0_bar w is that constrained minimum.
    """
    F = as_matrix(F, "F")
    Q0, Q0inv = require_spd_inverse(Q0, "Q0")
    n = F.shape[0]
    if F.shape != (n, n) or Q0.shape[0] != n:
        raise InputError("F must be square and Q0 of matching size")
    # F^T+ and ker F^T from one SVD (kernel_basis treats F = 0 as all of R^n).
    Us, s, Vt = _svd(F.T)
    rank = _rank(s, F.shape, rank_tol)
    Ftp = _pinv(Us, s, Vt, rank)
    U = Vt[rank:].T.copy() if np.any(F) else np.eye(n)
    D = Ftp
    if U.shape[1]:
        D = Ftp - U @ np.linalg.solve(U.T @ Q0inv @ U, U.T @ Q0inv @ Ftp)
    return symmetrize(D.T @ Q0inv @ D)


@dataclass(frozen=True)
class ObserverSynthesis:
    """The functional-independent part of a minimax observer.

    Produced once per (F, A, H, Q0, Q, R); :meth:`for_ell` specializes it
    to a target functional, recomputing only the output row and sigma.
    """

    obs: ObservedDae
    Q0: np.ndarray
    dual: ConstructionRecord
    weights: LqWeights
    ricc: RiccatiSolution
    ctrl: DynamicController

    @property
    def n_hat(self) -> int:
        return self.ricc.n_hat

    def is_estimable(self, ell) -> bool:
        ell = as_vector(ell, "ell")
        if ell.size != self.obs.n:
            raise InputError(f"ell must have length {self.obs.n}")
        return self.dual.lti.X.contains_vector(self.obs.F.T @ ell)

    def _output_row(self, ell) -> np.ndarray:
        """ell^T F Lambda^T; raises :class:`InestimableError` unless ell
        is estimable."""
        if not self.is_estimable(ell):
            raise InestimableError(
                "functional is not estimable: the adjoint DAE has no "
                "solution on the whole time axis for F^T ell"
            )
        return (as_vector(ell, "ell") @ self.obs.F) @ self.ctrl.B_c.T

    def worst_case_error(self, ell) -> float:
        """sigma = ell^T F Lambda^T P Lambda F^T ell for an estimable ell."""
        row = self._output_row(ell)
        return max(float(row @ self.ricc.P @ row), 0.0)

    def for_ell(self, ell) -> Observer:
        return Observer(
            A_o=self.ctrl.A_c.T.copy(),
            B_o=self.ctrl.C_u.T.copy(),
            C_o=self._output_row(ell).reshape(1, -1),
            sigma=self.worst_case_error(ell),
            P=self.ricc.P,
            Lambda=self.ctrl.B_c,
        )


def synthesize_estimator(obs: ObservedDae, Q0, Q, R,
                         rank_tol: float = DEFAULT_RANK_TOL,
                         are_tol: float = DEFAULT_ARE_TOL,
                         dual_record: ConstructionRecord | None = None) -> ObserverSynthesis:
    """Run the adjoint reduction and Riccati solve shared by all functionals.

    ``dual_record`` lets callers inject an alternative (e.g. randomized)
    reduction of the adjoint system; every choice yields the same sigma.
    """
    Q0 = require_spd(Q0, "Q0")
    Q, Q_inv = require_spd_inverse(Q, "Q")
    R, R_inv = require_spd_inverse(R, "R")
    if Q0.shape[0] != obs.n or Q.shape[0] != obs.n or R.shape[0] != obs.p:
        raise InputError("weight sizes do not match the observed system")
    adj = dual_dae(obs)
    rec = dual_record if dual_record is not None else construct(adj, rank_tol)
    if dual_record is not None and rec.sys is not adj:
        E_match = np.allclose(rec.sys.E, adj.E) and \
            np.allclose(rec.sys.A_hat, adj.A_hat) and \
            np.allclose(rec.sys.B_hat, adj.B_hat)
        if not E_match:
            raise InputError("dual_record was not built from the adjoint system")
    lti = rec.lti
    weights = LqWeights(Q=Q_inv, R=R_inv,
                        Q0=q0_bar(obs.F, Q0, rank_tol))
    try:
        ricc = solve_are(lti, weights, are_tol)
    except NotStabilizableError as exc:
        raise NotStabilizableError(
            "the linear system associated with the adjoint DAE is not "
            "stabilizable (detectability-type existence condition fails)"
        ) from exc
    ctrl = assemble_controller(lti, ricc, adj.E)
    return ObserverSynthesis(obs=obs, Q0=Q0, dual=rec, weights=weights,
                             ricc=ricc, ctrl=ctrl)


def synthesize(prob: EstimationProblem,
               rank_tol: float = DEFAULT_RANK_TOL,
               are_tol: float = DEFAULT_ARE_TOL) -> Observer:
    """Minimax observer for the problem's functional ell."""
    synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R,
                                 rank_tol, are_tol)
    return synth.for_ell(prob.ell)


def worst_case_bound(synth: ObserverSynthesis, ell, t1: float) -> float:
    """Rigorous finite-horizon bound on the squared estimation error.

    For every admissible realization on [0, t1] the squared error at t1 is
    at most sigma plus the terminal cost of the adjoint optimal trajectory,
    which decays with the closed-loop modes:

        bound = sigma + v*(t1)^T (E C_s)^T Q0_bar (E C_s) v*(t1),
        v*(t) = e^{A_c t} B_c F^T ell.
    """
    ell = as_vector(ell, "ell")
    sigma = synth.worst_case_error(ell)
    ctrl = synth.ctrl
    if synth.n_hat == 0:
        return sigma
    v0 = ctrl.B_c @ (synth.obs.F.T @ ell)
    vt = expm(ctrl.A_c * t1) @ v0
    ECs = synth.obs.F.T @ synth.dual.lti.C_s
    gap = float(vt @ (ECs.T @ synth.weights.Q0 @ ECs) @ vt)
    return sigma + max(gap, 0.0)
