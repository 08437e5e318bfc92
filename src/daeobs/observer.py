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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .dae import ObservedDae, dual_dae, same_system
from .errors import InestimableError, InputError, NotStabilizableError
from .linalg import DEFAULT_RANK_TOL, as_vector, block_diag, require_spd, symmetrize
from .lti import ConstructionRecord, construct
from .riccati import (
    DEFAULT_ARE_TOL,
    DynamicController,
    RiccatiSolution,
    assemble_controller,
    solve_are_blocks,
)


@dataclass(frozen=True)
class EstimationProblem:
    """Observed DAE, ellipsoid weights and the target functional ell.

    The one place the weights are decided; ``X`` = diag(Q^{-1}, R^{-1}) is
    the adjoint's running weight, formed from those same decisions.
    """

    obs: ObservedDae
    Q0: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    ell: np.ndarray
    X: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, p = self.obs.n, self.obs.p
        Q0 = require_spd(self.Q0, "Q0")[0]
        Q, Q_isqrt = require_spd(self.Q, "Q")
        R, R_isqrt = require_spd(self.R, "R")
        ell = as_vector(self.ell, "ell")
        if Q0.shape[0] != n or Q.shape[0] != n:
            raise InputError("Q0 and Q must be n x n")
        if R.shape[0] != p:
            raise InputError("R must be p x p")
        if ell.size != n:
            raise InputError(f"ell must have length {n}")
        X = block_diag(symmetrize(Q_isqrt @ Q_isqrt),
                       symmetrize(R_isqrt @ R_isqrt))
        for name, value in (("Q0", Q0), ("Q", Q), ("R", R), ("ell", ell),
                            ("X", X)):
            object.__setattr__(self, name, value)

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
    guaranteed worst-case asymptotic squared error.  The adjoint Riccati
    solution and reduction behind it stay on :class:`ObserverSynthesis`.
    """

    A_o: np.ndarray
    B_o: np.ndarray
    C_o: np.ndarray
    sigma: float

    @property
    def n_hat(self) -> int:
        return self.A_o.shape[0]

    @property
    def p(self) -> int:
        return self.B_o.shape[1]

    @property
    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvals(self.A_o)


def q0_bar(rec: ConstructionRecord, Q0) -> np.ndarray:
    """Terminal weight of the adjoint control problem on its reduced state.

    For w in Im F^T the paper's weight is w^T Q0_bar w = min{x^T Q0^{-1} x :
    F^T x = w}.  ``rec`` reduces the adjoint, whose E = F^T factors as
    S^{-1}[:, :r] Z with Z = (S E)[:r] the first r rows of T^{-1}, and
    E C_s = S^{-1}[:, :r] W with W the V* basis.  So w = E C_s v holds
    exactly when Z x = W v, and the minimum is v^T W^T (Z Q0 Z^T)^{-1} W v:
    one r x r solve for any legal (S, T), with no rank decision and no
    inverse of Q0.  ``Q0`` must already be decided, as
    :class:`EstimationProblem` does.
    """
    cf = rec.cf
    Z = cf.S[:cf.r] @ cf.sys.E
    W = rec.V.basis
    return symmetrize(W.T @ np.linalg.solve(Z @ Q0 @ Z.T, W))


@dataclass(frozen=True)
class ObserverSynthesis:
    """The functional-independent part of a minimax observer.

    Produced once per (F, A, H, Q0, Q, R); :meth:`for_ell` specializes it
    to a target functional, recomputing only the output row and sigma.
    ``Q0_bar`` is the n_hat x n_hat terminal weight of :func:`q0_bar`,
    which only :func:`worst_case_bound` reads.
    """

    obs: ObservedDae
    Q0_bar: np.ndarray
    dual: ConstructionRecord
    ricc: RiccatiSolution
    ctrl: DynamicController

    @property
    def n_hat(self) -> int:
        return self.ricc.n_hat

    def _output_row(self, ell) -> np.ndarray:
        """ell^T F Lambda^T, which is also v*(0) = Lambda F^T ell; raises
        :class:`InestimableError` unless ell is estimable."""
        ell = as_vector(ell, "ell")
        if ell.size != self.obs.n:
            raise InputError(f"ell must have length {self.obs.n}")
        if not self.dual.lti.X.contains_vector(self.obs.F.T @ ell):
            raise InestimableError(
                "functional is not estimable: the adjoint DAE has no "
                "solution on the whole time axis for F^T ell"
            )
        return (ell @ self.obs.F) @ self.ctrl.B_c.T

    def _sigma(self, row: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = float(row @ self.ricc.P @ row)
        return max(_finite(sigma, "sigma"), 0.0)

    def for_ell(self, ell) -> Observer:
        row = self._output_row(ell)
        return Observer(
            A_o=self.ctrl.A_c.T.copy(),
            B_o=self.ctrl.C_u.T.copy(),
            C_o=row.reshape(1, -1),
            sigma=self._sigma(row),
        )


def estimator_synthesis(prob: EstimationProblem,
                        rank_tol: float = DEFAULT_RANK_TOL,
                        are_tol: float = DEFAULT_ARE_TOL,
                        dual_record: ConstructionRecord | None = None) -> ObserverSynthesis:
    """Run the adjoint reduction and Riccati solve shared by all functionals
    on the weights ``prob`` has decided.

    ``dual_record`` lets callers inject an alternative (e.g. randomized)
    reduction of the adjoint system; every choice yields the same sigma.
    """
    adj = dual_dae(prob.obs)
    rec = dual_record if dual_record is not None else construct(adj, rank_tol)
    if dual_record is not None and not same_system(rec.sys, adj):
        raise InputError("dual_record was not built from the adjoint system")
    lti = rec.lti
    try:
        ricc = solve_are_blocks(lti.A_l, lti.B_l, lti.C_l, lti.D_l, prob.X,
                                are_tol)
    except NotStabilizableError as exc:
        raise NotStabilizableError(
            "the linear system associated with the adjoint DAE is not "
            "stabilizable (detectability-type existence condition fails)"
        ) from exc
    ctrl = assemble_controller(lti, ricc, adj.E)
    return ObserverSynthesis(obs=prob.obs, Q0_bar=q0_bar(rec, prob.Q0),
                             dual=rec, ricc=ricc, ctrl=ctrl)


def synthesize_estimator(obs: ObservedDae, Q0, Q, R,
                         rank_tol: float = DEFAULT_RANK_TOL,
                         are_tol: float = DEFAULT_ARE_TOL,
                         dual_record: ConstructionRecord | None = None) -> ObserverSynthesis:
    """:func:`estimator_synthesis` for raw weights, which
    :class:`EstimationProblem` decides with the zero functional."""
    prob = EstimationProblem(obs, Q0, Q, R, np.zeros(obs.n))
    return estimator_synthesis(prob, rank_tol, are_tol, dual_record)


def synthesize(prob: EstimationProblem,
               rank_tol: float = DEFAULT_RANK_TOL,
               are_tol: float = DEFAULT_ARE_TOL) -> Observer:
    """Minimax observer for the problem's functional ell."""
    return estimator_synthesis(prob, rank_tol, are_tol).for_ell(prob.ell)


def worst_case_bound(synth: ObserverSynthesis, ell, t1: float) -> float:
    """Rigorous finite-horizon bound on the squared estimation error.

    For every admissible realization on [0, t1] the squared error at t1 is
    at most sigma plus the terminal cost of the adjoint optimal trajectory,
    which decays with the closed-loop modes:

        bound = sigma + v*(t1)^T Q0_bar v*(t1),
        v*(t) = e^{A_c t} B_c F^T ell,

    with Q0_bar the reduced terminal weight of :func:`q0_bar`.  scipy's
    expm overflows from an argument 1-norm of about 2^128, so e^{A_c t1}
    is (e^{A_c t1 / 2^j})^(2^j), with j > 0 only where ||A_c||_1 t1
    reaches 2^64, squared with over/underflow warnings off: at a huge t1
    the decaying transient underflows to 0 and the bound is sigma.
    Raises :class:`InputError` unless t1 is finite and nonnegative, or if
    the bound overflows.
    """
    if not 0.0 <= t1 < np.inf:
        raise InputError(f"t1 must be finite and nonnegative, got {t1}")
    row = synth._output_row(ell)
    sigma = synth._sigma(row)
    if synth.n_hat == 0:
        return sigma
    A_c = synth.ctrl.A_c
    j = max(0, int(np.frexp(np.linalg.norm(A_c, 1))[1] + np.frexp(t1)[1]) - 64)
    eA = expm(A_c * np.ldexp(t1, -j))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for _ in range(j):
            eA = eA @ eA
        vt = eA @ row
        bound = sigma + max(float(vt @ synth.Q0_bar @ vt), 0.0)
    return _finite(bound, "the worst-case error bound")


def _finite(value: float, name: str) -> float:
    """``value``, or an :class:`InputError` naming it if it overflowed."""
    if not np.isfinite(value):
        raise InputError(f"{name} overflows the float range: scale ell down")
    return value
