"""Infinite-horizon LQ synthesis on the associated linear system.

The cost  J(v0, g, t1) = v(t1)^T (E C_s)^T Q0 (E C_s) v(t1)
+ int_0^t1 (C_l v + D_l g)^T diag(Q, R) (C_l v + D_l g) dt  is minimized in
the limit t1 -> infinity by the state feedback g = -K v, where (P, K)
solve the algebraic Riccati equation

    0 = P A_l + A_l^T P - K^T (D_l^T S D_l) K + C_l^T S C_l,
    K = (D_l^T S D_l)^{-1} (B_l^T P + D_l^T S C_l),      S = diag(Q, R).

The solver pre-transforms to a standard problem with feedback
F_hat = -(D^T S D)^{-1} D^T S C and input scaling (D^T S D)^{-1/2}, solves
it by an ordered Schur decomposition of the Hamiltonian, and polishes the
result with Newton-Kleinman steps until the residual passes tolerance.
Stabilizability of (A_l, B_l) is the only existence condition; the solve
checks it itself before anything else (an ordered real Schur form splits
off the safely stable modes, a controllability staircase tests the rest),
so every caller gets the same decision.  The terminal weight Q0 does not
enter the equation because the optimal closed loop drives the state to
zero.

The optimal trajectories of the original DAE are then produced by the
dynamic controller (A_c, B_c, C_x, C_u):

    sdot = A_c s,  s(0) = B_c E x0,   x* = C_x s,  u* = C_u s,

with A_c = A_l - B_l K, C_x = C_s - D_s K, C_u = C_inp - D_inp K and
B_c = Lambda, which satisfies B_c E C_x = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, solve_continuous_lyapunov

from .errors import (
    IDENTITY_TOL,
    InputError,
    InternalConsistencyError,
    NotPositiveDefiniteError,
    NotStabilizableError,
    require,
)
from .linalg import (
    _rank,
    _svd,
    as_matrix,
    as_vector,
    inv_sqrt_spd,
    require_psd,
    require_spd,
    symmetrize,
)
from .lti import AssociatedLti, output_trajectory_from_v0
from .signals import SampledSignal, quadratic_form_series, simpson

DEFAULT_ARE_TOL = 1e-8
PBH_EIG_MARGIN = 1e-9
MAX_REFINE = 25


@dataclass(frozen=True)
class LqWeights:
    """State, input and terminal weights (Q > 0, R > 0, Q0 >= 0)."""

    Q: np.ndarray
    R: np.ndarray
    Q0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", require_spd(self.Q, "Q"))
        object.__setattr__(self, "R", require_spd(self.R, "R"))
        object.__setattr__(self, "Q0", require_psd(self.Q0, "Q0"))
        if self.Q0.shape[0] != self.Q.shape[0]:
            raise InputError("Q and Q0 must have equal size")

    def S(self) -> np.ndarray:
        """Block-diagonal running-cost weight diag(Q, R) on (x, u)."""
        n, m = self.Q.shape[0], self.R.shape[0]
        S = np.zeros((n + m, n + m))
        S[:n, :n] = self.Q
        S[n:, n:] = self.R
        return S


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing solution (P, K) and the (value, tol) pairs it measured."""

    P: np.ndarray
    K: np.ndarray
    residual: float
    closed_loop_spectrum: np.ndarray
    checks: dict[str, tuple[float, float]]

    @property
    def n_hat(self) -> int:
        return self.P.shape[0]

    def is_positive_definite(self, tol: float = 0.0) -> bool:
        if self.n_hat == 0:
            return True
        return bool(np.linalg.eigvalsh(self.P)[0] > tol)


@dataclass(frozen=True)
class DynamicController:
    """Autonomous realization of the optimal (x*, u*) trajectories."""

    A_c: np.ndarray
    B_c: np.ndarray
    C_x: np.ndarray
    C_u: np.ndarray
    checks: dict[str, tuple[float, float]]

    @property
    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvals(self.A_c) if self.A_c.size else np.zeros(0, complex)


def is_stabilizable(A_l, B_l, rank_tol: float = 1e-9) -> bool:
    """Whether every mode of A_l that is not safely stable is controllable.

    One ordered real Schur form A_l = Z T Z' puts first the modes with
    Re lambda < -PBH_EIG_MARGIN * max(1, |lambda|), a margin per eigenvalue.
    The left eigenvectors of the other modes are [0, w2] in these
    coordinates, so the pair is stabilizable exactly when the trailing
    (T22, Z2' B_l) is controllable.  Paige's staircase decides that: it
    compresses B by an orthogonal change of basis and passes the part of
    T22 that B does not reach on as the next pair, until a step reaches
    nothing (not stabilizable) or nothing is left.  Every cut is scaled by
    the shape of [A_l, B_l] and floored by max(||A_l||, ||B_l||), so a mode
    at 0 that B_l reaches only through roundoff counts as unreached.  When
    LAPACK cannot separate the modes across the margin (ill-conditioned
    clusters on it), the decision is undefined and
    :class:`InternalConsistencyError` is raised.
    """
    A = as_matrix(A_l, "A_l")
    B = as_matrix(B_l, "B_l")
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise InputError("A_l must be square and B_l must match its rows")
    shape = (n, n + B.shape[1])
    scale = max(float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    try:
        T, Z, n_stable = schur(
            A, output="real",
            sort=lambda re, im: re < -PBH_EIG_MARGIN * max(1.0, float(np.hypot(re, im))))
    except np.linalg.LinAlgError as exc:
        raise InternalConsistencyError(
            f"stable/unstable Schur split of A_l failed: {exc}") from exc
    A, B = T[n_stable:, n_stable:], Z[:, n_stable:].T @ B
    while A.shape[0]:
        U, s, _ = _svd(B)
        k = _rank(s, shape, rank_tol, scale)
        if k == 0:
            return False
        A = U.T @ A @ U
        A, B = A[k:, k:], A[k:, :k]
    return True


def solve_are_blocks(A_l, B_l, C_l, D_l, S,
                     are_tol: float = DEFAULT_ARE_TOL) -> RiccatiSolution:
    """Core Riccati solve on raw system blocks.

    Accepts any symmetric S with D_l^T S D_l positive definite; the public
    entry point builds S from validated weights.  Stabilizability of
    (A_l, B_l) is decided here, once, by :func:`is_stabilizable`; a system
    that fails it raises :class:`NotStabilizableError`.  The returned P is the
    stabilizing positive-semidefinite solution (positive definite whenever
    the running cost is observable, which holds for every system built
    from weights Q > 0).  The residual, closed-loop stability and P >= 0
    are enforced on every path, including the k = 0 Lyapunov solve.
    """
    A = as_matrix(A_l, "A_l")
    B = as_matrix(B_l, "B_l")
    C = as_matrix(C_l, "C_l")
    D = as_matrix(D_l, "D_l")
    S = as_matrix(S, "S")
    if not is_stabilizable(A, B):
        raise NotStabilizableError("associated linear system is not stabilizable")
    n = A.shape[0]
    k = B.shape[1]
    if n == 0:
        return RiccatiSolution(np.zeros((0, 0)), np.zeros((k, 0)), 0.0,
                               np.zeros(0, complex), {"are_residual": (0.0, are_tol)})

    CSC = symmetrize(C.T @ S @ C)
    if k == 0:
        P = symmetrize(solve_continuous_lyapunov(A.T, -CSC))
        K = np.zeros((0, n))
        residual = float(np.linalg.norm(P @ A + A.T @ P + CSC))
    else:
        W = symmetrize(D.T @ S @ D)
        try:
            W_isqrt = inv_sqrt_spd(W, "input-weight block D_l' S D_l")
        except NotPositiveDefiniteError as exc:
            raise InternalConsistencyError(str(exc)) from exc
        Winv = W_isqrt @ W_isqrt
        F_hat = -Winv @ (D.T @ S @ C)
        A_bar = A + B @ F_hat
        G = symmetrize(B @ Winv @ B.T)
        Cq = C + D @ F_hat
        Q_bar = symmetrize(Cq.T @ S @ Cq)

        H = np.zeros((2 * n, 2 * n))
        H[:n, :n] = A_bar
        H[:n, n:] = -G
        H[n:, :n] = -Q_bar
        H[n:, n:] = -A_bar.T
        _, Z, sdim = schur(H, output="real", sort="lhp")
        if sdim != n:
            raise InternalConsistencyError(
                f"Hamiltonian stable invariant subspace has dimension {sdim}, "
                f"expected {n} (eigenvalues too close to the imaginary axis)"
            )
        U11 = Z[:n, :n]
        U21 = Z[n:, :n]
        P = symmetrize(np.linalg.solve(U11.T, U21.T).T)

        for _ in range(MAX_REFINE):
            K = Winv @ (B.T @ P + D.T @ S @ C)
            res_mat = P @ A + A.T @ P - K.T @ W @ K + CSC
            residual = float(np.linalg.norm(res_mat))
            if residual <= are_tol * (1.0 + float(np.linalg.norm(P))):
                break
            A_cl = A - B @ K
            P = symmetrize(solve_continuous_lyapunov(A_cl.T, -(Q_bar + P @ G @ P)))
        else:
            raise InternalConsistencyError(
                f"Riccati refinement stalled at residual {residual:.3e}"
            )

    P_tol = are_tol * (1.0 + float(np.linalg.norm(P)))
    checks = {"are_residual": require("Riccati residual", residual, P_tol)}
    spectrum = np.linalg.eigvals(A - B @ K)
    max_re = float(np.max(spectrum.real))
    if max_re >= 0:
        raise InternalConsistencyError(
            "closed loop A_l - B_l K is not stable after the Riccati solve"
        )
    checks["closed_loop_max_real_part"] = (max_re, 0.0)
    require("P >= 0", -np.linalg.eigvalsh(P)[0], P_tol)
    return RiccatiSolution(P, K, residual, spectrum, checks)


def solve_are(lti: AssociatedLti, w: LqWeights,
              are_tol: float = DEFAULT_ARE_TOL) -> RiccatiSolution:
    """Stabilizing solution of the associated LQ Riccati equation."""
    if w.Q.shape[0] != lti.n or w.R.shape[0] != lti.m:
        raise InputError("weight sizes do not match the system")
    return solve_are_blocks(lti.A_l, lti.B_l, lti.C_l, lti.D_l, w.S(), are_tol)


def assemble_controller(lti: AssociatedLti, rs: RiccatiSolution,
                        E) -> DynamicController:
    """Optimal dynamic controller (A_c, B_c, C_x, C_u) from a Riccati
    solution; verifies the defining identity B_c E C_x = I."""
    E = as_matrix(E, "E")
    if rs.K.shape != (lti.k, lti.n_hat):
        raise InputError("Riccati solution does not match the system")
    C_x = lti.C_s - lti.D_s @ rs.K
    defect = require("B_c E C_x = I",
                     np.linalg.norm(lti.Lambda @ E @ C_x - np.eye(lti.n_hat)),
                     IDENTITY_TOL * (1.0 + float(np.linalg.norm(E))))
    return DynamicController(
        A_c=lti.A_l - lti.B_l @ rs.K,
        B_c=lti.Lambda.copy(),
        C_x=C_x,
        C_u=lti.C_inp - lti.D_inp @ rs.K,
        checks={"Bc_E_Cx_minus_I": defect},
    )


def optimal_cost(rs: RiccatiSolution, v0) -> float:
    """Infinite-horizon value v0^T P v0 for the reduced initial state v0."""
    v0 = as_vector(v0, "v0")
    if v0.size != rs.n_hat:
        raise InputError(f"v0 must have length {rs.n_hat}")
    return float(v0 @ rs.P @ v0)


def evaluate_cost(lti: AssociatedLti, w: LqWeights, E, v0,
                  g: SampledSignal, t1: float) -> float:
    """Finite-horizon cost of an explicit input: quadrature of the running
    term along the simulated trajectory plus the terminal term
    v(t1)^T (E C_s)^T Q0 (E C_s) v(t1)."""
    E = as_matrix(E, "E")
    v0 = as_vector(v0, "v0")
    ECs = E @ lti.C_s
    M_term = ECs.T @ w.Q0 @ ECs
    if t1 == 0:
        return float(v0 @ M_term @ v0)
    g = g.truncated(t1)
    _, _, v = output_trajectory_from_v0(lti, v0, g)
    nu = SampledSignal(g.grid, lti.C_l @ v.values + lti.D_l @ g.values)
    running = simpson(g.grid, quadratic_form_series(w.S(), nu))
    v_end = v.values[:, -1]
    return float(running + v_end @ M_term @ v_end)
