"""Independent oracles used to derive expected values in the tests.

Each oracle deliberately takes a different computational route than the
code it checks: an SVD pseudoinverse, brute-force least squares, KKT
systems, textbook filter formulas via scipy's Riccati solver, and finite
differences.  The reference views at the end (costs by quadrature,
full trajectories from a reduced or a physical initial state, the
observer's integral kernel, the inverse of the duality map) are built on
the library's own pieces and exist only for the tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.linalg import expm, solve_continuous_are

from daeobs.dae import DaeSystem, ObservedDae
from daeobs.errors import ConsistencyError, InputError
from daeobs.linalg import (
    DEFAULT_RANK_TOL,
    Subspace,
    _rank,
    as_matrix,
    as_vector,
    require_spd,
    symmetrize,
)
from daeobs.lti import AssociatedLti, construct
from daeobs.riccati import LqWeights, RiccatiSolution
from daeobs.signals import (
    GRID_RTOL,
    SampledSignal,
    _apply,
    integrate_lti,
    quadratic_form_series,
    simpson,
    uniform_grid,
)
from daeobs.simulate import (
    NOISE_MAX_FREQ,
    NoiseRealization,
    _coupled_system,
    noise_system,
    run_estimation,
)


def pseudoinverse(M, rank_tol: float = DEFAULT_RANK_TOL,
                  scale: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse from an SVD cut at the library's
    relative rank threshold.

    Singular values below the threshold are treated as exactly zero, so
    rank-deficient inputs produce clean pseudoinverses (a zero matrix maps
    to a zero matrix).  ``scale`` optionally floors the threshold by the
    magnitude of the surrounding computation, so that matrices which are
    zero up to roundoff of that computation are treated as zero instead of
    being inverted into noise.
    """
    M = as_matrix(M)
    U, s, Vt = np.linalg.svd(M)
    return _pinv(U, s, Vt, _rank(s, M.shape, rank_tol, scale))


def _pinv(U: np.ndarray, s: np.ndarray, Vt: np.ndarray, r: int) -> np.ndarray:
    """Pseudoinverse read off a full SVD cut at rank r."""
    if r == 0:
        return np.zeros((Vt.shape[0], U.shape[0]))
    return (Vt[:r].T / s[:r]) @ U[:, :r].T


def rk4_loop(A, B, x0, h: float, U) -> np.ndarray:
    """Reference RK4 integration of  xdot = A x + B u,  one Python
    iteration per step, with u linearly interpolated at half steps.

    ``U`` holds one input sample per column; returns the states as
    columns, starting with x0.
    """
    A, B, U = (np.asarray(M, dtype=float) for M in (A, B, U))
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((x.size, U.shape[1]))
    out[:, 0] = x
    for i in range(U.shape[1] - 1):
        u0 = U[:, i]
        u1 = U[:, i + 1]
        um = 0.5 * (u0 + u1)
        k1 = A @ x + B @ u0
        k2 = A @ (x + 0.5 * h * k1) + B @ um
        k3 = A @ (x + 0.5 * h * k2) + B @ um
        k4 = A @ (x + h * k3) + B @ u1
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, i + 1] = x
    return out


def quadratic_form_series_reference(M, X) -> np.ndarray:
    """Samples x_t' M x_t of the columns x_t of X, as one einsum."""
    return np.einsum("it,ij,jt->t", X, M, X)


def smooth_signal_reference(rng, dim: int, grid) -> np.ndarray:
    """The sampled noise of ``simulate._smooth_signal`` as a plain loop:
    per channel, three (amp, freq, phase) draws and one full-grid sine
    each."""
    vals = np.zeros((dim, grid.size))
    for i in range(dim):
        for _ in range(3):
            amp = rng.uniform(-1.0, 1.0)
            freq = rng.uniform(0.05, NOISE_MAX_FREQ)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            vals[i] += amp * np.sin(freq * grid + phase)
    return vals


def image_basis(M, rank_tol: float = DEFAULT_RANK_TOL,
                scale: float = 0.0) -> Subspace:
    """Orthonormal basis of the column space of M, cut at the library's
    relative rank threshold."""
    M = as_matrix(M)
    m, n = M.shape
    if n == 0 or not np.any(M):
        return Subspace(np.zeros((m, 0)))
    U, s, _ = np.linalg.svd(M)
    r = _rank(s, M.shape, rank_tol, scale)
    return Subspace(U[:, :r].copy())


def vstar_loop(cf, rank_tol: float = 1e-10):
    """Reference output-nulling iteration, each step from scratch in R^r:
    V_{k+1} is the x-block image of the kernel of
    [(I - P_V)[A_tilde, G]; [C_tilde, D_tilde]], until the dimension
    repeats.  Nothing forces V_{k+1} into V_k here, so roundoff can keep
    the dimension from settling; that raises ``RuntimeError``.
    """
    from daeobs.geometric import _system_scale
    from daeobs.linalg import kernel_basis

    r = cf.r
    V = Subspace(np.eye(r))
    for _ in range(r + 1):
        Pp = V.perp_projector()
        M = np.vstack([np.hstack([Pp @ cf.A_tilde, Pp @ cf.G]),
                       np.hstack([cf.C_tilde, cf.D_tilde])])
        K = kernel_basis(M, rank_tol, scale=_system_scale(cf))
        Vn = image_basis(K.basis[:r, :], rank_tol)
        if Vn.dim == V.dim:
            return V
        V = Vn
    raise RuntimeError("output-nulling iteration failed to stabilize within r steps")


def friend_pinv(cf, V, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Reference friend from its own SVD: the minimum-norm least-squares
    solution of (I - P_V)(A_tilde v + G u) = 0, C_tilde v + D_tilde u = 0
    for each basis vector v of V, through the pseudoinverse of
    [(I - P_V) G; D_tilde] cut at the library's rank threshold.  No
    feasibility check; off V it acts as zero."""
    from daeobs.geometric import _system_scale

    if V.dim == 0 or cf.q_dim == 0:
        return np.zeros((cf.q_dim, cf.r))
    W = V.basis
    Pp = V.perp_projector()
    lhs = np.vstack([Pp @ cf.G, cf.D_tilde])
    rhs = -np.vstack([Pp @ cf.A_tilde @ W, cf.C_tilde @ W])
    return pseudoinverse(lhs, rank_tol, scale=_system_scale(cf)) @ rhs @ W.T


def nested_step(cf, Q, c: int, rank_tol: float = 1e-10):
    """One classical output-nulling step, searched inside V_k = Im Q[:, :c].

    With Q = [W, W_perp] orthogonal, V_{k+1} is W times the image of the
    y-block N_y of the kernel of
    M = [[W_perp' A_tilde W, W_perp' G], [C_tilde W, D_tilde]].
    The kernel cut keeps the shape and scale of the unrestricted stack
    [(I - P_V)[A_tilde, G]; [C_tilde, D_tilde]]; the image cut of N_y is
    floored at 1, the norm of the orthonormal kernel basis.  N_y is not
    formed: if [R_y, R_q] is an orthonormal basis of M's row space, the CS
    decomposition gives N_y and R_q the same singular values short of 1,
    so the vectors R_y' a, for the left singular vectors a of R_q cut
    under N_y's threshold, span exactly the lost directions.  Returns
    (Q', c') with V_{k+1} = Im Q'[:, :c']; Q' = Q when no direction is
    lost.  One SVD of an (r - c + p) x (c + q) block per step, so a chain
    that loses one direction per step costs O(r^4) in total.
    """
    from daeobs.geometric import _system_scale

    r = cf.r
    W, W_perp = Q[:, :c], Q[:, c:]
    p, q = cf.D_tilde.shape
    M = np.vstack([np.hstack([W_perp.T @ cf.A_tilde @ W, W_perp.T @ cf.G]),
                   np.hstack([cf.C_tilde @ W, cf.D_tilde])])
    _, s, Vt = np.linalg.svd(M)
    k = _rank(s, (r + p, r + q), rank_tol, _system_scale(cf))
    U, s_q, _ = np.linalg.svd(Vt[:k, c:])
    kept = _rank(s_q, (c, c + q - k), rank_tol, 1.0)
    c_next = c - k + kept
    if c_next in (0, c):
        return Q, c_next
    X = np.linalg.qr(Vt[:k, :c].T @ U[:, kept:], mode="complete")[0]
    lost = c - c_next
    return np.hstack([W @ X[:, lost:], W @ X[:, :lost], W_perp]), c_next


def nested_step_direct(cf, Q, c: int, rank_tol: float = 1e-10):
    """Reference for :func:`nested_step` that forms the kernel: the
    x-block image (cut floored at 1) of the kernel of
    [[W_perp' A_tilde W, W_perp' G], [C_tilde W, D_tilde]], W = Q[:, :c].
    Returns an orthonormal basis of V_{k+1} in R^r."""
    from daeobs.geometric import _system_scale

    W, W_perp = Q[:, :c], Q[:, c:]
    p, q = cf.D_tilde.shape
    M = np.vstack([np.hstack([W_perp.T @ cf.A_tilde @ W, W_perp.T @ cf.G]),
                   np.hstack([cf.C_tilde @ W, cf.D_tilde])])
    _, s, Vt = np.linalg.svd(M)
    k = _rank(s, (cf.r + p, cf.r + q), rank_tol, _system_scale(cf))
    return W @ image_basis(Vt[k:, :c].T, rank_tol, scale=1.0).basis


def pbh_stabilizable(A, B, rank_tol: float = 1e-9, margin: float = 1e-9) -> bool:
    """Reference Popov-Belevitch-Hautus test, one complex SVD per
    eigenvalue: every eigenvalue with Re lambda >= -margin * max(1, ||A||)
    must keep [A - lambda I, B] at full row rank.  The rank cut is floored
    by max(||A||, ||B||), so a block that vanishes up to roundoff (an
    uncontrollable mode with no inputs, seen through a rotation) counts
    as rank deficient."""
    from daeobs.linalg import _rank

    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    n = A.shape[0]
    margin_scale = max(1.0, float(np.linalg.norm(A))) if n else 1.0
    cut_scale = max(float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    for lam in np.linalg.eigvals(A):
        if lam.real < -margin * margin_scale:
            continue
        M = np.hstack([A - lam * np.eye(n), B]).astype(complex)
        s = np.linalg.svd(M, compute_uv=False)
        if _rank(s, M.shape, rank_tol, cut_scale) < n:
            return False
    return True


def schur_staircase_stabilizable(A, B) -> bool:
    """Reference stabilizability decision with the Schur split first.

    One ordered real Schur form A = Z T Z' puts first the modes with
    Re lambda < -PBH_EIG_MARGIN * max(1, |lambda|).  The left eigenvectors
    of the other modes are [0, w2] in these coordinates, so the pair is
    stabilizable exactly when the trailing (T22, Z2' B) is controllable,
    which Paige's staircase decides with the library's cut and floor.
    Raises ``InternalConsistencyError`` when LAPACK cannot reorder the
    modes across the margin."""
    from scipy.linalg import schur

    from daeobs.errors import InternalConsistencyError
    from daeobs.riccati import PBH_EIG_MARGIN, STAIRCASE_RANK_TOL

    A, B = as_matrix(A), as_matrix(B)
    n = A.shape[0]
    shape = (n, n + B.shape[1])
    scale = max(float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    try:
        T, Z, n_stable = schur(
            A, output="real",
            sort=lambda re, im: re < -PBH_EIG_MARGIN * max(1.0, float(np.hypot(re, im))))
    except np.linalg.LinAlgError as exc:
        raise InternalConsistencyError(
            f"stable/unstable Schur split of A failed: {exc}") from exc
    A, B = T[n_stable:, n_stable:], Z[:, n_stable:].T @ B
    while A.shape[0]:
        U, s, _ = np.linalg.svd(B)
        k = _rank(s, shape, STAIRCASE_RANK_TOL, scale)
        if k == 0:
            return False
        A = U.T @ A @ U
        A, B = A[k:, k:], A[k:, :k]
    return True


def hamiltonian_schur_are(A, B, C, D, S) -> np.ndarray:
    """Reference stabilizing Riccati solution by Laub's (1979) Schur
    method, without refinement: pre-transform with
    F = -(D'SD)^{-1} D'SC, take the ordered real Schur form of the 2n x 2n
    Hamiltonian [[A_bar, -G], [-Q_bar, -A_bar']] with its n stable
    eigenvalues first, and return P = U21 U11^{-1} of their basis."""
    from scipy.linalg import schur

    A, B, C, D, S = (np.asarray(M, dtype=float) for M in (A, B, C, D, S))
    n = A.shape[0]
    W = D.T @ S @ D
    F = -np.linalg.solve(W, D.T @ S @ C)
    A_bar = A + B @ F
    G = B @ np.linalg.solve(W, B.T)
    Cq = C + D @ F
    Q_bar = Cq.T @ S @ Cq
    H = np.block([[A_bar, -0.5 * (G + G.T)], [-0.5 * (Q_bar + Q_bar.T), -A_bar.T]])
    _, Z, sdim = schur(H, output="real", sort="lhp")
    if sdim != n:
        raise ValueError(f"Hamiltonian has {sdim} stable eigenvalues, expected {n}")
    P = np.linalg.solve(Z[:n, :n].T, Z[n:, :n].T).T
    return 0.5 * (P + P.T)


def penrose_defects(M: np.ndarray, Mp: np.ndarray) -> dict[str, float]:
    """Residuals of the four Moore-Penrose identities."""
    return {
        "MMpM": float(np.linalg.norm(M @ Mp @ M - M)),
        "MpMMp": float(np.linalg.norm(Mp @ M @ Mp - Mp)),
        "sym_MMp": float(np.linalg.norm((M @ Mp).T - M @ Mp)),
        "sym_MpM": float(np.linalg.norm((Mp @ M).T - Mp @ M)),
    }


def _zeroing_stack(A, G, C, D, p0, horizon: float, n_steps: int):
    """Output samples of  pdot = A p + G q, z = C p + D q  as an affine
    function of the stacked piecewise-constant input: z_stack = M q + b.
    State propagation is exact (per-step matrix exponential)."""
    A, G, C, D = map(np.atleast_2d, (A, G, C, D))
    r = A.shape[0]
    q_dim = G.shape[1]
    h = horizon / n_steps
    nz = r + q_dim
    Aaug = np.zeros((nz, nz))
    Aaug[:r, :r] = A
    Aaug[:r, r:] = G
    Ephi = expm(Aaug * h)
    Phi, Gam = Ephi[:r, :r], Ephi[:r, r:]
    p_dim = C.shape[0]
    M = np.zeros((n_steps * p_dim, n_steps * q_dim))
    b = np.zeros(n_steps * p_dim)
    frees = [np.eye(r)]
    for i in range(1, n_steps):
        frees.append(Phi @ frees[-1])
    for i in range(n_steps):
        b[i * p_dim:(i + 1) * p_dim] = C @ frees[i] @ p0
        M[i * p_dim:(i + 1) * p_dim, i * q_dim:(i + 1) * q_dim] += D
        for j in range(i):
            M[i * p_dim:(i + 1) * p_dim, j * q_dim:(j + 1) * q_dim] += \
                C @ frees[i - 1 - j] @ Gam
    return M, b, h


def friend_zeroing(A, G, C, D, F, p0, horizon: float, n_steps: int):
    """Constructive zeroing certificate for a state in the output-nulling
    subspace: simulate the friend-closed loop pdot = (A + G F) p exactly
    and report (max |z(t_i)|, input energy of q = F p)."""
    A, G, C, D, F = map(np.atleast_2d, (A, G, C, D, F))
    h = horizon / n_steps
    Phi = expm((A + G @ F) * h)
    p = np.asarray(p0, dtype=float)
    zmax = 0.0
    qen = 0.0
    Cz = C + D @ F
    for _ in range(n_steps + 1):
        z = Cz @ p
        zmax = max(zmax, float(np.linalg.norm(z)) if z.size else 0.0)
        q = F @ p
        qen += float(q @ q) * h
        p = Phi @ p
    return zmax, qen


def bounded_zeroing_lower_bound(A, G, C, D, p0, horizon: float, n_steps: int,
                                energy_budget: float,
                                eps_grid=(1e-3, 1e-4)) -> float:
    """Certified lower bound on the output energy achievable by inputs with
    bounded energy.

    For each regularization weight eps, min_q [||z||^2 + eps ||q||^2] is a
    Lagrangian whose value minus eps * energy_budget lower-bounds
    min {||z||^2 : ||q||^2 <= energy_budget}; the best bound over the grid
    is returned.  States admitting an exact zeroing input of bounded
    energy score ~0; all other states score strictly positive, including
    those zeroable only by impulsive (unbounded) inputs.
    """
    M, b, h = _zeroing_stack(A, G, C, D, p0, horizon, n_steps)
    n_q = M.shape[1]
    if n_q == 0:
        return float(np.sum(b ** 2) * h)
    best = -np.inf
    for eps in eps_grid:
        Areg = np.vstack([M, np.sqrt(eps) * np.eye(n_q)])
        breg = np.concatenate([-b, np.zeros(n_q)])
        q, *_ = np.linalg.lstsq(Areg, breg, rcond=None)
        z_en = float(np.sum((M @ q + b) ** 2) * h)
        q_en = float(np.sum(q ** 2) * h)
        best = max(best, z_en + eps * q_en - eps * energy_budget)
    return best


def classical_filter(A, H, Q, R):
    """Textbook stationary filter for  xdot = A x + f,  y = H x + eta
    with the same ellipsoidal weights: P solves
    A P + P A^T - P H^T R H P + Q^{-1} = 0 and the estimator is
    sdot = (A - L H) s + L y with L = P H^T R."""
    Qi = np.linalg.inv(Q)
    Ri = np.linalg.inv(R)
    P = solve_continuous_are(A.T, H.T, Qi, Ri)
    L = P @ H.T @ R
    return P, L, A - L @ H


def kkt_constrained_min(a: np.ndarray, Q0: np.ndarray, F: np.ndarray):
    """argmin over {d : F^T d = 0} of (a - d)^T Q0^{-1} (a - d).

    Solved through the bordered KKT system, an independent route from the
    kernel-basis formula.  Returns (d*, minimal value).
    """
    n = a.size
    Q0inv = np.linalg.inv(Q0)
    KKT = np.zeros((2 * n, 2 * n))
    KKT[:n, :n] = 2.0 * Q0inv
    KKT[:n, n:] = F
    KKT[n:, :n] = F.T
    rhs = np.concatenate([2.0 * Q0inv @ a, np.zeros(n)])
    sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
    d = sol[:n]
    val = float((a - d) @ Q0inv @ (a - d))
    return d, val


def q0_bar_reference(F, Q0, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Terminal weight of the adjoint control problem on the full space,
    from its own SVD of F^T: the n x n Q0_bar with
    w^T Q0_bar w = min{x^T Q0^{-1} x : F^T x = w} for w in Im F^T.

    With U an orthonormal basis of ker F^T, the correction
    d* = Lambda_opt w minimizes (F^T+ w - d)^T Q0^{-1} (F^T+ w - d) over
    {d : F^T d = 0}, where Lambda_opt = U (U^T Q0^{-1} U)^{-1} U^T Q0^{-1} F^T+
    (zero when ker F^T is trivial).  Then
    Q0_bar = (F^T+ - Lambda_opt)^T Q0^{-1} (F^T+ - Lambda_opt) is symmetric
    positive semidefinite, and w^T Q0_bar w is that constrained minimum.
    """
    F = as_matrix(F, "F")
    Q0_isqrt = require_spd(Q0, "Q0")[1]
    Q0inv = symmetrize(Q0_isqrt @ Q0_isqrt)
    n = F.shape[0]
    if F.shape != (n, n) or Q0inv.shape[0] != n:
        raise InputError("F must be square and Q0 of matching size")
    # F^T+ and ker F^T from one SVD (kernel_basis treats F = 0 as all of R^n).
    Us, s, Vt = np.linalg.svd(F.T)
    rank = _rank(s, F.shape, rank_tol)
    Ftp = _pinv(Us, s, Vt, rank)
    U = Vt[rank:].T.copy() if np.any(F) else np.eye(n)
    D = Ftp
    if U.shape[1]:
        D = Ftp - U @ np.linalg.solve(U.T @ Q0inv @ U, U.T @ Q0inv @ Ftp)
    return symmetrize(D.T @ Q0inv @ D)


def adversarial_error_lower_bound(prob, obsv, t1: float, step: float) -> float:
    """Exact worst-case squared error over a finite-dimensional family of
    admissible realizations.

    The final estimation error is linear in (v0, g, eta) and the ellipsoid
    radius rho is a quadratic form, so over the span of a finite atom set
    (reduced initial states, 12 sinusoid frequencies per noise channel)
    the supremum of err^2 subject to rho <= 1 is the generalized Rayleigh
    value L' W^+ L, with L the error functional and W the rho Gram matrix
    on the atoms.  This lower-bounds the true worst case, sandwiching
    sigma from below, up to the O(h^2) error of integrating sampled noise.
    Each atom is a :class:`NoiseRealization` run through
    :func:`run_estimation`, which drives the observer with the atom's
    plant samples.
    """
    rec = construct(noise_system(prob))
    lti = rec.lti
    empty = SampledSignal.zeros(0, uniform_grid(t1, step))
    grid = empty.grid
    freqs = np.linspace(0.05, 1.6, 12)
    atoms_g, atoms_eta = [], []
    for ch in range(lti.k):
        for f in freqs:
            for fn in (np.sin, np.cos):
                vals = np.zeros((lti.k, grid.size))
                vals[ch] = fn(f * grid)
                atoms_g.append(vals)
    for ch in range(prob.p):
        for f in freqs:
            for fn in (np.sin, np.cos):
                vals = np.zeros((prob.p, grid.size))
                vals[ch] = fn(f * grid)
                atoms_eta.append(vals)

    def inner(a, b):
        """The bilinear form of rho on two realizations."""
        run = np.einsum("it,ij,jt->t", a.f.values, prob.Q, b.f.values) \
            + np.einsum("it,ij,jt->t", a.eta.values, prob.R, b.eta.values)
        return float(a.x0 @ prob.Q0 @ b.x0 + simpson(empty.step, run))

    def realization(v0, gvals, evals):
        g = empty.with_values(gvals)
        x, f, v = output_trajectory_from_v0(lti, v0, g)
        real = NoiseRealization(x0=prob.obs.F @ x.values[:, 0], f=f,
                                eta=g.with_values(evals), rho=0.0, g=g, v=v)
        return replace(real, rho=inner(real, real))

    zeros_g = np.zeros((lti.k, grid.size))
    zeros_e = np.zeros((prob.p, grid.size))
    atoms = [realization(v0, zeros_g, zeros_e) for v0 in np.eye(lti.n_hat)]
    atoms += [realization(np.zeros(lti.n_hat), a, zeros_e) for a in atoms_g]
    atoms += [realization(np.zeros(lti.n_hat), zeros_g, a) for a in atoms_eta]
    L = np.array([run_estimation(prob, obsv, real, t1, rec).error.values[0, -1]
                  for real in atoms])
    dim = L.size
    W = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            W[i, j] = W[j, i] = inner(atoms[i], atoms[j])
    return float(L @ np.linalg.pinv(W, rcond=1e-10) @ L)


def _require_horizon(sig: SampledSignal, t1: float) -> None:
    """Raise InputError unless t1 is the last grid point of ``sig``."""
    if not abs(t1 - sig.grid[-1]) <= GRID_RTOL * max(1.0, sig.grid[-1]):
        raise InputError(f"t1 = {t1} is not the signal's horizon {sig.grid[-1]}")


def coupled_run_reference(prob, obsv, realization, t1: float, record):
    """(y, estimate, error) of one RK4 run of the plant and the observer
    integrated together as one system from [Lambda x0; 0], on the
    realization's inputs [g; eta], whose horizon t1 must be.

    This re-integrates the plant instead of reading the realization's
    kept samples v, so it checks that the observer run on v is the
    coupled run.
    """
    lti = record.lti
    g, eta = realization.g, realization.eta
    _require_horizon(g, t1)
    z = integrate_lti(*_coupled_system(lti, prob.obs.H, obsv),
                      np.concatenate([lti.Lambda @ realization.x0,
                                      np.zeros(obsv.n_hat)]),
                      g.with_values(np.vstack([g.values, eta.values])))
    v, s = z.values[:lti.n_hat], z.values[lti.n_hat:]
    x = lti.C_s @ v + lti.D_s @ g.values
    est = obsv.C_o @ s
    err = (prob.ell @ prob.obs.F) @ x - est[0]
    return prob.obs.H @ x + eta.values, est, err.reshape(1, -1)


def fd_dae_defect(E, A_hat, B_hat, x_sig, u_sig) -> float:
    """Max central-difference defect of d(Ex)/dt = A_hat x + B_hat u over
    interior grid points; O(h^2) for smooth trajectories."""
    grid = x_sig.grid
    h = grid[1] - grid[0]
    Ex = E @ x_sig.values
    dEx = (Ex[:, 2:] - Ex[:, :-2]) / (2.0 * h)
    rhs = A_hat @ x_sig.values[:, 1:-1] + B_hat @ u_sig.values[:, 1:-1]
    return float(np.max(np.linalg.norm(dEx - rhs, axis=0)))


def recover_input(lti, E, x_sig, u_sig):
    """Reconstruct the reduced input g from a DAE trajectory (x, u).

    Since D_l has full column rank, g(t) = D_l^+ ([x; u](t) - C_l v(t))
    with v = Lambda E x is the unique candidate; returns (g values, max
    pointwise reconstruction residual of [x; u] = C_l v + D_l g).
    """
    v = lti.Lambda @ (E @ x_sig.values)
    stacked = np.vstack([x_sig.values, u_sig.values])
    resid_free = stacked - lti.C_l @ v
    Dp = np.linalg.pinv(lti.D_l) if lti.D_l.size else np.zeros(
        (lti.D_l.shape[1], lti.D_l.shape[0]))
    g = Dp @ resid_free
    recon = lti.C_l @ v + lti.D_l @ g
    resid = float(np.max(np.abs(stacked - recon))) if stacked.size else 0.0
    return g, resid


def induced_observed(sys: DaeSystem) -> ObservedDae:
    """Inverse of ``dae.dual_dae``: the observed DAE a control-form system
    is adjoint to."""
    return ObservedDae(sys.E.T.copy(), sys.A_hat.T.copy(), -sys.B_hat.T)


def is_consistent(lti: AssociatedLti, E, x0) -> bool:
    """True iff E x0 lies in the consistency space X, i.e. the DAE admits
    a solution from x0 on every horizon."""
    E = as_matrix(E, "E")
    x0 = as_vector(x0, "x0")
    if E.shape != (lti.n, lti.n) or x0.size != lti.n:
        raise InputError("E or x0 dimensions do not match the system")
    return lti.X.contains_vector(E @ x0)


def output_trajectory_from_v0(lti: AssociatedLti, v0,
                              g: SampledSignal) -> tuple[SampledSignal, SampledSignal, SampledSignal]:
    """The full parametrization: integrate the reduced system from
    v(0) = v0 and map every sample to (x, u) = (C_s v + D_s g,
    C_inp v + D_inp g); returns (x, u, v)."""
    v = integrate_lti(lti.A_l, lti.B_l, v0, g)
    x_vals = _apply(lti.C_s, v.values) + _apply(lti.D_s, g.values)
    u_vals = _apply(lti.C_inp, v.values) + _apply(lti.D_inp, g.values)
    return g.with_values(x_vals), g.with_values(u_vals), v


def output_trajectory(lti: AssociatedLti, E, x0,
                      g: SampledSignal) -> tuple[SampledSignal, SampledSignal, SampledSignal]:
    """DAE trajectory (x, u) generated by the input g from the initial
    state x0, together with the reduced state v.

    Requires E x0 to be consistent; the reduced initial state is
    v(0) = Lambda (E x0), and Lambda (E x(t)) = v(t) holds along the
    result up to integration error.
    """
    E = as_matrix(E, "E")
    x0 = as_vector(x0, "x0")
    if not is_consistent(lti, E, x0):
        raise ConsistencyError(
            "initial state is inconsistent: E x0 is outside the "
            "consistency space, the DAE has no solution from it"
        )
    v0 = lti.Lambda @ (E @ x0)
    return output_trajectory_from_v0(lti, v0, g)


def optimal_cost(rs: RiccatiSolution, v0) -> float:
    """Infinite-horizon value v0^T P v0 for the reduced initial state v0."""
    v0 = as_vector(v0, "v0")
    if v0.size != rs.n_hat:
        raise InputError(f"v0 must have length {rs.n_hat}")
    return float(v0 @ rs.P @ v0)


def evaluate_cost(lti: AssociatedLti, w: LqWeights, E, v0,
                  g: SampledSignal, t1: float) -> float:
    """Finite-horizon cost of an explicit input on [0, t1], the horizon of
    ``g``: quadrature of the running term along the simulated trajectory
    plus the terminal term v(t1)^T (E C_s)^T Q0 (E C_s) v(t1)."""
    E = as_matrix(E, "E")
    v0 = as_vector(v0, "v0")
    ECs = E @ lti.C_s
    M_term = ECs.T @ w.Q0 @ ECs
    _require_horizon(g, t1)
    _, _, v = output_trajectory_from_v0(lti, v0, g)
    nu = SampledSignal(g.grid, lti.C_l @ v.values + lti.D_l @ g.values)
    running = simpson(g.step, quadratic_form_series(w.S(), nu))
    v_end = v.values[:, -1]
    return float(running + v_end @ M_term @ v_end)


def observer_kernel(obsv, t: float, s: float) -> np.ndarray:
    """Integral-kernel view of the observer at the pair (t, s), s <= t.

    The estimate admits the representation
    estimate(t) = int_0^t kernel(t, s)^T y(s) ds with
    kernel(t, s) = (C_o e^{A_o (t-s)} B_o)^T, a p-vector; applying it by
    quadrature reproduces the state-space observer's output.
    """
    if s > t:
        raise InputError(f"kernel requires s <= t, got s={s}, t={t}")
    if obsv.n_hat == 0:
        return np.zeros(obsv.p)
    return np.asarray(obsv.C_o @ expm(obsv.A_o * (t - s)) @ obsv.B_o).ravel()


def csv_rows_loop(header, columns) -> bytes:
    """Reference CSV bytes: one '%.12e' per value and one join per row, the
    way ``problem_io.write_csv`` formatted a trace row by row."""
    lines = [",".join(header) + "\n"]
    for i in range(len(columns[0])):
        lines.append(",".join("%.12e" % float(c[i]) for c in columns) + "\n")
    return "".join(lines).encode("utf-8")
