"""Simulation, admissible-noise sampling and finite-horizon oracles.

The observed DAE is simulated through its own reduction: with the model
error treated as a free input, (F, A, I) is a control-form system, so its
associated linear system parametrizes exactly the pairs (x, f) that solve
d(Fx)/dt = A x + f.  Sampling the reduced input therefore always produces
consistent noise; the noise-free system (F, A) is handled the same way
with an empty input.

``finite_horizon_infimum`` is the package's brute-force oracle for the
Riccati value: it minimizes the finite-horizon cost over piecewise-constant
inputs using an exact per-step matrix-exponential discretization, so its
only error source is the input discretization itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dae import DaeSystem
from .errors import ConsistencyError, InputError
from .linalg import as_vector
from .lti import AssociatedLti, ConstructionRecord, construct, output_trajectory_from_v0
from .observer import EstimationProblem, Observer
from .riccati import LqWeights
from .signals import (
    SampledSignal,
    cost_discretization,
    integrate_lti,
    quadratic_form_series,
    simpson,
    uniform_grid,
)

DEFAULT_STEP = 1e-3
# Highest angular frequency of the sampled noise; low frequencies keep
# quadrature cross-checks of the ellipsoid radius accurate at the
# default step.
NOISE_MAX_FREQ = 0.5
# Share of the grid, at its end, that the trailing error is taken over.
TRAILING_FRACTION = 0.1


@dataclass(frozen=True)
class NoiseRealization:
    """One admissible draw (x0, f, eta) with its ellipsoid radius rho.

    ``x0`` is the initial value of Fx.  The latent reduced input ``g`` that
    generated f through the noise parametrization is kept so experiments
    can replay the exact trajectory; ``autonomous`` marks noise-free draws
    generated through the input-free reduction (f identically zero).
    """

    x0: np.ndarray
    f: SampledSignal
    eta: SampledSignal
    rho: float
    g: SampledSignal
    autonomous: bool = False


def noise_system(prob: EstimationProblem, noisy: bool = True) -> DaeSystem:
    """Control-form system whose trajectories are the (x, f) pairs; with
    ``noisy=False``, that of the noise-free DAE (empty input)."""
    n = prob.n
    B = np.eye(n) if noisy else np.zeros((n, 0))
    return DaeSystem(prob.obs.F.copy(), prob.obs.A.copy(), B)


def _smooth_signal(rng: np.random.Generator, dim: int,
                   grid: np.ndarray) -> SampledSignal:
    """Band-limited random signal: a few sinusoids per channel."""
    vals = np.zeros((dim, grid.size))
    for i in range(dim):
        for _ in range(3):
            amp = rng.uniform(-1.0, 1.0)
            freq = rng.uniform(0.05, NOISE_MAX_FREQ)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            vals[i] += amp * np.sin(freq * grid + phase)
    return SampledSignal(grid, vals)


def _rho(prob: EstimationProblem, x0: np.ndarray, f: SampledSignal,
         eta: SampledSignal) -> float:
    running = quadratic_form_series(prob.Q, f) + quadratic_form_series(prob.R, eta)
    return float(x0 @ prob.Q0 @ x0 + simpson(f.grid, running))


def sample_admissible(prob: EstimationProblem, t1: float, seed: int,
                      step: float = DEFAULT_STEP,
                      record: ConstructionRecord | None = None) -> NoiseRealization:
    """Draw a random admissible realization with rho <= 1.

    A random direction in the product space (reduced initial state, reduced
    noise input, output noise) is scaled so that the ellipsoid radius
    sqrt(rho) is uniform on [0, 1].  Deterministic under the seed.  Scaling
    is exact because rho is homogeneous of degree two.
    """
    rng = np.random.default_rng(seed)
    rec = record if record is not None else construct(noise_system(prob))
    lti = rec.lti
    grid = uniform_grid(t1, step)
    v0 = rng.standard_normal(lti.n_hat)
    g = _smooth_signal(rng, lti.k, grid)
    eta = _smooth_signal(rng, prob.p, grid)
    x, f, _ = output_trajectory_from_v0(lti, v0, g)
    x0 = prob.obs.F @ x.values[:, 0]
    rho_raw = _rho(prob, x0, f, eta)
    radius = rng.uniform(0.0, 1.0)
    alpha = radius / np.sqrt(rho_raw) if rho_raw > 0 else 0.0
    x0 = alpha * x0
    f = SampledSignal(grid, alpha * f.values)
    eta = SampledSignal(grid, alpha * eta.values)
    g = SampledSignal(grid, alpha * g.values)
    return NoiseRealization(x0=x0, f=f, eta=eta,
                            rho=_rho(prob, x0, f, eta), g=g)


def clean_realization(prob: EstimationProblem, t1: float, seed: int,
                      step: float = DEFAULT_STEP,
                      record: ConstructionRecord | None = None) -> NoiseRealization:
    """Noise-free realization: f = 0, eta = 0, random consistent x0.

    Drawn through the input-free reduction, so the trajectory solves
    d(Fx)/dt = A x exactly; x0 is normalized to unit length when nonzero.
    """
    rng = np.random.default_rng(seed)
    rec = record if record is not None \
        else construct(noise_system(prob, noisy=False))
    lti = rec.lti
    grid = uniform_grid(t1, step)
    v0 = rng.standard_normal(lti.n_hat)
    x0 = lti.C_s @ v0 if lti.n_hat else np.zeros(prob.n)
    x0 = prob.obs.F @ x0
    norm = float(np.linalg.norm(x0))
    if norm > 0:
        x0 = x0 / norm
    n = prob.n
    return NoiseRealization(
        x0=x0,
        f=SampledSignal.zeros(n, grid),
        eta=SampledSignal.zeros(prob.p, grid),
        rho=float(x0 @ prob.Q0 @ x0),
        g=SampledSignal.zeros(lti.k, grid),
        autonomous=True,
    )


def run_observer(obsv: Observer, y: SampledSignal) -> SampledSignal:
    """Drive the observer with a sampled output and return the scalar
    estimate trace (s(0) = 0)."""
    if y.dim != obsv.p:
        raise InputError(
            f"output signal dimension {y.dim} does not match observer "
            f"input dimension {obsv.p}"
        )
    s = integrate_lti(obsv.A_o, obsv.B_o, np.zeros(obsv.n_hat), y)
    return SampledSignal(y.grid.copy(), obsv.C_o @ s.values)


def finite_horizon_infimum(lti: AssociatedLti, w: LqWeights, E, v0,
                           t1: float, n_steps: int) -> float:
    """Exact minimum of the finite-horizon cost over piecewise-constant
    inputs on a uniform grid of ``n_steps`` intervals.

    Direct transcription with exact per-step discretization (state
    transition and running cost via one matrix exponential), minimized by
    the backward recursion for the resulting block-banded positive-definite
    quadratic.  Refining the grid can only decrease the value; as t1 and
    n_steps grow it converges to the Riccati value v0^T P v0.
    """
    if n_steps < 2:
        raise InputError("n_steps must be at least 2")
    if t1 <= 0:
        raise InputError("t1 must be positive")
    v0 = as_vector(v0, "v0")
    if v0.size != lti.n_hat:
        raise InputError(f"v0 must have length {lti.n_hat}")
    if lti.n_hat == 0:
        return 0.0
    E = np.asarray(E, dtype=float)
    h = t1 / n_steps
    Phi, Gamma, Qd, Nd, Rd = cost_discretization(
        lti.A_l, lti.B_l, lti.C_l, lti.D_l, w.S(), h
    )
    ECs = E @ lti.C_s
    P = ECs.T @ w.Q0 @ ECs
    P = 0.5 * (P + P.T)
    k = lti.k
    for _ in range(n_steps):
        if k:
            Ru = Rd + Gamma.T @ P @ Gamma
            Su = Nd + Phi.T @ P @ Gamma
            P = Qd + Phi.T @ P @ Phi - Su @ np.linalg.solve(Ru, Su.T)
        else:
            P = Qd + Phi.T @ P @ Phi
        P = 0.5 * (P + P.T)
    return float(v0 @ P @ v0)


@dataclass(frozen=True)
class ExperimentResult:
    """Full record of one estimation run."""

    y: SampledSignal
    estimate: SampledSignal
    truth: SampledSignal
    error: SampledSignal

    @property
    def final_sq_error(self) -> float:
        return float(self.error.values[0, -1] ** 2)

    @property
    def initial_abs_error(self) -> float:
        return float(abs(self.error.values[0, 0]))

    def trailing_max_abs_error(self) -> float:
        tail = max(1, int(self.error.grid.size * TRAILING_FRACTION))
        return float(np.max(np.abs(self.error.values[0, -tail:])))


def _coupled_system(lti: AssociatedLti, H, obsv: Observer):
    """(A, B) of the plant and the observer as one system.

    The state is [v; s] and the input [g; eta]: the reduced plant
    vdot = A_l v + B_l g  emits  y = H (C_s v + D_s g) + eta,  which drives
    sdot = A_o s + B_o y.  Integrating both together evaluates y at the RK4
    half steps exactly instead of interpolating its samples.
    """
    n, m = lti.n_hat, obsv.n_hat
    k, p = lti.k, obsv.p
    BH = obsv.B_o @ H
    A = np.zeros((n + m, n + m))
    A[:n, :n] = lti.A_l
    A[n:, :n] = BH @ lti.C_s
    A[n:, n:] = obsv.A_o
    B = np.zeros((n + m, k + p))
    B[:n, :k] = lti.B_l
    B[n:, :k] = BH @ lti.D_s
    B[n:, k:] = obsv.B_o
    return A, B


def run_estimation(prob: EstimationProblem, obsv: Observer,
                   realization: NoiseRealization, t1: float,
                   record: ConstructionRecord | None = None) -> ExperimentResult:
    """Simulate the observed DAE under a realization and run the observer.

    Plant and observer are integrated together as one linear system (see
    ``_coupled_system``).  ``record`` may carry the prebuilt reduction of
    the matching :func:`noise_system` to avoid reconstructing it per run.
    """
    if record is None:
        record = construct(noise_system(prob, not realization.autonomous))
    lti = record.lti
    if not lti.X.contains_vector(realization.x0):
        raise ConsistencyError(
            "realization initial state is inconsistent for the observed DAE"
        )
    if obsv.p != prob.p:
        raise InputError(
            f"output dimension {prob.p} does not match observer "
            f"input dimension {obsv.p}"
        )
    g = realization.g.truncated(t1)
    eta = realization.eta.truncated(t1)
    v0 = lti.Lambda @ realization.x0
    z = integrate_lti(*_coupled_system(lti, prob.obs.H, obsv),
                      np.concatenate([v0, np.zeros(obsv.n_hat)]),
                      SampledSignal(g.grid, np.vstack([g.values, eta.values])))
    v, s = z.values[:lti.n_hat], z.values[lti.n_hat:]
    x = lti.C_s @ v + lti.D_s @ g.values
    y = SampledSignal(g.grid, prob.obs.H @ x + eta.values)
    est = obsv.C_o @ s
    truth = (prob.ell @ prob.obs.F) @ x
    err = truth - est[0]
    return ExperimentResult(
        y=y,
        estimate=SampledSignal(g.grid, est),
        truth=SampledSignal(g.grid, truth.reshape(1, -1)),
        error=SampledSignal(g.grid, err.reshape(1, -1)),
    )


def estimation_experiment(prob: EstimationProblem, obsv: Observer,
                          realization: NoiseRealization, t1: float,
                          record: ConstructionRecord | None = None,
                          ) -> tuple[SampledSignal, float]:
    """Error trace  ell^T F x(t) - estimate(t)  on [0, t1] and the squared
    error at the final time."""
    result = run_estimation(prob, obsv, realization, t1, record)
    return result.error, result.final_sq_error
