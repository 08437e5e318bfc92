"""Simulation, admissible-noise sampling and finite-horizon oracles.

The observed DAE is simulated through its own reduction: with the model
error treated as a free input, (F, A, I) is a control-form system, so its
associated linear system parametrizes exactly the pairs (x, f) that solve
d(Fx)/dt = A x + f.  Sampling the reduced input therefore always produces
consistent noise; the noise-free system (F, A) is handled the same way
with an empty input.  The sampled noise is a few sinusoids per channel,
evaluated by blocked angle addition from about 12 sqrt(N) sines and
cosines per channel instead of one sine per sample and sinusoid; every
signal of a realization shares the one validated grid.  A realization keeps
the plant trajectory it was drawn with, and the observer runs on it.

``finite_horizon_infimum`` is the package's brute-force oracle for the
Riccati value: it minimizes the finite-horizon cost over piecewise-constant
inputs using an exact per-step matrix-exponential discretization, so its
only error source is the input discretization itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .dae import DaeSystem
from .errors import ConsistencyError, InputError
from .linalg import SUBSPACE_TOL, as_matrix, as_vector, symmetrize
from .lti import AssociatedLti, ConstructionRecord, construct
from .observer import EstimationProblem, Observer
from .riccati import LqWeights
from .signals import (
    GRID_RTOL,
    SampledSignal,
    _apply,
    _rk4_propagator,
    _scan,
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
    generated f through the noise parametrization and the reduced plant
    trajectory ``v`` it drove from v(0) = Lambda x0 are kept, so a run reads
    the plant instead of integrating it again; ``autonomous`` marks
    noise-free draws through the input-free reduction (f identically zero).
    """

    x0: np.ndarray
    f: SampledSignal
    eta: SampledSignal
    rho: float
    g: SampledSignal
    v: SampledSignal
    autonomous: bool = False


def noise_system(prob: EstimationProblem, noisy: bool = True) -> DaeSystem:
    """Control-form system whose trajectories are the (x, f) pairs; with
    ``noisy=False``, that of the noise-free DAE (empty input)."""
    n = prob.n
    B = np.eye(n) if noisy else np.zeros((n, 0))
    return DaeSystem(prob.obs.F.copy(), prob.obs.A.copy(), B)


def _smooth_signal(rng: np.random.Generator, dim: int,
                   grid: np.ndarray) -> np.ndarray:
    """Samples of a band-limited random signal: three sinusoids
    amp sin(freq t + phase) per channel, on a uniform grid.

    With j = bB + c and B = ceil(sqrt(grid.size)),
    sin(freq t_j + phase) = sin(a_b) cos(d_c) + cos(a_b) sin(d_c), where
    a_b = freq t_bB + phase and d_c = freq (t_c - t_0); so a channel is one
    (blocks x 6) @ (6 x B) product, from about 12 sqrt(grid.size) sines
    and cosines instead of 3 grid.size sines.
    """
    size = grid.size
    B = math.isqrt(size - 1) + 1
    amp, freq, phase = np.moveaxis(
        rng.uniform((-1.0, 0.05, 0.0), (1.0, NOISE_MAX_FREQ, 2.0 * np.pi),
                    size=(dim, 3, 3)), -1, 0)[..., None]
    a = freq * grid[::B] + phase
    d = freq * (grid[:B] - grid[0])
    heads = np.concatenate([amp * np.sin(a), amp * np.cos(a)], axis=1)
    tails = np.concatenate([np.cos(d), np.sin(d)], axis=1)
    vals = np.swapaxes(heads, 1, 2) @ tails
    return vals.reshape(dim, vals.shape[1] * B)[:, :size]


def _rho(prob: EstimationProblem, x0: np.ndarray, f: SampledSignal,
         eta: SampledSignal) -> float:
    running = quadratic_form_series(prob.Q, f) + quadratic_form_series(prob.R, eta)
    return float(x0 @ prob.Q0 @ x0 + simpson(f.step, running))


def _rng(seed) -> np.random.Generator:
    """The generator of a seed, which must be a nonnegative integer."""
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(seed)


def sample_admissible(prob: EstimationProblem, t1: float, seed: int,
                      step: float = DEFAULT_STEP,
                      record: ConstructionRecord | None = None) -> NoiseRealization:
    """Draw a random admissible realization with rho <= 1.

    A random direction in the product space (reduced initial state, reduced
    noise input, output noise) is scaled so that the ellipsoid radius
    sqrt(rho) is uniform on [0, 1].  Deterministic under the seed.  Scaling
    is exact because rho is homogeneous of degree two.
    """
    rng = _rng(seed)
    rec = record if record is not None else construct(noise_system(prob))
    lti = rec.lti
    grid = uniform_grid(t1, step)
    v0 = rng.standard_normal(lti.n_hat)
    g = SampledSignal(grid, _smooth_signal(rng, lti.k, grid))
    eta = g.with_values(_smooth_signal(rng, prob.p, grid))
    v = integrate_lti(lti.A_l, lti.B_l, v0, g)
    f = g.with_values(_apply(lti.C_inp, v.values) + _apply(lti.D_inp, g.values))
    x0 = prob.obs.F @ (lti.C_s @ v0 + lti.D_s @ g.values[:, 0])
    rho_raw = _rho(prob, x0, f, eta)
    radius = rng.uniform(0.0, 1.0)
    alpha = radius / np.sqrt(rho_raw) if rho_raw > 0 else 0.0
    x0 = alpha * x0
    f = f.with_values(alpha * f.values)
    eta = eta.with_values(alpha * eta.values)
    g = g.with_values(alpha * g.values)
    v = v.with_values(alpha * v.values)
    return NoiseRealization(x0=x0, f=f, eta=eta,
                            rho=_rho(prob, x0, f, eta), g=g, v=v)


def clean_realization(prob: EstimationProblem, t1: float, seed: int,
                      step: float = DEFAULT_STEP,
                      record: ConstructionRecord | None = None) -> NoiseRealization:
    """Noise-free realization: f = 0, eta = 0, random consistent x0.

    Drawn through the input-free reduction, so the trajectory solves
    d(Fx)/dt = A x exactly; a nonzero x0 is scaled onto the boundary of
    the ellipsoid, x0^T Q0 x0 = 1, and the plant integrated from Lambda x0.
    """
    rng = _rng(seed)
    rec = record if record is not None \
        else construct(noise_system(prob, noisy=False))
    lti = rec.lti
    grid = uniform_grid(t1, step)
    v0 = rng.standard_normal(lti.n_hat)
    x0 = prob.obs.F @ (lti.C_s @ v0)
    rho = float(x0 @ prob.Q0 @ x0)
    if rho > 0:
        x0 = x0 / np.sqrt(rho)
    f = SampledSignal.zeros(prob.n, grid)
    g = f.with_values(np.zeros((lti.k, grid.size)))
    return NoiseRealization(
        x0=x0,
        f=f,
        eta=f.with_values(np.zeros((prob.p, grid.size))),
        rho=float(x0 @ prob.Q0 @ x0),
        g=g,
        v=integrate_lti(lti.A_l, lti.B_l, lti.Lambda @ x0, g),
        autonomous=True,
    )


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
    if not 0 < t1 < np.inf:
        raise InputError(f"t1 must be finite and positive, got {t1}")
    v0 = as_vector(v0, "v0")
    if v0.size != lti.n_hat:
        raise InputError(f"v0 must have length {lti.n_hat}")
    E = as_matrix(E, "E")
    if E.shape != (lti.n, lti.n):
        raise InputError(f"E must be {lti.n} x {lti.n}, got shape {E.shape}")
    if w.Q.shape[0] != lti.n or w.R.shape[0] != lti.m:
        raise InputError("weight sizes do not match the system")
    if lti.n_hat == 0:
        return 0.0
    h = t1 / n_steps
    Phi, Gamma, Qd, Nd, Rd = cost_discretization(
        lti.A_l, lti.B_l, lti.C_l, lti.D_l, w.S(), h
    )
    ECs = E @ lti.C_s
    P = symmetrize(ECs.T @ w.Q0 @ ECs)
    for _ in range(n_steps):
        Ru = Rd + Gamma.T @ P @ Gamma
        Su = Nd + Phi.T @ P @ Gamma
        P = symmetrize(Qd + Phi.T @ P @ Phi - Su @ np.linalg.solve(Ru, Su.T))
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
    sdot = A_o s + B_o y.  Its RK4 step evaluates y at the half steps from
    the plant state instead of interpolating its samples; g and eta are
    still interpolated, so smooth noise keeps order 2.  It is block lower
    triangular, so its propagator's observer rows take given plant samples.
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
    """Run the observer on a realization of the observed DAE, whose horizon
    t1 must be (its last grid point, within GRID_RTOL): the observer
    rows of the RK4 propagator (M, N0, N1) of ``_coupled_system`` scan
    s_{i+1} = M_ss s_i + M_sv v_i + N0_s u_i + N1_s u_{i+1} on the kept
    plant samples v and u = [g; eta], which is the coupled RK4 run.
    ``record`` may carry the prebuilt reduction of the matching
    :func:`noise_system` to avoid reconstructing it per run."""
    if record is None:
        record = construct(noise_system(prob, not realization.autonomous))
    lti = record.lti
    x0 = realization.x0
    if not lti.X.contains_vector(x0):
        raise ConsistencyError("realization initial state is inconsistent "
                               "for the observed DAE")
    if obsv.p != prob.p:
        raise InputError(f"output dimension {prob.p} does not match observer "
                         f"input dimension {obsv.p}")
    dims = realization.g.dim, realization.v.dim, realization.eta.dim
    if dims != (lti.k, lti.n_hat, prob.p):
        raise InputError(f"realization (g, v, eta) dimensions {dims} do not "
                         f"match the reduction's {(lti.k, lti.n_hat, prob.p)}")
    gap = np.linalg.norm(realization.v.values[:, 0] - lti.Lambda @ x0)
    if gap > SUBSPACE_TOL * (1.0 + np.linalg.norm(lti.Lambda) * np.linalg.norm(x0)):
        raise ConsistencyError(f"realization plant state starts {gap:.3e} off "
                               "Lambda x0")
    g, eta, v = realization.g, realization.eta, realization.v.values
    if not abs(t1 - g.grid[-1]) <= GRID_RTOL * max(1.0, g.grid[-1]):
        raise InputError(f"t1 = {t1} is not the realization's horizon {g.grid[-1]}")
    n = lti.n_hat
    M, N0, N1 = _rk4_propagator(*_coupled_system(lti, prob.obs.H, obsv), g.step)
    u = np.vstack([g.values, eta.values])
    S = np.zeros((obsv.n_hat, u.shape[1]))
    S[:, 1:] = (_apply(M[n:, :n], v[:, :-1]) + _apply(N0[n:], u[:, :-1])
                + _apply(N1[n:], u[:, 1:]))
    est = _apply(obsv.C_o, _scan(M[n:, n:], S, g).values)
    x = _apply(lti.C_s, v) + _apply(lti.D_s, g.values)
    truth = _apply((prob.ell @ prob.obs.F)[None], x)
    return ExperimentResult(
        y=g.with_values(_apply(prob.obs.H, x) + eta.values),
        estimate=g.with_values(est),
        truth=g.with_values(truth),
        error=g.with_values(truth - est[:1]),
    )


def estimation_experiment(prob: EstimationProblem, obsv: Observer,
                          realization: NoiseRealization, t1: float,
                          record: ConstructionRecord | None = None,
                          ) -> tuple[SampledSignal, float]:
    """Error trace  ell^T F x(t) - estimate(t)  on [0, t1] and the squared
    error at t1, which is the realization's horizon."""
    result = run_estimation(prob, obsv, realization, t1, record)
    return result.error, result.final_sq_error
