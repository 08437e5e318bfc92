"""Sampled signals, fixed-step integration and quadrature.

Signals are stored densely: a time grid plus one column of values per time
point.  The integrator is classical fixed-step RK4 with linear
interpolation of the input at half steps, giving global order 4 on the
linear systems used throughout the package.  On a linear system one such
step is exactly the recurrence  x+ = M x + N0 u_i + N1 u_{i+1};  the exact
RK4 propagator (M, N0, N1) is read off the step formula once, and the
recurrence runs as a blocked scan over blocks of ``SCAN_BLOCK`` steps, so
no Python loop runs per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InputError
from .linalg import as_matrix, as_vector

GRID_RTOL = 1e-9
SCAN_BLOCK = 64


@dataclass(frozen=True)
class SampledSignal:
    """A vector-valued signal sampled on a strictly increasing time grid.

    ``values`` has shape (dim, len(grid)); dim may be zero for the empty
    signal of a system without inputs.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise InputError("grid must be a nonempty 1-D array")
        if not np.all(np.isfinite(grid)):
            raise InputError("grid contains non-finite entries")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise InputError("grid must be strictly increasing")
        values = as_matrix(self.values, "signal values")
        if values.shape[1] != grid.size:
            raise InputError(
                f"signal has {values.shape[1]} samples but grid has {grid.size}"
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def step(self) -> float:
        """Uniform grid step; raises for non-uniform grids."""
        if self.grid.size < 2:
            return 0.0
        steps = np.diff(self.grid)
        h = float(steps[0])
        if np.any(np.abs(steps - h) > GRID_RTOL * max(h, 1.0)):
            raise InputError("non-uniform grid where a uniform one is required")
        return h

    @classmethod
    def zeros(cls, dim: int, grid) -> "SampledSignal":
        grid = np.asarray(grid, dtype=float)
        return cls(grid, np.zeros((dim, grid.size)))

    def truncated(self, t1: float) -> "SampledSignal":
        """Restriction to [0, t1]; t1 must be a grid point."""
        idx = int(np.searchsorted(self.grid, t1 - GRID_RTOL * max(1.0, abs(t1))))
        if idx >= self.grid.size or abs(self.grid[idx] - t1) > GRID_RTOL * max(1.0, abs(t1)):
            raise InputError(f"t1 = {t1} is not a grid point of the signal")
        return SampledSignal(self.grid[: idx + 1].copy(), self.values[:, : idx + 1].copy())


def uniform_grid(t1: float, step: float) -> np.ndarray:
    """Uniform grid on [0, t1] with the step rounded to divide t1 exactly."""
    if t1 < 0 or not np.isfinite(t1):
        raise InputError("horizon must be a nonnegative finite number")
    if step <= 0:
        raise InputError("step must be positive")
    n = max(1, int(round(t1 / step))) if t1 > 0 else 1
    return np.linspace(0.0, t1, n + 1) if t1 > 0 else np.array([0.0])


def _rk4_propagator(A, B, h: float):
    """Exact matrices of one RK4 step:  x+ = M x + N0 u_i + N1 u_{i+1}.

    The step (input linear between u_i and u_{i+1}) is linear in
    (x, u_i, u_{i+1}), so applying it once to the identity columns of all
    three yields (M, N0, N1); M is the degree-4 Taylor polynomial of e^{hA}.
    """
    n, k = B.shape
    eye = np.eye(n + 2 * k)
    x, u0, u1 = eye[:n], eye[n:n + k], eye[n + k:]
    um = 0.5 * (u0 + u1)
    k1 = A @ x + B @ u0
    k2 = A @ (x + 0.5 * h * k1) + B @ um
    k3 = A @ (x + 0.5 * h * k2) + B @ um
    k4 = A @ (x + h * k3) + B @ u1
    S = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return S[:, :n], S[:, n:n + k], S[:, n + k:]


def integrate_lti(A, B, x0, u: SampledSignal) -> SampledSignal:
    """Fixed-step RK4 integration of  xdot = A x + B u  along u's grid.

    The input is linearly interpolated at half steps; global error is
    O(h^4).  Requires a uniform grid.

    The steps are evaluated through the exact RK4 propagator as a blocked
    scan: the input term of every step is one matmul; the zero-state
    response inside every block of ``SCAN_BLOCK`` steps advances for all
    blocks at once; a loop over the block starts chains the blocks with
    M^SCAN_BLOCK; and the free response M^j x_start is added to every block
    with one batched matmul.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    x0 = as_vector(x0, "x0")
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError("A must be square")
    if B.shape[0] != n:
        raise InputError(f"B must have {n} rows")
    if u.dim != B.shape[1]:
        raise InputError(
            f"input signal dimension {u.dim} does not match B columns {B.shape[1]}"
        )
    if x0.size != n:
        raise InputError(f"x0 must have length {n}")
    h = u.step
    N = u.grid.size - 1
    out = np.empty((n, N + 1))
    out[:, 0] = x0
    if N == 0:
        return SampledSignal(u.grid.copy(), out)
    M, N0, N1 = _rk4_propagator(A, B, h)
    U = u.values
    b = min(SCAN_BLOCK, N)
    nb = -(-N // b)
    # Y[q, j]: state after step j + 1 of block q.  It starts as the input
    # term N0 u_i + N1 u_{i+1} of that step, becomes the response from a
    # zero block start, and finally (after the chaining) the true state.
    Y = np.zeros((nb * b, n))
    Y[:N] = np.vstack([U[:, :-1], U[:, 1:]]).T @ np.hstack([N0, N1]).T
    Y = Y.reshape(nb, b, n)
    powers = np.empty((b, n, n))  # powers[j] = M^(j + 1)
    powers[0] = M
    for j in range(1, b):
        Y[:, j] += Y[:, j - 1] @ M.T
        powers[j] = M @ powers[j - 1]
    starts = np.empty((nb, n))
    starts[0] = x0
    for q in range(nb - 1):
        starts[q + 1] = powers[-1] @ starts[q] + Y[q, -1]
    Y += np.matmul(powers, starts.T).transpose(2, 0, 1)
    out[:, 1:] = Y.reshape(nb * b, n)[:N].T
    return SampledSignal(u.grid.copy(), out)


def simpson(grid, vals) -> float:
    """Composite Simpson rule on a uniform grid (O(h^4)).

    An odd interval count is handled with a 3/8 rule on the last three
    intervals, preserving the order.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if grid.size != vals.size:
        raise InputError("grid and values must have equal length")
    N = grid.size - 1
    if N < 1:
        return 0.0
    h = SampledSignal(grid, vals.reshape(1, -1)).step
    if N == 1:
        return float(0.5 * h * (vals[0] + vals[1]))
    w = np.zeros(N + 1)
    stop = N if N % 2 == 0 else N - 3
    if stop:
        w[1:stop:2] = 4.0
        w[2:stop:2] = 2.0
        w[[0, stop]] = 1.0
        w[:stop + 1] *= h / 3.0
    if N % 2 == 1:
        w[N - 3:] += 3.0 * h / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return float(w @ vals)


def quadratic_form_series(M, sig: SampledSignal) -> np.ndarray:
    """Pointwise samples of t -> sig(t)^T M sig(t)."""
    M = as_matrix(M, "weight")
    if M.shape[0] != sig.dim:
        raise InputError("weight size does not match signal dimension")
    return np.einsum("it,ij,jt->t", sig.values, M, sig.values)


def cost_discretization(A, B, C, D, S, h: float):
    """Exact one-step discretization of state, input and running cost.

    For  vdot = A v + B g  with piecewise-constant g and running cost
    integrand (C v + D g)^T S (C v + D g), returns (Phi, Gamma, Qd, Nd, Rd)
    such that  v_{i+1} = Phi v_i + Gamma g_i  and the cost of one step is
    [v; g]^T [[Qd, Nd], [Nd^T, Rd]] [v; g].  Uses the matrix-exponential
    (Van Loan) construction, so the only discretization error left in a
    transcription built on it is the piecewise-constant input restriction.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    k = B.shape[1]
    nz = n + k
    Aaug = np.zeros((nz, nz))
    Aaug[:n, :n] = A
    Aaug[:n, n:] = B
    Cm = np.hstack([as_matrix(C, "C"), as_matrix(D, "D")])
    Qc = Cm.T @ as_matrix(S, "S") @ Cm
    M = np.zeros((2 * nz, 2 * nz))
    M[:nz, :nz] = -Aaug.T
    M[:nz, nz:] = Qc
    M[nz:, nz:] = Aaug
    EM = expm(M * h) if nz else np.zeros((0, 0))
    F22 = EM[nz:, nz:]
    G12 = EM[:nz, nz:]
    W = F22.T @ G12
    W = 0.5 * (W + W.T)
    Phi = F22[:n, :n]
    Gamma = F22[:n, n:]
    return Phi, Gamma, W[:n, :n], W[:n, n:], W[n:, n:]
