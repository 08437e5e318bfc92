"""Sampled signals, fixed-step integration and quadrature.

Signals are stored densely: a time grid plus one column of values per time
point.  The integrator is classical fixed-step RK4 with the input linear
between samples: order 4 without input or for a piecewise-linear input,
order 2 for a smooth sampled one.  On a linear system one such step is
exactly the recurrence  x+ = M x + N0 u_i + N1 u_{i+1};  the exact RK4
propagator (M, N0, N1) is read off the step formula once, and the
recurrence runs as a doubling scan of about log2 N matmuls, so no Python
loop runs per step.

A signal's grid is uniform by construction: it is checked once, when the
signal is built from a caller's array, and kept as a private read-only
copy together with its step.  Signals derived on the same grid
(rescalings, integrated states, outputs) are built by
``SampledSignal.with_values``, which shares that grid and step and checks
only the values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import InputError
from .linalg import as_matrix, as_vector

GRID_RTOL = 1e-9


@dataclass(frozen=True)
class SampledSignal:
    """A vector-valued signal sampled on a uniform time grid.

    ``values`` has shape (dim, len(grid)); dim may be zero for the empty
    signal of a system without inputs.  ``grid`` is a private read-only
    copy of the caller's array, and ``step`` its spacing (0.0 for a single
    point), decided once when the signal is built.
    """

    grid: np.ndarray
    values: np.ndarray
    step: float = field(init=False)

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise InputError("grid must be a nonempty 1-D array")
        if not np.all(np.isfinite(grid)):
            raise InputError("grid contains non-finite entries")
        steps = np.diff(grid)
        if not (steps > 0).all():
            raise InputError("grid must be strictly increasing")
        step = float(steps[0]) if steps.size else 0.0
        if (np.abs(steps - step) > GRID_RTOL * max(step, 1.0)).any():
            raise InputError("non-uniform grid where a uniform one is required")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _signal_values(self.values, grid.size))
        object.__setattr__(self, "step", step)

    def with_values(self, values) -> "SampledSignal":
        """A signal with ``values`` on this signal's grid object.

        The grid was checked when this signal was built and cannot have
        changed since, so only the values are checked.
        """
        sig = object.__new__(type(self))
        object.__setattr__(sig, "grid", self.grid)
        object.__setattr__(sig, "values", _signal_values(values, self.grid.size))
        object.__setattr__(sig, "step", self.step)
        return sig

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, dim: int, grid) -> "SampledSignal":
        return cls(grid, np.zeros((dim, np.size(grid))))


def _signal_values(values, size: int) -> np.ndarray:
    """Finite 2-D signal values with one column per grid point."""
    values = as_matrix(values, "signal values")
    if values.shape[1] != size:
        raise InputError(f"signal has {values.shape[1]} samples but grid has {size}")
    return values


def uniform_grid(t1: float, step: float) -> np.ndarray:
    """Uniform grid on [0, t1] with the step rounded to divide t1 exactly:
    the one place a run's step count is decided."""
    if t1 < 0 or not np.isfinite(t1):
        raise InputError("horizon must be a nonnegative finite number")
    if not 0 < step < np.inf:
        raise InputError(f"step must be finite and positive, got {step}")
    count = t1 / step
    if not np.isfinite(count):
        raise InputError(f"horizon {t1:g} over step {step:g} is not a finite "
                         "step count")
    n = max(1, int(round(count))) if t1 > 0 else 1
    # numpy refuses an array of more bytes than an intp counts
    if n >= np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise InputError(f"horizon {t1:g} over step {step:g} is {n:g} steps, "
                         "more than one array can hold")
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

    The input is linearly interpolated at half steps, so the global error
    is O(h^4) without input or for an input linear between samples, and
    O(h^2) for a smooth input sampled at the step.

    The steps are evaluated through the exact RK4 propagator as a
    doubling (log-depth prefix) scan: the input term of every step is one
    matmul, and ceil(log2(N + 1)) passes, each one matmul with M^s at
    strides s = 1, 2, 4, ..., chain the N steps.
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
    M, N0, N1 = _rk4_propagator(A, B, u.step)
    U = u.values
    X = np.empty((n, U.shape[1]))
    X[:, 0] = x0
    X[:, 1:] = _apply(N0, U[:, :-1]) + _apply(N1, U[:, 1:])
    return _scan(M, X, u)


def _scan(M, X: np.ndarray, u: SampledSignal) -> SampledSignal:
    """States x_{i+1} = M x_i + X[:, i + 1] from x_0 = X[:, 0], written over
    X, on u's grid.  After the pass with stride s, column i sums M^(i-j)
    X[:, j] over the last 2s columns j <= i, so once s > N it is x_i."""
    N = X.shape[1] - 1
    s, P = 1, M
    # a diverging run overflows; it is reported below, whatever the warning filter
    with np.errstate(over="ignore", invalid="ignore"):
        while s <= N:
            X[:, s:] += _apply(P, X[:, :-s])
            s, P = 2 * s, P @ P
    # X has u's width, so the one check of with_values it can fail is
    # finiteness: the state is scanned once, there
    try:
        return u.with_values(X)
    except InputError:
        raise InputError(f"RK4 state is not finite at step {u.step:g}: the system "
                         "is too stiff or unstable for this step") from None


def _apply(M, X: np.ndarray) -> np.ndarray:
    """M @ X for a small M and a long signal X, bit for bit.  numpy's
    matmul is several times slower when M has one column, so that case
    broadcasts; adding 0.0 gives zero products matmul's sign, +0.0."""
    if M.shape[1] != 1:
        return M @ X
    P = M * X
    return np.add(P, 0.0, out=P)


def simpson(h: float, vals) -> float:
    """Composite Simpson rule for samples ``vals`` at uniform step ``h``,
    the ``step`` of the signal they were taken on (O(h^4)).

    An odd interval count is handled with a 3/8 rule on the last three
    intervals, preserving the order.  The weights act as strided sums.
    """
    vals = np.asarray(vals, dtype=float)
    N = vals.size - 1
    if N < 1:
        return 0.0
    as_matrix(vals.reshape(1, -1), "signal values")
    if N == 1:
        return float(0.5 * h * (vals[0] + vals[1]))
    stop = N if N % 2 == 0 else N - 3
    total = 0.0
    if stop:
        total = h / 3.0 * (vals[0] + 4.0 * vals[1:stop:2].sum()
                           + 2.0 * vals[2:stop:2].sum() + vals[stop])
    if N % 2 == 1:
        total += 3.0 * h / 8.0 * (vals[N - 3] + 3.0 * (vals[N - 2] + vals[N - 1])
                                  + vals[N])
    return float(total)


def quadratic_form_series(M, sig: SampledSignal) -> np.ndarray:
    """Pointwise samples of t -> sig(t)^T M sig(t)."""
    M = as_matrix(M, "weight")
    if M.shape[0] != sig.dim:
        raise InputError("weight size does not match signal dimension")
    return (sig.values * _apply(M, sig.values)).sum(0)


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
