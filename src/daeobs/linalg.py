"""Rank-aware dense linear algebra: pseudoinverse, kernel/image bases
and symmetric matrix functions.

All rank decisions in the package go through a single relative threshold:
a singular value sigma is treated as zero when

    sigma <= rank_tol * sigma_max * max(rows, cols)

with ``rank_tol`` defaulting to :data:`DEFAULT_RANK_TOL`; :func:`_rank`
is the one place that cut is made.  Subspaces are always stored with
orthonormal bases (obtained from SVDs), which keeps membership tests well
conditioned.

Everything here is a pure function of its inputs; the returned values are
treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotPositiveDefiniteError

DEFAULT_RANK_TOL = 1e-10
# Relative residual below which a vector counts as inside a subspace.
SUBSPACE_TOL = 1e-9
# Relative asymmetry a matrix validated as symmetric may carry.
SYMMETRY_TOL = 1e-9
# Relative floor a positive definite matrix's eigenvalues must clear.
SPD_TOL = 1e-12
# Relative depth below zero a semidefinite matrix's eigenvalues may reach.
PSD_TOL = 1e-9


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float array."""
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D float array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


def symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _svd(M: np.ndarray, full: bool = True):
    """SVD that tolerates empty matrices; ``full=False`` keeps only the
    min(m, n) leading singular vectors on each side."""
    m, n = M.shape
    if m == 0 or n == 0:
        if full:
            return np.eye(m), np.zeros(0), np.eye(n)
        return np.zeros((m, 0)), np.zeros(0), np.zeros((0, n))
    U, s, Vt = np.linalg.svd(M, full_matrices=full)
    return U, s, Vt


def _rank(s: np.ndarray, shape, rank_tol: float, scale: float = 0.0) -> int:
    """Number of singular values ``s`` (descending) of a matrix of the
    given shape above the relative cut-off, floored by ``scale``."""
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > rank_tol * max(smax, scale) * max(shape[0], shape[1], 1)))


def numerical_rank(M, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    M = as_matrix(M)
    _, s, _ = _svd(M)
    return _rank(s, M.shape, rank_tol)


def pseudoinverse(M, rank_tol: float = DEFAULT_RANK_TOL,
                  scale: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse with an explicit rank cut-off.

    Singular values below the relative threshold are treated as exactly
    zero, so rank-deficient inputs produce clean pseudoinverses (a zero
    matrix maps to a zero matrix).  ``scale`` optionally floors the
    threshold by the magnitude of the surrounding computation, so that
    matrices which are zero up to roundoff of that computation are treated
    as zero instead of being inverted into noise.
    """
    M = as_matrix(M)
    U, s, Vt = _svd(M)
    return _pinv(U, s, Vt, _rank(s, M.shape, rank_tol, scale))


def _pinv(U: np.ndarray, s: np.ndarray, Vt: np.ndarray, r: int) -> np.ndarray:
    """Pseudoinverse read off an SVD (from :func:`_svd`) cut at rank r."""
    if r == 0:
        return np.zeros((Vt.shape[0], U.shape[0]))
    return (Vt[:r].T / s[:r]) @ U[:, :r].T


@dataclass(frozen=True)
class Subspace:
    """A linear subspace stored as an orthonormal basis.

    ``basis`` has shape (ambient_dim, dim) with orthonormal columns; a
    zero-dimensional subspace has a basis with zero columns.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = as_matrix(self.basis, "subspace basis")
        object.__setattr__(self, "basis", basis)
        if basis.shape[1] > basis.shape[0]:
            raise InputError(
                f"subspace dimension {basis.shape[1]} exceeds ambient "
                f"dimension {basis.shape[0]}"
            )
        if basis.shape[1]:
            gram = basis.T @ basis
            defect = np.linalg.norm(gram - np.eye(basis.shape[1]))
            if defect > SUBSPACE_TOL * 100:
                raise InputError(
                    f"subspace basis is not orthonormal (defect {defect:.3e})"
                )

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0)))

    def perp_projector(self) -> np.ndarray:
        return np.eye(self.ambient_dim) - self.basis @ self.basis.T

    def contains_vector(self, x) -> bool:
        x = as_vector(x, "vector")
        if x.size != self.ambient_dim:
            raise InputError(
                f"vector length {x.size} does not match ambient dimension "
                f"{self.ambient_dim}"
            )
        resid = x - self.basis @ (self.basis.T @ x)
        return float(np.linalg.norm(resid)) <= \
            SUBSPACE_TOL * (1.0 + float(np.linalg.norm(x)))


def kernel_basis(M, rank_tol: float = DEFAULT_RANK_TOL,
                 scale: float = 0.0) -> Subspace:
    """Orthonormal basis of the null space {x : Mx = 0}.

    ``scale`` floors the rank threshold (see :func:`pseudoinverse`): rows
    that vanish up to roundoff of a computation with magnitude ``scale``
    do not shrink the kernel.
    """
    M = as_matrix(M)
    m, n = M.shape
    if m == 0 or not np.any(M):
        return Subspace.full(n)
    _, s, Vt = _svd(M)
    r = _rank(s, M.shape, rank_tol, scale)
    return Subspace(Vt[r:].T.copy())


def image_basis(M, rank_tol: float = DEFAULT_RANK_TOL,
                scale: float = 0.0) -> Subspace:
    """Orthonormal basis of the column space of M."""
    M = as_matrix(M)
    m, n = M.shape
    if n == 0 or not np.any(M):
        return Subspace.zero(m)
    U, s, _ = _svd(M)
    r = _rank(s, M.shape, rank_tol, scale)
    return Subspace(U[:, :r].copy())


def require_symmetric(M, name: str = "matrix") -> np.ndarray:
    M = as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"{name} must be square, got shape {M.shape}")
    scale = 1.0 + float(np.linalg.norm(M))
    if float(np.linalg.norm(M - M.T)) > SYMMETRY_TOL * scale:
        raise InputError(f"{name} must be symmetric")
    return symmetrize(M)


def require_spd(M, name: str = "matrix") -> np.ndarray:
    """Validate a symmetric positive definite matrix (0x0 passes)."""
    M = require_symmetric(M, name)
    if M.shape[0] == 0:
        return M
    w = np.linalg.eigvalsh(M)
    if w[0] <= SPD_TOL * max(1.0, w[-1]):
        raise NotPositiveDefiniteError(f"{name} must be symmetric positive definite")
    return M


def require_spd_inverse(M, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Validate M as :func:`require_spd` does and return it with its
    symmetrized inverse, both from one symmetric eigendecomposition."""
    M = require_symmetric(M, name)
    if M.shape[0] == 0:
        return M, np.zeros((0, 0))
    w, V = np.linalg.eigh(M)
    if w[0] <= SPD_TOL * max(1.0, w[-1]):
        raise NotPositiveDefiniteError(f"{name} must be symmetric positive definite")
    R = (V / np.sqrt(w)) @ V.T
    return M, symmetrize(R @ R)


def require_psd(M, name: str = "matrix") -> np.ndarray:
    M = require_symmetric(M, name)
    if M.shape[0] == 0:
        return M
    w = np.linalg.eigvalsh(M)
    if w[0] < -PSD_TOL * max(1.0, abs(w[-1])):
        raise NotPositiveDefiniteError(f"{name} must be positive semidefinite")
    return M


def inv_sqrt_spd(M, what: str = "matrix") -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix.

    Computed from the symmetric eigendecomposition.  Raises
    :class:`NotPositiveDefiniteError` when the input is not symmetric or
    has an eigenvalue at or below ``SPD_TOL`` times max(1, the largest),
    naming ``what`` in the message so callers can point at the offending
    block.
    """
    M = as_matrix(M, what)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"{what} must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    scale = 1.0 + float(np.linalg.norm(M))
    if float(np.linalg.norm(M - M.T)) > 1e-10 * scale:
        raise NotPositiveDefiniteError(f"{what} is not symmetric")
    w, V = np.linalg.eigh(symmetrize(M))
    if w[0] <= SPD_TOL * max(1.0, w[-1]):
        raise NotPositiveDefiniteError(
            f"{what} is singular or not positive definite "
            f"(smallest eigenvalue {w[0]:.3e})"
        )
    return (V / np.sqrt(w)) @ V.T
