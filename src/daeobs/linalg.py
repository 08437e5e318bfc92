"""Rank-aware dense linear algebra: validated arrays, orthonormal
subspaces, kernel bases and weight decisions.

All rank decisions in the package go through a single relative threshold:
a singular value sigma is treated as zero when

    sigma <= rank_tol * sigma_max * max(rows, cols)

with ``rank_tol`` defaulting to :data:`DEFAULT_RANK_TOL`; :func:`_rank`
is the one place that cut is made.  Subspaces are always stored with
orthonormal bases (obtained from SVDs, or from the complete QR of
:func:`complement_basis`), which keeps membership tests well conditioned.
The three matrices the package solves with (E C_s for Lambda in
:func:`daeobs.lti.assemble`, L1 in
:func:`daeobs.equivalence.build_equivalence`, K N in
:func:`daeobs.geometric.friend`) have full column rank by construction,
so each goes through the one thin-QR solve :func:`thin_qr_solve` and no
rank is decided there.  Empty matrices are left to numpy, whose SVD, QR,
norm and eigenvalues return the identity or zero-width factors, 0.0 and
an empty spectrum for them.

Weights are decided the same way: :func:`_require_symmetric` is the one
symmetry decision (cut at ``SYMMETRY_TOL``), and :func:`require_spd` decides
definiteness from the one ``eigh`` that also yields the inverse square root
its callers need; a failure of either raises
:class:`NotPositiveDefiniteError` naming the matrix.

Everything here is a pure function of its inputs; the returned values are
treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

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


def block_diag(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix diag(A, B) of two square matrices."""
    n, m = A.shape[0], B.shape[0]
    return np.block([[A, np.zeros((n, m))], [np.zeros((m, n)), B]])


def _rank(s: np.ndarray, shape, rank_tol: float, scale: float = 0.0) -> int:
    """Number of singular values ``s`` (descending) of a matrix of the
    given shape above the relative cut-off, floored by ``scale``."""
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > rank_tol * max(smax, scale) * max(shape[0], shape[1], 1)))


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

    def perp_projector(self) -> np.ndarray:
        return np.eye(self.ambient_dim) - self.basis @ self.basis.T

    def contains_vector(self, x) -> bool:
        x = as_vector(x, "vector")
        if x.size != self.ambient_dim:
            raise InputError(
                f"vector length {x.size} does not match ambient dimension "
                f"{self.ambient_dim}"
            )
        # ||r|| <= tol (1 + ||x||) with x scaled by 2^-s to a largest entry
        # below 1, so no norm overflows; exact scaling keeps the decision
        s = max(int(np.frexp(np.abs(x).max(initial=0.0))[1]), 0)
        x = np.ldexp(x, -s)
        resid = x - self.basis @ (self.basis.T @ x)
        return float(np.linalg.norm(resid)) <= \
            SUBSPACE_TOL * (2.0 ** -s + float(np.linalg.norm(x)))


def kernel_basis(M, rank_tol: float = DEFAULT_RANK_TOL,
                 scale: float = 0.0) -> Subspace:
    """Orthonormal basis of the null space {x : Mx = 0}.

    ``scale`` floors the rank threshold by the magnitude of the surrounding
    computation: rows that vanish up to roundoff of a computation with
    magnitude ``scale`` do not shrink the kernel.  An all-zero M needs no
    branch: numpy's SVD returns V' = I for it, so the basis is I.
    """
    M = as_matrix(M)
    _, s, Vt = np.linalg.svd(M)
    r = _rank(s, M.shape, rank_tol, scale)
    return Subspace(Vt[r:].T.copy())


def complement_basis(Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of Im Y, for Y of
    full column rank: the trailing columns of one complete QR (I when Y
    has no columns)."""
    return np.linalg.qr(Y, mode="complete")[0][:, Y.shape[1]:].copy()


def thin_qr_solve(A: np.ndarray, B: np.ndarray | None = None):
    """Thin QR A = Q R of a full-column-rank A, returned as Q with
    R^{-1} (Q' B), or R^{-1} Q' (A's pseudoinverse) when B is None.

    No rank is decided.  With no columns LAPACK is not called.  An exactly
    zero R_ii makes dtrtrs return Q' B unsolved, so the caller's identity
    check (A^+ A = I, or a residual) fails.
    """
    Q, R = np.linalg.qr(A)
    rhs = Q.T if B is None else Q.T @ B
    return Q, dtrtrs(R, rhs)[0] if A.shape[1] else rhs


def _require_symmetric(M, name: str) -> np.ndarray:
    """The package's one symmetry decision: M square and symmetric within
    SYMMETRY_TOL * (1 + ||M||_F); returns symmetrize(M)."""
    M = as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"{name} must be square, got shape {M.shape}")
    scale = 1.0 + float(np.linalg.norm(M))
    if float(np.linalg.norm(M - M.T)) > SYMMETRY_TOL * scale:
        raise NotPositiveDefiniteError(f"{name} must be symmetric")
    return symmetrize(M)


def require_spd(M, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Validate a symmetric positive definite matrix and return it
    symmetrized together with its inverse square root (V w^{-1/2} V'),
    both from one symmetric eigendecomposition.

    Raises :class:`NotPositiveDefiniteError`, naming ``name``, when M is
    not symmetric or has an eigenvalue at or below ``SPD_TOL`` times
    max(1, the largest).  A 0x0 matrix passes.
    """
    M = _require_symmetric(M, name)
    if M.shape[0] == 0:
        return M, np.zeros((0, 0))
    w, V = np.linalg.eigh(M)
    if w[0] <= SPD_TOL * max(1.0, w[-1]):
        raise NotPositiveDefiniteError(f"{name} must be symmetric positive definite")
    return M, (V / np.sqrt(w)) @ V.T


def require_psd(M, name: str = "matrix") -> np.ndarray:
    """Validate a symmetric positive semidefinite matrix: eigenvalues no
    lower than -PSD_TOL * max(1, |largest|).  A 0x0 matrix passes."""
    M = _require_symmetric(M, name)
    if M.shape[0] == 0:
        return M
    w = np.linalg.eigvalsh(M)
    if w[0] < -PSD_TOL * max(1.0, abs(w[-1])):
        raise NotPositiveDefiniteError(f"{name} must be positive semidefinite")
    return M
