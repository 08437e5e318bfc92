"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from daeobs import DaeSystem, LqWeights, construct, riccati, solve_are
from daeobs.dae import canonical_form_from_transforms
from daeobs.riccati import is_stabilizable


def random_spd(rng: np.random.Generator, n: int, spread: float = 0.5):
    """SPD matrix with eigenvalues roughly in [1 - spread, 1 + spread]."""
    if n == 0:
        return np.zeros((0, 0))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = 1.0 + spread * rng.uniform(-1.0, 1.0, n)
    return Q @ np.diag(w) @ Q.T


def random_dae(rng: np.random.Generator, n: int, m: int, r: int) -> DaeSystem:
    """Random DAE with E of prescribed rank r."""
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.zeros(n)
    s[:r] = rng.uniform(0.5, 2.0, r)
    E = U @ np.diag(s) @ V.T
    return DaeSystem(E, rng.standard_normal((n, n)), rng.standard_normal((n, m)))


@pytest.fixture
def doubling_steps(monkeypatch) -> list[int]:
    """Gets one entry per doubling step of every Riccati solve in the test:
    a step inverts I + G H through ``riccati._lu_inverse`` without a pivot
    guard, while the Cayley shift's two LUs pass SHIFT_PIVOT_RATIO."""
    steps = []
    lu_inverse = riccati._lu_inverse

    def counted(M, min_pivot_ratio):
        if min_pivot_ratio == 0.0:
            steps.append(M.shape[0])
        return lu_inverse(M, min_pivot_ratio)
    monkeypatch.setattr(riccati, "_lu_inverse", counted)
    return steps


def cf_from_blocks(A_tilde, G, C_tilde, D_tilde, m: int):
    """Canonical form with S = T = I wrapping given auxiliary-system blocks.

    Useful for exercising the geometric layer on hand-picked systems:
    E = diag(I_r, 0) and A_hat/B_hat are reassembled from the blocks.
    """
    A_tilde = np.atleast_2d(np.asarray(A_tilde, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    C_tilde = np.atleast_2d(np.asarray(C_tilde, dtype=float))
    D_tilde = np.atleast_2d(np.asarray(D_tilde, dtype=float))
    r = A_tilde.shape[0]
    n_minus_r = C_tilde.shape[0]
    n = r + n_minus_r
    A12, B1 = G[:, :n_minus_r], G[:, n_minus_r:]
    A22, B2 = D_tilde[:, :n_minus_r], D_tilde[:, n_minus_r:]
    E = np.diag(np.r_[np.ones(r), np.zeros(n_minus_r)])
    A_hat = np.block([[A_tilde, A12], [C_tilde, A22]])
    B_hat = np.vstack([B1, B2])
    sys = DaeSystem(E, A_hat, B_hat)
    return canonical_form_from_transforms(sys, np.eye(n), np.eye(n), r)


def random_reduced_instance(rng: np.random.Generator,
                            min_decay: float = 0.25,
                            max_tries: int = 200):
    """Random DAE + weights whose associated system is stabilizable with a
    comfortably damped closed loop (n_hat <= 4, k <= 3).

    Returns (sys, weights, record, riccati_solution) or None if no draw
    within max_tries qualified (never observed at these sizes).
    """
    for _ in range(max_tries):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, 3))
        r = int(rng.integers(1, n + 1))
        sys = random_dae(rng, n, m, r)
        try:
            rec = construct(sys)
        except Exception:
            continue
        lti = rec.lti
        if lti.n_hat == 0 or lti.n_hat > 4 or lti.k > 3:
            continue
        if not is_stabilizable(lti.A_l, lti.B_l):
            continue
        w = LqWeights(Q=random_spd(rng, n), R=random_spd(rng, m),
                      Q0=random_spd(rng, n))
        try:
            rs = solve_are(lti, w)
        except Exception:
            continue
        if rs.closed_loop_spectrum.size and \
                np.max(rs.closed_loop_spectrum.real) > -min_decay:
            continue
        return sys, w, rec, rs
    return None


@pytest.fixture(scope="session")
def reduced_instance_pool():
    """Twenty-five cached random stabilizable instances, one per call of
    :func:`random_reduced_instance`; a call that finds none fails the
    fixture instead of drawing again."""
    rng = np.random.default_rng(20240811)
    pool = [random_reduced_instance(rng) for _ in range(25)]
    empty = sum(inst is None for inst in pool)
    if empty:
        pytest.fail(f"{empty} of 25 draws of random_reduced_instance gave "
                    "no instance")
    return pool
