import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, solve_continuous_are, solve_continuous_lyapunov

from daeobs import (
    DaeSystem,
    InputError,
    InternalConsistencyError,
    LqWeights,
    NotStabilizableError,
    ObservedDae,
    assemble_controller,
    construct,
    riccati,
    solve_are,
)
from daeobs.dae import dual_dae
from daeobs.riccati import is_stabilizable, solve_are_blocks
from daeobs.signals import SampledSignal, uniform_grid

from .conftest import random_dae, random_spd
from .oracles import (
    evaluate_cost,
    hamiltonian_schur_are,
    optimal_cost,
    pbh_stabilizable,
    schur_staircase_stabilizable,
)


@st.composite
def stabilizability_instances(draw):
    """(A, B) = Q ([[A_c, A_12], [0, A_u]], [B_c; 0]) with (A_c, B_c)
    random and A_u an uncontrollable block of drawn real modes and
    complex pairs, hidden by a random orthogonal Q.  A_u's modes have real
    part exactly 0 or at least 1e-3 in size; every other eigenvalue lies
    at least 1e-3 from the imaginary axis."""
    m = draw(st.integers(0, 2))
    n_c = draw(st.integers(1, 3)) if m else 0
    re = st.one_of(st.just(0.0),
                   st.floats(1e-3, 5.0).flatmap(lambda x: st.sampled_from([x, -x])))
    blocks = draw(st.lists(st.one_of(
        re.map(lambda a: np.array([[a]])),
        st.tuples(re, st.floats(0.1, 5.0)).map(
            lambda ab: np.array([[ab[0], ab[1]], [-ab[1], ab[0]]]))),
        max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A_u = block_diag(*blocks) if blocks else np.zeros((0, 0))
    n_u = A_u.shape[0]
    n = n_c + n_u
    assume(n > 0)
    A = np.zeros((n, n))
    A[:n_c, :] = rng.standard_normal((n_c, n))
    A[n_c:, n_c:] = A_u
    B = np.zeros((n, m))
    B[:n_c] = rng.standard_normal((n_c, m))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A, B = Q @ A @ Q.T, Q @ B
    on_axis = sum(2 if b.shape[0] == 2 else 1 for b in blocks if b[0, 0] == 0.0)
    assume(np.sum(np.abs(np.linalg.eigvals(A).real) < 1e-3) == on_axis)
    return A, B


ROT = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])


def clustered_pairs_on_the_margin(seed):
    """Three rotated, strongly coupled complex pairs near +-i whose real
    parts straddle the stability margin by up to 1e-6."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(3):
        a = float(rng.choice([-1, 1])) * 10 ** rng.uniform(-14, -6)
        b = 1.0 + 10 ** rng.uniform(-14, -4) * rng.standard_normal()
        blocks.append(np.array([[a, b], [-b, a]]))
    J = block_diag(*blocks)
    J += np.triu(rng.standard_normal((6, 6)) * 10 ** rng.uniform(0, 8), 2)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    return Q @ J @ Q.T


class TestStabilizability:
    def test_stable_without_input(self):
        assert is_stabilizable(np.array([[-1.0]]), np.zeros((1, 0)))

    def test_unstable_uncontrollable(self):
        assert not is_stabilizable(np.array([[1.0]]), np.zeros((1, 1)))

    def test_double_integrator(self):
        assert is_stabilizable(np.array([[0.0, 1.0], [0.0, 0.0]]),
                               np.array([[0.0], [1.0]]))

    def test_unstable_mode_outside_range(self):
        A = np.diag([1.0, -1.0])
        B = np.array([[0.0], [1.0]])
        assert not is_stabilizable(A, B)

    def test_empty_system(self):
        assert is_stabilizable(np.zeros((0, 0)), np.zeros((0, 2)))

    @pytest.mark.parametrize("A, B", [
        # uncontrollable unstable real mode next to a controllable one
        (np.array([[-1.0, 1.0], [0.0, 2.0]]), np.array([[1.0], [0.0]])),
        # uncontrollable unstable complex pair: a 2x2 real-Schur block
        (block_diag([[0.5, 2.0], [-2.0, 0.5]], [[-1.0]]),
         np.array([[0.0], [0.0], [1.0]])),
        # uncontrollable mode at 0
        (np.diag([0.0, -1.0]), np.array([[0.0], [1.0]])),
        # the same, rotated: B reaches the mode at 0 only through roundoff
        (ROT @ np.diag([0.0, -1.0]) @ ROT.T, ROT @ np.array([[0.0], [1.0]])),
        # a real coupling to the mode at 0 far under the rank cut
        (np.diag([0.0, -1.0]), np.array([[1e-14], [1.0]])),
        # Jordan block: B = e1 reaches only the eigenvector
        (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0], [0.0]])),
    ])
    def test_uncontrollable_mode_not_in_open_left_half_plane(self, A, B):
        assert not is_stabilizable(A, B)
        assert not pbh_stabilizable(A, B)

    def test_jordan_block_reached_through_its_chain(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert is_stabilizable(A, np.array([[0.0], [1.0]]))

    def test_hurwitz_with_widely_spread_modes(self):
        # the spectrum of est_rank1's perturbed adjoint: a norm-relative
        # margin (2.2 here) would test the mode -0.75 and find it
        # uncontrollable, but a Hurwitz matrix is always stabilizable
        A = np.diag([-0.75, -1e9, -2e9])
        assert is_stabilizable(A, np.zeros((3, 1)))

    @pytest.mark.parametrize("seed", [256, 1032, 1178])
    def test_margin_cluster_gets_a_plain_decision(self, seed):
        # a sorted Schur form of these matrices fails in LAPACK's
        # reordering (dgees info n+1) with the reference BLAS/LAPACK; the
        # unreached block's eigenvalues need no reordering
        A = clustered_pairs_on_the_margin(seed)
        assert type(is_stabilizable(A, np.zeros((6, 1)))) is bool

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stabilizability_instances())
    def test_matches_pbh_oracle(self, AB):
        A, B = AB
        assert is_stabilizable(A, B) == pbh_stabilizable(A, B)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stabilizability_instances())
    def test_agrees_with_schur_first_decision(self, AB):
        A, B = AB
        assert is_stabilizable(A, B) == schur_staircase_stabilizable(A, B)

    def test_agrees_with_schur_first_decision_on_hidden_blocks(self):
        # (A, B) = Q ([[A_c, A_12], [0, A_u]], [B_c; 0]) Q' with standard
        # normal blocks: A_u's modes land on both sides of the margin
        outcomes = set()
        for seed in range(2000):
            rng = np.random.default_rng([7, seed])
            n_c, n_u, m = rng.integers(1, 4), rng.integers(1, 4), rng.integers(0, 3)
            n = n_c + n_u
            A = rng.standard_normal((n, n))
            A[n_c:, :n_c] = 0.0
            B = np.zeros((n, m))
            B[:n_c] = rng.standard_normal((n_c, m))
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            A, B = Q @ A @ Q.T, Q @ B
            decision = is_stabilizable(A, B)
            assert decision == schur_staircase_stabilizable(A, B), seed
            outcomes.add(decision)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("kind", ["observer", "lq"])
    @pytest.mark.parametrize("n_hat", [10, 40, 160])
    def test_agrees_with_schur_first_decision_on_ladder(self, kind, n_hat):
        A, B = ladder_blocks(kind, n_hat, 1)[:2]
        assert is_stabilizable(A, B) == schur_staircase_stabilizable(A, B)

    @pytest.mark.parametrize("r", [160, 120])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_schur_first_decision_on_m4_draws(self, seed, r):
        lti = construct(random_dae(np.random.default_rng(seed), 160, 4, r)).lti
        assert is_stabilizable(lti.A_l, lti.B_l) \
            == schur_staircase_stabilizable(lti.A_l, lti.B_l)

    @pytest.mark.parametrize("kind", ["observer", "lq"])
    def test_controllable_pair_needs_no_eigenvalues(self, kind, monkeypatch):
        # the staircase leaves nothing unreached on a ladder draw, so no
        # Schur form and no eigensolve runs
        calls = []

        def recording(module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        for name in ("schur", "eig", "eigvals"):
            recording(scipy.linalg, name)
        for name in ("eig", "eigvals"):
            recording(np.linalg, name)
        assert not hasattr(riccati, "schur")
        A, B = ladder_blocks(kind, 160, 1)[:2]
        assert is_stabilizable(A, B)
        assert calls == []


class TestSolveAre:
    def test_scalar_hand_case(self):
        # A=0, B=1, C=[1;0], D=[0;1], S=diag(q,r): P = sqrt(qr), K = sqrt(q/r)
        for q, r in [(1.0, 1.0), (4.0, 1.0), (2.0, 8.0)]:
            rs = solve_are_blocks(np.zeros((1, 1)), np.eye(1),
                                  np.array([[1.0], [0.0]]),
                                  np.array([[0.0], [1.0]]), np.diag([q, r]))
            assert abs(rs.P[0, 0] - np.sqrt(q * r)) <= 1e-10
            assert abs(rs.K[0, 0] - np.sqrt(q / r)) <= 1e-10
        rs = solve_are_blocks(np.zeros((1, 1)), np.eye(1),
                              np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                              np.eye(2))
        assert abs(rs.closed_loop_spectrum[0].real + 1.0) <= 1e-10

    def test_degenerate_zero_cost(self):
        # stable A with no state cost: P = 0 (S only weights the input row)
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        rs = solve_are_blocks(A, np.array([[0.0], [1.0]]),
                              np.vstack([np.eye(2), np.zeros((1, 2))]),
                              np.array([[0.0], [0.0], [1.0]]),
                              np.diag([0.0, 0.0, 1.0]))
        assert np.linalg.norm(rs.P) <= 1e-10
        assert np.linalg.norm(rs.K) <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_on_transformed_problem(self, seed):
        rng = np.random.default_rng(900 + seed)
        n, k, nm = 3, 2, 5
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, k))
        C = rng.standard_normal((nm, n))
        D = np.vstack([np.zeros((nm - k, k)), np.eye(k)]) \
            + 0.1 * rng.standard_normal((nm, k))
        S = random_spd(rng, nm, 0.3)
        if not is_stabilizable(A, B):
            return
        rs = solve_are_blocks(A, B, C, D, S)
        # independent route: scipy CARE on the pre-transformed standard form
        W = D.T @ S @ D
        F_hat = -np.linalg.solve(W, D.T @ S @ C)
        Abar = A + B @ F_hat
        Cq = C + D @ F_hat
        Qbar = Cq.T @ S @ Cq
        P_ref = solve_continuous_are(Abar, B, 0.5 * (Qbar + Qbar.T), W)
        assert np.linalg.norm(rs.P - P_ref) <= 1e-7 * (1 + np.linalg.norm(P_ref))
        # residual and spectrum invariants
        resid = rs.P @ A + A.T @ rs.P - rs.K.T @ W @ rs.K + C.T @ S @ C
        assert np.linalg.norm(resid) <= 1e-8 * (1 + np.linalg.norm(rs.P))
        assert np.max(rs.closed_loop_spectrum.real) < -1e-9

    def test_not_stabilizable_raises(self):
        sys = DaeSystem(np.eye(1), np.array([[1.0]]), np.zeros((1, 1)))
        lti = construct(sys).lti
        # B_hat = 0 makes B_l = 0 while A_l = 1 is unstable
        w = LqWeights(np.eye(1), np.eye(1), np.eye(1))
        with pytest.raises(NotStabilizableError):
            solve_are(lti, w)

    @pytest.mark.parametrize("A, B", [
        # the unstable mode 1 is outside the range of B: the raw-block
        # solve rejects it itself instead of failing inside the Schur step
        (np.diag([1.0, -1.0]), np.array([[0.0], [1.0]])),
        # no inputs at all
        (np.diag([1.0, -1.0]), np.zeros((2, 0))),
    ])
    def test_blocks_decide_stabilizability(self, A, B):
        C = np.vstack([np.eye(2), np.zeros((B.shape[1], 2))])
        D = np.vstack([np.zeros((2, B.shape[1])), np.eye(B.shape[1])])
        with pytest.raises(NotStabilizableError):
            solve_are_blocks(A, B, C, D, np.eye(2 + B.shape[1]))

    @pytest.mark.parametrize("A", [
        np.diag([-1.0, -1e6]),
        np.array([[-1.0, 1e4], [0.0, -2.0]]),
        np.random.default_rng(0).standard_normal((160, 160)) - 15.0 * np.eye(160),
    ], ids=["stiff", "non_normal", "random160"])
    def test_k_zero_lyapunov_branch(self, A):
        # k = 0 takes the path with inputs at G = 0: the doubling is the
        # Smith iteration of A'P + PA + C'SC = 0
        n = A.shape[0]
        assert np.max(np.linalg.eigvals(A).real) < 0
        rs = solve_are_blocks(A, np.zeros((n, 0)), np.eye(n), np.zeros((n, 0)),
                              np.eye(n))
        P_ref = solve_continuous_lyapunov(A.T, -np.eye(n))
        assert np.linalg.norm(rs.P - P_ref) <= 1e-8 * np.linalg.norm(P_ref)
        assert rs.K.shape == (0, n)
        assert np.linalg.eigvalsh(rs.P)[0] > 0.0


class TestCertificate:
    """A successful solve proves P > 0 and Re lambda(A_l - B_l K) < -mu by
    Cholesky; eigenvalues run only when that test does not conclude, or
    when someone reads the spectrum."""

    @staticmethod
    def count_eigs(monkeypatch) -> list:
        calls = []
        for name in ("eig", "eigvals", "eigh", "eigvalsh"):
            def wrapped(*args, name=name, fn=getattr(np.linalg, name), **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, wrapped)
        return calls

    @pytest.mark.parametrize("kind", ["observer", "lq"])
    def test_success_runs_no_eigensolve(self, kind, monkeypatch):
        blocks = ladder_blocks(kind, 160, 1)
        calls = self.count_eigs(monkeypatch)
        rs = solve_are_blocks(*blocks)
        # the one eigh decides the input weight D_l' S D_l > 0; nothing
        # re-checks the solution
        assert calls == ["eigh"]
        calls.clear()
        spectrum = rs.closed_loop_spectrum
        assert rs.checks["closed_loop_max_real_part"] == \
            (float(np.max(spectrum.real)), 0.0) and spectrum.shape == (160,)
        assert calls == ["eigvals"]
        np.testing.assert_array_equal(rs.A_cl, blocks[0] - blocks[1] @ rs.K)

    def test_certificate_is_the_lyapunov_inequality(self):
        # A_cl = diag(-1, -3) with P = I: -(A_cl' P + P A_cl) - 2 mu P is
        # diag(2, 6) - 2 mu, positive definite for mu < 1 only
        A_cl, P = np.diag([-1.0, -3.0]), np.eye(2)
        assert riccati._lyapunov_certificate(P, A_cl)
        assert not riccati._lyapunov_certificate(P, np.diag([-1e-12, -3.0]))
        assert not riccati._lyapunov_certificate(np.diag([1.0, 0.0]), A_cl)
        assert not riccati._lyapunov_certificate(P, np.diag([1.0, -3.0]))

    def test_fallback_gives_the_same_solution(self, monkeypatch):
        blocks = ladder_blocks("observer", 40, 2)
        rs = solve_are_blocks(*blocks)

        def failing(M):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        calls = self.count_eigs(monkeypatch)
        fallback = solve_are_blocks(*blocks)
        assert calls.count("eigvals") == 1 and calls.count("eigvalsh") == 1
        assert fallback.P.tobytes() == rs.P.tobytes()
        assert fallback.K.tobytes() == rs.K.tobytes()
        assert fallback.checks == rs.checks

    def test_fallback_keeps_the_stability_decision(self, monkeypatch):
        # a P and K the certificate cannot vouch for still end as before
        monkeypatch.setattr(riccati, "_lyapunov_certificate", lambda P, A: False)
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda M: np.array([1e-3, -1.0]))
        with pytest.raises(InternalConsistencyError, match="not stable"):
            solve_are_blocks(np.diag([-1.0, -2.0]), np.eye(2),
                             np.vstack([np.eye(2), np.zeros((2, 2))]),
                             np.vstack([np.zeros((2, 2)), np.eye(2)]), np.eye(4))

    def test_reading_an_unstable_spectrum_raises(self):
        rs = riccati.RiccatiSolution(np.eye(1), np.zeros((0, 1)), 0.0, 1e-8,
                                     np.array([[0.5]]))
        with pytest.raises(InternalConsistencyError, match="not stable"):
            rs.checks

    def test_empty_state_reports_only_the_residual(self):
        rs = solve_are_blocks(np.zeros((0, 0)), np.zeros((0, 1)),
                              np.zeros((1, 0)), np.ones((1, 1)), np.eye(1))
        assert rs.checks == {"are_residual": (0.0, riccati.DEFAULT_ARE_TOL)}
        assert rs.closed_loop_spectrum.shape == (0,)


def ladder_blocks(kind: str, n_hat: int, seed: int):
    """Riccati blocks (A_l, B_l, C_l, D_l, S) shaped like the benchmark's
    synthesis rungs: the adjoint of an observed DAE with F of full rank
    and p = n/4 outputs, or a control DAE with rank E = n_hat and
    m = n/4 inputs; S is random SPD on the running-cost output."""
    rng = np.random.default_rng([seed, n_hat])
    if kind == "observer":
        n = n_hat
        sys = random_dae(rng, n, n // 4, n)
        sys = dual_dae(ObservedDae(sys.E, sys.A_hat, sys.B_hat.T.copy()))
    else:
        n = n_hat + n_hat // 4
        sys = random_dae(rng, n, n // 4, n_hat)
    lti = construct(sys).lti
    assert lti.n_hat == n_hat
    S = block_diag(random_spd(rng, n), random_spd(rng, sys.m))
    return lti.A_l, lti.B_l, lti.C_l, lti.D_l, S


class TestDoubling:
    """The structure-preserving doubling solve against the Hamiltonian
    Schur method it replaced, its Cayley-shift guard, its cost, and the
    typed end of a refinement that cannot succeed."""

    @pytest.mark.parametrize("kind", ["observer", "lq"])
    @pytest.mark.parametrize("n_hat", [10, 40, 160])
    def test_matches_hamiltonian_schur(self, kind, n_hat):
        blocks = ladder_blocks(kind, n_hat, 1)
        P = solve_are_blocks(*blocks).P
        P_ref = hamiltonian_schur_are(*blocks)
        assert np.linalg.norm(P - P_ref) <= 1e-10 * np.linalg.norm(P_ref)

    # doubling steps on ladder_blocks(kind, n_hat, 1) with the shift
    # max(||A_bar||_F, sqrt(||G||_F ||Q_bar||_F)) not yet divided by sqrt(n)
    UNSCALED_SHIFT_STEPS = {("observer", 10): 9, ("observer", 40): 10,
                            ("observer", 160): 11, ("lq", 10): 8, ("lq", 40): 10,
                            ("lq", 160): 11}

    @pytest.mark.parametrize("kind", ["observer", "lq"])
    @pytest.mark.parametrize("n_hat", [10, 40, 160])
    def test_no_more_steps_than_the_unscaled_shift(self, kind, n_hat,
                                                   doubling_steps):
        solve_are_blocks(*ladder_blocks(kind, n_hat, 1))
        assert 0 < len(doubling_steps) <= self.UNSCALED_SHIFT_STEPS[kind, n_hat]

    def test_shift_on_an_eigenvalue_is_doubled(self, monkeypatch):
        # A_bar = diag(2, -2): the first shift ||A_bar||_F / sqrt(2) = 2 is
        # one of its eigenvalues, so A_bar - 2 I is exactly singular
        factored = []

        def dgetrf(M, *args, **kwargs):
            factored.append(M.copy())
            return real(M, *args, **kwargs)

        real = riccati.dgetrf
        monkeypatch.setattr(riccati, "dgetrf", dgetrf)
        blocks = (np.diag([2.0, -2.0]), np.eye(2),
                  np.vstack([np.eye(2), np.zeros((2, 2))]),
                  np.vstack([np.zeros((2, 2)), np.eye(2)]),
                  np.diag([0.1, 0.1, 1.0, 1.0]))
        rs = solve_are_blocks(*blocks)
        np.testing.assert_array_equal(factored[0], np.diag([0.0, -4.0]))
        np.testing.assert_array_equal(factored[1], np.diag([-2.0, -6.0]))
        P_ref = hamiltonian_schur_are(*blocks)
        assert np.linalg.norm(rs.P - P_ref) <= 1e-10 * np.linalg.norm(P_ref)

    def test_no_usable_shift_is_typed(self):
        # A_bar = 0 and no state cost: every Hamiltonian eigenvalue is 0,
        # no stabilizing solution exists and every shift is 0
        with pytest.raises(InternalConsistencyError, match="Cayley shift"):
            solve_are_blocks(np.zeros((1, 1)), np.eye(1), np.zeros((2, 1)),
                             np.array([[0.0], [1.0]]), np.eye(2))

    def test_factors_nothing_larger_than_n_hat(self, monkeypatch):
        shapes = []

        def recording(fn):
            def wrapped(M, *args, **kwargs):
                shapes.append(np.shape(M))
                return fn(M, *args, **kwargs)
            return wrapped

        for name in ("dgetrf", "dgetri", "solve_continuous_lyapunov"):
            monkeypatch.setattr(riccati, name, recording(getattr(riccati, name)))
        for name in ("solve", "inv", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        blocks = ladder_blocks("observer", 40, 2)
        solve_are_blocks(*blocks)
        assert (40, 40) in shapes
        assert max(max(shape) for shape in shapes) == 40

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_few_inputs_end_typed(self):
        # n = 160, m = 4, rank E = 160 with identity weights: the first
        # Newton step meets a Lyapunov equation LAPACK has to perturb
        sys = random_dae(np.random.default_rng(0), 160, 4, 160)
        lti = construct(sys).lti
        w = LqWeights(np.eye(160), np.eye(4), np.eye(160))
        with pytest.raises(InternalConsistencyError, match="Newton step failed"):
            solve_are(lti, w)

    @pytest.mark.parametrize("r", [160, 120])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_m4_draws_solve_or_end_typed(self, seed, r):
        # n = 160, m = 4 with identity weights: ||P|| reaches 1e11 and
        # more; the polish either passes the gate or ends typed
        sys = random_dae(np.random.default_rng(seed), 160, 4, r)
        lti = construct(sys).lti
        w = LqWeights(np.eye(160), np.eye(4), np.eye(160))
        try:
            rs = solve_are(lti, w)
        except InternalConsistencyError:
            assert r == 160 or seed == 0
            return
        assert rs.residual <= riccati.DEFAULT_ARE_TOL * (1.0 + np.linalg.norm(rs.P))
        assert np.max(np.linalg.eigvals(lti.A_l - lti.B_l @ rs.K).real) < 0

    def test_stalled_polish_ends_early(self, monkeypatch):
        # residuals 1.8e15, 9.4e15, 3.0e15: the last two steps found no new
        # smallest residual, so the polish ends after 2 of MAX_REFINE solves
        solves = []

        def counted(*args):
            solves.append(args)
            return lyapunov(*args)

        lyapunov = riccati.solve_continuous_lyapunov
        monkeypatch.setattr(riccati, "solve_continuous_lyapunov", counted)
        sys = random_dae(np.random.default_rng(1), 160, 4, 140)
        lti = construct(sys).lti
        w = LqWeights(np.eye(160), np.eye(4), np.eye(160))
        with pytest.raises(InternalConsistencyError, match="stalled at residual"):
            solve_are(lti, w)
        assert len(solves) == 2 < riccati.MAX_REFINE


class TestController:
    def test_identity_case(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        sys = DaeSystem(np.eye(2), A, B)
        lti = construct(sys).lti
        w = LqWeights(np.eye(2), np.eye(1), np.eye(2))
        rs = solve_are(lti, w)
        ctrl = assemble_controller(lti, rs, sys.E)
        np.testing.assert_allclose(ctrl.B_c, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(ctrl.C_x, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(ctrl.A_c, A - B @ rs.K, atol=1e-12)

    def test_scalar_embedded_dae(self):
        # xdot1 = -x1, 0 = x2 + u gives A_c = -1 (free input is never used)
        sys = DaeSystem(np.diag([1.0, 0.0]),
                        np.array([[-1.0, 0.0], [0.0, 1.0]]),
                        np.array([[0.0], [1.0]]))
        lti = construct(sys).lti
        w = LqWeights(np.eye(2), np.eye(1), np.eye(2))
        rs = solve_are(lti, w)
        ctrl = assemble_controller(lti, rs, sys.E)
        np.testing.assert_allclose(ctrl.A_c, [[-1.0]], atol=1e-12)
        np.testing.assert_allclose(rs.P, [[0.5]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_defect_random(self, seed, reduced_instance_pool):
        sys, w, rec, rs = reduced_instance_pool[seed]
        ctrl = assemble_controller(rec.lti, rs, sys.E)
        defect = np.linalg.norm(ctrl.B_c @ sys.E @ ctrl.C_x - np.eye(rec.lti.n_hat))
        assert defect <= 1e-9 * (1 + np.linalg.norm(sys.E))


class TestCosts:
    def test_zero_initial_state(self):
        rs = solve_are_blocks(np.zeros((1, 1)), np.eye(1),
                              np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                              np.eye(2))
        assert optimal_cost(rs, [0.0]) == 0.0
        assert abs(optimal_cost(rs, [2.0]) - 4.0) <= 1e-9

    def test_evaluate_cost_terminal_only(self):
        sys = DaeSystem(np.eye(1), np.array([[-1.0]]), np.eye(1))
        lti = construct(sys).lti
        w = LqWeights(np.eye(1), np.eye(1), 2.0 * np.eye(1))
        g = SampledSignal.zeros(lti.k, [0.0])
        v0 = np.array([3.0])
        got = evaluate_cost(lti, w, sys.E, v0, g, 0.0)
        ECs = sys.E @ lti.C_s
        assert abs(got - float(v0 @ ECs.T @ w.Q0 @ ECs @ v0)) <= 1e-12

    def test_closed_form_exponential(self):
        # vdot = -v, no input freedom after feedback: cost has closed form
        sys = DaeSystem(np.eye(1), np.array([[-1.0]]), np.zeros((1, 0)))
        lti = construct(sys).lti
        w = LqWeights(np.eye(1), np.zeros((0, 0)), np.eye(1))
        t1 = 2.0
        grid = uniform_grid(t1, 1e-3)
        g = SampledSignal.zeros(0, grid)
        got = evaluate_cost(lti, w, sys.E, [1.0], g, t1)
        # int_0^2 e^{-2t} dt + e^{-4} terminal
        want = 0.5 * (1 - np.exp(-2 * t1)) + np.exp(-2 * t1)
        assert abs(got - want) <= 1e-6

    def test_optimal_cost_matches_closed_loop_simulation(self, reduced_instance_pool):
        from daeobs.signals import integrate_lti, quadratic_form_series, simpson
        sys, w, rec, rs = reduced_instance_pool[0]
        lti = rec.lti
        rng = np.random.default_rng(5)
        v0 = rng.standard_normal(lti.n_hat)
        t1 = 30.0
        grid = uniform_grid(t1, 1e-3)
        A_c = lti.A_l - lti.B_l @ rs.K
        v = integrate_lti(A_c, np.zeros((lti.n_hat, 0)), v0,
                          SampledSignal.zeros(0, grid))
        g_vals = -rs.K @ v.values
        nu = SampledSignal(grid, lti.C_l @ v.values + lti.D_l @ g_vals)
        running = simpson(nu.step, quadratic_form_series(w.S(), nu))
        assert abs(running - optimal_cost(rs, v0)) <= 1e-3 * (1 + running)

    def test_suboptimal_inputs_cost_more(self, reduced_instance_pool):
        sys, w, rec, rs = reduced_instance_pool[1]
        lti = rec.lti
        rng = np.random.default_rng(6)
        v0 = rng.standard_normal(lti.n_hat)
        t1 = 30.0
        grid = uniform_grid(t1, 2e-3)
        best = optimal_cost(rs, v0)
        for seed in range(5):
            g = SampledSignal(grid, 0.3 * np.random.default_rng(seed).standard_normal(
                (lti.k, grid.size)))
            cost = evaluate_cost(lti, w, sys.E, v0, g, t1)
            assert cost >= best - 1e-6 * (1 + best)

    def test_grid_mismatch(self):
        sys = DaeSystem(np.eye(1), np.array([[-1.0]]), np.eye(1))
        lti = construct(sys).lti
        w = LqWeights(np.eye(1), np.eye(1), np.eye(1))
        g = SampledSignal.zeros(lti.k, uniform_grid(1.0, 1e-2))
        with pytest.raises(InputError):
            evaluate_cost(lti, w, sys.E, [1.0], g, 2.0)

    def test_terminal_term_decays_along_closed_loop(self, reduced_instance_pool):
        # Q0 is absent from the Riccati equation because the optimal closed
        # loop sends the terminal term to zero; verify the decay explicitly.
        from scipy.linalg import expm
        sys, w, rec, rs = reduced_instance_pool[4]
        lti = rec.lti
        A_c = lti.A_l - lti.B_l @ rs.K
        ECs = sys.E @ lti.C_s
        M = ECs.T @ w.Q0 @ ECs
        rng = np.random.default_rng(13)
        v0 = rng.standard_normal(lti.n_hat)
        terms = []
        for t in (0.0, 5.0, 20.0):
            vt = expm(A_c * t) @ v0
            terms.append(float(vt @ M @ vt))
        assert terms[1] <= terms[0] * 1e-1 + 1e-12
        assert terms[2] <= terms[0] * 1e-6 + 1e-12
