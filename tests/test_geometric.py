import numpy as np
import pytest

from daeobs import DaeSystem, InternalConsistencyError, construct
from daeobs.fixtures import data_path
from daeobs.geometric import (
    OutputNullingData,
    _annihilator_levels,
    friend,
    input_kernel_matrix,
    output_nulling,
    weakly_observable_subspace,
)
from daeobs.linalg import Subspace
from daeobs.lti import assemble

from .conftest import cf_from_blocks, random_dae
from .oracles import (
    bounded_zeroing_lower_bound,
    friend_pinv,
    friend_zeroing,
    nested_step,
    nested_step_direct,
    vstar_loop,
)

ORACLE_HORIZON = 3.0
ORACLE_STEPS = 150


def check_subspace_against_zeroing_oracle(cf, V, horizon=ORACLE_HORIZON,
                                          n_steps=ORACLE_STEPS):
    """Assert that V matches brute-force output zeroing.

    Inside V: the friend produces an exactly zero output with bounded input
    energy.  Outside V: over the family of inputs whose energy fits the
    budget that covers every friend trajectory, the certified lower bound
    on output energy stays strictly positive (impulsive approximations are
    excluded by the budget).
    """
    r = cf.r
    blocks = (cf.A_tilde, cf.G, cf.C_tilde, cf.D_tilde)
    F_t = friend(cf, V, input_kernel_matrix(cf, V))
    scale = 1.0 + np.linalg.norm(cf.C_tilde) + np.linalg.norm(cf.D_tilde)
    budget = 1.0
    for i in range(V.dim):
        zmax, qen = friend_zeroing(*blocks, F_t, V.basis[:, i], horizon, n_steps)
        assert zmax <= 1e-8 * scale, f"friend fails to zero basis vector {i}: {zmax}"
        budget = max(budget, 4.0 * qen)
    rng = np.random.default_rng(99)
    Pp = V.perp_projector()
    for _ in range(5):
        w = Pp @ rng.standard_normal(r)
        if np.linalg.norm(w) < 1e-9:
            return  # V is the full space; nothing outside to test
        w = w / np.linalg.norm(w)
        lb = bounded_zeroing_lower_bound(*blocks, w, horizon, n_steps, budget)
        assert lb > 1e-5, f"state off the subspace looks zeroable: bound {lb}"


def friend_tol(cf, V, k: int) -> float:
    """Relative distance allowed between two friends from different
    least-squares solves: 1e-10, or about 10 eps times the condition
    number of K = [D_tilde; (I - P_V) G] over the q - k singular values
    that L's cut keeps, whichever is larger (the forward error of a
    backward-stable solve grows with that condition number)."""
    K = np.vstack([cf.D_tilde, V.perp_projector() @ cf.G])
    kept = np.linalg.svd(K, compute_uv=False)[: cf.q_dim - k]
    kappa = kept[0] / kept[-1] if kept.size else 1.0
    return max(1e-10, 10 * np.finfo(float).eps * kappa)


def structured_draw(rng) -> DaeSystem:
    """E = Q1 diag(I_r, 0) Q2 with sparse A and B in its coordinates:
    n in [3, 20), m in [0, 3), r in [1, n)."""
    n = int(rng.integers(3, 20))
    m = int(rng.integers(0, 3))
    r = int(rng.integers(1, n))
    Q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    E = Q1 @ np.diag(np.r_[np.ones(r), np.zeros(n - r)]) @ Q2
    A = Q1 @ (rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.25)) @ Q2
    B = Q1 @ (rng.standard_normal((n, m)) * (rng.uniform(size=(n, m)) < 0.5))
    return DaeSystem(E, A, B)


class TestWeaklyObservableSubspace:
    def test_zero_output_map_gives_full_space(self):
        cf = cf_from_blocks(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.zeros((2, 1)), np.zeros((1, 2)),
                            np.zeros((1, 1)), m=0)
        V = weakly_observable_subspace(cf)
        assert V.dim == 2
        np.testing.assert_array_equal(V.basis, np.eye(2))

    def test_identity_output_gives_zero_space(self):
        # C_tilde rows see every state instantly, no feedthrough escape
        cf = cf_from_blocks(np.zeros((2, 2)), np.zeros((2, 2)),
                            np.eye(2), np.zeros((2, 2)), m=0)
        assert weakly_observable_subspace(cf).dim == 0

    def test_observable_chain_is_zero(self):
        # A = [[0,1],[0,0]], G = [[0],[1]], C = [1,0], D = [0]:
        # the output pins x1, its derivative pins x2.
        cf = cf_from_blocks(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.array([[0.0], [1.0]]),
                            np.array([[1.0, 0.0]]),
                            np.array([[0.0]]), m=1)
        assert weakly_observable_subspace(cf).dim == 0

    def test_partially_hidden_state(self):
        # x2 never reaches the output and nothing couples it back
        cf = cf_from_blocks(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                            np.array([[1.0, 0.0]]), np.zeros((1, 1)), m=0)
        V = weakly_observable_subspace(cf)
        assert V.dim == 1
        np.testing.assert_allclose(np.abs(V.basis.ravel()), [0.0, 1.0], atol=1e-12)

    def test_monotone_dimension_decrease(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys = random_dae(rng, 4, int(rng.integers(0, 2)), int(rng.integers(1, 5)))
            from daeobs.dae import canonical_form
            cf = canonical_form(sys)
            dims = [cf.r] + [cf.r - Y.shape[1]
                             for Y in _annihilator_levels(cf, 1e-10)]
            assert all(a > b >= 0 for a, b in zip(dims, dims[1:]))
            assert len(dims) - 1 <= cf.r
            assert dims[-1] == weakly_observable_subspace(cf).dim

    def test_structured_draws_build_and_match_reference(self):
        """Sparse A and B in the coordinates of E = Q1 diag(I_r, 0) Q2 give
        ranks near the cut: every draw must build, and dim V* must equal the
        from-scratch reference iteration wherever that reference returns an
        output-nulling subspace (one that admits a friend).  The friend,
        which reads L's rank decision, must equal the pseudoinverse
        reference that makes its own."""
        rng = np.random.default_rng(1)
        compared = 0
        for _ in range(2000):
            rec = construct(structured_draw(rng))
            F_ref = friend_pinv(rec.cf, rec.V)
            assert np.linalg.norm(rec.ond.F_tilde - F_ref) <= \
                friend_tol(rec.cf, rec.V, rec.ond.k) * max(1.0, np.linalg.norm(F_ref))
            try:
                V_ref = vstar_loop(rec.cf)
                L_ref = input_kernel_matrix(rec.cf, V_ref)
                assemble(rec.cf, OutputNullingData(
                    V_ref, friend(rec.cf, V_ref, L_ref), L_ref))
            except (RuntimeError, InternalConsistencyError):
                continue
            assert rec.V.dim == V_ref.dim
            compared += 1
        assert compared >= 1800

    def test_step_matches_the_kernel_image(self):
        """nested_step reads the lost directions off M's row space; it
        must give the subspace that the kernel's y-block image gives."""
        rng = np.random.default_rng(2)
        steps = 0
        for _ in range(300):
            cf = construct(structured_draw(rng)).cf
            Q, c = np.eye(cf.r), cf.r
            while c:
                ref = nested_step_direct(cf, Q, c)
                Q, c_next = nested_step(cf, Q, c, 1e-10)
                assert c_next == ref.shape[1]
                W = Q[:, :c_next]
                np.testing.assert_allclose(W @ W.T, ref @ ref.T, atol=1e-8)
                steps += 1
                if c_next == c:
                    break
                c = c_next
        assert steps >= 400

    def test_levels_match_the_classical_iterates(self):
        """After each level, the complement of Y is the classical iterate
        V_{k+1} computed from the previous level's V_k, and no classical
        step shrinks the final complement."""
        rng = np.random.default_rng(2)
        shrinking = 0
        for _ in range(300):
            cf = construct(structured_draw(rng)).cf
            r = cf.r
            Q, c = np.eye(r), r
            for Y in _annihilator_levels(cf, 1e-10):
                ref = nested_step_direct(cf, Q, c)
                c = r - Y.shape[1]
                assert ref.shape[1] == c
                np.testing.assert_allclose(np.eye(r) - Y @ Y.T, ref @ ref.T,
                                           atol=1e-8)
                Qy = np.linalg.qr(Y, mode="complete")[0]
                Q = np.hstack([Qy[:, r - c:], Qy[:, :r - c]])
                shrinking += 1
            if c:
                assert nested_step_direct(cf, Q, c).shape[1] == c
        assert shrinking >= 150


def shift_chain(r: int, hidden: bool = False) -> DaeSystem:
    """E = diag(I_r, 0), A_tilde = -I + the lower shift, C_tilde = e_r and
    no input that reaches the chain: each V* level finds one direction.
    ``hidden`` appends an uncoupled, unobserved state x' = -x."""
    d = r + int(hidden)
    A = np.zeros((d + 1, d + 1))
    A[np.arange(1, r), np.arange(r - 1)] = 1.0
    A[np.arange(d), np.arange(d)] = -1.0
    A[d, r - 1] = 1.0
    E = np.diag(np.r_[np.ones(d), 0.0])
    return DaeSystem(E, A, np.zeros((d + 1, 1)))


class TestChainCost:
    """The shift chain is the worst case of the V* iteration: r levels of
    one direction each.  Every SVD the iteration takes must stay thin (one
    side at most max(p, q)), which is what keeps the chain O(r^3)."""

    @staticmethod
    def _levels_and_shapes(sys, monkeypatch):
        from daeobs import geometric
        from daeobs.dae import canonical_form
        cf = canonical_form(sys)
        shapes = []

        def svd(M, *args, **kwargs):
            shapes.append(M.shape)
            return original_svd(M, *args, **kwargs)

        original_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", svd)
        levels = sum(1 for _ in _annihilator_levels(cf, 1e-10))
        V = weakly_observable_subspace(cf)
        p, q = cf.D_tilde.shape
        assert shapes and all(min(shape) <= max(p, q) for shape in shapes)
        return levels, V

    @pytest.mark.parametrize("rotated", [False, True])
    def test_chain_runs_r_thin_levels(self, rotated, monkeypatch):
        sys = shift_chain(80)
        if rotated:
            rng = np.random.default_rng(7)
            S, T = (np.linalg.qr(rng.standard_normal((sys.n, sys.n)))[0]
                    for _ in range(2))
            sys = DaeSystem(S @ sys.E @ T, S @ sys.A_hat @ T, S @ sys.B_hat)
        levels, V = self._levels_and_shapes(sys, monkeypatch)
        assert V.dim == 0
        assert levels == 80

    def test_hidden_state_survives(self, monkeypatch):
        levels, V = self._levels_and_shapes(shift_chain(80, hidden=True),
                                            monkeypatch)
        assert V.dim == 1
        assert levels == 80


class TestSimulationOracle:
    """V* must agree with brute-force output zeroing: states in V* admit
    near-zero discretized output energy, states off V* do not."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_small_systems(self, seed):
        rng = np.random.default_rng(300 + seed)
        r = int(rng.integers(1, 4))
        n_minus_r = int(rng.integers(0, 3))
        m = int(rng.integers(0, 3))
        A = rng.standard_normal((r, r))
        G = rng.standard_normal((r, n_minus_r + m))
        C = rng.standard_normal((n_minus_r, r))
        D = rng.standard_normal((n_minus_r, n_minus_r + m))
        cf = cf_from_blocks(A, G, C, D, m=m)
        V = weakly_observable_subspace(cf)
        self._check_against_oracle(cf, V)

    @pytest.mark.parametrize("case", ["chain", "hidden", "free"])
    def test_structured_systems(self, case):
        if case == "chain":
            cf = cf_from_blocks(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                np.array([[0.0], [1.0]]),
                                np.array([[1.0, 0.0]]), np.array([[0.0]]), m=1)
        elif case == "hidden":
            cf = cf_from_blocks(np.diag([-1.0, -2.0, 0.5]), np.zeros((3, 1)),
                                np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 1)), m=0)
        else:
            cf = cf_from_blocks(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                np.eye(2), np.zeros((0, 2)), np.zeros((0, 2)), m=2)
        V = weakly_observable_subspace(cf)
        self._check_against_oracle(cf, V)

    def _check_against_oracle(self, cf, V):
        check_subspace_against_zeroing_oracle(cf, V)


class TestFriend:
    def test_zero_subspace_gives_zero_friend(self):
        cf = cf_from_blocks(np.zeros((2, 2)), np.zeros((2, 2)),
                            np.eye(2), np.zeros((2, 2)), m=0)
        V = weakly_observable_subspace(cf)
        F = friend(cf, V, input_kernel_matrix(cf, V))
        assert F.shape == (2, 2)
        assert np.all(F == 0.0)

    def test_zero_output_map_gives_zero_friend(self):
        cf = cf_from_blocks(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.ones((2, 2)), np.zeros((1, 2)),
                            np.zeros((1, 2)), m=1)
        V = weakly_observable_subspace(cf)
        assert V.dim == 2
        F = friend(cf, V, input_kernel_matrix(cf, V))
        assert np.linalg.norm(F) <= 1e-12

    def test_checks_feasibility_without_inputs(self):
        """With q_dim = 0 the friend is empty, and its residual is the
        invariance defect of V: a V that A_tilde does not map into itself
        fails assemble's check instead of passing unchecked."""
        cf = cf_from_blocks(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.zeros((2, 0)), np.zeros((0, 2)),
                            np.zeros((0, 0)), m=0)
        assert cf.q_dim == 0
        L = np.zeros((0, 0))

        def data(basis):
            V = Subspace(np.array(basis))
            F = friend(cf, V, L)
            assert F.shape == (0, 2)
            return OutputNullingData(V=V, F_tilde=F, L=L)

        assemble(cf, data(np.eye(2)))
        assemble(cf, data([[1.0], [0.0]]))
        with pytest.raises(InternalConsistencyError, match="friend feasibility"):
            assemble(cf, data([[0.0], [1.0]]))

    @pytest.mark.parametrize("rank_tol", [0.01, 0.15, 0.3])
    def test_matches_the_pseudoinverse_reference(self, rank_tol):
        """On est_rank1's adjoint the cuts at 0.15 and 0.3 drop a real
        singular value of K, so both friends fail feasibility there (in
        assemble); the friend itself checks nothing and must still
        compute the same F_tilde."""
        from daeobs.dae import canonical_form, dual_dae
        from daeobs.problem_io import load_problem
        obs = load_problem(data_path("est_rank1.json")).problem.obs
        cf = canonical_form(dual_dae(obs), rank_tol)
        V = weakly_observable_subspace(cf, rank_tol)
        F = friend(cf, V, input_kernel_matrix(cf, V, rank_tol))
        F_ref = friend_pinv(cf, V, rank_tol)
        assert V.dim and np.linalg.norm(F_ref)
        assert np.linalg.norm(F - F_ref) <= 1e-10 * max(1.0, np.linalg.norm(F_ref))

    def test_reads_the_cut_of_L(self, monkeypatch):
        """The friend takes no SVD and makes no rank cut: one construct of
        ctrl_rank1 runs 3 SVDs of non-empty matrices (and a 0 x 1 level
        SVD), none of them inside the friend, and L's rank is not decided
        again after the cut that fixed k."""
        from daeobs import geometric, linalg
        from daeobs.problem_io import load_problem
        inside, svd_calls, rank_calls = [False], [], []
        original_friend, original_svd = geometric.friend, np.linalg.svd

        def counted_friend(*args, **kwargs):
            inside[0] = True
            try:
                return original_friend(*args, **kwargs)
            finally:
                inside[0] = False

        def counted(calls, fn):
            def wrapped(*args, **kwargs):
                calls.append(inside[0])
                return fn(*args, **kwargs)
            return wrapped

        def counted_svd(M, *args, **kwargs):
            svd_calls.append((inside[0], M.size))
            return original_svd(M, *args, **kwargs)

        sys = load_problem(data_path("ctrl_rank1.json")).problem.sys
        monkeypatch.setattr(geometric, "friend", counted_friend)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for mod in (geometric, linalg):
            monkeypatch.setattr(mod, "_rank", counted(rank_calls, mod._rank))
        rec = construct(sys)
        assert rec.V.dim and rec.cf.q_dim
        assert sum(1 for _, size in svd_calls if size) == 3
        assert not any(in_friend for in_friend, _ in svd_calls)
        assert not any(rank_calls)

    @pytest.mark.parametrize("seed", range(8))
    def test_defect_norms(self, seed):
        rng = np.random.default_rng(400 + seed)
        sys = random_dae(rng, 4, int(rng.integers(0, 3)), int(rng.integers(1, 5)))
        from daeobs.dae import canonical_form
        cf = canonical_form(sys)
        data = output_nulling(cf)
        scale = 1 + np.linalg.norm(cf.A_tilde) + np.linalg.norm(cf.G)
        W, Pp = data.V.basis, data.V.perp_projector()
        defects = dict(
            L_in_kernel=np.linalg.norm(cf.D_tilde @ data.L),
            GL_in_V=np.linalg.norm(Pp @ cf.G @ data.L),
            invariance=np.linalg.norm(Pp @ (cf.A_tilde + cf.G @ data.F_tilde) @ W),
            output_zeroing=np.linalg.norm((cf.C_tilde + cf.D_tilde @ data.F_tilde) @ W))
        for name, value in defects.items():
            assert value <= 1e-9 * scale, (name, value)


class TestInputKernelMatrix:
    def test_no_constraints(self):
        # D_tilde = 0 and V full: L spans the whole input space
        cf = cf_from_blocks(np.zeros((2, 2)), np.ones((2, 3)),
                            np.zeros((1, 2)), np.zeros((1, 3)), m=2)
        V = weakly_observable_subspace(cf)
        assert V.dim == 2
        L = input_kernel_matrix(cf, V)
        assert L.shape == (3, 3)

    def test_identity_feedthrough_gives_empty(self):
        cf = cf_from_blocks(np.zeros((2, 2)), np.ones((2, 2)),
                            np.zeros((2, 2)), np.eye(2), m=0)
        V = weakly_observable_subspace(cf)
        L = input_kernel_matrix(cf, V)
        assert L.shape[1] == 0

    def test_hand_checkable_intersection(self):
        # D_tilde = [1, 0], G = [[1, 0]], V = {0}: Im L = ker D cap ker G
        cf = cf_from_blocks(np.zeros((1, 1)), np.array([[1.0, 0.0]]),
                            np.array([[1.0]]), np.array([[1.0, 0.0]]), m=1)
        L = input_kernel_matrix(cf, Subspace(np.zeros((1, 0))))
        assert L.shape == (2, 1)
        np.testing.assert_allclose(np.abs(L.ravel()), [0.0, 1.0], atol=1e-12)
