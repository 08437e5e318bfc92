import numpy as np
import pytest

from daeobs import (
    DaeSystem,
    InternalConsistencyError,
    construct,
    friend,
    input_kernel_matrix,
    output_nulling,
    weakly_observable_subspace,
)
from daeobs.geometric import _nested_step

from .conftest import cf_from_blocks, random_dae
from .oracles import (
    bounded_zeroing_lower_bound,
    friend_zeroing,
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
    F_t = friend(cf, V)
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
            from daeobs import canonical_form
            cf = canonical_form(sys)
            Q, c = np.eye(cf.r), cf.r
            dims = [c]
            for _ in range(cf.r + 1):
                Q, c_next = _nested_step(cf, Q, c, 1e-10)
                dims.append(c_next)
                if c_next == c:
                    break
                c = c_next
            assert all(a >= b for a, b in zip(dims, dims[1:]))
            assert dims[-1] == dims[-2]
            assert len(dims) - 1 <= cf.r + 1

    def test_structured_draws_build_and_match_reference(self):
        """Sparse A and B in the coordinates of E = Q1 diag(I_r, 0) Q2 give
        ranks near the cut: every draw must build, and dim V* must equal the
        from-scratch reference iteration wherever that reference returns an
        output-nulling subspace (one that admits a friend)."""
        rng = np.random.default_rng(1)
        compared = 0
        for _ in range(2000):
            rec = construct(structured_draw(rng))
            try:
                V_ref = vstar_loop(rec.cf)
                friend(rec.cf, V_ref)
            except (RuntimeError, InternalConsistencyError):
                continue
            assert rec.V.dim == V_ref.dim
            compared += 1
        assert compared >= 1800

    def test_step_matches_the_kernel_image(self):
        """_nested_step reads the lost directions off M's row space; it
        must give the subspace that the kernel's y-block image gives."""
        rng = np.random.default_rng(2)
        steps = 0
        for _ in range(300):
            cf = construct(structured_draw(rng)).cf
            Q, c = np.eye(cf.r), cf.r
            while c:
                ref = nested_step_direct(cf, Q, c)
                Q, c_next = _nested_step(cf, Q, c, 1e-10)
                assert c_next == ref.shape[1]
                W = Q[:, :c_next]
                np.testing.assert_allclose(W @ W.T, ref @ ref.T, atol=1e-8)
                steps += 1
                if c_next == c:
                    break
                c = c_next
        assert steps >= 400


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
        F = friend(cf, V)
        assert F.shape == (2, 2)
        assert np.all(F == 0.0)

    def test_zero_output_map_gives_zero_friend(self):
        cf = cf_from_blocks(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.ones((2, 2)), np.zeros((1, 2)),
                            np.zeros((1, 2)), m=1)
        V = weakly_observable_subspace(cf)
        assert V.dim == 2
        F = friend(cf, V)
        assert np.linalg.norm(F) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_defect_norms(self, seed):
        rng = np.random.default_rng(400 + seed)
        sys = random_dae(rng, 4, int(rng.integers(0, 3)), int(rng.integers(1, 5)))
        from daeobs import canonical_form
        cf = canonical_form(sys)
        data = output_nulling(cf)
        scale = 1 + np.linalg.norm(cf.A_tilde) + np.linalg.norm(cf.G)
        for name, value in data.defects(cf).items():
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
        from daeobs.linalg import Subspace
        cf = cf_from_blocks(np.zeros((1, 1)), np.array([[1.0, 0.0]]),
                            np.array([[1.0]]), np.array([[1.0, 0.0]]), m=1)
        L = input_kernel_matrix(cf, Subspace.zero(1))
        assert L.shape == (2, 1)
        np.testing.assert_allclose(np.abs(L.ravel()), [0.0, 1.0], atol=1e-12)
