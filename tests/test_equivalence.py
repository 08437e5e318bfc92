import numpy as np
import pytest
from dataclasses import replace

from daeobs import (
    DaeSystem,
    InputError,
    InternalConsistencyError,
    build_equivalence,
    construct,
    synthesize_estimator,
)
from daeobs.equivalence import (
    STRUCTURAL_TOL,
    _well_conditioned,
    randomized_construction,
    verify_equivalence,
)
from daeobs.fixtures import data_path
from daeobs.problem_io import load_problem

from .conftest import random_dae
from .oracles import optimal_cost
from .test_observer import classical_problem

TOL = 1e-8


def rank1_system():
    return DaeSystem(np.diag([1.0, 0.0]),
                     np.array([[-1.0, 0.0], [0.0, 1.0]]),
                     np.array([[0.0], [1.0]]))


class TestBuildEquivalence:
    def test_identity_pair(self):
        sys = rank1_system()
        rec = construct(sys)
        eq = build_equivalence(rec, rec)
        assert eq.max_defect <= 1e-14
        np.testing.assert_allclose(eq.T, np.eye(rec.lti.n_hat), atol=1e-12)
        np.testing.assert_allclose(eq.U, np.eye(rec.lti.k), atol=1e-12)
        assert np.linalg.norm(eq.F) <= 1e-12

    def test_different_dae_rejected(self):
        rng = np.random.default_rng(0)
        rec1 = construct(random_dae(rng, 3, 1, 2))
        rec2 = construct(random_dae(rng, 3, 1, 2))
        with pytest.raises(InputError):
            build_equivalence(rec1, rec2)

    def test_different_size_rejected(self):
        rng = np.random.default_rng(0)
        rec1 = construct(random_dae(rng, 2, 1, 1))
        rec2 = construct(random_dae(rng, 3, 1, 1))
        with pytest.raises(InputError, match="different DAE"):
            build_equivalence(rec1, rec2)

    @pytest.mark.parametrize("seed", range(6))
    def test_identity_E_randomized_pairs(self, seed):
        rng = np.random.default_rng(1200 + seed)
        sys = DaeSystem(np.eye(3), rng.standard_normal((3, 3)),
                        rng.standard_normal((3, 2)))
        base = construct(sys)
        other = randomized_construction(construct(sys), rng)
        eq = build_equivalence(base, other)
        assert eq.max_defect <= TOL, eq.defects
        rep = verify_equivalence(base.lti, other.lti, eq)
        assert rep.max_residual <= TOL, rep.residuals

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_deficient_pairs(self, seed):
        rng = np.random.default_rng(1300 + seed)
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n))
        m = int(rng.integers(0, 3))
        sys = random_dae(rng, n, m, r)
        rec1 = randomized_construction(construct(sys), rng)
        rec2 = randomized_construction(construct(sys), rng)
        # same input-kernel rank on both sides
        assert rec1.ond.k == rec2.ond.k
        eq = build_equivalence(rec1, rec2)
        assert eq.max_defect <= TOL, eq.defects
        rep = verify_equivalence(rec1.lti, rec2.lti, eq)
        assert rep.max_residual <= TOL, rep.residuals

    def test_randomized_build_decides_no_rank_of_E(self, monkeypatch):
        """The randomized canonical form takes r from the base record, so
        building it runs no SVD."""
        from daeobs import equivalence
        inside, svd_calls = [False], []
        original_cf = equivalence.canonical_form_from_transforms
        original_svd = np.linalg.svd

        def counted_cf(*args, **kwargs):
            inside[0] = True
            try:
                return original_cf(*args, **kwargs)
            finally:
                inside[0] = False

        def counted_svd(*args, **kwargs):
            svd_calls.append(inside[0])
            return original_svd(*args, **kwargs)

        base = construct(random_dae(np.random.default_rng(0), 4, 1, 2))
        monkeypatch.setattr(equivalence, "canonical_form_from_transforms",
                            counted_cf)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        randomized_construction(base, np.random.default_rng(1))
        assert svd_calls and not any(svd_calls)

    def test_build_equivalence_decides_no_rank(self, monkeypatch):
        """L1 has full column rank k by construction, so its pseudoinverse
        comes from a thin QR and building the equivalence runs no SVD."""
        base = construct(random_dae(np.random.default_rng(0), 4, 2, 2))
        rec2 = randomized_construction(base, np.random.default_rng(1))
        assert base.ond.k
        svd_calls = []
        for name in ("svd", "pinv"):
            def counted(*args, _original=getattr(np.linalg, name), **kwargs):
                svd_calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        eq = build_equivalence(base, rec2)
        assert not svd_calls
        assert eq.max_defect <= STRUCTURAL_TOL, eq.defects

    @pytest.mark.parametrize("n", [1, 60, 160])
    def test_random_coordinate_changes_are_well_conditioned(self, n):
        M = _well_conditioned(np.random.default_rng(n), n)
        assert M.shape == (n, n)
        assert np.linalg.cond(M) <= 4.0

    def test_randomized_build_at_160_states(self):
        """The draws that randomize a build take no retries, so a build of
        a 160-state problem (r = 120, m = 40) returns, and stays
        equivalent to the base."""
        base = construct(random_dae(np.random.default_rng(0), 160, 40, 120))
        rec2 = randomized_construction(base, np.random.default_rng(0))
        eq = build_equivalence(base, rec2)
        assert eq.max_defect <= STRUCTURAL_TOL, eq.defects
        rep = verify_equivalence(base.lti, rec2.lti, eq)
        assert rep.max_residual <= STRUCTURAL_TOL, rep.residuals

    def test_randomized_build_checks_its_output_nulling_data(self):
        """A randomized build runs output_nulling in its own coordinates,
        so a coarse cut that takes L out of ker D_tilde there stops at
        that identity (ctrl_algebraic at 0.1, first build of seed 0)."""
        sys = load_problem(data_path("ctrl_algebraic.json")).problem.sys
        base = construct(sys, rank_tol=0.1)
        with pytest.raises(InternalConsistencyError,
                           match="output-nulling L_in_kernel"):
            randomized_construction(base, np.random.default_rng(0), rank_tol=0.1)

    def test_perturbed_U_detected(self):
        sys = rank1_system()
        rng = np.random.default_rng(9)
        rec1 = construct(sys)
        rec2 = randomized_construction(construct(sys), rng)
        eq = build_equivalence(rec1, rec2)
        if eq.U.size == 0:
            pytest.skip("no input freedom to perturb")
        bad = replace(eq, U=eq.U + 0.1 * np.eye(eq.U.shape[0]))
        rep = verify_equivalence(rec1.lti, rec2.lti, bad)
        assert rep.max_residual > 100 * TOL


class TestInvarianceOfSynthesis:
    def test_sigma_invariant_across_dual_builds(self):
        from daeobs.dae import dual_dae
        prob = classical_problem()
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        sigma_base = synth.for_ell(prob.ell).sigma
        adj = dual_dae(prob.obs)
        rng = np.random.default_rng(11)
        for _ in range(3):
            rec2 = randomized_construction(construct(adj), rng)
            synth2 = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R,
                                          dual_record=rec2)
            sigma2 = synth2.for_ell(prob.ell).sigma
            assert abs(sigma2 - sigma_base) <= 1e-8 * (1 + sigma_base)

    def test_optimal_value_invariant_across_builds(self, reduced_instance_pool):
        from daeobs import solve_are
        sys, w, rec, rs = reduced_instance_pool[3]
        rng = np.random.default_rng(12)
        x0 = rec.lti.C_s @ rng.standard_normal(rec.lti.n_hat)
        v0 = rec.lti.Lambda @ (sys.E @ x0)
        base_value = optimal_cost(rs, v0)
        for _ in range(3):
            rec2 = randomized_construction(construct(sys), rng)
            rs2 = solve_are(rec2.lti, w)
            v02 = rec2.lti.Lambda @ (sys.E @ x0)
            value2 = optimal_cost(rs2, v02)
            assert abs(value2 - base_value) <= 1e-8 * (1 + abs(base_value))
