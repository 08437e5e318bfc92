import re

import numpy as np
import pytest

from scipy.integrate import trapezoid

from daeobs import InputError
from daeobs.signals import (
    SampledSignal,
    _apply,
    integrate_lti,
    quadratic_form_series,
    simpson,
    uniform_grid,
)

from .oracles import quadratic_form_series_reference, rk4_loop


def _forced(n, k, t1, h, seed=0):
    """Seeded input samples and initial state for an n-state, k-input
    system on a uniform grid."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(t1, h)
    freqs = rng.uniform(0.1, 2.0, size=(k, 1))
    U = np.sin(freqs * grid + rng.uniform(0, np.pi, size=(k, 1)))
    return grid, U, rng.standard_normal((n, k)), rng.standard_normal(n)


def _rel_dev(A, B, x0, grid, U):
    """Largest deviation of integrate_lti from the step loop, relative to
    the largest state entry."""
    h = grid[1] - grid[0] if grid.size > 1 else 0.0
    out = integrate_lti(A, B, x0, SampledSignal(grid, U))
    ref = rk4_loop(A, B, x0, h, U)
    return np.max(np.abs(out.values - ref)) / np.max(np.abs(ref))


class TestSampledSignal:
    def test_validation(self):
        with pytest.raises(InputError):
            SampledSignal(np.array([0.0, 0.0, 1.0]), np.zeros((1, 3)))
        with pytest.raises(InputError):
            SampledSignal(np.array([0.0, 1.0]), np.zeros((1, 3)))

    def test_step_rejects_nonuniform(self):
        with pytest.raises(InputError):
            SampledSignal(np.array([0.0, 0.5, 2.0]), np.zeros((1, 3)))

    @pytest.mark.parametrize("grid, message", [
        ([0.0, 0.5, 2.0], "non-uniform grid where a uniform one is required"),
        ([0.0, 1.0, 1.0], "grid must be strictly increasing"),
        ([2.0, 1.0, 0.0], "grid must be strictly increasing"),
        ([0.0, np.nan, 2.0], "grid contains non-finite entries"),
        ([0.0, 1.0, np.inf], "grid contains non-finite entries"),
        ([np.nan], "grid contains non-finite entries"),
    ], ids=["non-uniform", "repeated", "decreasing", "nan", "inf", "one-nan"])
    def test_rejects_a_bad_grid_when_built(self, grid, message):
        with pytest.raises(InputError, match=message):
            SampledSignal(np.array(grid), np.ones((1, len(grid))))

    @pytest.mark.parametrize("t1, step", [(1e308, 1e-3), (20.0, 1e-320),
                                          (1e300, 1e-10)])
    def test_uniform_grid_rejects_a_step_count_beyond_floats(self, t1, step):
        with pytest.raises(InputError, match="is not a finite step count"):
            uniform_grid(t1, step)

    # counts beyond numpy's array-size limit only: from about 1e8 to 1e18
    # steps numpy would try to allocate the grid
    @pytest.mark.parametrize("t1, step", [(1e16, 1e-3), (1e19, 1e-3),
                                          (1e300, 1e-3), (2.0 ** 60, 1.0),
                                          (2.0 ** 63, 1.0)])
    def test_uniform_grid_rejects_a_step_count_beyond_one_array(self, t1, step):
        message = (f"horizon {t1:g} over step {step:g} is {t1 / step:g} "
                   "steps, more than one array can hold")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            uniform_grid(t1, step)

    def test_grid_is_a_private_read_only_copy(self):
        g = np.linspace(0.0, 1.0, 5)
        sig = SampledSignal(g, np.zeros((1, 5)))
        g[2] = 5.0
        np.testing.assert_array_equal(sig.grid, np.linspace(0.0, 1.0, 5))
        assert sig.step == 0.25
        with pytest.raises(ValueError):
            sig.grid[3] = -1.0

    def test_with_values_shares_the_grid_and_checks_only_values(self, monkeypatch):
        sig = SampledSignal(uniform_grid(1.0, 0.25), np.zeros((1, 5)))
        diffs = []
        diff = np.diff

        def counted(*args, **kwargs):
            diffs.append(args)
            return diff(*args, **kwargs)

        monkeypatch.setattr(np, "diff", counted)
        derived = sig.with_values(np.ones((3, 5)))
        assert derived.grid is sig.grid
        assert sig.step == derived.step == 0.25
        assert derived.values.shape == (3, 5)
        assert diffs == []
        with pytest.raises(InputError, match="4 samples but grid has 5"):
            sig.with_values(np.ones((1, 4)))
        with pytest.raises(InputError, match="non-finite"):
            sig.with_values(np.full((1, 5), np.nan))


class TestIntegrator:
    def test_constant_state(self):
        grid = uniform_grid(1.0, 0.1)
        out = integrate_lti(np.zeros((2, 2)), np.zeros((2, 0)), [1.0, -2.0],
                            SampledSignal.zeros(0, grid))
        assert np.max(np.abs(out.values - np.array([[1.0], [-2.0]]))) == 0.0

    def test_known_exponential(self):
        grid = uniform_grid(1.0, 1e-3)
        out = integrate_lti(np.array([[-1.0]]), np.zeros((1, 0)), [1.0],
                            SampledSignal.zeros(0, grid))
        assert abs(out.values[0, -1] - np.exp(-1.0)) <= 1e-8

    def test_order_four_convergence(self):
        A = np.array([[0.0, 1.0], [-4.0, -0.5]])
        x0 = np.array([1.0, 0.0])

        def max_err(h):
            grid = uniform_grid(2.0, h)
            out = integrate_lti(A, np.zeros((2, 0)), x0,
                                SampledSignal.zeros(0, grid))
            from scipy.linalg import expm
            ref = np.column_stack([expm(A * t) @ x0 for t in grid])
            return np.max(np.abs(out.values - ref))

        e1, e2 = max_err(2e-2), max_err(1e-2)
        assert 12.0 <= e1 / e2 <= 20.0

    def test_order_two_convergence_with_sampled_input(self):
        # The input is taken linear between samples, an O(h^2) error at the
        # half steps for a smooth input: each halving divides the error by
        # 4 (measured 4.0002, 4.00004 and 4.00001), not by 16.
        w = 1.3

        def max_err(h):
            grid = uniform_grid(4.0, h)
            u = SampledSignal(grid, np.sin(w * grid).reshape(1, -1))
            out = integrate_lti([[-1.0]], [[1.0]], [0.0], u)
            exact = (np.sin(w * grid) - w * np.cos(w * grid)
                     + w * np.exp(-grid)) / (1.0 + w * w)
            return np.max(np.abs(out.values[0] - exact))

        errs = [max_err(h) for h in (0.04, 0.02, 0.01, 0.005)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.9 <= coarse / fine <= 4.1

    def test_forced_response_matches_expm_quadrature(self):
        A = np.array([[-1.0, 0.2], [0.0, -0.5]])
        B = np.array([[1.0], [0.5]])
        grid = uniform_grid(2.0, 1e-3)
        u = SampledSignal(grid, np.sin(grid).reshape(1, -1))
        out = integrate_lti(A, B, [0.0, 0.0], u)
        from scipy.linalg import expm
        # reference by fine exact-step convolution
        h = grid[1] - grid[0]
        ref = np.zeros(2)
        Ph = expm(A * h)
        for i in range(grid.size - 1):
            # trapezoid on the convolution integrand per step
            ref = Ph @ ref + 0.5 * h * (Ph @ B @ u.values[:, i] + B @ u.values[:, i + 1])
        assert np.linalg.norm(out.values[:, -1] - ref) <= 1e-5

    @pytest.mark.parametrize("kind", ["hurwitz", "unstable", "nonnormal",
                                      "stiff"])
    def test_propagator_matches_step_loop(self, kind):
        n = 5
        rng = np.random.default_rng(3)
        shift = np.eye(n, k=1)
        A = {
            "hurwitz": rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n),
            "unstable": np.diag([0.5, -0.3, -1.0, -2.0, -0.1]) + 0.2 * shift,
            "nonnormal": -np.eye(n) + 50.0 * shift,
            "stiff": np.diag([-200.0, -1.0, -0.5, -3.0, -10.0]) + shift,
        }[kind]
        grid, U, B, x0 = _forced(n, 2, 15.0, 2e-3)
        assert _rel_dev(A, B, x0, grid, U) <= 1e-11

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 63, 64, 65, 129, 1023, 1024,
                                   1025, 7500])
    def test_propagator_step_counts(self, N):
        A = np.array([[-0.5, 2.0], [-2.0, -0.5]])
        grid, U, B, x0 = _forced(2, 1, 0.01 * N, 0.01, seed=N)
        assert grid.size == N + 1
        assert _rel_dev(A, B, x0, grid, U) <= 1e-11

    def test_propagator_without_state(self):
        grid = uniform_grid(1.0, 0.01)
        out = integrate_lti(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros(0),
                            SampledSignal(grid, np.ones((2, grid.size))))
        assert out.values.shape == (0, grid.size)

    def test_propagator_without_input(self):
        A = np.array([[0.0, 1.0], [-4.0, -0.5]])
        grid = uniform_grid(3.0, 0.01)
        assert _rel_dev(A, np.zeros((2, 0)), [1.0, -1.0], grid,
                        np.zeros((0, grid.size))) <= 1e-11

    def test_diverging_run_is_an_input_error(self):
        grid = uniform_grid(2.0, 1e-3)
        with pytest.raises(InputError, match="not finite at step 0.001"):
            integrate_lti(np.array([[-1e4]]), np.zeros((1, 0)), [1.0],
                          SampledSignal.zeros(0, grid))

    def test_state_is_scanned_for_finiteness_once(self, monkeypatch):
        isfinite = np.isfinite
        shapes = []

        def counted(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        grid, U, B, x0 = _forced(3, 2, 1.0, 0.01)
        u = SampledSignal(grid, U)
        monkeypatch.setattr(np, "isfinite", counted)
        out = integrate_lti(-np.eye(3), B, x0, u)
        assert shapes.count(out.values.shape) == 1

    def test_dimension_check(self):
        grid = uniform_grid(1.0, 0.1)
        with pytest.raises(InputError):
            integrate_lti(np.eye(2), np.ones((2, 1)), [0.0, 0.0],
                          SampledSignal.zeros(2, grid))


class TestSmallMatrixProduct:
    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                     b.view(np.int64))

    @pytest.mark.parametrize("N", [1, 2, 7501])
    @pytest.mark.parametrize("rows", range(1, 9))
    def test_one_column_is_matmul_bit_for_bit(self, rows, N):
        rng = np.random.default_rng(100 * rows + N)
        M = rng.standard_normal((rows, 1))
        wide = rng.standard_normal((3, N + 4))
        # contiguous, a row of a wider array, and lagged views X[:, :-s] and
        # X[:, s:] like those the input terms and the scan passes multiply
        for X in (np.ascontiguousarray(wide[:1, :N]), wide[1:2, 2:N + 2],
                  wide[:1, :-4], wide[2:, 4:]):
            assert self._same_bits(_apply(M, X), M @ X)

    def test_one_column_keeps_the_sign_of_zero_products(self):
        M = np.array([[-1.0], [2.0], [-0.0], [0.0]])
        X = np.array([[0.0, -0.0, 1.5, -3.0]])
        assert self._same_bits(_apply(M, X), M @ X)


class TestQuadrature:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 5])
    def test_quadratic_form_series_matches_einsum(self, dim):
        # either order of the two d-term sums rounds each term x_i M_ij x_j
        # at most 2d times, so the two differ by at most 4d eps per unit of
        # sum_ij |x_i M_ij x_j|
        rng = np.random.default_rng(dim)
        grid = uniform_grid(3.0, 1e-3)
        M = rng.standard_normal((dim, dim))
        M = M + M.T
        sig = SampledSignal(grid, rng.standard_normal((dim, grid.size)))
        X = sig.values
        got = quadratic_form_series(M, sig)
        want = quadratic_form_series_reference(M, X)
        scale = np.einsum("it,ij,jt->t", np.abs(X), np.abs(M), np.abs(X))
        assert got.shape == (grid.size,)
        assert (np.abs(got - want) <= 4 * dim * np.finfo(float).eps * scale).all()

    @pytest.mark.parametrize("n", [10, 11, 101])
    def test_simpson_cubic_exact(self, n):
        grid = np.linspace(0.0, 2.0, n + 1)
        vals = grid ** 3 - grid
        assert abs(simpson(2.0 / n, vals) - (4.0 - 2.0)) <= 1e-12

    @pytest.mark.parametrize("N, weights", [
        (1, [1 / 2, 1 / 2]),
        (2, [1 / 3, 4 / 3, 1 / 3]),
        (3, [3 / 8, 9 / 8, 9 / 8, 3 / 8]),
        (4, [1 / 3, 4 / 3, 2 / 3, 4 / 3, 1 / 3]),
        (5, [1 / 3, 4 / 3, 1 / 3 + 3 / 8, 9 / 8, 9 / 8, 3 / 8]),
        (6, [1 / 3, 4 / 3, 2 / 3, 4 / 3, 2 / 3, 4 / 3, 1 / 3]),
        (7, [1 / 3, 4 / 3, 2 / 3, 4 / 3, 1 / 3 + 3 / 8, 9 / 8, 9 / 8, 3 / 8]),
    ])
    def test_simpson_weights(self, N, weights):
        h = 0.25
        vals = np.random.default_rng(N).standard_normal(N + 1)
        expected = h * float(np.dot(weights, vals))
        assert abs(simpson(h, vals) - expected) <= 1e-14 * (1 + abs(expected))

    def test_simpson_rejects_non_finite_values(self):
        with pytest.raises(InputError, match="non-finite"):
            simpson(0.5, [0.0, np.nan, 1.0])

    def test_simpson_vs_trapezoid_on_smooth(self):
        grid = np.linspace(0.0, 3.0, 3001)
        vals = np.exp(-grid) * np.sin(2 * grid) ** 2
        s = simpson(1e-3, vals)
        t = trapezoid(vals, grid)
        assert abs(s - t) <= 1e-6
        assert abs(s - t) > 0.0
