import numpy as np
import pytest

from scipy.integrate import trapezoid

from daeobs import InputError
from daeobs.signals import SampledSignal, integrate_lti, simpson, uniform_grid

from .oracles import rk4_loop


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
        sig = SampledSignal(np.array([0.0, 0.5, 2.0]), np.zeros((1, 3)))
        with pytest.raises(InputError):
            _ = sig.step

    def test_truncated(self):
        grid = uniform_grid(1.0, 0.25)
        sig = SampledSignal(grid, np.arange(5.0).reshape(1, -1))
        cut = sig.truncated(0.5)
        assert cut.grid.size == 3
        with pytest.raises(InputError):
            sig.truncated(0.3)


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

    @pytest.mark.parametrize("N", [0, 1, 63, 64, 65, 129])
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

    def test_dimension_check(self):
        grid = uniform_grid(1.0, 0.1)
        with pytest.raises(InputError):
            integrate_lti(np.eye(2), np.ones((2, 1)), [0.0, 0.0],
                          SampledSignal.zeros(2, grid))


class TestQuadrature:
    @pytest.mark.parametrize("n", [10, 11, 101])
    def test_simpson_cubic_exact(self, n):
        grid = np.linspace(0.0, 2.0, n + 1)
        vals = grid ** 3 - grid
        assert abs(simpson(grid, vals) - (4.0 - 2.0)) <= 1e-12

    @pytest.mark.parametrize("N, weights", [
        (1, [1 / 2, 1 / 2]),
        (2, [1 / 3, 4 / 3, 1 / 3]),
        (3, [3 / 8, 9 / 8, 9 / 8, 3 / 8]),
        (4, [1 / 3, 4 / 3, 2 / 3, 4 / 3, 1 / 3]),
        (5, [1 / 3, 4 / 3, 1 / 3 + 3 / 8, 9 / 8, 9 / 8, 3 / 8]),
    ])
    def test_simpson_weights(self, N, weights):
        h = 0.25
        grid = h * np.arange(N + 1)
        vals = np.random.default_rng(N).standard_normal(N + 1)
        expected = h * float(np.dot(weights, vals))
        assert abs(simpson(grid, vals) - expected) <= 1e-14 * (1 + abs(expected))

    def test_simpson_vs_trapezoid_on_smooth(self):
        grid = np.linspace(0.0, 3.0, 3001)
        vals = np.exp(-grid) * np.sin(2 * grid) ** 2
        s = simpson(grid, vals)
        t = trapezoid(vals, grid)
        assert abs(s - t) <= 1e-6
        assert abs(s - t) > 0.0
