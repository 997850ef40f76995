import math
import sys

import numpy as np
import pytest

from cityroad.lattice_sim import compatibility_residual
from cityroad.model import (
    LatticeState,
    NonlinearityDescriptor,
    Parameters,
    logistic,
    rescale_to_unit_length,
    stationary_from_rho,
    stationary_residual,
    total_mass,
)


def make_state(rho, m=8, p=None, edges=None):
    rho = np.asarray(rho, dtype=float)
    if edges is None:
        edges = np.zeros((len(rho) - 1, m + 1))
    return LatticeState(0, rho, edges, 0.0)


class TestRescale:
    def test_length_two_rescaling(self):
        p = Parameters(2.0, 1.0, 8.0, nonlinearity=logistic(3.0))
        scaled = rescale_to_unit_length(p, 2.0)
        assert (scaled.alpha, scaled.beta, scaled.d, scaled.fprime0) == (1.0, 1.0, 2.0, 3.0)

    def test_identity(self):
        p = Parameters(1.0, 1.0, 1.0)
        assert rescale_to_unit_length(p, 1.0) is p

    def test_direct_substitution(self):
        scaled = rescale_to_unit_length(Parameters(0.5, 3.0, 0.25), 0.5)
        assert (scaled.alpha, scaled.beta, scaled.d) == (1.0, 3.0, 1.0)

    def test_idempotent(self):
        once = rescale_to_unit_length(Parameters(0.5, 3.0, 0.25), 0.5)
        assert rescale_to_unit_length(once, 1.0) is once

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Parameters(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Parameters(1.0, 1.0, 0.0)
        for ell in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="ell must be finite and > 0"):
                rescale_to_unit_length(Parameters(1.0, 1.0, 1.0), ell)

    def test_rejects_subnormal_rates_by_name(self):
        tiny = sys.float_info.min
        Parameters(tiny, tiny, tiny, nonlinearity=logistic(tiny))  # normal: admitted
        Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(0.0))  # no reaction: admitted
        for name in ("alpha", "beta", "d", "fprime0"):
            rates = {"alpha": 1.0, "beta": 1.0, "d": 1.0, "fprime0": 1.0, name: tiny / 2.0}
            with pytest.raises(ValueError, match=f"{name} = .* below the smallest normal"):
                Parameters(rates["alpha"], rates["beta"], rates["d"],
                           nonlinearity=logistic(rates["fprime0"]))


class TestNonlinearity:
    def test_logistic_fixed_points(self):
        nl = logistic(1.0)
        assert nl(0.0) == 0.0
        assert nl(1.0) == 0.0

    def test_logistic_midpoint(self):
        assert logistic(1.0)(0.5) == 0.25

    def test_zero_rate_allowed(self):
        nl = logistic(0.0)
        assert nl(0.3) == 0.0

    @pytest.mark.parametrize("rate", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_bad_rates(self, rate):
        with pytest.raises(ValueError, match="fprime0"):
            logistic(rate)

    def test_subnormal_rate_accepted(self):
        assert logistic(1e-320).fprime0 == 1e-320

    def test_equal_rates_give_equal_parameters(self):
        a = Parameters(1.0, 2.0, 3.0, nonlinearity=logistic(1.5))
        b = Parameters(1.0, 2.0, 3.0, nonlinearity=logistic(1.5))
        assert a.nonlinearity is not b.nonlinearity
        assert a == b and hash(a) == hash(b)
        assert a != Parameters(1.0, 2.0, 3.0, nonlinearity=logistic(2.0))
        assert logistic(2) == NonlinearityDescriptor(2.0)

    def test_logistic_is_the_plain_expression(self):
        u = np.linspace(-0.5, 1.5, 201)
        for r in (0.0, 0.3, 1.0, 7.25):
            assert np.array_equal(logistic(r)(u), r * u * (1.0 - u))


class TestTotalMass:
    def test_zero_state(self):
        s = make_state([0.0, 0.0, 0.0])
        assert total_mass(s) == 0.0

    def test_single_vertex(self):
        s = make_state([1.0, 0.0])
        assert total_mass(s) == 1.0

    def test_constant_state_exact(self, params_unit):
        # n vertices at 1, n-1 edges at beta/alpha: trapezoid of a constant is exact
        n = 6
        p = Parameters(2.0, 3.0, 1.0)
        rho = np.ones(n)
        edges = np.full((n - 1, 9), p.beta / p.alpha)
        s = LatticeState(0, rho, edges, 0.0)
        assert total_mass(s) == pytest.approx(n + (n - 1) * p.beta / p.alpha, rel=1e-15)

    def test_linearity_and_translation(self):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0, 1, 5)
        edges = rng.uniform(0, 1, (4, 9))
        s1 = LatticeState(0, rho, edges, 0.0)
        s2 = LatticeState(-7, rho, edges, 0.0)  # translated window
        assert total_mass(s1) == total_mass(s2)
        s3 = LatticeState(0, 2.0 * rho, 2.0 * edges, 0.0)
        assert total_mass(s3) == pytest.approx(2.0 * total_mass(s1), rel=1e-14)

    def test_one_sample_edges_are_their_level(self):
        # the limit system's roads hold one level V_j each: the mass is P + V
        rng = np.random.default_rng(4)
        rho, V = rng.uniform(0, 1, 7), rng.uniform(0, 1, 6)
        s = LatticeState(-3, rho, V[:, None], 0.0)
        assert s.m == 0
        assert total_mass(s) == float(rho.sum() + V.sum())


class TestStationary:
    def test_constant_one_gives_beta_over_alpha(self, params_unit):
        prof = stationary_from_rho(np.ones(5), params_unit)
        assert np.allclose(prof.slope, 0.0)
        assert np.allclose(prof.intercept, 1.0)

    def test_zero(self, params_unit):
        prof = stationary_from_rho(np.zeros(4), params_unit)
        assert np.all(prof.slope == 0.0)
        assert np.all(prof.intercept == 0.0)

    def test_against_2x2_solve(self, params_unit):
        # the endpoint values must solve (d+a, -d; -d, d+a) (v0,v1) = beta (rj, rj1)
        p = params_unit
        rho = np.array([1.0, 0.0])
        prof = stationary_from_rho(rho, p)
        mat = np.array([[p.d + p.alpha, -p.d], [-p.d, p.d + p.alpha]])
        v = np.linalg.solve(mat, p.beta * rho)
        assert prof.intercept[0] == pytest.approx(v[0], rel=1e-14)
        assert prof.intercept[0] + prof.slope[0] == pytest.approx(v[1], rel=1e-14)

    def test_robin_conditions_within_ulps(self):
        p = Parameters(0.7, 1.3, 2.1)
        rng = np.random.default_rng(11)
        rho = rng.uniform(0, 2, 9)
        prof = stationary_from_rho(rho, p)
        a, b = prof.slope, prof.intercept
        left = -p.d * a + p.alpha * b - p.beta * rho[:-1]
        right = p.d * a + p.alpha * (a + b) - p.beta * rho[1:]
        scale = np.finfo(float).eps * np.maximum(1.0, np.abs(p.beta * rho[:-1]))
        assert np.all(np.abs(left) <= 8 * scale)
        assert np.all(np.abs(right) <= 8 * scale)

    def test_rejects_nonfinite(self, params_unit):
        with pytest.raises(ValueError):
            stationary_from_rho([1.0, np.nan], params_unit)


class TestStationaryResidual:
    def test_ones_and_zeros(self, params_unit):
        assert np.allclose(stationary_residual(np.ones(5), params_unit), 0.0)
        assert np.allclose(stationary_residual(np.zeros(5), params_unit), 0.0)

    def test_hand_expansion(self, params_unit):
        eps = 0.01
        r = stationary_residual(np.array([0.0, eps, 0.0]), params_unit)
        expected = (1.0 / 3.0) * (-2.0 * eps) + eps * (1.0 - eps)
        assert r[0] == pytest.approx(expected, rel=1e-14)

    def test_constant_gives_f(self, params_unit):
        for c in (0.2, 0.7, 1.5):
            r = stationary_residual(np.full(6, c), params_unit)
            assert np.allclose(r, params_unit.f(c), rtol=0, atol=1e-15)

    def test_sine_mode_is_laplacian_eigenvector(self, params_unit):
        # the discrete Laplacian acts as -2(1 - cos(pi/(N+1))) on the sine arch
        n = 7
        js = np.arange(0, n + 2)
        rho = np.sin(js * math.pi / (n + 1))
        lam = 2.0 * (1.0 - math.cos(math.pi / (n + 1)))
        coef = params_unit.beta * params_unit.d / (2 * params_unit.d + params_unit.alpha)
        r = stationary_residual(rho, params_unit)
        expected = -coef * lam * rho[1:-1] + params_unit.f(rho[1:-1])
        assert np.allclose(r, expected, atol=1e-14)


class TestContainers:
    def test_lattice_state_validation(self):
        with pytest.raises(ValueError):
            LatticeState(0, np.ones(3), np.ones((1, 9)), 0.0)  # edge count
        with pytest.raises(ValueError):
            LatticeState(0, np.array([1.0, np.nan]), np.ones((1, 9)), 0.0)

    def test_edge_sample_counts(self, params_unit):
        with pytest.raises(ValueError, match="at least one sample"):
            LatticeState(0, np.ones(3), np.ones((2, 0)), 0.0)
        two_samples = LatticeState(0, np.ones(3), np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError, match=">= 3 samples"):
            compatibility_residual(two_samples, params_unit)

    def test_states_are_immutable(self):
        s = make_state([0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            s.rho[0] = 2.0
