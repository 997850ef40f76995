import math

import mpmath
import numpy as np
import pytest

from cityroad.dispersion import (
    _eval_arrays,
    _g_minus_G,
    compute_c_star,
    dispersion_eval,
    exponential_ansatz_residual,
    find_lambda0,
    profile_v,
    profile_v_star,
)
from cityroad.model import Parameters, logistic


def params(fprime0=1.0, d=1.0, alpha=1.0, beta=1.0):
    return Parameters(alpha, beta, d, nonlinearity=logistic(fprime0))


def mp_y(lam, alpha, beta, d, f0, dps=50, to=float):
    """Independent high-precision evaluation of the closed form."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(lam)
        s = mpmath.sqrt(lam / d)
        sq = mpmath.sqrt(d * lam)
        delta = alpha**2 + d * lam + 2 * sq * alpha / mpmath.tanh(s)
        y = (delta / (2 * alpha * beta) * (lam + 2 * beta - f0)
             - (alpha + sq / mpmath.tanh(s))) * mpmath.sinh(s) / sq
        return to(y)


def mp_threshold(alpha, beta, d, f0, guess, dps=50):
    """Root of g - G = lambda + 2 beta - f'(0) - 2 alpha beta / Delta
    (alpha + sqrt(d lambda) (coth(s) + 1 / sinh(s))) in high precision."""
    def g_minus_G(lam):
        s = mpmath.sqrt(lam / d)
        sq = mpmath.sqrt(d * lam)
        delta = alpha**2 + d * lam + 2 * sq * alpha / mpmath.tanh(s)
        exchange = alpha + sq / mpmath.tanh(s) + sq / mpmath.sinh(s)
        return lam + 2 * beta - f0 - 2 * alpha * beta / delta * exchange

    with mpmath.workdps(dps):
        return float(mpmath.findroot(g_minus_G, guess))


class TestEval:
    def test_small_lambda_limit(self):
        # y(0+) = 1 - f'(0)/beta (alpha/(2d) + 1) = -0.5 at unit parameters
        pt = dispersion_eval(1e-12, params())
        assert pt.y == pytest.approx(-0.5, abs=1e-9)
        assert pt.mu is None and pt.c is None

    def test_delta_at_zero(self):
        pt = dispersion_eval(0.0, params())
        assert pt.delta == pytest.approx(3.0, abs=1e-9)

    def test_against_50_digit_oracle(self):
        y = dispersion_eval(1.0, params()).y
        y_mp = mp_y(1.0, 1.0, 1.0, 1.0, 1.0)
        assert y == pytest.approx(y_mp, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.7, 2.3, 9.0])
    @pytest.mark.parametrize("d", [0.5, 1.0, 7.0])
    def test_oracle_various_points(self, lam, d):
        p = params(d=d)
        y = dispersion_eval(lam, p).y
        assert y == pytest.approx(mp_y(lam, 1.0, 1.0, d, 1.0), rel=1e-12)

    def test_taylor_switchover_agreement(self):
        # both branches agree to 10 digits at exactly s = 1e-4
        p = params()
        lam = (1e-4) ** 2 * p.d
        delta, y, _, _ = _eval_arrays(np.array([lam]), p)
        y_mp = mp_y(lam, 1.0, 1.0, 1.0, 1.0)
        assert y[0] == pytest.approx(y_mp, rel=1e-10)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            dispersion_eval(-1.0, params())


class TestLambda0:
    def test_bracket_always_valid_at_zero(self):
        # g(0) = 2 beta - f'(0) < 2 beta = G(0) whenever f'(0) > 0
        for f0 in (0.1, 1.0, 3.0):
            assert _g_minus_G(0.0, params(fprime0=f0)) == pytest.approx(-f0, abs=1e-12)

    def test_post_check(self):
        p = params()
        lam0 = find_lambda0(p)
        assert abs(dispersion_eval(lam0, p).y - 1.0) <= 1e-10

    def test_grid_scan_oracle(self):
        # independent dense-grid sign scan brackets the same root
        p = params()
        lam0 = find_lambda0(p)
        grid = np.linspace(1e-6, 4.0, 100_000)
        vals = _g_minus_G(grid, p)
        idx = np.nonzero(np.diff(np.sign(vals)) > 0)[0]
        assert len(idx) == 1  # exactly one crossing
        assert grid[idx[0]] <= lam0 <= grid[idx[0] + 1]

    def test_small_d_threshold_in_log_space(self):
        # at d = 1e-7, s = sqrt(lambda / d) ~ 3e3: sinh(s) overflows, y is
        # carried in log space and keeps its sign, and jumps across 1 at lambda0
        p = params(d=1e-7)
        lam0 = find_lambda0(p)
        assert lam0 == pytest.approx(mp_threshold(1.0, 1.0, 1e-7, 1.0, lam0), rel=1e-12)
        _, y, _, _ = _eval_arrays(lam0 * np.array([1.0 - 1e-12, 1.0 + 1e-12]), p)
        assert y[0] < 1.0 < y[1]

    def test_threshold_vanishes_with_reaction(self):
        lams = [find_lambda0(params(fprime0=f0)) for f0 in (1e-2, 1e-3, 1e-4)]
        assert lams[0] > lams[1] > lams[2] > 0.0

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            find_lambda0(params(fprime0=0.0))


class TestCStar:
    def test_zoom_vs_dense_grid(self):
        p = params()
        res = compute_c_star(p)
        lams = np.linspace(res.lambda_star * 0.95, res.lambda_star * 1.05, 1_000_001)
        _, _, _, c = _eval_arrays(lams, p)
        assert res.c_star == pytest.approx(float(np.min(c)), rel=1e-8)

    def test_minimum_matches_50_digit_minimizer(self):
        p = params()
        res = compute_c_star(p)

        def c(lam):  # at the working precision, which mpmath.diff raises
            y = mp_y(lam, 1.0, 1.0, 1.0, 1.0, dps=mpmath.mp.dps, to=mpmath.mpf)
            return lam / mpmath.acosh(y)

        with mpmath.workdps(50):
            lam_mp = mpmath.findroot(lambda lam: mpmath.diff(c, lam), res.lambda_star)
            assert res.c_star == pytest.approx(float(c(lam_mp)), rel=1e-13)

    def test_small_d_speed(self):
        # y ~ e^3000 at the minimizer; c is lambda / arccosh(y) in 50 digits
        p = params(d=1e-7)
        res = compute_c_star(p)

        def mp_c(lam):
            return float(lam / mpmath.acosh(mp_y(lam, 1.0, 1.0, 1e-7, 1.0, to=mpmath.mpf)))

        assert res.c_star == pytest.approx(mp_c(res.lambda_star), rel=1e-12)
        for factor in (1.0 - 1e-4, 1.0 + 1e-4):
            assert mp_c(res.lambda_star * factor) > res.c_star

    @pytest.mark.parametrize("d", [1e-8, 1e-9, 1e-10, 1e-12])
    def test_minimum_between_first_two_scan_points(self, d):
        # at d <= 1e-8 the grid minimum sits on the scan's first point and
        # the minimizer between it and the second; 50-digit c(lambda) as above
        p = params(d=d)
        res = compute_c_star(p)
        assert res.scan.lam[0] < res.lambda_star < res.scan.lam[1]

        def c(lam):
            y = mp_y(lam, 1.0, 1.0, d, 1.0, dps=mpmath.mp.dps, to=mpmath.mpf)
            return lam / mpmath.acosh(y)

        with mpmath.workdps(50):
            # c is steep near lambda0: a bracketing solver on that scan interval
            bracket = (mpmath.mpf(res.scan.lam[0]), mpmath.mpf(res.scan.lam[1]))
            lam_mp = mpmath.findroot(lambda lam: mpmath.diff(c, lam), bracket,
                                     solver="anderson")
            assert res.c_star == pytest.approx(float(c(lam_mp)), rel=1e-13)
        assert exponential_ansatz_residual(res.lambda_star, res.mu_star, p) <= 1e-15

    def test_unique_interior_minimum(self):
        res = compute_c_star(params())
        assert len(res.local_minima) == 1
        assert res.lambda0 < res.lambda_star
        assert res.scan.c[0] > res.c_star and res.scan.c[-1] > res.c_star

    def test_scan_above_threshold_all_defined(self):
        res = compute_c_star(params())
        assert np.all(res.scan.y > 1.0)
        assert np.all(np.isfinite(res.scan.mu))

    def test_y_below_one_under_threshold(self):
        p = params()
        res = compute_c_star(p)
        lams = np.linspace(res.lambda0 * 1e-3, res.lambda0 * 0.999, 100)
        _, y, _, _ = _eval_arrays(lams, p)
        assert np.all(y < 1.0)

    def test_sqrt_power_law(self):
        # c* scales like sqrt(f'(0)): slope of the log-log fit near 1/2
        from cityroad.front_speed import loglog_fit

        rates = [0.25, 0.5, 1.0, 2.0, 4.0]
        speeds = [compute_c_star(params(fprime0=r)).c_star for r in rates]
        fit = loglog_fit(rates, speeds)
        assert 0.48 <= fit.a1 <= 0.58


class TestProfile:
    def test_endpoint_closed_forms(self):
        # V(0), V(1) match solving the 2x2 Robin system directly
        p = params()
        res = compute_c_star(p)
        lam, mu = res.lambda_star, res.mu_star
        s = math.sqrt(lam / p.d)
        sq = math.sqrt(lam * p.d)
        a_term = sq / math.tanh(s)
        b_term = sq / math.sinh(s)
        mat = np.array([[p.alpha + a_term, -b_term], [-b_term, p.alpha + a_term]])
        rhs = p.beta * np.array([1.0, math.exp(-mu)])
        v = np.linalg.solve(mat, rhs)
        assert profile_v_star(0.0, res, p) == pytest.approx(v[0], rel=1e-12)
        assert profile_v_star(1.0, res, p) == pytest.approx(v[1], rel=1e-12)

    def test_positive_on_grid(self):
        p = params()
        res = compute_c_star(p)
        x = np.linspace(0.0, 1.0, 101)
        assert np.all(profile_v_star(x, res, p) > 0.0)

    def test_mu_star_positive(self):
        res = compute_c_star(params())
        assert res.mu_star > 0.0

    def test_ansatz_residual_at_minimizer(self):
        p = params()
        res = compute_c_star(p)
        assert exponential_ansatz_residual(res.lambda_star, res.mu_star, p) <= 1e-8

    def test_ansatz_residual_along_branch(self):
        # the residual identity holds at any lambda > lambda0 with its own mu
        p = params()
        res = compute_c_star(p)
        rng = np.random.default_rng(2)
        for lam in res.lambda0 * (1.0 + rng.uniform(0.05, 3.0, 5)):
            pt = dispersion_eval(float(lam), p)
            assert pt.mu is not None
            assert exponential_ansatz_residual(pt.lam, pt.mu, p) <= 1e-8


class TestSupersolutionDomination:
    def test_exponential_cap_dominates_gaussian_seed(self, params_unit):
        # scaled supersolution min(theta e^{-mu*(j - c* t)} V*, beta/alpha)
        # stays above the evolving solution seeded by a truncated Gaussian
        from cityroad.lattice_sim import InitialData, SimulationConfig, simulate

        p = params_unit
        res = compute_c_star(p)
        js0 = np.arange(-6, 7)
        seed = 0.9 * np.exp(-js0.astype(float) ** 2 / 4.0)
        seed[seed < 1e-8] = 0.0
        data = InitialData.custom(seed, j_min=-6, edge_mode="stationary")
        cfg = SimulationConfig(T=8.0, dt=2.5e-3, m=16, c_upper_guess=1.0, snapshot_stride=200)
        traj = simulate(data, cfg, p)
        s0 = traj.snapshots[0]
        theta = 0.0
        x = np.arange(s0.m + 1) / s0.m
        vstar = profile_v_star(x, res, p)
        for k, j in enumerate(s0.js):
            theta = max(theta, s0.rho[k] / math.exp(-res.mu_star * j))
            if k < s0.n_edges:
                theta = max(theta, float(np.max(s0.edges[k] / (math.exp(-res.mu_star * j) * vstar))))
        theta *= 1.0 + 1e-9
        for s in traj.snapshots:
            env_rho = np.minimum(theta * np.exp(-res.mu_star * (s.js - res.c_star * s.time)), 1.0)
            assert np.all(s.rho <= env_rho + 1e-9)
            ej = s.js[:-1]
            env_v = np.minimum(
                theta * np.exp(-res.mu_star * (ej[:, None] - res.c_star * s.time)) * vstar[None, :],
                p.beta / p.alpha,
            )
            assert np.all(s.edges <= env_v + 1e-9)


class TestGeneralProfiles:
    def test_profile_v_matches_v_star(self):
        p = params()
        res = compute_c_star(p)
        x = np.linspace(0, 1, 7)
        assert np.allclose(profile_v(x, res.lambda_star, res.mu_star, p),
                           profile_v_star(x, res, p))
