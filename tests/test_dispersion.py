import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from cityroad import dispersion
from cityroad.dispersion import (
    _EPS,
    _eval_arrays,
    _ratios,
    _scalar_terms,
    _terms,
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
        lam, alpha, beta, d, f0 = (mpmath.mpf(v) for v in (lam, alpha, beta, d, f0))
        s = mpmath.sqrt(lam / d)
        sq = mpmath.sqrt(d * lam)
        # at lambda = 0, sqrt(d lambda) / tanh(s) -> d and sinh(s) / sqrt(d lambda) -> 1 / d
        a, sinh_over_sq = (d, 1 / d) if lam == 0 else (sq / mpmath.tanh(s), mpmath.sinh(s) / sq)
        delta = alpha**2 + d * lam + 2 * alpha * a
        y = (delta / (2 * alpha * beta) * (lam + 2 * beta - f0) - (alpha + a)) * sinh_over_sq
        return to(y)


def mp_g_minus_G(lam, alpha, beta, d, f0):
    """g - G = lambda + 2 beta - f'(0) - G with the exchange curve
    G = 2 alpha beta / Delta (alpha + sqrt(d lambda) (coth(s) + 1 / sinh(s))),
    at the working precision, and its term scale lambda + f'(0) + (2 beta - G)."""
    lam, alpha, beta, d, f0 = (mpmath.mpf(v) for v in (lam, alpha, beta, d, f0))
    s = mpmath.sqrt(lam / d)
    sq = mpmath.sqrt(d * lam)
    # sqrt(d lambda) coth(s) and sqrt(d lambda) / sinh(s) both tend to d at 0
    a, b = (d, d) if lam == 0 else (sq / mpmath.tanh(s), sq / mpmath.sinh(s))
    delta = alpha**2 + d * lam + 2 * alpha * a
    exchange = 2 * alpha * beta / delta * (alpha + a + b)
    return lam + 2 * beta - f0 - exchange, lam + f0 + (2 * beta - exchange)


def mp_threshold(alpha, beta, d, f0):
    """Root of g - G at the working precision: bracketed within a factor 2
    by doubling and halving from 1, then Anderson's bracketing method."""
    def f(lam):
        return mp_g_minus_G(lam, alpha, beta, d, f0)[0]

    b = mpmath.mpf(1)
    while f(b) <= 0:
        b *= 2
    while f(b / 2) > 0:
        b /= 2
    return mpmath.findroot(f, (b / 2, b), solver="anderson")


def mp_speed(alpha, beta, d, f0, dps=80):
    """(lambda0, c*) in dps digits.  c(lambda) = lambda / arccosh(y) is
    minimized by golden-section search over u = log(lambda / lambda0 - 1) in
    [-60, log 1e6], on which it is unimodal (mpmath.findroot on its
    derivative does not converge at small f'(0))."""
    with mpmath.workdps(dps):
        alpha, beta, d, f0 = (mpmath.mpf(v) for v in (alpha, beta, d, f0))
        lam0 = mp_threshold(alpha, beta, d, f0)

        def c(u):
            lam = lam0 * (1 + mpmath.exp(u))
            return lam / mpmath.acosh(mp_y(lam, alpha, beta, d, f0, dps=dps, to=mpmath.mpf))

        r = (mpmath.sqrt(5) - 1) / 2
        lo, hi = mpmath.mpf(-60), mpmath.log(mpmath.mpf(10) ** 6)
        x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
        c1, c2 = c(x1), c(x2)
        while hi - lo > mpmath.mpf(10) ** -14:
            if c1 < c2:
                hi, x2, c2 = x2, x1, c1
                x1 = hi - r * (hi - lo)
                c1 = c(x1)
            else:
                lo, x1, c1 = x1, x2, c2
                x2 = lo + r * (hi - lo)
                c2 = c(x2)
        return lam0, min(c1, c2)


def mp_conditions(alpha, beta, d, f0, dps=80):
    """Condition numbers of lambda0 and c*: the sums over the four rates of
    |d log lambda0 / d log rate| and |d log c* / d log rate|, by relative
    perturbations of 1e-20."""
    with mpmath.workdps(dps):
        q = [mpmath.mpf(v) for v in (alpha, beta, d, f0)]
        base = mp_speed(*q, dps=dps)
        h = mpmath.mpf(10) ** -20
        totals = [0, 0]
        for i in range(4):
            bumped = list(q)
            bumped[i] *= 1 + h
            for k, value in enumerate(mp_speed(*bumped, dps=dps)):
                totals[k] += abs(value / base[k] - 1) / h
        return tuple(float(t) for t in totals)


def assert_meets_speed_oracle(res, q):
    """lambda0 within 4 eps and c* within 1e-15 of mp_speed at rates q, each
    bound times the result's condition number where that exceeds 1."""
    want = mp_speed(*q)
    with mpmath.workdps(80):
        errors = [float(abs(got / w - 1)) for got, w in zip((res.lambda0, res.c_star), want)]
    bounds = [4.0 * _EPS, 1e-15]
    if errors[0] > bounds[0] or errors[1] > bounds[1]:
        bounds = [b * max(1.0, k) for b, k in zip(bounds, mp_conditions(*q))]
    assert errors[0] <= bounds[0] and errors[1] <= bounds[1]


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
            assert _scalar_terms(0.0, params(fprime0=f0))[2] == pytest.approx(-f0, abs=1e-12)

    def test_post_check(self):
        p = params()
        lam0 = find_lambda0(p)
        assert abs(dispersion_eval(lam0, p).y - 1.0) <= 1e-10

    def test_grid_scan_oracle(self):
        # independent dense-grid sign scan of the array y - 1 brackets the same root
        p = params()
        lam0 = find_lambda0(p)
        grid = np.linspace(1e-6, 4.0, 100_000)
        vals = _eval_arrays(grid, p)[1] - 1.0
        idx = np.nonzero(np.diff(np.sign(vals)) > 0)[0]
        assert len(idx) == 1  # exactly one crossing
        assert grid[idx[0]] <= lam0 <= grid[idx[0] + 1]

    def test_small_d_threshold_in_log_space(self):
        # at d = 1e-7, s = sqrt(lambda / d) ~ 3e3: sinh(s) overflows, y is
        # carried in log space and keeps its sign, and jumps across 1 at lambda0
        p = params(d=1e-7)
        lam0 = find_lambda0(p)
        with mpmath.workdps(50):
            assert lam0 == pytest.approx(float(mp_threshold(1.0, 1.0, 1e-7, 1.0)), rel=1e-12)
        _, y, _, _ = _eval_arrays(lam0 * np.array([1.0 - 1e-12, 1.0 + 1e-12]), p)
        assert y[0] < 1.0 < y[1]

    def test_steep_threshold_needs_sign_change_of_g_minus_G(self, monkeypatch):
        # at d = 1e-7 y jumps across 1 within an ulp of lambda0, so the bracket
        # is the certificate: a g - G that loses its sign inside the bracket
        # (here NaN at every point but the bracketing's powers of two) must
        # fail it
        p = params(d=1e-7)
        real = _scalar_terms

        def nan_inside(lam, p):
            s, delta, g_minus_G = real(lam, p)
            return s, delta, g_minus_G if math.frexp(lam)[0] == 0.5 else math.nan

        monkeypatch.setattr(dispersion, "_scalar_terms", nan_inside)
        with pytest.raises(RuntimeError, match="threshold post-check failed"):
            find_lambda0(p)

    def test_threshold_vanishes_with_reaction(self):
        lams = [find_lambda0(params(fprime0=f0)) for f0 in (1e-2, 1e-3, 1e-4)]
        assert lams[0] > lams[1] > lams[2] > 0.0

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            find_lambda0(params(fprime0=0.0))


def closing_evaluations(fun):
    """_bracketed_root(fun)'s result, and its evaluations after the bracketing,
    the ones off the powers of two, against 4 per halving of the bracket
    [2^m, 2^(m+1)] down to 4 ulps of its upper end."""
    calls = []

    def counted(x):
        calls.append(x)
        return fun(x)

    result = dispersion._bracketed_root(counted)
    powers = [x for x in calls if math.frexp(x)[0] == 0.5]
    halvings = math.ceil(math.log2(min(powers[-2:]) / (4.0 * math.ulp(result[2]))))
    return result, len(calls) - len(powers), 4 * halvings


class TestBracketedRoot:
    @pytest.mark.parametrize("kind", ["exponential", "tanh", "nan_below"])
    def test_closes_within_4_evaluations_per_halving(self, kind):
        # root r = 1.3 x0 in [x0, 2 x0], x0 from 1e-300 to 1e300; the
        # exponential's argument is capped where math.exp would overflow
        funs = {"exponential": lambda t, x0: math.exp(min(50.0 * (t / x0 - 1.0), 700.0))
                - math.exp(15.0),
                "tanh": lambda t, x0: math.tanh(1e8 * (t / (1.3 * x0) - 1.0)),
                "nan_below": lambda t, x0: t / x0 - 1.3 if t > 1.2 * x0 else math.nan}
        for e in range(-300, 301, 20):
            x0 = 10.0 ** e
            (x, a, b, fa, fb), used, bound = closing_evaluations(lambda t: funs[kind](t, x0))
            assert fa <= 0.0 < fb and a <= x <= b and b - a <= 4.0 * math.ulp(b), e
            assert a <= 1.3 * x0 * (1.0 + 1e-15) and b >= 1.3 * x0 * (1.0 - 1e-15), e
            assert used <= bound, (e, used, bound)

    def test_closes_on_subnormal_values(self):
        # the Illinois weights underflow to 0 here, and the secant's
        # denominator with them: a ZeroDivisionError after 40 evaluations before
        (x, a, b, fa, fb), used, bound = closing_evaluations(
            lambda t: 1e-320 * (math.exp(50.0 * (t - 1.0)) - math.exp(15.0)))
        assert 1.0 < a <= x <= b < 2.0 and fa <= 0.0 < fb and b - a <= 4.0 * math.ulp(b)
        assert used <= bound

    def test_no_sign_change_raises(self):
        with pytest.raises(RuntimeError, match="no root bracketed"):
            dispersion._bracketed_root(lambda t: -1.0)


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
    def test_minimizer_near_threshold_meets_oracle(self, d):
        # at d <= 1e-8 the minimizer lies within 2e-4 lambda0 of the threshold
        # (2e-6 lambda0 at d = 1e-12); c* against the 80-digit minimum
        p = params(d=d)
        res = compute_c_star(p)
        assert_meets_speed_oracle(res, (1.0, 1.0, d, 1.0))
        assert exponential_ansatz_residual(res.lambda_star, res.mu_star, p) <= 1e-15

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_minimum_on_window_end_rejected_by_name(self, end, monkeypatch):
        # the scan's smallest c on a window end certifies no minimum inside it
        real = _eval_arrays

        def c_falls_to_end(lams, p):
            delta, y, mu, _ = real(lams, p)
            c = np.arange(1.0, len(lams) + 1)
            return delta, y, mu, c if end == "lower" else c[::-1]

        monkeypatch.setattr(dispersion, "_eval_arrays", c_falls_to_end)
        with pytest.raises(RuntimeError, match=f"speed minimum on the {end} end of the window"):
            compute_c_star(params())

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
        data = InitialData.custom(seed, j_min=-6, stationary_edges=True)
        cfg = SimulationConfig(T=8.0, dt=2.5e-3, m=16, c_upper_guess=1.0, snapshot_stride=200)
        traj = simulate(data, cfg, p)
        s0 = traj.snapshots[0]
        theta = 0.0
        x = np.arange(s0.m + 1) / s0.m
        vstar = profile_v_star(x, res, p)
        for k, j in enumerate(s0.js):
            theta = max(theta, s0.rho[k] / math.exp(-res.mu_star * j))
            if k < len(s0.edges):
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


# The evaluation written without skipping the branches no element needs:
# both np.where branches on every element, mu and c masked by np.where, and
# the ansatz residual reading a fresh profile for each of its five terms.
def ref_ratios(s):
    s = np.asarray(s, dtype=float)
    small = s < 1e-4
    s_safe = np.where(small, 1.0, s)
    with np.errstate(over="ignore"):
        sinh = np.sinh(s_safe)
        tanh = np.tanh(s_safe)
    r_tanh = np.where(small, 1.0 + s**2 / 3.0, s_safe / tanh)
    sinh_over_s = np.where(small, 1.0 + s**2 / 6.0, sinh / s_safe)
    return r_tanh, sinh_over_s


def ref_log_sinh(s):
    return s - math.log(2.0) + np.log1p(-np.exp(-2.0 * s))


def ref_terms(lams, p):
    alpha, beta, d, f0 = p.alpha, p.beta, p.d, p.fprime0
    lams = np.asarray(lams, dtype=float)
    s = np.sqrt(lams / d)
    r_tanh, sinh_over_s = ref_ratios(s)
    a_term = d * r_tanh
    delta = alpha**2 + d * lams + 2.0 * alpha * a_term
    g_minus_G = (lams - f0) + 2.0 * beta * d * (lams + alpha * s * np.tanh(0.5 * s)) / delta
    return s, sinh_over_s, delta, g_minus_G


def ref_eval_arrays(lams, p):
    lams = np.asarray(lams, dtype=float)
    s, sinh_over_s, delta, g_minus_G = ref_terms(lams, p)
    scale = delta / (2.0 * p.alpha * p.beta * p.d)
    with np.errstate(over="ignore", invalid="ignore"):
        ym1 = scale * g_minus_G * sinh_over_s
    big = s > 300.0
    log_ym1 = np.zeros_like(ym1)
    if np.any(big):
        lg = np.log(np.maximum(scale * np.abs(g_minus_G), 1e-300))
        log_ym1 = np.where(big, lg + ref_log_sinh(s) - np.log(s), 0.0)
        rescued = np.sign(g_minus_G) * np.exp(np.minimum(log_ym1, 709.0))
        ym1 = np.where(big & ~np.isfinite(ym1), rescued, ym1)
    defined = ym1 > 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        mu = np.log1p(ym1 + np.sqrt(ym1) * np.sqrt(ym1 + 2.0))
    if np.any(big):
        mu = np.where(big & (log_ym1 > 40.0), math.log(2.0) + log_ym1, mu)
    mu = np.where(defined, mu, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(defined, lams / mu, np.nan)
    return delta, ym1 + 1.0, mu, c


def ref_scalar_terms(lam, p):
    """ref_terms' s, Delta and g - G at one Python float, in the math module
    and with alpha^2 as a product."""
    alpha, beta, d, f0 = p.alpha, p.beta, p.d, p.fprime0
    s = math.sqrt(lam / d)
    r_tanh = 1.0 + s * s / 3.0 if s < 1e-4 else s / math.tanh(s)
    delta = alpha * alpha + d * lam + 2.0 * alpha * (d * r_tanh)
    return s, delta, (lam - f0) + 2.0 * beta * d * (lam + alpha * s * math.tanh(0.5 * s)) / delta


def ref_hyperbolic_over_sinh(s, u):
    u = np.asarray(u, dtype=float)
    scale = np.exp(-s * (1.0 - u)) / -math.expm1(-2.0 * s)
    return scale * (1.0 + np.exp(-2.0 * s * u)), -scale * np.expm1(-2.0 * s * u)


def ref_profile_scales(lam, p):
    s, delta, _ = ref_scalar_terms(lam, p)
    return s, math.sqrt(lam * p.d), p.beta / delta


def ref_profile_v(x, lam, mu, p):
    x = np.asarray(x, dtype=float)
    s, sq, k = ref_profile_scales(lam, p)
    cosh_l, sinh_l = ref_hyperbolic_over_sinh(s, 1.0 - x)
    cosh_r, sinh_r = ref_hyperbolic_over_sinh(s, x)
    out = k * (sq * cosh_l + p.alpha * sinh_l + math.exp(-mu) * (sq * cosh_r + p.alpha * sinh_r))
    return float(out) if out.ndim == 0 else out


def ref_profile_v_prime(x, lam, mu, p):
    s, sq, k = ref_profile_scales(lam, p)
    cosh_l, sinh_l = ref_hyperbolic_over_sinh(s, 1.0 - x)
    cosh_r, sinh_r = ref_hyperbolic_over_sinh(s, x)
    return float(k * s * (-sq * sinh_l - p.alpha * cosh_l)
                 + k * math.exp(-mu) * s * (sq * sinh_r + p.alpha * cosh_r))


def ref_residual(lam, mu, p):
    alpha, beta, d, f0 = p.alpha, p.beta, p.d, p.fprime0
    c = lam / mu
    v0 = ref_profile_v(0.0, lam, mu, p)
    v1 = ref_profile_v(1.0, lam, mu, p)
    vp0 = ref_profile_v_prime(0.0, lam, mu, p)
    vp1 = ref_profile_v_prime(1.0, lam, mu, p)
    s, sq, k = ref_profile_scales(lam, p)
    coth, _ = ref_hyperbolic_over_sinh(s, 1.0)
    ev1 = k * (sq * (2.0 * math.exp(mu - s) / -math.expm1(-2.0 * s) + float(coth)) + alpha)
    r1 = mu * c - lam
    vertex = f0 + alpha * (v0 + ev1) - 2.0 * beta
    r2 = mu * c - vertex
    r3 = -d * vp0 + alpha * v0 - beta
    r4 = d * vp1 + alpha * v1 - beta * math.exp(-mu)
    s1 = max(1.0, abs(lam))
    s2 = max(1.0, abs(mu * c), abs(f0) + alpha * (abs(v0) + abs(ev1)) + 2.0 * beta)
    s3 = max(1.0, beta, d * abs(vp0) + alpha * abs(v0))
    s4 = max(1.0, beta * math.exp(-mu), d * abs(vp1) + alpha * abs(v1))
    return max(abs(r1) / s1, abs(r2) / s2, abs(r3) / s3, abs(r4) / s4)


def assert_same_bits(got, want):
    """Equal values, NaNs included, down to the bit pattern."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# s = sqrt(lambda / d): all below the Taylor switchover (zero included), all
# between the switchovers (both ends included), all in log space (sinh
# overflows above 710), and all three shuffled together.
S_GRIDS = {
    "taylor": np.concatenate([[0.0], np.geomspace(1e-12, 9.99e-5, 40)]),
    "normal": np.geomspace(1e-4, 300.0, 300),
    "log": np.geomspace(300.0 * (1.0 + 1e-15), 1e4, 60),
}
S_GRIDS["mixed"] = np.random.default_rng(5).permutation(np.concatenate(list(S_GRIDS.values())))
# (alpha, beta, d, f'(0)), with d from the small-d log-space regime to the large
BIT_PARAMS = [(1.0, 1.0, 1.0, 1.0), (0.3, 2.0, 5.0, 0.7), (1.0, 1.0, 1e-7, 1.0),
              (2.0, 0.5, 1e8, 3.0)]
# c* solves from the Taylor side (large d) to the log-space side (small d)
D_POINTS = [1e-12, 1e-8, 1e-7, 1.0, 1e8]


class TestBitIdentical:
    """The evaluation skips the Taylor and log-space branches where no
    element needs them, but every element still sees the same IEEE
    operations in the same order, so results equal the reference's bits."""

    @staticmethod
    def lams(kind, d):
        return S_GRIDS[kind] ** 2 * d

    @pytest.mark.parametrize("kind", list(S_GRIDS))
    def test_ratios(self, kind):
        with np.errstate(over="ignore"):
            got = _ratios(S_GRIDS[kind])
        for g, w in zip(got, ref_ratios(S_GRIDS[kind])):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("q", BIT_PARAMS)
    @pytest.mark.parametrize("kind", list(S_GRIDS))
    def test_terms_and_eval_arrays(self, kind, q):
        p = Parameters(*q[:3], nonlinearity=logistic(q[3]))
        lams = self.lams(kind, p.d)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _terms(lams, p)
        for g, w in zip(got, ref_terms(lams, p)):
            assert_same_bits(g, w)
        with np.errstate(divide="ignore", invalid="ignore"):  # the reference's log(0) at s = 0
            want = ref_eval_arrays(lams, p)
        for g, w in zip(_eval_arrays(lams, p), want):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("q", BIT_PARAMS)
    @pytest.mark.parametrize("kind", list(S_GRIDS))
    def test_g_minus_G(self, kind, q):
        # the scalar terms on floats: the reference's operations, and the
        # array terms' s (a quotient and a square root, correctly rounded in both)
        p = Parameters(*q[:3], nonlinearity=logistic(q[3]))
        lams = self.lams(kind, p.d)
        got = [_scalar_terms(float(lam), p) for lam in lams]
        assert got == [ref_scalar_terms(float(lam), p) for lam in lams]
        assert_same_bits(np.array([s for s, _, _ in got]), ref_terms(lams, p)[0])

    @pytest.mark.parametrize("q", BIT_PARAMS)
    @pytest.mark.parametrize("kind", list(S_GRIDS))
    def test_profile_and_residual(self, kind, q):
        p = Parameters(*q[:3], nonlinearity=logistic(q[3]))
        x = np.linspace(0.0, 1.0, 9)
        for lam in self.lams(kind, p.d)[1::9]:
            for mu in (0.01, 1.0, 30.0):
                assert (exponential_ansatz_residual(float(lam), mu, p)
                        == ref_residual(float(lam), mu, p))
                assert profile_v(0.3, float(lam), mu, p) == ref_profile_v(0.3, float(lam), mu, p)
                assert_same_bits(profile_v(x, float(lam), mu, p), ref_profile_v(x, float(lam), mu, p))

    @pytest.mark.parametrize("d", D_POINTS)
    def test_compute_c_star(self, d, monkeypatch):
        # the solver with its evaluations swapped for the reference's
        p = params(d=d)
        got = compute_c_star(p)
        monkeypatch.setattr(dispersion, "_eval_arrays", ref_eval_arrays)
        monkeypatch.setattr(dispersion, "_scalar_terms", ref_scalar_terms)
        monkeypatch.setattr(dispersion, "exponential_ansatz_residual", ref_residual)
        want = compute_c_star(p)
        assert (got.lambda0, got.lambda_star, got.mu_star, got.c_star) == \
            (want.lambda0, want.lambda_star, want.mu_star, want.c_star)
        assert got.local_minima == want.local_minima
        for name in ("lam", "delta", "y", "mu", "c"):
            assert_same_bits(getattr(got.scan, name), getattr(want.scan, name))
        assert (exponential_ansatz_residual(got.lambda_star, got.mu_star, p)
                == ref_residual(want.lambda_star, want.mu_star, p))


@functools.lru_cache(maxsize=None)
def mp_terms(lam, q):
    """g - G and its term scale as floats, then y - 1 and its term scale as
    mpfs, at a float lambda and rates q in 60 digits."""
    with mpmath.workdps(60):
        alpha, beta, d, f0 = (mpmath.mpf(v) for v in q)
        g_minus_G, scale = mp_g_minus_G(lam, alpha, beta, d, f0)
        ym1 = mp_y(lam, alpha, beta, d, f0, dps=60, to=mpmath.mpf) - 1
        # y - 1 = K (g - G) with K = Delta sinh(s) / (2 alpha beta d s) > 0
        return float(g_minus_G), float(scale), ym1, ym1 / g_minus_G * scale


# (alpha, beta, d, f'(0)) for the threshold and speed oracle: D_POINTS, small
# reaction rates, a point whose threshold (2.2e-16) an absolute zoom stop
# rounded to 0, one where f'(0) nearly equals 2 beta (there c* moves about
# 100 ulps per ulp of f'(0)), three points of [1e-12, 1e12]^4 whose minimizer
# lies within 1e-6 lambda0 of the threshold, and seeded points of the log box
# [1e-6, 1e6]^4
SPEED_POINTS = ([(1.0, 1.0, d, 1.0) for d in D_POINTS]
                + [(1.0, 1.0, 1.0, f0) for f0 in (1e-6, 1e-9, 1e-12)]
                + [(4.189132974784821e-06, 197905.90603727652, 1297.5617943799105,
                    1.0603549495470298e-05),
                   (0.1662868789513637, 29130.94301810513, 19423.82569117615,
                    57810.66131739583),
                   (950273520.1262786, 7819.045135814194, 1.4413836100614537e-09,
                    191330277.32112813),
                   (0.0072933452370839424, 5.594240130671139e-07, 8.1917158741236e-12,
                    1069673888.8102449),
                   (509825598.8633302, 13522154.953425856, 1.2569285628220335e-09,
                    2538748.978775281)]
                + [tuple(float(v) for v in 10.0 ** row)
                   for row in np.random.default_rng(3).uniform(-6.0, 6.0, (6, 4))])


class TestOracle:
    """g - G, y - 1 and the solves against the closed forms as first written
    (g - G as the difference of g and G) in 60 digits, c* in 80: g - G and
    y - 1 within a few eps of the size of their terms, lambda0 within 4 eps
    and c* within 1e-15 relative, each bound times the result's condition
    number where that exceeds 1 (a rate off by one ulp moves the result
    that many ulps)."""

    @pytest.mark.parametrize("q", BIT_PARAMS)
    @pytest.mark.parametrize("kind", list(S_GRIDS))
    def test_g_minus_G(self, kind, q):
        p = Parameters(*q[:3], nonlinearity=logistic(q[3]))
        for lam in S_GRIDS[kind] ** 2 * p.d:
            got = _scalar_terms(float(lam), p)[2]
            want, scale, _, _ = mp_terms(float(lam), q)
            assert abs(got - want) <= 4.0 * _EPS * scale

    @pytest.mark.parametrize("q", BIT_PARAMS)
    @pytest.mark.parametrize("kind", list(S_GRIDS))
    def test_y_minus_1(self, kind, q):
        p = Parameters(*q[:3], nonlinearity=logistic(q[3]))
        lams = S_GRIDS[kind] ** 2 * p.d
        _, y, mu, _ = _eval_arrays(lams, p)
        for lam, y_i, mu_i in zip(lams, y, mu):
            _, _, ym1, scale = mp_terms(float(lam), q)
            # y - 1 to a few eps of its terms, plus the rounding of
            # s = sqrt(lambda / d), which moves sinh(s) by s ulps per ulp
            tol = 4.0 * _EPS * (scale + math.sqrt(lam / p.d) * abs(ym1))
            if abs(ym1) < 1e300:  # y itself is held in float range
                assert abs((y_i - 1.0) - ym1) <= tol + _EPS * abs(1 + ym1)
            if ym1 > tol:
                with mpmath.workdps(60):
                    want = mpmath.acosh(1 + ym1)
                    bound = tol / mpmath.sinh(want) + 4.0 * _EPS * want
                    assert abs(mu_i - want) <= bound
            elif ym1 < -tol:
                assert math.isnan(mu_i)

    @pytest.mark.parametrize("q", SPEED_POINTS)
    def test_threshold_and_speed(self, q):
        assert_meets_speed_oracle(compute_c_star(Parameters(*q[:3], nonlinearity=logistic(q[3]))), q)


@pytest.mark.parametrize("d", D_POINTS)
def test_c_star_warns_nothing(d):
    # sinh overflows at small d; the evaluation keeps it silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compute_c_star(params(d=d))
