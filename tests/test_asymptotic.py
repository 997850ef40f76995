import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from cityroad import kernels
from cityroad.asymptotic import (
    asymptotic_dispersion_eval,
    compute_c_star_inf,
    large_d_convergence_experiment,
    limit_dt,
    simulate_asymptotic,
)
from cityroad.front_speed import estimate_speed, inner_deficit, outer_occupancy
from cityroad.lattice_sim import InitialData, SimulationConfig, stiffness_dt_cap
from cityroad.model import Parameters, logistic


@pytest.fixture
def p():
    return Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(1.0))


@pytest.fixture(scope="module")
def c_inf():
    return compute_c_star_inf(Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(1.0)))


class TestDispersionEval:
    def test_psi_at_mu_zero(self, p):
        ev = asymptotic_dispersion_eval(0.0, 0.7, p)
        assert ev.psi == pytest.approx(-3.0 + math.sqrt(17.0), rel=1e-14)
        assert ev.psi > 0.0  # positive for every c at mu = 0

    def test_delta_at_zero(self, p):
        assert asymptotic_dispersion_eval(0.0, 0.0, p).delta_inf == pytest.approx(17.0)

    def test_delta_even_in_mu(self, p):
        for mu in (0.3, 1.1, 2.7):
            a = asymptotic_dispersion_eval(mu, 0.0, p).delta_inf
            # cosh is even; evaluate the formula with the sign flipped by hand
            b = (2 * p.alpha - 2 * p.beta + p.fprime0) ** 2 + 8 * p.alpha * p.beta * (
                1 + math.cosh(-mu)
            )
            assert a == pytest.approx(b, rel=1e-15)

    def test_c_plus_infinite_at_zero(self, p):
        assert asymptotic_dispersion_eval(0.0, 0.0, p).c_plus == math.inf

    def test_quadratic_root_identity(self, p):
        # (mu c)^2 + (2b - f0 + 2a)(mu c) + 2a(2b - f0) - 2ab(1 + cosh mu) = 0
        a, b, f0 = p.alpha, p.beta, p.fprime0
        for mu in (0.2, 0.9, 1.7, 3.0):
            c = asymptotic_dispersion_eval(mu, 0.0, p).c_plus
            x = mu * c
            res = x**2 + (2 * b - f0 + 2 * a) * x + 2 * a * (2 * b - f0) \
                - 2 * a * b * (1 + math.cosh(mu))
            assert abs(res) <= 1e-10 * max(1.0, x**2)


class TestCStarInf:
    def test_newton_vs_dense_grid(self, p, c_inf):
        # dense local grid oracle
        dense = np.array([asymptotic_dispersion_eval(float(m), 0.0, p).c_plus
                          for m in np.linspace(c_inf.mu_star * 0.99, c_inf.mu_star * 1.01, 20001)])
        assert c_inf.c_star_inf == pytest.approx(float(dense.min()), rel=1e-10)

    def test_endpoints_dwarf_minimum(self, p, c_inf):
        lo = asymptotic_dispersion_eval(1e-4, 0.0, p).c_plus
        hi = asymptotic_dispersion_eval(50.0, 0.0, p).c_plus
        assert lo > 10.0 * c_inf.c_star_inf
        assert hi > 10.0 * c_inf.c_star_inf

    def test_tangency(self, c_inf):
        g_a, g_b = c_inf.tangency_bracket
        assert g_a <= 0.0 < g_b
        assert c_inf.dpsi_dmu_residual <= 1e-12

    def test_sign_structure(self, p, c_inf):
        mus = np.linspace(1e-3, 12.0, 4001)
        below = np.array([asymptotic_dispersion_eval(float(m), 0.9 * c_inf.c_star_inf, p).psi
                          for m in mus])
        assert np.all(below > 0.0)  # c < c*inf: Psi positive everywhere
        above = np.array([asymptotic_dispersion_eval(float(m), 1.1 * c_inf.c_star_inf, p).psi
                          for m in mus])
        signs = np.sign(above)
        changes = np.nonzero(np.diff(signs))[0]
        assert len(changes) == 2  # two roots mu1 < mu* < mu2
        mu1, mu2 = mus[changes[0]], mus[changes[1] + 1]
        assert mu1 < c_inf.mu_star < mu2

    def test_small_mu_star_bracketed(self):
        # mu* = 4.47e-5, more than four decades below the bracket's start at mu = 1
        res = compute_c_star_inf(Parameters(1, 1, 1, nonlinearity=logistic(1e-9)))
        g_a, g_b = res.tangency_bracket
        assert res.mu_star < 1e-4
        assert g_a <= 0.0 < g_b
        assert res.dpsi_dmu_residual <= 1e-12

    def test_large_rate_meets_relative_post_checks(self):
        # |dPsi/dmu| is roundoff on terms of size root' = 2 c*_inf = 6e6 here:
        # an absolute 1e-8 bound rejected it
        res = compute_c_star_inf(Parameters(1, 1, 1, nonlinearity=logistic(1e8)))
        assert res.dpsi_dmu_residual <= 1e-12

    def test_time_rescaling_at_large_rate(self):
        # (1, 1, 1, 1e6) is the time-rescaled twin of (1e-6, 1e-6, 1e-6, 1)
        big = compute_c_star_inf(Parameters(1, 1, 1, nonlinearity=logistic(1e6)))
        small = compute_c_star_inf(Parameters(1e-6, 1e-6, 1e-6, nonlinearity=logistic(1.0)))
        assert big.c_star_inf == pytest.approx(1e6 * small.c_star_inf, rel=1e-9)

    def test_tiny_mu_star_meets_oracle(self):
        # mu* = 1.4e-15 takes 49 halvings from mu = 1 to bracket; a Newton
        # iteration capped at 50 steps stopped there with c*_inf 0.55% high
        q = (1.0, 1.0, 1.0, 1e-30)
        res = compute_c_star_inf(Parameters(*q[:3], nonlinearity=logistic(q[3])))
        assert abs(res.c_star_inf / oracle_c_star_inf(q, res.mu_star) - 1) <= 1e-15

    def test_needs_reaction(self):
        with pytest.raises(ValueError):
            compute_c_star_inf(Parameters(1, 1, 1, nonlinearity=logistic(0.0)))

    @pytest.mark.parametrize("rate", [1e-200, 1e-300])
    def test_underflowing_delta_inf_rejected_by_name(self, rate):
        # both terms of DeltaInf underflow to 0: a ZeroDivisionError before
        with pytest.raises(ValueError, match="DeltaInf underflows at mu = 1.000e"):
            compute_c_star_inf(Parameters(rate, rate, rate, nonlinearity=logistic(rate)))


def oracle_c_star_inf(q, mu0):
    """min over mu > 0 of c_plus at 60 digits: the root of
    g(mu) = mu root'(mu) - root(mu), found from mu0.  For b = 2 alpha +
    2 beta - f'(0) > 0, root = sqrt(DeltaInf) - b is formed as
    8 alpha (f'(0) + 2 beta sinh^2(mu/2)) / (sqrt(DeltaInf) + b): the
    difference loses to cancellation every digit by which root falls below b,
    more than 60 where rates lie far apart."""
    with mpmath.workdps(60):
        alpha, beta, f0 = (mpmath.mpf(x) for x in (q[0], q[1], q[3]))
        b = 2 * alpha + 2 * beta - f0

        def sq(mu):
            return mpmath.sqrt((2 * alpha - 2 * beta + f0) ** 2
                               + 8 * alpha * beta * (1 + mpmath.cosh(mu)))

        def root(mu):
            if b > 0:
                return 8 * alpha * (f0 + 2 * beta * mpmath.sinh(mu / 2) ** 2) / (sq(mu) + b)
            return sq(mu) - b

        def g(mu):
            return mu * 4 * alpha * beta * mpmath.sinh(mu) / sq(mu) - root(mu)

        mu = mpmath.findroot(g, mpmath.mpf(mu0))
        return root(mu) / (2 * mu)


BOX_CORNERS = list(itertools.product((0.1, 10.0), repeat=4))
# beyond the corners: a tiny, a small and a huge f'(0), and rates far apart,
# where sqrt(DeltaInf) - (2 alpha + 2 beta - f'(0)) cancels, the last by
# more than 60 digits (there the oracle's difference form was 3.6e-11 off)
ORACLE_POINTS = BOX_CORNERS + [
    (1.0, 1.0, 1.0, 1e-9), (0.1, 10.0, 1.0, 0.1), (1.0, 1.0, 1.0, 1e-12),
    (1.0, 1.0, 1.0, 1e8), (1.0, 1e6, 1.0, 1.0), (1e6, 1.0, 1.0, 1.0),
    (1e-6, 1.0, 1e-6, 1e-6), (0.1, 1e5, 1.0, 1e-5),
    (6.2168e-15, 7.7161e13, 2.5587e6, 1.3873e-9),
]


class TestBitIdentical:
    """c*_inf to its last bits: within 2 ulps of the 60-digit minimum, and
    with no floating-point warning."""

    @pytest.mark.parametrize("q", ORACLE_POINTS)
    def test_c_star_inf(self, q):
        res = compute_c_star_inf(Parameters(*q[:3], nonlinearity=logistic(q[3])))
        ref = oracle_c_star_inf(q, res.mu_star)
        assert abs(res.c_star_inf / ref - 1) <= 4.5e-16

    @pytest.mark.parametrize("q", BOX_CORNERS)
    def test_warns_nothing(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_c_star_inf(Parameters(*q[:3], nonlinearity=logistic(q[3])))


def step(V, P, dt, p):
    """One RK4 step of the limit system: (V, P) after dt."""
    V1, P1, _ = kernels.advance_asym(V, P, 1, dt, p.alpha, p.beta, p.fprime0)
    return V1, P1


class TestStep:
    def test_constant_fixed_point_interior(self, p):
        n = 25
        V1, P1 = step(np.ones(n - 1), np.ones(n), 0.01, p)
        assert np.max(np.abs(P1[4:-4] - 1.0)) <= 1e-13
        assert np.max(np.abs(V1[4:-4] - 1.0)) <= 1e-13

    def test_zero_state(self, p):
        V1, P1 = step(np.zeros(8), np.zeros(9), 0.01, p)
        assert np.all(P1 == 0.0) and np.all(V1 == 0.0)

    def test_ordering_preserved(self, p):
        cfg = SimulationConfig(T=5.0, dt=0.01, m=8, c_upper_guess=1.0, snapshot_stride=50)
        lo = simulate_asymptotic(InitialData.custom(np.full(9, 0.2), j_min=-4,
                                                    stationary_edges=True), cfg, p)
        hi = simulate_asymptotic(InitialData.custom(np.full(9, 0.5), j_min=-4,
                                                    stationary_edges=True), cfg, p)
        for a, b in zip(lo.snapshots, hi.snapshots):
            assert a.edges.shape == (len(a.rho) - 1, 1)
            assert np.max(a.rho - b.rho) <= 1e-10
            assert np.max(a.edges - b.edges) <= 1e-10
            assert float(np.min(a.rho)) >= -1e-12

    def test_stationary_relation_at_fixed_point(self, p):
        # V = beta/(2 alpha) (P_j + P_{j+1}) characterizes the steady state
        n = 15
        P = np.ones(n)
        V = p.beta / (2 * p.alpha) * (P[:-1] + P[1:])
        V1, P1 = step(V, P, 0.01, p)
        assert np.allclose(V1[3:-3], p.beta / (2 * p.alpha) * (P1[3:-4] + P1[4:-3]),
                           atol=1e-13)


def box_points(n, lo, hi, seed):
    """n seeded log-uniform points (alpha, beta, d, f'(0)) of [lo, hi]^4."""
    rng = np.random.default_rng(seed)
    points = np.exp(rng.uniform(math.log(lo), math.log(hi), size=(n, 4)))
    return [Parameters(*q[:3], nonlinearity=logistic(q[3])) for q in points.tolist()]


def scaled(p, factor):
    return Parameters(factor * p.alpha, factor * p.beta, factor * p.d,
                      nonlinearity=logistic(factor * p.fprime0))


class TestLimitStep:
    """``limit_dt``: T / n, n the smallest multiple of 200 with T / n at
    most a fifth of the stiffness cap, and never finer than the lattice's
    step."""

    TIMES = (0.37, 1.0, 5.0, 50.0, 333.3, 2000.0)
    LATTICE = SimulationConfig.dt

    @pytest.mark.parametrize("T", TIMES)
    def test_rule_over_box(self, T):
        for p in box_points(50, 0.1, 10.0, seed=2601):
            dt, cap = limit_dt(T, p), stiffness_dt_cap(p) / 5.0
            n = round(T / dt)
            assert abs(n * dt - T) <= 1e-9 * T  # run_system's multiple-of-dt check
            assert dt <= cap
            assert dt >= self.LATTICE
            if dt > self.LATTICE:
                assert n % 200 == 0 and n >= 200
                assert n == 200 or T / (n - 200) > cap  # the smallest such n

    @pytest.mark.parametrize("T", TIMES)
    def test_exact_under_time_rescaling(self, T):
        # rates times 2^k and T over 2^k: the same n, so dt over exactly 2^k,
        # until that step is finer than the lattice's
        points = [p for p in box_points(20, 0.1, 10.0, seed=2602)
                  if limit_dt(T, p) > self.LATTICE]
        assert len(points) >= 10
        for p in points:
            dt = limit_dt(T, p)
            for k in (-20, -3, -1, 1, 3, 20):
                expected = max(dt / 2.0**k, self.LATTICE)
                assert limit_dt(T / 2.0**k, scaled(p, 2.0**k)) == expected

    def test_default_is_a_hundredth(self, p):
        # 50 / (0.2 * 0.05) is 4999.999999999999: the ceiling is guarded
        assert limit_dt(50.0, p) == 0.01

    def test_snapshot_grid(self, p):
        cfg = SimulationConfig(T=0.37, dt=limit_dt(0.37, p), m=4, c_upper_guess=1.0)
        assert len(simulate_asymptotic(InitialData.left_block(), cfg, p).snapshots) == 201

    @pytest.mark.parametrize("T,rates", [
        (50.0, (1.0, 1.0, 1.0, 20.0)),     # cap / 5 exactly the lattice's step
        (50.0, (1.0, 1.0, 1.0, 50.0)),
        (50.0, (1.0, 1.0, 1.0, 1e4)),      # past the cap: run_system refuses 1e-3
        (50.0, (1e308, 1.0, 1.0, 1.0)),    # a cap of 0
        (0.15, (1.0, 1.0, 1.0, 1.0)),      # T / 200 below 1e-3
        (1e307, (1.0, 1.0, 1.0, 1.0)),     # T / cap overflows: run_system refuses T
    ])
    def test_lattice_step_floor(self, T, rates):
        alpha, beta, d, fprime0 = rates
        p = Parameters(alpha, beta, d, nonlinearity=logistic(fprime0))
        assert limit_dt(T, p) == self.LATTICE

    def test_accuracy_over_box(self):
        # against a tenth of the step; T = 1.5 samples the early transient,
        # where the error is largest, more finely than T = 5 (|dP| 2.1e-9,
        # |dV| 2.7e-9 there): the worst case measured is |dP| 4.1e-9,
        # |dV| 5.6e-9
        T, worst_p, worst_v = 1.5, 0.0, 0.0
        for p in box_points(8, 0.3, 3.0, seed=2603):
            dt = limit_dt(T, p)
            runs = [simulate_asymptotic(InitialData.left_block(),
                                        SimulationConfig(T=T, dt=h, m=4, c_upper_guess=2.0), p)
                    for h in (dt, dt / 10)]
            assert [len(run.snapshots) for run in runs] == [201, 201]
            for a, b in zip(*(run.snapshots for run in runs)):
                assert a.time == pytest.approx(b.time, rel=1e-12)
                worst_p = max(worst_p, float(np.max(np.abs(a.rho - b.rho))))
                worst_v = max(worst_v, float(np.max(np.abs(a.edges - b.edges))))
        assert worst_p <= 1e-8 and worst_v <= 1e-8


class TestMassAnalogue:
    def test_reaction_free_conservation(self):
        # with f = 0 the leak-corrected sum V + P is an exact linear invariant
        # of the RK4 step, so drift stays at roundoff
        p0 = Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(0.0))
        cfg = SimulationConfig(T=10.0, dt=0.01, m=8, c_upper_guess=1.0)
        traj = simulate_asymptotic(InitialData.left_block(), cfg, p0)
        assert traj.mass_drift <= 1e-12


class TestSpreadingDichotomy:
    @pytest.mark.slow
    def test_desk_scale_dichotomy(self, p, c_inf):
        cfg = SimulationConfig(T=80.0, dt=0.01, m=8, c_upper_guess=1.5 * c_inf.c_star_inf)
        traj = simulate_asymptotic(InitialData.sine_bump(3, 0.5), cfg, p)
        assert outer_occupancy(traj, c_inf.c_star_inf, factor=1.2) < 1e-3
        assert inner_deficit(traj, p, c_inf.c_star_inf, factor=0.8) <= 0.05


class TestLargeD:
    def test_matched_steady_states_agree(self, p):
        rho = np.ones(31)
        data = InitialData.custom(rho, j_min=-15, stationary_edges=True)
        rows = large_d_convergence_experiment([1e-2], data, 2.0, p, m=16, dt=2e-3)
        assert rows[0][1] <= 1e-6

    def test_error_decreases(self, p):
        rows = large_d_convergence_experiment([1e-1, 1e-2, 1e-3],
                                              InitialData.left_block(), 5.0, p)
        errs = [e for _, e in rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 0.05

    def test_rejects_bad_eps(self, p):
        with pytest.raises(ValueError):
            large_d_convergence_experiment([-0.1], InitialData.left_block(), 5.0, p)


class TestAsymptoticSpeedMeasured:
    @pytest.mark.slow
    def test_measured_speed_matches_c_inf(self, p, c_inf):
        cfg = SimulationConfig(T=60.0, dt=0.01, m=8, c_upper_guess=1.5 * c_inf.c_star_inf)
        traj = simulate_asymptotic(InitialData.left_block(), cfg, p)
        trace = estimate_speed(traj, window_fraction=(0.75, 1.0))
        assert abs(trace.fitted_speed - c_inf.c_star_inf) / c_inf.c_star_inf <= 0.03
