import math

import numpy as np
import pytest

from cityroad import kernels
from cityroad.asymptotic import (
    asymptotic_dispersion_eval,
    compute_c_star_inf,
    large_d_convergence_experiment,
    simulate_asymptotic,
)
from cityroad.front_speed import estimate_speed, inner_deficit, outer_occupancy
from cityroad.lattice_sim import InitialData, SimulationConfig
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
        assert c_inf.psi_residual <= 1e-10
        assert c_inf.dpsi_dmu_residual <= 1e-8

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

    def test_widened_scan(self):
        # mu* = 4.47e-5 lies below the first scan's lower end 1e-4, so the
        # minimum sits on that endpoint and the scan widens tenfold each way
        res = compute_c_star_inf(Parameters(1, 1, 1, nonlinearity=logistic(1e-9)))
        assert res.mu_star < 1e-4
        assert res.psi_residual <= 1e-10
        assert res.dpsi_dmu_residual <= 1e-8

    def test_needs_reaction(self):
        with pytest.raises(ValueError):
            compute_c_star_inf(Parameters(1, 1, 1, nonlinearity=logistic(0.0)))


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
