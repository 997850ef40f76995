import math

import numpy as np
import pytest

from cityroad import kernels
from cityroad.asymptotic import simulate_asymptotic
from cityroad.lattice_sim import (
    BlowUpError,
    InitialData,
    SimulationConfig,
    Trajectory,
    check_long_time_convergence,
    compatibility_residuals,
    init_state,
    simulate,
    step_system,
    stiffness_dt_cap,
)
from cityroad.model import (
    LatticeState,
    Parameters,
    logistic,
    sample_linear_profiles,
    stationary_from_rho,
    total_mass,
)


@pytest.fixture
def p():
    return Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(1.0))


# Both systems run through one driver; each test that checks the driver's
# contract runs it once per system.
DRIVERS = (simulate, simulate_asymptotic)


def in_window_mass(state):
    """The mass each system's series starts from: total_mass for the coupled
    system, the sum V + P for the limit system."""
    if isinstance(state, LatticeState):
        return total_mass(state)
    return float(state.V.sum() + state.P.sum())


def steady_state(p, n=21, m=16):
    rho = np.ones(n)
    edges = sample_linear_profiles(stationary_from_rho(rho, p), m)
    half = n // 2
    return LatticeState(-half, half, rho, edges, 0.0)


class TestInitState:
    def test_left_block_window_and_values(self, p):
        cfg = SimulationConfig(T=50.0, dt=1e-3, m=8, c_upper_guess=1.0)
        s = init_state(InitialData.left_block(), cfg, p)
        assert s.j_min == -(50 + 4) and s.j_max == 50 + 4
        js = s.js
        assert np.all(s.rho[js <= 0] == 1.0)
        assert np.all(s.rho[js >= 1] == 0.0)
        assert np.all(s.edges == 0.0)

    def test_point_mass_trivial_rejected(self):
        with pytest.raises(ValueError):
            InitialData.point_mass(0, 0.0)

    def test_sine_bump_values_and_edges(self, p):
        cfg = SimulationConfig(T=1.0, dt=1e-3, m=8, c_upper_guess=1.0)
        s = init_state(InitialData.sine_bump(5), cfg, p)
        js = s.js
        inside = (js >= 1) & (js <= 5)
        assert np.allclose(s.rho[inside], np.sin(js[inside] * math.pi / 6.0))
        prof = stationary_from_rho(s.rho, p)
        assert np.allclose(s.edges, sample_linear_profiles(prof, 8))

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            InitialData.custom([-0.1, 0.5], j_min=0)

    @pytest.mark.parametrize("c_up", [math.inf, math.nan, -1.0, 0.0])
    def test_bad_c_upper_rejected(self, c_up):
        with pytest.raises(ValueError, match="c_upper_guess"):
            SimulationConfig(T=1.0, c_upper_guess=c_up)

    def test_compatibility_reported_not_enforced(self, p):
        cfg = SimulationConfig(T=1.0, dt=1e-3, m=8, c_upper_guess=1.0)
        s = init_state(InitialData.left_block(), cfg, p)
        rep = compatibility_residuals(s, p)
        # block data with empty edges violates the condition by exactly beta*rho
        assert rep.max_residual == pytest.approx(p.beta, rel=1e-12)
        s2 = init_state(InitialData.sine_bump(5), cfg, p)
        rep2 = compatibility_residuals(s2, p)
        assert rep2.max_residual <= 1e-10  # stationary edges satisfy it


class TestStepSystem:
    def test_constant_fixed_point_interior(self, p):
        s = steady_state(p)
        s1 = step_system(s, 1e-3, p)
        assert np.max(np.abs(s1.rho[3:-3] - 1.0)) <= 1e-12
        assert np.max(np.abs(s1.edges[3:-3] - 1.0)) <= 1e-12

    def test_zero_state_stays_zero(self, p):
        n = 9
        s = LatticeState(0, n - 1, np.zeros(n), np.zeros((n - 1, 9)), 0.0)
        s1 = step_system(s, 1e-3, p)
        assert np.all(s1.rho == 0.0)
        assert np.all(s1.edges == 0.0)

    def test_blow_up_detected(self):
        # dt far past the explicit stability limit makes the exchange mode grow
        p = Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(0.0))
        n = 9
        rho = np.full(n, 1.0)
        s = LatticeState(0, n - 1, rho, np.zeros((n - 1, 9)), 0.0)
        with pytest.raises(BlowUpError):
            st = s
            for _ in range(50):
                st = step_system(st, 15.0, p)

    def test_time_advances(self, p):
        s = steady_state(p)
        assert step_system(s, 1e-3, p).time == pytest.approx(1e-3)


class TestSimulate:
    def test_constant_trajectory(self, p):
        rho = np.ones(13)
        data = InitialData.custom(rho, j_min=-6, edge_mode="stationary")
        cfg = SimulationConfig(T=0.5, dt=1e-3, m=8, c_upper_guess=1.0, snapshot_stride=100)
        traj = simulate(data, cfg, p)
        # central region of every snapshot stays at the steady state
        for s in traj.snapshots:
            js = s.js
            central = np.abs(js) <= 2
            assert np.max(np.abs(s.rho[central] - 1.0)) <= 1e-10

    def test_dt_cap_enforced(self, p):
        cfg = SimulationConfig(T=1.0, dt=0.2, m=8, c_upper_guess=1.0)
        assert stiffness_dt_cap(p) == pytest.approx(0.05)
        for run in DRIVERS:
            with pytest.raises(ValueError, match="stiffness cap"):
                run(InitialData.left_block(), cfg, p)

    def test_T_must_be_a_multiple_of_dt(self, p):
        for T in (1.0, 1e-3):  # 333.3 steps, then 0.33 steps
            cfg = SimulationConfig(T=T, dt=3e-3, m=8, c_upper_guess=1.0)
            for run in DRIVERS:
                with pytest.raises(ValueError, match="multiple of dt"):
                    run(InitialData.point_mass(0, 0.5), cfg, p)

    def test_snapshot_count_and_final_time(self, p):
        data = InitialData.point_mass(0, 0.5)
        # 100 steps in chunks of 30: the last chunk is short
        strided = SimulationConfig(T=1.0, dt=0.01, m=8, c_upper_guess=1.0, snapshot_stride=30)
        default = SimulationConfig(T=1.0, dt=1e-3, m=8, c_upper_guess=1.0)  # stride 5
        for run in DRIVERS:
            traj = run(data, strided, p)
            assert isinstance(traj, Trajectory)
            assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0, atol=1e-15)
            assert traj.final.time == 1.0
            assert len(traj.mass) == 5
            traj = run(data, default, p)
            assert len(traj.snapshots) == len(traj.mass) == 201
            assert traj.final.time == 1.0

    def test_ordering_preserved(self, p):
        lower = InitialData.custom(np.full(9, 0.3), j_min=-4, edge_mode="stationary")
        upper = InitialData.custom(np.full(9, 0.6), j_min=-4, edge_mode="stationary")
        cfg = SimulationConfig(T=2.0, dt=2.5e-3, m=16, c_upper_guess=1.0, snapshot_stride=100)
        tl = simulate(lower, cfg, p)
        tu = simulate(upper, cfg, p)
        for a, b in zip(tl.snapshots, tu.snapshots):
            assert np.max(a.rho - b.rho) <= 1e-10
            assert np.max(a.edges - b.edges) <= 1e-10

    def test_translation_equivariance(self, p):
        cfg = SimulationConfig(T=1.0, dt=1e-3, m=8, c_upper_guess=1.0, snapshot_stride=500)
        t0 = simulate(InitialData.point_mass(0, 0.5), cfg, p)
        t1 = simulate(InitialData.point_mass(1, 0.5), cfg, p)
        assert t1.final.j_min == t0.final.j_min + 1
        assert np.array_equal(t0.final.rho, t1.final.rho)
        assert np.array_equal(t0.final.edges, t1.final.edges)

    def test_supersolution_start_nonincreasing(self, p):
        # the constant (beta/alpha, 1) over the whole window is a supersolution
        # of the truncated dynamics too; stepping from it is pointwise
        # non-increasing in time
        n = 17
        prev = LatticeState(-8, 8, np.ones(n), np.ones((n - 1, 17)), 0.0)
        for _ in range(100):
            nxt = step_system(prev, 2.5e-3, p)
            assert np.max(nxt.rho - prev.rho) <= 1e-12
            assert np.max(nxt.edges - prev.edges) <= 1e-12
            prev = nxt

    def test_positivity_and_bounds(self, p):
        cfg = SimulationConfig(T=5.0, dt=2.5e-3, m=16, c_upper_guess=1.0)
        traj = simulate(InitialData.sine_bump(5, 0.8), cfg, p)
        for s in traj.snapshots:
            assert float(np.min(s.rho)) >= -1e-12
            assert float(np.min(s.edges)) >= -1e-12
            assert float(np.max(s.rho)) <= 1.0 + 1e-9
            assert float(np.max(s.edges)) <= 1.0 + 1e-9

    def test_contamination_flagged(self, p):
        # undersized window on purpose: the front reaches the boundary
        cfg = SimulationConfig(T=30.0, dt=2.5e-3, m=8, c_upper_guess=0.05)
        for run in DRIVERS:
            assert run(InitialData.point_mass(0, 0.5), cfg, p).contaminated, run.__name__

    def test_mass_conservation_reaction_free(self):
        p0 = Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(0.0))
        cfg = SimulationConfig(T=2.0, dt=1e-3, m=32, c_upper_guess=1.0)
        traj = simulate(InitialData.left_block(), cfg, p0)
        drift = np.max(np.abs(traj.mass - traj.mass[0])) / abs(traj.mass[0])
        assert drift <= 1e-6

    def test_mass_column_matches_state_plus_leak(self, p):
        cfg = SimulationConfig(T=0.5, dt=1e-3, m=8, c_upper_guess=1.0, snapshot_stride=250)
        for run in DRIVERS:
            traj = run(InitialData.point_mass(0, 0.5), cfg, p)
            # at t=0 there is no leak yet
            assert traj.mass[0] == in_window_mass(traj.snapshots[0])
            assert traj.mass[-1] >= in_window_mass(traj.final) - 1e-12


class TestKernelLookup:
    def test_driver_steps_through_module_kernels(self, p, monkeypatch):
        # wrappers installed on the kernels module (as a tracer does) must see
        # every step: the systems look their kernel up at each call
        steps = {"advance_lattice": 0, "advance_asym": 0}
        for name in steps:
            def counting(v, rho, nsteps, *args, _name=name, _kernel=getattr(kernels, name)):
                steps[_name] += nsteps
                return _kernel(v, rho, nsteps, *args)

            monkeypatch.setattr(kernels, name, counting)
        cfg = SimulationConfig(T=1.0, dt=0.01, m=8, c_upper_guess=1.0, snapshot_stride=30)
        simulate(InitialData.point_mass(0, 0.5), cfg, p)
        assert steps == {"advance_lattice": 100, "advance_asym": 0}
        simulate_asymptotic(InitialData.point_mass(0, 0.5), cfg, p)
        assert steps == {"advance_lattice": 100, "advance_asym": 100}


class TestLongTime:
    def test_steady_start_stays(self, p):
        # plateau wide enough that boundary erosion cannot reach the central
        # quarter of the window within T
        rho = np.ones(41)
        data = InitialData.custom(rho, j_min=-20, edge_mode="stationary")
        cfg = SimulationConfig(T=1.0, dt=1e-3, m=8, c_upper_guess=1.0, snapshot_stride=200)
        traj = simulate(data, cfg, p)
        assert check_long_time_convergence(traj, p) <= 1e-10

    def test_left_block_converges(self, left_block_run, params_unit):
        assert check_long_time_convergence(left_block_run, params_unit) <= 0.02

    @pytest.mark.slow
    def test_hair_trigger_sine_seed(self, p):
        cfg = SimulationConfig(T=120.0, dt=2e-3, m=32, c_upper_guess=0.75)
        traj = simulate(InitialData.sine_bump(5, 1e-3), cfg, p)
        assert check_long_time_convergence(traj, p) <= 0.05
