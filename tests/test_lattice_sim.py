import math

import numpy as np
import pytest

from cityroad import kernels
from cityroad.asymptotic import simulate_asymptotic
from cityroad.front_speed import inner_deficit
from cityroad.lattice_sim import (
    BlowUpError,
    InitialData,
    SimulationConfig,
    Trajectory,
    compatibility_residual,
    init_state,
    run_system,
    simulate,
    stiffness_dt_cap,
)
from cityroad.edge_solver import assemble_step_operator
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


def step(s, dt, p):
    """One IMEX step of the coupled system from snapshot ``s``."""
    op = assemble_step_operator(s.m, dt, p)
    v, rho, _ = kernels.advance_lattice(s.edges, s.rho, 1, dt, p.alpha, p.beta, p.fprime0, op)
    return LatticeState(s.j_min, rho, v, s.time + dt)


def steady_state(p, n=21, m=16):
    rho = np.ones(n)
    edges = sample_linear_profiles(stationary_from_rho(rho, p), m)
    half = n // 2
    return LatticeState(-half, rho, edges, 0.0)


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

    @pytest.mark.parametrize("values,message", [
        ([0.5, -0.1], "finite and nonnegative"),
        ([0.5, math.nan], "finite and nonnegative"),
        ([0.0, 0.0], "trivial"),
        ([[0.5]], "1-d"),
    ])
    def test_directly_built_data_checked(self, values, message):
        with pytest.raises(ValueError, match=message):
            InitialData(np.array(values))

    def test_filled_left_half_line_is_data(self, p):
        cfg = SimulationConfig(T=1.0, dt=1e-3, m=4, c_upper_guess=1.0)
        s = init_state(InitialData(np.zeros(1), left_filled=True), cfg, p)
        np.testing.assert_array_equal(s.rho, (s.js < 0).astype(float))

    @pytest.mark.parametrize("c_up", [math.inf, math.nan, -1.0, 0.0])
    def test_bad_c_upper_rejected(self, c_up):
        with pytest.raises(ValueError, match="c_upper_guess"):
            SimulationConfig(T=1.0, c_upper_guess=c_up)

    def test_compatibility_reported_not_enforced(self, p):
        cfg = SimulationConfig(T=1.0, dt=1e-3, m=8, c_upper_guess=1.0)
        s = init_state(InitialData.left_block(), cfg, p)
        # block data with empty edges violates the condition by exactly beta*rho
        assert compatibility_residual(s, p) == pytest.approx(p.beta, rel=1e-12)
        s2 = init_state(InitialData.sine_bump(5), cfg, p)
        assert compatibility_residual(s2, p) <= 1e-10  # stationary edges satisfy it


def hand_window(j_min, j_max, values):
    """Vertex array on j_min..j_max that is 0 except ``values`` ({j: rho})."""
    rho = np.zeros(j_max - j_min + 1)
    for j, v in values.items():
        rho[j - j_min] = v
    return rho


class TestInitialDataArrays:
    """Each constructor realizes the window one builds by hand: its whole
    vertex array widened by ceil(c_upper T) + margin = 2 + 4 vertices on each
    side."""

    CFG = SimulationConfig(T=2.0, dt=1e-3, m=4, c_upper_guess=1.0)

    def realize(self, data, p):
        s = init_state(data, self.CFG, p)
        return s.j_min, s.j_max, s.rho, s.edges

    def test_left_block(self, p):
        data = InitialData.left_block()
        j_min, j_max, rho, edges = self.realize(data, p)
        assert (j_min, j_max) == (-6, 6)
        np.testing.assert_array_equal(rho, hand_window(-6, 6, {j: 1.0 for j in range(-6, 1)}))
        np.testing.assert_array_equal(edges, np.zeros((12, 5)))

    def test_sine_bump(self, p):
        data = InitialData.sine_bump(3, 0.5)
        j_min, j_max, rho, edges = self.realize(data, p)
        assert (j_min, j_max) == (-5, 9)
        arch = 0.5 * np.sin(np.array([1, 2, 3]) * math.pi / 4)
        want = hand_window(-5, 9, dict(zip((1, 2, 3), arch)))
        np.testing.assert_array_equal(rho, want)
        np.testing.assert_array_equal(
            edges, sample_linear_profiles(stationary_from_rho(want, p), 4))

    def test_point_mass(self, p):
        data = InitialData.point_mass(3, 0.5)
        j_min, j_max, rho, edges = self.realize(data, p)
        assert (j_min, j_max) == (-3, 9)
        np.testing.assert_array_equal(rho, hand_window(-3, 9, {3: 0.5}))
        np.testing.assert_array_equal(edges, np.zeros((12, 5)))

    def test_custom_stationary(self, p):
        data = InitialData.custom([0.3, 0.6], j_min=2, stationary_edges=True)
        j_min, j_max, rho, edges = self.realize(data, p)
        assert (j_min, j_max) == (-4, 9)
        want = hand_window(-4, 9, {2: 0.3, 3: 0.6})
        np.testing.assert_array_equal(rho, want)
        np.testing.assert_array_equal(
            edges, sample_linear_profiles(stationary_from_rho(want, p), 4))

    def test_window_covers_whole_array(self, p):
        # zero entries at either end of the array widen the window too
        data = InitialData.custom([0.0, 0.2, 0.0, 0.4, 0.0], j_min=-2)
        j_min, j_max, rho, edges = self.realize(data, p)
        assert (j_min, j_max) == (-8, 8)
        np.testing.assert_array_equal(rho, hand_window(-8, 8, {-1: 0.2, 1: 0.4}))
        np.testing.assert_array_equal(edges, np.zeros((16, 5)))

    @pytest.mark.parametrize("values", [[0.0] * 20 + [1.0], [1.0] + [0.0] * 20])
    def test_zero_padded_custom_data_runs(self, p, values):
        cfg = SimulationConfig(T=2.0, c_upper_guess=1.0)
        traj = simulate(InitialData.custom(values), cfg, p)
        first = traj.snapshots[0]
        assert (first.j_min, first.j_max) == (-6, 26)
        np.testing.assert_array_equal(first.rho[6:27], values)
        assert not traj.contaminated


class TestStepSystem:
    def test_constant_fixed_point_interior(self, p):
        s1 = step(steady_state(p), 1e-3, p)
        assert np.max(np.abs(s1.rho[3:-3] - 1.0)) <= 1e-12
        assert np.max(np.abs(s1.edges[3:-3] - 1.0)) <= 1e-12

    def test_zero_state_stays_zero(self, p):
        n = 9
        s = LatticeState(0, np.zeros(n), np.zeros((n - 1, 9)), 0.0)
        s1 = step(s, 1e-3, p)
        assert np.all(s1.rho == 0.0)
        assert np.all(s1.edges == 0.0)


class TestRunSystem:
    """The driver's own checks, with the advance injected."""

    @staticmethod
    def run(p, v, rho, advance, T=0.1, dt=0.01):
        cfg = SimulationConfig(T=T, dt=dt, m=8, c_upper_guess=1.0, snapshot_stride=1)
        return run_system(cfg, p, 0, v, rho, advance)

    @staticmethod
    def run_setting(p, where, value):
        """Run from edges 0 and vertices 0.5 (blow-up threshold
        10 max(beta/alpha, 1, |v0|, |rho0|) = 10) with an advance that sets
        vertex or edge row 4 to ``value``."""
        def advance(v, rho, n):
            v, rho = v.copy(), rho.copy()
            (rho if where == "rho" else v)[4] = value
            return v, rho, 0.0

        return TestRunSystem.run(p, np.zeros((8, 9)), np.full(9, 0.5), advance)

    @pytest.mark.parametrize("bad", [10.5, math.nan])
    @pytest.mark.parametrize("where", ["rho", "edges"])
    def test_blow_up_detected(self, p, bad, where):
        # a NaN passes every bound comparison, so the blow-up check is its only guard
        with pytest.raises(BlowUpError):
            self.run_setting(p, where, bad)

    @pytest.mark.parametrize("where,value,message", [
        ("rho", -1e-6, "positivity violated at t=0.01: min value -1.000e-06"),
        ("rho", 1.5, "vertex bound violated at t=0.01"),
        ("edges", 1.5, "edge bound violated at t=0.01"),
    ])
    def test_bound_violation_detected(self, p, where, value, message):
        # under the blow-up threshold, past 0, max(1, max rho0) or max(beta/alpha, max v0)
        with pytest.raises(RuntimeError) as info:
            self.run_setting(p, where, value)
        assert not isinstance(info.value, BlowUpError)
        assert str(info.value) == message

    def test_occupied_ends_are_not_contamination(self, p):
        # the steady state fills the window: both ends start occupied and stay
        # so, which is not a front reaching an empty end
        s0 = steady_state(p, m=8)
        op = assemble_step_operator(8, 0.01, p)
        traj = self.run(p, s0.edges, s0.rho, lambda v, rho, n: kernels.advance_lattice(
            v, rho, n, 0.01, p.alpha, p.beta, p.fprime0, op))
        assert traj.final.rho[0] > 0.5 and traj.final.rho[-1] > 0.5
        assert not traj.contaminated

    def test_left_block_checks_its_right_end_only(self, p):
        # the filled left end never counts; an undersized window is caught
        # when the front reaches the empty right end
        for c_up, flagged in ((1.0, False), (0.05, True)):
            cfg = SimulationConfig(T=5.0, dt=2.5e-3, m=8, c_upper_guess=c_up)
            traj = simulate(InitialData.left_block(), cfg, p)
            assert traj.snapshots[0].rho[0] == 1.0 and traj.snapshots[0].rho[-1] == 0.0
            assert traj.final.rho[0] > 0.1  # drained by the absorbing exterior, far from empty
            assert traj.contaminated == flagged
            assert (traj.final.rho[-1] > 1e-8 * np.max(traj.final.rho)) == flagged


class TestSimulate:
    def test_constant_trajectory(self, p):
        rho = np.ones(13)
        data = InitialData.custom(rho, j_min=-6, stationary_edges=True)
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
        lower = InitialData.custom(np.full(9, 0.3), j_min=-4, stationary_edges=True)
        upper = InitialData.custom(np.full(9, 0.6), j_min=-4, stationary_edges=True)
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
        prev = LatticeState(-8, np.ones(n), np.ones((n - 1, 17)), 0.0)
        for _ in range(100):
            nxt = step(prev, 2.5e-3, p)
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
        assert traj.mass_drift <= 1e-6

    def test_mass_column_matches_state_plus_leak(self, p):
        cfg = SimulationConfig(T=0.5, dt=1e-3, m=8, c_upper_guess=1.0, snapshot_stride=250)
        for run in DRIVERS:
            traj = run(InitialData.point_mass(0, 0.5), cfg, p)
            # at t=0 there is no leak yet
            assert traj.mass[0] == total_mass(traj.snapshots[0])
            assert traj.mass[-1] >= total_mass(traj.final) - 1e-12


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
    """The invaded state (beta/alpha, 1) on the inner region, measured by
    ``inner_deficit``; overshoot above it is an a-priori bound violation,
    which ``run_system`` raises."""

    def test_steady_start_stays(self, p):
        # plateau wide enough that boundary erosion cannot reach the central
        # quarter of the window, |j| <= 12, within T = 1
        rho = np.ones(41)
        data = InitialData.custom(rho, j_min=-20, stationary_edges=True)
        cfg = SimulationConfig(T=1.0, dt=1e-3, m=8, c_upper_guess=1.0, snapshot_stride=200)
        traj = simulate(data, cfg, p)
        assert inner_deficit(traj, p, 12.0, factor=1.0) <= 1e-10

    def test_left_block_converges(self, left_block_run, params_unit, c_star_unit):
        assert inner_deficit(left_block_run, params_unit, c_star_unit.c_star) <= 0.02

    @pytest.mark.slow
    def test_hair_trigger_sine_seed(self, p, c_star_unit):
        cfg = SimulationConfig(T=120.0, dt=2e-3, m=32, c_upper_guess=0.75)
        traj = simulate(InitialData.sine_bump(5, 1e-3), cfg, p)
        assert inner_deficit(traj, p, c_star_unit.c_star) <= 0.05
