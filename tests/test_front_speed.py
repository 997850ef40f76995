from dataclasses import dataclass

import numpy as np
import pytest

from cityroad.front_speed import (
    NoCrossingError,
    estimate_speed,
    inner_deficit,
    level_position,
    loglog_fit,
    outer_occupancy,
)
from cityroad.lattice_sim import Trajectory
from cityroad.model import LatticeState


@dataclass
class FakeSnapshot:
    time: float
    j_min: int
    rho: np.ndarray


@dataclass
class FakeTrajectory:
    snapshots: tuple


def ramp_front(position, js):
    """Sharp synthetic front: 1 behind, 0 ahead, linear over one cell."""
    return np.clip(position - js, 0.0, 1.0)


def synthetic_trajectory(speed, t_final=40.0, n_snap=41, j_min=-10, offset=2.0):
    snaps = []
    js = np.arange(j_min, 120)
    for t in np.linspace(0.0, t_final, n_snap):
        snaps.append(FakeSnapshot(t, j_min, ramp_front(offset + speed * t - j_min, np.arange(len(js)))))
    return FakeTrajectory(tuple(snaps))


class TestLevelPosition:
    def test_midpoint(self):
        assert level_position([1.0, 1.0, 0.0, 0.0], 0.5) == pytest.approx(1.5)

    def test_interpolation(self):
        rho = np.array([1.0, 0.9, 0.8, 0.6, 0.2, 0.05])
        assert level_position(rho, 0.5) == pytest.approx(3.25)

    def test_no_crossing(self):
        with pytest.raises(NoCrossingError):
            level_position(np.zeros(5), 0.5)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            level_position([1.0, 0.0], 1.5)

    def test_rightmost_crossing_wins(self):
        rho = np.array([1.0, 0.2, 0.9, 0.1])
        assert level_position(rho, 0.5) == pytest.approx(2.0 + 0.4 / 0.8)


class TestEstimateSpeed:
    def test_exact_ballistic(self):
        traj = synthetic_trajectory(speed=2.0)
        trace = estimate_speed(traj, 0.5, (0.5, 1.0))
        assert trace.fitted_speed == pytest.approx(2.0, abs=1e-12)
        assert trace.fit_residual <= 1e-10
        assert trace.ballistic

    def test_stationary_front(self):
        traj = synthetic_trajectory(speed=0.0)
        trace = estimate_speed(traj, 0.5, (0.5, 1.0))
        assert trace.fitted_speed == pytest.approx(0.0, abs=1e-12)

    def test_needs_ten_snapshots(self):
        traj = synthetic_trajectory(speed=1.0, n_snap=8)
        with pytest.raises(ValueError):
            estimate_speed(traj, 0.5, (0.9, 1.0))

    def test_measured_vs_theory(self, left_block_run, c_star_unit):
        trace = estimate_speed(left_block_run, 0.5, (30 / 80, 60 / 80))
        rel = abs(trace.fitted_speed - c_star_unit.c_star) / c_star_unit.c_star
        assert rel <= 0.05

    def test_threshold_robustness(self, left_block_run):
        speeds = [estimate_speed(left_block_run, thr, (0.5, 1.0)).fitted_speed
                  for thr in (0.3, 0.5, 0.7)]
        spread = (max(speeds) - min(speeds)) / min(speeds)
        assert spread <= 0.02

    def test_translation_invariance_synthetic(self):
        t1 = synthetic_trajectory(speed=1.0, j_min=-10)
        t2 = synthetic_trajectory(speed=1.0, j_min=-30)
        s1 = estimate_speed(t1, 0.5, (0.5, 1.0))
        s2 = estimate_speed(t2, 0.5, (0.5, 1.0))
        assert s1.fitted_speed == pytest.approx(s2.fitted_speed, abs=1e-12)


class TestDichotomyChecks:
    def test_bounds_on_front_run(self, left_block_run, c_star_unit, params_unit):
        c = c_star_unit.c_star
        assert outer_occupancy(left_block_run, c, factor=1.2) < 1e-3
        assert inner_deficit(left_block_run, params_unit, c, factor=0.8) <= 0.05

    def test_outer_occupancy_side_choice(self, left_block_run):
        # the block data occupies the left half-line, so only the front side
        # is scanned
        assert outer_occupancy(left_block_run, 0.6, factor=1.2) < 1e-3

    def test_outer_occupancy_skips_side_that_started_occupied(self):
        # hand-built run on j = -10..10 at t = 10, speed 0.5 (outer cutoff 6):
        # the invaded state fills j <= 0 throughout, and 0.25 sits at j = 8
        js = np.arange(-10, 11)
        P = np.where(js <= 0, 1.0, 0.0)
        P_final = P.copy()
        P_final[18] = 0.25
        final = LatticeState(-10, 10, P_final, np.zeros((20, 1)), 10.0)
        started_left = Trajectory((LatticeState(-10, 10, P, np.zeros((20, 1)), 0.0), final),
                                  np.zeros(2), False, 0.0)
        assert outer_occupancy(started_left, 0.5, factor=1.2) == 0.25
        # the same final state from a start empty at both ends: both sides scanned
        started_empty = Trajectory((LatticeState(-10, 10, np.zeros(21), np.zeros((20, 1)), 0.0),
                                    final), np.zeros(2), False, 0.0)
        assert outer_occupancy(started_empty, 0.5, factor=1.2) == 1.0

    def test_limit_trajectory_edges_come_from_V(self, params_unit):
        # hand-built limit run on j = -10..10 at t = 10, speed 0.5: the
        # vertices sit exactly at the invaded state inside and at 0 outside,
        # so each check reads its value off the road levels V alone
        js = np.arange(-10, 11)
        P = np.where(np.abs(js) <= 4, 1.0, 0.0)
        V = np.zeros(20)  # edge k joins js[k] and js[k + 1]
        V[6:14] = 1.0  # edges inside |j| <= 4
        V[10] = 0.7  # edge (0, 1), inside the inner cutoff 0.8 * 0.5 * 10 = 4
        V[18] = 0.25  # edge (8, 9), past the outer cutoff 1.2 * 0.5 * 10 = 6
        snaps = (LatticeState(-10, 10, np.zeros(21), np.zeros((20, 1)), 0.0),
                 LatticeState(-10, 10, P, V[:, None], 10.0))
        traj = Trajectory(snaps, np.zeros(2), False, 0.0)
        assert outer_occupancy(traj, 0.5, factor=1.2) == 0.25
        assert inner_deficit(traj, params_unit, 0.5, factor=0.8) == pytest.approx(0.3, abs=1e-15)


class TestLogLogFit:
    def test_exact_power_law(self):
        f0 = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        fit = loglog_fit(f0, np.sqrt(f0))
        assert fit.a1 == pytest.approx(0.5, abs=1e-12)
        assert fit.a0 == pytest.approx(0.0, abs=1e-12)
        assert fit.max_rel_residual <= 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            loglog_fit([0.5, -1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0])

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0, 2.0], [1.0, 1.4])
