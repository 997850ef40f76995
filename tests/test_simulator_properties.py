"""Invariants of the two simulators over the box [0.1, 10]^4.

Scaling every rate (alpha, beta, d, f'(0)) by k, and dt and T by 1/k, is the
time change t -> k t of the coupled system and of its fast-diffusion limit
alike: the scaled run ends in the same state, on the same window, to
roundoff.  Without reaction, the limit system's RK4 step conserves the
leak-corrected mass to roundoff.  Each property also runs at the corners of
the box.  Windows are small and roads coarse (m = 16), so the file stays fast.
"""

import numpy as np
from hypothesis import example, given, settings

from cityroad.asymptotic import simulate_asymptotic
from cityroad.lattice_sim import InitialData, SimulationConfig, simulate, stiffness_dt_cap
from test_properties import at_corners, params, rate

box_settings = settings(max_examples=20, derandomize=True, database=None, deadline=None)
STEPS = 200
M = 16


def run_config(p, scale=1.0):
    """STEPS steps of dt = min(1e-3, stiffness cap of p), both divided by
    ``scale``; the window reaches ceil(2.5) vertices past the data, well
    away from a rounding edge of the ceiling."""
    dt = min(1e-3, stiffness_dt_cap(p))
    T = STEPS * dt
    return SimulationConfig(T=T / scale, dt=dt / scale, m=M, snapshot_stride=STEPS,
                            c_upper_guess=scale * 2.5 / T)


def assert_rescaled_run_matches(simulator, alpha, beta, d, f0, k):
    p = params(alpha, beta, d, f0)
    p_k = params(k * alpha, k * beta, k * d, k * f0)
    data = InitialData.left_block()
    base = simulator(data, run_config(p), p).final
    scaled = simulator(data, run_config(p, k), p_k).final
    assert (scaled.j_min, scaled.j_max) == (base.j_min, base.j_max)
    size = max(np.max(np.abs(base.rho)), np.max(np.abs(base.edges)))
    assert np.max(np.abs(scaled.rho - base.rho)) <= 1e-12 * size
    assert np.max(np.abs(scaled.edges - base.edges)) <= 1e-12 * size


@box_settings
@given(alpha=rate, beta=rate, d=rate, f0=rate, k=rate)
@at_corners(ks=(0.1, 10.0))
def test_simulate_time_rescaling(alpha, beta, d, f0, k):
    assert_rescaled_run_matches(simulate, alpha, beta, d, f0, k)


@box_settings
@given(alpha=rate, beta=rate, d=rate, f0=rate, k=rate)
@at_corners(ks=(0.1, 10.0))
def test_simulate_asymptotic_time_rescaling(alpha, beta, d, f0, k):
    assert_rescaled_run_matches(simulate_asymptotic, alpha, beta, d, f0, k)


@box_settings
@given(alpha=rate, beta=rate)
@example(alpha=0.1, beta=0.1)
@example(alpha=0.1, beta=10.0)
@example(alpha=10.0, beta=0.1)
@example(alpha=10.0, beta=10.0)
def test_limit_reaction_free_mass_drift(alpha, beta):
    # d does not enter the limit system
    p = params(alpha, beta, 1.0, 0.0)
    traj = simulate_asymptotic(InitialData.sine_bump(3), run_config(p), p)
    drift = np.max(np.abs(traj.mass - traj.mass[0])) / traj.mass[0]
    assert drift <= 1e-13
