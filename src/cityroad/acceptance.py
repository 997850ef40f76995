"""Acceptance suite: every exit criterion as one checkable item.

Each criterion returns pass/fail plus a one-line detail; ``run_criteria``
prints one line per criterion and is what ``cityroad verify`` and the pytest
acceptance module both call.  Expensive runs (the long front experiment, the
asymptotic run) are shared across criteria through memoization.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymptotic import (
    AsymptoticState,
    compute_c_star_inf,
    large_d_convergence_experiment,
    simulate_asymptotic,
    step_asymptotic,
)
from .dispersion import compute_c_star, dispersion_eval, exponential_ansatz_residual
from .edge_solver import (
    EdgeGrid,
    RobinStepInput,
    integral_representation_oracle,
    manufactured_solution_error,
    step_edge,
)
from .front_speed import estimate_speed, inner_deficit, outer_occupancy
from .lattice_sim import (
    InitialData,
    SimulationConfig,
    simulate,
    step_system,
)
from .model import (
    LatticeState,
    Parameters,
    logistic,
    sample_linear_profiles,
    stationary_from_rho,
)

__all__ = ["CriterionResult", "run_criteria", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _params(fprime0: float = 1.0, d: float = 1.0) -> Parameters:
    return Parameters(1.0, 1.0, d, nonlinearity=logistic(fprime0))


@lru_cache(maxsize=1)
def _c_star():
    return compute_c_star(_params())


@lru_cache(maxsize=1)
def _c_inf():
    return compute_c_star_inf(_params())


@lru_cache(maxsize=1)
def _front_run():
    """Shared left-block experiment at (1,1,1,1): T=80, m=32, dt=1e-3."""
    t0 = time.perf_counter()
    cfg = SimulationConfig(T=80.0, dt=1e-3, m=32)
    traj = simulate(InitialData.left_block(), cfg, _params())
    return traj, time.perf_counter() - t0


@lru_cache(maxsize=1)
def _asym_run():
    t0 = time.perf_counter()
    cfg = SimulationConfig(T=60.0, dt=0.01, m=32, c_upper_guess=1.5 * _c_inf().c_star_inf)
    traj = simulate_asymptotic(InitialData.left_block(), cfg, _params())
    return traj, time.perf_counter() - t0


def criterion_1_edge_convergence():
    """Manufactured Robin solution: error drops >= 3.5x under (dx,dt) -> (dx/2,dt/4)."""
    p = _params()
    t0 = time.perf_counter()
    e32 = manufactured_solution_error(32, 1e-3, 0.1, p)
    e64 = manufactured_solution_error(64, 2.5e-4, 0.1, p)
    elapsed = time.perf_counter() - t0
    ratio = e32 / e64
    ok = math.isfinite(e32) and ratio >= 3.5 and elapsed < 1.0
    return ok, f"e32={e32:.3e} e64={e64:.3e} ratio={ratio:.2f} (>=3.5) runtime={elapsed:.2f}s (<1s)"


def criterion_2_mass_conservation():
    """f=0, left block, T=10: relative drift <= 1e-5, shrinking >= 3.5x when
    both steps halve."""
    p0 = _params(fprime0=0.0)
    t0 = time.perf_counter()
    tr1 = simulate(InitialData.left_block(), SimulationConfig(T=10.0, dt=1e-3, m=64, c_upper_guess=1.0), p0)
    d1 = float(np.max(np.abs(tr1.mass - tr1.mass[0])) / abs(tr1.mass[0]))
    tr2 = simulate(InitialData.left_block(), SimulationConfig(T=10.0, dt=5e-4, m=128, c_upper_guess=1.0), p0)
    d2 = float(np.max(np.abs(tr2.mass - tr2.mass[0])) / abs(tr2.mass[0]))
    elapsed = time.perf_counter() - t0
    ratio = d1 / d2 if d2 > 0 else math.inf
    ok = d1 <= 1e-5 and ratio >= 3.5 and elapsed < 30.0
    return ok, f"drift={d1:.3e} (<=1e-5) refined={d2:.3e} ratio={ratio:.2f} (>=3.5) runtime={elapsed:.1f}s (<30s)"


def criterion_3_steady_fixed_point():
    """Constant (beta/alpha, 1) is a per-step fixed point away from the
    absorbing window boundary: 1e-12 (full), 1e-13 (limit system)."""
    p = _params()
    n = 25
    rho = np.ones(n)
    edges = sample_linear_profiles(stationary_from_rho(rho, p), 32)
    s = LatticeState(-12, 12, rho, edges, 0.0)
    s1 = step_system(s, 1e-3, p)
    cut = 4
    dev_full = max(
        float(np.max(np.abs(s1.rho[cut:-cut] - 1.0))),
        float(np.max(np.abs(s1.edges[cut:-cut] - 1.0))),
    )
    sa = AsymptoticState(-12, 12, np.ones(n - 1), np.ones(n), 0.0)
    sa1 = step_asymptotic(sa, 0.01, p)
    dev_asym = max(
        float(np.max(np.abs(sa1.P[cut:-cut] - 1.0))),
        float(np.max(np.abs(sa1.V[cut:-cut] - 1.0))),
    )
    ok = dev_full <= 1e-12 and dev_asym <= 1e-13
    return ok, f"full={dev_full:.2e} (<=1e-12) asymptotic={dev_asym:.2e} (<=1e-13), interior vertices"


def criterion_4_dispersion_consistency():
    """|y(lambda0)-1| <= 1e-10; ansatz residual <= 1e-8; scan endpoints exceed c*."""
    t0 = time.perf_counter()
    p = _params()
    res = _c_star()
    y0 = dispersion_eval(res.lambda0, p).y
    resid = exponential_ansatz_residual(res.lambda_star, res.mu_star, p)
    ends = (res.scan.c[0] > res.c_star) and (res.scan.c[-1] > res.c_star)
    elapsed = time.perf_counter() - t0
    ok = abs(y0 - 1.0) <= 1e-10 and resid <= 1e-8 and ends and elapsed < 1.0
    return ok, (
        f"|y(l0)-1|={abs(y0-1.0):.2e} (<=1e-10) ansatz={resid:.2e} (<=1e-8) "
        f"endpoints_exceed={ends} runtime={elapsed:.2f}s (<1s)"
    )


def criterion_5_theory_vs_simulation():
    """Left block at (1,1,1,1), fit window [30,60]: measured within 5% of c*."""
    traj, elapsed = _front_run()
    c_star = _c_star().c_star
    trace = estimate_speed(traj, threshold=0.5, window_fraction=(30.0 / 80.0, 60.0 / 80.0))
    rel = abs(trace.fitted_speed - c_star) / c_star
    ok = rel <= 0.05 and elapsed <= 120.0 and not traj.contaminated
    return ok, (
        f"c_measured={trace.fitted_speed:.4f} c*={c_star:.4f} rel={rel:.4f} (<=0.05) "
        f"runtime={elapsed:.1f}s (<=120s)"
    )


def criterion_6_spreading_dichotomy():
    """Same run: occupancy beyond 1.2 c* t below 1e-3; within 0.8 c* t the
    state sits within 0.05 of (beta/alpha, 1) by T=80."""
    traj, _ = _front_run()
    c_star = _c_star().c_star
    occ = outer_occupancy(traj, c_star, factor=1.2)
    defi = inner_deficit(traj, _params(), c_star, factor=0.8)
    ok = occ < 1e-3 and defi <= 0.05
    return ok, f"outer_sup={occ:.2e} (<1e-3) inner_deficit={defi:.3f} (<=0.05)"


def criterion_7_asymptotic_speed():
    """Limit system at (1,1,1), T=60: measured speed within 3% of c*inf.

    The fit uses the last quarter of the run; the front position carries a
    logarithmic-in-time drag, so late windows estimate the asymptotic slope
    with less bias."""
    spd = _c_inf()
    traj, elapsed = _asym_run()
    trace = estimate_speed(traj, threshold=0.5, window_fraction=(0.75, 1.0))
    rel = abs(trace.fitted_speed - spd.c_star_inf) / spd.c_star_inf
    ok = (
        rel <= 0.03
        and spd.psi_residual <= 1e-8
        and spd.dpsi_dmu_residual <= 1e-8
        and elapsed < 10.0
    )
    return ok, (
        f"c_measured={trace.fitted_speed:.4f} c*inf={spd.c_star_inf:.4f} rel={rel:.4f} (<=0.03) "
        f"tangency=({spd.psi_residual:.1e},{spd.dpsi_dmu_residual:.1e}) runtime={elapsed:.1f}s (<10s)"
    )


def criterion_8_large_d_trend():
    """c*(d) strictly increasing over d in {1,10,100,1e4}; c*(1e4) within 2% of c*inf."""
    speeds = [compute_c_star(_params(d=d)).c_star for d in (1.0, 10.0, 100.0, 1e4)]
    increasing = all(a < b for a, b in zip(speeds, speeds[1:]))
    c_inf = _c_inf().c_star_inf
    gap = abs(speeds[-1] - c_inf) / c_inf
    ok = increasing and gap <= 0.02
    return ok, (
        "c*(d)=" + ",".join(f"{s:.5f}" for s in speeds)
        + f" increasing={increasing} gap_to_inf={gap:.2e} (<=0.02)"
    )


def criterion_9_large_d_convergence():
    """Full-vs-limit distance e(eps) strictly decreasing over eps in
    {1e-1,1e-2,1e-3} for matched left-block data, T=5."""
    t0 = time.perf_counter()
    rows = large_d_convergence_experiment(
        [1e-1, 1e-2, 1e-3], InitialData.left_block(), 5.0, _params()
    )
    elapsed = time.perf_counter() - t0
    errs = [err for _, err in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] <= 0.05 and elapsed < 120.0
    detail = " ".join(f"e({eps:g})={err:.2e}" for eps, err in rows)
    return ok, f"{detail} strictly_decreasing={decreasing} runtime={elapsed:.1f}s (<120s)"


def criterion_10_power_law():
    """ln c* vs ln f'(0) regression at (1,1,1): slope a1 in [0.48, 0.58]."""
    from .front_speed import loglog_fit

    rates = [0.25, 0.5, 1.0, 2.0, 4.0]
    speeds = [compute_c_star(_params(fprime0=r)).c_star for r in rates]
    fit = loglog_fit(rates, speeds)
    ok = 0.48 <= fit.a1 <= 0.58
    return ok, f"a1={fit.a1:.4f} (in [0.48,0.58]) a0={fit.a0:.4f} max_resid={fit.max_rel_residual:.2e}"


def _random_ordered_pair(rng, width: int = 11):
    """Two smooth ordered vertex profiles in [0, 1] on js = -5..5."""
    js = np.arange(width)
    base = np.zeros(width)
    bump = np.zeros(width)
    for k in (1, 2, 3):
        base += rng.uniform(0, 1) * (1.0 + np.cos(2 * math.pi * k * (js - width / 2) / width))
        bump += rng.uniform(0, 1) * (1.0 + np.cos(2 * math.pi * k * (js - width / 2) / width))
    base *= 0.55 / max(1e-9, base.max())
    bump *= 0.35 / max(1e-9, bump.max())
    lower = base
    upper = np.minimum(base + bump, 1.0)
    return lower, upper


def criterion_11_comparison_principle():
    """20 random ordered initial pairs, both systems, T=5: ordering preserved
    within 1e-10, positivity within -1e-12."""
    p = _params()
    rng = np.random.default_rng(20240707)
    # dt chosen so the explicit Crank-Nicolson half stays nonnegative
    # (monotone regime d dt / dx^2 <= 1).
    cfg_full = SimulationConfig(T=5.0, dt=2.5e-3, m=16, c_upper_guess=1.0, snapshot_stride=100)
    cfg_asym = SimulationConfig(T=5.0, dt=0.01, m=16, c_upper_guess=1.0, snapshot_stride=25)
    worst_order = 0.0
    worst_neg = 0.0
    for _ in range(20):
        lower, upper = _random_ordered_pair(rng)
        data_lo = InitialData.custom(lower, j_min=-5, edge_mode="stationary")
        data_hi = InitialData.custom(upper, j_min=-5, edge_mode="stationary")
        tr_lo = simulate(data_lo, cfg_full, p)
        tr_hi = simulate(data_hi, cfg_full, p)
        for a, b in zip(tr_lo.snapshots, tr_hi.snapshots):
            worst_order = max(worst_order, float(np.max(a.rho - b.rho)),
                              float(np.max(a.edges - b.edges)))
            worst_neg = min(worst_neg, float(np.min(a.rho)), float(np.min(a.edges)))
        ta_lo = simulate_asymptotic(data_lo, cfg_asym, p)
        ta_hi = simulate_asymptotic(data_hi, cfg_asym, p)
        for a, b in zip(ta_lo.snapshots, ta_hi.snapshots):
            worst_order = max(worst_order, float(np.max(a.P - b.P)),
                              float(np.max(a.V - b.V)))
            worst_neg = min(worst_neg, float(np.min(a.P)), float(np.min(a.V)))
    ok = worst_order <= 1e-10 and worst_neg >= -1e-12
    return ok, f"max_order_violation={worst_order:.2e} (<=1e-10) min_value={worst_neg:.2e} (>=-1e-12)"


def criterion_12_oracle_agreement():
    """Integral-equation oracle vs the Crank-Nicolson path on smooth
    compatible data at t=0.1: agreement within the 1e-3 quadrature budget."""
    p = _params()
    d, alpha = p.d, p.alpha

    def v0(x):
        x = np.asarray(x, dtype=float)
        return 0.4 + 0.15 * np.cos(math.pi * x) + 0.05 * np.cos(2 * math.pi * x)

    def v0p(x):
        x = np.asarray(x, dtype=float)
        return -0.15 * math.pi * np.sin(math.pi * x) - 0.1 * math.pi * np.sin(2 * math.pi * x)

    g0 = float(-d * v0p(0.0) + alpha * v0(0.0))
    h0 = float(d * v0p(1.0) + alpha * v0(1.0))
    g_fun = lambda t: g0 * np.exp(-0.5 * t)
    h_fun = lambda t: h0 * (1.0 + 0.3 * np.sin(2.0 * t))
    m, dt, T = 64, 2.5e-4, 0.1
    grid = np.arange(m + 1) / m
    edge = EdgeGrid(v0(grid))
    t = 0.0
    for _ in range(round(T / dt)):
        edge = step_edge(RobinStepInput(
            edge,
            (float(g_fun(t)), float(g_fun(t + dt))),
            (float(h_fun(t)), float(h_fun(t + dt))),
            dt, p,
        ))
        t += dt
    ts = np.arange(513) * (T / 512)
    gv, hv = g_fun(ts), h_fun(ts)
    worst = 0.0
    details = []
    for x in (0.0, 0.25, 0.5, 1.0):
        oracle = integral_representation_oracle(v0, gv, hv, T, x, p)
        cn = float(np.interp(x, grid, edge.values))
        diff = abs(oracle - cn)
        worst = max(worst, diff)
        details.append(f"x={x:g}:{diff:.1e}")
    ok = worst <= 1e-3
    return ok, "diffs " + " ".join(details) + f" max={worst:.2e} (<=1e-3)"


CRITERIA = [
    (1, "edge solver convergence", criterion_1_edge_convergence),
    (2, "mass conservation", criterion_2_mass_conservation),
    (3, "steady-state fixed point", criterion_3_steady_fixed_point),
    (4, "dispersion self-consistency", criterion_4_dispersion_consistency),
    (5, "theory vs simulation speed", criterion_5_theory_vs_simulation),
    (6, "spreading dichotomy", criterion_6_spreading_dichotomy),
    (7, "asymptotic-system speed", criterion_7_asymptotic_speed),
    (8, "large-d speed trend", criterion_8_large_d_trend),
    (9, "large-d convergence", criterion_9_large_d_convergence),
    (10, "power-law regression", criterion_10_power_law),
    (11, "comparison principle suite", criterion_11_comparison_principle),
    (12, "oracle agreement", criterion_12_oracle_agreement),
]


def run_criteria(only=None, quiet: bool = False) -> list[CriterionResult]:
    """Run the acceptance criteria (all, or the numbered subset) and print one
    pass/fail line each."""
    results = []
    for number, name, fun in CRITERIA:
        if only is not None and number not in only:
            continue
        try:
            passed, detail = fun()
        except Exception as exc:  # a crash is a failure with the reason attached
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CriterionResult(number, name, passed, detail)
        results.append(result)
        if not quiet:
            print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {name} -- {detail}")
    return results
