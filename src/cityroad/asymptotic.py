"""Large-diffusion limit: the pure-ODE lattice system and its spreading speed.

As the edge diffusivity grows, each road profile flattens and the coupled
system reduces to

    V_j' = -2 alpha V_j + beta (P_j + P_{j+1}),
    P_j' = f(P_j) + alpha (V_j + V_{j-1}) - 2 beta P_j,

whose exponential solutions satisfy Psi(c, mu) = 0 with

    DeltaInf(mu) = (2 alpha - 2 beta + f'(0))^2 + 8 alpha beta (1 + cosh mu),
    Psi(c, mu) = -(2 alpha + 2 beta - f'(0)) + sqrt(DeltaInf(mu)) - 2 mu c.

The limit speed is the minimum over mu > 0 of the positive root
c_plus(mu) = (-(2 alpha + 2 beta - f'(0)) + sqrt(DeltaInf)) / (2 mu).  This
module integrates the ODE lattice through the shared driver
``lattice_sim.run_system``, with one classical RK4 step per road level
(``kernels.advance_asym``) in place of the Crank-Nicolson edge update; its
snapshots are ``LatticeState``s whose roads hold one sample, the level V_j.
It also runs the matched convergence experiment against the full simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .lattice_sim import (
    InitialData,
    SimulationConfig,
    Trajectory,
    init_state,
    run_system,
    simulate,
)
from .model import Parameters

__all__ = [
    "AsymptoticSpeed",
    "AsymptoticDispersion",
    "asymptotic_dispersion_eval",
    "compute_c_star_inf",
    "simulate_asymptotic",
    "large_d_convergence_experiment",
]

# Geometric mu grid whose smallest c_plus starts Newton's method; a minimum on
# the scan endpoint widens the range tenfold each way, once.
_GRID_POINTS = 2000
_MU_RANGE = (1e-4, 50.0)
_NEWTON_ITERATIONS = 50


class AsymptoticDispersion(NamedTuple):
    psi: float
    delta_inf: float
    c_plus: float


@dataclass(frozen=True)
class AsymptoticSpeed:
    mu_star: float
    c_star_inf: float
    psi_residual: float
    dpsi_dmu_residual: float


def _delta_inf(cosh_mu, p: Parameters):
    """DeltaInf from cosh(mu); takes a float or an array."""
    alpha, beta, f0 = p.alpha, p.beta, p.fprime0
    return (2.0 * alpha - 2.0 * beta + f0) ** 2 + 8.0 * alpha * beta * (1.0 + cosh_mu)


def asymptotic_dispersion_eval(mu: float, c: float, p: Parameters) -> AsymptoticDispersion:
    """(Psi(c, mu), DeltaInf(mu), c_plus(mu)); c_plus is +inf at mu = 0."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    delta = _delta_inf(math.cosh(mu), p)
    root = -(2.0 * p.alpha + 2.0 * p.beta - p.fprime0) + math.sqrt(delta)
    psi = root - 2.0 * mu * c
    c_plus = root / (2.0 * mu) if mu > 0 else math.inf
    return AsymptoticDispersion(psi, delta, c_plus)


def compute_c_star_inf(p: Parameters) -> AsymptoticSpeed:
    """Minimize c_plus over mu > 0 (geometric grid, then Newton's method on
    the tangency condition) and verify Psi = 0 and dPsi/dmu = 0 at the optimum."""
    if p.fprime0 <= 0:
        raise ValueError("limit speed needs f'(0) > 0")
    ab4 = 4.0 * p.alpha * p.beta
    b_coef = 2.0 * p.alpha + 2.0 * p.beta - p.fprime0
    lo, hi = _MU_RANGE
    for _ in range(2):
        mus = np.geomspace(lo, hi, _GRID_POINTS)
        cs = (np.sqrt(_delta_inf(np.cosh(mus), p)) - b_coef) / (2.0 * mus)
        i_min = int(np.argmin(cs))
        if 0 < i_min < len(mus) - 1:
            break
        lo /= 10.0
        hi *= 10.0
    else:
        raise RuntimeError("limit-speed minimum stuck at the scan endpoint")
    # Newton's method on g(mu) = mu root' - root, increasing as g' = mu root'' > 0;
    # with D = DeltaInf, root' = 4ab sinh / sqrt(D), root'' = 4ab / sqrt(D) (cosh - 4ab sinh^2 / D)
    mu_star = float(mus[i_min])
    for _ in range(_NEWTON_ITERATIONS):
        ch, sh = math.cosh(mu_star), math.sinh(mu_star)
        sq = math.sqrt(_delta_inf(ch, p))
        g = mu_star * ab4 * sh / sq - (sq - b_coef)
        g_prime = mu_star * ab4 / sq * (ch - ab4 * sh * sh / (sq * sq))
        mu_star, previous = min(max(mu_star - g / g_prime, 0.5 * mu_star), 2.0 * mu_star), mu_star
        if abs(mu_star - previous) <= 4.0 * np.finfo(float).eps * previous:
            break
    c_inf = asymptotic_dispersion_eval(mu_star, 0.0, p).c_plus
    psi_res = abs(asymptotic_dispersion_eval(mu_star, c_inf, p).psi)
    dpsi_res = abs(ab4 * math.sinh(mu_star) / math.sqrt(_delta_inf(math.cosh(mu_star), p))
                   - 2.0 * c_inf)
    if psi_res > 1e-10:
        raise RuntimeError(f"tangency residual |Psi| = {psi_res:.3e} exceeds 1e-10")
    if dpsi_res > 1e-8:
        raise RuntimeError(f"tangency residual |dPsi/dmu| = {dpsi_res:.3e} exceeds 1e-8")
    return AsymptoticSpeed(float(mu_star), float(c_inf), psi_res, dpsi_res)


def simulate_asymptotic(data: InitialData, cfg: SimulationConfig, p: Parameters,
                        on_snapshot=None) -> Trajectory:
    """Integrate the limit system to time T: ``lattice_sim.run_system`` with
    the RK4 step, looked up on ``kernels`` at each call; the driver's
    snapshots hold P and one level V_j per road (an (n_edges, 1) array), so
    their ``total_mass`` is P + V.  ``on_snapshot`` is passed on.

    Matched initialization: P from the vertex data; V from the limit
    relation V_j = beta/(2 alpha) (P_j + P_{j+1}) when the edges are
    stationary-consistent, else zero (the mean of the zero edges).  The
    outflux is integrated inside the RK4 stages, so the reaction-free total
    is conserved to roundoff."""
    s0 = init_state(data, cfg, p)
    P = s0.rho.copy()
    if data.stationary_edges:
        V = p.beta / (2.0 * p.alpha) * (P[:-1] + P[1:])
    else:
        V = np.zeros(len(P) - 1)
    return run_system(
        cfg, p, s0.j_min, V, P,
        lambda V, P, n: kernels.advance_asym(V, P, n, cfg.dt, p.alpha, p.beta, p.fprime0),
        on_snapshot=on_snapshot,
    )


def large_d_convergence_experiment(
    eps_list,
    data: InitialData,
    T: float,
    p: Parameters,
    m: int = 32,
    dt: float = 1e-3,
) -> list[tuple[float, float]]:
    """Sup-distance between the full system at d = 1/eps and the limit system
    from matched data, per eps.

    Both runs share one window and snapshot grid; the error is the max over
    snapshot times in [1, T], central vertices |j| <= window/4, and the edge
    x-grid, of |v - V| and |rho - P|.  Transients before t = 1 are excluded
    (the edge profiles need an O(eps) relaxation time to flatten).
    """
    if T <= 1.0:
        raise ValueError("need T > 1: errors are measured on [1, T]")
    c_inf = compute_c_star_inf(p).c_star_inf
    cfg = SimulationConfig(
        T=T, dt=dt, m=m, c_upper_guess=1.5 * c_inf, snapshot_stride=max(1, round(T / dt / 100))
    )
    ref = simulate_asymptotic(data, cfg, p)
    quarter = (ref.final.j_max - ref.final.j_min) // 4
    js = ref.final.js
    central_v = np.abs(js) <= quarter
    central_e = central_v[:-1] & central_v[1:]
    rows: list[tuple[float, float]] = []
    for eps in eps_list:
        if not (0 < eps):
            raise ValueError("eps must be positive")
        p_eps = replace(p, d=1.0 / eps)
        full = simulate(data, cfg, p_eps)
        err = 0.0
        for s_full, s_lim in zip(full.snapshots, ref.snapshots):
            if s_full.time < 1.0:
                continue
            err = max(err, float(np.max(np.abs(s_full.rho[central_v] - s_lim.rho[central_v]))))
            diff = np.abs(s_full.edges[central_e] - s_lim.edges[central_e])
            err = max(err, float(np.max(diff)))
        rows.append((float(eps), err))
    return rows
