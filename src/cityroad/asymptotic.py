"""Large-diffusion limit: the pure-ODE lattice system and its spreading speed.

As the edge diffusivity grows, each road profile flattens and the coupled
system reduces to

    V_j' = -2 alpha V_j + beta (P_j + P_{j+1}),
    P_j' = f(P_j) + alpha (V_j + V_{j-1}) - 2 beta P_j,

whose exponential solutions satisfy Psi(c, mu) = 0 with

    DeltaInf(mu) = (2 alpha - 2 beta + f'(0))^2 + 8 alpha beta (1 + cosh mu),
    Psi(c, mu) = -(2 alpha + 2 beta - f'(0)) + sqrt(DeltaInf(mu)) - 2 mu c.

The limit speed is the unique minimum over mu > 0 of the positive root
c_plus(mu) = root(mu) / (2 mu), root = sqrt(DeltaInf) - (2 alpha + 2 beta -
f'(0)), found at the tangency by the bracketed root finder that also gives
c*'s threshold (``dispersion._bracketed_root``), with the root formed
without cancellation.  This module integrates the ODE lattice through the
shared driver ``lattice_sim.run_system``, with one classical RK4
step per road level (``kernels.advance_asym``) in place of the Crank-Nicolson
edge update, at its own step (``limit_dt``) when the CLI picks the step; its
snapshots are ``LatticeState``s whose roads hold one sample, the level V_j.
It also runs the matched convergence experiment against the full simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import dispersion, kernels
from .lattice_sim import (
    InitialData,
    SimulationConfig,
    Trajectory,
    init_state,
    run_system,
    simulate,
    stiffness_dt_cap,
)
from .model import Parameters

__all__ = [
    "AsymptoticSpeed",
    "AsymptoticDispersion",
    "asymptotic_dispersion_eval",
    "compute_c_star_inf",
    "limit_dt",
    "simulate_asymptotic",
    "large_d_convergence_experiment",
]

class AsymptoticDispersion(NamedTuple):
    psi: float
    delta_inf: float
    c_plus: float


@dataclass(frozen=True)
class AsymptoticSpeed:
    mu_star: float
    c_star_inf: float
    tangency_bracket: tuple[float, float]  # g at the ends of the final mu bracket
    dpsi_dmu_residual: float  # |dPsi/dmu| relative to its term root'(mu*)


def _delta_inf(mu: float, p: Parameters) -> float:
    """DeltaInf at mu; one that overflows or underflows to 0 is rejected by
    name."""
    alpha, beta, f0 = p.alpha, p.beta, p.fprime0
    try:
        delta = (2.0 * alpha - 2.0 * beta + f0) ** 2 + 8.0 * alpha * beta * (1.0 + math.cosh(mu))
    except OverflowError:  # raised by ** and cosh; a product overflows to inf instead
        delta = math.inf
    if not 0.0 < delta < math.inf:
        raise ValueError(f"DeltaInf {'underflows' if delta == 0.0 else 'overflows'} at "
                         f"mu = {mu:.3e}: inadmissible parameters")
    return delta


def _root(mu: float, sq: float, p: Parameters) -> float:
    """root(mu) = sq - b from sq = sqrt(DeltaInf(mu)), b = 2 alpha + 2 beta - f'(0).
    For b > 0 that difference cancels, so it is formed as
    8 alpha (f'(0) + 2 beta sinh^2(mu/2)) / (sq + b), since
    DeltaInf - b^2 = 8 alpha (f'(0) + 2 beta sinh^2(mu/2))."""
    b = 2.0 * p.alpha + 2.0 * p.beta - p.fprime0
    if b <= 0.0:
        return sq - b
    sh = math.sinh(0.5 * mu)
    return 8.0 * p.alpha * (p.fprime0 + 2.0 * p.beta * sh * sh) / (sq + b)


def asymptotic_dispersion_eval(mu: float, c: float, p: Parameters) -> AsymptoticDispersion:
    """(Psi(c, mu), DeltaInf(mu), c_plus(mu)); c_plus is +inf at mu = 0."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    delta = _delta_inf(mu, p)
    root = _root(mu, math.sqrt(delta), p)
    psi = root - 2.0 * mu * c
    c_plus = root / (2.0 * mu) if mu > 0 else math.inf
    return AsymptoticDispersion(psi, delta, c_plus)


def _tangency(mu: float, p: Parameters):
    """g(mu) = mu root' - root and root' = 4ab sinh / sqrt(DeltaInf)."""
    ab4 = 4.0 * p.alpha * p.beta
    sq = math.sqrt(_delta_inf(mu, p))
    slope = ab4 * math.sinh(mu) / sq
    return mu * slope - _root(mu, sq, p), slope


def compute_c_star_inf(p: Parameters) -> AsymptoticSpeed:
    """Minimize c_plus over mu > 0 at the root of g(mu) = mu root' - root:
    c_plus' = g / (2 mu^2), and g rises (g' = mu root'' > 0) from g(0) < 0.
    The root is dispersion._bracketed_root's, as for the threshold of c*;
    its bracket g(mu_a) <= 0 < g(mu_b) is the certificate, and dPsi/dmu =
    root' - 2 c_inf is checked relative to root' at the end with the
    smaller |g|."""
    if p.fprime0 <= 0:
        raise ValueError("limit speed needs f'(0) > 0")
    mu_star, a, b, g_a, g_b = dispersion._bracketed_root(lambda mu: _tangency(mu, p)[0])
    if not g_a <= 0.0 < g_b:
        raise RuntimeError(f"tangency bracket lost its sign change: g = ({g_a:.3e}, {g_b:.3e}) "
                           f"at mu = ({a:.3e}, {b:.3e})")
    c_inf = asymptotic_dispersion_eval(mu_star, 0.0, p).c_plus
    slope = _tangency(mu_star, p)[1]
    dpsi_res = abs(slope - 2.0 * c_inf) / slope
    if not dpsi_res <= 1e-8:
        raise RuntimeError(f"tangency residual |dPsi/dmu| / root' = {dpsi_res:.3e} exceeds 1e-8")
    return AsymptoticSpeed(mu_star, c_inf, (g_a, g_b), dpsi_res)


def limit_dt(T: float, p: Parameters) -> float:
    """The limit system's own RK4 step to time T: T / n, n the smallest
    multiple of 200 with T / n <= stiffness_dt_cap(p) / 5 (201 snapshots at
    the default stride, exact under time rescaling, 0.01 at the defaults with
    an RK4 error of about 5e-9), or the lattice's ``SimulationConfig.dt``
    where that is finer: no run takes more steps than on the lattice's step,
    and a rate past the stiffness cap or a T too long is refused by
    ``run_system`` as there."""
    cap = stiffness_dt_cap(p) / 5.0
    if not (cap > SimulationConfig.dt and T / cap < math.inf):
        return SimulationConfig.dt
    k = max(1, math.ceil(T / cap / 200) - 1)  # a rounded quotient's ceiling may be one off
    while T / (200 * k) > cap:
        k += 1
    return max(T / (200 * k), SimulationConfig.dt)


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
