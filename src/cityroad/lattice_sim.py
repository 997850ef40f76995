"""Time integration of the coupled city-road system on a truncated window.

One step is an IMEX predictor-corrector: reaction and exchange terms advance
explicitly, edge diffusion implicitly (Crank-Nicolson), so each step costs one
product of all edge profiles with the precomputed dense propagator
(``kernels.advance_lattice``).  ``run_system`` is the one stepping loop, for
this system and its fast-diffusion limit (``asymptotic``) alike: each plugs in
its n-step advance, and the driver builds every ``LatticeState`` snapshot,
whose mass is ``total_mass``.  The infinite lattice is truncated to a window
sized from an upper speed guess, with absorbing (zero) exterior; a
contamination detector flags runs whose front reaches a window boundary that
started empty.  Mass bookkeeping adds the boundary outflux back
so the conservation identity of the reaction-free model stays testable on the
truncated window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dispersion, kernels
from .edge_solver import assemble_step_operator
from .model import (
    LatticeState,
    Parameters,
    sample_linear_profiles,
    stationary_from_rho,
    total_mass,
)

__all__ = [
    "BlowUpError",
    "InitialData",
    "SimulationConfig",
    "Trajectory",
    "init_state",
    "compatibility_residual",
    "check_dt",
    "run_system",
    "simulate",
    "stiffness_dt_cap",
]

# Additive slack allowed on the a-priori bounds: absolute on positivity,
# relative to max(1, initial maximum) on each upper bound.
_BOUND_TOL = 1e-9
_CONTAMINATION_FACTOR = 1e-8
# Empty vertices added on each side of the window beyond ceil(c_upper T).
_WINDOW_MARGIN = 4


class BlowUpError(RuntimeError):
    """Raised when the solution escapes the a-priori blow-up threshold."""


@dataclass(frozen=True)
class InitialData:
    """Initial data as arrays, realized on a window by ``init_state``: vertex
    densities ``rho_values`` from vertex ``j_min`` on and 0 elsewhere, or 1
    left of them when ``left_filled``; edges zero, or stationary-consistent
    with the vertices when ``stationary_edges``.  The window covers the whole
    vertex array, zero entries included.

    The vertex array must be 1-d, finite and nonnegative, and the data
    nontrivial: a positive entry, or the filled left half-line.

    Constructors: ``left_block`` (1 for j <= 0, empty edges), ``sine_bump``
    (one sine arch over vertices 1..n, stationary edges), ``point_mass`` (one
    loaded vertex) and ``custom`` (explicit vertex array, either edge kind).
    """

    rho_values: np.ndarray
    j_min: int = 0
    stationary_edges: bool = False
    left_filled: bool = False

    def __post_init__(self):
        rho = np.asarray(self.rho_values, dtype=float)
        if rho.ndim != 1 or len(rho) < 1:
            raise ValueError("initial data needs a 1-d vertex array")
        if not np.all(np.isfinite(rho)) or np.any(rho < 0):
            raise ValueError("initial vertex data must be finite and nonnegative")
        if not (self.left_filled or np.any(rho > 0)):
            raise ValueError("rejecting trivial data")

    @classmethod
    def left_block(cls) -> "InitialData":
        return cls(np.array([1.0]), 0, left_filled=True)

    @classmethod
    def sine_bump(cls, n: int, amplitude: float = 1.0) -> "InitialData":
        if n < 1:
            raise ValueError("sine bump needs n >= 1")
        if amplitude <= 0:
            raise ValueError("sine bump needs a positive amplitude")
        arch = amplitude * np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
        return cls(arch, 1, stationary_edges=True)

    @classmethod
    def point_mass(cls, j0: int, amplitude: float) -> "InitialData":
        if amplitude <= 0:
            raise ValueError("rejecting trivial data: point mass needs amplitude > 0")
        return cls(np.array([float(amplitude)]), j0)

    @classmethod
    def custom(cls, rho_values, j_min: int = 0,
               stationary_edges: bool = False) -> "InitialData":
        return cls(np.asarray(rho_values, dtype=float), j_min, stationary_edges)


@dataclass(frozen=True)
class SimulationConfig:
    """Run controls: final time, step, per-edge resolution, snapshot stride
    (0 = about 200 snapshots), and the speed bound used to size the window
    (None = 1.5x the computed spreading speed)."""

    T: float
    dt: float = 1e-3
    m: int = 32
    snapshot_stride: int = 0
    c_upper_guess: float | None = None

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError("T must be positive")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if self.m < 2:
            raise ValueError("need m >= 2")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot stride must be >= 0")
        c_up = self.c_upper_guess
        if c_up is not None and not (c_up > 0 and math.isfinite(c_up)):
            raise ValueError(f"c_upper_guess must be finite and positive, got {c_up}")


@dataclass(frozen=True)
class Trajectory:
    """``LatticeState`` snapshots with the leak-corrected mass series and the
    contamination flag; the limit system's snapshots hold one level per edge."""

    snapshots: tuple
    mass: np.ndarray
    contaminated: bool

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def final(self):
        return self.snapshots[-1]

    @property
    def mass_drift(self) -> float:
        """Largest relative departure of the mass series from its start."""
        return float(np.max(np.abs(self.mass - self.mass[0])) / abs(self.mass[0]))


def stiffness_dt_cap(p: Parameters) -> float:
    """Largest admissible step for the explicit reaction/exchange part."""
    return 0.1 / max(p.fprime0, 2.0 * p.beta, 2.0 * p.alpha)


def default_c_upper(p: Parameters, c_star: float | None = None) -> float:
    """Window-sizing speed bound: 1.5x the linear spreading speed (solved
    here unless ``c_star`` is given), or 1 when there is no reaction (purely
    diffusive spreading)."""
    if p.fprime0 > 0:
        if c_star is None:
            c_star = dispersion.compute_c_star(p).c_star
        return 1.5 * c_star
    return 1.0


def init_state(data: InitialData, cfg: SimulationConfig, p: Parameters) -> LatticeState:
    """Realize initial data on a window covering the whole vertex array plus
    ceil(c_upper * T) + _WINDOW_MARGIN vertices on each side."""
    c_up = cfg.c_upper_guess if cfg.c_upper_guess is not None else default_c_upper(p)
    reach = math.ceil(c_up * cfg.T) + _WINDOW_MARGIN
    n_data = len(data.rho_values)
    rho = np.zeros(n_data + 2 * reach)
    rho[reach : reach + n_data] = data.rho_values
    if data.left_filled:
        rho[:reach] = 1.0
    if data.stationary_edges:
        edges = sample_linear_profiles(stationary_from_rho(rho, p), cfg.m)
    else:
        edges = np.zeros((len(rho) - 1, cfg.m + 1))
    return LatticeState(data.j_min - reach, rho, edges, 0.0)


def compatibility_residual(state: LatticeState, p: Parameters) -> float:
    """Largest residual of the Robin compatibility relations at t = 0 over
    all edges: -d h'(0) + alpha h(0) - beta rho_j and d h'(1) + alpha h(1)
    - beta rho_{j+1}.  Reported, never enforced: the dynamics smooth an
    incompatible start instantly and the standard block data violates it.
    The one-sided derivatives need at least three samples per edge."""
    m = state.m
    if m < 2:
        raise ValueError(f"compatibility residual needs >= 3 samples per edge, got {m + 1}")
    dx = 1.0 / m
    h = state.edges
    dl = (-3.0 * h[:, 0] + 4.0 * h[:, 1] - h[:, 2]) / (2.0 * dx)
    dr = (3.0 * h[:, -1] - 4.0 * h[:, -2] + h[:, -3]) / (2.0 * dx)
    left = -p.d * dl + p.alpha * h[:, 0] - p.beta * state.rho[:-1]
    right = p.d * dr + p.alpha * h[:, -1] - p.beta * state.rho[1:]
    return float(max(np.max(np.abs(left)), np.max(np.abs(right))))


def check_dt(dt: float, p: Parameters) -> None:
    """Reject a step over the stiffness cap of the explicit part."""
    cap = stiffness_dt_cap(p)
    if dt > cap * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:g} exceeds the stiffness cap {cap:g}")


def run_system(cfg: SimulationConfig, p: Parameters, j_min: int, v, rho, advance,
               on_snapshot=None) -> Trajectory:
    """Step edges ``v`` and vertices ``rho`` on the window that starts at
    vertex ``j_min`` to time T with ``advance(v, rho, n) -> (v, rho, leak)``.
    Every stride steps (~200 snapshots by default) record the snapshot
    ``LatticeState(j_min, rho, v.reshape(len(v), -1), t)`` and its
    ``total_mass`` plus the accumulated leak: ``v`` is (n_edges, m+1) on the
    lattice, or one level per edge in the fast-diffusion limit, which gives
    its snapshots one sample per road.  Each snapshot's extremes are checked
    for blow-up (BlowUpError unless finite and within 10 max(beta/alpha, 1,
    max|rho0|, max|v0|) in size), then the a-priori bounds (values >= 0,
    vertices <= max(1, max rho0), edges <= max(beta/alpha, max v0), each to
    within _BOUND_TOL, relative to max(1, initial max) on the upper bounds);
    the snapshot is also checked for contamination: mass reaching a window
    end that started empty.  ``on_snapshot``, if given, is called with each
    snapshot once it is checked and recorded."""
    check_dt(cfg.dt, p)
    nsteps = round(cfg.T / cfg.dt)
    if nsteps < 1 or abs(nsteps * cfg.dt - cfg.T) > 1e-9 * cfg.T:
        raise ValueError("T must be a positive integer multiple of dt")
    stride = cfg.snapshot_stride or max(1, round(nsteps / 200))

    rho_max0, v_max0 = float(np.max(rho)), float(np.max(v))
    threshold = 10.0 * max(p.beta / p.alpha, 1.0, float(np.max(np.abs(rho))),
                           float(np.max(np.abs(v))))
    rho_hi = max(rho_max0, 1.0) + _BOUND_TOL * max(1.0, rho_max0)
    v_hi = max(v_max0, p.beta / p.alpha) + _BOUND_TOL * max(1.0, v_max0)
    ends = [end for end in (0, -1) if rho[end] == 0.0]

    snapshots, series = [], []
    leak, contaminated, done, t = 0.0, False, 0, 0.0
    while True:
        contaminated = contaminated or _snapshot_contaminated(rho, ends)
        snapshots.append(LatticeState(j_min, rho, v.reshape(len(v), -1), t))
        series.append(total_mass(snapshots[-1]) + leak)
        if on_snapshot is not None:
            on_snapshot(snapshots[-1])
        if done == nsteps:
            break
        chunk = min(stride, nsteps - done)
        v, rho, dleak = advance(v, rho, chunk)
        leak += dleak
        done += chunk
        t = done * cfg.dt
        extremes = rho_lo, rho_max, v_lo, v_max = rho.min(), rho.max(), v.min(), v.max()
        worst = float(np.max(np.abs(extremes)))  # unlike max(), keeps NaN
        if not math.isfinite(worst) or worst > threshold:
            raise BlowUpError(f"solution reached {worst:.3e} by t={t:g}, "
                              f"threshold {threshold:.3e}")
        lo = float(min(rho_lo, v_lo))
        if lo < -_BOUND_TOL:
            raise RuntimeError(f"positivity violated at t={t:g}: min value {lo:.3e}")
        if rho_max > rho_hi:
            raise RuntimeError(f"vertex bound violated at t={t:g}")
        if v_max > v_hi:
            raise RuntimeError(f"edge bound violated at t={t:g}")
    return Trajectory(snapshots=tuple(snapshots), mass=np.array(series),
                      contaminated=contaminated)


def simulate(data: InitialData, cfg: SimulationConfig, p: Parameters,
             on_snapshot=None) -> Trajectory:
    """Run the coupled system to time T: ``run_system`` with the IMEX step,
    looked up on ``kernels`` at each call; ``on_snapshot`` is passed on."""
    s0 = init_state(data, cfg, p)
    op = assemble_step_operator(cfg.m, cfg.dt, p)
    return run_system(
        cfg, p, s0.j_min, s0.edges, s0.rho,
        lambda v, rho, n: kernels.advance_lattice(
            v, rho, n, cfg.dt, p.alpha, p.beta, p.fprime0, op),
        on_snapshot=on_snapshot,
    )


def _snapshot_contaminated(rho: np.ndarray, ends) -> bool:
    peak = float(np.max(np.abs(rho)))
    limit = _CONTAMINATION_FACTOR * peak
    return peak > 0.0 and any(abs(rho[end]) > limit for end in ends)
