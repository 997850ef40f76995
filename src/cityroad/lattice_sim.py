"""Time integration of the coupled city-road system on a truncated window.

One step is an IMEX predictor-corrector: reaction and exchange terms advance
explicitly, edge diffusion implicitly (Crank-Nicolson), so each step costs one
product of all edge profiles with the precomputed dense propagator
(``kernels.advance_lattice``).  ``run_system`` is the one stepping loop, for
this system and its fast-diffusion limit (``asymptotic``) alike: each plugs in
its n-step advance, snapshot type and in-window mass.  The infinite lattice is
truncated to a window sized from an upper speed guess, with absorbing (zero)
exterior; a contamination detector flags runs whose front reaches a window
boundary that started empty.  Mass bookkeeping adds the boundary outflux back
so the conservation identity of the reaction-free model stays testable on the
truncated window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "CompatibilityReport",
    "init_state",
    "compatibility_residuals",
    "step_system",
    "check_dt",
    "check_blow_up",
    "run_system",
    "simulate",
    "check_long_time_convergence",
    "stiffness_dt_cap",
]

# Additive slack allowed on the a-priori bounds: absolute on positivity,
# relative to max(1, initial maximum) on each upper bound.
_BOUND_TOL = 1e-9
_CONTAMINATION_FACTOR = 1e-8


class BlowUpError(RuntimeError):
    """Raised when the solution escapes the a-priori blow-up threshold."""


@dataclass(frozen=True)
class InitialData:
    """Initial vertex/edge data described symbolically; realized by init_state.

    Kinds: ``left_block`` (vertices 1 for j <= 0, empty edges), ``sine_bump``
    (one sine arch over n vertices with stationary-consistent edges),
    ``point_mass`` (a single loaded vertex), and ``custom`` (explicit vertex
    array, with zero, flat per-edge, or stationary-consistent edges).
    """

    kind: str
    n: int = 0
    amplitude: float = 1.0
    j0: int = 0
    rho_values: np.ndarray | None = None
    rho_j_min: int = 0
    edge_mode: str = "zero"  # zero | stationary | flat
    edge_values: np.ndarray | None = None

    @classmethod
    def left_block(cls) -> "InitialData":
        return cls(kind="left_block")

    @classmethod
    def sine_bump(cls, n: int, amplitude: float = 1.0) -> "InitialData":
        if n < 1:
            raise ValueError("sine bump needs n >= 1")
        if amplitude <= 0:
            raise ValueError("sine bump needs a positive amplitude")
        return cls(kind="sine_bump", n=n, amplitude=amplitude, edge_mode="stationary")

    @classmethod
    def point_mass(cls, j0: int, amplitude: float) -> "InitialData":
        if amplitude <= 0:
            raise ValueError("rejecting trivial data: point mass needs amplitude > 0")
        return cls(kind="point_mass", j0=j0, amplitude=amplitude)

    @classmethod
    def custom(cls, rho_values, j_min: int = 0, edge_mode: str = "zero",
               edge_values=None) -> "InitialData":
        rho = np.asarray(rho_values, dtype=float)
        if rho.ndim != 1 or len(rho) < 1:
            raise ValueError("custom data needs a 1-d vertex array")
        if not np.all(np.isfinite(rho)) or np.any(rho < 0):
            raise ValueError("custom data must be finite and nonnegative")
        if not np.any(rho > 0) and edge_values is None:
            raise ValueError("rejecting trivial data")
        if edge_mode not in ("zero", "stationary", "flat"):
            raise ValueError(f"unknown edge mode {edge_mode!r}")
        ev = None
        if edge_mode == "flat":
            if edge_values is None:
                raise ValueError("flat edge mode needs per-edge values")
            ev = np.asarray(edge_values, dtype=float)
            if len(ev) != len(rho) - 1:
                raise ValueError("need one flat edge value per edge")
            if not np.all(np.isfinite(ev)) or np.any(ev < 0):
                raise ValueError("edge values must be finite and nonnegative")
        return cls(kind="custom", rho_values=rho, rho_j_min=j_min,
                   edge_mode=edge_mode, edge_values=ev)

    def support(self) -> tuple[int, int]:
        """Vertex index range carrying data (left_block extends to -inf and
        reports its right end twice)."""
        if self.kind == "left_block":
            return (0, 0)
        if self.kind == "sine_bump":
            return (1, self.n)
        if self.kind == "point_mass":
            return (self.j0, self.j0)
        nz = np.nonzero(self.rho_values)[0]
        if len(nz) == 0:
            return (self.rho_j_min, self.rho_j_min + len(self.rho_values) - 1)
        return (self.rho_j_min + int(nz[0]), self.rho_j_min + int(nz[-1]))

    @property
    def occupies_left_boundary(self) -> bool:
        return self.kind == "left_block"


@dataclass(frozen=True)
class SimulationConfig:
    """Run controls: final time, step, per-edge resolution, window margin,
    snapshot stride (0 = about 200 snapshots), and the speed bound used to
    size the window (None = 1.5x the computed spreading speed)."""

    T: float
    dt: float = 1e-3
    m: int = 32
    window_margin: int = 4
    snapshot_stride: int = 0
    c_upper_guess: float | None = None

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError("T must be positive")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if self.m < 2:
            raise ValueError("need m >= 2")
        if self.window_margin < 4:
            raise ValueError("window margin must be >= 4")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot stride must be >= 0")
        c_up = self.c_upper_guess
        if c_up is not None and not (c_up > 0 and math.isfinite(c_up)):
            raise ValueError(f"c_upper_guess must be finite and positive, got {c_up}")


@dataclass(frozen=True)
class Trajectory:
    """Snapshot sequence with leak-corrected mass series and run diagnostics;
    the limit system's snapshots are ``AsymptoticState``s, its compatibility
    residual 0 (it has no Robin condition)."""

    snapshots: tuple
    mass: np.ndarray
    config: SimulationConfig
    params: Parameters
    contaminated: bool
    compat_max_residual: float

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def final(self):
        return self.snapshots[-1]


class CompatibilityReport(NamedTuple):
    left: np.ndarray
    right: np.ndarray

    @property
    def max_residual(self) -> float:
        if len(self.left) == 0:
            return 0.0
        return float(max(np.max(np.abs(self.left)), np.max(np.abs(self.right))))


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
    """Realize initial data on a window covering its support plus
    ceil(c_upper * T) + margin vertices on each side."""
    p.require_unit_length()
    c_up = cfg.c_upper_guess if cfg.c_upper_guess is not None else default_c_upper(p)
    reach = math.ceil(c_up * cfg.T) + cfg.window_margin
    lo, hi = data.support()
    j_min, j_max = lo - reach, hi + reach
    n_v = j_max - j_min + 1
    js = np.arange(j_min, j_max + 1)
    rho = np.zeros(n_v)
    if data.kind == "left_block":
        rho[js <= 0] = 1.0
    elif data.kind == "sine_bump":
        inside = (js >= 1) & (js <= data.n)
        rho[inside] = data.amplitude * np.sin(js[inside] * math.pi / (data.n + 1))
    elif data.kind == "point_mass":
        rho[js == data.j0] = data.amplitude
    else:
        k0 = data.rho_j_min - j_min
        rho[k0 : k0 + len(data.rho_values)] = data.rho_values
    if not np.all(np.isfinite(rho)) or np.any(rho < 0):
        raise ValueError("initial vertex data must be finite and nonnegative")
    edges = np.zeros((n_v - 1, cfg.m + 1))
    if data.edge_mode == "stationary":
        edges = sample_linear_profiles(stationary_from_rho(rho, p), cfg.m)
    elif data.edge_mode == "flat":
        k0 = data.rho_j_min - j_min
        edges[k0 : k0 + len(data.edge_values)] = data.edge_values[:, None]
    if not np.any(rho > 0) and not np.any(edges > 0):
        raise ValueError("rejecting trivial data")
    return LatticeState(j_min, j_max, rho, edges, 0.0)


def compatibility_residuals(state: LatticeState, p: Parameters) -> CompatibilityReport:
    """Residuals of the Robin compatibility relations at t = 0, one pair per
    edge: -d h'(0) + alpha h(0) - beta rho_j and d h'(1) + alpha h(1)
    - beta rho_{j+1}.  Reported, never enforced: the dynamics smooth an
    incompatible start instantly and the standard block data violates it."""
    m = state.m
    dx = 1.0 / m
    h = state.edges
    dl = (-3.0 * h[:, 0] + 4.0 * h[:, 1] - h[:, 2]) / (2.0 * dx)
    dr = (3.0 * h[:, -1] - 4.0 * h[:, -2] + h[:, -3]) / (2.0 * dx)
    left = -p.d * dl + p.alpha * h[:, 0] - p.beta * state.rho[:-1]
    right = p.d * dr + p.alpha * h[:, -1] - p.beta * state.rho[1:]
    return CompatibilityReport(left, right)


def check_dt(dt: float, p: Parameters) -> None:
    """Reject a step over the stiffness cap of the explicit part."""
    cap = stiffness_dt_cap(p)
    if dt > cap * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:g} exceeds the stiffness cap {cap:g}")


def check_blow_up(p: Parameters, v0, rho0, v, rho, t: float) -> None:
    """Raise BlowUpError unless edges ``v`` and vertices ``rho`` at time t are
    finite and within 10 max(beta/alpha, 1, |v0|, |rho0|), the scale of the
    state (v0, rho0) they were advanced from."""
    threshold = 10.0 * max(p.beta / p.alpha, 1.0, float(np.max(np.abs(rho0))),
                           float(np.max(np.abs(v0))))
    worst = max(float(np.max(np.abs(rho))), float(np.max(np.abs(v))))
    if not math.isfinite(worst) or worst > threshold:
        raise BlowUpError(f"solution reached {worst:.3e} by t={t:g}, threshold {threshold:.3e}")


def step_system(s: LatticeState, dt: float, p: Parameters) -> LatticeState:
    """Advance the full coupled system by one IMEX predictor-corrector step
    (``kernels.advance_lattice``), formally second order in dt, and check it
    against the blow-up threshold."""
    p.require_unit_length()
    op = assemble_step_operator(s.m, dt, p)
    v, rho, _ = kernels.advance_lattice(
        s.edges, s.rho, 1, dt, p.alpha, p.beta, p.fprime0, op
    )
    check_blow_up(p, s.edges, s.rho, v, rho, s.time + dt)
    return LatticeState(s.j_min, s.j_max, rho, v, s.time + dt)


def run_system(data: InitialData, cfg: SimulationConfig, p: Parameters, v, rho,
               advance, snapshot, mass, compat: float = 0.0,
               on_snapshot=None) -> Trajectory:
    """Step edges ``v`` and vertices ``rho`` (realized from ``data``) to time
    T with ``advance(v, rho, n) -> (v, rho, leak)``, recording
    ``snapshot(v, rho, t)`` every stride steps (~200 snapshots by default)
    and ``mass(snapshot)`` plus the accumulated leak.  Each snapshot is
    checked for blow-up, contamination and the a-priori bounds: values >= 0,
    vertices <= max(1, max rho0), edges <= max(beta/alpha, max v0), each to
    within _BOUND_TOL (relative to max(1, initial max) on the upper bounds).
    ``on_snapshot``, if given, is called with each snapshot once it is
    checked and recorded."""
    check_dt(cfg.dt, p)
    nsteps = round(cfg.T / cfg.dt)
    if nsteps < 1 or abs(nsteps * cfg.dt - cfg.T) > 1e-9 * cfg.T:
        raise ValueError("T must be a positive integer multiple of dt")
    stride = cfg.snapshot_stride or max(1, round(nsteps / 200))

    v0, rho0 = v, rho
    rho_max0, v_max0 = float(np.max(rho)), float(np.max(v))
    rho_hi = max(rho_max0, 1.0) + _BOUND_TOL * max(1.0, rho_max0)
    v_hi = max(v_max0, p.beta / p.alpha) + _BOUND_TOL * max(1.0, v_max0)
    check_left = not data.occupies_left_boundary

    snapshots = [snapshot(v, rho, 0.0)]
    series = [mass(snapshots[0])]
    if on_snapshot is not None:
        on_snapshot(snapshots[0])
    leak = 0.0
    contaminated = _snapshot_contaminated(rho, check_left)
    done = 0
    while done < nsteps:
        chunk = min(stride, nsteps - done)
        v, rho, dleak = advance(v, rho, chunk)
        leak += dleak
        done += chunk
        t = done * cfg.dt
        check_blow_up(p, v0, rho0, v, rho, t)
        lo = min(float(np.min(rho)), float(np.min(v)))
        if lo < -_BOUND_TOL:
            raise RuntimeError(f"positivity violated at t={t:g}: min value {lo:.3e}")
        if float(np.max(rho)) > rho_hi:
            raise RuntimeError(f"vertex bound violated at t={t:g}")
        if float(np.max(v)) > v_hi:
            raise RuntimeError(f"edge bound violated at t={t:g}")
        contaminated = contaminated or _snapshot_contaminated(rho, check_left)
        snapshots.append(snapshot(v, rho, t))
        series.append(mass(snapshots[-1]) + leak)
        if on_snapshot is not None:
            on_snapshot(snapshots[-1])
    return Trajectory(
        snapshots=tuple(snapshots),
        mass=np.array(series),
        config=cfg,
        params=p,
        contaminated=contaminated,
        compat_max_residual=compat,
    )


def simulate(data: InitialData, cfg: SimulationConfig, p: Parameters,
             on_snapshot=None) -> Trajectory:
    """Run the coupled system to time T: ``run_system`` with the IMEX step,
    looked up on ``kernels`` at each call; ``on_snapshot`` is passed on."""
    p.require_unit_length()
    s0 = init_state(data, cfg, p)
    op = assemble_step_operator(cfg.m, cfg.dt, p)
    return run_system(
        data, cfg, p, s0.edges, s0.rho,
        lambda v, rho, n: kernels.advance_lattice(
            v, rho, n, cfg.dt, p.alpha, p.beta, p.fprime0, op),
        lambda v, rho, t: LatticeState(s0.j_min, s0.j_max, rho, v, t),
        total_mass, compat=compatibility_residuals(s0, p).max_residual,
        on_snapshot=on_snapshot,
    )


def _snapshot_contaminated(rho: np.ndarray, check_left: bool) -> bool:
    peak = float(np.max(np.abs(rho)))
    if peak == 0.0:
        return False
    limit = _CONTAMINATION_FACTOR * peak
    if abs(rho[-1]) > limit:
        return True
    return check_left and abs(rho[0]) > limit


def check_long_time_convergence(traj: Trajectory, p: Parameters) -> float:
    """Deviation from the invaded state on the central quarter of the window:
    max of |rho - 1| over central vertices and |v - beta/alpha| over central
    edges at the final time."""
    final = traj.final
    quarter = (final.j_max - final.j_min) // 4
    js = final.js
    central_v = np.abs(js) <= quarter
    if not np.any(central_v):
        raise ValueError("window has no central vertices")
    dev_rho = float(np.max(np.abs(final.rho[central_v] - 1.0)))
    ej = js[:-1]
    central_e = (np.abs(ej) <= quarter) & (np.abs(ej + 1) <= quarter)
    dev_v = 0.0
    if np.any(central_e):
        dev_v = float(np.max(np.abs(final.edges[central_e] - p.beta / p.alpha)))
    return max(dev_rho, dev_v)
