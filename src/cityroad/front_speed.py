"""Front tracking: realized spreading speed from trajectories.

The front position at one time is the interpolated lattice coordinate of the
rightmost downward crossing of a density threshold; its least-squares slope
over the late part of the run is the measured speed to compare against the
dispersion predictions.  Only the rightward front is tracked: the model is
mirror-symmetric, so a leftward front moves at the same speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "NoCrossingError",
    "FrontTrace",
    "level_position",
    "estimate_speed",
    "loglog_fit",
    "LogLogFit",
    "outer_occupancy",
    "inner_deficit",
]

# A fit residual above this many lattice units flags a non-ballistic front.
_BALLISTIC_RESIDUAL = 0.5


class NoCrossingError(RuntimeError):
    """The density never crosses the threshold: no front formed, or it left
    the window."""


@dataclass(frozen=True)
class FrontTrace:
    """Tracked front positions with the fitted speed over the fit window."""

    times: np.ndarray
    positions: np.ndarray
    threshold: float
    fitted_speed: float
    fit_intercept: float
    fit_residual: float
    fit_window: tuple[float, float]

    @property
    def ballistic(self) -> bool:
        return self.fit_residual <= _BALLISTIC_RESIDUAL


def level_position(rho: Sequence[float], threshold: float) -> float:
    """Interpolated index of the rightmost crossing rho_j >= thr > rho_{j+1}.

    Returns j + (rho_j - thr) / (rho_j - rho_{j+1}) in units of the sequence
    index; callers add their window offset.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    rho = np.asarray(rho, dtype=float)
    above = rho[:-1] >= threshold
    below = rho[1:] < threshold
    hits = np.nonzero(above & below)[0]
    if len(hits) == 0:
        raise NoCrossingError("no downward threshold crossing in the sequence")
    j = int(hits[-1])
    return j + (rho[j] - threshold) / (rho[j] - rho[j + 1])


def estimate_speed(
    traj,
    threshold: float = 0.5,
    window_fraction: tuple[float, float] = (0.5, 1.0),
) -> FrontTrace:
    """Least-squares speed of the rightward front over the fractional time
    window.

    Works on a trajectory of either system (``LatticeState`` snapshots); by
    the model's mirror symmetry a leftward front has the same speed.
    """
    lo_f, hi_f = window_fraction
    if not (0.0 <= lo_f < hi_f <= 1.0):
        raise ValueError("window fractions must satisfy 0 <= lo < hi <= 1")
    snaps = traj.snapshots
    t_final = snaps[-1].time
    t_lo, t_hi = lo_f * t_final, hi_f * t_final
    times = []
    positions = []
    for s in snaps:
        if not (t_lo <= s.time <= t_hi):
            continue
        times.append(s.time)
        positions.append(s.j_min + level_position(s.rho, threshold))
    if len(times) < 10:
        raise ValueError("fit window holds fewer than 10 snapshots")
    times = np.array(times)
    positions = np.array(positions)
    slope, intercept = np.polyfit(times, positions, 1)
    residual = float(np.max(np.abs(slope * times + intercept - positions)))
    return FrontTrace(
        times=times,
        positions=positions,
        threshold=threshold,
        fitted_speed=float(slope),
        fit_intercept=float(intercept),
        fit_residual=residual,
        fit_window=(t_lo, t_hi),
    )


class LogLogFit(NamedTuple):
    a1: float
    a0: float
    max_rel_residual: float


def loglog_fit(fprime0_values, speeds) -> LogLogFit:
    """OLS of ln(speed) against ln(f'(0)); the residual is already relative
    since it lives in log space."""
    x = np.asarray(fprime0_values, dtype=float)
    y = np.asarray(speeds, dtype=float)
    if len(x) != len(y) or len(x) < 4:
        raise ValueError("need at least 4 matching points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive values")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate fit: all abscissae identical")
    lx, ly = np.log(x), np.log(y)
    a1, a0 = np.polyfit(lx, ly, 1)
    res = float(np.max(np.abs(a1 * lx + a0 - ly)))
    return LogLogFit(float(a1), float(a0), res)


def outer_occupancy(traj, speed: float, factor: float = 1.2) -> float:
    """Sup of vertex and edge values over |j| >= factor * speed * t at the
    final time.  Only the sides whose window boundary started empty are
    scanned, so block data occupying one half-line checks its front side only.
    """
    final = traj.snapshots[-1]
    cutoff = factor * speed * final.time
    js = np.arange(final.j_min, final.j_max + 1)
    rho0 = traj.snapshots[0].rho
    mask = np.zeros(len(js), dtype=bool)
    if rho0[-1] == 0.0:
        mask |= js >= cutoff
    if rho0[0] == 0.0:
        mask |= js <= -cutoff
    if not np.any(mask):
        raise ValueError("outer region is empty; enlarge the window or lower T")
    sup = float(np.max(final.rho[mask]))
    edge_mask = mask[:-1] & mask[1:]
    if np.any(edge_mask):
        sup = max(sup, float(np.max(final.edges[edge_mask])))
    return sup


def inner_deficit(traj, p, speed: float, factor: float = 0.8) -> float:
    """Largest shortfall from the invaded state (beta/alpha, 1) over
    |j| <= factor * speed * t at the final time."""
    final = traj.snapshots[-1]
    cutoff = factor * speed * final.time
    js = np.arange(final.j_min, final.j_max + 1)
    mask = np.abs(js) <= cutoff
    if not np.any(mask):
        raise ValueError("inner region is empty")
    deficit = float(np.max(1.0 - final.rho[mask]))
    edge_mask = mask[:-1] & mask[1:]
    if np.any(edge_mask):
        deficit = max(deficit, float(np.max(p.beta / p.alpha - final.edges[edge_mask])))
    return deficit
