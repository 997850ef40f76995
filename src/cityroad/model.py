"""Core domain types for the city-road lattice model.

The model couples vertex ("city") densities rho_j on the integer lattice to
edge ("road") densities v_j(x), x in [0, 1], through Robin exchange boundary
conditions

    -d v_j'(0) + alpha v_j(0) = beta rho_j,
     d v_j'(1) + alpha v_j(1) = beta rho_{j+1},

while each city follows rho_j' = f(rho_j) + alpha (v_j(0) + v_{j-1}(1))
- 2 beta rho_j with a KPP reaction f.  All roads have one length ell, which
scales out exactly (alpha -> alpha/ell, d -> d/ell^2, v -> ell v), so
``Parameters`` describe the unit-length lattice.  This module holds the
parameter containers, the snapshot type of both this system and its
fast-diffusion limit (its window's right end follows from the vertex
count), the unit-length rescaling, the mass functional, and the
closed-form algebra of stationary states.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "NonlinearityDescriptor",
    "logistic",
    "Parameters",
    "LatticeState",
    "rescale_to_unit_length",
    "total_mass",
    "StationaryProfiles",
    "stationary_from_rho",
    "stationary_residual",
    "sample_linear_profiles",
]


def _frozen_array(values, ndim: int) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    if out.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class NonlinearityDescriptor:
    """Logistic KPP reaction f(u) = fprime0 u (1 - u).

    A zero rate (f identically 0) is admitted for conservation experiments.
    """

    fprime0: float

    def __post_init__(self):
        object.__setattr__(self, "fprime0", float(self.fprime0))
        if not math.isfinite(self.fprime0) or self.fprime0 < 0:
            raise ValueError("fprime0 must be finite and >= 0")

    def __call__(self, u):
        return self.fprime0 * u * (1.0 - u)


def logistic(rate: float) -> NonlinearityDescriptor:
    """Logistic reaction f(u) = rate * u * (1 - u); rate 0 means no reaction."""
    return NonlinearityDescriptor(rate)


@dataclass(frozen=True)
class Parameters:
    """Model constants of the unit-length lattice: exchange rates alpha
    (road->city) and beta (city->road), edge diffusivity d, and the reaction
    descriptor.  A nonzero rate below the smallest normal float is rejected
    by name: it carries fewer than 53 significant bits, and the speed
    solvers, whose brackets close to 4 ulps, need not return on it."""

    alpha: float
    beta: float
    d: float
    nonlinearity: NonlinearityDescriptor = field(default_factory=lambda: logistic(1.0))

    def __post_init__(self):
        for name in ("alpha", "beta", "d"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and > 0, got {val}")
        for name in ("alpha", "beta", "d", "fprime0"):
            val = getattr(self, name)
            if 0 < val < sys.float_info.min:
                raise ValueError(f"{name} = {val} is below the smallest normal float "
                                 f"{sys.float_info.min}")

    @property
    def fprime0(self) -> float:
        return self.nonlinearity.fprime0

    def f(self, u):
        return self.nonlinearity(u)


def rescale_to_unit_length(p: Parameters, ell: float) -> Parameters:
    """The unit-length model of roads of length ell with constants ``p``:
    alpha/ell and d/ell^2, beta and the reaction unchanged (``p`` itself at
    ell == 1).  Its edge densities are ell times those of the original."""
    if not (math.isfinite(ell) and ell > 0):
        raise ValueError(f"ell must be finite and > 0, got {ell}")
    if ell == 1.0:
        return p
    return replace(p, alpha=p.alpha / ell, d=p.d / ell**2)


@dataclass(frozen=True)
class LatticeState:
    """Truncated-window snapshot of either system: vertex densities ``rho``
    for j in [j_min, j_max], j_max = j_min + len(rho) - 1, and, for each edge
    j in [j_min, j_max - 1], its m+1 grid samples, or its one level V_j in
    the fast-diffusion limit (m = 0)."""

    j_min: int
    rho: np.ndarray
    edges: np.ndarray  # shape (n_edges, m+1), or (n_edges, 1) in the limit
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen_array(self.rho, 1))
        object.__setattr__(self, "edges", _frozen_array(self.edges, 2))
        if len(self.rho) < 2:
            raise ValueError("need at least two vertices, j_min < j_max")
        if self.edges.shape[0] != len(self.rho) - 1:
            raise ValueError("edge count must be vertex count - 1")
        if self.edges.shape[1] < 1:
            raise ValueError("each edge needs at least one sample")
        if not (np.all(np.isfinite(self.rho)) and np.all(np.isfinite(self.edges))):
            raise ValueError("state entries must be finite")

    @property
    def j_max(self) -> int:
        return self.j_min + len(self.rho) - 1

    @property
    def m(self) -> int:
        return self.edges.shape[1] - 1

    @property
    def js(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)


def _trapezoid_rows(values: np.ndarray, dx: float) -> np.ndarray:
    inner = values[..., 1:-1].sum(axis=-1)
    return dx * (0.5 * values[..., 0] + inner + 0.5 * values[..., -1])


def total_mass(s: LatticeState) -> float:
    """Sum of vertex densities plus trapezoid-rule edge integrals; a
    one-sample edge (the limit system's level V_j) integrates to that sample
    exactly."""
    edge_mass = _trapezoid_rows(s.edges, 1.0 / max(s.m, 1)).sum()
    return float(s.rho.sum() + edge_mass)


class StationaryProfiles(NamedTuple):
    """Per-edge linear profiles v_j(x) = slope_j * x + intercept_j."""

    slope: np.ndarray
    intercept: np.ndarray

    def at(self, x):
        return np.multiply.outer(self.slope, x) + self.intercept[:, None]


def stationary_from_rho(rho, p: Parameters) -> StationaryProfiles:
    """Edge profiles of a stationary state with the given vertex densities.

    Each stationary edge is linear, v_j(x) = a_j x + b_j, with

        b_j = (beta d / (alpha (2d + alpha))) ((d+alpha)/d rho_j + rho_{j+1}),
        a_j = (beta / (2d + alpha)) (rho_{j+1} - rho_j),

    which satisfies both Robin endpoint conditions exactly.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or len(rho) < 2:
        raise ValueError("need at least two vertex densities")
    if not np.all(np.isfinite(rho)):
        raise ValueError("vertex densities must be finite")
    alpha, beta, d = p.alpha, p.beta, p.d
    coef = beta * d / (alpha * (2.0 * d + alpha))
    intercept = coef * ((d + alpha) / d * rho[:-1] + rho[1:])
    slope = beta / (2.0 * d + alpha) * (rho[1:] - rho[:-1])
    return StationaryProfiles(slope, intercept)


def sample_linear_profiles(profiles: StationaryProfiles, m: int) -> np.ndarray:
    """Sample the linear edge profiles on the m+1 point grid, one row per edge."""
    x = np.arange(m + 1) / m
    return profiles.at(x)


def stationary_residual(rho, p: Parameters) -> np.ndarray:
    """Residual of the stationary vertex relation at interior indices:

        r_j = beta d / (2d + alpha) (rho_{j-1} - 2 rho_j + rho_{j+1}) + f(rho_j).

    Zero residual at every interior j characterizes stationary states.
    """
    rho = np.asarray(rho, dtype=float)
    if len(rho) < 3:
        raise ValueError("need at least 3 vertex densities")
    lap = rho[:-2] - 2.0 * rho[1:-1] + rho[2:]
    return p.beta * p.d / (2.0 * p.d + p.alpha) * lap + p.f(rho[1:-1])
