"""Core domain types for the city-road lattice model.

The model couples vertex ("city") densities rho_j on the integer lattice to
edge ("road") densities v_j(x), x in [0, 1], through Robin exchange boundary
conditions

    -d v_j'(0) + alpha v_j(0) = beta rho_j,
     d v_j'(1) + alpha v_j(1) = beta rho_{j+1},

while each city follows rho_j' = f(rho_j) + alpha (v_j(0) + v_{j-1}(1))
- 2 beta rho_j with a KPP reaction f.  This module holds the parameter and
state containers, the unit-length rescaling, the mass functional, and the
closed-form algebra of stationary states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "NonlinearityDescriptor",
    "logistic",
    "Parameters",
    "EdgeGrid",
    "LatticeState",
    "RescaledParameters",
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
    """Model constants: exchange rates alpha (road->city) and beta (city->road),
    edge diffusivity d, edge length ell, and the reaction descriptor."""

    alpha: float
    beta: float
    d: float
    ell: float = 1.0
    nonlinearity: NonlinearityDescriptor = field(default_factory=lambda: logistic(1.0))

    def __post_init__(self):
        for name in ("alpha", "beta", "d", "ell"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and > 0, got {val}")

    @property
    def fprime0(self) -> float:
        return self.nonlinearity.fprime0

    def f(self, u):
        return self.nonlinearity(u)

    def require_unit_length(self):
        if self.ell != 1.0:
            raise ValueError("parameters must be rescaled to unit edge length first")


class RescaledParameters(NamedTuple):
    params: Parameters
    edge_density_scale: float


def rescale_to_unit_length(p: Parameters) -> RescaledParameters:
    """Normalize to edge length 1: d' = d/ell^2, alpha' = alpha/ell, beta unchanged.

    Edge densities transform as v~ = ell * v; the returned scale factor is the
    original ell so callers can convert sampled edge data.  Idempotent once
    ell == 1.
    """
    ell = p.ell
    if ell == 1.0:
        return RescaledParameters(p, 1.0)
    scaled = replace(p, alpha=p.alpha / ell, d=p.d / ell**2, ell=1.0)
    return RescaledParameters(scaled, ell)


@dataclass(frozen=True)
class EdgeGrid:
    """Samples of one edge profile at x_i = i/m, i = 0..m."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, 1))
        if len(self.values) < 3:
            raise ValueError("edge grid needs m >= 2, i.e. at least 3 samples")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("edge values must be finite")

    @property
    def m(self) -> int:
        return len(self.values) - 1

    @property
    def dx(self) -> float:
        return 1.0 / self.m

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.m


@dataclass(frozen=True)
class LatticeState:
    """Truncated-window snapshot: vertex densities for j in [j_min, j_max] and
    the m+1 edge samples for each edge j in [j_min, j_max - 1]."""

    j_min: int
    j_max: int
    rho: np.ndarray
    edges: np.ndarray  # shape (n_edges, m+1)
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen_array(self.rho, 1))
        object.__setattr__(self, "edges", _frozen_array(self.edges, 2))
        if self.j_min >= self.j_max:
            raise ValueError("need j_min < j_max")
        n_v = self.j_max - self.j_min + 1
        if len(self.rho) != n_v:
            raise ValueError("rho length must match the window")
        if self.edges.shape[0] != n_v - 1:
            raise ValueError("edge count must be vertex count - 1")
        if self.edges.shape[1] < 3:
            raise ValueError("edge grids need m >= 2")
        if not (np.all(np.isfinite(self.rho)) and np.all(np.isfinite(self.edges))):
            raise ValueError("state entries must be finite")

    @property
    def n_vertices(self) -> int:
        return len(self.rho)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def m(self) -> int:
        return self.edges.shape[1] - 1

    @property
    def js(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    @property
    def densities(self) -> np.ndarray:
        return self.rho

    def edge_grid(self, k: int) -> EdgeGrid:
        return EdgeGrid(self.edges[k])


def _trapezoid_rows(values: np.ndarray, dx: float) -> np.ndarray:
    inner = values[..., 1:-1].sum(axis=-1)
    return dx * (0.5 * values[..., 0] + inner + 0.5 * values[..., -1])


def total_mass(s: LatticeState) -> float:
    """Sum of vertex densities plus trapezoid-rule edge integrals."""
    edge_mass = _trapezoid_rows(s.edges, 1.0 / s.m).sum()
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
    p.require_unit_length()
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
