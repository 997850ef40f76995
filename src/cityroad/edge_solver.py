"""Single-edge heat solver with inhomogeneous Robin boundary data.

Advances one road equation, dv/dt = d v_xx on (0, 1) with

    -d v_x(0) + alpha v(0) = g_left(t),
     d v_x(1) + alpha v(1) = g_right(t),

by Crank-Nicolson with second-order Robin boundary rows and time-averaged
loads.  The step is precomputed once per (m, dt, d, alpha) as a dense
propagator plus two load columns, so advancing any number of edges is one
matrix product.  Two independent verification tools live here as well: the
manufactured-solution error harness and a heat-kernel integral-equation
oracle that never touches the finite-difference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import EdgeGrid, Parameters

__all__ = [
    "TridiagonalOperator",
    "RobinStepInput",
    "StepOperator",
    "assemble_step_operator",
    "step_edge",
    "manufactured_solution_error",
    "manufactured_profile",
    "manufactured_loads",
    "integral_representation_oracle",
]


@dataclass(frozen=True)
class TridiagonalOperator:
    """Banded (m+1)-row operator; lower[0] and upper[-1] are unused zeros."""

    lower: np.ndarray
    diagonal: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        n = len(self.diagonal)
        if not (len(self.lower) == n and len(self.upper) == n):
            raise ValueError("band arrays must share one length")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[..., 1:] += self.lower[1:] * v[..., :-1]
        out[..., :-1] += self.upper[:-1] * v[..., 1:]
        return out

    def dense(self) -> np.ndarray:
        return (np.diag(self.diagonal) + np.diag(self.lower[1:], -1)
                + np.diag(self.upper[:-1], 1))


@dataclass(frozen=True)
class RobinStepInput:
    """One edge plus its Robin data beta*rho at each end, sampled at the step
    start and step end, and the step size."""

    edge: EdgeGrid
    g_left: tuple[float, float]
    g_right: tuple[float, float]
    dt: float
    p: Parameters

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        for pair in (self.g_left, self.g_right):
            if len(pair) != 2 or not all(math.isfinite(g) for g in pair):
                raise ValueError("boundary data must be finite (start, end) pairs")


@dataclass(frozen=True)
class StepOperator:
    """Assembled Crank-Nicolson pieces for one (m, dt, d, alpha) combination.

    implicit = I - dt/2 L and explicit = I + dt/2 L, where L is the second
    order Laplacian whose boundary rows absorb the Robin condition through
    ghost-node elimination.  The load coefficient maps boundary data g to the
    affine forcing (2/dx) g at the two end rows.

    A step is precomputed densely as the read-only (m+3, m+1) ``step_matrix``:
    its first m+1 rows are the transposed propagator
    (implicit^-1 explicit)^T, its last two rows the load columns
    implicit^-1 (dt load_coeff e_0) and implicit^-1 (dt load_coeff e_m).
    """

    m: int
    dt: float
    implicit: TridiagonalOperator
    explicit: TridiagonalOperator
    load_coeff: float
    step_matrix: np.ndarray

    def apply(self, values, g_left_avg, g_right_avg, out=None) -> np.ndarray:
        """One step of a single edge (1-d values, scalar loads) or of a batch
        (rows of values, one load per row) as one matrix product of
        [values | g_left | g_right] with ``step_matrix``; ``out`` receives
        the result."""
        values = np.asarray(values, dtype=float)
        n = self.m + 1
        w = np.empty(values.shape[:-1] + (n + 2,))
        w[..., :n] = values
        w[..., n] = g_left_avg
        w[..., n + 1] = g_right_avg
        return np.matmul(w, self.step_matrix, out=out)


@lru_cache(maxsize=64)
def _assemble_cached(m: int, dt: float, d: float, alpha: float) -> StepOperator:
    dx = 1.0 / m
    r = d / dx**2
    n = m + 1
    lo = np.full(n, r)
    di = np.full(n, -2.0 * r)
    up = np.full(n, r)
    # Ghost-node elimination: from -d (v1 - v_-1)/(2 dx) + alpha v0 = g one gets
    # v_-1 = v1 + (2 dx / d)(g - alpha v0), so the end rows carry a doubled
    # neighbor, an extra -2 alpha/dx decay, and a (2/dx) g load (mirrored at m).
    lo[0] = 0.0
    up[0] = 2.0 * r
    di[0] = -2.0 * r - 2.0 * alpha / dx
    lo[n - 1] = 2.0 * r
    up[n - 1] = 0.0
    di[n - 1] = -2.0 * r - 2.0 * alpha / dx
    half = 0.5 * dt
    implicit = TridiagonalOperator(-half * lo, 1.0 - half * di, -half * up)
    explicit = TridiagonalOperator(half * lo, 1.0 + half * di, half * up)
    dom = np.abs(implicit.diagonal) - (np.abs(implicit.lower) + np.abs(implicit.upper))
    if np.any(dom <= 0.0):
        raise ValueError("implicit operator is not strictly diagonally dominant")
    load_coeff = 2.0 / dx
    loads = np.zeros((n, 2))
    loads[0, 0] = loads[n - 1, 1] = dt * load_coeff
    im = implicit.dense()
    rhs = np.hstack([explicit.dense(), loads])
    solved = np.linalg.solve(im, rhs)
    # One round of iterative refinement, residual in extended precision, puts
    # the entries within about an ulp.  Unrefined, their error drifts the mass
    # of the default run by 5e-14 relative over 1e4 steps; refined, by 7e-15.
    ext = np.longdouble
    resid = rhs.astype(ext) - im.astype(ext) @ solved.astype(ext)
    solved += np.linalg.solve(im, resid.astype(float))
    step_matrix = np.ascontiguousarray(solved.T)
    step_matrix.setflags(write=False)
    return StepOperator(m, dt, implicit, explicit, load_coeff, step_matrix)


def assemble_step_operator(m: int, dt: float, p: Parameters) -> StepOperator:
    """Build the Crank-Nicolson operators for m interior intervals and step dt."""
    if m < 2:
        raise ValueError("need m >= 2")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    p.require_unit_length()
    return _assemble_cached(m, float(dt), p.d, p.alpha)


def step_edge(inp: RobinStepInput) -> EdgeGrid:
    """One Crank-Nicolson step with time-averaged Robin loads."""
    op = assemble_step_operator(inp.edge.m, inp.dt, inp.p)
    gl = 0.5 * (inp.g_left[0] + inp.g_left[1])
    gr = 0.5 * (inp.g_right[0] + inp.g_right[1])
    return EdgeGrid(op.apply(inp.edge.values, gl, gr))


def manufactured_profile(t: float, x, p: Parameters):
    """Exact Robin-compatible heat solution v(t, x) = exp(-d pi^2 t) cos(pi x)."""
    return math.exp(-p.d * math.pi**2 * t) * np.cos(math.pi * np.asarray(x))


def manufactured_loads(t: float, p: Parameters) -> tuple[float, float]:
    """Robin data of the manufactured solution; v_x vanishes at both ends."""
    amp = math.exp(-p.d * math.pi**2 * t)
    return p.alpha * amp, -p.alpha * amp


def manufactured_solution_error(m: int, dt: float, T: float, p: Parameters) -> float:
    """Max-norm error at time T of the stepped manufactured solution."""
    if T < 0:
        raise ValueError("T must be >= 0")
    nsteps = round(T / dt) if T > 0 else 0
    if T > 0 and abs(nsteps * dt - T) > 1e-9 * T:
        raise ValueError("T must be an integer multiple of dt")
    x = np.arange(m + 1) / m
    edge = EdgeGrid(manufactured_profile(0.0, x, p))
    t = 0.0
    for _ in range(nsteps):
        inp = RobinStepInput(
            edge,
            g_left=(manufactured_loads(t, p)[0], manufactured_loads(t + dt, p)[0]),
            g_right=(manufactured_loads(t, p)[1], manufactured_loads(t + dt, p)[1]),
            dt=dt,
            p=p,
        )
        edge = step_edge(inp)
        t += dt
    return float(np.max(np.abs(edge.values - manufactured_profile(t, x, p))))


# ---------------------------------------------------------------------------
# Heat-kernel integral-equation oracle
# ---------------------------------------------------------------------------
#
# The solution of the Robin problem can be written with the free-space kernel
# K(t, x) = exp(-x^2 / 4 d t) / sqrt(4 pi d t) as
#
#   u(t,x) = int_0^1 K(t, x-y) v0(y) dy
#          + int_0^t [K(t-s, x-1) h(s) + K(t-s, x) g(s)] ds
#          + int_0^t [-alpha K(t-s, x-1) + d K_x(t-s, x-1)] u(s,1) ds
#          - int_0^t [ alpha K(t-s, x)   + d K_x(t-s, x)  ] u(s,0) ds ,
#
# valid at interior x; at x in {0, 1} the left-hand side carries a factor 1/2
# (only half the Gaussian mass lies inside the domain when the evaluation
# point sits on the boundary).  Collocating at both ends yields a pair of
# weakly singular Volterra equations for the unknown traces u(s,0), u(s,1),
# solved by time marching.  The 1/sqrt(t-s) kernel is integrated exactly
# against piecewise-linear data on every panel (product trapezoid rule).

_GAUSS_NODES = 201


def _kernel(tau, x, d):
    tau = np.asarray(tau, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            tau > 0.0,
            np.exp(-(x**2) / (4.0 * d * np.maximum(tau, 1e-300)))
            / np.sqrt(4.0 * math.pi * d * np.maximum(tau, 1e-300)),
            0.0,
        )
    return out


def _kernel_x(tau, x, d):
    tau = np.asarray(tau, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(tau > 0.0, -x / (2.0 * d * np.maximum(tau, 1e-300)), 0.0)
    return out * _kernel(tau, x, d)


def _sqrt_panel_weights(n: int, dtau: float, d: float):
    """Product-trapezoid weights for int_0^t u(s) / sqrt(4 pi d (t-s)) ds.

    With u piecewise linear on the uniform grid, each panel [s_k, s_k+1]
    integrates exactly: in local variable tau = t - s on [a, b],
    int tau^-1/2 = 2(sqrt(b)-sqrt(a)) and int tau^1/2 = (2/3)(b^3/2-a^3/2).
    Returns weights w[0..n] multiplying u(s_0..s_n) for t = n dtau.
    """
    w = np.zeros(n + 1)
    c = 1.0 / math.sqrt(4.0 * math.pi * d)
    for k in range(n):
        a = (n - k - 1) * dtau
        b = (n - k) * dtau
        i0 = 2.0 * (math.sqrt(b) - math.sqrt(a))
        i1 = (2.0 / 3.0) * (b**1.5 - a**1.5)
        # In tau = t - s the panel runs from a to b with u = u_k at tau = b,
        # u_{k+1} at tau = a, so u(tau) = u_k (tau-a)/dtau + u_{k+1} (b-tau)/dtau.
        w[k] += c * (i1 - a * i0) / dtau
        w[k + 1] += c * (b * i0 - i1) / dtau
    return w


def _smooth_history_weights(n: int, dtau: float, values: np.ndarray) -> float:
    """Trapezoid of a smooth kernel-sample array over [0, t]."""
    if n == 0:
        return 0.0
    return float(dtau * (0.5 * values[0] + values[1:n].sum() + 0.5 * values[n]))


def integral_representation_oracle(h0, g, h, t: float, x: float, p: Parameters) -> float:
    """Evaluate the Robin heat solution at (t, x) from the representation formula.

    h0 is the initial profile (callable on [0, 1] or an EdgeGrid, interpolated
    linearly); g and h are samples of the boundary data on the uniform time
    grid over [0, t] (arrays of equal length >= 2).  The two boundary traces
    are recovered first by marching the collocated Volterra system, then the
    formula is evaluated at (t, x).  This is a verification oracle, not a
    production solver.
    """
    p.require_unit_length()
    if not (t > 0):
        raise ValueError("need t > 0")
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != h.shape or g.ndim != 1 or len(g) < 2:
        raise ValueError("g and h must be equal-length 1-d sample arrays")
    n = len(g) - 1
    dtau = t / n
    d, alpha = p.d, p.alpha

    if isinstance(h0, EdgeGrid):
        grid = h0
        h0_fun = lambda y: np.interp(y, grid.x, grid.values)
    elif callable(h0):
        h0_fun = h0
    else:
        arr = np.asarray(h0, dtype=float)
        h0_fun = lambda y: np.interp(y, np.linspace(0.0, 1.0, len(arr)), arr)

    nodes, wq = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    y = 0.5 * (nodes + 1.0)
    wq = 0.5 * wq
    h0_vals = np.asarray(h0_fun(y), dtype=float)

    def initial_term(tt, xx):
        return float(np.sum(wq * _kernel(tt, xx - y, d) * h0_vals))

    times = np.arange(n + 1) * dtau

    # Smooth cross-coupling kernel S(tau) = K(tau,1) (1/(2 tau) - alpha); it
    # multiplies the opposite trace in both collocation rows.
    def s_kernel(tau):
        return _kernel(tau, 1.0, d) * (
            np.where(tau > 0, 1.0 / (2.0 * np.maximum(tau, 1e-300)), 0.0) - alpha
        )

    # Zero-filled so that the S(0) = 0 weight on the not-yet-computed node
    # multiplies a harmless value inside each marching step.
    u0 = np.zeros(n + 1)
    u1 = np.zeros(n + 1)
    u0[0] = float(h0_fun(0.0))
    u1[0] = float(h0_fun(1.0))

    for k in range(1, n + 1):
        tk = times[k]
        tau_hist = tk - times[: k + 1]
        w_sing = _sqrt_panel_weights(k, dtau, d)
        s_vals = s_kernel(tau_hist)
        k1_vals = _kernel(tau_hist, 1.0, d)
        # Forcing: initial data term plus known boundary-load history.
        f0 = initial_term(tk, 0.0)
        f1 = initial_term(tk, 1.0)
        f0 += _smooth_history_weights(k, dtau, k1_vals * h[: k + 1])
        f0 += float(np.dot(w_sing, g[: k + 1]))
        f1 += _smooth_history_weights(k, dtau, k1_vals * g[: k + 1])
        f1 += float(np.dot(w_sing, h[: k + 1]))
        # Collocation rows: u/2 + alpha * (singular conv of same trace)
        #                        = F + (smooth conv of opposite trace).
        rhs0 = f0 + _smooth_history_weights(k, dtau, s_vals * u1[: k + 1]) \
            - alpha * float(np.dot(w_sing[:k], u0[:k]))
        rhs1 = f1 + _smooth_history_weights(k, dtau, s_vals * u0[: k + 1]) \
            - alpha * float(np.dot(w_sing[:k], u1[:k]))
        diag = 0.5 + alpha * w_sing[k]
        if diag < 1e-8:
            raise RuntimeError("Volterra collocation diagonal is ill-conditioned")
        # The smooth couplings vanish at tau = 0, so the rows decouple.
        u0[k] = rhs0 / diag
        u1[k] = rhs1 / diag

    if x == 0.0:
        return float(u0[n])
    if x == 1.0:
        return float(u1[n])

    tau_hist = t - times
    out = initial_term(t, x)
    out += _smooth_history_weights(n, dtau, _kernel(tau_hist, x - 1.0, d) * h)
    out += _smooth_history_weights(n, dtau, _kernel(tau_hist, x, d) * g)
    coef1 = -alpha * _kernel(tau_hist, x - 1.0, d) + d * _kernel_x(tau_hist, x - 1.0, d)
    coef0 = alpha * _kernel(tau_hist, x, d) + d * _kernel_x(tau_hist, x, d)
    out += _smooth_history_weights(n, dtau, coef1 * u1)
    out -= _smooth_history_weights(n, dtau, coef0 * u0)
    return float(out)
