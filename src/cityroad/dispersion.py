"""Linear spreading speed from the dispersion relation of the coupled system.

Exponential solutions e^{-mu (j - c t)} of the linearization around the empty
state exist when cosh(lambda / c) = y(lambda), with

    Delta(lambda) = alpha^2 + d lambda + 2 sqrt(d lambda) alpha / tanh(s),
    y(lambda) = [Delta/(2 alpha beta) (lambda + 2 beta - f'(0))
                 - (alpha + sqrt(d lambda)/tanh(s))] sinh(s)/sqrt(d lambda),

where s = sqrt(lambda / d).  The decay rate is mu(lambda) = arccosh(y) once
y > 1, which happens exactly above a unique threshold lambda0, and the
spreading speed is the minimum of c(lambda) = lambda / mu(lambda) over
(lambda0, inf).  A global geometric scan locates the minimum before local
refinement because uniqueness of the minimizer is only conjectured; every
grid-local minimum is reported.  Threshold and minimizer are refined by
zooming a bracket onto the sign change or the smallest c on a linspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Parameters

__all__ = [
    "DispersionPoint",
    "DispersionScan",
    "DispersionResult",
    "dispersion_eval",
    "find_lambda0",
    "compute_c_star",
    "profile_v",
    "profile_v_star",
    "exponential_ansatz_residual",
]

# Below this s = sqrt(lambda/d) the hyperbolic ratios switch to their Taylor
# expansions; beyond the upper bound sinh overflows and y moves to log space.
_TAYLOR_SWITCH = 1e-4
_LOG_SWITCH = 300.0
_HUGE_LOG = 709.0  # ~ log of float64 max
# The c* scan: points of the geometric lambda grid and its upper end over lambda0.
_GRID_POINTS = 2000
_GRID_SPAN = 1e4
# Points per round of the bracket zoom that refines lambda0 and lambda*.
_ZOOM_POINTS = 256


@dataclass(frozen=True)
class DispersionPoint:
    lam: float
    delta: float
    y: float
    mu: float | None
    c: float | None


@dataclass(frozen=True)
class DispersionScan:
    lam: np.ndarray
    delta: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    c: np.ndarray

    def __len__(self):
        return len(self.lam)


@dataclass(frozen=True)
class DispersionResult:
    lambda0: float
    lambda_star: float
    mu_star: float
    c_star: float
    scan: DispersionScan
    local_minima: tuple[float, ...]


def _ratios(s):
    """(sqrt(d lam)/tanh s, sqrt(d lam)/sinh s, sinh s/sqrt(d lam)) divided by d.

    Returns the three s-dependent factors r_tanh = s/tanh s, r_sinh = s/sinh s
    and their reciprocal companion sinh s / s, Taylor-expanded below the
    switchover to avoid 0/0.
    """
    s = np.asarray(s, dtype=float)
    small = s < _TAYLOR_SWITCH
    s_safe = np.where(small, 1.0, s)
    with np.errstate(over="ignore"):
        sinh = np.sinh(s_safe)
        tanh = np.tanh(s_safe)
    r_tanh = np.where(small, 1.0 + s**2 / 3.0, s_safe / tanh)
    r_sinh = np.where(small, 1.0 - s**2 / 6.0, np.where(np.isinf(sinh), 0.0, s_safe / sinh))
    sinh_over_s = np.where(small, 1.0 + s**2 / 6.0, sinh / s_safe)
    return r_tanh, r_sinh, sinh_over_s


def _log_sinh(s):
    return s - math.log(2.0) + np.log1p(-np.exp(-2.0 * s))


def _terms(lams, p: Parameters):
    """s, sqrt(d lam) / sinh(s), sinh(s) / s, Delta and the bracket of y
    along a lambda grid."""
    alpha, beta, d, f0 = p.alpha, p.beta, p.d, p.fprime0
    lams = np.asarray(lams, dtype=float)
    s = np.sqrt(lams / d)
    r_tanh, r_sinh, sinh_over_s = _ratios(s)
    a_term = d * r_tanh        # sqrt(d lam) / tanh(s)
    delta = alpha**2 + d * lams + 2.0 * alpha * a_term
    bracket = delta / (2.0 * alpha * beta) * (lams + 2.0 * beta - f0) - (alpha + a_term)
    return s, d * r_sinh, sinh_over_s, delta, bracket


def _eval_arrays(lams: np.ndarray, p: Parameters):
    """Vectorized (delta, y, mu, c) along a lambda grid; mu, c are NaN where
    y <= 1."""
    d = p.d
    lams = np.asarray(lams, dtype=float)
    s, _, sinh_over_s, delta, bracket = _terms(lams, p)
    with np.errstate(over="ignore", invalid="ignore"):
        y = bracket * sinh_over_s / d
    # log-space rescue of |y| where sinh overflowed; y keeps the sign of the
    # bracket, so below the threshold it stays below 1
    big = s > _LOG_SWITCH
    log_y = np.zeros_like(y)
    if np.any(big):
        lb = np.log(np.maximum(np.abs(bracket), 1e-300))
        log_y = np.where(big, lb + _log_sinh(s) - np.log(d * np.maximum(s, 1.0)), 0.0)
        rescued = np.sign(bracket) * np.exp(np.minimum(log_y, _HUGE_LOG))
        y = np.where(big & ~np.isfinite(y), rescued, y)
    defined = y > 1.0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mu = np.where(
            defined,
            np.log(y + np.sqrt(np.abs((y - 1.0) * (y + 1.0)))),
            np.nan,
        )
    if np.any(big):
        use_log = big & (log_y > 40.0)
        mu = np.where(use_log, math.log(2.0) + log_y, mu)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(defined, lams / mu, np.nan)
    return delta, y, mu, c


def dispersion_eval(lam: float, p: Parameters) -> DispersionPoint:
    """Evaluate Delta, y, mu, c at one lambda >= 0; mu and c are None when
    y <= 1 (not an error: below the threshold no exponential solution exists)."""
    if lam < 0 or not math.isfinite(lam):
        raise ValueError("lambda must be finite and >= 0")
    p.require_unit_length()
    delta, y, mu, c = (float(v[0]) for v in _eval_arrays(np.array([lam]), p))
    return DispersionPoint(float(lam), delta, y, None if math.isnan(mu) else mu,
                           None if math.isnan(c) else c)


def _g_minus_G(lam, p: Parameters):
    """g - G = 2 alpha beta / Delta (bracket - sqrt(d lam) / sinh(s))."""
    _, b_term, _, delta, bracket = _terms(lam, p)
    return 2.0 * p.alpha * p.beta / delta * (bracket - b_term)


def _zoom_sign_change(fun, a: float, b: float):
    """One zoom round on [a, b] with fun(a) <= 0 < fun(b): evaluate fun on
    _ZOOM_POINTS points and return the neighbours (a, b, fun(a), fun(b)) of
    the first positive value."""
    x = np.linspace(a, b, _ZOOM_POINTS)
    v = fun(x)
    i = int(np.argmax(v > 0.0)) if v[-1] > 0.0 else len(x) - 1
    i = max(i, 1)
    return float(x[i - 1]), float(x[i]), float(v[i - 1]), float(v[i])


def find_lambda0(p: Parameters) -> float:
    """Unique lambda where y = 1, i.e. where the increasing line
    g(lambda) = lambda + 2 beta - f'(0) crosses the decreasing exchange curve
    G(lambda).  Bracketed by doubling, then zoomed to relative width 1e-12;
    the result is cross-checked through |y(lambda0) - 1| <= 1e-10."""
    p.require_unit_length()
    if p.fprime0 <= 0:
        raise ValueError("threshold needs f'(0) > 0")
    a = 0.0
    b = 1.0
    while _g_minus_G(b, p) <= 0.0:
        b *= 2.0
        if b > 1e6:
            raise RuntimeError("no dispersion threshold below 1e6: inadmissible parameters")
    while (b - a) > 1e-12 * max(1.0, 0.5 * (a + b)):
        a, b, _, _ = _zoom_sign_change(lambda lam: _g_minus_G(lam, p), a, b)
    # y - 1 equals (Delta / (2 alpha beta B)) (g - G) with a factor that grows
    # as d shrinks, so polish the root on y - 1 itself down to the post-check
    # tolerance (the bracket from the g - G zoom still encloses it).
    def y_minus_1(lams):
        return _eval_arrays(lams, p)[1] - 1.0

    resid_a, resid_b = (float(r) for r in y_minus_1(np.array([a, b])))
    while (min(abs(resid_a), abs(resid_b)) > 1e-10
           and (b - a) > 4.0 * np.finfo(float).eps * max(1.0, b)):
        a, b, resid_a, resid_b = _zoom_sign_change(y_minus_1, a, b)
    lam0, resid = (a, resid_a) if abs(resid_a) <= abs(resid_b) else (b, resid_b)
    # Once the bracket is a few ulps wide the achievable |y - 1| is set by the
    # local slope; accept that floor (it exceeds 1e-10 only for extreme
    # parameter ratios where y is steep on the lambda grid).
    floor = 4.0 * abs(resid_b - resid_a)
    if abs(resid) > max(1e-10, floor):
        raise RuntimeError(f"threshold post-check failed: |y - 1| = {abs(resid):.3e}")
    return lam0


def compute_c_star(p: Parameters) -> DispersionResult:
    """Minimal speed c* = min over lambda > lambda0 of lambda / mu(lambda).

    A geometric grid over (lambda0 (1 + 1e-6), lambda0 * _GRID_SPAN) locates the
    global minimum, the bracket zoom refines it to relative width 1e-10, and
    the scan endpoints are checked to exceed the minimum.  A grid minimum on
    the first point is zoomed between the first two points (at small d the
    minimizer lies that close to lambda0); one on the last point triggers one
    automatic 10x extension of the upper bound, and a persistent one is an
    error.
    """
    p.require_unit_length()
    lam0 = find_lambda0(p)
    lo = lam0 * (1.0 + 1e-6)
    hi = lam0 * _GRID_SPAN
    for _ in range(2):
        lams = np.geomspace(lo, hi, _GRID_POINTS)
        delta, y, mu, c = _eval_arrays(lams, p)
        if np.any(~np.isfinite(c)):
            raise RuntimeError("speed curve undefined inside the scan range")
        i_min = int(np.argmin(c))
        if i_min < len(lams) - 1:
            break
        hi *= 10.0
    else:
        raise RuntimeError("speed minimum stuck at the scan endpoint")
    a, b = lams[max(i_min - 1, 0)], lams[i_min + 1]
    while (b - a) > 1e-10 * max(1.0, abs(a), abs(b)):
        x = np.linspace(a, b, _ZOOM_POINTS)
        i = int(np.argmin(_eval_arrays(x, p)[3]))
        a, b = x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)]
    lam_star = 0.5 * (a + b)
    point = dispersion_eval(lam_star, p)
    if point.mu is None:
        raise RuntimeError("refined minimizer fell below the threshold")
    c_star = point.c
    if not (c[0] > c_star and c[-1] > c_star):
        raise RuntimeError("scan endpoints do not exceed the minimum speed")
    interior = (c[1:-1] < c[:-2]) & (c[1:-1] < c[2:])
    local_minima = tuple(float(v) for v in lams[1:-1][interior])
    scan = DispersionScan(lams, delta, y, mu, c)
    result = DispersionResult(
        lambda0=lam0,
        lambda_star=float(lam_star),
        mu_star=float(point.mu),
        c_star=float(c_star),
        scan=scan,
        local_minima=local_minima,
    )
    res = exponential_ansatz_residual(result.lambda_star, result.mu_star, p)
    if res > 1e-8:
        raise RuntimeError(f"exponential ansatz residual {res:.3e} exceeds 1e-8")
    return result


def _hyperbolic_over_sinh(s: float, u):
    """(cosh(s u), sinh(s u)) / sinh(s) for u in [0, 1], written with
    exponentials of non-positive arguments: finite where sinh(s) alone
    overflows (small d)."""
    u = np.asarray(u, dtype=float)
    scale = np.exp(-s * (1.0 - u)) / -math.expm1(-2.0 * s)
    return scale * (1.0 + np.exp(-2.0 * s * u)), -scale * np.expm1(-2.0 * s * u)


def _profile_scales(lam: float, p: Parameters):
    """s = sqrt(lam / d), sqrt(lam d) and beta / Delta(lam)."""
    s, _, _, delta, _ = _terms(lam, p)
    return float(s), math.sqrt(lam * p.d), p.beta / float(delta)


def profile_v(x, lam: float, mu: float, p: Parameters):
    """Edge profile of the exponential solution at decay rate mu and rate lam:

        V(x) = beta / (sinh(s) Delta) [sqrt(lam d) cosh(s (1-x)) + alpha sinh(s (1-x))]
             + beta e^{-mu} / (sinh(s) Delta) [sqrt(lam d) cosh(s x) + alpha sinh(s x)].
    """
    x = np.asarray(x, dtype=float)
    s, sq, k = _profile_scales(lam, p)
    cosh_l, sinh_l = _hyperbolic_over_sinh(s, 1.0 - x)
    cosh_r, sinh_r = _hyperbolic_over_sinh(s, x)
    out = k * (sq * cosh_l + p.alpha * sinh_l + math.exp(-mu) * (sq * cosh_r + p.alpha * sinh_r))
    return float(out) if out.ndim == 0 else out


def _profile_v_prime(x: float, lam: float, mu: float, p: Parameters) -> float:
    s, sq, k = _profile_scales(lam, p)
    cosh_l, sinh_l = _hyperbolic_over_sinh(s, 1.0 - x)
    cosh_r, sinh_r = _hyperbolic_over_sinh(s, x)
    return float(k * s * (-sq * sinh_l - p.alpha * cosh_l)
                 + k * math.exp(-mu) * s * (sq * sinh_r + p.alpha * cosh_r))


def profile_v_star(x, res: DispersionResult, p: Parameters):
    """Front profile V_* at the minimizing (lambda*, mu*); strictly positive."""
    return profile_v(x, res.lambda_star, res.mu_star, p)


def exponential_ansatz_residual(lam: float, mu: float, p: Parameters) -> float:
    """Largest relative residual of the four exponential-solution equations
    at (lam, mu, V): mu c = lam, the vertex balance, and both Robin rows."""
    alpha, beta, d, f0 = p.alpha, p.beta, p.d, p.fprime0
    c = lam / mu
    v0 = profile_v(0.0, lam, mu, p)
    v1 = profile_v(1.0, lam, mu, p)
    vp0 = _profile_v_prime(0.0, lam, mu, p)
    vp1 = _profile_v_prime(1.0, lam, mu, p)
    # e^mu V(1) = beta / Delta [sqrt(lam d) (e^mu / sinh(s) + coth(s)) + alpha],
    # with e^mu / sinh(s) = 2 e^{mu - s} / (1 - e^{-2 s}): e^mu alone overflows at small d
    s, sq, k = _profile_scales(lam, p)
    coth, _ = _hyperbolic_over_sinh(s, 1.0)
    ev1 = k * (sq * (2.0 * math.exp(mu - s) / -math.expm1(-2.0 * s) + float(coth)) + alpha)
    r1 = mu * c - lam
    vertex = f0 + alpha * (v0 + ev1) - 2.0 * beta
    r2 = mu * c - vertex
    r3 = -d * vp0 + alpha * v0 - beta
    r4 = d * vp1 + alpha * v1 - beta * math.exp(-mu)
    s1 = max(1.0, abs(lam))
    s2 = max(1.0, abs(mu * c), abs(f0) + alpha * (abs(v0) + abs(ev1)) + 2.0 * beta)
    s3 = max(1.0, beta, d * abs(vp0) + alpha * abs(v0))
    s4 = max(1.0, beta * math.exp(-mu), d * abs(vp1) + alpha * abs(v1))
    return max(abs(r1) / s1, abs(r2) / s2, abs(r3) / s3, abs(r4) / s4)
