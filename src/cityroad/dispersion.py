"""Linear spreading speed from the dispersion relation of the coupled system.

Exponential solutions e^{-mu (j - c t)} of the linearization around the empty
state exist when cosh(lambda / c) = y(lambda).  With s = sqrt(lambda / d),
A = sqrt(d lambda) coth(s), B = sqrt(d lambda) / sinh(s) and

    Delta(lambda) = alpha^2 + d lambda + 2 alpha A,

the increasing line g(lambda) = lambda + 2 beta - f'(0) meets the decreasing
exchange curve G(lambda) = 2 alpha beta (alpha + A + B) / Delta once, and

    g - G = (lambda - f'(0)) + 2 beta d (lambda + alpha s tanh(s/2)) / Delta,

because 2 beta - G = 2 beta (d lambda + alpha (A - B)) / Delta and
A - B = d s (coth s - csch s) = d s tanh(s/2).  Every term but
lambda - f'(0) is positive, so g - G is formed without cancellation, and

    y - 1 = Delta sinh(s) / (2 alpha beta d s) (g - G)

inherits its accuracy and its sign.  The decay rate is
mu(lambda) = arccosh(y) = log1p((y - 1) + sqrt((y - 1)(y + 1))) once y > 1,
which happens exactly above the unique threshold lambda0 where g - G changes
sign, and the spreading speed is the minimum of c(lambda) = lambda / mu(lambda)
over (lambda0, inf).  The threshold is the root of g - G on Python floats,
bracketed by halving or doubling from lambda = 1 and closed by safeguarded
Illinois steps (_bracketed_root, which also finds c*_inf's tangency).  The
minimum is zoomed onto the smallest c over the window (lambda0, 4 lambda0],
whose first zoom round, a scan, reports every grid-local minimum because
uniqueness of the minimizer is only conjectured.
Where mu^2 is concave, the minimizer's lambda mu^2' = 2 mu^2 puts it below
2 lambda0.

The zoom is a few evaluations on a few hundred points, so it runs at
numpy's per-call cost, not at its arithmetic.  Each evaluation therefore
enters one ``np.errstate``, computes the Taylor branch (s < 1e-4) and the
log-space branch (s > 300) only when some element needs them, and masks the
undefined mu in place; every element still sees the same IEEE operations in
the same order as with both branches computed everywhere.
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
_EPS = float(np.finfo(float).eps)
# The c* window lambda = b (1 + e^u) over the threshold bracket's upper end b,
# its ends in u, and the points of its first zoom round, the scan.
_U_WINDOW = (math.log(4.0 * _EPS), math.log(3.0))
_GRID_POINTS = 2000
# Points per later round of the zoom that refines lambda*.
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
    """The s-dependent factors s / tanh(s) and sinh(s) / s, Taylor-expanded
    below the switchover to avoid 0/0.  The Taylor branch runs only when
    some element needs it.  Callers hold the errstate."""
    small = s < _TAYLOR_SWITCH
    if not np.count_nonzero(small):
        return s / np.tanh(s), np.sinh(s) / s
    s_safe = np.where(small, 1.0, s)
    r_tanh = np.where(small, 1.0 + s**2 / 3.0, s_safe / np.tanh(s_safe))
    sinh_over_s = np.where(small, 1.0 + s**2 / 6.0, np.sinh(s_safe) / s_safe)
    return r_tanh, sinh_over_s


def _log_sinh(s):
    return s - math.log(2.0) + np.log1p(-np.exp(-2.0 * s))


def _terms(lams, p: Parameters):
    """s, sinh(s) / s, Delta and g - G along a float array of lambdas.
    Callers hold the errstate."""
    alpha, beta, d, f0 = p.alpha, p.beta, p.d, p.fprime0
    s = np.sqrt(lams / d)
    r_tanh, sinh_over_s = _ratios(s)
    delta = alpha**2 + d * lams + 2.0 * alpha * (d * r_tanh)
    g_minus_G = (lams - f0) + 2.0 * beta * d * (lams + alpha * s * np.tanh(0.5 * s)) / delta
    return s, sinh_over_s, delta, g_minus_G


def _eval_arrays(lams: np.ndarray, p: Parameters):
    """Vectorized (delta, y, mu, c) along a float array of lambdas; mu, c are
    NaN where y <= 1.  The log-space branch runs only when some s exceeds
    its switchover."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s, sinh_over_s, delta, g_minus_G = _terms(lams, p)
        scale = delta / (2.0 * p.alpha * p.beta * p.d)
        ym1 = scale * g_minus_G * sinh_over_s
        # log-space rescue of |y - 1| where sinh overflowed; y - 1 keeps the
        # sign of g - G, so below the threshold y stays below 1
        big = s > _LOG_SWITCH
        any_big = np.count_nonzero(big)
        if any_big:
            lg = np.log(np.maximum(scale * np.abs(g_minus_G), 1e-300))
            log_ym1 = np.where(big, lg + _log_sinh(s) - np.log(s), 0.0)
            rescued = np.sign(g_minus_G) * np.exp(np.minimum(log_ym1, _HUGE_LOG))
            ym1 = np.where(big & ~np.isfinite(ym1), rescued, ym1)
        undefined = ~(ym1 > 0.0)
        # sqrt(y - 1) sqrt(y + 1): their product overflows from y ~ 1e154
        mu = np.log1p(ym1 + np.sqrt(ym1) * np.sqrt(ym1 + 2.0))
        if any_big:
            use_log = big & (log_ym1 > 40.0)
            mu[use_log] = (math.log(2.0) + log_ym1)[use_log]
        mu[undefined] = np.nan
        return delta, ym1 + 1.0, mu, lams / mu


def dispersion_eval(lam: float, p: Parameters) -> DispersionPoint:
    """Evaluate Delta, y, mu, c at one lambda >= 0; mu and c are None when
    y <= 1 (not an error: below the threshold no exponential solution exists)."""
    if lam < 0 or not math.isfinite(lam):
        raise ValueError("lambda must be finite and >= 0")
    delta, y, mu, c = (float(v[0]) for v in _eval_arrays(np.array([lam]), p))
    return DispersionPoint(float(lam), delta, y, None if math.isnan(mu) else mu,
                           None if math.isnan(c) else c)


def _scalar_terms(lam: float, p: Parameters):
    """s, Delta and g - G at one float lambda, in the math module; a Delta
    that overflows, with which g - G would read lambda - f'(0), or that
    underflows to 0, with which it would divide by zero, is rejected by
    name."""
    alpha, beta, d, f0 = p.alpha, p.beta, p.d, p.fprime0
    s = math.sqrt(lam / d)
    r_tanh = 1.0 + s * s / 3.0 if s < _TAYLOR_SWITCH else s / math.tanh(s)
    delta = alpha * alpha + d * lam + 2.0 * alpha * (d * r_tanh)
    if not 0.0 < delta < math.inf:
        raise ValueError(f"Delta {'underflows' if delta == 0.0 else 'overflows'} at "
                         f"lambda = {lam:.3e}: inadmissible parameters")
    return s, delta, (lam - f0) + 2.0 * beta * d * (lam + alpha * s * math.tanh(0.5 * s)) / delta


def _bracketed_root(fun):
    """Root of the increasing fun on floats, as (x, a, b, fa, fb): fun(a) = fa
    <= 0 < fb = fun(b), a NaN counting as <= 0, and x the end with the
    smaller |fun|.  Bracketed within a factor 2 by halving or doubling from
    x = 1, so scaling fun's argument by 2^n scales each bracket exactly;
    RuntimeError if x reaches 0 or inf.  Then closed to 4 ulps of b by
    Illinois steps (Dowell & Jarratt, BIT 11, 1971): regula falsi whose
    weight at an end kept twice running is halved; a bisection instead
    wherever the secant step is undefined or would not fall strictly inside,
    or the bracket is more than half as wide as three steps before.  So the
    bracket halves at least every 4 evaluations."""
    x = 1.0
    fx = fun(x)
    positive = fx > 0.0
    while (fx > 0.0) == positive:  # halve while fun > 0, double while it is <= 0
        last = (x, fx)
        x *= 0.5 if positive else 2.0
        if x == 0.0 or x == math.inf:
            raise RuntimeError(f"no root bracketed: halving or doubling from 1 reached {x}")
        fx = fun(x)
    (a, fa), (b, fb) = sorted((last, (x, fx)))
    wa, wb = fa, fb
    moved = 0  # +1 after a step moved b, -1 after one moved a
    widths = (math.inf,) * 3  # the bracket's widths three, two and one steps ago
    while b - a > 4.0 * math.ulp(b):
        x = b - wb * ((b - a) / (wb - wa)) if wb != wa else math.nan
        if not a < x < b or b - a > 0.5 * widths[0]:
            x = a + 0.5 * (b - a)
        widths = (*widths[1:], b - a)
        fx = fun(x)
        if fx > 0.0:
            if moved > 0:
                wa *= 0.5
            b, fb, wb, moved = x, fx, fx, 1
        else:
            if moved < 0:
                wb *= 0.5
            a, fa, wa, moved = x, fx, fx, -1
    return (a if abs(fa) <= abs(fb) else b), a, b, fa, fb


def _threshold(p: Parameters):
    """(lambda0, b): the threshold and the upper end of its bracket [a, b],
    the root of g - G by _bracketed_root.  The bracket is the certificate:
    g - G(a) <= 0 < g - G(b), else the threshold post-check fails."""
    if p.fprime0 <= 0:
        raise ValueError("threshold needs f'(0) > 0")
    lam0, _, b, g_a, g_b = _bracketed_root(lambda lam: _scalar_terms(lam, p)[2])
    if not g_a <= 0.0 < g_b:
        raise RuntimeError(f"threshold post-check failed: g - G = ({g_a:.3e}, {g_b:.3e}) "
                           f"at the bracket ends")
    return lam0, b


def find_lambda0(p: Parameters) -> float:
    """Unique lambda where y = 1, i.e. where the increasing g - G changes
    sign; see _threshold."""
    return _threshold(p)[0]


def compute_c_star(p: Parameters) -> DispersionResult:
    """Minimal speed c* = min over lambda > lambda0 of lambda / mu(lambda).

    One zoom in u = log(lambda / b - 1), b the upper end of the threshold
    bracket, over the window lambda in [b (1 + 4 eps), 4 b]: the first round
    scans it on _GRID_POINTS points and must find its smallest c strictly
    inside, else the minimum is rejected by name; each round keeps the
    neighbours of its smallest c (an undefined c, as roundoff in g - G can
    leave just above b, counts as +inf) until the bracket is 1e-9 wide in u
    or 4 eps wide in lambda.
    """
    lam0, b = _threshold(p)
    u = np.linspace(*_U_WINDOW, _GRID_POINTS)
    scan = None
    while True:
        lams = b * (1.0 + np.exp(u))
        values = _eval_arrays(lams, p)
        i = int(np.where(values[3] > 0.0, values[3], np.inf).argmin())
        if scan is None:
            if not 0 < i < len(u) - 1:
                raise RuntimeError(f"speed minimum on the {'lower' if i == 0 else 'upper'} "
                                   f"end of the window [b (1 + 4 eps), 4 b]")
            scan = DispersionScan(lams, *values)
        lo, hi = max(i - 1, 0), min(i + 1, len(u) - 1)
        if u[hi] - u[lo] <= 1e-9 or lams[hi] - lams[lo] <= 4.0 * _EPS * lams[hi]:
            break
        u = np.linspace(u[lo], u[hi], _ZOOM_POINTS)
    mu, c = values[2][i], values[3][i]
    if not c > 0.0:
        raise RuntimeError("refined minimizer fell below the threshold")
    interior = (scan.c[1:-1] < scan.c[:-2]) & (scan.c[1:-1] < scan.c[2:])
    result = DispersionResult(lam0, float(lams[i]), float(mu), float(c), scan,
                              tuple(float(v) for v in scan.lam[1:-1][interior]))
    res = exponential_ansatz_residual(result.lambda_star, result.mu_star, p)
    if not res <= 1e-8:
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
    s, delta, _ = _scalar_terms(lam, p)
    return s, math.sqrt(lam * p.d), p.beta / delta


def _edge_profile(s: float, sq: float, k: float, alpha: float, e_mu: float, left, right):
    """V and dV/dx at x from the factors (cosh, sinh) / sinh(s) at u = 1 - x
    (left) and u = x (right); e_mu = e^{-mu}."""
    cosh_l, sinh_l = left
    cosh_r, sinh_r = right
    v = k * (sq * cosh_l + alpha * sinh_l + e_mu * (sq * cosh_r + alpha * sinh_r))
    # k s underflows near d = 1e300 (k ~ 1 / d, s ~ 1 / sqrt(d)), so s multiplies the sums first
    vp = (k * (s * (-sq * sinh_l - alpha * cosh_l))
          + k * (e_mu * (s * (sq * sinh_r + alpha * cosh_r))))
    return v, vp


def profile_v(x, lam: float, mu: float, p: Parameters):
    """Edge profile of the exponential solution at decay rate mu and rate lam:

        V(x) = beta / (sinh(s) Delta) [sqrt(lam d) cosh(s (1-x)) + alpha sinh(s (1-x))]
             + beta e^{-mu} / (sinh(s) Delta) [sqrt(lam d) cosh(s x) + alpha sinh(s x)].
    """
    x = np.asarray(x, dtype=float)
    s, sq, k = _profile_scales(lam, p)
    out, _ = _edge_profile(s, sq, k, p.alpha, math.exp(-mu),
                           _hyperbolic_over_sinh(s, 1.0 - x), _hyperbolic_over_sinh(s, x))
    return float(out) if out.ndim == 0 else out


def profile_v_star(x, res: DispersionResult, p: Parameters):
    """Front profile V_* at the minimizing (lambda*, mu*); strictly positive."""
    return profile_v(x, res.lambda_star, res.mu_star, p)


def exponential_ansatz_residual(lam: float, mu: float, p: Parameters) -> float:
    """Largest relative residual of the four exponential-solution equations
    at (lam, mu, V): mu c = lam, the vertex balance, and both Robin rows."""
    alpha, beta, d, f0 = p.alpha, p.beta, p.d, p.fprime0
    c = lam / mu
    s, sq, k = _profile_scales(lam, p)
    e_mu = math.exp(-mu)
    cosh_u, sinh_u = _hyperbolic_over_sinh(s, (0.0, 1.0))
    at_0 = (float(cosh_u[0]), float(sinh_u[0]))   # u = 0
    at_1 = (float(cosh_u[1]), float(sinh_u[1]))   # u = 1
    v0, vp0 = _edge_profile(s, sq, k, alpha, e_mu, at_1, at_0)
    v1, vp1 = _edge_profile(s, sq, k, alpha, e_mu, at_0, at_1)
    # e^mu V(1) = beta / Delta [sqrt(lam d) (e^mu / sinh(s) + coth(s)) + alpha],
    # with e^mu / sinh(s) = 2 e^{mu - s} / (1 - e^{-2 s}): e^mu alone overflows at small d
    ev1 = k * (sq * (2.0 * math.exp(mu - s) / -math.expm1(-2.0 * s) + at_1[0]) + alpha)
    r1 = mu * c - lam
    vertex = f0 + alpha * (v0 + ev1) - 2.0 * beta
    r2 = mu * c - vertex
    r3 = -d * vp0 + alpha * v0 - beta
    r4 = d * vp1 + alpha * v1 - beta * e_mu
    s1 = max(1.0, abs(lam))
    s2 = max(1.0, abs(mu * c), abs(f0) + alpha * (abs(v0) + abs(ev1)) + 2.0 * beta)
    s3 = max(1.0, beta, d * abs(vp0) + alpha * abs(v0))
    s4 = max(1.0, beta * e_mu, d * abs(vp1) + alpha * abs(v1))
    return max(abs(r1) / s1, abs(r2) / s2, abs(r3) / s3, abs(r4) / s4)
