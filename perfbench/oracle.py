"""Reference spreading speeds, computed without importing cityroad.

``c_star`` solves the dispersion relation cosh(lambda / c) = y(lambda) of the
coupled lattice, with s = sqrt(lambda / d) and

    Delta(lambda) = alpha^2 + d lambda + 2 alpha sqrt(d lambda) / tanh(s),
    y(lambda) = [Delta / (2 alpha beta) (lambda + 2 beta - f'(0))
                 - (alpha + sqrt(d lambda) / tanh(s))] sinh(s) / sqrt(d lambda),

as c* = min over lambda > lambda0 of lambda / arccosh(y(lambda)), where
y(lambda0) = 1.  The threshold comes from Brent's root finder and the minimum
from Brent's minimizer on a bracket doubled until its middle point is lowest
(the package itself scans a fixed grid and refines by golden section).
Writing sqrt(d lambda) = d s keeps y finite for small s, and y is evaluated
in log space, so large s does not overflow.

``c_star_inf`` solves the tangency of the limit system,
Psi(c, mu) = -(2 alpha + 2 beta - f'(0)) + sqrt(DeltaInf(mu)) - 2 mu c with
DeltaInf(mu) = (2 alpha - 2 beta + f'(0))^2 + 8 alpha beta (1 + cosh mu):
Psi = dPsi/dmu = 0 reduces to one root of mu sqrt(DeltaInf)' = root(mu), found
with Brent's method (the package minimizes c_plus(mu) by golden section).
"""

from __future__ import annotations

import math

from scipy.optimize import brentq, minimize_scalar

_SERIES_S = 1e-4
_LOG_Y_BIG = 20.0  # above this log(y), arccosh(y) = log(2 y) to 1e-17


def _s_over_tanh(s: float) -> float:
    return 1.0 + s * s / 3.0 if s < _SERIES_S else s / math.tanh(s)


def _log_sinh_over_s(s: float) -> float:
    if s < _SERIES_S:
        return math.log1p(s * s / 6.0)
    if s < 20.0:
        return math.log(math.sinh(s) / s)
    return s - math.log(2.0) + math.log1p(-math.exp(-2.0 * s)) - math.log(s)


def log_y(lam: float, alpha: float, beta: float, d: float, f0: float) -> float:
    """log y(lambda), or -inf where y <= 0; log space keeps large s finite."""
    s = math.sqrt(lam / d)
    a_term = d * _s_over_tanh(s)  # sqrt(d lam) / tanh(s)
    delta = alpha * alpha + d * lam + 2.0 * alpha * a_term
    bracket = delta / (2.0 * alpha * beta) * (lam + 2.0 * beta - f0) - (alpha + a_term)
    if bracket <= 0.0:
        return -math.inf
    return math.log(bracket) + _log_sinh_over_s(s) - math.log(d)


def _y_minus_1(lam: float, alpha, beta, d, f0) -> float:
    return math.exp(min(log_y(lam, alpha, beta, d, f0), 700.0)) - 1.0


def _speed(lam: float, alpha, beta, d, f0) -> float:
    ly = log_y(lam, alpha, beta, d, f0)
    if ly > _LOG_Y_BIG:
        return lam / (math.log(2.0) + ly)
    y = math.exp(ly)
    if y <= 1.0:
        return math.inf
    return lam / math.acosh(y)


def lambda0(alpha: float, beta: float, d: float, f0: float) -> float:
    """Threshold where y = 1; y(0+) = 1 - (alpha + 2d) f'(0) / (2 beta d) < 1."""
    hi = max(f0, 1e-3)
    while _y_minus_1(hi, alpha, beta, d, f0) <= 0.0:
        hi *= 2.0
    return brentq(_y_minus_1, 0.0, hi, args=(alpha, beta, d, f0),
                  xtol=1e-300, rtol=1e-15, maxiter=500)


def c_star(alpha: float, beta: float, d: float, f0: float) -> float:
    """Minimal speed of the coupled lattice."""
    lam0 = lambda0(alpha, beta, d, f0)
    # Grow a bracket (lo, mid, hi) with c(mid) below both ends: c -> inf at
    # lambda0 and c grows without bound as lambda -> inf.
    lo = lam0
    mid = 2.0 * lam0
    hi = 4.0 * lam0
    while _speed(hi, alpha, beta, d, f0) <= _speed(mid, alpha, beta, d, f0):
        lo, mid, hi = mid, hi, 2.0 * hi
    res = minimize_scalar(lambda x: _speed(x, alpha, beta, d, f0), bracket=(lo, mid, hi),
                          method="brent", tol=1e-12)
    return float(res.fun)


def _limit_root(mu: float, alpha, beta, f0) -> tuple[float, float]:
    """(root, sqrt(DeltaInf)) with root = -(2a + 2b - f0) + sqrt(DeltaInf),
    written without cancellation: DeltaInf - (2a + 2b - f0)^2
    = 8 a f0 + 16 a b sinh^2(mu / 2)."""
    b_coef = 2.0 * alpha + 2.0 * beta - f0
    sh = math.sinh(0.5 * mu)
    gap = 8.0 * alpha * f0 + 16.0 * alpha * beta * sh * sh
    sq = math.sqrt(b_coef * b_coef + gap)
    root = gap / (sq + b_coef) if b_coef > 0 else sq - b_coef
    return root, sq


def c_star_inf(alpha: float, beta: float, d: float, f0: float) -> float:
    """Limit speed: the tangency point of Psi; d is accepted and ignored."""
    del d

    def tangency(mu):
        root, sq = _limit_root(mu, alpha, beta, f0)
        return mu * 4.0 * alpha * beta * math.sinh(mu) / sq - root

    hi = 1.0
    while tangency(hi) <= 0.0:
        hi *= 2.0
    mu = brentq(tangency, 0.0, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
    root, _ = _limit_root(mu, alpha, beta, f0)
    return root / (2.0 * mu)


def self_check(points, ks, rel_tol: float = 1e-9) -> list[str]:
    """Properties the method must have, on the oracle itself: exact time
    rescaling c(k p) = k c(p) for both speeds, c* < c*_inf, and c*(d)
    increasing toward c*_inf as d grows.  Returns the violations."""
    errors = []
    for p, k in zip(points, ks):
        kp = tuple(k * v for v in p)
        cs, ci = c_star(*p), c_star_inf(*p)
        for name, base, twin in (("c*", cs, c_star(*kp)), ("c*_inf", ci, c_star_inf(*kp))):
            if abs(twin - k * base) > rel_tol * k * base:
                errors.append(f"oracle {name} breaks time rescaling at {p}, k={k}")
        if not cs < ci:
            errors.append(f"oracle c*={cs} is not below c*_inf={ci} at {p}")
        alpha, beta, d, f0 = p
        ladder = [c_star(alpha, beta, d * 10.0**j, f0) for j in range(0, 7, 2)]
        gaps = [ci - c for c in ladder]
        if not (all(a < b for a, b in zip(ladder, ladder[1:])) and gaps[-1] < 1e-2 * ci):
            errors.append(f"oracle c*(d) does not rise toward c*_inf at {p}: {ladder} vs {ci}")
    return errors
