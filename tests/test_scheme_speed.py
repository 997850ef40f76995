"""The simulator's own spreading speed as an independent check of c* and c*_inf.

Put rho_j = R e^{-mu j}, v_j = V e^{-mu j} into the semi-discrete linearized
lattice with m intervals per road.  One cell (a vertex and the m+1 nodes of
its road) gives an (m+2) x (m+2) matrix A(mu):

* the vertex row is (f'(0) - 2 beta) R + alpha (V_0 + e^mu V_m);
* the road rows are the ghost-node Laplacian L of ``edge_solver``, with the
  Robin loads (2/dx) beta R at x = 0 and (2/dx) beta e^{-mu} R at x = 1.

A(mu) has nonnegative off-diagonal entries, so its principal eigenvalue
lam(mu) is real, and it is convex in mu.  The scheme's speed is
c_m = min over mu of lam(mu) / mu, which tends to c* at second order in 1/m.
The limit system's cell is the 2x2 matrix
[[f'(0) - 2 beta, alpha (1 + e^mu)], [beta (1 + e^{-mu}), -2 alpha]], whose
speed is c*_inf exactly.  Neither shares code with the speed solvers: here a
dense eigenvalue, there a closed-form dispersion relation.
"""

import math

import numpy as np
import pytest

from cityroad.asymptotic import compute_c_star_inf
from cityroad.dispersion import compute_c_star
from cityroad.model import Parameters, logistic

POINTS = [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 64.0, 1.0), (2.0, 0.5, 0.3, 3.0)]


def params(alpha, beta, d, fprime0):
    return Parameters(alpha, beta, d, nonlinearity=logistic(fprime0))


def min_over_mu(lam):
    """min over mu in [1e-3, 30] of lam(mu) / mu by golden-section search;
    lam(mu) / mu is unimodal because lam is convex with lam(0) > 0."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-3, 30.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    c1, c2 = lam(x1) / x1, lam(x2) / x2
    while hi - lo > 1e-9 * hi:
        if c1 < c2:
            hi, x2, c2 = x2, x1, c1
            x1 = hi - ratio * (hi - lo)
            c1 = lam(x1) / x1
        else:
            lo, x1, c1 = x1, x2, c2
            x2 = lo + ratio * (hi - lo)
            c2 = lam(x2) / x2
    return min(c1, c2)


def cell_matrix(mu, m, alpha, beta, d, fprime0):
    n = m + 1
    dx = 1.0 / m
    r = d / dx**2
    a = np.zeros((n + 1, n + 1))
    lap = a[1:, 1:]
    lap += r * (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1))
    lap[0, 1] = lap[n - 1, n - 2] = 2.0 * r
    lap[0, 0] = lap[n - 1, n - 1] = -2.0 * r - 2.0 * alpha / dx
    a[0, 0] = fprime0 - 2.0 * beta
    a[0, 1] = alpha
    a[0, n] = alpha * math.exp(mu)
    a[1, 0] = 2.0 / dx * beta
    a[n, 0] = 2.0 / dx * beta * math.exp(-mu)
    return a


def scheme_speed(m, q):
    return min_over_mu(lambda mu: np.linalg.eigvals(cell_matrix(mu, m, *q)).real.max())


def limit_cell_speed(alpha, beta, d, fprime0):
    def lam(mu):
        cell = np.array([[fprime0 - 2.0 * beta, alpha * (1.0 + math.exp(mu))],
                         [beta * (1.0 + math.exp(-mu)), -2.0 * alpha]])
        return np.linalg.eigvals(cell).real.max()
    return min_over_mu(lam)


@pytest.mark.parametrize("q", POINTS)
def test_scheme_speed_converges_to_c_star_at_second_order(q):
    c_star = compute_c_star(params(*q)).c_star
    c16, c32 = scheme_speed(16, q), scheme_speed(32, q)
    e16, e32 = c16 - c_star, c32 - c_star
    assert 3.5 <= e16 / e32 <= 4.5
    # Richardson's (4 c_32 - c_16) / 3 removes the 1/m^2 term.  Measured
    # relative errors: 1.3e-9, 7e-12 and 2.0e-6 at the three points, which
    # is 0.03%, 0.001% and 0.5% of the m = 32 error; the bound is 2%.
    richardson = (4.0 * c32 - c16) / 3.0
    assert abs(richardson - c_star) <= 0.02 * abs(e32)


@pytest.mark.parametrize("q", POINTS)
def test_limit_cell_speed_is_c_star_inf(q):
    c_inf = compute_c_star_inf(params(*q)).c_star_inf
    assert limit_cell_speed(*q) == pytest.approx(c_inf, rel=1e-13)
