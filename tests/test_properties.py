"""Invariants of the spreading speeds c* and c*_inf over the box [0.1, 10]^4.

Scaling every rate (alpha, beta, d, f'(0)) by k is the time change t -> k t,
so it multiplies c* and c*_inf by exactly k; faster road diffusion can only
speed the front up, and the fast-diffusion limit bounds c* from above.  Each
property also runs at the 16 corners of the box.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from cityroad.asymptotic import compute_c_star_inf
from cityroad.dispersion import compute_c_star
from cityroad.model import Parameters, logistic

rate = st.floats(0.1, 10.0)
box_settings = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def params(alpha, beta, d, fprime0):
    return Parameters(alpha, beta, d, nonlinearity=logistic(fprime0))


def at_corners(ks=(), **fixed):
    """Add each corner of the box as an explicit example, once per scale k in
    ks, with the ``fixed`` values of the test's other arguments."""
    def add(test):
        for alpha, beta, d, f0 in itertools.product((0.1, 10.0), repeat=4):
            for extra in [{"k": k} for k in ks] or [{}]:
                test = example(alpha=alpha, beta=beta, d=d, f0=f0, **extra, **fixed)(test)
        return test
    return add


@box_settings
@given(alpha=rate, beta=rate, d=rate, f0=rate, k=rate)
@at_corners(ks=(0.1, 10.0))
@example(alpha=1.0, beta=1.0, d=1.0, f0=1.0, k=1e6)  # lambda0 scales with k: past 1e6 here
@example(alpha=1.0, beta=1.0, d=1.0, f0=1.0, k=1e8)
def test_c_star_time_rescaling(alpha, beta, d, f0, k):
    c = compute_c_star(params(alpha, beta, d, f0)).c_star
    c_k = compute_c_star(params(k * alpha, k * beta, k * d, k * f0)).c_star
    assert abs(c_k - k * c) <= 1e-9 * k * c


@box_settings
@given(alpha=rate, beta=rate, d=rate, f0=rate)
@at_corners()
def test_c_star_increases_with_d(alpha, beta, d, f0):
    assert compute_c_star(params(alpha, beta, d, f0)).c_star < compute_c_star(
        params(alpha, beta, 2.0 * d, f0)
    ).c_star


@box_settings
@given(alpha=rate, beta=rate, d=rate, f0=rate, k=rate)
@at_corners(ks=(0.1, 10.0))
def test_c_star_inf_time_rescaling(alpha, beta, d, f0, k):
    # also: the solver returns, post-checks passed, everywhere in the box
    c = compute_c_star_inf(params(alpha, beta, d, f0)).c_star_inf
    c_k = compute_c_star_inf(params(k * alpha, k * beta, k * d, k * f0)).c_star_inf
    assert abs(c_k - k * c) <= 1e-9 * k * c


@box_settings
@given(alpha=rate, beta=rate, d=rate, f0=rate)
@at_corners()
def test_c_star_below_c_star_inf(alpha, beta, d, f0):
    p = params(alpha, beta, d, f0)
    assert compute_c_star(p).c_star < compute_c_star_inf(p).c_star_inf


def test_c_star_inf_tangency_residual():
    # the grid {0.1, 1, 10}^4, then f'(0) = 2, alpha = 1e6 and f'(0) = 1e4, where
    # a mu* placed only to about sqrt(eps) misses even the solver's 1e-8 bound
    points = [*itertools.product((0.1, 1.0, 10.0), repeat=4),
              (1.0, 1.0, 1.0, 2.0), (1e6, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1e4)]
    residuals = {p: compute_c_star_inf(params(*p)).dpsi_dmu_residual for p in points}
    assert {p: r for p, r in residuals.items() if r > 1e-12} == {}
