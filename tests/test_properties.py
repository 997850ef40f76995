"""Invariants of the spreading speeds c* and c*_inf over the box [0.1, 10]^4.

Scaling every rate (alpha, beta, d, f'(0)) by k is the time change t -> k t,
so it multiplies c* and c*_inf by exactly k, and by k bit for bit where k
is a power of two; faster road diffusion can only speed the front up, and
the fast-diffusion limit bounds c* from above.  Each property also runs at
the 16 corners of the box.  The time rescaling of both speeds also runs
over the log box [1e-6, 1e6]^4, with k from 1e-14 to 1e14 at (1, 1, 1, 1),
and both solvers run at seeded points of the log boxes [1e-6, 1e6]^4,
[1e-12, 1e12]^4 and [1e-15, 1e15]^4.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cityroad import asymptotic, dispersion
from cityroad.asymptotic import compute_c_star_inf
from cityroad.dispersion import compute_c_star, find_lambda0
from cityroad.model import Parameters, logistic

rate = st.floats(0.1, 10.0)
log_rate = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)  # log-uniform on [1e-6, 1e6]
EPS = float(np.finfo(float).eps)
box_settings = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def params(alpha, beta, d, fprime0):
    return Parameters(alpha, beta, d, nonlinearity=logistic(fprime0))


def wide_box_points(decades):
    """400 seeded points of the log box [10^-decades, 10^decades]^4."""
    return [tuple(float(v) for v in q)
            for q in 10.0 ** np.random.default_rng(7).uniform(-decades, decades, (400, 4))]


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
@given(alpha=log_rate, beta=log_rate, d=log_rate, f0=log_rate, k=log_rate)
@example(alpha=1.0, beta=1.0, d=1.0, f0=1.0, k=1e-14)
@example(alpha=1.0, beta=1.0, d=1.0, f0=1.0, k=1e14)
def test_c_star_time_rescaling_log_box(alpha, beta, d, f0, k):
    c = compute_c_star(params(alpha, beta, d, f0)).c_star
    c_k = compute_c_star(params(k * alpha, k * beta, k * d, k * f0)).c_star
    assert c > 0.0 and c_k > 0.0
    assert abs(c_k - k * c) <= 1e-9 * k * c


@pytest.mark.parametrize("n", [-30, -7, -1, 1, 5, 30])
def test_power_of_two_time_rescaling_is_exact(n):
    # every rounding scales with the rates by 2^n, and each lambda0 bracket
    # is a power-of-two interval [2^m, 2^(m+1)] before it closes
    k = 2.0 ** n
    for q in np.random.default_rng(3).uniform(0.1, 10.0, (60, 4)):
        q = [float(v) for v in q]
        p, p_k = params(*q), params(*(k * v for v in q))
        res, res_k = compute_c_star(p), compute_c_star(p_k)
        assert (res_k.lambda0, res_k.c_star) == (k * res.lambda0, k * res.c_star), q
        assert compute_c_star_inf(p_k).c_star_inf == k * compute_c_star_inf(p).c_star_inf, q


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
@given(alpha=log_rate, beta=log_rate, d=log_rate, f0=log_rate, k=log_rate)
@example(alpha=1.0, beta=1.0, d=1.0, f0=1.0, k=1e-14)
@example(alpha=1.0, beta=1.0, d=1.0, f0=1.0, k=1e14)
@example(alpha=0.1, beta=1e5, d=1.0, f0=1e-5, k=1e-14)  # beta/alpha = 1e6
@example(alpha=0.1, beta=1e5, d=1.0, f0=1e-5, k=1e14)
def test_c_star_inf_time_rescaling_log_box(alpha, beta, d, f0, k):
    c = compute_c_star_inf(params(alpha, beta, d, f0)).c_star_inf
    c_k = compute_c_star_inf(params(k * alpha, k * beta, k * d, k * f0)).c_star_inf
    assert c > 0.0 and c_k > 0.0
    assert abs(c_k - k * c) <= 1e-9 * k * c


@box_settings
@given(alpha=rate, beta=rate, d=rate, f0=rate)
@at_corners()
def test_c_star_below_c_star_inf(alpha, beta, d, f0):
    p = params(alpha, beta, d, f0)
    assert compute_c_star(p).c_star < compute_c_star_inf(p).c_star_inf


def test_speeds_over_wide_log_boxes():
    # 400 seeded points each of [1e-6, 1e6]^4, [1e-12, 1e12]^4 and
    # [1e-15, 1e15]^4: both solvers return, the minimizer sits within the c*
    # window's first half (lambda* <= 2 lambda0, up to a flat minimum's
    # sqrt(eps) placement), and c* < c*_inf up to a roundoff tie where d
    # makes c*(d) meet c*_inf
    for decades in (6, 12, 15):
        for q in wide_box_points(decades):
            p = params(*q)
            res = compute_c_star(p)
            assert res.lambda_star <= 2.0 * res.lambda0 * (1.0 + 1e-7), q
            assert res.c_star <= compute_c_star_inf(p).c_star_inf * (1.0 + 4.0 * EPS), q


def test_threshold_evaluations_over_wide_log_boxes(monkeypatch):
    # g - G evaluations per lambda0 and g(mu) evaluations per c*_inf (with
    # the one for root' at mu*), the bracketing from 1 included, at the same
    # 1200 points: the most in each box (medians 26.5, 54.5 and 62.5 for
    # g - G; 24, 32 and 35 for g(mu))
    calls = []

    def counted(real):
        def call(x, p):
            calls.append(x)
            return real(x, p)
        return call

    monkeypatch.setattr(dispersion, "_scalar_terms", counted(dispersion._scalar_terms))
    monkeypatch.setattr(asymptotic, "_tangency", counted(asymptotic._tangency))
    largest = {}
    for decades in (6, 12, 15):
        counts = []
        for q in wide_box_points(decades):
            calls.clear()
            find_lambda0(params(*q))
            threshold = len(calls)
            calls.clear()
            compute_c_star_inf(params(*q))
            counts.append((threshold, len(calls)))
        largest[decades] = tuple(max(c) for c in zip(*counts))
    bounds = {6: (73, 56), 12: (149, 74), 15: (161, 81)}
    assert all(n <= cap for d in bounds for n, cap in zip(largest[d], bounds[d])), largest


def test_c_star_inf_tangency_residual():
    # the grid {0.1, 1, 10}^4, then f'(0) = 2, alpha = 1e6 and f'(0) = 1e4, where
    # a mu* placed only to about sqrt(eps) misses even the solver's 1e-8 bound:
    # every tangency bracket changes sign, and |dPsi/dmu| / root' stays at roundoff
    points = [*itertools.product((0.1, 1.0, 10.0), repeat=4),
              (1.0, 1.0, 1.0, 2.0), (1e6, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1e4)]
    speeds = {p: compute_c_star_inf(params(*p)) for p in points}
    assert {p: s.tangency_bracket for p, s in speeds.items()
            if not s.tangency_bracket[0] <= 0.0 < s.tangency_bracket[1]} == {}
    assert {p: s.dpsi_dmu_residual for p, s in speeds.items() if s.dpsi_dmu_residual > 1e-12} == {}
