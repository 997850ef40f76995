"""Invariants of the spreading speed c* over the parameter box [0.1, 10]^4.

Scaling every rate (alpha, beta, d, f'(0)) by k is the time change t -> k t,
so it multiplies c* by exactly k; faster road diffusion can only speed the
front up.  Each property also runs at the 16 corners of the box.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from cityroad.dispersion import compute_c_star
from cityroad.model import Parameters, logistic

rate = st.floats(0.1, 10.0)
box_settings = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def params(alpha, beta, d, fprime0):
    return Parameters(alpha, beta, d, nonlinearity=logistic(fprime0))


def at_corners(ks=()):
    """Add each corner of the box as an explicit example, once per scale k in ks."""
    def add(test):
        for alpha, beta, d, f0 in itertools.product((0.1, 10.0), repeat=4):
            for extra in [{"k": k} for k in ks] or [{}]:
                test = example(alpha=alpha, beta=beta, d=d, f0=f0, **extra)(test)
        return test
    return add


@box_settings
@given(alpha=rate, beta=rate, d=rate, f0=rate, k=rate)
@at_corners(ks=(0.1, 10.0))
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
