import math

import numpy as np
import pytest

from cityroad.edge_solver import (
    EdgeGrid,
    RobinStepInput,
    assemble_step_operator,
    integral_representation_oracle,
    manufactured_loads,
    manufactured_profile,
    manufactured_solution_error,
    step_edge,
)
from cityroad.model import Parameters, logistic


@pytest.fixture
def p():
    return Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(1.0))


def ghost_node_laplacian(m, d, alpha):
    """Second-order Laplacian on x_i = i/m with the Robin condition folded into
    the end rows by ghost-node elimination; the load enters as (2/dx) g."""
    dx = 1.0 / m
    r = d / dx**2
    n = m + 1
    L = np.zeros((n, n))
    for i in range(1, n - 1):
        L[i, i - 1 : i + 2] = (r, -2.0 * r, r)
    L[0, 0] = L[-1, -1] = -2.0 * r - 2.0 * alpha / dx
    L[0, 1] = L[-1, -2] = 2.0 * r
    return L


def robin_constant_step(p, m=32, dt=1e-3):
    edge = EdgeGrid(np.full(m + 1, p.beta / p.alpha))
    g = p.beta
    return step_edge(RobinStepInput(edge, (g, g), (g, g), dt, p)), edge


class TestAssemble:
    def test_constant_is_fixed_point(self, p):
        out, edge = robin_constant_step(p)
        ulp = np.finfo(float).eps * max(1.0, p.beta / p.alpha)
        assert np.max(np.abs(out.values - edge.values)) <= 8 * ulp

    def test_constant_fixed_point_offunit_parameters(self):
        p = Parameters(0.8, 1.7, 2.5)
        out, edge = robin_constant_step(p)
        ulp = np.finfo(float).eps * max(1.0, p.beta / p.alpha)
        assert np.max(np.abs(out.values - edge.values)) <= 8 * ulp

    def test_zero_stays_zero(self, p):
        edge = EdgeGrid(np.zeros(33))
        out = step_edge(RobinStepInput(edge, (0.0, 0.0), (0.0, 0.0), 1e-3, p))
        assert np.all(out.values == 0.0)

    def test_dt_to_zero_consistency(self, p):
        rng = np.random.default_rng(5)
        m = 32
        vals = rng.uniform(0, 1, m + 1)
        edge = EdgeGrid(vals)
        dt = 1e-8
        out = step_edge(RobinStepInput(edge, (0.3, 0.3), (0.7, 0.7), dt, p))
        # one step deviates from the input by at most dt (|L v| + |load|)
        lv = ghost_node_laplacian(m, p.d, p.alpha) @ vals
        bound = dt * (np.max(np.abs(lv)) + 2.0 * m * 0.7) * 1.1
        assert np.max(np.abs(out.values - vals)) <= bound

    def test_rejects_bad_sizes(self, p):
        with pytest.raises(ValueError):
            assemble_step_operator(1, 1e-3, p)
        with pytest.raises(ValueError):
            assemble_step_operator(16, -1e-3, p)


class TestStepEdge:
    def test_manufactured_single_step(self, p):
        m, dt = 32, 1e-3
        x = np.arange(m + 1) / m
        edge = EdgeGrid(manufactured_profile(0.0, x, p))
        g0, h0 = manufactured_loads(0.0, p)
        g1, h1 = manufactured_loads(dt, p)
        out = step_edge(RobinStepInput(edge, (g0, g1), (h0, h1), dt, p))
        err = np.max(np.abs(out.values - manufactured_profile(dt, x, p)))
        # one-step error O(dt^3 + dt dx^2); generous envelope
        assert err <= 50.0 * (dt**3 + dt / m**2)

    def test_monotone_fill_toward_equilibrium(self, p):
        # zero start, constant loads beta: values rise toward beta/alpha
        m, dt = 32, 9e-4  # d dt / dx^2 < 1: monotone regime
        edge = EdgeGrid(np.zeros(m + 1))
        prev = edge.values
        for _ in range(200):
            edge = step_edge(RobinStepInput(edge, (p.beta, p.beta), (p.beta, p.beta), dt, p))
            assert np.all(edge.values >= prev - 1e-12)
            assert np.all(edge.values <= p.beta / p.alpha + 1e-12)
            prev = edge.values

    def test_linearity(self, p):
        rng = np.random.default_rng(7)
        e1 = rng.uniform(0, 1, 33)
        e2 = rng.uniform(0, 1, 33)
        g1, g2 = (0.2, 0.4), (0.9, 0.1)
        h1, h2 = (0.5, 0.5), (0.3, 0.8)
        a, b = 1.7, -0.6
        dt = 1e-3
        combo = step_edge(RobinStepInput(
            EdgeGrid(a * e1 + b * e2),
            (a * g1[0] + b * g2[0], a * g1[1] + b * g2[1]),
            (a * h1[0] + b * h2[0], a * h1[1] + b * h2[1]),
            dt, p,
        ))
        s1 = step_edge(RobinStepInput(EdgeGrid(e1), g1, h1, dt, p))
        s2 = step_edge(RobinStepInput(EdgeGrid(e2), g2, h2, dt, p))
        assert np.allclose(combo.values, a * s1.values + b * s2.values, rtol=1e-12, atol=1e-13)

    def test_positivity_with_nonneg_data(self, p):
        rng = np.random.default_rng(9)
        m, dt = 32, 9e-4
        smooth = np.convolve(rng.uniform(0, 1, m + 5), np.ones(5) / 5, mode="valid")
        edge = EdgeGrid(np.abs(smooth))
        for _ in range(100):
            edge = step_edge(RobinStepInput(edge, (0.5, 0.5), (0.2, 0.2), dt, p))
            assert np.min(edge.values) >= -1e-12

    def test_rejects_nan(self, p):
        with pytest.raises(ValueError):
            RobinStepInput(EdgeGrid(np.zeros(9)), (math.nan, 0.0), (0.0, 0.0), 1e-3, p)


class TestManufacturedHarness:
    def test_refinement_order(self, p):
        e32 = manufactured_solution_error(32, 1e-3, 0.1, p)
        e64 = manufactured_solution_error(64, 2.5e-4, 0.1, p)
        assert math.isfinite(e32)
        assert e32 / e64 >= 3.5  # observed order >= 1.8

    def test_t_zero(self, p):
        assert manufactured_solution_error(32, 1e-3, 0.0, p) == 0.0

    def test_d_zero_rejected(self):
        with pytest.raises(ValueError):
            Parameters(1.0, 1.0, 0.0)

    def test_t_not_multiple_rejected(self, p):
        with pytest.raises(ValueError):
            manufactured_solution_error(32, 1e-3, 0.0005, p)


class TestIntegralOracle:
    def test_manufactured_midpoint(self, p):
        t, n = 0.05, 512
        ts = np.arange(n + 1) * (t / n)
        g = np.array([manufactured_loads(s, p)[0] for s in ts])
        h = np.array([manufactured_loads(s, p)[1] for s in ts])
        v0 = lambda y: np.cos(math.pi * np.asarray(y))
        val = integral_representation_oracle(v0, g, h, t, 0.5, p)
        assert abs(val) <= 1e-6  # exact solution vanishes at x = 1/2

    def test_manufactured_traces(self, p):
        t, n = 0.05, 512
        ts = np.arange(n + 1) * (t / n)
        g = np.array([manufactured_loads(s, p)[0] for s in ts])
        h = np.array([manufactured_loads(s, p)[1] for s in ts])
        v0 = lambda y: np.cos(math.pi * np.asarray(y))
        for x in (0.0, 1.0):
            val = integral_representation_oracle(v0, g, h, t, x, p)
            assert val == pytest.approx(manufactured_profile(t, x, p), abs=1e-6)

    def test_zero_data(self, p):
        ts = np.zeros(65)
        val = integral_representation_oracle(lambda y: 0.0 * np.asarray(y), ts, ts, 0.1, 0.3, p)
        assert val == 0.0

    def test_rejects_bad_samples(self, p):
        with pytest.raises(ValueError):
            integral_representation_oracle(lambda y: 0.0 * np.asarray(y),
                                           np.zeros(5), np.zeros(6), 0.1, 0.5, p)
        with pytest.raises(ValueError):
            integral_representation_oracle(lambda y: 0.0 * np.asarray(y),
                                           np.zeros(5), np.zeros(5), -0.1, 0.5, p)
