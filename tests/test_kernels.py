import numpy as np
import pytest

from cityroad import kernels
from cityroad.edge_solver import assemble_step_operator
from cityroad.lattice_sim import step_system
from cityroad.model import LatticeState, Parameters, logistic


def cn_oracle(values, gl, gr, m, dt, d, alpha):
    """Crank-Nicolson step of the Robin heat equation, assembled densely from
    the ghost-node formulas and solved with np.linalg.solve."""
    dx = 1.0 / m
    r = d / dx**2
    n = m + 1
    L = np.zeros((n, n))
    for i in range(1, n - 1):
        L[i, i - 1 : i + 2] = (r, -2.0 * r, r)
    L[0, 0] = L[-1, -1] = -2.0 * r - 2.0 * alpha / dx
    L[0, 1] = L[-1, -2] = 2.0 * r
    rhs = values @ (np.eye(n) + 0.5 * dt * L).T
    rhs[..., 0] += dt * (2.0 / dx) * gl
    rhs[..., -1] += dt * (2.0 / dx) * gr
    return np.linalg.solve(np.eye(n) - 0.5 * dt * L, rhs.T).T


class TestDensePropagator:
    # (m, dt, d, alpha); d = 50 at m = 32 is stiff: d dt / dx^2 = 51.2.
    CASES = [
        (16, 1e-3, 1.0, 1.0),
        (32, 2.5e-3, 0.3, 2.0),
        (64, 2.5e-4, 1.0, 0.5),
        (32, 1e-3, 50.0, 1.0),
    ]

    @pytest.mark.parametrize("m,dt,d,alpha", CASES)
    def test_matches_dense_solve(self, m, dt, d, alpha):
        rng = np.random.default_rng(m)
        p = Parameters(alpha, 1.0, d, nonlinearity=logistic(1.0))
        op = assemble_step_operator(m, dt, p)
        v = rng.uniform(0.0, 1.0, (9, m + 1))
        gl = rng.uniform(0.0, 1.0, 9)
        gr = rng.uniform(0.0, 1.0, 9)
        want = cn_oracle(v, gl, gr, m, dt, d, alpha)
        assert np.max(np.abs(op.apply(v, gl, gr) - want)) <= 1e-12
        single = op.apply(v[3], gl[3], gr[3])
        assert single.shape == (m + 1,)
        assert np.max(np.abs(single - want[3])) <= 1e-12

    def test_operator_is_read_only(self):
        op = assemble_step_operator(8, 1e-3, Parameters(1.0, 1.0, 1.0))
        assert op.step_matrix.shape == (11, 9)
        assert not op.step_matrix.flags.writeable


class TestAdvanceLattice:
    def test_matches_repeated_step_system(self):
        rng = np.random.default_rng(2)
        p = Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(1.0))
        m, dt, nsteps = 16, 1e-3, 25
        v0 = rng.uniform(0.0, 1.0, (12, m + 1))
        rho0 = rng.uniform(0.0, 1.0, 13)
        v0_in, rho0_in = v0.copy(), rho0.copy()
        op = assemble_step_operator(m, dt, p)
        v, rho, leak = kernels.advance_lattice(v0, rho0, nsteps, dt, p.alpha, p.beta,
                                               p.nonlinearity, op)
        assert np.array_equal(v0, v0_in) and np.array_equal(rho0, rho0_in)
        s = LatticeState(0, 12, rho0, v0, 0.0)
        leak_ref = 0.0
        for _ in range(nsteps):
            s1 = step_system(s, dt, p)
            leak_ref += 0.5 * dt * p.beta * (s.rho[0] + s1.rho[0] + s.rho[-1] + s1.rho[-1])
            s = s1
        assert np.max(np.abs(v - s.edges)) <= 1e-12
        assert np.max(np.abs(rho - s.rho)) <= 1e-12
        assert abs(leak - leak_ref) <= 1e-12

    def test_one_step_matches_reference_imex(self):
        rng = np.random.default_rng(3)
        p = Parameters(0.7, 1.3, 2.0, nonlinearity=logistic(1.5))
        m, dt = 8, 1e-3
        v = rng.uniform(0.0, 1.0, (5, m + 1))
        rho = rng.uniform(0.0, 1.0, 6)
        op = assemble_step_operator(m, dt, p)
        v1, rho1, _ = kernels.advance_lattice(v, rho, 1, dt, p.alpha, p.beta,
                                              p.nonlinearity, op)

        def vertex_rhs(r, edges):
            incoming = np.zeros_like(r)
            incoming[:-1] += edges[:, 0]
            incoming[1:] += edges[:, -1]
            return 1.5 * r * (1.0 - r) + p.alpha * incoming - 2.0 * p.beta * r

        rhs0 = vertex_rhs(rho, v)
        rho_t = rho + dt * rhs0
        g = 0.5 * p.beta * (rho + rho_t)
        v_ref = cn_oracle(v, g[:-1], g[1:], m, dt, p.d, p.alpha)
        rho_ref = rho + 0.5 * dt * (rhs0 + vertex_rhs(rho_t, v_ref))
        assert np.max(np.abs(v1 - v_ref)) <= 1e-12
        assert np.max(np.abs(rho1 - rho_ref)) <= 1e-12
