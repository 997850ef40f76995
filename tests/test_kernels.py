import numpy as np
import pytest

from cityroad import kernels
from cityroad.edge_solver import assemble_step_operator
from cityroad.model import Parameters, logistic


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
                                               p.fprime0, op)
        assert np.array_equal(v0, v0_in) and np.array_equal(rho0, rho0_in)
        v_ref, rho_ref, leak_ref = v0, rho0, 0.0
        for _ in range(nsteps):
            v_ref, rho1, _ = kernels.advance_lattice(v_ref, rho_ref, 1, dt, p.alpha, p.beta,
                                                     p.fprime0, op)
            leak_ref += 0.5 * dt * p.beta * (rho_ref[0] + rho1[0] + rho_ref[-1] + rho1[-1])
            rho_ref = rho1
        assert np.array_equal(v, v_ref)
        assert np.array_equal(rho, rho_ref)
        assert leak == leak_ref

    def test_one_step_matches_reference_imex(self):
        rng = np.random.default_rng(3)
        p = Parameters(0.7, 1.3, 2.0, nonlinearity=logistic(1.5))
        m, dt = 8, 1e-3
        v = rng.uniform(0.0, 1.0, (5, m + 1))
        rho = rng.uniform(0.0, 1.0, 6)
        op = assemble_step_operator(m, dt, p)
        v1, rho1, _ = kernels.advance_lattice(v, rho, 1, dt, p.alpha, p.beta,
                                              p.fprime0, op)

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


def lattice_reference(v, rho, nsteps, dt, alpha, beta, rate, op):
    """The IMEX step written per array, one new array per operation, with the
    reaction as ``model.logistic(rate)`` evaluates it."""
    reaction = logistic(rate)

    def incoming(edges):
        inc = np.zeros(len(rho))
        inc[: len(edges)] += edges[:, 0]
        inc[1:] += edges[:, -1]
        return inc

    leak = 0.0
    for _ in range(nsteps):
        rhs0 = reaction(rho) + alpha * incoming(v) - 2.0 * beta * rho
        rho_t = rho + dt * rhs0
        g = 0.5 * beta * (rho + rho_t)
        v = op.apply(v, g[:-1], g[1:])
        rhs1 = reaction(rho_t) + alpha * incoming(v) - 2.0 * beta * rho_t
        rho_new = rho + 0.5 * dt * (rhs0 + rhs1)
        leak += 0.5 * dt * beta * (rho[0] + rho_new[0] + rho[-1] + rho_new[-1])
        rho = rho_new
    return v, rho, leak


def asym_reference(V, P, nsteps, dt, alpha, beta, rate):
    """Classical RK4 of the limit system written per array (V and P apart)."""

    def deriv(V, P):
        dV = -2.0 * alpha * V + beta * (P[:-1] + P[1:])
        incoming = np.zeros(len(P))
        incoming[: len(V)] += V
        incoming[1:] += V
        dP = rate * P * (1.0 - P) + alpha * incoming - 2.0 * beta * P
        return dV, dP, beta * (P[0] + P[-1])

    leak = 0.0
    for _ in range(nsteps):
        k1v, k1p, k1l = deriv(V, P)
        k2v, k2p, k2l = deriv(V + 0.5 * dt * k1v, P + 0.5 * dt * k1p)
        k3v, k3p, k3l = deriv(V + 0.5 * dt * k2v, P + 0.5 * dt * k2p)
        k4v, k4p, k4l = deriv(V + dt * k3v, P + dt * k3p)
        V = V + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        P = P + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        leak += dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
    return V, P, leak


class TestBitIdentical:
    """The buffered kernels do the per-array forms' IEEE operations in the
    same order, so their results are equal, not merely close.  A last-bit
    change in a derivative mostly vanishes in the state update at small dt,
    so the long run on the default-size window is the sensitive case."""

    ALPHA, BETA, DT = 0.7, 1.3, 1e-3

    @pytest.mark.parametrize("rate", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("nsteps", [1, 37, 500])
    @pytest.mark.parametrize("n_vertices", [2, 13, 101])
    def test_lattice(self, rate, nsteps, n_vertices):
        rng = np.random.default_rng(n_vertices + nsteps)
        p = Parameters(self.ALPHA, self.BETA, 2.0, nonlinearity=logistic(rate))
        m = 8
        op = assemble_step_operator(m, self.DT, p)
        v0 = rng.uniform(0.0, 1.0, (n_vertices - 1, m + 1))
        rho0 = rng.uniform(0.0, 1.0, n_vertices)
        v0_in, rho0_in = v0.copy(), rho0.copy()
        args = (nsteps, self.DT, p.alpha, p.beta, p.fprime0, op)
        v, rho, leak = kernels.advance_lattice(v0, rho0, *args)
        v_ref, rho_ref, leak_ref = lattice_reference(v0, rho0, *args)
        assert np.array_equal(v0, v0_in) and np.array_equal(rho0, rho0_in)
        assert np.array_equal(v, v_ref)
        assert np.array_equal(rho, rho_ref)
        assert leak == leak_ref

    @pytest.mark.parametrize("rate", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("nsteps", [1, 37, 500])
    @pytest.mark.parametrize("n_vertices", [2, 13, 101])
    def test_asym(self, rate, nsteps, n_vertices):
        rng = np.random.default_rng(n_vertices + nsteps)
        V0 = rng.uniform(0.0, 1.0, n_vertices - 1)
        P0 = rng.uniform(0.0, 1.0, n_vertices)
        V0_in, P0_in = V0.copy(), P0.copy()
        args = (nsteps, self.DT, self.ALPHA, self.BETA, rate)
        V, P, leak = kernels.advance_asym(V0, P0, *args)
        V_ref, P_ref, leak_ref = asym_reference(V0, P0, *args)
        assert np.array_equal(V0, V0_in) and np.array_equal(P0, P0_in)
        assert np.array_equal(V, V_ref)
        assert np.array_equal(P, P_ref)
        assert leak == leak_ref

    def test_results_are_fresh_arrays(self):
        p = Parameters(self.ALPHA, self.BETA, 2.0)
        op = assemble_step_operator(8, self.DT, p)
        v0, rho0 = np.zeros((3, 9)), np.zeros(4)
        v, rho, _ = kernels.advance_lattice(v0, rho0, 0, self.DT, p.alpha, p.beta,
                                            p.fprime0, op)
        V, P, _ = kernels.advance_asym(v0[:, 0], rho0, 0, self.DT, p.alpha, p.beta, 1.0)
        for out, given in ((v, v0), (rho, rho0), (V, v0), (P, rho0)):
            assert not np.shares_memory(out, given)
        assert v.flags.c_contiguous and v.shape == (3, 9)
