"""Hot numerical kernels: the IMEX step of the coupled lattice and the RK4
step of the large-diffusion limit system, both vectorized across the window.

Edge diffusion uses the dense Crank-Nicolson propagator that
``edge_solver.assemble_step_operator`` builds once per (m, dt, d, alpha), so
one lattice step costs a single matrix product over all edges plus two
rank-one load terms (``StepOperator.apply``) and a few vertex updates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["advance_lattice", "advance_asym"]


def _incoming(traces_left, traces_right, n_vertices):
    incoming = np.zeros(n_vertices)
    incoming[: len(traces_left)] += traces_left
    incoming[1:] += traces_right
    return incoming


def advance_lattice(v, rho, nsteps, dt, alpha, beta, reaction, op):
    """Advance edges ``v`` (n_edges, m+1) and vertices ``rho`` by ``nsteps``
    IMEX predictor-corrector steps; returns (v, rho, leak).

    Predictor: explicit Euler on the vertex equation with reaction
    ``reaction(rho)``.  Edges: one Crank-Nicolson step of ``op`` with Robin
    loads averaged between beta rho (start) and beta rho~ (end).  Corrector:
    trapezoid of the vertex right-hand side with old and new edge traces.
    ``leak`` is the trapezoid outflux beta rho through the two window ends.
    The inputs are not modified; the returned arrays are new.
    """
    v = np.array(v, dtype=float)
    spare = np.empty_like(v)
    rho = np.array(rho, dtype=float)
    n_v = len(rho)
    leak = 0.0
    for _ in range(nsteps):
        rhs0 = reaction(rho) + alpha * _incoming(v[:, 0], v[:, -1], n_v) - 2.0 * beta * rho
        rho_t = rho + dt * rhs0
        g = 0.5 * beta * (rho + rho_t)
        v, spare = op.apply(v, g[:-1], g[1:], out=spare), v
        rhs1 = reaction(rho_t) + alpha * _incoming(v[:, 0], v[:, -1], n_v) - 2.0 * beta * rho_t
        rho_new = rho + 0.5 * dt * (rhs0 + rhs1)
        leak += 0.5 * dt * beta * (rho[0] + rho_new[0] + rho[-1] + rho_new[-1])
        rho = rho_new
    return v, rho, leak


def _asym_deriv(V, P, alpha, beta, rate):
    dV = -2.0 * alpha * V + beta * (P[:-1] + P[1:])
    incoming = _incoming(V, V, len(P))
    dP = rate * P * (1.0 - P) + alpha * incoming - 2.0 * beta * P
    dL = beta * (P[0] + P[-1])
    return dV, dP, dL


def advance_asym(V, P, nsteps, dt, alpha, beta, rate):
    """Advance the limit system (edge levels V, vertices P, logistic rate) by
    ``nsteps`` classical RK4 steps; returns (V, P, leak) with the outflux
    integrated inside the stages."""
    V = V.copy()
    P = P.copy()
    leak = 0.0
    for _ in range(nsteps):
        k1v, k1p, k1l = _asym_deriv(V, P, alpha, beta, rate)
        k2v, k2p, k2l = _asym_deriv(V + 0.5 * dt * k1v, P + 0.5 * dt * k1p, alpha, beta, rate)
        k3v, k3p, k3l = _asym_deriv(V + 0.5 * dt * k2v, P + 0.5 * dt * k2p, alpha, beta, rate)
        k4v, k4p, k4l = _asym_deriv(V + dt * k3v, P + dt * k3p, alpha, beta, rate)
        V = V + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        P = P + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        leak += dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
    return V, P, leak
