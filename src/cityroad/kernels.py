"""Hot numerical kernels: the IMEX step of the coupled lattice and the RK4
step of the large-diffusion limit system, both vectorized across the window.

Edge diffusion uses the dense Crank-Nicolson propagator that
``edge_solver.assemble_step_operator`` builds once per (m, dt, d, alpha), so
one lattice step costs a single matrix product over all edges plus two
rank-one load terms and a few vertex updates.

At ~100 vertices a step is dominated by the fixed cost of each numpy call,
not by arithmetic, so both kernels allocate their work buffers once per call
and then step with ``out=`` ufuncs only: no new arrays per step and fewer
calls.  Both take the logistic rate and evaluate ``(rate u)(1 - u)`` in
place.

* ``advance_lattice`` ping-pongs two ``(n_edges, m+3)`` buffers laid out as
  ``[v | g_left | g_right]``: the Robin loads are written into the last two
  columns and one ``np.matmul`` with ``step_matrix`` writes the next edge
  profiles into the first ``m+1`` columns of the other buffer.  The inflow
  ``alpha (left trace + right trace)`` of the new profiles serves both the
  corrector and the next step's predictor.
* ``advance_asym`` holds the limit state interleaved and zero-padded,
  ``zp = [0, P0, V0, P1, V1, ..., P_{n-1}, 0]``, so every neighbour sum is the
  one shifted add ``zp[:-2] + zp[2:]``: ``P_j + P_{j+1}`` on a road slot and
  ``V_{j-1} + V_j`` on a vertex slot.  The derivative on every slot is
  ``((q z)(1 - z) + c nb) - dd z`` with ``(q, c, dd)`` = ``(rate, alpha,
  2 beta)`` on vertices and ``(0, beta, 2 alpha)`` on roads, and the stage
  sums run on the one vector.

The results are bit-identical to the per-array forms (each array updated on
its own, the vertex inflow built by adding traces into zeros), because every
element sees the same IEEE operations in the same order: addition and
multiplication commute exactly, ``x - d*y`` equals ``(-d)*y + x``, and on a
road slot ``(0*V)(1 - V)`` is a signed zero that leaves the sum unchanged.
``tests/test_kernels.py`` keeps the per-array forms as the reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["advance_lattice", "advance_asym"]


def advance_lattice(v, rho, nsteps, dt, alpha, beta, rate, op):
    """Advance edges ``v`` (n_edges, m+1) and vertices ``rho`` by ``nsteps``
    IMEX predictor-corrector steps; returns (v, rho, leak).

    Predictor: explicit Euler on the vertex equation with the logistic
    reaction ``(rate rho)(1 - rho)``.  Edges: one Crank-Nicolson step of
    ``op`` with Robin loads averaged between beta rho (start) and beta rho~
    (end).  Corrector: trapezoid of the vertex right-hand side with old and
    new edge traces.  ``leak`` is the trapezoid outflux beta rho through the
    two window ends.
    The inputs are not modified; the returned arrays are new.
    """
    v = np.asarray(v, dtype=float)
    n_e, n = v.shape
    w, w_next = np.empty((n_e, n + 2)), np.empty((n_e, n + 2))
    w[:, :n] = v
    rho = np.array(rho, dtype=float)
    rho_next = np.empty_like(rho)
    inflow, rhs0, rhs1, rho_t, g, tmp = (np.empty_like(rho) for _ in range(6))
    two_beta, half_dt = 2.0 * beta, 0.5 * dt
    half_beta, leak_coeff = 0.5 * beta, 0.5 * dt * beta

    def set_inflow(edges):
        # alpha ((0 + left trace of edge j) + right trace of edge j-1)
        np.add(edges[:, 0], 0.0, out=inflow[:-1])
        inflow[-1] = 0.0
        np.add(inflow[1:], edges[:, n - 1], out=inflow[1:])
        np.multiply(inflow, alpha, out=inflow)

    def vertex_rhs(r, out):
        # (((rate r)(1 - r)) + inflow) - 2 beta r
        np.multiply(r, rate, out=out)
        np.subtract(1.0, r, out=tmp)
        np.multiply(out, tmp, out=out)
        np.add(out, inflow, out=out)
        np.multiply(r, two_beta, out=tmp)
        np.subtract(out, tmp, out=out)

    set_inflow(w)
    leak = 0.0
    for _ in range(nsteps):
        vertex_rhs(rho, rhs0)
        np.multiply(rhs0, dt, out=rho_t)
        np.add(rho, rho_t, out=rho_t)
        np.add(rho, rho_t, out=g)
        np.multiply(g, half_beta, out=g)
        w[:, n] = g[:-1]
        w[:, n + 1] = g[1:]
        np.matmul(w, op.step_matrix, out=w_next[:, :n])
        set_inflow(w_next)  # the corrector's, and the next predictor's
        vertex_rhs(rho_t, rhs1)
        np.add(rhs0, rhs1, out=rhs1)
        np.multiply(rhs1, half_dt, out=rhs1)
        np.add(rho, rhs1, out=rho_next)
        leak += leak_coeff * (rho[0] + rho_next[0] + rho[-1] + rho_next[-1])
        rho, rho_next = rho_next, rho
        w, w_next = w_next, w
    return w[:, :n].copy(), rho, leak


def advance_asym(V, P, nsteps, dt, alpha, beta, rate):
    """Advance the limit system (edge levels V, vertices P, logistic rate) by
    ``nsteps`` classical RK4 steps; returns (V, P, leak) with the outflux
    integrated inside the stages.  The inputs are not modified; the returned
    arrays are new."""
    size = 2 * len(P) - 1
    zp, sp = np.zeros(size + 2), np.zeros(size + 2)  # state, stage state
    z, s = zp[1:-1], sp[1:-1]
    z[0::2] = P
    z[1::2] = V
    q, c, dd = np.zeros(size), np.empty(size), np.empty(size)
    q[0::2] = rate
    c[0::2], c[1::2] = alpha, beta
    dd[0::2], dd[1::2] = 2.0 * beta, 2.0 * alpha
    k, acc, nb, tmp = (np.empty(size) for _ in range(4))
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0

    def deriv(yp, out):
        # ((q y)(1 - y) + c nb) - dd y on the padded state yp; returns the
        # outflux beta (P_0 + P_{n-1})
        y = yp[1:-1]
        np.add(yp[:-2], yp[2:], out=nb)
        np.multiply(nb, c, out=nb)
        np.multiply(y, q, out=out)
        np.subtract(1.0, y, out=tmp)
        np.multiply(out, tmp, out=out)
        np.add(out, nb, out=out)
        np.multiply(y, dd, out=tmp)
        np.subtract(out, tmp, out=out)
        return beta * (y[0] + y[-1])

    def stage(h, kk):
        # s = z + h kk
        np.multiply(kk, h, out=s)
        np.add(z, s, out=s)

    def accumulate(kk):
        # acc += 2 kk
        np.multiply(kk, 2.0, out=tmp)
        np.add(acc, tmp, out=acc)

    leak = 0.0
    for _ in range(nsteps):
        l1 = deriv(zp, acc)
        stage(half_dt, acc)
        l2 = deriv(sp, k)
        accumulate(k)
        stage(half_dt, k)
        l3 = deriv(sp, k)
        accumulate(k)
        stage(dt, k)
        l4 = deriv(sp, k)
        np.add(acc, k, out=acc)
        np.multiply(acc, sixth_dt, out=acc)
        np.add(z, acc, out=z)
        leak += sixth_dt * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return z[1::2].copy(), z[0::2].copy(), leak
