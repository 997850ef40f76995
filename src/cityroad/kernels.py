"""Hot numerical kernels: the IMEX step of the coupled lattice and the RK4
step of the large-diffusion limit system, both vectorized across the window.

Edge diffusion uses the dense Crank-Nicolson propagator that
``edge_solver.assemble_step_operator`` builds once per (m, dt, d, alpha), so
one lattice step costs a single matrix product over all edges plus two
rank-one load terms and a few vertex updates.

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

At ~200 elements a ufunc call costs its fixed overhead, not its arithmetic.
Measured on a 2-vCPU Xeon (numpy 2.4.6) with 201 doubles: ``np.add(a, b, c)``
with ``out`` positional takes 1.0 us; the same call with a Python-float
operand 1.44-1.54 us (numpy converts the float on every call); a call
that first slices a view (``yp[:-2]``, ``w[:, 0]``) 1.88 us; and broadcasting
one operand over two rows (a ``(2, 201)`` multiply) 2.46 us against 0.97 us
for one row.  So both step loops keep to four rules:

1. every scalar operand is an array of the window's length, built once per
   call (``rate``, ``1.0``, ``2 beta``, ``dt``, ...);
2. every slice view is built once per call; the lattice's two buffers each
   carry a tuple of their column views, swapped with the buffer;
3. one ufunc call per operation, with ``out`` positional, and no work
   buffer or array allocated inside the loop;
4. no multi-row broadcast to fuse independent operations: it is slower.

The array operands keep every result's bits: each holds the very double the
scalar was, and a ufunc rounds ``x op y`` exactly once whether ``y`` comes
from a scalar or from an array.  The end values behind the leak are read as
Python floats, whose arithmetic is the same IEEE double arithmetic.

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


def _columns(w, n):
    """``w`` with its left trace, right trace, two load columns and profiles."""
    return w, w[:, 0], w[:, n - 1], w[:, n], w[:, n + 1], w[:, :n]


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
    add, subtract, multiply, matmul = np.add, np.subtract, np.multiply, np.matmul
    v = np.asarray(v, dtype=float)
    n_e, n = v.shape
    w, w_next = np.empty((n_e, n + 2)), np.empty((n_e, n + 2))
    w[:, :n] = v
    cur, nxt = _columns(w, n), _columns(w_next, n)
    step_matrix = op.step_matrix
    rho = np.array(rho, dtype=float)
    rho_next = np.empty_like(rho)
    inflow, rhs0, rhs1, rho_t, g, tmp = (np.empty_like(rho) for _ in range(6))
    inflow_lo, inflow_hi, g_lo, g_hi = inflow[:-1], inflow[1:], g[:-1], g[1:]
    rate_, one, two_beta, dt_, half_dt, alpha_ = (
        np.full(len(rho), x, dtype=float)
        for x in (rate, 1.0, 2.0 * beta, dt, 0.5 * dt, alpha))
    half_beta, zero = np.full(n_e, 0.5 * beta, dtype=float), np.zeros(n_e)
    leak_coeff = 0.5 * dt * beta

    def set_inflow(left, right):
        # alpha ((0 + left trace of edge j) + right trace of edge j-1)
        add(left, zero, inflow_lo)
        inflow[-1] = 0.0
        add(inflow_hi, right, inflow_hi)
        multiply(inflow, alpha_, inflow)

    set_inflow(cur[1], cur[2])
    leak = 0.0
    for _ in range(nsteps):
        w, _, _, load_left, load_right, _ = cur
        _, left, right, _, _, profiles = nxt
        # rhs0 = (((rate rho)(1 - rho)) + inflow) - 2 beta rho
        multiply(rho, rate_, rhs0)
        subtract(one, rho, tmp)
        multiply(rhs0, tmp, rhs0)
        add(rhs0, inflow, rhs0)
        multiply(rho, two_beta, tmp)
        subtract(rhs0, tmp, rhs0)
        multiply(rhs0, dt_, rho_t)
        add(rho, rho_t, rho_t)
        add(rho, rho_t, g)
        multiply(g_lo, half_beta, load_left)
        multiply(g_hi, half_beta, load_right)
        matmul(w, step_matrix, profiles)
        set_inflow(left, right)  # the corrector's, and the next predictor's
        # rhs1, the same right-hand side at rho_t
        multiply(rho_t, rate_, rhs1)
        subtract(one, rho_t, tmp)
        multiply(rhs1, tmp, rhs1)
        add(rhs1, inflow, rhs1)
        multiply(rho_t, two_beta, tmp)
        subtract(rhs1, tmp, rhs1)
        add(rhs0, rhs1, rhs1)
        multiply(rhs1, half_dt, rhs1)
        add(rho, rhs1, rho_next)
        leak += leak_coeff * (rho.item(0) + rho_next.item(0)
                              + rho.item(-1) + rho_next.item(-1))
        rho, rho_next = rho_next, rho
        cur, nxt = nxt, cur
    return cur[0][:, :n].copy(), rho, leak


def advance_asym(V, P, nsteps, dt, alpha, beta, rate):
    """Advance the limit system (edge levels V, vertices P, logistic rate) by
    ``nsteps`` classical RK4 steps; returns (V, P, leak) with the outflux
    integrated inside the stages.  The inputs are not modified; the returned
    arrays are new."""
    add, subtract, multiply = np.add, np.subtract, np.multiply
    size = 2 * len(P) - 1
    zp, sp = np.zeros(size + 2), np.zeros(size + 2)  # state, stage state
    z, s = zp[1:-1], sp[1:-1]
    z_lo, z_hi, s_lo, s_hi = zp[:-2], zp[2:], sp[:-2], sp[2:]
    z[0::2] = P
    z[1::2] = V
    q, c, dd = np.zeros(size), np.empty(size), np.empty(size)
    q[0::2] = rate
    c[0::2], c[1::2] = alpha, beta
    dd[0::2], dd[1::2] = 2.0 * beta, 2.0 * alpha
    sixth_dt = dt / 6.0
    one, two, dt_, half_dt, sixth_dt_ = (
        np.full(size, x, dtype=float) for x in (1.0, 2.0, dt, 0.5 * dt, sixth_dt))
    k, acc, nb, tmp = (np.empty(size) for _ in range(4))

    # Each stage: k = ((q y)(1 - y) + c nb) - dd y with nb the neighbour sum
    # of y, and the outflux beta (P_0 + P_{n-1}) at y; then the stage sums.
    leak = 0.0
    for _ in range(nsteps):
        add(z_lo, z_hi, nb)  # k1 = f(z), into acc
        multiply(nb, c, nb)
        multiply(z, q, acc)
        subtract(one, z, tmp)
        multiply(acc, tmp, acc)
        add(acc, nb, acc)
        multiply(z, dd, tmp)
        subtract(acc, tmp, acc)
        l1 = beta * (zp.item(1) + zp.item(-2))
        multiply(acc, half_dt, s)  # s = z + dt/2 k1
        add(z, s, s)
        add(s_lo, s_hi, nb)  # k2 = f(s)
        multiply(nb, c, nb)
        multiply(s, q, k)
        subtract(one, s, tmp)
        multiply(k, tmp, k)
        add(k, nb, k)
        multiply(s, dd, tmp)
        subtract(k, tmp, k)
        l2 = beta * (sp.item(1) + sp.item(-2))
        multiply(k, two, tmp)  # acc += 2 k2
        add(acc, tmp, acc)
        multiply(k, half_dt, s)  # s = z + dt/2 k2
        add(z, s, s)
        add(s_lo, s_hi, nb)  # k3 = f(s)
        multiply(nb, c, nb)
        multiply(s, q, k)
        subtract(one, s, tmp)
        multiply(k, tmp, k)
        add(k, nb, k)
        multiply(s, dd, tmp)
        subtract(k, tmp, k)
        l3 = beta * (sp.item(1) + sp.item(-2))
        multiply(k, two, tmp)  # acc += 2 k3
        add(acc, tmp, acc)
        multiply(k, dt_, s)  # s = z + dt k3
        add(z, s, s)
        add(s_lo, s_hi, nb)  # k4 = f(s)
        multiply(nb, c, nb)
        multiply(s, q, k)
        subtract(one, s, tmp)
        multiply(k, tmp, k)
        add(k, nb, k)
        multiply(s, dd, tmp)
        subtract(k, tmp, k)
        l4 = beta * (sp.item(1) + sp.item(-2))
        add(acc, k, acc)  # z += dt/6 (k1 + 2 k2 + 2 k3 + k4)
        multiply(acc, sixth_dt_, acc)
        add(z, acc, z)
        leak += sixth_dt * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return z[1::2].copy(), z[0::2].copy(), leak
