"""Independent Crank-Nicolson oracle on a truncated, discretized tree.

Used only to validate the propagator.  The spatial operator is a lumped
finite-element discretization of the quadratic form

    q(u) = sum_edges int |u'|^2 + sum_v alpha(v) |u(v)|^2 :

stiffness K from the first differences, diagonal (lumped) mass M with
weight h at interior nodes and the sum of h_e/2 over incident edges at
a vertex.  H_h = M^{-1} K is self-adjoint in the M inner product, so the
Crank-Nicolson step

    (M + i dt/2 K) u^{n+1} = (M - i dt/2 K) u^n

conserves the discrete mass <M u, u> exactly.  At a Kirchhoff vertex of
degree 2 with equal spacings this reduces to the standard second-order
line stencil, and the vertex rows implement continuity plus the flux
condition sum of outgoing derivatives = alpha(v) u(v) to second order.

Infinite edges are truncated at a finite length with zero Dirichlet
condition; ``safe_horizon`` estimates how long the truncation stays
invisible at group velocity 2(|k| + 4/sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


@dataclass
class DiscreteTree:
    tree: object
    h: float
    lengths: dict           # edge_id -> truncated length actually used
    offsets: dict           # edge_id -> (start index, n interior nodes)
    vertex_index: dict      # vertex_id -> node index
    n_nodes: int
    mass: np.ndarray        # diagonal of M
    stiffness: object       # sparse K

    def edge_grid(self, edge_id):
        """Coordinates of the nodes of an edge including its endpoints
        (the far endpoint of a truncated edge carries value 0)."""
        n = round(self.lengths[edge_id] / self.h)
        return self.h * np.arange(n + 1)

    def edge_values(self, state, edge_id):
        """State on the edge grid, endpoints included."""
        e = self.tree.edge_map[edge_id]
        start, n_int = self.offsets[edge_id]
        vals = np.empty(n_int + 2, dtype=complex)
        vals[0] = state[self.vertex_index[e.tail]]
        vals[1:-1] = state[start:start + n_int]
        vals[-1] = state[self.vertex_index[e.head]] if e.head else 0.0
        return vals


def discretize_tree(tree, h, truncation):
    """Build the discrete tree; ``truncation`` is the length used for
    every external edge (rounded to a multiple of h)."""
    lengths = {}
    for e in tree.edges:
        L = e.length if not e.is_external else truncation
        n = max(2, round(L / h))
        lengths[e.id] = n * h
        if not e.is_external and abs(n * h - e.length) > 1e-9:
            raise ValueError(
                f"edge {e.id}: length {e.length} is not a multiple of h={h}")
    vertex_index = {v.id: i for i, v in enumerate(tree.vertices)}
    offsets = {}
    pos = len(tree.vertices)
    for e in tree.edges:
        n = round(lengths[e.id] / h)
        n_int = n - 1
        offsets[e.id] = (pos, n_int)
        pos += n_int
    n_nodes = pos

    rows, cols, vals = [], [], []
    mass = np.zeros(n_nodes)

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for e in tree.edges:
        start, n_int = offsets[e.id]
        n = n_int + 1                      # number of subintervals
        idx = np.empty(n + 1, dtype=int)
        idx[0] = vertex_index[e.tail]
        idx[1:-1] = start + np.arange(n_int)
        idx[-1] = vertex_index[e.head] if e.head else -1
        for k in range(n):
            i, j = idx[k], idx[k + 1]
            w = 1.0 / h
            add(i, i, w)
            if j >= 0:
                add(j, j, w)
                add(i, j, -w)
                add(j, i, -w)
            mass[i] += h / 2.0
            if j >= 0:
                mass[j] += h / 2.0
    for v in tree.vertices:
        i = vertex_index[v.id]
        add(i, i, v.alpha)
    K = sp.csc_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    return DiscreteTree(tree, h, lengths, offsets, vertex_index, n_nodes,
                        mass, K)


def sample_function(dt_tree, u0):
    """Initial state: u0 sampled at all nodes."""
    state = np.zeros(dt_tree.n_nodes, dtype=complex)
    for eid, pk in u0.packets.items():
        e = dt_tree.tree.edge_map[eid]
        start, n_int = dt_tree.offsets[eid]
        x = dt_tree.h * np.arange(1, n_int + 1)
        state[start:start + n_int] += u0(eid, x)
        state[dt_tree.vertex_index[e.tail]] += complex(
            u0(eid, np.asarray(0.0))[()])
        if e.head:
            state[dt_tree.vertex_index[e.head]] += complex(
                u0(eid, np.asarray(e.length))[()])
    return state


def discrete_mass(dt_tree, state):
    return float(np.sum(dt_tree.mass * np.abs(state) ** 2))


def sample_eigenfunction(dt_tree, phi):
    state = np.zeros(dt_tree.n_nodes, dtype=complex)
    for e in dt_tree.tree.edges:
        start, n_int = dt_tree.offsets[e.id]
        x = dt_tree.h * np.arange(1, n_int + 1)
        state[start:start + n_int] = phi(e.id, x)
        state[dt_tree.vertex_index[e.tail]] = float(
            phi(e.id, np.asarray(0.0))[()])
        if e.head:
            state[dt_tree.vertex_index[e.head]] = float(
                phi(e.id, np.asarray(e.length))[()])
    return state


class CrankNicolson:
    """Factorized CN stepper for one (discrete tree, dt) pair."""

    def __init__(self, dt_tree, dt):
        self.dt_tree = dt_tree
        self.dt = dt
        M = sp.diags(dt_tree.mass).tocsc()
        K = dt_tree.stiffness
        self._lu = splu((M + 0.5j * dt * K).tocsc())
        self._rhs = (M - 0.5j * dt * K).tocsc()

    def step(self, state):
        return self._lu.solve(self._rhs @ state)


def evolve_cn(dt_tree, state, t, dt, record_mass=False):
    """Evolve to time t (t must be a multiple of dt up to rounding)."""
    n = round(t / dt)
    if abs(n * dt - t) > 1e-9:
        raise ValueError("t must be a multiple of dt")
    stepper = CrankNicolson(dt_tree, dt)
    masses = [discrete_mass(dt_tree, state)] if record_mass else None
    for _ in range(n):
        state = stepper.step(state)
        if record_mass:
            masses.append(discrete_mass(dt_tree, state))
    return (state, masses) if record_mass else state


def safe_horizon(u0, truncation, margin_sigmas=6.0):
    """Time before which the truncation boundary stays invisible."""
    vmax = max(2.0 * (abs(p.k) + 4.0 / p.sigma)
               for pk in u0.packets.values() for p in pk)
    radius = max(p.x0 + margin_sigmas * p.sigma
                 for pk in u0.packets.values() for p in pk)
    return max(0.0, (truncation - radius) / vmax)


def choose_truncation(u0, t_max, h, margin=4.0):
    """Truncation length covering the dispersion cone up to t_max."""
    vmax = max(2.0 * (abs(p.k) + 4.0 / p.sigma)
               for pk in u0.packets.values() for p in pk)
    radius = max(p.x0 + 8.0 * p.sigma
                 for pk in u0.packets.values() for p in pk)
    L = radius + vmax * t_max + margin
    return math.ceil(L / h) * h


def boundary_energy_fraction(dt_tree, state, depth=1.0):
    """Fraction of the discrete mass within ``depth`` of a truncation
    boundary (reflection monitoring)."""
    total = discrete_mass(dt_tree, state)
    if total == 0:
        return 0.0
    near = 0.0
    for e in dt_tree.tree.external_edges:
        start, n_int = dt_tree.offsets[e.id]
        x = dt_tree.h * np.arange(1, n_int + 1)
        mask = x > dt_tree.lengths[e.id] - depth
        seg = state[start:start + n_int][mask]
        near += float(np.sum(dt_tree.h * np.abs(seg) ** 2))
    return near / total
