import math

import numpy as np
import pytest

from deltatree import (
    CrankNicolson, GraphFunction, Packet, boundary_energy_fraction,
    choose_truncation, discrete_mass, discretize_tree, evolve_cn,
    find_eigenvalues, free_evolution, line_tree, safe_horizon,
    sample_eigenfunction, sample_function, star_tree,
)


def _free_line_setup(h):
    tree = star_tree(2, 0.0)
    pk = Packet(1.0, 8.0, 1.0, -1.0)
    u0 = GraphFunction(tree, {"e1": [pk]})
    trunc = 32.0
    dt_tree = discretize_tree(tree, h, trunc)
    return tree, pk, u0, dt_tree


def _free_line_error(h, dt, t):
    tree, pk, u0, dt_tree = _free_line_setup(h)
    state = sample_function(dt_tree, u0)
    state = evolve_cn(dt_tree, state, t, dt)
    err = 0.0
    for eid, sgn in (("e1", 1.0), ("e2", -1.0)):
        x = dt_tree.edge_grid(eid)
        want = free_evolution([pk], -np.inf, np.inf, sgn * x, t)
        got = dt_tree.edge_values(state, eid)
        err = max(err, float(np.max(np.abs(got - want))))
    return err


def test_cn_second_order_convergence():
    t = 0.5
    e1 = _free_line_error(1 / 32, 1 / 32, t)
    e2 = _free_line_error(1 / 64, 1 / 64, t)
    order = math.log2(e1 / e2)
    assert order > 1.9
    assert e2 < 4.0e-3


def test_cn_mass_conservation():
    tree = line_tree([1.0, -1.0], [1.0])
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 4.0, 0.8, -1.0)]})
    dt_tree = discretize_tree(tree, 1 / 32, 24.0)
    state = sample_function(dt_tree, u0)
    _, masses = evolve_cn(dt_tree, state, 1.0, 1 / 64, record_mass=True)
    m0 = masses[0]
    assert max(abs(m - m0) for m in masses) <= 1e-10 * m0


def test_cn_self_adjoint_stiffness():
    tree = line_tree([0.5, -2.0], [1.0])
    dt_tree = discretize_tree(tree, 1 / 16, 8.0)
    rng = np.random.default_rng(0)
    K = dt_tree.stiffness
    for _ in range(3):
        u = rng.normal(size=dt_tree.n_nodes) \
            + 1j * rng.normal(size=dt_tree.n_nodes)
        v = rng.normal(size=dt_tree.n_nodes) \
            + 1j * rng.normal(size=dt_tree.n_nodes)
        lhs = np.vdot(v, K @ u)
        rhs = np.vdot(K @ v, u)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_cn_stationary_bound_state():
    tree = star_tree(2, -2.0)
    phi = find_eigenvalues(tree).eigenfunctions[0]
    dt_tree = discretize_tree(tree, 1 / 64, 20.0)
    state = sample_eigenfunction(dt_tree, phi)
    out = evolve_cn(dt_tree, state, 1.0, 1 / 128)
    assert float(np.max(np.abs(np.abs(out) - np.abs(state)))) < 1e-4


def test_safe_horizon_and_truncation():
    tree = star_tree(2, 0.0)
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 4.0, 1.0, -1.0)]})
    h = 1 / 32
    trunc = choose_truncation(u0, 1.0, h)
    assert trunc >= 4.0 + 8.0 + 10.0          # radius + vmax * t + margin
    assert abs(trunc / h - round(trunc / h)) < 1e-9
    horizon = safe_horizon(u0, trunc)
    assert horizon > 0


def test_boundary_energy_stays_small_before_horizon():
    tree = star_tree(2, 0.0)
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 4.0, 1.0, -1.0)]})
    dt_tree = discretize_tree(tree, 1 / 32, 30.0)
    state = sample_function(dt_tree, u0)
    horizon = safe_horizon(u0, 30.0)
    t = min(1.0, 0.5 * round(horizon * 2) / 2)
    out = evolve_cn(dt_tree, state, 1.0, 1 / 64)
    assert boundary_energy_fraction(dt_tree, out) < 1e-6


def test_discretize_rejects_incommensurate_length():
    tree = line_tree([1.0, 1.0], [1.0 / 3.0])
    with pytest.raises(ValueError):
        discretize_tree(tree, 1 / 32, 8.0)


def test_cn_step_equals_class_step():
    tree = star_tree(2, 1.0)
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 3.0, 0.8, 0.0)]})
    dt_tree = discretize_tree(tree, 1 / 16, 10.0)
    state = sample_function(dt_tree, u0)
    stepper = CrankNicolson(dt_tree, 1 / 32)
    a = stepper.step(state)
    # mass preserved by a single step too
    assert abs(discrete_mass(dt_tree, a)
               - discrete_mass(dt_tree, state)) < 1e-12
