import math

import numpy as np
import pytest
from scipy.integrate import quad

from deltatree import (
    CouplingSpec, GraphFunction, Packet, SystemTemplate, assemble_system,
    attach_vertex, evaluate_resolvent, line_tree,
    resolvent_defect, solve_resolvent, star_tree, t_edge,
    vertex_flux_defect, vertex_value,
)
from deltatree.resolvent import _BLOCK_BYTES
from conftest import random_tree


def _gaussian_data(tree, edge_id="e1", x0=3.0, sigma=0.7, k=0.0, A=1.0):
    return GraphFunction(tree, {edge_id: [Packet(A, x0, sigma, k)]})


# -- t integrals --------------------------------------------------------------


def test_t_integral_zero_data():
    tree = star_tree(2, 1.0)
    u0 = GraphFunction(tree, {})
    e = tree.edge_map["e1"]
    assert t_edge(u0.edge_packets(e.id), e.length, 0.3, 1.0 + 0.5j) == 0.0


def test_t_integral_narrow_packet_delta_limit():
    # a narrow packet of mass m acts like (m/2) e^{-omega |x - y0|}
    tree = star_tree(2, 1.0)
    omega, x, y0 = 0.8, 1.0, 3.0
    prev_err = None
    for sigma in (0.1, 0.05, 0.025):
        mass = sigma * math.sqrt(2 * math.pi)      # integral of the envelope
        u0 = GraphFunction(tree, {"e1": [Packet(1.0, y0, sigma, 0.0)]})
        e = tree.edge_map["e1"]
        got = t_edge(u0.edge_packets(e.id), e.length, x, omega)
        want = (mass / 2.0) * math.exp(-omega * abs(x - y0))
        err = abs(got - want) / want
        if prev_err is not None:
            assert err < prev_err  # refining sigma improves the limit
        prev_err = err
    assert prev_err < 1e-3


def test_t_integral_real_nonnegative():
    tree = star_tree(2, 1.0)
    u0 = _gaussian_data(tree)
    e = tree.edge_map["e1"]
    for x in (0.0, 1.0, 3.0, 7.0):
        val = t_edge(u0.edge_packets(e.id), e.length, x, 1.3)
        assert abs(val.imag) < 1e-14
        assert val.real >= 0


def test_t_integral_vs_quadrature():
    tree = star_tree(2, 1.0)
    pk = Packet(1.0 + 0.3j, 3.0, 0.7, 1.5)
    u0 = GraphFunction(tree, {"e1": [pk]})
    omega = 0.9 + 0.4j
    for x in (0.5, 3.0, 6.0):
        e = tree.edge_map["e1"]
        got = t_edge(u0.edge_packets(e.id), e.length, x, omega)
        f = lambda y: pk(y) * np.exp(-omega * abs(x - y))
        want = 0.5 * complex(quad(lambda y: f(y).real, 0, 12, limit=400)[0],
                             quad(lambda y: f(y).imag, 0, 12, limit=400)[0])
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


# -- assembly -----------------------------------------------------------------


def test_star_system_matrix_example():
    tree = star_tree(3, 1.0)
    sys = assemble_system(tree, 1.0)
    want = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.5, 0.5]])
    assert np.max(np.abs(sys.matrix - want)) < 1e-14


def test_free_line_flux_row():
    tree = star_tree(2, 0.0)
    sys = assemble_system(tree, 1.0)
    row = sys.matrix[sys.flux_row("v1")]
    assert np.max(np.abs(row - np.array([1.0, 1.0]))) < 1e-14


def test_assemble_errors():
    tree = star_tree(2, 1.0)
    with pytest.raises(ValueError):
        assemble_system(tree, 0.0)
    with pytest.raises(ValueError):
        assemble_system(tree, -1.0)   # omega = -alpha normalization pole
    # an array names its first offending omega, not the whole array
    with pytest.raises(ValueError, match=r"^omega = \(-1\+0j\) is a pole"):
        assemble_system(tree, np.array([0.5, 2.0j, -1.0, 3.0]))
    with pytest.raises(ValueError, match=r"^omega = 0 is excluded"):
        assemble_system(tree, np.array([0.5, 0.0, 3.0]))


def _batch_templates():
    """The default delta template and an (A, B) template (a Robin-type
    vertex A = 1, B symmetric, next to delta vertices) on one tree."""
    tree = attach_vertex(line_tree([1.0, 2.0], [1.0]), "e3", 0.7, 0.5, 3)
    B = np.array([[0.3, 0.1, -0.2], [0.1, -0.4, 0.5], [-0.2, 0.5, 0.2]])
    entries = {v.id: ("delta", v.alpha) for v in tree.vertices}
    entries["v3"] = ("general", np.eye(3), B)
    return [SystemTemplate(tree), SystemTemplate(tree, CouplingSpec(entries))]


def _close(got, want, rtol=1e-14):
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_batched_template_matches_per_omega_loop():
    rng = np.random.default_rng(3)
    for template in _batch_templates():
        tree = template.tree
        u0 = GraphFunction(tree, {e.id: [Packet(1.0 - 0.5j, 1.2, 0.5, 0.7)]
                                  for e in tree.edges})
        step = _BLOCK_BYTES // (16 * template.n ** 2)
        m = step + step // 3 + 1       # two blocks, the second one partial
        assert m % step != 0
        ws = np.concatenate([
            rng.uniform(0.1, 3.0, m // 3)
            + 1j * rng.uniform(-4.0, 4.0, m // 3),          # complex
            1j * rng.uniform(-6.0, 6.0, m // 3),            # imaginary
            rng.uniform(0.1, 3.0, m - 2 * (m // 3)) + 0j])  # real
        ws = ws[rng.permutation(m)]
        ext = tree.external_edges[-1].id
        for normalized in (True, False):
            mats = np.array([template.matrix(w, normalized) for w in ws])
            assert _close(template.matrix(ws, normalized), mats)
            # a 2-d omega array gives the same stack with two leading axes
            grid = template.matrix(ws[:-1].reshape(2, -1), normalized)
            assert _close(grid.reshape(mats[:-1].shape), mats[:-1])
            want = np.array([np.linalg.det(D) for D in mats])
            assert _close(template.det(ws, normalized), want)
            want = np.array([template.assemble(w, u0, normalized).source
                             for w in ws])
            assert _close(template.assemble(ws, u0, normalized).source, want)
        # mats holds the raw matrices from the last pass
        flips = np.array([template.flipped(D, w, ext)
                          for D, w in zip(mats, ws)])
        assert _close(template.flipped(mats, ws, ext), flips)
        want = np.array([np.linalg.det(D) for D in flips])
        assert _close(template.det(ws, flip=ext), want)
        # a scalar omega is the 0-d case: same shapes as before batching
        sys = template.assemble(ws[0], u0)
        assert sys.matrix.shape == (template.n, template.n)
        assert sys.source.shape == (template.n,)
        assert np.ndim(template.det(ws[0])) == 0


def test_system_is_real_for_real_omega():
    rng = np.random.default_rng(5)
    tree = random_tree(rng, 3)
    sys = assemble_system(tree, 1.7, _gaussian_data(tree))
    assert np.max(np.abs(sys.matrix.imag)) < 1e-14
    assert np.max(np.abs(sys.source.imag)) < 1e-12


# -- solving ------------------------------------------------------------------


def test_zero_data_zero_coefficients():
    tree = star_tree(3, 1.0)
    sol = solve_resolvent(tree, 1.0 + 1.0j, GraphFunction(tree, {}))
    assert all(c == 0 and ct == 0 for c, ct in sol.coeffs.values())


def test_free_line_no_reflection():
    # data on e1: nothing comes back on e1 (ct_e1 = 0) and the ct on the
    # far edge e2 is the transmitted amplitude (1/2w) int u0(y) e^{-wy} dy
    tree = star_tree(2, 0.0)
    pk = Packet(1.0, 3.0, 0.7, 0.0)
    u0 = GraphFunction(tree, {"e1": [pk]})
    omega = 1.1
    sol = solve_resolvent(tree, omega, u0)
    for c, _ in sol.coeffs.values():
        assert abs(c) < 1e-12
    assert abs(sol.coeffs["e1"][1]) < 1e-12
    want = quad(lambda y: pk(y).real * math.exp(-omega * y), 0, 12,
                limit=400)[0] / (2 * omega)
    assert abs(sol.coeffs["e2"][1] - want) < 1e-10


def test_free_line_matches_green_function():
    # R_omega u0 = int (1/2 omega) e^{-omega |x-y|} u0(y) dy on the line
    tree = star_tree(2, 0.0)
    pk = Packet(1.0, 3.0, 0.7, 0.5)
    u0 = GraphFunction(tree, {"e1": [pk]})
    omega = 1.2
    sol = solve_resolvent(tree, omega, u0)
    for eid, x in (("e1", 1.0), ("e1", 4.0), ("e2", 2.0)):
        got = evaluate_resolvent(sol, eid, np.asarray(x))[()]
        s = -x if eid == "e2" else x     # line coordinate
        f = lambda y: pk(y) * np.exp(-omega * abs(s - y)) / (2 * omega)
        want = complex(quad(lambda y: f(y).real, 0, 12, limit=400)[0],
                       quad(lambda y: f(y).imag, 0, 12, limit=400)[0])
        assert abs(got - want) < 1e-8


def test_single_delta_real_coefficients():
    tree = star_tree(2, 1.0)
    sol = solve_resolvent(tree, 0.9, _gaussian_data(tree))
    for c, ct in sol.coeffs.values():
        assert abs(np.imag(c)) < 1e-13 and abs(np.imag(ct)) < 1e-13


def test_residual_check_zero_data():
    tree = star_tree(2, 1.0)
    sol = solve_resolvent(tree, 1.0, GraphFunction(tree, {}))
    assert abs(resolvent_defect(sol, "e1", 1.0)) < 1e-14


def test_invariants_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(5):
        tree = random_tree(rng, int(rng.integers(1, 4)))
        eid = tree.external_edges[0].id
        u0 = _gaussian_data(tree, eid)
        omega = complex(rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0))
        sol = solve_resolvent(tree, omega, u0)
        # interior ODE residual
        for e in tree.edges:
            hi = e.length if not e.is_external else 8.0
            for x in np.linspace(0.15 * hi, 0.85 * hi, 5):
                r = resolvent_defect(sol, e.id, float(x))
                assert abs(r) <= 1e-5 * (1 + abs(u0(e.id, x)[()]))
        for v in tree.vertices:
            # continuity across incident edges
            vals = [evaluate_resolvent(sol, eidv, np.asarray(x))[()]
                    for eidv, x in tree.incident(v.id)]
            ref = vertex_value(sol, v.id)
            for val in vals:
                assert abs(val - ref) <= 1e-9 * (1 + abs(ref))
            # flux condition
            assert abs(vertex_flux_defect(sol, v.id)) <= 1e-7 * (1 + abs(ref))


def test_linearity():
    rng = np.random.default_rng(13)
    tree = random_tree(rng, 2)
    e1 = tree.external_edges[0].id
    e2 = tree.external_edges[-1].id
    ua = _gaussian_data(tree, e1, x0=2.0)
    ub = _gaussian_data(tree, e2, x0=4.0, sigma=1.1, k=1.0)
    a, b = 1.7, -0.4 + 0.9j
    both = GraphFunction(tree, {
        e1: [Packet(a * 1.0, 2.0, 0.7, 0.0)],
        e2: [Packet(b * 1.0, 4.0, 1.1, 1.0)],
    })
    omega = 1.0 + 0.5j
    sa = solve_resolvent(tree, omega, ua)
    sb = solve_resolvent(tree, omega, ub)
    sab = solve_resolvent(tree, omega, both)
    x = np.linspace(0.0, 5.0, 7)
    for e in tree.edges:
        lhs = evaluate_resolvent(sab, e.id, x)
        rhs = a * evaluate_resolvent(sa, e.id, x) \
            + b * evaluate_resolvent(sb, e.id, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_cramer_consistency():
    rng = np.random.default_rng(17)
    for _ in range(5):
        tree = random_tree(rng, int(rng.integers(1, 4)))
        u0 = _gaussian_data(tree, tree.external_edges[0].id)
        omega = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
        sys = assemble_system(tree, omega, u0)
        x = np.linalg.solve(sys.matrix, sys.source)
        detD = np.linalg.det(sys.matrix)
        for j in range(len(x)):
            M = sys.matrix.copy()
            M[:, j] = sys.source
            lhs = x[j] * detD
            rhs = np.linalg.det(M)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))
