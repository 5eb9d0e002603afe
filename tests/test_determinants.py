import cmath
import math

import numpy as np
import pytest

from deltatree import (
    SystemTemplate, appendix_a_checks, attach_vertex, cleared_det,
    coefficient_order, det_direct, det_recursive, generalized_origin_check,
    line_tree, ratio_by_flip, stage_trees, star_tree,
    stagewise_origin_checks, strip_scan, winding_number,
    zero_order_at_origin,
)
from conftest import random_tree


def _omegas(rng, n):
    # pole-free right half plane
    return [complex(rng.uniform(0.05, 3.0), rng.uniform(-10.0, 10.0))
            for _ in range(n)]


def test_star_closed_form():
    for n in (2, 3, 4):
        for alpha in (-3.0, -1.0, 0.5, 1.0, 2.0):
            tree = star_tree(n, alpha)
            for omega in (0.37, 2.0, 1.3j, 0.2 + 1.1j):
                if abs(omega + alpha) < 1e-9:
                    continue
                want = (n * omega + alpha) / (omega + alpha)
                got = det_direct(tree, omega)
                assert abs(got - want) <= 1e-12 * abs(want)
                ratio = det_recursive(tree, omega).ratios["e1"]
                wantr = ((n - 2) * omega + alpha) / (n * omega + alpha)
                assert abs(ratio - wantr) <= 1e-12 * max(abs(wantr), 1.0)


def test_free_line_det_is_two():
    tree = star_tree(2, 0.0)
    for omega in (0.5, 3.0, 1.0j, 2.0 - 0.7j):
        assert abs(det_direct(tree, omega) - 2.0) < 1e-13


def test_gamma1_ratio_example():
    tree = star_tree(2, 1.0)
    state = det_recursive(tree, 1.0)
    assert abs(state.ratios["e1"] - 1.0 / 3.0) < 1e-14


def test_two_delta_line_recursion_vs_direct():
    tree = line_tree([1.0, 1.0], [1.0])
    for omega in (1.0, 0.3 + 2.0j):
        d1 = det_direct(tree, omega)
        d2 = det_recursive(tree, omega).det
        assert abs(d1 - d2) <= 1e-12 * abs(d1)


def test_recursion_vs_direct_random_trees():
    rng = np.random.default_rng(23)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(1, 6)))
        alphas = [v.alpha for v in tree.vertices]
        for omega in _omegas(rng, 20):
            if any(abs(omega + a) < 0.05 for a in alphas):
                continue
            d1 = det_direct(tree, omega)
            d2 = det_recursive(tree, omega).det
            assert abs(d1 - d2) <= 1e-10 * max(abs(d1), 1e-8)


def test_cleared_det_examples():
    tree = star_tree(3, 2.0)
    for omega in (0.5, 1.0 + 1.0j):
        assert abs(cleared_det(tree, omega) - (3 * omega + 2)) < 1e-12
    # conjugate symmetry and reality on the real axis
    rng = np.random.default_rng(2)
    t2 = random_tree(rng, 3)
    for omega in _omegas(rng, 10):
        a = cleared_det(t2, omega)
        b = cleared_det(t2, np.conj(omega))
        assert abs(np.conj(a) - b) <= 1e-10 * max(abs(a), 1.0)
    for w in (0.3, 1.1, 2.7):
        d = det_direct(t2, w)
        assert abs(d.imag) <= 1e-12 * max(abs(d), 1.0)


def test_cleared_det_identity():
    rng = np.random.default_rng(31)
    tree = random_tree(rng, 4)
    for omega in _omegas(rng, 10):
        if any(abs(omega + v.alpha) < 0.05 for v in tree.vertices):
            continue
        prod = np.prod([omega + v.alpha for v in tree.vertices])
        lhs = cleared_det(tree, omega)
        rhs = det_direct(tree, omega) * prod
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_winding_number_basics():
    th = np.linspace(0, 2 * math.pi, 300)
    vals = np.exp(2j * th)               # winds twice
    assert winding_number(vals) == 2
    assert winding_number(3.0 + 0.1 * np.exp(1j * th)) == 0


def test_zero_order_p1():
    rep = zero_order_at_origin(star_tree(3, 1.5))
    assert rep.zero_order == 0
    assert rep.condition_holds
    assert abs(rep.derivative_value - 1.5) < 1e-10


def test_zero_order_resonant_two_delta():
    # a = -(a1 + a2) / (a1 a2) = 1/2 for strengths (2, -1)
    tree = line_tree([2.0, -1.0], [0.5])
    rep = zero_order_at_origin(tree)
    assert rep.zero_order >= rep.p
    assert not rep.condition_holds


def test_zero_order_near_resonant_sign_indefinite():
    # same strengths, non-resonant distance: a genuine nearby zero of the
    # cleared det must not be attributed to the origin
    tree = line_tree([2.0, -1.0], [0.6])
    rep = zero_order_at_origin(tree)
    assert rep.zero_order == 1
    assert rep.condition_holds


def test_zero_order_caterpillar_positive():
    tree = line_tree([1.0, 1.0, 1.0], [1.0, 2.0])
    rep = zero_order_at_origin(tree)
    assert rep.zero_order == 2
    assert rep.condition_holds


def test_zero_order_requires_nonzero_strengths():
    with pytest.raises(ValueError):
        zero_order_at_origin(star_tree(2, 0.0))


def test_generalized_origin_check_kirchhoff():
    order, expected, ok = generalized_origin_check(star_tree(2, 0.0))
    assert order == expected == 0 and ok
    # Kirchhoff vertex inside a line: equivalent to the two-delta line,
    # so the generic order is (number of nonzero strengths) - 1 = 1
    tree = line_tree([1.0, 0.0, 1.0], [1.0, 1.0])
    order, expected, ok = generalized_origin_check(tree)
    assert expected == 1
    assert ok


def test_strip_scan_star():
    rep = strip_scan(star_tree(2, 1.0), eps=0.01, delta=0.5, tau_max=5.0,
                     n_tau=80, n_s=3)
    # |det| = |2 i tau + 1| / |i tau + 1| >= 1 on the axis
    assert rep.min_abs >= 1.0
    assert not rep.violation
    assert all(r < 1.0 for r in rep.max_ratios.values())


def test_strip_scan_free_line():
    rep = strip_scan(star_tree(2, 0.0), eps=0.02, delta=0.3, tau_max=4.0,
                     n_tau=50, n_s=3)
    assert abs(rep.min_abs - 2.0) < 1e-10
    assert all(r < 1e-12 for r in rep.max_ratios.values())
    assert not rep.violation


def test_strip_scan_random_positive():
    rng = np.random.default_rng(41)
    tree = random_tree(rng, 3, positive=True)
    # the ratio bound |r| < 1 is an imaginary-axis statement; it extends
    # to a strip whose width depends on the tree, so keep eps small here
    rep = strip_scan(tree, eps=0.002, delta=0.2, tau_max=5.0,
                     n_tau=120, n_s=3)
    assert not rep.violation


def _loop_strip_scan(tree, eps, delta, tau_max, n_tau, n_s):
    """min |det_direct|, its argmin and the max flip ratios by the triple
    loop over s, sign of Im omega and tau."""
    template = SystemTemplate(tree)
    prod_alpha = lambda w: np.prod([w + v.alpha for v in tree.vertices])
    best, arg = math.inf, None
    max_ratios = {e.id: 0.0 for e in tree.external_edges}
    for s in np.linspace(-eps, eps, n_s):
        for sign in (1.0, -1.0):
            for tau in np.linspace(delta, tau_max, n_tau):
                w = complex(s, sign * tau)
                D = template.matrix(w, normalized=False)
                det_raw = np.linalg.det(D)
                v = abs((-1.0) ** tree.p * det_raw / prod_alpha(w))
                if v < best:
                    best, arg = v, w
                for e in tree.external_edges:
                    ratio = abs(np.linalg.det(template.flipped(D, w, e.id))
                                / det_raw)
                    max_ratios[e.id] = max(max_ratios[e.id], float(ratio))
    return best, arg, max_ratios


def test_strip_scan_matches_triple_loop():
    rng = np.random.default_rng(53)
    for tree in (random_tree(rng, 3, positive=True), star_tree(3, 1.0),
                 line_tree([1.0, -0.5], [0.7])):
        args = (0.01, 0.2, 5.0, 150, 3)
        rep = strip_scan(tree, *args)
        best, arg, max_ratios = _loop_strip_scan(tree, *args)
        assert rep.argmin == arg
        assert abs(rep.min_abs - best) <= 1e-12 * best
        assert rep.max_ratios.keys() == max_ratios.keys()
        for eid, r in max_ratios.items():
            assert abs(rep.max_ratios[eid] - r) <= 1e-12 * r


def test_ratio_modulus_below_one_on_axis():
    rng = np.random.default_rng(43)
    for _ in range(3):
        tree = random_tree(rng, int(rng.integers(1, 4)), positive=True)
        for tau in np.linspace(0.3, 8.0, 40):
            state = det_recursive(tree, 1j * tau)
            for r in state.ratios.values():
                assert abs(r) < 1.0


def test_appendix_a_example_p1():
    stages = appendix_a_checks(star_tree(2, 3.0))
    assert len(stages) == 1
    s = stages[0]
    assert abs(s.ratio_at_0 - 1.0) < 1e-10
    assert abs(s.ratio_deriv_at_0 - (-2.0 / 3.0)) < 1e-8
    assert s.order_ok and s.ratio_ok


def test_appendix_a_requires_positive():
    with pytest.raises(ValueError):
        appendix_a_checks(star_tree(2, -1.0))


def test_stagewise_checks_p3():
    tree = attach_vertex(line_tree([1.0, 2.0], [1.0]), "e3", 0.7, 0.5, 3)
    for s in stagewise_origin_checks(tree):
        assert s.order_ok and s.ratio_ok


def test_stage_trees_structure():
    tree = line_tree([1.0, 2.0, 3.0], [1.0, 0.5])
    stages = stage_trees(tree)
    assert [t.p for t in stages] == [1, 2, 3]
    assert stages[-1].edge_map.keys() == tree.edge_map.keys()


def test_coefficient_function_orders():
    # Lemma-style: every coefficient function vanishes at 0 to order
    # >= p - 1 (externals individually, internal c/ct pairs summed)
    rng = np.random.default_rng(47)
    for _ in range(3):
        tree = random_tree(rng, int(rng.integers(2, 4)), positive=True)
        lam = tree.external_edges[0].id
        for e in tree.edges:
            order = coefficient_order(tree, lam, e.id)
            assert order >= tree.p - 1


def test_ratio_by_flip_matches_recursion_fresh_edge():
    tree = line_tree([1.0, 2.0], [0.8])
    omega = 0.7 + 0.9j
    state = det_recursive(tree, omega)
    for e in tree.external_edges:
        direct = ratio_by_flip(tree, e.id, omega)
        assert abs(direct - state.ratios[e.id]) < 1e-11
