import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq

from deltatree import (
    GraphFunction, IncompleteSpectrumError, Packet, ProjectedFunction,
    SystemTemplate, attach_vertex, data_eigen_inner, eigen_inner,
    find_eigenvalues, line_tree, omega_bracket, star_tree,
)
from deltatree.spectral import sign_change_roots
from conftest import random_tree


def test_single_delta_well():
    # alpha = -2 on the line: one bound state at omega = 1, phi ~ e^{-|x|}
    tree = star_tree(2, -2.0)
    data = find_eigenvalues(tree)
    assert len(data.omegas) == 1
    assert abs(data.omegas[0] - 1.0) < 1e-9
    phi = data.eigenfunctions[0]
    assert abs(phi.eigenvalue + 1.0) < 1e-8
    x = np.linspace(0.0, 10.0, 200)
    want = np.exp(-x)                      # normalized: ||e^{-|x|}||_2 = 1
    for eid in ("e1", "e2"):
        assert np.max(np.abs(phi(eid, x) - want)) < 1e-7


def test_positive_strengths_no_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(4):
        tree = random_tree(rng, int(rng.integers(1, 4)), positive=True)
        assert find_eigenvalues(tree).omegas == []


def test_two_delta_well_eigenvalue():
    # alpha = (-2, -2) at distance 1: even state solves omega - 1 = e^{-omega}
    from scipy.optimize import brentq
    tree = line_tree([-2.0, -2.0], [1.0])
    want = brentq(lambda w: w - 1.0 - math.exp(-w), 1.0, 2.0, xtol=1e-13)
    data = find_eigenvalues(tree)
    assert len(data.omegas) == 1
    assert abs(data.omegas[0] - want) < 1e-9


def test_eigenfunctions_orthonormal():
    tree = line_tree([-2.0, -3.0], [2.0])
    data = find_eigenvalues(tree)
    assert len(data.omegas) == 2
    for i, pi in enumerate(data.eigenfunctions):
        for j, pj in enumerate(data.eigenfunctions):
            want = 1.0 if i == j else 0.0
            assert abs(eigen_inner(pi, pj) - want) < 1e-9


def test_projection_removes_bound_parts():
    tree = star_tree(2, -2.0)
    data = find_eigenvalues(tree)
    phi = data.eigenfunctions[0]
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 1.0, 0.8, 0.3)]})
    pu = ProjectedFunction(u0, data)
    # <P u0, phi> = 0: recompute the overlap of the projected function
    coef = pu.terms[0][0]
    x = np.linspace(0.0, 25.0, 8001)
    both = sum(simpson(pu(eid, x) * phi(eid, x), x=x) for eid in ("e1", "e2"))
    assert abs(both) < 1e-9
    # Pythagoras
    assert abs(pu.l2_norm() ** 2 + abs(coef) ** 2 - u0.l2_norm() ** 2) < 1e-10


def test_projection_idempotent_norm():
    tree = star_tree(2, -2.0)
    data = find_eigenvalues(tree)
    phi = data.eigenfunctions[0]
    u0 = GraphFunction(tree, {"e1": [Packet(0.5, 2.0, 1.0, -1.0)]})
    pu = ProjectedFunction(u0, data)
    # projecting again changes nothing: the overlap of Pu0 with phi is 0
    inner_pu = data_eigen_inner(u0, phi) - pu.terms[0][0]
    assert abs(inner_pu) < 1e-12


def test_spectrum_json():
    tree = star_tree(2, -2.0)
    doc = find_eigenvalues(tree).to_json()
    assert doc["omegas"] and abs(doc["omegas"][0] - 1.0) < 1e-9
    assert set(doc["eigenfunctions"][0]["e1"]) == {"c", "c_tilde"}


def test_scan_without_overflow_on_long_mixed_line():
    # neighbouring cleared determinants of a long line overflow float64
    # when multiplied; the scan compares their signs instead
    rng = np.random.default_rng(0)
    alphas = rng.uniform(0.3, 2.0, 12) * rng.choice([-1.0, 1.0], 12)
    gaps = rng.uniform(0.5, 1.5, 11)
    tree = line_tree(list(alphas), list(gaps * (60.0 / gaps.sum())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = find_eigenvalues(tree)
    # roots of the product-based scan before the change
    pinned = [0.6018906997647078, 0.6907022187138724, 0.7722054454010363,
              0.8434713740684774]
    assert len(data.omegas) == len(pinned)
    for got, want in zip(data.omegas, pinned):
        assert abs(got - want) < 1e-9


def _three_arm_tree():
    """Kirchhoff root with three arms of length 1, each ending in an
    alpha = -2 vertex with one ray (e4, e5, e6)."""
    tree = star_tree(3, 0.0)
    for j in range(3):
        tree = attach_vertex(tree, f"e{j + 1}", 1.0, -2.0, 2)
    return tree


def _vertex_residuals(phi):
    """Largest continuity and delta-jump defects of phi over the vertices."""
    tree = phi.tree
    cont = jump = 0.0
    for v in tree.vertices:
        values, flux = [], 0.0
        for eid, x in tree.incident(v.id):
            values.append(float(phi(eid, x)))
            # derivative pointing away from the vertex into the edge
            d = float(phi.derivative(eid, x))
            flux += d if x == 0.0 else -d
        cont = max(cont, max(values) - min(values))
        jump = max(jump, abs(flux - v.alpha * values[0]))
    return cont, jump


def test_three_arm_double_root_and_basis():
    tree = _three_arm_tree()
    data = find_eigenvalues(tree)
    # odd arm modes vanish at the root: omega = 1 - e^{-2 omega}, twice;
    # the even mode: (w - 2 + w coth w) coth w = w / sinh(w)^2
    double = brentq(lambda w: w - 1.0 + math.exp(-2.0 * w), 0.5, 1.0,
                    xtol=1e-14)
    even = brentq(lambda w: (w - 2.0 + w / math.tanh(w)) / math.tanh(w)
                  - w / math.sinh(w) ** 2, 1.0, 1.3, xtol=1e-14)
    assert len(data.omegas) == 3
    for got, want in zip(data.omegas, [double, double, even]):
        assert abs(got - want) < 1e-9
    assert [phi.multiplicity for phi in data.eigenfunctions] == [2, 2, 1]
    assert data.to_json()["omegas"] == data.omegas
    funcs = data.eigenfunctions
    for i, a in enumerate(funcs):
        for j, b in enumerate(funcs):
            assert abs(eigen_inner(a, b) - (i == j)) < 1e-10
        cont, jump = _vertex_residuals(a)
        assert cont < 1e-10 and jump < 1e-10


def test_close_roots_of_mixed_line():
    # the p = 12 mixed-sign line the line-many-deltas benchmark draws for
    # seed 408 (after its positive line's two draws): two of its four
    # bound states lie 7.7e-4 apart
    rng = np.random.default_rng(408)
    rng.uniform(0.3, 1.0, 8)
    rng.uniform(0.5, 1.5, 7)
    alphas = rng.uniform(0.3, 2.0, 12) * rng.choice([-1.0, 1.0], 12)
    gaps = rng.uniform(0.5, 1.5, 11)
    tree = line_tree(list(alphas), list(gaps * (12.0 / gaps.sum())))
    data = find_eigenvalues(tree)
    want = [0.424606, 0.832836, 1.065077, 1.065849]
    assert len(data.omegas) == len(want)
    template = SystemTemplate(tree)
    for got, w in zip(data.omegas, want):
        assert abs(got - w) < 1e-6
        # a simple root: the cleared determinant changes sign across it
        lo, hi = template.det(np.array([got - 1e-9, got + 1e-9])).real
        assert np.sign(lo) * np.sign(hi) < 0


def test_projection_removes_three_arm_bound_parts():
    tree = _three_arm_tree()
    data = find_eigenvalues(tree)
    u0 = GraphFunction(tree, {"e4": [Packet(1.0, 1.5, 0.7, 0.4)]})
    pu = ProjectedFunction(u0, data)
    grids = {e.id: np.linspace(0.0, min(e.length, 25.0), 8001)
             for e in tree.edges}

    def inner(f, g):
        return sum(simpson(f(eid, x) * np.conj(g(eid, x)), x=x)
                   for eid, x in grids.items())

    for phi in data.eigenfunctions:
        assert abs(inner(pu, phi)) < 1e-9
    # Parseval: ||P u0||^2 + sum |<u0, phi_k>|^2 = ||u0||^2
    coefs = [c for c, _ in pu.terms]
    assert max(abs(c) for c in coefs) > 1e-3
    assert abs(inner(pu, pu).real + sum(abs(c) ** 2 for c in coefs)
               - u0.l2_norm() ** 2) < 1e-10


def test_agrees_with_determinant_scan_on_random_trees():
    # the scan's 2,000-point grid (cell <= 0.008) resolves every root of
    # these trees: their closest pair is 0.055 apart
    rng = np.random.default_rng(11)
    for _ in range(100):
        tree = random_tree(rng, int(rng.integers(1, 6)))
        template = SystemTemplate(tree)
        sign = (-1.0) ** tree.p
        want = sign_change_roots(lambda w: sign * template.det(w).real,
                                 omega_bracket(tree), n_grid=2000)
        got = find_eigenvalues(tree).omegas
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9


def test_too_small_omega_max_refused():
    # the even mode at 1.1089 lies above omega_max = 1
    with pytest.raises(IncompleteSpectrumError, match="above omega_max"):
        find_eigenvalues(_three_arm_tree(), omega_max=1.0)


def test_unresolved_close_roots_refused():
    # two alpha = -2 wells 24 apart: the odd and even states,
    # omega = 1 -+ e^{-24 omega}, lie 7.6e-11 apart, farther than xtol, so
    # the count finds each as a simple root; but Lambda has two near-zero
    # eigenvalues at each, and its kernel vector is not determined
    with pytest.raises(IncompleteSpectrumError, match="2 zero eigenvalue"):
        find_eigenvalues(line_tree([-2.0, -2.0], [24.0]))


def test_close_roots_resolved_or_merged():
    # 16 apart the two states are 2.3e-7 apart: two simple roots
    data = find_eigenvalues(line_tree([-2.0, -2.0], [16.0]))
    want = [brentq(lambda w: w - 1.0 - s * math.exp(-16.0 * w), 0.5, 1.5,
                   xtol=1e-15) for s in (-1.0, 1.0)]
    assert [phi.multiplicity for phi in data.eigenfunctions] == [1, 1]
    for got, w in zip(data.omegas, want):
        assert abs(got - w) < 1e-12
    # 40 apart their gap 2 e^{-40} is below rounding: one double root
    data = find_eigenvalues(line_tree([-2.0, -2.0], [40.0]))
    assert data.omegas == [data.omegas[0]] * 2
    assert abs(data.omegas[0] - 1.0) < 1e-12
    assert [phi.multiplicity for phi in data.eigenfunctions] == [2, 2]
    funcs = data.eigenfunctions
    for i, a in enumerate(funcs):
        for j, b in enumerate(funcs):
            assert abs(eigen_inner(a, b) - (i == j)) < 1e-10
        cont, jump = _vertex_residuals(a)
        assert cont < 1e-10 and jump < 1e-10


def test_eigenfunction_sign_rule():
    # every eigenfunction's largest coefficient is positive
    for tree in (_three_arm_tree(), line_tree([-2.0, -3.0], [2.0])):
        for phi in find_eigenvalues(tree).eigenfunctions:
            flat = [v for pair in phi.coeffs.values() for v in pair]
            assert max(flat) == max(flat, key=abs)
