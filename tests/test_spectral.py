import math
import warnings

import numpy as np
from scipy.integrate import simpson

from deltatree import (
    GraphFunction, Packet, ProjectedFunction, data_eigen_inner, eigen_inner,
    find_eigenvalues, line_tree, star_tree,
)
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
