import math

import numpy as np
import pytest

from deltatree import (
    CouplingSpec, GraphFunction, Packet, SystemTemplate, attach_vertex,
    check_self_adjoint, cleared_det, delta_matrices, det_general,
    det_general_recursive, dirichlet_matrices, find_eigenvalues,
    general_eigenvalues, line_tree, ratio_by_flip, star_tree,
    sufficient_condition_scan,
)
from conftest import random_tree


def test_check_self_adjoint_accepts_delta_and_dirichlet():
    for d in (2, 3, 4):
        for alpha in (-2.0, 0.0, 1.5):
            ok, problems = check_self_adjoint(*delta_matrices(d, alpha))
            assert ok, problems
        ok, problems = check_self_adjoint(*dirichlet_matrices(d))
        assert ok, problems


def test_check_self_adjoint_rejects_bad_pairs():
    # rank deficient
    A = np.zeros((2, 2))
    B = np.zeros((2, 2))
    ok, problems = check_self_adjoint(A, B)
    assert not ok and any("rank" in p for p in problems)
    # symmetric-rank fine but A B^T not symmetric
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [1.0, 1.0]])
    ok, problems = check_self_adjoint(A, B)
    assert not ok


def test_left_multiplication_invariance():
    # (G A, G B) encodes the same condition for invertible G
    rng = np.random.default_rng(8)
    A, B = delta_matrices(3, 1.3)
    for _ in range(5):
        G = rng.normal(size=(3, 3))
        if abs(np.linalg.det(G)) < 0.1:
            continue
        ok, problems = check_self_adjoint(G @ A, G @ B)
        assert ok, problems


def test_delta_instance_det_ratio_constant():
    rng = np.random.default_rng(21)
    for _ in range(5):
        tree = random_tree(rng, int(rng.integers(1, 4)))
        spec = CouplingSpec.all_delta(tree)
        ratios = []
        for _ in range(6):
            w = complex(rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0))
            if any(abs(w + v.alpha) < 0.05 for v in tree.vertices):
                continue
            dg = det_general(tree, spec, w)
            dc = cleared_det(tree, w)
            ratios.append(dg / dc)
            # the all-delta spec compiles to the default template exactly
            u0 = GraphFunction(tree, {e.id: [Packet(1.0 + 0.5j, 1.5, 0.6,
                                                    0.8)]
                                      for e in tree.edges})
            for normalized in (True, False):
                a = SystemTemplate(tree).assemble(w, u0, normalized)
                b = SystemTemplate(tree, spec).assemble(w, u0, normalized)
                assert np.abs(a.matrix - b.matrix).max() <= 1e-14 * max(
                    1.0, np.abs(a.matrix).max())
                assert np.abs(a.source - b.source).max() <= 1e-14 * max(
                    1.0, np.abs(a.source).max())
        assert len(ratios) >= 4
        for r in ratios[1:]:
            assert abs(r - ratios[0]) <= 1e-10 * abs(ratios[0])
        assert abs(abs(ratios[0]) - 1.0) < 1e-10


def test_delta_instance_flip_ratio_matches():
    tree = line_tree([1.0, -0.5], [0.7])
    spec = CouplingSpec.all_delta(tree)
    w = 0.9 + 1.1j
    for e in tree.external_edges:
        a = ratio_by_flip(tree, e.id, w, spec)
        b = ratio_by_flip(tree, e.id, w)
        assert abs(a - b) < 1e-10


def test_general_recursion_matches_direct():
    rng = np.random.default_rng(29)
    for _ in range(4):
        tree = random_tree(rng, int(rng.integers(2, 4)))
        spec = CouplingSpec.all_delta(tree)
        for _ in range(5):
            w = complex(rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0))
            d1 = det_general(tree, spec, w)
            d2 = det_general_recursive(tree, spec, w)
            assert abs(d1 - d2) <= 1e-10 * max(abs(d1), 1e-8)


def test_delta_instance_eigenvalues_agree():
    tree = line_tree([-2.0, -2.0], [1.0])
    spec = CouplingSpec.all_delta(tree)
    got = general_eigenvalues(tree, spec)
    want = find_eigenvalues(tree).omegas
    assert len(got) == len(want)
    for g, w in zip(sorted(got), sorted(want)):
        assert abs(g - w) < 1e-9


def test_coupling_spec_json_and_validation():
    tree = star_tree(3, 1.0)
    A, B = delta_matrices(3, 1.0)
    spec = CouplingSpec.from_json({
        "v1": {"type": "general", "A": A.tolist(), "B": B.tolist()}})
    assert spec.validate(tree) == []
    bad = CouplingSpec({"v1": ("general", np.zeros((3, 3)),
                               np.zeros((3, 3)))})
    assert bad.validate(tree)
    missing = CouplingSpec({})
    assert any("no coupling" in p for p in missing.validate(tree))
    with pytest.raises(TypeError):
        CouplingSpec.from_json([{"type": "delta", "alpha": 1.0}])


def test_condition_scan_delta_fails_near_zero():
    # p = 2 delta tree: the cleared-of-poles determinant tends to 0 at
    # tau -> 0 (the condition of Appendix C fails for delta couplings)
    tree = line_tree([1.0, 1.0], [1.0])
    spec = CouplingSpec.all_delta(tree)
    rep = sufficient_condition_scan(tree, spec, tau_min=1e-4, tau_max=5.0,
                                    n=800)
    assert rep.argmin_tau < 0.01
    assert rep.min_abs < 1e-3
    assert not rep.plausibly_holds


def test_condition_scan_kirchhoff_constant():
    tree = star_tree(2, 0.0)
    spec = CouplingSpec.all_delta(tree)
    rep = sufficient_condition_scan(tree, spec, tau_min=1e-3, tau_max=8.0,
                                    n=400)
    assert rep.plausibly_holds
    assert abs(rep.min_abs - 2.0) < 1e-10     # |det| = 2 everywhere


def _loop_condition_values(tree, spec, taus):
    """|det D(i tau)| with the delta factors (i tau + alpha) divided out,
    one tau at a time."""
    template = SystemTemplate(tree, spec)
    alphas = [rest[0] for kind, *rest in spec.entries.values()
              if kind == "delta"]
    out = []
    for tau in taus:
        v = complex(np.linalg.det(template.matrix(1j * tau,
                                                  normalized=False)))
        for al in alphas:
            v /= (1j * tau + al)
        out.append(abs(v))
    return np.array(out)


def test_condition_scan_matches_per_tau_loop():
    tree = attach_vertex(line_tree([1.0, -0.5], [0.8]), "e3", 0.6, 0.7, 3)
    B = np.array([[0.3, 0.1, -0.2], [0.1, -0.4, 0.5], [-0.2, 0.5, 0.2]])
    mixed = CouplingSpec({"v1": ("delta", 1.0), "v2": ("delta", -0.5),
                          "v3": ("general", np.eye(3), B)})
    for spec in (CouplingSpec.all_delta(tree), mixed):
        rep = sufficient_condition_scan(tree, spec, tau_min=1e-3,
                                        tau_max=6.0, n=500)
        want = _loop_condition_values(tree, spec, rep.taus)
        assert np.abs(rep.values - want).max() <= 1e-12 * want.max()
        assert rep.argmin_tau == rep.taus[int(np.argmin(want))]
        assert abs(rep.min_abs - want.min()) <= 1e-12 * want.min()
        half = _loop_condition_values(tree, spec, [0.5e-3])[0]
        assert rep.vanishing_at_zero == (half <= 0.6 * want[0])


def test_condition_scan_dirichlet_star_positive():
    tree = star_tree(3, 0.0)
    A, B = dirichlet_matrices(3)
    spec = CouplingSpec({"v1": ("general", A, B)})
    rep = sufficient_condition_scan(tree, spec, tau_min=1e-3, tau_max=8.0,
                                    n=400)
    assert rep.plausibly_holds
    assert abs(rep.min_abs - 1.0) < 1e-10     # det D = 1 identically
