import math

import numpy as np
import pytest

from deltatree import (
    GraphFunction, Packet, Propagator, QuadratureSpec, ResonantTreeError,
    attach_vertex, evolve_dispersive, evolve_full, find_eigenvalues,
    free_evolution, line_tree, star_tree,
)
from deltatree.evolution import _legendre_moments


def _exact_moment(u, n):
    """High-precision G_n(u) by the upward by-parts recursion; the
    recursion amplifies rounding by about n!/|u|^n, so raise the working
    precision accordingly before trusting it."""
    import mpmath as mp
    if u == 0:
        return 2.0 / (n + 1) if n % 2 == 0 else 0.0
    extra = math.lgamma(n + 1) / math.log(10) - n * math.log10(abs(u))
    mp.mp.dps = 30 + max(0, int(extra) + 10)
    iu = 1j * mp.mpf(u)
    G = 2 * mp.sin(u) / mp.mpf(u)
    for m in range(1, n + 1):
        bnd = (mp.e ** iu - (-1) ** m * mp.e ** (-iu)) / iu
        G = bnd - m / iu * G
    return complex(G)


def test_legendre_moments_all_regimes():
    deg = 40
    us = np.array([0.0, 0.5, 5.0, 11.5, 12.5, 20.0, 35.0, 49.0, 51.0,
                   80.0, 500.0, -20.0, -3.0])
    G = _legendre_moments(us, deg)
    for i, u in enumerate(us):
        for n in (0, 1, 5, 17, 30, 40):
            want = _exact_moment(float(u), n)
            assert abs(G[n][i] - want) <= 1e-9 * max(abs(want), 1e-4)


def test_free_line_matches_closed_form():
    tree = star_tree(2, 0.0)
    pk = Packet(1.0, 6.0, 1.0, -1.0)
    u0 = GraphFunction(tree, {"e1": [pk]})
    prop = Propagator(tree, u0)
    for t in (0.5, 1.0, 5.0):
        x = np.linspace(0.0, 14.0, 57)
        got = prop.dispersive(t, {"e1": x, "e2": x})
        want1 = free_evolution([pk], -np.inf, np.inf, x, t)
        want2 = free_evolution([pk], -np.inf, np.inf, -x, t)
        scale = max(np.max(np.abs(want1)), np.max(np.abs(want2)))
        assert np.max(np.abs(got["e1"] - want1)) <= 1e-4 * scale
        assert np.max(np.abs(got["e2"] - want2)) <= 1e-4 * scale


def test_small_time_recovers_projected_data():
    tree = line_tree([1.0, 2.0], [1.0])
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 6.0, 1.0, 0.0)]})
    prop = Propagator(tree, u0)
    t = 1e-3
    x = np.linspace(0.0, 10.0, 41)
    got = prop.dispersive(t, {"e1": x})["e1"]
    want = u0("e1", x)      # positive strengths: P u0 = u0
    assert np.max(np.abs(got - want)) <= 1e-2 * np.max(np.abs(want))


def test_symmetry_on_star():
    tree = star_tree(3, 1.0)
    pk = [Packet(1.0, 6.0, 1.0, -1.0)]
    u0 = GraphFunction(tree, {eid: list(pk) for eid in ("e1", "e2", "e3")})
    prop = Propagator(tree, u0)
    x = np.linspace(0.0, 12.0, 31)
    got = prop.dispersive(0.8, {eid: x for eid in ("e1", "e2", "e3")})
    assert np.max(np.abs(got["e1"] - got["e2"])) < 1e-10
    assert np.max(np.abs(got["e1"] - got["e3"])) < 1e-10


def test_resonant_tree_refused_before_quadrature():
    tree = line_tree([2.0, -1.0], [0.5])
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 6.0, 1.0, 0.0)]})
    called = []
    orig = Propagator._build_panels
    Propagator._build_panels = lambda self: called.append(1) or orig(self)
    try:
        with pytest.raises(ResonantTreeError) as exc:
            Propagator(tree, u0)
    finally:
        Propagator._build_panels = orig
    assert called == []                       # refusal precedes any setup
    rep = exc.value.report
    assert rep["error"] == "resonant-tree"
    assert rep["origin_order"] == 2
    assert rep["expected_order"] == 1


def test_quadrature_self_consistency():
    tree = star_tree(2, 1.0)
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 6.0, 1.0, -1.0)]})
    base = Propagator(tree, u0)
    fine = Propagator(tree, u0, QuadratureSpec(
        tau_max=1.5 * base.tau_max, nodes=2 * 14 * base.centers.size))
    x = np.linspace(0.0, 12.0, 25)
    for t in (0.5, 2.0):
        a = base.dispersive(t, {"e1": x, "e2": x})
        b = fine.dispersive(t, {"e1": x, "e2": x})
        scale = max(np.max(np.abs(b["e1"])), np.max(np.abs(b["e2"])))
        for eid in ("e1", "e2"):
            assert np.max(np.abs(a[eid] - b[eid])) <= 1e-4 * scale


def test_unitarity_on_dispersive_subspace():
    tree = star_tree(2, 1.0)
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 6.0, 1.0, -1.0)]})
    prop = Propagator(tree, u0)
    norms = []
    for t in (0.1, 1.0, 4.0):
        hi = 6.0 + 8.5 + 10.0 * t + 10.0
        x = np.linspace(0.0, hi, 3000)
        got = prop.dispersive(t, {"e1": x, "e2": x})
        total = sum(np.trapezoid(np.abs(got[eid]) ** 2, x)
                    for eid in ("e1", "e2"))
        norms.append(math.sqrt(total))
    ref = u0.l2_norm()
    for n in norms:
        assert abs(n - ref) <= 1e-3 * ref


def test_full_evolution_stationary_state():
    tree = star_tree(2, -2.0)
    data = find_eigenvalues(tree)
    phi = data.eigenfunctions[0]
    # u0 = phi as packets is impossible (exponential), so check the
    # bound-state phase factor through evolve_full on a packet instead:
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 5.0, 1.0, 0.0)]})
    x = np.linspace(0.0, 8.0, 17)
    times = [0.4]
    full = evolve_full(tree, u0, times, {"e1": x}, spectral=data)
    disp = evolve_dispersive(tree, u0, times, {"e1": x})
    from deltatree import data_eigen_inner
    coef = data_eigen_inner(u0, phi)
    want = disp[0.4]["e1"] + coef * np.exp(1j * 0.4 * phi.omega ** 2) \
        * phi("e1", x)
    assert np.max(np.abs(full[0.4]["e1"] - want)) < 1e-12


def test_endpoint_leakage_warning():
    tree = star_tree(2, 1.0)
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 1.0, 1.0, 0.0)]})
    with pytest.warns(UserWarning, match="endpoint"):
        prop = Propagator(tree, u0)
    assert prop.endpoint_leakage > 1e-6
