import math

import numpy as np
import pytest

from deltatree import (
    GraphFunction, NearResonantError, Packet, Propagator, QuadratureSpec,
    ResonantTreeError, SystemTemplate, attach_vertex, evolve_dispersive,
    evolve_full, find_eigenvalues, free_evolution, line_tree, origin_radius,
    star_tree,
)
from deltatree import evolution
from deltatree.determinants import circle, contour_taylor
from deltatree.evolution import (_BLOCK_BYTES, _legendre_moments,
                                 _quadratic_taylor_terms, oscillatory_sum)
from conftest import random_tree


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
                   80.0, 500.0, -20.0, -3.0, 1e-12, 1e-6, 11.99, 12.01,
                   deg + 29.9, deg + 30.1])
    G = _legendre_moments(us, deg)
    for i, u in enumerate(us):
        for n in (0, 1, 5, 17, 30, 40):
            want = _exact_moment(float(u), n)
            assert abs(G[n][i] - want) <= 1e-9 * max(abs(want), 1e-4)


def _panel_loop_sum(coeffs, centers, h, t, a):
    """Reference oscillatory sum: one moment block and one tensordot per
    panel, halving panel by panel until |t| h^2 / 4 <= 1.2."""
    while abs(t) * (h / 2.0) ** 2 > 1.2:
        halves, mids = [], []
        for c, tc in zip(coeffs, centers):
            for off in (-h / 4.0, h / 4.0):
                # coefficients of p(s + off)
                halves.append([sum(math.comb(m, n) * off ** (m - n) * c[m]
                                   for m in range(n, len(c)))
                               for n in range(len(c))])
                mids.append(tc + off)
        coeffs, centers, h = np.array(halves), np.array(mids), h / 2.0
    J = _quadratic_taylor_terms(abs(t) * (h / 2.0) ** 2)
    deg = coeffs.shape[1] - 1 + 2 * J
    powers = (h / 2.0) ** (1 + np.arange(deg + 1))
    out = np.zeros(a.shape, dtype=complex)
    for c, tc in zip(coeffs, centers):
        d = np.zeros(deg + 1, dtype=complex)
        for j in range(J + 1):
            d[2 * j: 2 * j + len(c)] += (-1j * t) ** j / math.factorial(j) * c
        G = _legendre_moments((a - 2.0 * t * tc) * h / 2.0, deg)
        out += np.exp(1j * (a * tc - t * tc * tc)) \
            * np.tensordot(d * powers, G, axes=(0, 0))
    return out


def test_oscillatory_sum_matches_panel_loop():
    rng = np.random.default_rng(4)
    h = 0.1
    centers = h * (np.arange(120) - 59.5)
    coeffs = rng.normal(size=(120, 7)) + 1j * rng.normal(size=(120, 7))
    a = np.linspace(-30.0, 30.0, 37)       # 37 does not divide a block
    cases = [(coeffs, centers, t) for t in (0.3, 5.0, 100.0, 2000.0)]
    cases.append((coeffs[:1], np.array([0.3]), 5.0))   # a single panel
    for c, tc, t in cases:
        if t == 2000.0:
            assert t * (h / 2.0) ** 2 > 1.2          # the halving path
        if len(tc) > 1:        # several blocks, even at the least degree 8
            assert len(tc) * a.size > _BLOCK_BYTES // (16 * 9)
        want = _panel_loop_sum(c, tc, h, t, a)
        got = oscillatory_sum(c, tc, h, t, a)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


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


def _loop_panel_coeffs(prop):
    """Panel coefficients from one resolvent solve per contour and panel
    node (the per-node loop the batched build replaced)."""
    q = prop.quad
    template = SystemTemplate(prop.tree)
    r = prop.ring_radius

    def solve(w):
        sys = template.assemble(w, prop.u0, normalized=True)
        return w * np.linalg.solve(sys.matrix, sys.source)

    taylor = contour_taylor([solve(w) for w in circle(r, q.contour_nodes)],
                            r, q.taylor_terms)
    vals = [solve(1j * tau) if abs(tau) >= q.tau_cut_fraction * r
            else np.polynomial.polynomial.polyval(1j * tau, taylor)
            for tau in prop.nodes.ravel()]
    node_vals = np.array(vals).reshape(prop.nodes.shape + (-1,))
    Minv = np.linalg.inv(np.vander(prop._CHEB, 7, increasing=True))
    scalepow = (2.0 / prop.h) ** np.arange(7)
    return np.einsum("mj,pjn->pmn", Minv, node_vals) \
        * scalepow[None, :, None], node_vals


def test_batched_weights_match_per_node_solves():
    tree = line_tree([1.0, -0.4], [1.3])
    u0 = GraphFunction(tree, {"e1": [Packet(1.0 + 0.5j, 5.0, 0.8, -1.0)]})
    prop = Propagator(tree, u0)
    coeffs, node_vals = _loop_panel_coeffs(prop)
    # node values back from the batched panel polynomials
    V = np.vander(0.5 * prop.h * prop._CHEB, 7, increasing=True)
    got = np.einsum("jm,pmn->pjn", V, prop._panel_coeffs)
    assert np.abs(got - node_vals).max() <= 1e-12 * np.abs(node_vals).max()
    ref = Propagator.__new__(Propagator)
    ref.__dict__.update(prop.__dict__, _panel_coeffs=coeffs)
    x = np.linspace(0.0, 8.0, 33)
    samples = {"e1": x, "e2": np.linspace(0.0, 1.3, 9), "e3": x}
    for t in (0.3, 3.0):
        a = prop.dispersive(t, samples)
        b = ref.dispersive(t, samples)
        for eid in samples:
            assert np.abs(a[eid] - b[eid]).max() <= 1e-12 * max(
                1.0, np.abs(b[eid]).max())


def _two_call_dispersive(prop, t, samples):
    """``dispersive`` with one oscillatory sum per term: the c sum at +x
    on internal edges and the ct sum at -x on every edge."""
    out = {}
    for eid, x in samples.items():
        x = np.asarray(x, dtype=float)
        e = prop.tree.edge_map[eid]
        u = np.zeros(x.shape, dtype=complex)
        pk = prop.u0.edge_packets(eid)
        if pk:
            u = u + free_evolution(pk, 0.0, e.length, x, t)
        if not e.is_external:
            u = u + oscillatory_sum(prop.weight_function(eid, "c"),
                                    prop.centers, prop.h, t, x) / math.pi
        u = u + oscillatory_sum(prop.weight_function(eid, "ct"),
                                prop.centers, prop.h, t, -x) / math.pi
        out[eid] = u
    return out


def test_one_moment_pass_per_edge_matches_two_calls(monkeypatch):
    tree = attach_vertex(line_tree([1.0, -0.4], [1.3]), "e3", 0.8, 0.6, 3)
    u0 = GraphFunction(tree, {"e1": [Packet(1.0 + 0.5j, 5.0, 0.8, -1.0)]})
    prop = Propagator(tree, u0)
    samples = {e.id: np.linspace(0.0, 1.3 if e.id == "e2" else 9.0, 23)
               for e in tree.edges}
    calls = []
    counted = lambda *args: calls.append(1) or oscillatory_sum(*args)
    for t in (0.3, 5.0, 100.0, 2000.0):        # t = 2000 halves the panels
        monkeypatch.setattr(evolution, "oscillatory_sum", counted)
        got = prop.dispersive(t, samples)
        monkeypatch.undo()
        assert len(calls) == len(samples)       # one per edge
        calls.clear()
        want = _two_call_dispersive(prop, t, samples)
        for eid in samples:
            assert np.abs(got[eid] - want[eid]).max() <= 1e-12 * max(
                1.0, np.abs(want[eid]).max())
    assert 2000.0 * (prop.h / 2.0) ** 2 > 1.2


def _taylor_error(prop):
    """Largest relative mismatch between the Taylor ring's polynomial and
    direct solves at |tau| < tau_cut."""
    taus = prop.quad.tau_cut_fraction * prop.ring_radius \
        * np.array([-0.9, -0.4, 0.2, 0.6, 0.95])
    sys = prop._template.assemble(1j * taus, prop.u0, normalized=True)
    direct = (1j * taus)[:, None] * np.linalg.solve(
        sys.matrix, sys.source[..., None])[..., 0]
    taylor = np.polynomial.polynomial.polyval(1j * taus, prop._taylor).T
    return np.abs(taylor - direct).max() / np.abs(direct).max()


def test_taylor_ring_excludes_nearby_zeros():
    rng = np.random.default_rng(0)
    for _ in range(136):
        shallow = random_tree(rng, int(rng.integers(1, 5)))
    cases = (
        # a zero of the determinant at omega = -0.0297 inside the default
        # ring of radius 0.1 (the Taylor step used to miss it)
        (line_tree([1.0, -0.4], [1.3]), 1),
        # the ring of radius |alpha| / 2 passes through the zero -alpha / 2
        (star_tree(2, 0.15), 1),
        (line_tree([0.145, 0.0], [1.392]), 1),
        # a bound state at omega = 0.00187
        (shallow, 3),
        (star_tree(3, 1.0), 0),
    )
    for tree, shrinks in cases:
        u0 = GraphFunction(tree, {"e1": [Packet(1.0, 8.0, 1.0, 1.0)]})
        prop = Propagator(tree, u0)
        assert prop.ring_shrinks == shrinks
        assert prop.ring_radius == origin_radius(tree) / 4.0 ** shrinks
        assert _taylor_error(prop) < 1e-8


def test_near_resonant_tree_refused():
    # distance 1/2 + 1e-4 from the resonant (2, -1) line: Lambda(0) is
    # nonsingular, but a zero of the determinant at 7.9e-5 is closer to
    # the origin than any ring down to the floor
    tree = line_tree([2.0, -1.0], [0.5001])
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 8.0, 1.0, 1.0)]})
    with pytest.raises(NearResonantError) as exc:
        Propagator(tree, u0)
    rep = exc.value.report
    assert rep["error"] == "near-resonant"
    assert rep["radius"] == 0.1 / 4.0 ** Propagator.MAX_RING_SHRINKS
    assert rep["winding"] == 2 and rep["expected_winding"] == 1
    # a little farther, the ring shrinks past the zero at 7.99e-4
    prop = Propagator(line_tree([2.0, -1.0], [0.501]), u0)
    assert prop.ring_shrinks == 4 and _taylor_error(prop) < 1e-8


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
