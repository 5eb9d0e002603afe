"""Acceptance criteria 1-12, one test per criterion.

The four reference trees of criteria 8/9/12 are: single delta (alpha=1),
two-delta line (alpha=(1,1), a=1), star (n=3, alpha=1) and a 2-vertex
bushy tree; the launched packet is a Gaussian moving toward the root
vertex from an interior position (so the data is negligible at edge
endpoints, per the propagator's accuracy contract).
"""

import math

import numpy as np
import pytest

from deltatree import (
    CouplingSpec, GraphFunction, Packet, Propagator, QuadratureSpec,
    ResonantTreeError, appendix_a_checks, assemble_system, attach_vertex,
    check_self_adjoint, cleared_det, decay_scan, delta_matrices, det_direct,
    det_general, det_recursive, dirichlet_matrices, discretize_tree,
    evaluate_resolvent, evolve_cn, find_eigenvalues, free_evolution,
    general_eigenvalues, line_tree, norms, resolvent_defect, safe_horizon,
    sample_function, solve_resolvent, star_tree, sufficient_condition_scan,
    vertex_flux_defect, vertex_value, zero_order_at_origin,
)
from deltatree import choose_truncation
from conftest import random_tree


def _reference_trees():
    t1 = star_tree(2, 1.0)
    t2 = line_tree([1.0, 1.0], [1.0])
    t3 = star_tree(3, 1.0)
    t4 = attach_vertex(star_tree(3, 1.0), "e3", 1.0, 1.0, 3)
    return {"single": t1, "two-delta": t2, "star3": t3, "bushy": t4}


def _launched_data(tree):
    return GraphFunction(tree, {"e1": [Packet(1.0, 6.0, 1.0, -1.0)]})


@pytest.fixture(scope="module")
def reference():
    """Trees, data and prebuilt propagators shared by criteria 8/9/12."""
    out = {}
    for name, tree in _reference_trees().items():
        u0 = _launched_data(tree)
        out[name] = (tree, u0, Propagator(tree, u0))
    return out


def test_criterion_01_closed_form_determinants():
    omegas = np.concatenate([np.linspace(0.1, 10.0, 50),
                             1j * np.linspace(0.1, 10.0, 50)])
    for n in (2, 3, 4):
        for alpha in (-3.0, -1.0, 0.5, 1.0, 2.0):
            tree = star_tree(n, alpha)
            for omega in omegas:
                if abs(omega + alpha) < 1e-6:
                    continue
                want = (n * omega + alpha) / (omega + alpha)
                got = det_direct(tree, omega)
                assert abs(got - want) <= 1e-12 * abs(want)
                ratio = det_recursive(tree, omega).ratios["e1"]
                wantr = ((n - 2) * omega + alpha) / (n * omega + alpha)
                assert abs(ratio - wantr) <= 1e-12 * max(abs(wantr), 1.0)


def test_criterion_02_recursion_direct_equivalence():
    rng = np.random.default_rng(101)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(1, 6)))
        alphas = [v.alpha for v in tree.vertices]
        done = 0
        while done < 100:
            omega = complex(rng.uniform(0.02, 10.0),
                            rng.uniform(-10.0, 10.0))
            if any(abs(omega + a) < 0.02 for a in alphas):
                continue
            d1 = det_direct(tree, omega)
            d2 = det_recursive(tree, omega, with_ratios=False).det
            assert abs(d1 - d2) <= 1e-10 * max(abs(d1), 1e-10), \
                f"p={tree.p} omega={omega}: {d1} vs {d2}"
            done += 1


def test_criterion_03_zero_order_law():
    rng = np.random.default_rng(103)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(1, 5)), positive=True)
        rep = zero_order_at_origin(tree)
        assert rep.zero_order == tree.p - 1
        assert rep.condition_holds
    resonant = line_tree([2.0, -1.0], [0.5])
    rep = zero_order_at_origin(resonant)
    assert rep.zero_order >= resonant.p
    assert not rep.condition_holds


def test_criterion_04_appendix_a_properties():
    rng = np.random.default_rng(104)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(1, 4)), positive=True)
        for s in appendix_a_checks(tree):
            assert abs(s.ratio_at_0 - 1.0) <= 1e-8, (tree.p, s)
            assert s.ratio_deriv_at_0.real < 0, (tree.p, s)
            assert s.order_ok, (tree.p, s)


def test_criterion_05_spectrum():
    tree = star_tree(2, -2.0)
    data = find_eigenvalues(tree)
    assert len(data.omegas) == 1
    assert abs(data.omegas[0] - 1.0) <= 1e-9
    phi = data.eigenfunctions[0]
    x = np.linspace(0.0, 12.0, 400)
    for eid in ("e1", "e2"):
        assert np.max(np.abs(phi(eid, x) - np.exp(-x))) <= 1e-7
    rng = np.random.default_rng(105)
    for _ in range(3):
        t = random_tree(rng, int(rng.integers(1, 4)), positive=True)
        assert find_eigenvalues(t).omegas == []


def test_criterion_06_resolvent_correctness():
    rng = np.random.default_rng(106)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(1, 4)))
        eid0 = tree.external_edges[0].id
        u0 = GraphFunction(tree, {eid0: [Packet(1.0, 3.0, 0.7, 0.5)]})
        for _ in range(10):
            omega = complex(rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0))
            if any(abs(omega + v.alpha) < 0.05 for v in tree.vertices):
                continue
            sol = solve_resolvent(tree, omega, u0)
            # interior ODE residual
            for e in tree.edges:
                hi = e.length if not e.is_external else 7.0
                for x in (0.3 * hi, 0.7 * hi):
                    r = resolvent_defect(sol, e.id, x)
                    assert abs(r) <= 1e-5 * (1 + abs(u0(e.id, x)[()]))
            # continuity and flux at every vertex
            for v in tree.vertices:
                ref = vertex_value(sol, v.id)
                for eidv, xv in tree.incident(v.id):
                    val = evaluate_resolvent(sol, eidv, np.asarray(xv))[()]
                    assert abs(val - ref) <= 1e-9 * (1 + abs(ref))
                assert abs(vertex_flux_defect(sol, v.id)) \
                    <= 1e-7 * (1 + abs(ref))
            # Cramer consistency
            sys = assemble_system(tree, omega, u0)
            xs = np.linalg.solve(sys.matrix, sys.source)
            detD = np.linalg.det(sys.matrix)
            for j in range(len(xs)):
                M = sys.matrix.copy()
                M[:, j] = sys.source
                rhs = np.linalg.det(M)
                assert abs(xs[j] * detD - rhs) <= 1e-9 * (1 + abs(rhs))


def test_criterion_07_free_line_propagator():
    tree = star_tree(2, 0.0)
    pk = Packet(1.0, 6.0, 1.0, -1.0)
    u0 = GraphFunction(tree, {"e1": [pk]})
    prop = Propagator(tree, u0)
    for t in (0.5, 1.0, 5.0, 20.0):
        hi = 6.0 + 8.5 + 10.0 * t
        x = np.linspace(0.0, hi, 1200)
        got = prop.dispersive(t, {"e1": x, "e2": x})
        want = {"e1": free_evolution([pk], -np.inf, np.inf, x, t),
                "e2": free_evolution([pk], -np.inf, np.inf, -x, t)}
        scale = max(np.max(np.abs(want["e1"])), np.max(np.abs(want["e2"])))
        for eid in ("e1", "e2"):
            err = np.max(np.abs(got[eid] - want[eid])) / scale
            assert err <= 1e-4, f"t={t} edge={eid}: rel Linf {err:.2e}"


def test_criterion_08_oracle_agreement(reference):
    h, dt = 1.0 / 64.0, 1.0 / 128.0
    for name, (tree, u0, prop) in reference.items():
        trunc = choose_truncation(u0, 2.0, h)
        assert safe_horizon(u0, trunc) >= 2.0
        dt_tree = discretize_tree(tree, h, trunc)
        state = sample_function(dt_tree, u0)
        samples = {e.id: dt_tree.edge_grid(e.id) for e in tree.edges}
        for t in (0.5, 1.0, 2.0):
            cn = evolve_cn(dt_tree, state, t, dt)
            pr = prop.dispersive(t, samples)    # P = 1: positive strengths
            num = den = 0.0
            for e in tree.edges:
                cv = dt_tree.edge_values(cn, e.id)
                num += float(np.sum(h * np.abs(cv - pr[e.id]) ** 2))
                den += float(np.sum(h * np.abs(cv) ** 2))
            rel = math.sqrt(num / den)
            assert rel <= 1e-2, f"{name} t={t}: rel L2 {rel:.2e}"


def test_criterion_09_dispersive_decay(reference):
    times = [1.0, 2.0, 5.0, 10.0, 30.0, 100.0]
    for name, (tree, u0, prop) in reference.items():
        # a unit-L1 Gaussian launched at the root: the vertex interaction
        # is over by t ~ 1, so sqrt(t) ||u||_inf sits on its plateau over
        # the whole fit window (a packet starting far away transitions
        # between the free and the tree plateau mid-window, which biases
        # the fitted exponent low)
        pk = Packet(1.0, 3.0, 0.5, -1.5)
        raw = GraphFunction(tree, {"e1": [pk]})
        unit = GraphFunction(tree, {
            "e1": [Packet(1.0 / norms(raw, 1), pk.x0, pk.sigma, pk.k)]})
        rep = decay_scan(tree, unit, times)
        assert abs(rep.fit_exponent - 0.5) <= 0.05, \
            f"{name}: beta = {rep.fit_exponent:.3f}"
        # refinement stability of max sqrt(t) ||u||_inf / ||u0||_1
        base = Propagator(tree, unit)
        fine = QuadratureSpec(tau_max=1.5 * base.tau_max,
                              nodes=2 * 14 * base.centers.size)
        rep2 = decay_scan(tree, unit, times, quad=fine)
        m1, m2 = max(rep.products), max(rep2.products)
        assert abs(m1 - m2) <= 0.05 * m2, \
            f"{name}: refinement moved the constant {m1:.4f} -> {m2:.4f}"


def test_criterion_10_resonance_refusal():
    tree = line_tree([2.0, -1.0], [0.5])
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 6.0, 1.0, 0.0)]})
    touched = []
    orig = Propagator._build_panels
    Propagator._build_panels = lambda self: touched.append(1) or orig(self)
    try:
        with pytest.raises(ResonantTreeError) as exc:
            Propagator(tree, u0)
    finally:
        Propagator._build_panels = orig
    assert touched == [], "quadrature setup ran despite the resonance"
    rep = exc.value.report
    assert rep["error"] == "resonant-tree"
    assert rep["origin_order"] > rep["expected_order"]


def test_criterion_11_general_couplings():
    rng = np.random.default_rng(111)
    # delta-instance equivalence: determinant ratio constant in omega
    for _ in range(4):
        tree = random_tree(rng, int(rng.integers(1, 4)))
        spec = CouplingSpec.all_delta(tree)
        ratios = []
        for _ in range(8):
            w = complex(rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0))
            if any(abs(w + v.alpha) < 0.05 for v in tree.vertices):
                continue
            ratios.append(det_general(tree, spec, w) / cleared_det(tree, w))
        for r in ratios[1:]:
            assert abs(r - ratios[0]) <= 1e-10 * abs(ratios[0])
    # eigenvalues agree
    well = line_tree([-2.0, -2.0], [1.0])
    got = general_eigenvalues(well, CouplingSpec.all_delta(well))
    want = find_eigenvalues(well).omegas
    assert len(got) == len(want)
    for g, w in zip(sorted(got), sorted(want)):
        assert abs(g - w) <= 1e-9
    # self-adjointness checks
    assert check_self_adjoint(*delta_matrices(3, 1.0))[0]
    assert check_self_adjoint(*dirichlet_matrices(3))[0]
    assert not check_self_adjoint(np.zeros((2, 2)), np.zeros((2, 2)))[0]
    # conddet scans
    p2 = line_tree([1.0, 1.0], [1.0])
    rep = sufficient_condition_scan(p2, CouplingSpec.all_delta(p2),
                                    tau_min=1e-4, tau_max=5.0, n=600)
    assert rep.min_abs < 1e-3 and rep.argmin_tau < 0.01
    star = star_tree(3, 0.0)
    dir_spec = CouplingSpec({"v1": ("general", *dirichlet_matrices(3))})
    rep = sufficient_condition_scan(star, dir_spec, tau_min=1e-3,
                                    tau_max=5.0, n=400)
    assert rep.min_abs > 0.5 and rep.plausibly_holds


def test_criterion_12_mass_conservation(reference):
    for name, (tree, u0, prop) in reference.items():
        ref = u0.l2_norm()                  # positive strengths: P u0 = u0
        for t in (0.1, 1.0, 10.0):
            hi = 6.0 + 8.5 + 10.0 * t + 10.0
            samples = {e.id: np.linspace(0.0, e.length if not e.is_external
                                         else hi, 3000)
                       for e in tree.edges}
            vals = prop.dispersive(t, samples)
            total = sum(np.trapezoid(np.abs(vals[eid]) ** 2, samples[eid])
                        for eid in vals)
            nrm = math.sqrt(total)
            assert abs(nrm - ref) <= 1e-3 * ref, \
                f"{name} t={t}: ||u|| = {nrm:.6f} vs {ref:.6f}"
    # CN discrete mass over a full run
    tree, u0, _ = reference["two-delta"]
    dt_tree = discretize_tree(tree, 1.0 / 32.0, 24.0)
    state = sample_function(dt_tree, u0)
    _, masses = evolve_cn(dt_tree, state, 2.0, 1.0 / 64.0, record_mass=True)
    drift = max(abs(m - masses[0]) for m in masses)
    assert drift <= 1e-10 * masses[0]
