"""Determinants of the resolvent systems and their zero structure.

Three equivalent evaluations of the system determinant are provided:

* ``det_direct`` -- LU determinant of the normalized assembly;
* ``det_recursive`` -- the product recursion over the construction
  sequence (one scalar factor per grafting step);
* ``cleared_det`` -- determinant of the *raw* (unnormalized) assembly
  times (-1)^p, which equals det_direct * prod_v (omega + alpha(v)) and
  is entire in omega.

The recursion needs, at each grafting step, the determinant ratio of the
previous stage with the attachment edge's decaying exponential flipped
to a growing one.  For edges created at the most recent step this ratio
satisfies its own scalar recursion; for older edges it is recomputed by
``SystemTemplate.flipped``, which adds 2 omega B[:, j] to the edge's
column on its vertex's rows (+2 omega in the flux row for a delta
vertex).

``zero_order_at_origin`` counts the order of vanishing of the cleared
determinant at omega = 0 by winding-number tracking on a small circle,
and extracts the first nonzero Taylor coefficient by contour FFT
(``contour_taylor``, shared with the propagator's Taylor step).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .resolvent import SystemTemplate
from .trees import Edge, MetricTree, Vertex


class InconclusiveWindingError(Exception):
    pass


# -- stage trees -------------------------------------------------------------


def stage_trees(tree):
    """Partial trees Gamma_1, ..., Gamma_p along the construction
    sequence, reusing the original vertex and edge ids."""
    root_edges, steps = tree.construction_sequence()
    t = MetricTree(
        [Vertex(tree.root, tree.alpha(tree.root))],
        [Edge(eid, tree.root, None, math.inf) for eid in root_edges],
        tree.root)
    out = [t]
    for s in steps:
        vertices = list(t.vertices) + [Vertex(s.vertex, s.alpha)]
        edges = [Edge(e.id, e.tail, s.vertex, s.a) if e.id == s.cut_edge
                 else e for e in t.edges]
        edges += [Edge(eid, s.vertex, None, math.inf) for eid in s.new_edges]
        t = MetricTree(vertices, edges, tree.root, t.build + (s,))
        out.append(t)
    return out


# -- determinants ------------------------------------------------------------


def det_direct(tree, omega):
    """Determinant of the normalized system matrix."""
    return complex(np.linalg.det(SystemTemplate(tree).matrix(omega)))


def _det_raw(template, omega):
    return complex(np.linalg.det(template.matrix(omega, normalized=False)))


def cleared_det(tree, omega):
    """det_direct * prod_v (omega + alpha(v)); entire in omega.

    Computed as (-1)^p times the raw-assembly determinant, so it stays
    finite at omega = -alpha(v) and omega is only restricted to be
    nonzero.
    """
    return (-1.0) ** tree.p * _det_raw(SystemTemplate(tree), omega)


def ratio_by_flip(tree, edge_id, omega, couplings=None):
    """Determinant ratio det(D-tilde)/det(D) where D-tilde replaces the
    decaying exponential of the given external edge by a growing one.
    ``couplings`` (a ``CouplingSpec``) defaults to the tree's deltas."""
    template = SystemTemplate(tree, couplings)
    omega = complex(omega)
    D = template.matrix(omega, normalized=False)
    Dt = template.flipped(D, omega, edge_id)
    return complex(np.linalg.det(Dt) / np.linalg.det(D))


@dataclass
class DetState:
    """Result of the determinant recursion at one omega."""
    omega: complex
    det: complex                    # normalized determinant
    ratios: dict = field(default_factory=dict)   # external edge -> ratio
    factors: list = field(default_factory=list)  # per-stage dets


def det_recursive(tree, omega, with_ratios=True):
    """Evaluate the normalized determinant through the construction
    sequence and (optionally) the flip ratios of all external edges."""
    omega = complex(omega)
    stages = stage_trees(tree)
    root_edges, steps = tree.construction_sequence()
    n1 = len(root_edges)
    a1 = tree.alpha(tree.root)
    det = (n1 * omega + a1) / (omega + a1)
    fresh = set(root_edges)
    g = ((n1 - 2) * omega + a1) / (n1 * omega + a1)
    factors = [det]
    for k, s in enumerate(steps):
        n = len(s.new_edges) + 1
        al = s.alpha
        a = s.a
        if s.cut_edge in fresh:
            r_prev = g
        else:
            r_prev = ratio_by_flip(stages[k], s.cut_edge, omega)
        q1 = ((n - 2) * omega + al) / (n * omega + al)
        q2 = ((n - 4) * omega + al) / (n * omega + al)
        damp = cmath.exp(-2.0 * a * omega)
        bracket = 1.0 - q1 * damp * r_prev
        factor = ((n * omega + al) / (omega + al)) * cmath.exp(omega * a) \
            * bracket
        det *= factor
        factors.append(factor)
        g = (q1 - q2 * damp * r_prev) / bracket
        fresh = set(s.new_edges)
    ratios = {}
    if with_ratios:
        for e in tree.external_edges:
            if e.id in fresh:
                ratios[e.id] = g
            else:
                ratios[e.id] = ratio_by_flip(tree, e.id, omega)
    return DetState(omega, det, ratios, factors)


# -- winding numbers and origin behaviour ------------------------------------


def winding_number(values):
    """Winding number of a closed sampled curve around 0 by continuous
    phase tracking.  Raises if consecutive phase steps are too large to
    trust (caller should refine)."""
    values = np.asarray(values, dtype=complex)
    if np.any(values == 0) or np.any(~np.isfinite(values)):
        raise InconclusiveWindingError("curve touches 0 or is not finite")
    dphi = np.angle(values[1:] / values[:-1])
    dphi_close = cmath.phase(values[0] / values[-1])
    total = float(np.sum(dphi) + dphi_close)
    if np.max(np.abs(dphi)) > 0.5 * math.pi:
        raise InconclusiveWindingError("phase step exceeds pi/2")
    w = total / (2 * math.pi)
    if abs(w - round(w)) > 1e-6:
        raise InconclusiveWindingError(f"non-integer winding {w}")
    return int(round(w))


def origin_radius(tree):
    """Circle radius for the origin analysis: safely below every pole
    -alpha(v) and below 1/(2 max edge length)."""
    r = 0.1
    alphas = [abs(v.alpha) for v in tree.vertices if v.alpha != 0.0]
    if alphas:
        r = min(r, 0.5 * min(alphas))
    lengths = [e.length for e in tree.internal_edges]
    if lengths:
        r = min(r, 0.5 / max(lengths))
    return r


def circle(r, n):
    """n equispaced nodes on the circle |omega| = r."""
    return r * np.exp(2j * math.pi * np.arange(n) / n)


def contour_taylor(values, r, m):
    """Taylor coefficients c_0..c_{m-1} at the origin of a function
    analytic in |omega| <= r, from its values at ``circle(r, n)`` (along
    axis 0; trailing axes are separate functions)."""
    values = np.asarray(values)
    coeffs = np.fft.fft(values, axis=0)[:m] / len(values)
    powers = r ** np.arange(m)
    return coeffs / powers.reshape((m,) + (1,) * (values.ndim - 1))


def _winding_at(fn, r, nodes, max_nodes=32768):
    n = nodes
    while True:
        try:
            ws = circle(r, n)
            vals = np.array([fn(w) for w in ws])
            return winding_number(np.append(vals, vals[0])), ws, vals
        except InconclusiveWindingError:
            if n >= max_nodes:
                raise
            n *= 2


def _origin_order_of(fn, r, nodes=2048):
    """Winding number of an analytic function around a small circle at
    the origin.  The radius is shrunk until two consecutive counts
    agree, so that isolated nearby zeros (possible for sign-indefinite
    strengths) are not attributed to the origin."""
    w, ws, vals = _winding_at(fn, r, nodes)
    for _ in range(3):
        w2, ws2, vals2 = _winding_at(fn, r / 4.0, nodes)
        if w2 == w:
            return w, r, ws, vals
        r, w, ws, vals = r / 4.0, w2, ws2, vals2
    raise InconclusiveWindingError(
        "winding number did not stabilize under radius refinement")


def _origin_order(tree, radius=None, nodes=2048):
    r = radius if radius is not None else origin_radius(tree)
    template = SystemTemplate(tree)
    return _origin_order_of(lambda w: _det_raw(template, w), r, nodes)


@dataclass
class ResonanceReport:
    zero_order: int             # order of vanishing of det_direct at 0
    p: int                      # vertex count; condition is order == p - 1
    condition_holds: bool
    derivative_value: complex   # (p-1)-th derivative of the cleared det at 0
    radius: float


def zero_order_at_origin(tree, radius=None, nodes=2048):
    """Order of vanishing of the determinant at omega = 0 (argument
    principle on a small circle) and the generic-condition verdict.

    Only defined for trees with all strengths nonzero; the dispersive
    machinery uses an internal variant that also handles Kirchhoff
    vertices.
    """
    if any(v.alpha == 0.0 for v in tree.vertices):
        raise ValueError("zero_order_at_origin requires all alpha(v) != 0")
    order, r, _, vals = _origin_order(tree, radius, nodes)
    # winding of the raw determinant counts zeros of the normalized
    # determinant only: the cleared factors (omega + alpha) have no zeros
    # inside the circle since r <= min |alpha| / 2
    p = tree.p
    cleared = (-1.0) ** p * vals
    deriv = math.factorial(p - 1) * contour_taylor(cleared, r, p)[p - 1]
    return ResonanceReport(order, p, order == p - 1, complex(deriv), r)


def generalized_origin_check(tree, radius=None, nodes=2048):
    """Internal resonance pre-check that tolerates alpha(v) = 0.

    The winding of the raw determinant equals the order of the
    normalized determinant plus one for each Kirchhoff vertex (the
    cleared factor omega + 0 contributes a zero at the origin).  The
    non-resonance condition generalizes to: order equals the number of
    vertices with nonzero strength minus one (and zero for a fully free
    tree).  Kirchhoff vertices are transparent for this count -- a
    degree-2 one is no vertex at all, and a higher-degree one scatters
    without adding a zero at the origin.
    """
    w, r, _, _ = _origin_order(tree, radius, nodes)
    n_kirchhoff = sum(1 for v in tree.vertices if v.alpha == 0.0)
    order = w - n_kirchhoff
    expected = max(tree.p - n_kirchhoff - 1, 0)
    return order, expected, order == expected


# -- strip scan --------------------------------------------------------------


@dataclass
class ScanReport:
    min_abs: float
    argmin: complex
    max_ratios: dict            # external edge -> max |ratio| over the grid
    violation: bool             # min|det| < 1e-10 or some |ratio| >= 1
    eps: float
    delta: float
    tau_max: float


def strip_scan(tree, eps, delta, tau_max, n_tau=2000, n_s=9):
    """Minimum of |det_direct| and maximum flip ratio per external edge
    over the strip grid {|Re omega| <= eps, delta <= |Im omega| <=
    tau_max} (both signs of Im).  Diagnostic for the uniform lower bound
    away from the origin (positive strengths)."""
    ss = np.linspace(-eps, eps, n_s)
    taus = np.linspace(delta, tau_max, n_tau)
    prod_alpha = lambda w: np.prod([w + v.alpha for v in tree.vertices])
    template = SystemTemplate(tree)
    best = math.inf
    arg = None
    max_ratios = {e.id: 0.0 for e in tree.external_edges}
    for s in ss:
        for sign in (1.0, -1.0):
            for tau in taus:
                w = complex(s, sign * tau)
                D = template.matrix(w, normalized=False)
                det_raw = np.linalg.det(D)
                v = abs((-1.0) ** tree.p * det_raw / prod_alpha(w))
                if v < best:
                    best = v
                    arg = w
                for e in tree.external_edges:
                    Dt = template.flipped(D, w, e.id)
                    ratio = abs(np.linalg.det(Dt) / det_raw)
                    if ratio > max_ratios[e.id]:
                        max_ratios[e.id] = float(ratio)
    violation = best < 1e-10 or any(r >= 1.0 for r in max_ratios.values())
    return ScanReport(best, arg, max_ratios, violation, eps, delta, tau_max)


# -- construction-sequence diagnostics (limit facts at the origin) -----------


@dataclass
class StageDiagnostics:
    stage: int
    order: int
    order_ok: bool
    ratio_at_0: complex
    ratio_deriv_at_0: complex
    ratio_ok: bool


def stagewise_origin_checks(tree, nodes=2048):
    """Per-stage origin diagnostics along the construction sequence:
    the vanishing order must grow by one per grafting step, the flip
    ratio of the freshest edges must tend to 1 at omega -> 0 with
    strictly negative derivative (positive strengths)."""
    out = []
    for q, stage in enumerate(stage_trees(tree), start=1):
        rep = zero_order_at_origin(stage, nodes=nodes)
        order = rep.zero_order
        _, steps = stage.construction_sequence()
        if steps:
            edge = steps[-1].new_edges[0]
        else:
            edge = stage.external_edges[0].id
        r = rep.radius
        template = SystemTemplate(stage)
        ws = circle(r, 256)
        mats = [template.matrix(w, normalized=False) for w in ws]
        den = contour_taylor([np.linalg.det(D) for D in mats], r, q + 2)
        num = contour_taylor([np.linalg.det(template.flipped(D, w, edge))
                              for D, w in zip(mats, ws)], r, q + 2)
        a, b = den[q - 1], den[q]
        at, bt = num[q - 1], num[q]
        ratio0 = at / a
        ratio1 = (bt * a - at * b) / (a * a)
        ok = (abs(ratio0 - 1.0) < 1e-8) and (ratio1.real < 0) \
            and (abs(ratio1.imag) < 1e-8 * max(1.0, abs(ratio1.real)))
        out.append(StageDiagnostics(q, order, order == q - 1,
                                    complex(ratio0), complex(ratio1), ok))
    return out


def appendix_a_checks(tree, nodes=2048):
    """Positive-strength property checks (requires all alpha(v) > 0)."""
    if any(v.alpha <= 0.0 for v in tree.vertices):
        raise ValueError("appendix_a_checks requires all alpha(v) > 0")
    return stagewise_origin_checks(tree, nodes=nodes)


# -- Cramer coefficient functions ---------------------------------------------


def coefficient_function(tree, lambda_edge_id, column, omega):
    """Coefficient of t_lambda(0, omega) in omega * det M^{column}, in
    cleared form: M^{column} is the system matrix with the given unknown
    column replaced by the free terms, and since omega T = S @ tvals the
    coefficient of one t-value is the determinant with that column
    replaced by the corresponding slot column of S.  Assembled raw, so
    the result is entire in omega (shares the (omega + alpha) clearing
    of ``cleared_det``)."""
    return _coefficient_det(SystemTemplate(tree), lambda_edge_id, [column],
                            omega)


def _coefficient_det(template, lambda_edge_id, columns, omega):
    """Sum over ``columns`` of ``coefficient_function`` from one
    assembly."""
    sys = template.assemble(omega, normalized=False)
    slot = sys.slot_matrix[:, sys.slot_index[(lambda_edge_id, 0.0)]]
    total = 0.0
    for column in columns:
        D = sys.matrix.copy()
        D[:, sys.col_index[column]] = slot
        total += (-1.0) ** template.tree.p * complex(np.linalg.det(D))
    return total


def coefficient_order(tree, lambda_edge_id, edge_id, nodes=2048):
    """Order of vanishing at omega = 0 of the coefficient function
    f_{lambda,e}: for an external target edge the coefficient of its ct
    column; for an internal target edge the sum of the c and ct
    coefficient functions (whose individual orders may be lower)."""
    columns = [(edge_id, "ct")]
    if not tree.edge_map[edge_id].is_external:
        columns.append((edge_id, "c"))
    template = SystemTemplate(tree)
    fn = lambda w: _coefficient_det(template, lambda_edge_id, columns, w)
    r = origin_radius(tree)
    if max(abs(fn(r * z)) for z in (1, 1j, -1, -1j)) == 0.0:
        return math.inf
    w, _, _, _ = _origin_order_of(fn, r, nodes)
    return w
