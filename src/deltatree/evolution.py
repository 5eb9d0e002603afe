"""Dispersive time evolution through the spectral resolvent formula.

For a non-resonant tree the evolution of the continuous-spectrum part
of Gaussian data u0 is

    e^{-itH} P u0 (x) = (i/pi) int_R e^{-i t tau^2} tau (R_{i tau} u0)(x) dtau.

Splitting the resolvent on the sample edge into its source part and the
exponential part turns this into

    u(t, x) = [free evolution of the edge-truncated data]
            + (1/pi) int_R e^{-i t tau^2} ( W_c(tau) e^{i tau x}
                                          + W_ct(tau) e^{-i tau x} ) dtau,

where W_c = omega c_e and W_ct = omega ct_e at omega = i tau are smooth,
decaying functions of tau obtained from the linear systems.  They are
computed once per (tree, data) on a fixed panel grid -- solved directly
away from tau = 0 and through Cauchy-contour Taylor coefficients near
tau = 0, where the limit exists precisely when the tree is
non-resonant -- and interpolated by degree-6 polynomials per panel; the
contour ring and the far nodes are solved as one blocked matrix stack.
The remaining oscillatory integrals

    int_panel (tau - tau_c)^n e^{-i t tau^2 + i a tau} dtau

are a Filon sum in closed form (exact linear-phase moments times a
short Taylor expansion of the centered quadratic phase), so a single
set of panel coefficients serves every time and every sample point;
``oscillatory_sum`` evaluates all (panel, sample) columns in bounded
blocks, one moment recursion and one einsum per block.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .determinants import (InconclusiveWindingError, circle, contour_taylor,
                           generalized_origin_check, origin_radius,
                           winding_number)
from .resolvent import _BLOCK_BYTES, SystemTemplate
from .spectral import find_eigenvalues, data_eigen_inner
from .wavepackets import free_evolution


class ResonantTreeError(Exception):
    """The tree has a zero-energy resonance; the dispersive formula
    does not apply."""

    def __init__(self, order, expected):
        self.report = {
            "error": "resonant-tree",
            "origin_order": order,
            "expected_order": expected,
            "detail": "determinant vanishing order at the origin exceeds "
                      "the generic value; zero-energy resonance present",
        }
        super().__init__(str(self.report))


class NearResonantError(Exception):
    """The determinant has a zero near the origin that no contour ring
    down to the radius floor excludes; the Taylor step is not safe."""

    def __init__(self, radius, winding, expected):
        self.report = {
            "error": "near-resonant",
            "radius": radius,
            "winding": winding,
            "expected_winding": expected,
            "detail": "a zero of the determinant lies near the origin: "
                      "no contour ring down to this radius winds around "
                      "it exactly the expected number of times (null: "
                      "the count did not settle)",
        }
        super().__init__(str(self.report))


# -- exact oscillatory moments ------------------------------------------------


def _legendre_moments(u, deg):
    """G_n(u) = int_{-1}^{1} s^n exp(i u s) ds for n = 0..deg, u real array.

    Two regimes of the by-parts recursion i u G_n = b_n - n G_{n-1},
    b_n = e^{iu} - (-1)^n e^{-iu}, keep every entry accurate: upward
    from G_0 = 2 sin(u) / u for n <= |u| (where it is stable), downward
    G_{n-1} = (b_n - i u G_n) / n from 0 at n = deg + 60 for n > |u|
    (where upward amplifies roundoff by n/|u| per step; the start error
    is damped by the product of |u|/k factors).  The downward form has
    no division, so it holds at u = 0.  Each pass covers the whole
    block and is written only over its own rows."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    eiu = np.exp(1j * u)
    bnd = (eiu - eiu.conj(), eiu + eiu.conj())      # b_n for n even, odd
    G = np.empty((deg + 1,) + u.shape, dtype=complex)
    G[0] = 2.0 * np.sinc(u / np.pi)
    # columns with |u| < 1 take every n >= 1 from the downward pass; the
    # stand-in u = 1 keeps their unused upward entries finite (at most n!)
    inv_iu = 1.0 / (1j * np.where(au >= 1.0, u, 1.0))
    for n in range(1, deg + 1):
        np.multiply(G[n - 1], -n, out=G[n])
        G[n] += bnd[n % 2]
        G[n] *= inv_iu

    # downward; the stand-in u = 0 where |u| >= deg + 30 (no row there has
    # n > |u|) keeps the unused low-n entries from overflowing
    minus_iu = np.where(au < deg + 30, -1j * u, 0.0)
    cur = np.zeros_like(minus_iu)
    for n in range(deg + 60, 0, -1):                    # cur = G_{n-1}
        cur *= minus_iu
        cur += bnd[n % 2]
        cur *= 1.0 / n
        if n - 1 <= deg:
            np.copyto(G[n - 1], cur, where=au < n - 1)
    return G


def _quadratic_taylor_terms(theta):
    """Number of Taylor terms of exp(-i t s^2) needed for |t s^2|<=theta."""
    term, j = 1.0, 0
    while term > 1e-17 and j < 40:
        j += 1
        term *= theta / j
    return j


def _shift_matrix(deg1, delta):
    """T with (c @ T)[n] the s^n coefficient of p(s + delta), where
    c[m] are the coefficients of p(s): T[m, n] = C(m, n) delta^(m-n)."""
    return np.array([[math.comb(m, n) * delta ** (m - n) if m >= n else 0.0
                      for n in range(deg1)] for m in range(deg1)])


def oscillatory_sum(coeffs, centers, h, t, a):
    """sum over panels of int (slow poly)(tau - tau_c) e^{-i t tau^2 + i a tau}.

    coeffs: (n_panels, 7) centered polynomial coefficients, centers the
    panel midpoints, h the panel width, a an array of linear phases.
    Exact in the linear phase; the centered quadratic phase is expanded
    (with automatic panel halving when |t| h^2 / 4 is large).  Every
    (panel, phase) column is evaluated in blocks of at most
    ``_BLOCK_BYTES`` per moment array."""
    a = np.asarray(a, dtype=float)
    theta = abs(t) * (h / 2.0) ** 2
    n_panels, deg1 = coeffs.shape
    while theta > 1.2:
        # halve every panel: re-center the polynomials on both halves
        offs = np.array([-h / 4.0, h / 4.0])
        coeffs = np.stack([coeffs @ _shift_matrix(deg1, off)
                           for off in offs], axis=1).reshape(-1, deg1)
        centers = (centers[:, None] + offs).ravel()
        n_panels, h, theta = 2 * n_panels, h / 2.0, theta / 4.0

    J = _quadratic_taylor_terms(theta)
    deg = deg1 - 1 + 2 * J
    half = h / 2.0
    # d_n: coefficients of (slow poly)(s) * exp(-i t s^2) in s, times the
    # (h/2)^(n+1) of the change of variable tau - tau_c = (h/2) s
    d = np.zeros((n_panels, deg + 1), dtype=complex)
    for j in range(J + 1):
        d[:, 2 * j: 2 * j + deg1] += coeffs * (-1j * t) ** j \
            / math.factorial(j)
    d *= half ** (1 + np.arange(deg + 1))

    flat = a.ravel()
    n_cols = n_panels * flat.size
    block = _BLOCK_BYTES // (16 * (deg + 1))
    out = np.zeros(flat.size, dtype=complex)
    for start in range(0, n_cols, block):
        p, k = np.divmod(np.arange(start, min(start + block, n_cols)),
                         flat.size)
        tc, ak = centers[p], flat[k]
        G = _legendre_moments((ak - 2.0 * t * tc) * half, deg)
        vals = np.einsum("cn,nc->c", d[p], G) \
            * np.exp(1j * (ak * tc - t * tc * tc))
        np.add.at(out, k, vals)
    return out.reshape(a.shape)


# -- the propagator -----------------------------------------------------------


@dataclass
class QuadratureSpec:
    """Knobs for the oscillatory quadrature; ``nodes`` lower-bounds the
    total number of interpolation nodes (refines the panels)."""
    tau_max: float | None = None
    nodes: int | None = None
    contour_nodes: int = 256
    taylor_terms: int = 36
    tau_cut_fraction: float = 0.5


def default_tau_max(u0):
    return max(abs(p.k) + 8.0 / p.sigma
               for pk in u0.packets.values() for p in pk)


class Propagator:
    """Precomputed dispersive propagator for one (tree, u0) pair.

    The resolvent coefficient functions are sampled and interpolated
    once; ``dispersive(t, samples)`` then costs only moment evaluations.
    ``ring_radius`` and ``ring_shrinks`` record the Taylor ring used.
    """

    _CHEB = np.cos(np.pi * np.arange(7) / 6.0)
    _REFLECT = (-1.0) ** np.arange(7)
    MAX_RING_SHRINKS = 5

    def __init__(self, tree, u0, quad=None):
        self.tree = tree
        self.u0 = u0
        self.quad = quad or QuadratureSpec()
        order, expected, ok = generalized_origin_check(tree)
        if not ok:
            raise ResonantTreeError(order, expected)
        # the default tau_max rule assumes Gaussian decay of the
        # Fourier-side factors, which requires the data to be negligible
        # at edge endpoints; record the worst offender
        worst = 0.0
        for eid, pk in u0.packets.items():
            e = tree.edge_map[eid]
            ends = [0.0] + ([e.length] if not e.is_external else [])
            for x in ends:
                rel = abs(u0(eid, np.asarray(x))[()]) / max(
                    abs(p.A) for p in pk)
                worst = max(worst, rel)
        self.endpoint_leakage = worst
        if worst > 1e-6:
            import warnings
            warnings.warn(
                f"initial data reaches an edge endpoint at relative level "
                f"{worst:.1e}; the truncated tau integral loses roughly "
                f"this much accuracy", stacklevel=2)
        self._build_panels()
        self._build_weights()

    # panel layout -----------------------------------------------------

    def _build_panels(self):
        q = self.quad
        tau_max = q.tau_max or default_tau_max(self.u0)
        scale = max(abs(p.x0) + 4.0 * p.sigma
                    for pk in self.u0.packets.values() for p in pk)
        scale += 2.0 * sum(e.length for e in self.tree.internal_edges) + 2.0
        n_half = max(4, math.ceil(tau_max * scale / 0.8))
        if q.nodes:
            n_half = max(n_half, math.ceil(q.nodes / 14.0))
        h = tau_max / n_half
        edges = np.linspace(0.0, tau_max, n_half + 1)
        centers = 0.5 * (edges[1:] + edges[:-1])
        self.h = h
        self.centers = np.concatenate([-centers[::-1], centers])
        self.tau_max = tau_max
        # Chebyshev nodes of every panel, flattened (n_panels, 7)
        self.nodes = self.centers[:, None] + (h / 2.0) * self._CHEB[None, :]

    # resolvent weights -------------------------------------------------

    def _ring_radius(self, template):
        """Radius of the Taylor ring: ``origin_radius`` shrunk by 4 until
        the raw determinant winds around 0 on the ring exactly as often
        as it vanishes at the origin, the generic order plus one per
        Kirchhoff vertex (p - 1, or p if every alpha is 0).  The ring
        then holds no other zero, so the Taylor coefficients are those
        of the entire function.  Sets ``ring_radius`` and
        ``ring_shrinks``; raises ``NearResonantError`` below the floor
        ``origin_radius / 4**MAX_RING_SHRINKS``."""
        tree = self.tree
        kirchhoff = all(v.alpha == 0.0 for v in tree.vertices)
        want = tree.p if kirchhoff else tree.p - 1
        r = origin_radius(tree)
        for shrinks in range(self.MAX_RING_SHRINKS + 1):
            if shrinks:
                r /= 4.0
            try:
                w = winding_number(template.det(
                    circle(r, self.quad.contour_nodes)))
            except InconclusiveWindingError:
                w = None
            if w == want:
                self.ring_radius, self.ring_shrinks = r, shrinks
                return r
        raise NearResonantError(r, w, want)

    def _build_weights(self):
        q = self.quad
        template = self._template = SystemTemplate(self.tree)
        r = self._ring_radius(template)
        tau_cut = q.tau_cut_fraction * r
        flat = self.nodes.ravel()
        far = np.abs(flat) >= tau_cut

        def solve(w):
            sys = template.assemble(w, self.u0, normalized=True)
            x = np.linalg.solve(sys.matrix, sys.source[..., None])[..., 0]
            return w[:, None] * x

        # the Cauchy contour around the origin (Taylor coefficients of the
        # entire vector omega * coeffs(omega)) and the far panel nodes
        ring = circle(r, q.contour_nodes)
        solved = template.blocked(solve, np.append(ring, 1j * flat[far]))
        self._taylor = contour_taylor(solved[:ring.size], r, q.taylor_terms)
        vals = np.empty((flat.size, template.n), dtype=complex)
        vals[far] = solved[ring.size:]
        del solved          # as large as vals: free it before the panel fit
        vals[~far] = np.polynomial.polynomial.polyval(1j * flat[~far],
                                                      self._taylor).T
        node_vals = vals.reshape(self.nodes.shape + (-1,))
        # panel interpolation: values at Chebyshev nodes -> centered
        # monomial coefficients
        V = np.vander(self._CHEB, 7, increasing=True)
        Minv = np.linalg.inv(V)
        scalepow = (2.0 / self.h) ** np.arange(7)
        # (n_panels, 7, n_unknowns)
        self._panel_coeffs = np.einsum(
            "mj,pjn->pmn", Minv, node_vals) * scalepow[None, :, None]

    def weight_function(self, edge_id, kind):
        """Interpolation data of W for one unknown column."""
        col = self._template.col_index[(edge_id, kind)]
        return self._panel_coeffs[:, :, col]

    # evaluation ---------------------------------------------------------

    def dispersive(self, t, samples):
        """Dispersive part e^{-itH} P u0 at time t.

        samples: dict edge_id -> array of coordinates.  Returns a dict
        of complex arrays.
        """
        out = {}
        for eid, x in samples.items():
            x = np.asarray(x, dtype=float)
            e = self.tree.edge_map[eid]
            pk = self.u0.edge_packets(eid)
            u = np.zeros(x.shape, dtype=complex)
            if pk:
                u = u + free_evolution(pk, 0.0, e.length, x, t)
            # the ct term at -x is the sum at +x of W_ct(-tau): on the
            # mirrored panel its centered coefficients times (-1)^m; so
            # one moment pass serves both terms of an internal edge
            coeffs = self.weight_function(eid, "ct")[::-1] * self._REFLECT
            if not e.is_external:
                coeffs = coeffs + self.weight_function(eid, "c")
            u = u + oscillatory_sum(coeffs, self.centers, self.h, t,
                                    x) / math.pi
            out[eid] = u
        return out


def evolve_dispersive(tree, u0, times, samples, quad=None):
    """Dispersive evolution at several times on fixed sample sets."""
    prop = Propagator(tree, u0, quad)
    return {t: prop.dispersive(t, samples) for t in times}


def evolve_full(tree, u0, times, samples, quad=None, spectral=None):
    """Full evolution e^{-itH} u0: dispersive part plus bound states."""
    prop = Propagator(tree, u0, quad)
    if spectral is None:
        spectral = find_eigenvalues(tree)
    bound = [(data_eigen_inner(u0, phi), phi)
             for phi in spectral.eigenfunctions]
    out = {}
    for t in times:
        vals = prop.dispersive(t, samples)
        for eid, x in samples.items():
            x = np.asarray(x, dtype=float)
            for coef, phi in bound:
                vals[eid] = vals[eid] + coef * cmath.exp(
                    1j * t * phi.omega ** 2) * phi(eid, x)
        out[t] = vals
    return out


# -- decay scans --------------------------------------------------------------


@dataclass
class DecayReport:
    times: list
    sup_norms: list
    products: list          # sqrt(t) * ||u(t)||_inf
    fit_constant: float
    fit_exponent: float
    fit_residual: float


def decay_samples(tree, u0, t, per_edge=400):
    """Moving sample windows covering the bulk of the solution at time t."""
    vmax = max(2.0 * (abs(p.k) + 4.0 / p.sigma)
               for pk in u0.packets.values() for p in pk)
    radius = max(u0.support_radius(eid) for eid in u0.packets)
    sigma_max = max(p.sigma for pk in u0.packets.values() for p in pk)
    hi = radius + vmax * max(t, 0.0) + 10.0 * sigma_max
    samples = {}
    for e in tree.edges:
        top = e.length if not e.is_external else hi
        samples[e.id] = np.linspace(0.0, top, per_edge)
    return samples


def decay_scan(tree, u0, times, quad=None, per_edge=400, fit_from=1.0):
    """Sup norms of the dispersive evolution over moving windows and a
    least-squares power-law fit ||u||_inf ~ C t^(-beta) for t >= fit_from."""
    prop = Propagator(tree, u0, quad)
    sups = []
    for t in times:
        samples = decay_samples(tree, u0, t, per_edge)
        vals = prop.dispersive(t, samples)
        sups.append(max(float(np.abs(v).max()) for v in vals.values()))
    times = [float(t) for t in times]
    prods = [math.sqrt(t) * s for t, s in zip(times, sups)]
    sel = [(t, s) for t, s in zip(times, sups) if t >= fit_from and s > 0]
    if len(sel) >= 2:
        lt = np.log([t for t, _ in sel])
        ls = np.log([s for _, s in sel])
        A = np.vstack([np.ones_like(lt), -lt]).T
        (logc, beta), res, *_ = np.linalg.lstsq(A, ls, rcond=None)
        resid = float(np.sqrt(np.mean((A @ np.array([logc, beta]) - ls) ** 2)))
        fit = (math.exp(logc), float(beta), resid)
    else:
        fit = (math.nan, math.nan, math.nan)
    return DecayReport(times, sups, prods, *fit)
