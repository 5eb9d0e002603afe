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
non-resonant -- and interpolated by degree-6 polynomials per panel.
The remaining oscillatory moments

    int_panel (tau - tau_c)^n e^{-i t tau^2 + i a tau} dtau

are evaluated in closed form (exact linear-phase moments combined with
a short Taylor expansion of the centered quadratic phase), so a single
set of panel coefficients serves every time and every sample point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .determinants import (circle, contour_taylor, generalized_origin_check,
                           origin_radius)
from .resolvent import SystemTemplate
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


# -- exact oscillatory moments ------------------------------------------------


def _legendre_moments(u, deg):
    """G_n(u) = int_{-1}^{1} s^n exp(i u s) ds for n = 0..deg, u real array.

    Three regimes keep every entry accurate: a power series for small
    |u| (no cancellation below e^12 * eps), the by-parts recursion
    upward for n <= |u| (where it is stable), and the same recursion run
    downward for n > |u| (where the upward form amplifies roundoff by
    n/|u| per step).  The downward pass starts from 0 at n = deg + 60;
    the start error is damped by the product of |u|/k factors."""
    u = np.asarray(u, dtype=float)
    G = np.zeros((deg + 1,) + u.shape, dtype=complex)
    au = np.abs(u)
    small = au <= 12.0

    if np.any(small):
        us = u[small]
        jmax = int(2 * np.max(np.abs(us))) + 40 if us.size else 40
        term = np.ones(us.shape, dtype=complex)      # (i u)^j / j!
        Gs = np.zeros((deg + 1,) + us.shape, dtype=complex)
        for j in range(jmax + 1):
            if j > 0:
                term = term * (1j * us) / j
            for n in range(j % 2, deg + 1, 2):       # n + j even
                Gs[n] += 2.0 * term / (n + j + 1)
        G[:, small] = Gs

    rest = ~small
    if np.any(rest):
        ur = u[rest]
        aur = au[rest]
        eiu = np.exp(1j * ur)
        emiu = np.conj(eiu)
        iu = 1j * ur
        bnd = lambda n: (eiu - (-1.0) ** n * emiu) / iu
        Gup = np.zeros((deg + 1,) + ur.shape, dtype=complex)
        Gup[0] = 2.0 * np.sin(ur) / ur
        prev = Gup[0]
        for n in range(1, deg + 1):
            prev = bnd(n) - (n / iu) * prev
            Gup[n] = prev
        Gdn = np.zeros_like(Gup)
        # downward only matters where |u| < deg (otherwise the upward
        # pass covers every n); restrict it there to avoid overflow of
        # the unused low-n entries at very large |u|
        mid = aur < deg + 30
        if np.any(mid):
            ium = iu[mid]
            eium = eiu[mid]
            emium = emiu[mid]
            cur = np.zeros(ium.shape, dtype=complex)
            for n in range(deg + 60, 0, -1):
                b = (eium - (-1.0) ** n * emium) / ium
                cur = (b - cur) * ium / n            # = G_{n-1}
                if n - 1 <= deg:
                    Gdn[n - 1][mid] = cur
        ns = np.arange(deg + 1).reshape((deg + 1,) + (1,) * ur.ndim)
        G[:, rest] = np.where(ns <= aur[None, ...], Gup, Gdn)
    return G


def _quadratic_taylor_terms(theta):
    """Number of Taylor terms of exp(-i t s^2) needed for |t s^2|<=theta."""
    term, j = 1.0, 0
    while term > 1e-17 and j < 40:
        j += 1
        term *= theta / j
    return j


def _shift_poly(coeffs, delta):
    """Coefficients of p(s + delta) from those of p(s); coeffs has the
    polynomial degree along axis 0."""
    deg = coeffs.shape[0] - 1
    out = np.zeros_like(coeffs)
    binom = np.zeros((deg + 1, deg + 1))
    for m in range(deg + 1):
        binom[m, m] = 1.0
        for i in range(m):
            binom[m, i] = math.comb(m, i) * delta ** (m - i)
    for n in range(deg + 1):
        for m in range(n, deg + 1):
            out[n] += binom[m, n] * coeffs[m]
    return out


def oscillatory_sum(coeffs, centers, h, t, a):
    """sum over panels of int (slow poly)(tau - tau_c) e^{-i t tau^2 + i a tau}.

    coeffs: (n_panels, 7) centered polynomial coefficients, centers the
    panel midpoints, h the panel width, a an array of linear phases.
    Exact in the linear phase; the centered quadratic phase is expanded
    (with automatic panel halving when |t| h^2 / 4 is large)."""
    a = np.asarray(a, dtype=float)
    out = np.zeros(a.shape, dtype=complex)
    theta = abs(t) * (h / 2.0) ** 2
    while theta > 1.2:
        # halve every panel: re-center the degree-6 polynomials
        n, deg1 = coeffs.shape
        new_c = np.empty((2 * n, deg1), dtype=coeffs.dtype)
        new_centers = np.empty(2 * n)
        for i in range(n):
            for s_half, off in ((0, -h / 4.0), (1, h / 4.0)):
                new_c[2 * i + s_half] = _shift_poly(coeffs[i], off)
                new_centers[2 * i + s_half] = centers[i] + off
        coeffs, centers, h = new_c, new_centers, h / 2.0
        theta = abs(t) * (h / 2.0) ** 2

    J = _quadratic_taylor_terms(theta)
    deg = coeffs.shape[1] - 1 + 2 * J
    half = h / 2.0
    powers = half ** (1 + np.arange(deg + 1))
    qfac = np.array([(-1j * t) ** j / math.factorial(j) for j in range(J + 1)])
    for i in range(coeffs.shape[0]):
        tc = centers[i]
        # d_n: coefficients of (slow poly)(s) * exp(-i t s^2) in s
        d = np.zeros(deg + 1, dtype=complex)
        for j in range(J + 1):
            d[2 * j: 2 * j + coeffs.shape[1]] += qfac[j] * coeffs[i]
        beta = a - 2.0 * t * tc
        G = _legendre_moments(beta * half, deg)
        phase = np.exp(1j * (a * tc - t * tc * tc))
        out += phase * np.tensordot(d * powers, G, axes=(0, 0))
    return out


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
    """

    _CHEB = np.cos(np.pi * np.arange(7) / 6.0)

    def __init__(self, tree, u0, quad=None, check_resonance=True):
        self.tree = tree
        self.u0 = u0
        self.quad = quad or QuadratureSpec()
        if check_resonance:
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

    def _solve_weights(self, omega):
        sys = self._template.assemble(omega, self.u0, normalized=True)
        return omega * np.linalg.solve(sys.matrix, sys.source)

    def _build_weights(self):
        q = self.quad
        self._template = SystemTemplate(self.tree)
        r = origin_radius(self.tree)
        tau_cut = q.tau_cut_fraction * r
        # Cauchy contour around the origin: Taylor coefficients of the
        # entire-vector omega * coeffs(omega)
        ring = [self._solve_weights(w) for w in circle(r, q.contour_nodes)]
        self._taylor = contour_taylor(ring, r, q.taylor_terms)

        flat = self.nodes.ravel()
        vals = np.empty((flat.size, self._taylor.shape[1]), dtype=complex)
        for i, tau in enumerate(flat):
            if abs(tau) >= tau_cut:
                vals[i] = self._solve_weights(1j * tau)
            else:
                om = 1j * tau
                vals[i] = np.polynomial.polynomial.polyval(
                    om, self._taylor)
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
            if not e.is_external:
                u = u + oscillatory_sum(self.weight_function(eid, "c"),
                                        self.centers, self.h, t, x) / math.pi
            u = u + oscillatory_sum(self.weight_function(eid, "ct"),
                                    self.centers, self.h, t, -x) / math.pi
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
