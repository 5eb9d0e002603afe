"""Gaussian wave packets on tree edges and their exact integrals.

All initial data is a finite sum, per edge, of packets

    P(x) = A * exp(-(x - x0)^2 / (2 sigma^2) + i k x).

Every integral the library needs against such data (resolvent source
terms, free Schrodinger evolution of edge-truncated data, inner products
with exponential eigenfunctions, L2 norms) reduces to

    exp(c0) * int_a^b exp(-p y^2 + q y) dy,   Re p > 0,

which has a closed form in the complex error function.  The evaluation
below is organised around scaled complementary error functions
(erfcx(z) = exp(z^2) erfc(z), computed as wofz(iz)) so that huge
intermediate exponentials never appear: only bounded combinations such
as exp(c0 + q^2/(4p) - z^2) are ever exponentiated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

_SQRT_PI = math.sqrt(math.pi)


def _erfcx(z):
    """Scaled complementary error function for complex argument."""
    return wofz(1j * np.asarray(z, dtype=complex))


def gauss_exp_integral(p, q, a, b, log_pref=0.0):
    """exp(log_pref) * int_a^b exp(-p y^2 + q y) dy with Re p > 0.

    Arguments broadcast; ``a`` and ``b`` may be -inf / +inf.  Stable for
    large real parts of ``log_pref`` and ``q``: the result is assembled
    from erfcx values whose exponents are evaluated jointly.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    log_pref = np.asarray(log_pref, dtype=complex)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p, q, log_pref, a, b = np.broadcast_arrays(p, q, log_pref, a, b)
    if np.any(p.real <= 0):
        raise ValueError("gauss_exp_integral requires Re p > 0")

    s = np.sqrt(p)                      # principal branch, Re s > 0
    c = log_pref + q * q / (4.0 * p)

    def endpoint_term(y, sign_inf):
        """exp(c) * erf(s*y - q/(2s)) assembled without exp(c) where the
        erfcx form applies; returns (term, needs_expc, expc_sign)."""
        finite = np.isfinite(y)
        ysafe = np.where(finite, y, 0.0)
        z = s * ysafe - q / (2.0 * s)
        pos = z.real >= 0
        # erf(z) = 1 - exp(-z^2) erfcx(z)        (Re z >= 0)
        # erf(z) = -1 + exp(-z^2) erfcx(-z)      (Re z < 0)
        zz = np.where(pos, z, -z)
        expo = c - z * z
        tail = np.exp(expo) * _erfcx(zz)
        tail = np.where(pos, -tail, tail)
        tail = np.where(finite, tail, 0.0)
        sign = np.where(finite, np.where(pos, 1.0, -1.0), sign_inf)
        return tail, sign

    tail_b, sign_b = endpoint_term(b, 1.0)
    tail_a, sign_a = endpoint_term(a, -1.0)
    # the lone exp(c) contributions cancel whenever both endpoints sit on
    # the same side; only compute exp(c) where they survive
    signs = sign_b - sign_a
    c_masked = np.where(signs != 0, c, -np.inf)
    lone = signs * np.exp(c_masked)
    out = (_SQRT_PI / (2.0 * s)) * (lone + tail_b - tail_a)
    return out if out.shape else complex(out)


# -- packets and graph functions --------------------------------------------


@dataclass(frozen=True)
class Packet:
    A: complex
    x0: float
    sigma: float
    k: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.A * np.exp(-(x - self.x0) ** 2 / (2 * self.sigma ** 2)
                               + 1j * self.k * x)


def packet_exp_integral(pkt, beta, a, b, log_pref=0.0):
    """exp(log_pref) * int_a^b P(y) exp(beta * y) dy for a packet P."""
    p = 1.0 / (2.0 * pkt.sigma ** 2)
    q = pkt.x0 / pkt.sigma ** 2 + 1j * pkt.k + np.asarray(beta, dtype=complex)
    lp = np.asarray(log_pref, dtype=complex) - pkt.x0 ** 2 / (2 * pkt.sigma ** 2)
    return pkt.A * gauss_exp_integral(p, q, a, b, lp)


def packet_pair_integral(p1, p2, a, b):
    """int_a^b P1(y) * conj(P2(y)) dy."""
    p = 1.0 / (2 * p1.sigma ** 2) + 1.0 / (2 * p2.sigma ** 2)
    q = p1.x0 / p1.sigma ** 2 + p2.x0 / p2.sigma ** 2 + 1j * (p1.k - p2.k)
    lp = -p1.x0 ** 2 / (2 * p1.sigma ** 2) - p2.x0 ** 2 / (2 * p2.sigma ** 2)
    return p1.A * np.conj(p2.A) * gauss_exp_integral(p, q, a, b, lp)


def free_evolution(packets, a, b, x, t):
    """Free Schrodinger evolution of the packets truncated to [a, b]:

        (4 pi i t)^(-1/2) int_a^b exp(i (x - y)^2 / (4 t)) u0(y) dy.

    Exact closed form; ``x`` may be an array.  For t = 0 this is just
    the truncated initial data.
    """
    x = np.asarray(x, dtype=float)
    if t == 0:
        inside = (x >= a) & (x <= (b if np.isfinite(b) else np.inf))
        total = sum((pkt(x) for pkt in packets), np.zeros(x.shape, complex))
        return np.where(inside, total, 0.0)
    pref = 1.0 / np.sqrt(4j * math.pi * t)
    out = np.zeros(np.broadcast_shapes(x.shape, ()), dtype=complex)
    for pkt in packets:
        p = 1.0 / (2 * pkt.sigma ** 2) - 1j / (4 * t)
        q = pkt.x0 / pkt.sigma ** 2 + 1j * pkt.k - 1j * x / (2 * t)
        lp = -pkt.x0 ** 2 / (2 * pkt.sigma ** 2) + 1j * x ** 2 / (4 * t)
        out = out + pkt.A * gauss_exp_integral(p, q, a, b, lp)
    return pref * out


class GraphFunction:
    """Initial data on a tree: per-edge lists of Gaussian packets."""

    def __init__(self, tree, packets):
        self.tree = tree
        self.packets = {eid: tuple(pk) for eid, pk in packets.items()
                        if len(pk) > 0}
        for eid in self.packets:
            if eid not in tree.edge_map:
                raise ValueError(f"unknown edge {eid!r} in graph function")

    def edge_packets(self, edge_id):
        return self.packets.get(edge_id, ())

    def __call__(self, edge_id, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for pkt in self.edge_packets(edge_id):
            out = out + pkt(x)
        return out

    def support_radius(self, edge_id, tol_sigmas=8.5):
        """Coordinate beyond which the data on the edge is negligible."""
        pk = self.edge_packets(edge_id)
        if not pk:
            return 0.0
        return max(p.x0 + tol_sigmas * p.sigma for p in pk)

    # -- norms -----------------------------------------------------------

    def l2_norm(self):
        """Exact L2 norm over the whole tree."""
        total = 0.0
        for eid, pk in self.packets.items():
            b = self.tree.edge_map[eid].length
            for p1 in pk:
                for p2 in pk:
                    total += packet_pair_integral(p1, p2, 0.0, b).real
        return math.sqrt(max(total, 0.0))

    def l1_norm(self, points_per_sigma=60):
        """L1 norm by composite Simpson on a resolved grid (|u| is not
        elementary, so this one is quadrature-based)."""
        from scipy.integrate import simpson
        total = 0.0
        for eid, pk in self.packets.items():
            b = self.tree.edge_map[eid].length
            hi = min(b, self.support_radius(eid))
            if hi <= 0:
                continue
            n = max(2001, int(points_per_sigma * hi / min(p.sigma for p in pk)))
            n += (n + 1) % 2
            x = np.linspace(0.0, hi, n)
            total += simpson(np.abs(self(eid, x)), x=x)
        return total

    def sup_norm(self):
        """Sup norm by dense sampling plus local refinement."""
        from scipy.optimize import minimize_scalar
        best = 0.0
        for eid, pk in self.packets.items():
            b = self.tree.edge_map[eid].length
            hi = min(b, self.support_radius(eid))
            x = np.linspace(0.0, hi, 4001)
            vals = np.abs(self(eid, x))
            j = int(np.argmax(vals))
            best = max(best, vals[j])
            lo = x[max(j - 1, 0)]
            up = x[min(j + 1, len(x) - 1)]
            if up > lo:
                res = minimize_scalar(lambda y: -np.abs(self(eid, y)),
                                      bounds=(lo, up), method="bounded",
                                      options={"xatol": 1e-12})
                best = max(best, -res.fun)
        return float(best)


def norms(fn, p):
    """L^p norm of a graph function for p in {1, 2, inf}."""
    if p == 1:
        return fn.l1_norm()
    if p == 2:
        return fn.l2_norm()
    if p in (math.inf, "inf"):
        return fn.sup_norm()
    raise ValueError("p must be 1, 2 or inf")


# -- JSON --------------------------------------------------------------------


def function_to_json(fn):
    return {
        eid: [{"A_re": float(np.real(p.A)), "A_im": float(np.imag(p.A)),
               "x0": p.x0, "sigma": p.sigma, "k": p.k} for p in pk]
        for eid, pk in fn.packets.items()
    }


def _amplitude(d):
    """Packet amplitude from ``A`` or from ``A_re`` / ``A_im``."""
    if not {"A", "A_re", "A_im"} & set(d):
        raise ValueError(f"packet {d} has no amplitude (A, or A_re / A_im)")
    return complex(d.get("A", complex(d.get("A_re", 0.0), d.get("A_im", 0.0))))


def function_from_json(tree, doc):
    packets = {}
    for eid, plist in doc.items():
        packets[eid] = [
            Packet(_amplitude(d), float(d["x0"]), float(d["sigma"]),
                   float(d["k"]))
            for d in plist
        ]
    return GraphFunction(tree, packets)


def load_function(tree, path):
    with open(path) as fh:
        return function_from_json(tree, json.load(fh))
