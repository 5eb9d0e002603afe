"""Point spectrum of the tree Hamiltonian and spectral projections.

Negative eigenvalues are -omega^2 with omega > 0 a zero of the cleared
determinant on the positive real axis.  Eigenfunctions are pure
exponentials per edge (kernel vectors of the raw system matrix); all
inner products against exponentials and Gaussian packets are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .resolvent import SystemTemplate, assemble_system
from .wavepackets import packet_exp_integral


def omega_bracket(tree):
    """Search bound for bound-state frequencies: every eigenvalue
    satisfies omega <= sum of the negative-part strengths (a crude but
    safe Lieb-Thirring style bound for delta wells)."""
    return sum(max(0.0, -v.alpha) for v in tree.vertices) + 1.0


@dataclass
class Eigenfunction:
    tree: object
    omega: float                 # eigenvalue is -omega^2
    coeffs: dict                 # edge_id -> (c, ct), real floats
    simplicity_gap: float        # sigma_{N-1} / sigma_1 of the system matrix

    @property
    def eigenvalue(self):
        return -self.omega ** 2

    def __call__(self, edge_id, x):
        x = np.asarray(x, dtype=float)
        c, ct = self.coeffs[edge_id]
        return c * np.exp(self.omega * x) + ct * np.exp(-self.omega * x)

    def derivative(self, edge_id, x):
        x = np.asarray(x, dtype=float)
        c, ct = self.coeffs[edge_id]
        om = self.omega
        return om * (c * np.exp(om * x) - ct * np.exp(-om * x))


def _exp_integral(s, length):
    """int_0^length exp(s x) dx, length possibly infinite (needs s < 0)."""
    if not math.isfinite(length):
        if s >= 0:
            raise ValueError("divergent exponential integral")
        return -1.0 / s
    if abs(s) < 1e-14:
        return length
    return (math.exp(s * length) - 1.0) / s


def eigen_inner(phi1, phi2):
    """L2 inner product of two eigenfunctions over the tree."""
    total = 0.0
    for e in phi1.tree.edges:
        c1, d1 = phi1.coeffs[e.id]
        c2, d2 = phi2.coeffs[e.id]
        o1, o2 = phi1.omega, phi2.omega
        for ca, sa in ((c1, o1), (d1, -o1)):
            for cb, sb in ((c2, o2), (d2, -o2)):
                if ca == 0.0 or cb == 0.0:
                    continue
                total += ca * cb * _exp_integral(sa + sb, e.length)
    return total


def data_eigen_inner(u0, phi):
    """<u0, phi> over the tree (phi is real), exact."""
    total = 0.0 + 0.0j
    for eid, packets in u0.packets.items():
        e = u0.tree.edge_map[eid]
        c, ct = phi.coeffs[eid]
        for pkt in packets:
            if c != 0.0:
                total += c * packet_exp_integral(pkt, phi.omega, 0.0, e.length)
            if ct != 0.0:
                total += ct * packet_exp_integral(pkt, -phi.omega, 0.0,
                                                  e.length)
    return total


@dataclass
class SpectralData:
    tree: object
    omegas: list                 # ascending
    eigenfunctions: list         # L2-normalized Eigenfunction objects
    warnings: list

    def to_json(self):
        return {
            "omegas": list(map(float, self.omegas)),
            "eigenfunctions": [
                {eid: {"c": float(c), "c_tilde": float(ct)}
                 for eid, (c, ct) in phi.coeffs.items()}
                for phi in self.eigenfunctions
            ],
            "warnings": list(self.warnings),
        }


def sign_change_roots(f, omega_max, n_grid=10000, xtol=1e-12):
    """Roots of the real function f on (0, omega_max]: sign changes on a
    uniform grid, each bracket refined by Brent's method, near-coincident
    roots merged.  Returns (roots, warnings).  ``f`` takes an array: it
    is called once on the whole grid, then with scalars by Brent."""
    grid = np.linspace(1e-6, omega_max, n_grid)
    vals = f(grid)
    # compare signs, not products: neighbouring values may be huge
    change = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
    roots = list(grid[:-1][vals[:-1] == 0.0])
    roots += [brentq(f, grid[i], grid[i + 1], xtol=xtol)
              for i in np.flatnonzero(change)]
    warnings = []
    merged = []
    for r in sorted(roots):
        if merged and abs(r - merged[-1]) < 10 * xtol:
            warnings.append(f"nearly coincident roots near omega={r:.6g}")
            continue
        merged.append(r)
    return merged, warnings


def find_eigenvalues(tree, omega_max=None, n_grid=10000, xtol=1e-12):
    """All bound states: scan the cleared determinant for sign changes
    on (0, omega_max] and refine each bracket by bisection."""
    if omega_max is None:
        omega_max = omega_bracket(tree)
    template = SystemTemplate(tree)
    sign = (-1.0) ** tree.p
    f = lambda w: sign * template.det(w).real
    merged, warnings = sign_change_roots(f, omega_max, n_grid, xtol)
    funcs = [eigenfunction_at(tree, w) for w in merged]
    for w, phi in zip(merged, funcs):
        if phi.simplicity_gap < 1e-6:
            warnings.append(
                f"eigenvalue at omega={w:.6g} may not be simple "
                f"(relative spectral gap {phi.simplicity_gap:.2e})")
    return SpectralData(tree, merged, funcs, warnings)


def eigenfunction_at(tree, omega):
    """Normalized eigenfunction from the kernel of the raw system matrix."""
    sys = assemble_system(tree, omega, normalized=False)
    U, sv, Vh = np.linalg.svd(sys.matrix)
    gap = float(sv[-2] / sv[0]) if len(sv) > 1 else 1.0
    vec = Vh[-1].conj()
    # the matrix is real for real omega: rotate the kernel vector real
    j = int(np.argmax(np.abs(vec)))
    vec = vec * (np.abs(vec[j]) / vec[j])
    vec = vec.real
    coeffs = {}
    for e in tree.edges:
        c = 0.0
        if not e.is_external:
            c = float(vec[sys.col_index[(e.id, "c")]])
        ct = float(vec[sys.col_index[(e.id, "ct")]])
        coeffs[e.id] = (c, ct)
    phi = Eigenfunction(tree, float(omega), coeffs, gap)
    nrm = math.sqrt(eigen_inner(phi, phi))
    coeffs = {eid: (c / nrm, ct / nrm) for eid, (c, ct) in coeffs.items()}
    # fix an overall sign: make the largest coefficient positive
    flat = [v for pair in coeffs.values() for v in pair]
    if flat[int(np.argmax(np.abs(flat)))] < 0:
        coeffs = {eid: (-c, -ct) for eid, (c, ct) in coeffs.items()}
    return Eigenfunction(tree, float(omega), coeffs, gap)


# -- projections --------------------------------------------------------------


class ProjectedFunction:
    """u0 minus its components along the given eigenfunctions."""

    def __init__(self, u0, spectral):
        self.u0 = u0
        self.tree = u0.tree
        self.terms = [(data_eigen_inner(u0, phi), phi)
                      for phi in spectral.eigenfunctions]

    def __call__(self, edge_id, x):
        out = self.u0(edge_id, x).astype(complex)
        for coef, phi in self.terms:
            out = out - coef * phi(edge_id, x)
        return out

    def l2_norm(self):
        """Exact: ||u0||^2 - sum |<u0, phi_k>|^2 (eigenfunctions are
        orthonormal)."""
        total = self.u0.l2_norm() ** 2
        for coef, _ in self.terms:
            total -= abs(coef) ** 2
        return math.sqrt(max(total, 0.0))
