"""Point spectrum of the tree Hamiltonian and spectral projections.

Negative eigenvalues are -omega^2 with omega > 0, counted with the
vertex Dirichlet-to-Neumann matrix Lambda(omega): the p x p symmetric
map from vertex values f to alpha f minus the outgoing derivatives of
the solution of -u'' + omega^2 u = 0 that equals f at the vertices and
decays on the rays.  Its diagonal is alpha(v) + omega per ray + omega
coth(omega L) per internal edge, its off-diagonal -omega / sinh(omega L)
per internal edge.  f^T Lambda f is the form of H + omega^2 on that
solution, with derivative 2 omega ||u||^2 > 0 in omega, and
-u'' + omega^2 u is positive on an edge with Dirichlet ends; so (Sylvester
inertia) Lambda(omega) has as many negative eigenvalues as there are
bound states with omega_k > omega, counted with multiplicity.

``find_eigenvalues`` bisects (1e-6, omega_max] on that count (the idea
of LAPACK ``dstebz``, Barth-Martin-Wilkinson 1967) until each interval
holds one jump, then refines the root by Brent's method on the
eigenvalue of Lambda that crosses zero; a cluster narrower than ``xtol``
is one root of multiplicity equal to its jump, repeated that often in
``SpectralData.omegas``.  Eigenfunctions are kernel vectors of
Lambda(omega_k) lifted to the edges (sinh interpolation on internal
edges, f(v) e^{-omega x} on rays), orthonormalized within a multiple
root by the exact ``eigen_inner`` Gram matrix, each signed so that its
largest coefficient is positive.  The kernel is the eigenvalues of
Lambda(omega_k) within ``KERNEL_RTOL`` of zero, relative to the size of
Lambda's terms; it must have the root's multiplicity.  Roots closer
than about that (but farther apart than ``xtol``) leave a kernel of the
wrong dimension, whose vectors would be accurate to no better than
rounding / gap.  ``find_eigenvalues`` raises ``IncompleteSpectrumError``
then, and when a bound state lies above omega_max, rather than return
a partial spectrum.  They are pure
exponentials per edge, so all inner products against exponentials and
Gaussian packets are exact.  General (A, B) couplings
(``couplings.general_eigenvalues``) keep the determinant scan
``sign_change_roots``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .wavepackets import packet_exp_integral

OMEGA_MIN = 1e-6        # bound states with omega <= this are not sought
KERNEL_RTOL = 1e-8      # a relative eigenvalue of Lambda this small is zero


class IncompleteSpectrumError(RuntimeError):
    """The bound states could not all be found and resolved."""


def omega_bracket(tree):
    """Search bound for bound-state frequencies: every eigenvalue
    satisfies omega <= sum of the negative-part strengths (a crude but
    safe Lieb-Thirring style bound for delta wells)."""
    return sum(max(0.0, -v.alpha) for v in tree.vertices) + 1.0


class DtNMatrix:
    """Vertex Dirichlet-to-Neumann matrix Lambda(omega) of a delta tree,
    for real omega >= 0 (rows and columns in ``tree.vertices`` order)."""

    def __init__(self, tree):
        self.tree = tree
        index = {v.id: i for i, v in enumerate(tree.vertices)}
        self.internal = tree.internal_edges
        self.rays = [(e.id, index[e.tail]) for e in tree.external_edges]
        self.alpha = np.array([v.alpha for v in tree.vertices])
        self.n_rays = np.bincount(np.array([i for _, i in self.rays],
                                           dtype=int), minlength=tree.p)
        self.tail = np.array([index[e.tail] for e in self.internal],
                             dtype=int)
        self.head = np.array([index[e.head] for e in self.internal],
                             dtype=int)
        self.length = np.array([e.length for e in self.internal])

    def _edge_terms(self, omega):
        """exp(-omega L) and 1 - exp(-2 omega L) per internal edge; the
        second by expm1, so that the quotients below stay accurate as
        omega -> 0 (they tend to 1 / L)."""
        return (np.exp(-omega * self.length),
                -np.expm1(-2.0 * omega * self.length))

    def __call__(self, omega):
        """Lambda(omega); at omega = 0 its limit diag(alpha) plus the
        internal-edge Laplacian weighted by 1 / L (the ray terms tend to
        0, omega coth(omega L) and omega / sinh(omega L) to 1 / L)."""
        p = self.tree.p
        if omega == 0.0:
            diag = off = 1.0 / self.length
        else:
            decay, gap = self._edge_terms(omega)
            diag = 2.0 * omega / gap - omega    # omega coth(omega L)
            off = 2.0 * omega * decay / gap     # omega / sinh(omega L)
        lam = np.diag(self.alpha + omega * self.n_rays
                      + np.bincount(self.tail, diag, p)
                      + np.bincount(self.head, diag, p))
        lam[self.tail, self.head] = -off
        lam[self.head, self.tail] = -off
        return lam

    def count(self, omega):
        """Number of bound states with omega_k > omega."""
        return int(np.count_nonzero(np.linalg.eigvalsh(self(omega)) < 0.0))

    def scale(self, omega):
        """Size of the terms of Lambda(omega): the largest row sum of
        their moduli, alpha counted apart from what it may cancel."""
        terms = np.abs(self(omega) - np.diag(self.alpha))
        return float(np.max(terms.sum(axis=1) + np.abs(self.alpha)))

    def lift(self, omega, f, multiplicity=1):
        """The solution of -u'' + omega^2 u = 0 with vertex values f that
        decays on the rays, as an (unnormalized) Eigenfunction."""
        decay, gap = self._edge_terms(omega)
        fa, fb = f[self.tail], f[self.head]
        c = (fb - fa * decay) * decay / gap
        ct = (fa - fb * decay) / gap
        coeffs = {e.id: (float(c[j]), float(ct[j]))
                  for j, e in enumerate(self.internal)}
        coeffs.update((eid, (0.0, float(f[i]))) for eid, i in self.rays)
        coeffs = {e.id: coeffs[e.id] for e in self.tree.edges}
        return Eigenfunction(self.tree, float(omega), coeffs, multiplicity)


@dataclass
class Eigenfunction:
    tree: object
    omega: float                 # eigenvalue is -omega^2
    coeffs: dict                 # edge_id -> (c, ct), real floats
    multiplicity: int            # dimension of the eigenspace of -omega^2

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
    omegas: list                 # ascending, a root repeated per multiplicity
    eigenfunctions: list         # L2-orthonormal Eigenfunction objects

    def to_json(self):
        return {
            "omegas": list(map(float, self.omegas)),
            "eigenfunctions": [
                {eid: {"c": float(c), "c_tilde": float(ct)}
                 for eid, (c, ct) in phi.coeffs.items()}
                for phi in self.eigenfunctions
            ],
        }


def sign_change_roots(f, omega_max, n_grid=10000, xtol=1e-12):
    """Roots of the real function f on (1e-6, omega_max]: sign changes on a
    uniform grid, each bracket refined by Brent's method, near-coincident
    roots merged.  ``f`` takes an array: it is called once on the whole
    grid, then with scalars by Brent."""
    grid = np.linspace(OMEGA_MIN, omega_max, n_grid)
    vals = f(grid)
    # compare signs, not products: neighbouring values may be huge
    change = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
    roots = list(grid[:-1][vals[:-1] == 0.0])
    roots += [brentq(f, grid[i], grid[i + 1], xtol=xtol)
              for i in np.flatnonzero(change)]
    merged = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) >= 10 * xtol:
            merged.append(r)
    return merged


def count_roots(dtn, lo, hi, xtol=1e-12):
    """Roots of det Lambda on (lo, hi] as ascending (omega, multiplicity)
    pairs: bisection on ``dtn.count`` until each interval holds one jump
    of the count, then Brent's method on the eigenvalue of Lambda that
    crosses zero in it.  A rounding-level dip of the count is clamped
    into its interval's range, so the multiplicities always add up to
    count(lo) - count(hi)."""
    roots = []
    stack = [(lo, hi, dtn.count(lo), dtn.count(hi))]
    while stack:
        a, b, na, nb = stack.pop()
        if na == nb:
            continue
        if b - a <= xtol:
            roots.append((0.5 * (a + b), na - nb))
        elif na - nb == 1:
            # eigenvalue nb (ascending) is < 0 at a and >= 0 at b
            crossing = lambda w: np.linalg.eigvalsh(dtn(w))[nb]
            roots.append((brentq(crossing, a, b, xtol=xtol), 1))
        else:
            m = 0.5 * (a + b)
            nm = min(max(dtn.count(m), nb), na)
            stack += [(m, b, nm, nb), (a, m, na, nm)]
    return sorted(roots)


def _eigenspace(dtn, omega, multiplicity):
    """Orthonormal eigenfunctions at a root of det Lambda: the kernel
    vectors of Lambda(omega), lifted to the edges and orthonormalized
    with the exact Gram matrix.  Raises ``IncompleteSpectrumError`` if
    the kernel does not have the root's multiplicity (module docstring)."""
    vals, vecs = np.linalg.eigh(dtn(omega))
    kernel = np.abs(vals) <= KERNEL_RTOL * dtn.scale(omega)
    if np.count_nonzero(kernel) != multiplicity:
        raise IncompleteSpectrumError(
            f"Lambda has {np.count_nonzero(kernel)} zero eigenvalue(s) at "
            f"omega={omega:.12g}, a root of multiplicity {multiplicity} by "
            f"the count: bound states too close to resolve")
    f = vecs[:, kernel].T
    lifts = [dtn.lift(omega, row) for row in f]
    gram = [[eigen_inner(a, b) for b in lifts] for a in lifts]
    funcs = []
    for row in np.linalg.solve(np.linalg.cholesky(gram), f):
        phi = dtn.lift(omega, row, multiplicity)
        # fix each sign: make the largest coefficient positive
        flat = [v for pair in phi.coeffs.values() for v in pair]
        if flat[int(np.argmax(np.abs(flat)))] < 0:
            phi = dtn.lift(omega, -row, multiplicity)
        funcs.append(phi)
    return funcs


def find_eigenvalues(tree, omega_max=None, xtol=1e-12):
    """All bound states with omega > 1e-6, counted with multiplicity by
    the inertia of the vertex Dirichlet-to-Neumann matrix (module
    docstring).  Raises ``IncompleteSpectrumError`` when omega_max lies
    below a bound state or two bound states are too close to resolve.
    ``xtol`` must stay far below ``KERNEL_RTOL``, as the default does:
    Lambda's eigenvalue at a root found to xtol is about xtol in size."""
    if omega_max is None:
        omega_max = omega_bracket(tree)
    dtn = DtNMatrix(tree)
    above = dtn.count(omega_max)
    if above:
        raise IncompleteSpectrumError(
            f"{above} bound state(s) lie above omega_max={omega_max:.6g}")
    omegas, funcs = [], []
    for w, m in count_roots(dtn, OMEGA_MIN, omega_max, xtol):
        omegas += [float(w)] * m
        funcs += _eigenspace(dtn, w, m)
    return SpectralData(tree, omegas, funcs)


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
