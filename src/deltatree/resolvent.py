"""Assembly and solution of the resolvent linear systems.

On each edge the resolvent of the tree Hamiltonian applied to Gaussian
data u0 has the form

    R u0(x) = c e^{omega x} + ct e^{-omega x} + t_e(x, omega) / omega,

with c = 0 on external (infinite) edges and

    t_e(x, omega) = 1/2 * int_{I_e} u0|_e(y) exp(-omega |x - y|) dy.

The unknown coefficients satisfy one linear system per tree.  Every
vertex contributes one block of rows, its coupling condition
A u(v) + B u'(v) = 0, where u(v) collects the values on the incident
edges and u'(v) the derivatives pointing into each edge (away from the
vertex).  A delta vertex of strength alpha is the instance
``delta_matrices``: continuity rows, then the flux row

    sum of outgoing derivatives - alpha * (value on the first edge) = 0.

``SystemTemplate`` compiles the blocks of one tree once into flat entry
arrays and evaluates them over omega of any shape, returning stacks with
the omega axes leading (a scalar omega is the 0-d case); long omega
arrays are walked in blocks of ``_BLOCK_BYTES``.  Delta flux rows may be
normalized by -1/(omega + alpha); the raw form is entire in omega.

Columns and rows are ordered by the construction sequence of the tree:
the root star contributes one ct column per root edge, every grafting
step appends the c column of the edge it cuts followed by the ct
columns of its fresh rays.  Rows come in vertex groups, continuity rows
first, flux row last.  With this ordering the direct determinant
coincides exactly (including sign) with the product recursion in
``determinants``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavepackets import packet_exp_integral

# bytes per block of a batched evaluation (system-matrix stacks here, moment
# arrays in evolution.oscillatory_sum): cache sized, memory flat
_BLOCK_BYTES = 1 << 19


class SingularSystemError(Exception):
    """Raised when the resolvent system is numerically singular."""

    def __init__(self, omega, condition):
        self.omega = omega
        self.condition = condition
        super().__init__(
            f"resolvent system is singular at omega={omega}: "
            f"reciprocal condition number {condition:.3e}")


def t_edge(packets, length, x, omega):
    """Source term t_e(x, omega) for the given edge data (closed form).

    ``x`` or ``omega`` may be arrays (broadcast against each other).
    Entire in omega; valid for complex omega.
    """
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=complex)
    total = np.zeros(np.broadcast_shapes(x.shape, omega.shape), dtype=complex)
    for pkt in packets:
        left = packet_exp_integral(pkt, omega, 0.0, x, log_pref=-omega * x)
        right = packet_exp_integral(pkt, -omega, x, length, log_pref=omega * x)
        total = total + left + right
    return 0.5 * total


def system_ordering(tree):
    """Canonical column order and vertex groups from the construction
    sequence.  Returns (cols, groups) where cols is a list of
    (edge_id, 'c' | 'ct') and groups a list of (vertex_id, local_edges)."""
    root_edges, steps = tree.construction_sequence()
    cols = [(eid, "ct") for eid in root_edges]
    groups = [(tree.root, list(root_edges))]
    for s in steps:
        cols.append((s.cut_edge, "c"))
        cols.extend((eid, "ct") for eid in s.new_edges)
        groups.append((s.vertex, [s.cut_edge] + list(s.new_edges)))
    return cols, groups


def delta_matrices(d, alpha):
    """The (A, B) pair realizing the delta coupling of strength alpha:
    continuity rows, then the flux row with -alpha on the first local
    edge."""
    A = np.zeros((d, d))
    B = np.zeros((d, d))
    for i in range(d - 1):
        A[i, i] = 1.0
        A[i, i + 1] = -1.0
    A[d - 1, 0] = -alpha
    B[d - 1, :] = 1.0
    return A, B


@dataclass
class ResolventSystem:
    """Assembled system D x = T (omega*T = S @ tvals), omega axes leading."""
    tree: object
    omega: complex              # or an array of omega
    matrix: np.ndarray          # D, shape (..., N, N)
    source: np.ndarray          # T, shape (..., N)
    slot_matrix: np.ndarray     # S, shape (..., N, M)
    tvals: np.ndarray           # t_e values at the slots, shape (..., M)
    col_index: dict             # (edge_id, 'c'|'ct') -> column
    slot_index: dict            # (edge_id, x_endpoint) -> slot
    row_labels: list            # ('cont'|'coupling', v, i) or ('flux', v)
    normalized: bool

    def flux_row(self, vertex_id):
        return self.row_labels.index(("flux", vertex_id))


class SystemTemplate:
    """The resolvent system of one tree, compiled once and evaluated
    over an array of omega.

    ``couplings`` (a ``CouplingSpec``) gives the vertex conditions; by
    default every vertex carries the delta coupling of its strength.  In
    the block of a vertex, entry (A_ij, B_ij) acts on local edge j with
    endpoint coordinate x: it contributes (a + omega b) exp(omega kx) to
    the edge's c column (a = A_ij, b = +-B_ij, kx = x) and to its ct
    column (b and kx negated), the sign of b being + at x = 0 and - at
    the far end.  Each (row, column) pair occurs once: a column belongs
    to one edge and a row to one vertex block, and trees have no
    self-loops.  The slot matrix is S = -(A + omega B) on the vertex's
    rows, so that omega * source = S @ tvals.
    """

    def __init__(self, tree, couplings=None):
        cols, groups = system_ordering(tree)
        self.tree = tree
        self.col_index = {key: j for j, key in enumerate(cols)}
        n = self.n = len(cols)
        slots = []
        self._edge_slots = {}       # edge -> (slots, coordinates, length)
        for e in tree.edges:
            xs = [0.0] if e.is_external else [0.0, e.length]
            first = len(slots)
            slots += [(e.id, x) for x in xs]
            self._edge_slots[e.id] = (np.arange(first, len(slots)),
                                      np.array(xs), e.length)
        self.slot_index = {key: m for m, key in enumerate(slots)}
        self._Sa = np.zeros((n, len(slots)))
        self._Sb = np.zeros((n, len(slots)))
        idx, a, b, kx = [], [], [], []
        self.row_labels = []
        self.blocks = {}            # vertex -> (first row, degree)
        self._flips = {}            # external edge -> (column, rows, B[:, j])
        flux_rows, flux_alphas = [], []
        r = 0
        for vid, locals_ in groups:
            d = len(locals_)
            if couplings is None:
                alpha = tree.alpha(vid)
                A, B = delta_matrices(d, alpha)
            else:
                kind, *rest = couplings.entries[vid]
                alpha = rest[0] if kind == "delta" else None
                A, B = couplings.matrices(tree, vid)
            rows = np.arange(r, r + d)
            self.blocks[vid] = (r, d)
            for j, eid in enumerate(locals_):
                e = tree.edge_map[eid]
                x = e.length if e.head == vid else 0.0
                sgn = 1.0 if x == 0.0 else -1.0
                m = self.slot_index[(eid, x)]
                self._Sa[rows, m] = -A[:, j]
                self._Sb[rows, m] = -B[:, j]
                kinds = (("ct", -1.0),) if e.is_external \
                    else (("c", 1.0), ("ct", -1.0))
                for i in np.flatnonzero((A[:, j] != 0) | (B[:, j] != 0)):
                    for kind, s in kinds:
                        idx.append((r + i) * n + self.col_index[(eid, kind)])
                        a.append(A[i, j])
                        b.append(s * sgn * B[i, j])
                        kx.append(s * x)
                if e.is_external:
                    self._flips[eid] = (self.col_index[(eid, "ct")], rows,
                                        B[:, j].copy())
            if alpha is None:
                self.row_labels += [("coupling", vid, i) for i in range(d)]
            else:
                self.row_labels += [("cont", vid, i) for i in range(d - 1)]
                self.row_labels.append(("flux", vid))
                flux_rows.append(r + d - 1)
                flux_alphas.append(alpha)
            r += d
        self._idx = np.array(idx, dtype=np.intp)
        self._a = np.array(a, dtype=float)
        self._b = np.array(b, dtype=float)
        self._kx = np.array(kx, dtype=float)
        self._flux_rows = np.array(flux_rows, dtype=np.intp)
        self._flux_alphas = np.array(flux_alphas, dtype=float)

    def _row_scale(self, omega):
        """Normalization of the rows: -1/(omega + alpha) on delta flux
        rows, 1 elsewhere; shape omega.shape + (n,)."""
        den = omega[..., None] + self._flux_alphas
        bad = (np.abs(den) < 1e-14).any(axis=-1)
        if bad.any():
            raise ValueError(f"omega = {omega[bad].flat[0]} is a pole "
                             "-alpha(v) of the normalized rows")
        scale = np.ones(omega.shape + (self.n,), dtype=complex)
        scale[..., self._flux_rows] = -1.0 / den
        return scale

    def matrix(self, omega, normalized=True):
        """System matrices D(omega), shape omega.shape + (n, n)."""
        omega = np.asarray(omega, dtype=complex)
        if (omega == 0).any():
            raise ValueError("omega = 0 is excluded; use contour evaluation")
        w = omega[..., None]
        D = np.zeros(omega.shape + (self.n * self.n,), dtype=complex)
        D[..., self._idx] = (self._a + w * self._b) * np.exp(w * self._kx)
        D = D.reshape(omega.shape + (self.n, self.n))
        if normalized:
            D *= self._row_scale(omega)[..., None]
        return D

    def flipped(self, D, omega, edge_id):
        """Copy of the raw D(omega) stack with the decaying exponential of
        an external edge replaced by a growing one.  At x = 0 this leaves
        the value entries alone and reverses the derivative entries, so
        the edge's column gains 2 omega B[:, j] on its vertex's rows."""
        if edge_id not in self._flips:
            raise ValueError("ratio is defined for external edges only")
        col, rows, b = self._flips[edge_id]
        Dt = D.copy()
        Dt[..., rows, col] += 2.0 * np.asarray(omega)[..., None] * b
        return Dt

    def assemble(self, omega, u0=None, normalized=True):
        """The full system at omega: matrix, source and slot data."""
        omega = np.asarray(omega, dtype=complex)
        D = self.matrix(omega, normalized)
        S = self._Sa + omega[..., None, None] * self._Sb
        if normalized:
            S *= self._row_scale(omega)[..., None]
        tvals = np.zeros(omega.shape + (len(self.slot_index),), dtype=complex)
        for eid, (slots, xs, length) in self._edge_slots.items():
            packets = u0.edge_packets(eid) if u0 is not None else ()
            if packets:
                tvals[..., slots] = t_edge(packets, length, xs,
                                           omega[..., None])
        source = (S @ tvals[..., None])[..., 0] / omega[..., None]
        return ResolventSystem(self.tree, omega[()], D, source, S, tvals,
                               self.col_index, self.slot_index,
                               self.row_labels, normalized)

    def blocked(self, fn, omega):
        """fn (taking and returning a leading 1-d omega axis) over omega of
        any shape, in blocks of at most ``_BLOCK_BYTES`` of matrices."""
        omega = np.asarray(omega, dtype=complex)
        flat = omega.reshape(-1)
        step = max(1, _BLOCK_BYTES // (16 * self.n * self.n))
        first = fn(flat[:step])
        out = np.empty(flat.shape + first.shape[1:], dtype=first.dtype)
        out[:step] = first
        for i in range(step, flat.size, step):
            out[i:i + step] = fn(flat[i:i + step])
        return out.reshape(omega.shape + out.shape[1:])[()]

    def det(self, omega, normalized=False, flip=None):
        """det D(omega), raw unless ``normalized``; with ``flip`` (an
        external edge) det ``flipped(D, omega, flip)`` of the raw D."""
        def block(w):
            D = self.matrix(w, normalized)
            if flip is not None:
                D = self.flipped(D, w, flip)
            return np.linalg.det(D)
        return self.blocked(block, omega)


def assemble_system(tree, omega, u0=None, normalized=True):
    """Assemble the resolvent system at the given (complex) omega.

    With ``normalized`` the flux rows are scaled by -1/(omega + alpha(v))
    (requires omega != -alpha(v)); the raw form is entire in omega.
    Repeated calls should compile one ``SystemTemplate`` instead.
    """
    return SystemTemplate(tree).assemble(omega, u0, normalized)


@dataclass
class ResolventSolution:
    tree: object
    u0: object
    omega: complex
    coeffs: dict            # edge_id -> (c, ct); c = 0 on external edges
    rcond: float


def solve_resolvent(tree, omega, u0, rcond_min=1e-12):
    """Solve for the resolvent coefficients of R_omega u0."""
    sys = assemble_system(tree, omega, u0, normalized=True)
    sv = np.linalg.svd(sys.matrix, compute_uv=False)
    rcond = float(sv[-1] / sv[0])
    if not np.isfinite(rcond) or rcond < rcond_min:
        raise SingularSystemError(omega, rcond)
    x = np.linalg.solve(sys.matrix, sys.source)
    coeffs = {}
    for e in tree.edges:
        c = 0.0 + 0.0j
        if not e.is_external:
            c = x[sys.col_index[(e.id, "c")]]
        ct = x[sys.col_index[(e.id, "ct")]]
        coeffs[e.id] = (c, ct)
    return ResolventSolution(tree, u0, complex(omega), coeffs, rcond)


def evaluate_resolvent(sol, edge_id, x):
    """Evaluate R_omega u0 on an edge at coordinates x (array ok)."""
    x = np.asarray(x, dtype=float)
    c, ct = sol.coeffs[edge_id]
    om = sol.omega
    out = c * np.exp(om * x) + ct * np.exp(-om * x)
    pk = sol.u0.edge_packets(edge_id)
    if pk:
        length = sol.tree.edge_map[edge_id].length
        out = out + t_edge(pk, length, x, om) / om
    return out


def resolvent_defect(sol, edge_id, x, h=1e-4):
    """Pointwise defect (-d^2/dx^2 + omega^2) R u0 - u0 on an edge,
    with the second derivative from a 5-point stencil.  Should be small
    (O(h^4)) at interior points away from edge endpoints."""
    x = np.asarray(x, dtype=float)
    u = lambda y: evaluate_resolvent(sol, edge_id, y)
    d2 = (-u(x + 2 * h) + 16 * u(x + h) - 30 * u(x)
          + 16 * u(x - h) - u(x - 2 * h)) / (12 * h * h)
    return -d2 + sol.omega ** 2 * u(x) - sol.u0(edge_id, x)


def vertex_value(sol, vertex_id, edge_id=None):
    """Value of R u0 at a vertex, computed along one incident edge."""
    inc = sol.tree.incident(vertex_id)
    if edge_id is None:
        edge_id, x = inc[0]
    else:
        x = dict(inc)[edge_id]
    return complex(evaluate_resolvent(sol, edge_id, np.asarray(x))[()])


def vertex_flux_defect(sol, vertex_id, h=None):
    """sum of outgoing derivatives minus alpha * value at a vertex, with
    one-sided 4th order finite differences; should vanish."""
    tree = sol.tree
    total = 0.0 + 0.0j
    for eid, x in tree.incident(vertex_id):
        e = tree.edge_map[eid]
        span = e.length if not e.is_external else 1.0
        hh = h if h is not None else min(1.0, span) * 1e-3
        sgn = 1.0 if x == 0.0 else -1.0
        pts = x + sgn * hh * np.arange(5)
        vals = evaluate_resolvent(sol, eid, pts)
        # the stencil runs into the edge, so it directly yields the
        # derivative pointing away from the vertex
        deriv = (-25 * vals[0] + 48 * vals[1] - 36 * vals[2]
                 + 16 * vals[3] - 3 * vals[4]) / (12 * hh)
        total += deriv
    return total - tree.alpha(vertex_id) * vertex_value(sol, vertex_id)
