"""General self-adjoint vertex couplings A u(v) + B u'(v) = 0.

Per vertex, u(v) collects the edge values and u'(v) the derivatives
pointing *into* each incident edge (away from the vertex), the same
orientation used by the delta flux condition; the delta coupling is the
instance ``delta_matrices``: A = (continuity rows; last row -alpha
e_first), B = (0; last row of ones), with e_first the first local edge.
Self-adjointness requires rank (A|B) = d(v) and A B^T = B A^T.

The resolvent system for any coupling is the one ``SystemTemplate``
compiles: each vertex block has the rows
sum_j [ a_ij * value_j + b_ij * outgoing_deriv_j ] = RHS.  On a star
this matrix is A - omega B acting on the ct coefficients, and the
determinant recursion mirrors the delta one with the column-flip
matrices A + omega B.  The determinant and both scans take their omega
grid as one blocked matrix stack (``SystemTemplate.det``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .determinants import ratio_by_flip, stage_trees
from .resolvent import SystemTemplate, delta_matrices
from .spectral import sign_change_roots


def check_self_adjoint(A, B, tol=1e-10):
    """Validate one vertex coupling pair; returns (ok, problems)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    problems = []
    d = A.shape[0]
    if A.shape != (d, d) or B.shape != (d, d):
        return False, ["A and B must be square matrices of equal size"]
    joint = np.hstack([A, B])
    if np.linalg.matrix_rank(joint, tol=1e-10) != d:
        problems.append("joint matrix (A, B) is rank deficient")
    comm = A @ B.T - B @ A.T
    if np.abs(comm).max() > tol:
        problems.append(
            f"A B^T - B A^T is not zero (max entry {np.abs(comm).max():.2e})")
    return not problems, problems


def dirichlet_matrices(d):
    """Decoupled Dirichlet condition u = 0 on every incident edge."""
    return np.eye(d), np.zeros((d, d))


@dataclass
class CouplingSpec:
    """Per-vertex couplings: delta strengths or explicit (A, B) pairs."""
    entries: dict          # vertex_id -> ("delta", alpha) | ("general", A, B)

    @classmethod
    def all_delta(cls, tree):
        return cls({v.id: ("delta", v.alpha) for v in tree.vertices})

    @classmethod
    def from_json(cls, doc):
        """Malformed documents raise KeyError, ValueError or TypeError."""
        if not isinstance(doc, dict):
            raise TypeError("couplings must be a JSON object keyed by "
                            "vertex id")
        entries = {}
        for vid, spec in doc.items():
            if spec["type"] == "delta":
                entries[vid] = ("delta", float(spec["alpha"]))
            elif spec["type"] == "general":
                entries[vid] = ("general",
                                np.asarray(spec["A"], dtype=float),
                                np.asarray(spec["B"], dtype=float))
            else:
                raise ValueError(f"unknown coupling type {spec['type']!r}")
        return cls(entries)

    def matrices(self, tree, vertex_id):
        kind, *rest = self.entries[vertex_id]
        d = tree.degree(vertex_id)
        if kind == "delta":
            return delta_matrices(d, rest[0])
        A, B = rest
        if A.shape != (d, d):
            raise ValueError(
                f"vertex {vertex_id}: coupling matrix A has shape "
                f"{A.shape} but the degree is {d}")
        return A, B

    def validate(self, tree):
        problems = []
        for v in tree.vertices:
            if v.id not in self.entries:
                problems.append(f"vertex {v.id}: no coupling given")
                continue
            try:
                A, B = self.matrices(tree, v.id)
            except ValueError as exc:
                problems.append(str(exc))
                continue
            ok, issues = check_self_adjoint(A, B)
            problems += [f"vertex {v.id}: {msg}" for msg in issues]
        return problems


def assemble_general(tree, couplings, omega, u0=None):
    """System matrix and right-hand side for general couplings.

    Same column ordering as the delta assembly; rows are the coupling
    conditions vertex by vertex.  Entire in omega (no normalization).
    Returns (D, rhs, col_index, row_blocks) with row_blocks mapping a
    vertex to (first row, degree)."""
    template = SystemTemplate(tree, couplings)
    sys = template.assemble(omega, u0, normalized=False)
    return sys.matrix, sys.source, sys.col_index, template.blocks


def det_general(tree, couplings, omega):
    return SystemTemplate(tree, couplings).det(omega)


def det_general_recursive(tree, couplings, omega):
    """Product recursion for the general-coupling determinant along the
    construction sequence (Appendix-C analogue)."""
    omega = complex(omega)
    root_edges, steps = tree.construction_sequence()
    stages = stage_trees(tree)

    def minus_plus(vid):
        A, B = couplings.matrices(tree, vid)
        return A - omega * B, A + omega * B

    Mm, Mp = minus_plus(tree.root)
    det = complex(np.linalg.det(Mm))
    # flip ratio of each fresh (root) edge: replace one column by M+'s
    fresh = {eid: j for j, eid in enumerate(root_edges)}

    def column_swap_det(Mm, Mp, swap):
        M = Mm.copy()
        for j in swap:
            M[:, j] = Mp[:, j]
        return complex(np.linalg.det(M))

    g = {eid: column_swap_det(Mm, Mp, [j]) / np.linalg.det(Mm)
         for eid, j in fresh.items()}

    for k, s in enumerate(steps):
        if s.cut_edge in g:
            r_prev = g[s.cut_edge]
        else:
            r_prev = ratio_by_flip(stages[k], s.cut_edge, omega, couplings)
        vid = s.vertex
        Mm, Mp = minus_plus(vid)
        dm = complex(np.linalg.det(Mm))
        q1 = column_swap_det(Mm, Mp, [0]) / dm
        damp = cmath.exp(-2.0 * s.a * omega)
        bracket = 1.0 - q1 * damp * r_prev
        det *= dm * cmath.exp(omega * s.a) * bracket
        g = {}
        for j, eid in enumerate(s.new_edges, start=1):
            qa = column_swap_det(Mm, Mp, [j]) / dm
            qb = column_swap_det(Mm, Mp, [0, j]) / dm
            g[eid] = (qa - qb * damp * r_prev) / bracket
    return det


@dataclass
class ConditionScanReport:
    min_abs: float
    argmin_tau: float
    values: np.ndarray
    taus: np.ndarray
    vanishing_at_zero: bool      # value keeps halving as tau -> 0
    plausibly_holds: bool
    note: str = ("grid scan only: a positive minimum on the grid is "
                 "evidence, not a proof, of the uniform lower bound")


def sufficient_condition_scan(tree, couplings, tau_min=1e-3, tau_max=10.0,
                              n=2000, threshold=1e-6):
    """Scan |det D(i tau)| over real tau; a minimum tending to zero near
    tau = 0 signals failure of the uniform lower bound (the sufficient
    dispersion condition), a strictly positive minimum supports it.

    For delta-type vertices the shared normalization factors
    (i tau + alpha) are divided out (the normalized rows), so that the
    scanned quantity is the one with a uniform bound in the cases settled
    in the literature (e.g. Kirchhoff couplings give a constant)."""
    template = SystemTemplate(tree, couplings)
    value = lambda tau: np.abs(template.det(1j * tau, normalized=True))
    taus = np.linspace(tau_min, tau_max, n)
    vals = value(taus)
    j = int(np.argmin(vals))
    # probe the tau -> 0 limit directly: a value that keeps halving with
    # tau vanishes at the origin however fine the grid is
    vanishing = value(tau_min / 2.0) <= 0.6 * vals[0]
    holds = bool(vals[j] >= threshold) and not vanishing
    return ConditionScanReport(float(vals[j]), float(taus[j]), vals, taus,
                               bool(vanishing), holds)


def general_eigenvalues(tree, couplings, omega_max=None, n_grid=10000,
                        xtol=1e-12):
    """Real positive roots of the general determinant (bound states)."""
    if omega_max is None:
        total = 0.0
        for v in tree.vertices:
            kind, *rest = couplings.entries[v.id]
            if kind == "delta":
                total += max(0.0, -rest[0])
            else:
                total += float(np.abs(rest[0]).max() + np.abs(rest[1]).max())
        omega_max = total + 1.0
    template = SystemTemplate(tree, couplings)
    f = lambda w: template.det(w).real
    return sign_change_roots(f, omega_max, n_grid, xtol)[0]
