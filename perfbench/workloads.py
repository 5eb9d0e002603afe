"""The benchmark's workloads.

A workload builds its inputs from a seed and does its set-up in the
constructor, which ``run.py`` times as part of ``setup_s``.  ``round()``
returns the operations of one round, always the same ones in the same
order, so every run attempts whole rounds and the share of failed
operations is the same in every run.  ``prepare_checks()`` computes what
only the checks need; it is not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import deltatree as dt
from deltatree import cli

import checks as ck
import reference as ref


@dataclass
class Op:
    name: str
    run: Callable[[], object]               # the timed call
    check: Callable[[object], None]         # raises CheckFailed / KnownFault


def _packet(rng, x0, sigma, k):
    """A packet of the given shape with a seeded complex amplitude."""
    amp = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
    return complex(amp), float(x0), float(sigma), float(k)


def _graph_function(tree, edge, packet):
    return dt.GraphFunction(tree, {edge: [dt.Packet(*packet)]})


# -- evolve-reference ----------------------------------------------------------


class EvolveReference:
    """Dispersive evolution on a junction tree, the free line and a line
    with two wells.  One operation is one ``Propagator.dispersive`` call
    on one edge at one time (``dispersive`` loops over the edges, so the
    split adds no work); the propagators are built in set-up."""

    # tree -> times; the positive tree gets two, for the decay fit
    TIMES = {"star3": (5.0, 100.0), "free": (100.0,), "two-wells": (100.0,)}
    PER_EDGE = 100
    POSITIVE = ("star3",)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.trees = {
            "star3": dt.star_tree(3, 1.0),
            "free": dt.star_tree(2, 0.0),
            "two-wells": dt.line_tree([-1.0, -1.5], [1.5]),
        }
        # launched at the root so that the vertex interaction is over
        # before the first time and the decay fit sees only the
        # t^(-1/2) plateau
        self.packets = {name: _packet(rng, rng.uniform(2.8, 3.2), 0.5, -1.5)
                        for name in self.trees}
        self.props = {}
        self.samples = {}
        for name, tree in self.trees.items():
            u0 = _graph_function(tree, "e1", self.packets[name])
            self.props[name] = dt.Propagator(tree, u0)
            self.samples[name] = {t: self._window(tree, self.packets[name], t)
                                  for t in self.TIMES[name]}

    def _window(self, tree, packet, t):
        """Sample windows that move with the solution: every external
        edge up to the 4-sigma group velocity times t past the data."""
        _, x0, sigma, k = packet
        vmax = 2.0 * (abs(k) + 4.0 / sigma)
        hi = x0 + 18.5 * sigma + vmax * t
        return {e.id: np.linspace(0.0, hi if e.is_external else e.length,
                                  self.PER_EDGE) for e in tree.edges}

    def prepare_checks(self):
        self.mass = {}
        for name, tree in self.trees.items():
            A, x0, sigma, _ = self.packets[name]
            norm_sq = ref.gaussian_norm_sq(A, x0, sigma)
            if name == "two-wells":
                alphas = [v.alpha for v in tree.vertices]
                spec = dt.find_eigenvalues(tree)
                ck.check_line_spectrum(alphas, [1.5], spec.omegas)
                if not spec.omegas:
                    raise ck.CheckFailed("the two-well line has no bound state")
                u0 = _graph_function(tree, "e1", self.packets[name])
                norm_sq -= sum(abs(dt.data_eigen_inner(u0, phi)) ** 2
                               for phi in spec.eigenfunctions)
            self.mass[name] = math.sqrt(norm_sq)

    def round(self):
        ops = []
        for name in self.trees:
            prop = self.props[name]
            sups = []
            for t in self.TIMES[name]:
                samples = self.samples[name][t]
                values = {}
                for eid, x in samples.items():
                    ops.append(Op(
                        f"dispersive {name} t={t:g} {eid}",
                        lambda p=prop, t=t, s={eid: x}: p.dispersive(t, s),
                        self._checker(name, t, values, sups)))
        return ops

    def _checker(self, name, t, values, sups):
        """Collects one edge; the last edge of a time checks that time,
        and the last time of a tree checks what needs all of them."""
        def check(out):
            values.update(out)
            samples = self.samples[name][t]
            if len(values) < len(samples):
                return
            if name == "free":
                A, x0, sigma, k = self.packets[name]
                x = samples["e1"]
                ck.check_free_gaussian(values, {
                    "e1": ref.free_gaussian(A, x0, sigma, k, x, t),
                    "e2": ref.free_gaussian(A, x0, sigma, k, -x, t)})
            if not ck.grid_resolves(samples, values):
                raise ck.CheckFailed(f"{name} t={t:g}: |u|^2 is not "
                                     "resolved on the sample grid")
            ck.check_mass(samples, values, self.mass[name])
            sups.append(max(float(np.max(np.abs(v))) for v in values.values()))
            if name in self.POSITIVE and len(sups) == len(self.TIMES[name]):
                ck.check_decay(self.TIMES[name], sups)
        return check


# -- line-many-deltas -------------------------------------------------------------


class LineManyDeltas:
    """Lines with many deltas, the paper's headline case.  A round
    takes one positive-strength line through the resonance verdict, the
    propagator and one short time on the data edge; one mixed-sign line
    through the bound-state search; and the fixed F1 line, whose
    propagator is built in set-up, through the short time.  The verdict
    and the bound-state operations also compare the direct and the
    recursive determinant at three frequencies."""

    POSITIVE_P = 8
    POSITIVE_ALPHA = (0.3, 1.0)
    MIXED_P = 12
    POSITIVE_LENGTH = 8.0
    MIXED_LENGTH = 12.0
    T_SHORT = 0.3
    X = np.linspace(4.0, 20.0, 60)
    OMEGAS = (0.7 + 0.4j, 1.5 - 2.0j, 0.3 + 5.0j)
    # fault F1: this line misses the free-line tolerance at T_SHORT
    F1_LINE = ([3.0] * 8, [2.5] * 7)
    F1_PACKET = (1.0, 10.0, 1.0, -1.0)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        p = self.POSITIVE_P
        self.positive = (list(rng.uniform(*self.POSITIVE_ALPHA, p)),
                         self._spacings(rng, p, self.POSITIVE_LENGTH))
        p = self.MIXED_P
        self.mixed = (list(rng.uniform(0.3, 2.0, p) * rng.choice([-1.0, 1.0], p)),
                      self._spacings(rng, p, self.MIXED_LENGTH))
        self.packet = _packet(rng, 10.0, 1.0, -1.0)
        self.positive_tree = dt.line_tree(*self.positive)
        self.mixed_tree = dt.line_tree(*self.mixed)
        f1_tree = dt.line_tree(*self.F1_LINE)
        self.f1_prop = dt.Propagator(
            f1_tree, _graph_function(f1_tree, "e1", self.F1_PACKET))

    @staticmethod
    def _spacings(rng, p, length):
        """Random gaps with a fixed total, so every seed costs the same."""
        gaps = rng.uniform(0.5, 1.5, p - 1)
        return list(gaps * (length / gaps.sum()))

    def prepare_checks(self):
        self.free = {}
        for name, packet in (("positive", self.packet), ("F1", self.F1_PACKET)):
            A, x0, sigma, k = packet
            self.free[name] = ref.free_gaussian(A, x0, sigma, k, self.X,
                                                self.T_SHORT)

    def round(self):
        tree = self.positive_tree
        p = tree.p
        u0 = _graph_function(tree, "e1", self.packet)
        built = {}
        return [
            Op(f"verdict positive p={p}",
               lambda: (dt.zero_order_at_origin(tree), self._det_pairs(tree)),
               lambda out: self._check_verdict(tree, *out)),
            Op(f"propagator positive p={p}",
               lambda: self._build(tree, u0, built),
               self._check_built),
            Op(f"dispersive positive p={p}",
               lambda: built["prop"].dispersive(self.T_SHORT, {"e1": self.X}),
               lambda out: self._check_free(out, "positive")),
            Op(f"dispersive F1 p={self.f1_prop.tree.p}",
               lambda: self.f1_prop.dispersive(self.T_SHORT, {"e1": self.X}),
               lambda out: self._check_free(out, "F1")),
            Op(f"eigenvalues mixed p={self.mixed_tree.p}",
               lambda: (dt.find_eigenvalues(self.mixed_tree),
                        self._det_pairs(self.mixed_tree)),
               lambda out: self._check_mixed(*out)),
        ]

    @staticmethod
    def _build(tree, u0, built):
        try:
            built["prop"] = dt.Propagator(tree, u0)
        except dt.ResonantTreeError as exc:
            return exc
        return built["prop"]

    @staticmethod
    def _check_built(out):
        if isinstance(out, dt.ResonantTreeError):
            raise ck.CheckFailed(f"propagator refused a positive line: {out}")

    def _det_pairs(self, tree):
        return [(dt.det_direct(tree, w),
                 dt.det_recursive(tree, w, with_ratios=False).det)
                for w in self.OMEGAS]

    def _check_dets(self, pairs):
        for direct, recursive in pairs:
            ck.check_close("det_recursive", recursive, direct, ck.DET_TOL)

    def _check_verdict(self, tree, verdict, pairs):
        ck.check_equal("origin order", verdict.zero_order, tree.p - 1)
        self._check_dets(pairs)

    def _check_free(self, values, name):
        """Before the packet reaches a vertex the data edge carries the
        free Gaussian; a miss is fault F1."""
        try:
            ck.check_free_gaussian(values, {"e1": self.free[name]})
        except ck.CheckFailed as exc:
            raise ck.KnownFault("F1", str(exc)) from None

    def _check_mixed(self, spec, pairs):
        ck.check_line_spectrum(*self.mixed, spec.omegas)
        self._check_dets(pairs)


# -- cli-batch ---------------------------------------------------------------------


class CliBatch:
    """``deltatree.cli.main`` run in-process on JSON files written in
    set-up: validation, resonance verdicts, spectra, strip scans, the
    Appendix-A checks, (A, B) couplings and one small oracle run."""

    STRIP = dict(eps=0.05, delta=0.5, tau_max=10.0, n_tau=1000)
    SCAN = dict(tau_min=1e-3, tau_max=10.0, n_tau=2000)
    # fault F2: the scan misses the double root of this tree
    ARMS = (3, 1.0, -2.0)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.dir = workdir
        # degrees are fixed so that every seed costs the same; the seed
        # draws strengths and lengths
        self.n_pos, self.a_pos = 4, rng.uniform(0.5, 3.0)
        self.n_neg, self.a_neg = 3, -rng.uniform(0.5, 3.0)
        self.n_kir = 3
        pos_tree = dt.attach_vertex(
            dt.star_tree(3, rng.uniform(0.5, 2.0)), "e3", rng.uniform(0.5, 2.0),
            rng.uniform(0.5, 2.0), 3)
        pos_tree = dt.attach_vertex(pos_tree, "e5", rng.uniform(0.5, 2.0),
                                    rng.uniform(0.5, 2.0), 2)
        n, a, alpha = self.ARMS
        arms = dt.star_tree(n, 0.0)
        for j in range(n):
            arms = dt.attach_vertex(arms, f"e{j + 1}", a, alpha, 2)
        oracle_tree = dt.star_tree(2, rng.uniform(0.5, 2.0))
        self.p_tree = pos_tree.p
        trees = {
            "star_pos": dt.star_tree(self.n_pos, self.a_pos),
            "star_neg": dt.star_tree(self.n_neg, self.a_neg),
            "tree_pos": pos_tree,
            "resonant": dt.line_tree([2.0, -1.0], [0.5]),
            "arms": arms,
            "kirchhoff": dt.star_tree(self.n_kir, 0.0),
            "oracle": oracle_tree,
        }
        self.paths = {}
        for name, tree in trees.items():
            self.paths[name] = self._path(name)
            dt.save_tree(tree, self.paths[name])
        A, B = np.eye(self.n_kir), np.zeros((self.n_kir, self.n_kir))
        self._write("dirichlet", {"v1": {"type": "general", "A": A.tolist(),
                                         "B": B.tolist()}})
        self._write("delta", {"v1": {"type": "delta", "alpha": self.a_pos}})
        u0 = _graph_function(oracle_tree, "e1", _packet(rng, 6.0, 1.0, -1.0))
        self._write("data", dt.function_to_json(u0))

    def _path(self, name):
        return os.path.join(self.dir, f"{name}.json")

    def _write(self, name, doc):
        self.paths[name] = self._path(name)
        with open(self.paths[name], "w") as fh:
            json.dump(doc, fh)

    def prepare_checks(self):
        s = self.STRIP
        self.strip = ref.star_strip_extremes(self.n_pos, self.a_pos, s["eps"],
                                             s["delta"], s["tau_max"], s["n_tau"])
        c = self.SCAN
        self.scan_min = ref.star_delta_condition_min(
            self.n_pos, self.a_pos, c["tau_min"], c["tau_max"], c["n_tau"])
        self.arms = ref.armed_star_bound_states(*self.ARMS)

    def _cli(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        text = out.getvalue()
        return code, (json.loads(text) if text.strip() else None)

    def round(self):
        P = self.paths
        s, c = self.STRIP, self.SCAN
        cmd = lambda *argv: (lambda: self._cli(*argv))
        return [
            Op("validate star", cmd("validate", "--graph", P["star_pos"]),
               self._expect(0, lambda d: ck.check_equal(
                   "external edges", d["external_edges"], self.n_pos))),
            Op("validate tree", cmd("validate", "--graph", P["tree_pos"]),
               self._expect(0, lambda d: ck.check_equal("p", d["p"], self.p_tree))),
            Op("resonance tree", cmd("resonance", "--graph", P["tree_pos"]),
               self._expect(0, lambda d: ck.check_equal(
                   "zero order", d["zero_order"], self.p_tree - 1))),
            Op("resonance resonant line", cmd("resonance", "--graph", P["resonant"]),
               self._expect(1, lambda d: ck.check_equal(
                   "resonant zero order >= p", d["zero_order"] >= d["p"], True))),
            Op("spectrum star", cmd("spectrum", "--graph", P["star_neg"]),
               self._expect(0, lambda d: ck.check_spectrum(
                   d["omegas"], ref.star_bound_states(self.n_neg, self.a_neg)))),
            Op("spectrum arms", cmd("spectrum", "--graph", P["arms"]),
               self._expect(0, lambda d: ck.check_spectrum(
                   d["omegas"], self.arms, fault="F2"))),
            Op("strip-scan star", cmd(
                "strip-scan", "--graph", P["star_pos"], "--eps", s["eps"],
                "--delta", s["delta"], "--tau-max", s["tau_max"],
                "--nodes", s["n_tau"]), self._expect(0, self._check_strip)),
            Op("appendix-a tree", cmd("appendix-a", "--graph", P["tree_pos"]),
               self._expect(0, lambda d: ck.check_equal("all_ok", d["all_ok"], True))),
            Op("couplings-check delta", cmd(
                "couplings-check", "--graph", P["star_pos"], "--data", P["delta"]),
               self._expect(0, lambda d: ck.check_equal("ok", d["ok"], True))),
            Op("couplings-check dirichlet", cmd(
                "couplings-check", "--graph", P["kirchhoff"], "--data", P["dirichlet"]),
               self._expect(0, lambda d: ck.check_equal("ok", d["ok"], True))),
            Op("couplings-scan delta", cmd(
                "couplings-scan", "--graph", P["star_pos"], "--data", P["delta"],
                "--delta", c["tau_min"], "--tau-max", c["tau_max"],
                "--nodes", c["n_tau"]),
               self._expect(0, lambda d: ck.check_close(
                   "min |det|", d["min_abs"], self.scan_min, ck.DET_TOL))),
            Op("couplings-scan dirichlet", cmd(
                "couplings-scan", "--graph", P["kirchhoff"], "--data", P["dirichlet"],
                "--delta", c["tau_min"], "--tau-max", c["tau_max"],
                "--nodes", c["n_tau"]),
               self._expect(0, self._check_dirichlet)),
            Op("oracle-compare", cmd(
                "oracle-compare", "--graph", P["oracle"], "--data", P["data"],
                "--times", "0.5", "--h", 1 / 32, "--dt", 1 / 64, "--trunc", 18),
               self._expect(0, ck.check_oracle)),
        ]

    @staticmethod
    def _expect(code, check):
        def run_check(out):
            got, doc = out
            ck.check_equal("exit code", got, code)
            check(doc)
        return run_check

    def _check_strip(self, doc):
        want_min, want_ratio = self.strip
        ck.check_close("strip min |det|", doc["min_abs_det"], want_min, ck.DET_TOL)
        for edge, ratio in doc["max_ratios"].items():
            ck.check_close(f"strip max ratio {edge}", ratio, want_ratio, ck.DET_TOL)

    @staticmethod
    def _check_dirichlet(doc):
        ck.check_close("Dirichlet min |det|", doc["min_abs"], 1.0, ck.DET_TOL)
        ck.check_equal("plausibly_holds", doc["plausibly_holds"], True)


WORKLOADS = {
    "evolve-reference": EvolveReference,
    "line-many-deltas": LineManyDeltas,
    "cli-batch": CliBatch,
}
