"""Traced mode: per-layer self times and counts, measured from outside.

``Tracer.install`` wraps public functions of deltatree's modules.  The
modules import each other's functions by name (``assemble_system`` is
bound in resolvent, determinants, spectral and evolution), so every
module attribute bound to an original function is replaced, or calls
through the other names would go unseen.  A span's self time is its
duration minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import contextlib
import sys
import time

import numpy as np

# (module, attribute, span); attributes of the form "Class.method" wrap a method
SPANS = [
    ("evolution", "Propagator.__init__", "evolution.propagator_init"),
    ("evolution", "Propagator.dispersive", "evolution.dispersive"),
    ("evolution", "oscillatory_sum", "evolution.oscillatory_sum"),
    ("resolvent", "assemble_system", "resolvent.assemble_system"),
    ("resolvent", "t_edge", "resolvent.t_edge"),
    ("wavepackets", "gauss_exp_integral", "wavepackets.gauss_exp_integral"),
    ("wavepackets", "free_evolution", "wavepackets.free_evolution"),
    ("determinants", "generalized_origin_check", "determinants.origin_check"),
    ("determinants", "zero_order_at_origin", "determinants.origin_check"),
    ("determinants", "strip_scan", "determinants.strip_scan"),
    ("determinants", "ratio_by_flip", "determinants.ratio_by_flip"),
    ("determinants", "appendix_a_checks", "determinants.appendix_a"),
    ("determinants", "stagewise_origin_checks", "determinants.appendix_a"),
    ("spectral", "find_eigenvalues", "spectral.find_eigenvalues"),
    ("couplings", "sufficient_condition_scan", "couplings.condition_scan"),
    ("oracle", "evolve_cn", "oracle.evolve_cn"),
    ("trees", "validate_tree", "trees.validate_tree"),
    ("cli", "main", "cli.main"),
]

# counted but not timed: their time stays with the caller's self time
COUNTS = [
    ("determinants", "cleared_det", "spectral.cleared_det_calls"),
    ("couplings", "assemble_general", "couplings.assemble_general_calls"),
]

# (metric, unit, better): the per-layer metrics in BENCHMARK.json order
METRICS = [
    ("evolution.dispersive_s", "s", "lower"),
    ("evolution.values", "count", "higher"),
    ("evolution.oscillatory_sum_s", "s", "lower"),
    ("evolution.oscillatory_sum_calls", "count", "lower"),
    ("evolution.moment_columns", "count", "lower"),
    ("evolution.propagator_init_s", "s", "lower"),
    ("evolution.panel_nodes", "count", "lower"),
    ("resolvent.assemble_system_s", "s", "lower"),
    ("resolvent.assemble_system_calls", "count", "lower"),
    ("resolvent.t_edge_s", "s", "lower"),
    ("resolvent.t_edge_calls", "count", "lower"),
    ("wavepackets.gauss_exp_integral_s", "s", "lower"),
    ("wavepackets.gauss_exp_integral_calls", "count", "lower"),
    ("wavepackets.free_evolution_s", "s", "lower"),
    ("determinants.origin_check_s", "s", "lower"),
    ("determinants.origin_check_assemblies", "count", "lower"),
    ("determinants.strip_scan_s", "s", "lower"),
    ("determinants.strip_scan_assemblies", "count", "lower"),
    ("determinants.ratio_by_flip_s", "s", "lower"),
    ("determinants.ratio_by_flip_calls", "count", "lower"),
    ("determinants.appendix_a_s", "s", "lower"),
    ("spectral.find_eigenvalues_s", "s", "lower"),
    ("spectral.cleared_det_calls", "count", "lower"),
    ("spectral.roots_found", "count", "higher"),
    ("couplings.condition_scan_s", "s", "lower"),
    ("couplings.assemble_general_calls", "count", "lower"),
    ("oracle.evolve_cn_s", "s", "lower"),
    ("oracle.cn_steps", "count", "lower"),
    ("trees.validate_tree_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
]

ASSEMBLY = "resolvent.assemble_system"


def _moment_columns(args):
    """Panels after the halving ``oscillatory_sum`` applies for this t
    and h, times the number of linear phases."""
    coeffs, _, h, t, a = args[:5]
    panels = coeffs.shape[0]
    while abs(t) * (h / 2.0) ** 2 > 1.2:
        panels *= 2
        h /= 2.0
    return panels * np.size(a)


class Tracer:
    def __init__(self):
        self.stack = []                 # [span, start, time in child spans]
        self.totals = {}                # metric -> value
        self._saved = []                # (owner, attribute, original)

    def add(self, metric, value):
        self.totals[metric] = self.totals.get(metric, 0) + value

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, span, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = [span, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[1]
                tracer.add(span + "_s", elapsed - frame[2])
                tracer.add(span + "_calls", 1)
                if span == "cli.main":
                    tracer.add("cli.main_inclusive_s", elapsed)
                if stack:
                    stack[-1][2] += elapsed
            if span == ASSEMBLY:
                for name in {f[0] for f in stack}:
                    tracer.add(name + "_assemblies", 1)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _count(self, fn, metric):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.add(metric, 1)
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, span):
        if span == "evolution.oscillatory_sum":
            return lambda args, out: self.add("evolution.moment_columns",
                                              _moment_columns(args))
        if span == "evolution.dispersive":
            return lambda args, out: self.add(
                "evolution.values", sum(np.size(x) for x in args[2].values()))
        if span == "evolution.propagator_init":
            return lambda args, out: self.add("evolution.panel_nodes",
                                              args[0].nodes.size)
        if span == "spectral.find_eigenvalues":
            return lambda args, out: self.add("spectral.roots_found",
                                              len(out.omegas))
        if span == "oracle.evolve_cn":
            return lambda args, out: self.add("oracle.cn_steps",
                                              round(args[2] / args[3]))
        return None

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "deltatree"
                                         or name.startswith("deltatree."))]
        for mod, attr, span in SPANS:
            self._replace(modules, mod, attr,
                          lambda fn, s=span: self._span(fn, s, self._after(s)))
        for mod, attr, metric in COUNTS:
            self._replace(modules, mod, attr,
                          lambda fn, m=metric: self._count(fn, m))

    def _replace(self, modules, mod, attr, make):
        home = sys.modules[f"deltatree.{mod}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own check preparation) are
        not traced."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- report ----------------------------------------------------------

    def snapshot(self):
        return dict(self.totals)

    def metrics(self, setup, rounds):
        """Set-up once plus one round: the set-up totals plus the
        remaining totals divided by the number of rounds."""
        def value(metric):
            key = {"cli.main_s": "cli.main_inclusive_s",
                   "cli.self_s": "cli.main_s"}.get(metric, metric)
            before = setup.get(key, 0)
            return before + (self.totals.get(key, 0) - before) / rounds
        return {metric: {"value": value(metric), "unit": unit}
                for metric, unit, _ in METRICS}
