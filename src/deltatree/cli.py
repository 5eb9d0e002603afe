"""Batch command-line front-end.

Subcommands: validate, spectrum, resonance, strip-scan, appendix-a,
evolve, decay, oracle-compare, couplings-check, couplings-scan.

Exit codes: 0 success, 1 refusal (invalid input, resonance, a zero of
the determinant too near the origin, a winding count that does not
settle, an incomplete bound-state count; a machine-readable JSON report
on stdout), 2 usage errors (argparse or unreadable files).
All outputs are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import couplings as cp
from . import determinants as det
from . import evolution as ev
from . import oracle as orc
from . import spectral as sp
from . import trees as tr
from . import wavepackets as wp


def _fail_usage(msg):
    print(msg, file=sys.stderr)
    return 2


def _refuse(report):
    print(json.dumps(report, sort_keys=True))
    return 1


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_tree(path):
    tree = tr.load_tree(path)
    problems = tr.validate_tree(tree)
    if problems:
        raise _InvalidInput({"error": "invalid-tree", "problems": problems})
    return tree


def _load_data(tree, path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return wp.function_from_json(tree, doc)
    except (KeyError, ValueError) as exc:
        raise _InvalidInput({"error": "invalid-data", "detail": str(exc)})


class _InvalidInput(Exception):
    def __init__(self, report):
        self.report = report
        super().__init__(json.dumps(report))


def _parse_times(text):
    if not text:
        raise _InvalidInput({"error": "bad-times",
                             "detail": "--times is required"})
    try:
        times = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise _InvalidInput({"error": "bad-times", "value": text})
    if not times or any(t <= 0 for t in times):
        raise _InvalidInput({"error": "bad-times", "value": text,
                             "detail": "need a comma list of positive times"})
    return times


def _quad(args):
    return ev.QuadratureSpec(tau_max=args.tau_max, nodes=args.nodes)


def _write_csv(rows, out_path):
    fh = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(["t", "edge", "x", "re_u", "im_u", "abs_u"])
        for row in rows:
            w.writerow(row)
    finally:
        if out_path:
            fh.close()


# -- subcommands --------------------------------------------------------------


def cmd_validate(args):
    tree = tr.load_tree(args.graph)
    problems = tr.validate_tree(tree)
    if problems:
        return _refuse({"error": "invalid-tree", "problems": problems})
    _emit({"valid": True, "p": tree.p,
           "internal_edges": len(tree.internal_edges),
           "external_edges": len(tree.external_edges)}, args.out)
    return 0


def cmd_spectrum(args):
    tree = _load_tree(args.graph)
    data = sp.find_eigenvalues(tree)
    _emit(data.to_json(), args.out)
    return 0


def cmd_resonance(args):
    tree = _load_tree(args.graph)
    rep = det.zero_order_at_origin(tree)
    doc = {"zero_order": rep.zero_order, "p": rep.p,
           "expected_order": rep.expected_order,
           "condition_holds": rep.condition_holds,
           "derivative_value": [rep.derivative_value.real,
                                rep.derivative_value.imag],
           "radius": rep.radius, "lambda0_rcond": rep.lambda0_rcond}
    if not rep.condition_holds:
        return _refuse(doc)
    _emit(doc, args.out)
    return 0


def cmd_strip_scan(args):
    tree = _load_tree(args.graph)
    tau_max = args.tau_max if args.tau_max else 10.0
    n_tau = max(16, (args.nodes or 2000))
    rep = det.strip_scan(tree, args.eps, args.delta, tau_max, n_tau=n_tau)
    _emit({"min_abs_det": rep.min_abs,
           "argmin": [rep.argmin.real, rep.argmin.imag],
           "max_ratios": rep.max_ratios,
           "violation": rep.violation,
           "eps": rep.eps, "delta": rep.delta, "tau_max": rep.tau_max},
          args.out)
    return 0


def cmd_appendix_a(args):
    tree = _load_tree(args.graph)
    if any(v.alpha <= 0.0 for v in tree.vertices):
        return _refuse({"error": "non-positive-strength",
                        "detail": "appendix-a checks require alpha(v) > 0"})
    stages = det.appendix_a_checks(tree)
    doc = {"stages": [
        {"stage": s.stage, "zero_order": s.order, "order_ok": s.order_ok,
         "ratio_at_0": [s.ratio_at_0.real, s.ratio_at_0.imag],
         "ratio_deriv_at_0": [s.ratio_deriv_at_0.real,
                              s.ratio_deriv_at_0.imag],
         "ratio_ok": bool(s.ratio_ok)}
        for s in stages
    ]}
    doc["all_ok"] = all(s.order_ok and s.ratio_ok for s in stages)
    if not doc["all_ok"]:
        return _refuse({"error": "appendix-a-violation", **doc})
    _emit(doc, args.out)
    return 0


def cmd_evolve(args):
    tree = _load_tree(args.graph)
    u0 = _load_data(tree, args.data)
    times = _parse_times(args.times)
    samples = ev.decay_samples(tree, u0, max(times), per_edge=200)
    results = ev.evolve_full(tree, u0, times, samples, quad=_quad(args))
    rows = []
    for t in times:
        for eid in sorted(samples):
            xs = samples[eid]
            vals = results[t][eid]
            for x, u in zip(xs, vals):
                rows.append([t, eid, f"{x:.12g}", f"{u.real:.12g}",
                             f"{u.imag:.12g}", f"{abs(u):.12g}"])
    _write_csv(rows, args.out)
    return 0


def cmd_decay(args):
    tree = _load_tree(args.graph)
    u0 = _load_data(tree, args.data)
    times = _parse_times(args.times) if args.times else \
        list(np.geomspace(1.0, 100.0, 15))
    rep = ev.decay_scan(tree, u0, times, quad=_quad(args))
    _emit({"times": rep.times, "sup_norms": rep.sup_norms,
           "sqrt_t_products": rep.products,
           "fit_constant": rep.fit_constant,
           "fit_exponent": rep.fit_exponent,
           "fit_residual": rep.fit_residual}, args.out)
    return 0


def cmd_oracle_compare(args):
    tree = _load_tree(args.graph)
    u0 = _load_data(tree, args.data)
    times = _parse_times(args.times)
    h = args.h or 1.0 / 64.0
    dt = args.dt or 1.0 / 128.0
    trunc = args.trunc or orc.choose_truncation(u0, max(times), h)
    dt_tree = orc.discretize_tree(tree, h, trunc)
    state = orc.sample_function(dt_tree, u0)
    spectral = sp.find_eigenvalues(tree)
    results = ev.evolve_full(
        tree, u0, times, {e.id: dt_tree.edge_grid(e.id) for e in tree.edges},
        quad=_quad(args), spectral=spectral)
    rows = []
    horizon = orc.safe_horizon(u0, trunc)
    for t in sorted(times):
        cn_state = orc.evolve_cn(dt_tree, state, t, dt)
        num = 0.0
        den = 0.0
        for e in tree.edges:
            cn_vals = dt_tree.edge_values(cn_state, e.id)
            pr_vals = results[t][e.id]
            num += float(np.sum(h * np.abs(cn_vals - pr_vals) ** 2))
            den += float(np.sum(h * np.abs(cn_vals) ** 2))
        rows.append({"t": t,
                     "rel_l2_discrepancy": math.sqrt(num / den),
                     "within_safe_horizon": t <= horizon})
    _emit({"h": h, "dt": dt, "truncation": trunc,
           "safe_horizon": horizon, "comparison": rows}, args.out)
    return 0


def _load_couplings(tree, path):
    if path is None:
        return cp.CouplingSpec.all_delta(tree)
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return cp.CouplingSpec.from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise _InvalidInput({"error": "invalid-couplings",
                             "problems": [f"{type(exc).__name__}: {exc}"]})


def cmd_couplings_check(args):
    tree = _load_tree(args.graph)
    spec = _load_couplings(tree, args.data)
    problems = spec.validate(tree)
    if problems:
        return _refuse({"error": "invalid-couplings", "problems": problems})
    _emit({"ok": True, "vertices": sorted(spec.entries)}, args.out)
    return 0


def cmd_couplings_scan(args):
    tree = _load_tree(args.graph)
    spec = _load_couplings(tree, args.data)
    problems = spec.validate(tree)
    if problems:
        return _refuse({"error": "invalid-couplings", "problems": problems})
    tau_max = args.tau_max if args.tau_max else 10.0
    n = max(16, (args.nodes or 2000))
    rep = cp.sufficient_condition_scan(tree, spec, tau_min=args.delta,
                                       tau_max=tau_max, n=n)
    _emit({"min_abs": rep.min_abs, "argmin_tau": rep.argmin_tau,
           "vanishing_at_zero": rep.vanishing_at_zero,
           "plausibly_holds": rep.plausibly_holds, "note": rep.note,
           "tau_max": tau_max}, args.out)
    return 0


# -- argument parsing ----------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deltatree",
        description="Schroedinger dynamics on metric trees with delta "
                    "couplings: spectra, resonances, dispersive evolution.")
    sub = parser.add_subparsers(dest="command", required=True)
    quad = {"--tau-max": {"type": float}, "--nodes": {"type": int}}
    timed = {**quad, "--times": {"help": "comma-separated positive times"}}
    packets = {"required": True,
               "help": "initial data JSON (per-edge packets)"}
    couplings = {"default": None, "help": "couplings JSON (defaults to "
                 "the graph's delta strengths)"}

    def add(name, fn, help, data=None, flags=None):
        """A subcommand with exactly the flags its ``cmd_*`` reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--graph", required=True, help="graph spec JSON")
        if data is not None:
            p.add_argument("--data", **data)
        p.add_argument("--out", default=None, help="output path (stdout "
                       "if omitted)")
        for flag, opts in (flags or {}).items():
            p.add_argument(flag, **opts)
        p.set_defaults(fn=fn)

    add("validate", cmd_validate, "check the graph spec invariants")
    add("spectrum", cmd_spectrum, "bound states (omegas and eigenfunctions)")
    add("resonance", cmd_resonance, "zero order at the origin and the "
        "non-resonance condition")
    add("strip-scan", cmd_strip_scan, "minimum |det| and flip ratios on a "
        "strip around the imaginary axis",
        flags={**quad, "--delta": {"type": float, "default": 0.5},
               "--eps": {"type": float, "default": 0.05}})
    add("appendix-a", cmd_appendix_a, "positive-strength stagewise property "
        "checks")
    add("evolve", cmd_evolve, "time evolution samples as CSV", packets, timed)
    add("decay", cmd_decay, "dispersive decay scan and power-law fit",
        packets, timed)
    add("oracle-compare", cmd_oracle_compare, "propagator vs Crank-Nicolson "
        "discrepancy", packets,
        {**timed, "--h": {"type": float}, "--dt": {"type": float},
         "--trunc": {"type": float}})
    add("couplings-check", cmd_couplings_check, "validate an (A, B) coupling "
        "spec", couplings)
    add("couplings-scan", cmd_couplings_scan, "scan the sufficient dispersion "
        "condition |det D(i tau)|", couplings,
        {**quad, "--delta": {"type": float, "default": 1e-3}})
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (_InvalidInput, ev.ResonantTreeError, ev.NearResonantError) as exc:
        return _refuse(exc.report)
    except det.InconclusiveWindingError as exc:
        return _refuse({"error": "inconclusive-winding", "detail": str(exc)})
    except sp.IncompleteSpectrumError as exc:
        return _refuse({"error": "incomplete-spectrum", "detail": str(exc)})
    except (OSError, json.JSONDecodeError) as exc:
        return _fail_usage(f"cannot read input: {exc}")


if __name__ == "__main__":
    sys.exit(main())
