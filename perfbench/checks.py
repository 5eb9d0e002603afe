"""Correctness checks for the benchmark's operations.

Every check compares a program output with a value from ``reference``
or with a property the method must have, at the tolerance the README's
accuracy contract states.  A check raises ``CheckFailed`` when the
output is wrong; the run is then reported incorrect.  ``KnownFault``
marks an output that misses a check in exactly the way a reproduced,
named fault predicts; the operation then counts as failed and the run
stays correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson

import reference as ref

# README accuracy contract
FREE_LINE_TOL = 1e-4        # propagator against the free-line closed form
MASS_TOL = 1e-3             # ||e^{-itH} P u0|| against Parseval
DECAY_TOL = 0.05            # fitted exponent against the theorem's 1/2
DET_TOL = 1e-10             # determinants: near machine precision
EIGEN_TOL = 1e-9            # bound-state frequencies
BRACKET = 1e-8              # half-width of the sign-change bracket
ORACLE_TOL = 1e-2           # propagator against Crank-Nicolson
RESOLVE_TOL = 1e-2          # trapezoid against Simpson on a resolved grid


class CheckFailed(Exception):
    """An output outside the accuracy the program states."""


class KnownFault(Exception):
    """An output that misses a check the way a named fault predicts."""

    def __init__(self, fault, detail):
        self.fault = fault
        super().__init__(f"{fault}: {detail}")


def rel_sup_error(got, want):
    """max |got - want| over max |want|, over a dict of arrays per edge."""
    scale = max(float(np.max(np.abs(w))) for w in want.values())
    err = max(float(np.max(np.abs(got[k] - w))) for k, w in want.items())
    return err / scale


def check_free_gaussian(got, want, tol=FREE_LINE_TOL):
    err = rel_sup_error(got, want)
    if not err <= tol:
        raise CheckFailed(f"relative sup error {err:.2e} against the free "
                          f"Gaussian exceeds {tol:.0e}")
    return err


def mass_norms(samples, values):
    """L2 norm of per-edge samples by the trapezoid and Simpson rules."""
    trap = simp = 0.0
    for eid, x in samples.items():
        dens = np.abs(values[eid]) ** 2
        trap += float(np.trapezoid(dens, x))
        simp += float(simpson(dens, x=x))
    return math.sqrt(trap), math.sqrt(simp)


def grid_resolves(samples, values, tol=RESOLVE_TOL):
    """Whether the sample grid resolves |u|^2: the trapezoid and Simpson
    norms agree to ``tol``, so Simpson's error is far below it."""
    trap, simp = mass_norms(samples, values)
    return abs(trap - simp) <= tol * simp


def check_mass(samples, values, want_norm, tol=MASS_TOL):
    got = mass_norms(samples, values)[1]
    rel = abs(got - want_norm) / want_norm
    if not rel <= tol:
        raise CheckFailed(f"||u(t)|| = {got:.6g}, Parseval gives "
                          f"{want_norm:.6g} (relative {rel:.2e} > {tol:.0e})")
    return rel


def fit_decay_exponent(times, sups):
    """Least-squares beta in ||u(t)||_inf ~ C t^(-beta)."""
    lt = np.log(np.asarray(times, dtype=float))
    ls = np.log(np.asarray(sups, dtype=float))
    slope = np.polyfit(lt, ls, 1)[0]
    return float(-slope)


def check_decay(times, sups, want=0.5, tol=DECAY_TOL):
    beta = fit_decay_exponent(times, sups)
    if not abs(beta - want) <= tol:
        raise CheckFailed(f"decay exponent {beta:.4f} is not {want} +- {tol}")
    return beta


def check_equal(name, got, want):
    if got != want:
        raise CheckFailed(f"{name} is {got!r}, expected {want!r}")


def check_close(name, got, want, rtol):
    err = abs(got - want) / max(abs(want), 1e-300)
    if not err <= rtol:
        raise CheckFailed(f"{name} = {got!r}, expected {want!r} "
                          f"(relative {err:.2e} > {rtol:.0e})")
    return err


def check_line_spectrum(alphas, spacings, omegas):
    """Bound states of a line: their number is the oscillation count and
    each one sits in a sign change of the transfer-matrix function."""
    check_equal("number of bound states", len(omegas),
                ref.oscillation_count(alphas, spacings))
    for w in omegas:
        lo, hi = ref.line_bound_state_function(
            alphas, spacings, np.array([w - BRACKET, w + BRACKET]))
        if not lo * hi < 0:
            raise CheckFailed(f"omega = {w!r} is not bracketed to "
                              f"{BRACKET:.0e} by a sign change")


def check_spectrum(omegas, want, fault=None, tol=EIGEN_TOL):
    """Bound states with multiplicity.  With ``fault`` set, a result that
    finds some of the expected values and misses the rest is that fault."""
    got = sorted(omegas)
    want = sorted(want)
    if len(got) == len(want) and all(
            abs(g - w) <= tol * max(1.0, w) for g, w in zip(got, want)):
        return
    found = all(any(abs(g - w) <= tol * max(1.0, w) for w in want)
                for g in got)
    if fault is not None and found and len(got) < len(want):
        raise KnownFault(fault, f"{len(got)} of {len(want)} bound states "
                         f"found ({got} against {want})")
    raise CheckFailed(f"bound states {got}, expected {want}")


def check_oracle(report, tol=ORACLE_TOL):
    """Propagator against Crank-Nicolson within the oracle's safe horizon."""
    rows = [r for r in report["comparison"] if r["within_safe_horizon"]]
    if not rows:
        raise CheckFailed("no comparison time lies within the safe horizon")
    worst = max(r["rel_l2_discrepancy"] for r in rows)
    if not worst <= tol:
        raise CheckFailed(f"oracle discrepancy {worst:.2e} exceeds {tol:.0e}")
    return worst
