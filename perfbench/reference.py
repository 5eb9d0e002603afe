"""Closed forms that the benchmark checks deltatree against.

Nothing here imports deltatree.  Each value comes from a formula written
out below, so a check against it does not share code with the program
under test.

Conventions match deltatree's: H = -d^2/dx^2 with a delta coupling of
strength alpha at each vertex (the outgoing derivatives sum to
alpha * u(v)); a packet is A exp(-(x - x0)^2 / (2 sigma^2) + i k x); a
bound state has energy -omega^2 with omega > 0.
"""

from __future__ import annotations

import math

import numpy as np


# -- free Gaussian -----------------------------------------------------------


def free_gaussian(A, x0, sigma, k, x, t):
    """Exact solution of i u_t = -u_xx on the whole line at time t for
    the initial packet A exp(-(x - x0)^2 / (2 sigma^2) + i k x).

    The packet moves at group velocity 2k and its complex width grows as
    sigma^2 (1 + 2 i t / sigma^2)."""
    x = np.asarray(x, dtype=float)
    z = 1.0 + 2j * t / sigma ** 2
    y = x - x0 - 2.0 * k * t
    return (A / np.sqrt(z)) * np.exp(-y * y / (2.0 * sigma ** 2 * z)
                                     + 1j * k * x - 1j * k * k * t)


def gaussian_norm_sq(A, x0, sigma, length=math.inf):
    """int_0^length |A exp(-(x - x0)^2 / (2 sigma^2) + i k x)|^2 dx."""
    hi = 1.0 if math.isinf(length) else math.erf((length - x0) / sigma)
    return abs(A) ** 2 * sigma * math.sqrt(math.pi) / 2.0 * (
        hi + math.erf(x0 / sigma))


# -- lines with delta potentials ----------------------------------------------


def line_bound_state_function(alphas, spacings, omega):
    """A real function of omega > 0 whose zeros are the bound states of
    the line with strengths ``alphas`` at mutual distances ``spacings``.

    The solution e^{omega x} left of the first delta is carried across
    each delta (u' jumps by alpha u) and each gap (the 2x2 transfer
    matrix of u'' = omega^2 u).  The result is u' + omega u right of the
    last delta, which vanishes exactly when the solution also decays
    there.  After every step (u, u') is divided by a positive factor, so
    nothing overflows and the sign is kept."""
    w = np.asarray(omega, dtype=float)
    u = np.ones_like(w)
    du = w.copy()
    for j, alpha in enumerate(alphas):
        du = du + alpha * u
        if j < len(spacings):
            ch = np.cosh(w * spacings[j])
            sh = np.sinh(w * spacings[j])
            u, du = u * ch + du * sh / w, u * w * sh + du * ch
        scale = np.maximum(np.abs(u), np.abs(du))
        u = u / scale
        du = du / scale
    return du + w * u


def oscillation_count(alphas, spacings):
    """Number of bound states of the line, by the oscillation theorem:
    the zeros of the zero-energy solution that is bounded on the left.
    That solution is piecewise linear; a zero sits in a gap where it
    changes sign, or beyond the last delta where it heads to zero."""
    u, du = 1.0, 0.0
    count = 0
    for j, alpha in enumerate(alphas):
        du += alpha * u
        if j < len(spacings):
            nxt = u + du * spacings[j]
            if u * nxt < 0:
                count += 1
            u = nxt
    if u * du < 0:
        count += 1
    return count


# -- star trees ---------------------------------------------------------------


def star_det(n, alpha, omega):
    """Normalized determinant of the star with n rays and strength alpha."""
    return (n * omega + alpha) / (omega + alpha)


def star_flip_ratio(n, alpha, omega):
    """Determinant ratio of the star with one ray's decaying exponential
    flipped to a growing one."""
    return ((n - 2) * omega + alpha) / (n * omega + alpha)


def star_bound_states(n, alpha):
    """Bound states of the star: omega = -alpha / n when alpha < 0."""
    return [-alpha / n] if alpha < 0 else []


def strip_grid(eps, delta, tau_max, n_tau, n_s=9):
    """The omega grid {s + i tau}: n_s values of s in [-eps, eps] and
    n_tau values of |tau| in [delta, tau_max], both signs of tau."""
    s = np.linspace(-eps, eps, n_s)[:, None]
    tau = np.linspace(delta, tau_max, n_tau)[None, :]
    return np.concatenate([(s + 1j * tau).ravel(), (s - 1j * tau).ravel()])


def star_strip_extremes(n, alpha, eps, delta, tau_max, n_tau):
    """(min |det|, max |flip ratio|) of the star over the strip grid."""
    w = strip_grid(eps, delta, tau_max, n_tau)
    return (float(np.min(np.abs(star_det(n, alpha, w)))),
            float(np.max(np.abs(star_flip_ratio(n, alpha, w)))))


def star_delta_condition_min(n, alpha, tau_min, tau_max, n_tau):
    """Minimum over tau of |det(A - i tau B)| / |i tau + alpha| for the
    delta coupling of a star, where |det(A - omega B)| = |n omega + alpha|."""
    tau = np.linspace(tau_min, tau_max, n_tau)
    return float(np.min(np.abs(n * 1j * tau + alpha) / np.abs(1j * tau + alpha)))


# -- stars with an extra vertex on every arm ----------------------------------


def _bisect(f, lo, hi, tol=1e-15):
    flo = f(lo)
    if flo * f(hi) > 0:
        raise ValueError("no sign change in bracket")
    while hi - lo > tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def armed_star_bound_states(n, a, alpha):
    """Bound states, with multiplicity, of a Kirchhoff star of n rays each
    cut at distance a by a degree-2 vertex of strength alpha < 0.

    On an arm u = A cosh(omega x) (the mode equal on every arm) or
    u = A sinh(omega x) (the n - 1 modes whose values sum to zero at the
    centre).  Matching the decaying ray at x = a, u'(a) = -(alpha +
    omega) u(a), gives omega tanh(omega a) = -alpha - omega and
    omega coth(omega a) = -alpha - omega."""
    hi = -alpha
    out = []
    sym = lambda w: w * math.tanh(w * a) + w + alpha
    out.append(_bisect(sym, 1e-12, hi))
    anti = lambda w: w / math.tanh(w * a) + w + alpha
    if 1.0 / a + alpha < 0:
        out += [_bisect(anti, 1e-12, hi)] * (n - 1)
    return sorted(out)
