"""The reference closed forms against hand values and first principles."""

import math

import numpy as np
import pytest

import reference as ref


def test_free_gaussian_solves_the_free_equation():
    A, x0, sigma, k = 0.8 - 0.3j, 2.0, 0.7, 1.3
    x = np.linspace(-40.0, 50.0, 9001)
    u0 = ref.free_gaussian(A, x0, sigma, k, x, 0.0)
    assert np.allclose(u0, A * np.exp(-(x - x0) ** 2 / (2 * sigma ** 2)
                                      + 1j * k * x), atol=1e-15)
    t, dt_, dx = 1.5, 1e-4, x[1] - x[0]
    u = ref.free_gaussian(A, x0, sigma, k, x, t)
    u_t = (ref.free_gaussian(A, x0, sigma, k, x, t + dt_)
           - ref.free_gaussian(A, x0, sigma, k, x, t - dt_)) / (2 * dt_)
    u_xx = (u[2:] - 2 * u[1:-1] + u[:-2]) / dx ** 2
    residual = 1j * u_t[1:-1] + u_xx
    assert np.max(np.abs(residual)) < 1e-3 * np.max(np.abs(u_xx))
    mass = 2 * ref.gaussian_norm_sq(A, 0.0, sigma)
    assert np.trapezoid(np.abs(u) ** 2, x) == pytest.approx(mass, rel=1e-10)


def test_gaussian_norm_against_quadrature():
    A, x0, sigma = 1.5 + 0.5j, 1.0, 0.8
    for length in (math.inf, 2.0):
        x = np.linspace(0.0, min(length, 30.0), 200001)
        dens = np.abs(A) ** 2 * np.exp(-(x - x0) ** 2 / sigma ** 2)
        assert ref.gaussian_norm_sq(A, x0, sigma, length) == pytest.approx(
            np.trapezoid(dens, x), rel=1e-9)


def test_single_well_has_omega_one():
    assert ref.star_bound_states(2, -2.0) == [1.0]
    assert ref.oscillation_count([-2.0], []) == 1
    lo, hi = ref.line_bound_state_function([-2.0], [], [1.0 - 1e-9, 1.0 + 1e-9])
    assert lo * hi < 0
    assert ref.oscillation_count([2.0], []) == 0


def test_three_arm_tree_hand_values():
    got = ref.armed_star_bound_states(3, 1.0, -2.0)
    assert got == pytest.approx([0.79681, 0.79681, 1.10886], abs=5e-6)
    assert got[0] == pytest.approx(1.0 - math.exp(-2 * got[0]), abs=1e-14)
    assert got[2] == pytest.approx(1.0 + math.exp(-2 * got[2]), abs=1e-14)


def test_oscillation_count_matches_sign_changes():
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = int(rng.integers(2, 9))
        alphas = list(rng.uniform(0.3, 2.0, p) * rng.choice([-1.0, 1.0], p))
        spacings = list(rng.uniform(0.5, 1.5, p - 1))
        wmax = sum(max(0.0, -a) for a in alphas) + 1.0
        w = np.linspace(1e-6, wmax, 100001)
        f = ref.line_bound_state_function(alphas, spacings, w)
        assert np.count_nonzero(f[:-1] * f[1:] < 0) == \
            ref.oscillation_count(alphas, spacings)


def test_star_closed_forms():
    assert ref.star_det(2, 0.0, 0.3 + 2j) == pytest.approx(2.0)
    assert ref.star_det(3, 1.0, 1.0) == pytest.approx(2.0)
    assert ref.star_flip_ratio(2, 0.0, 1.0 + 1j) == pytest.approx(0.0)
    assert ref.star_bound_states(4, -2.0) == [0.5]
    assert ref.star_bound_states(3, 1.0) == []
    w = ref.strip_grid(0.1, 0.5, 10.0, 5)
    assert w.size == 2 * 9 * 5
    assert np.all(np.abs(w.imag) >= 0.5) and np.all(np.abs(w.real) <= 0.1)
    # |n i tau + alpha| / |i tau + alpha| grows with tau for n >= 1
    assert ref.star_delta_condition_min(3, 2.0, 0.5, 10.0, 100) == \
        pytest.approx(abs(1.5j + 2.0) / abs(0.5j + 2.0))
