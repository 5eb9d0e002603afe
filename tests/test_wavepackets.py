import json
import math
import pathlib
import re

import numpy as np
import pytest
from scipy.integrate import quad

from deltatree import (
    GraphFunction, Packet, free_evolution, function_from_json,
    gauss_exp_integral, norms, packet_exp_integral, star_tree,
    tree_from_json,
)


def _quad_complex(f, a, b):
    re = quad(lambda x: f(x).real, a, b, limit=400)[0]
    im = quad(lambda x: f(x).imag, a, b, limit=400)[0]
    return complex(re, im)


def test_gauss_exp_integral_vs_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = complex(rng.uniform(0.3, 3.0), rng.uniform(-1, 1))
        q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a, b = sorted(rng.uniform(-2, 4, size=2))
        got = gauss_exp_integral(p, q, a, b)
        want = _quad_complex(lambda y: np.exp(-p * y * y + q * y), a, b)
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_gauss_exp_integral_infinite_endpoint():
    got = gauss_exp_integral(1.0, 0.0, -np.inf, np.inf)
    assert abs(got - math.sqrt(math.pi)) < 1e-14


def test_packet_exp_integral_large_exponent_stable():
    # stable even when the raw exponentials overflow
    pkt = Packet(1.0, 5.0, 1.0, 0.0)
    got = packet_exp_integral(pkt, 60.0, 0.0, 10.0, log_pref=-600.0)
    want = _quad_complex(lambda y: pkt(y) * np.exp(60.0 * y - 600.0),
                         0.0, 10.0)
    assert np.isfinite(got)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_unit_gaussian_l2_norm():
    tree = star_tree(2, 0.0)
    f = GraphFunction(tree, {"e1": [Packet(1.0, 5.0, 1.0, 0.0)]})
    # ||f||_2^2 = sigma * sqrt(pi) for a unit Gaussian with negligible tail
    assert abs(norms(f, 2) - math.pi ** 0.25) < 1e-8
    assert abs(norms(f, 2) - 1.33133) < 1e-4


def test_zero_function_norms():
    tree = star_tree(2, 0.0)
    f = GraphFunction(tree, {})
    for p in (1, 2, math.inf):
        assert norms(f, p) == 0.0


def test_norm_additivity_disjoint_packets():
    tree = star_tree(2, 0.0)
    one = GraphFunction(tree, {"e1": [Packet(1.0, 5.0, 1.0, 0.0)]})
    two = GraphFunction(tree, {"e1": [Packet(1.0, 5.0, 1.0, 0.0)],
                               "e2": [Packet(1.0, 5.0, 1.0, 0.0)]})
    assert abs(norms(two, 2) - math.sqrt(2) * norms(one, 2)) < 1e-8
    assert abs(norms(two, 1) - 2 * norms(one, 1)) < 1e-8 * norms(two, 1)
    assert abs(norms(two, math.inf) - norms(one, math.inf)) < 1e-9


def test_norms_with_wavenumber_and_quadrature():
    tree = star_tree(2, 0.0)
    pk = Packet(0.7 + 0.2j, 4.0, 0.8, 2.5)
    f = GraphFunction(tree, {"e1": [pk]})
    want = math.sqrt(quad(lambda x: abs(pk(x)) ** 2, 0, 30, limit=400)[0])
    assert abs(norms(f, 2) - want) <= 1e-8 * want


def test_free_evolution_matches_quadrature():
    # closed-form free propagator against direct oscillatory quadrature
    pk = [Packet(1.0, 5.0, 1.0, 1.0)]
    t = 0.7
    x = np.array([3.0, 5.0, 8.0])
    got = free_evolution(pk, -np.inf, np.inf, x, t)
    for xi, gi in zip(x, got):
        kern = lambda y: np.exp(1j * (xi - y) ** 2 / (4 * t)) * pk[0](y)
        want = _quad_complex(kern, -10, 20) / np.sqrt(4j * math.pi * t)
        assert abs(gi - want) < 1e-8


def test_free_evolution_at_zero_time():
    pk = [Packet(1.0, 5.0, 1.0, -2.0)]
    x = np.linspace(0, 10, 11)
    got = free_evolution(pk, 0.0, np.inf, x, 0.0)
    assert np.max(np.abs(got - pk[0](x))) < 1e-12


def test_readme_data_example_loads():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = [json.loads(b) for b in
              re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)]
    tree = tree_from_json(next(b for b in blocks if "vertices" in b))
    doc = next(b for b in blocks if "e1" in b)
    assert function_from_json(tree, doc).l2_norm() > 0
    with pytest.raises(ValueError, match="amplitude"):
        function_from_json(tree, {"e1": [{"x0": 6.0, "sigma": 1.0,
                                          "k": -1.0}]})
