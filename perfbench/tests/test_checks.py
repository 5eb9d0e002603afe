"""Every check accepts deltatree's output and rejects the same output
perturbed beyond the check's tolerance, so no check is one that cannot
fail and none fails on right output."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import deltatree as dt
from deltatree import cli

import checks as ck
import reference as ref
import workloads


def _rejects(check, *args):
    with pytest.raises(ck.CheckFailed):
        check(*args)


def _scaled(values, factor):
    return {k: v * factor for k, v in values.items()}


PACKET = (1.2 - 0.4j, 3.0, 0.5, -1.5)
TIMES = workloads.EvolveReference.TIMES["star3"]


@pytest.fixture(scope="module")
def free_line():
    """Dispersive values of the free line on evolve-reference windows."""
    tree = dt.star_tree(2, 0.0)
    prop = dt.Propagator(tree, dt.GraphFunction(tree, {"e1": [dt.Packet(*PACKET)]}))
    w = workloads.EvolveReference._window
    windows = {t: w(workloads.EvolveReference, tree, PACKET, t) for t in TIMES}
    return windows, {t: prop.dispersive(t, windows[t]) for t in TIMES}


def test_free_gaussian_check(free_line):
    windows, values = free_line
    A, x0, sigma, k = PACKET
    for t in TIMES:
        x = windows[t]["e1"]
        want = {"e1": ref.free_gaussian(A, x0, sigma, k, x, t),
                "e2": ref.free_gaussian(A, x0, sigma, k, -x, t)}
        ck.check_free_gaussian(values[t], want)
        _rejects(ck.check_free_gaussian,
                 _scaled(values[t], 1 + 2 * ck.FREE_LINE_TOL), want)


def test_mass_check(free_line):
    windows, values = free_line
    want = math.sqrt(ref.gaussian_norm_sq(PACKET[0], PACKET[1], PACKET[2]))
    for t in TIMES:
        assert ck.grid_resolves(windows[t], values[t])
        ck.check_mass(windows[t], values[t], want)
        _rejects(ck.check_mass, windows[t],
                 _scaled(values[t], 1 + 2 * ck.MASS_TOL), want)


def test_resolution_guard():
    x = np.linspace(0.0, 10.0, 41)
    bump = lambda width: {"e1": np.exp(-(x - 5.1) ** 2 / (2 * width ** 2))}
    assert ck.grid_resolves({"e1": x}, bump(0.5))
    assert not ck.grid_resolves({"e1": x}, bump(0.15))


def test_decay_check(free_line):
    _, values = free_line
    sups = [max(float(np.max(np.abs(v))) for v in values[t].values())
            for t in TIMES]
    ck.check_decay(TIMES, sups)
    bent = [s * t ** (-2 * ck.DECAY_TOL) for s, t in zip(sups, TIMES)]
    _rejects(ck.check_decay, TIMES, bent)


def test_origin_order_and_determinant_checks():
    tree = dt.line_tree([0.5, 1.2, 0.8], [1.0, 0.7])
    order = dt.zero_order_at_origin(tree).zero_order
    ck.check_equal("origin order", order, tree.p - 1)
    _rejects(ck.check_equal, "origin order", order + 1, tree.p - 1)
    for w in workloads.LineManyDeltas.OMEGAS:
        direct = dt.det_direct(tree, w)
        recursive = dt.det_recursive(tree, w, with_ratios=False).det
        ck.check_close("det", recursive, direct, ck.DET_TOL)
        _rejects(ck.check_close, "det", recursive * (1 + 2 * ck.DET_TOL),
                 direct, ck.DET_TOL)


def test_line_spectrum_check():
    alphas, spacings = [-1.5, 0.8, -2.0, -0.7], [1.0, 0.6, 1.4]
    omegas = dt.find_eigenvalues(dt.line_tree(alphas, spacings)).omegas
    assert len(omegas) >= 2
    ck.check_line_spectrum(alphas, spacings, omegas)
    _rejects(ck.check_line_spectrum, alphas, spacings, omegas[1:])
    shifted = [w * (1 + 2 * ck.BRACKET) for w in omegas]
    _rejects(ck.check_line_spectrum, alphas, spacings, shifted)


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, json.loads(out.getvalue())


@pytest.fixture
def files(tmp_path):
    def save(name, tree):
        path = str(tmp_path / f"{name}.json")
        dt.save_tree(tree, path)
        return path
    return save, tmp_path


def test_star_spectrum_and_known_fault(files):
    save, _ = files
    _, doc = _cli("spectrum", "--graph", save("star", dt.star_tree(3, -1.8)))
    want = ref.star_bound_states(3, -1.8)
    ck.check_spectrum(doc["omegas"], want)
    _rejects(ck.check_spectrum, [w * (1 + 2 * ck.EIGEN_TOL) for w in doc["omegas"]],
             want)
    arms = dt.star_tree(3, 0.0)
    for e in ("e1", "e2", "e3"):
        arms = dt.attach_vertex(arms, e, 1.0, -2.0, 2)
    _, doc = _cli("spectrum", "--graph", save("arms", arms))
    exact = ref.armed_star_bound_states(3, 1.0, -2.0)
    with pytest.raises(ck.KnownFault):
        ck.check_spectrum(doc["omegas"], exact, fault="F2")
    ck.check_spectrum(exact, exact, fault="F2")
    _rejects(ck.check_spectrum, [1.2], exact, "F2")


def test_strip_scan_and_condition_scan_checks(files):
    save, tmp = files
    n, alpha = 4, 1.7
    path = save("star", dt.star_tree(n, alpha))
    _, doc = _cli("strip-scan", "--graph", path, "--eps", 0.05, "--delta", 0.5,
                  "--tau-max", 10.0, "--nodes", 40)
    want_min, want_ratio = ref.star_strip_extremes(n, alpha, 0.05, 0.5, 10.0, 40)
    ck.check_close("min", doc["min_abs_det"], want_min, ck.DET_TOL)
    _rejects(ck.check_close, "min", doc["min_abs_det"] * (1 + 2 * ck.DET_TOL),
             want_min, ck.DET_TOL)
    for ratio in doc["max_ratios"].values():
        ck.check_close("ratio", ratio, want_ratio, ck.DET_TOL)
        _rejects(ck.check_close, "ratio", ratio * (1 + 2 * ck.DET_TOL),
                 want_ratio, ck.DET_TOL)
    spec = str(tmp / "delta.json")
    with open(spec, "w") as fh:
        json.dump({"v1": {"type": "delta", "alpha": alpha}}, fh)
    _, doc = _cli("couplings-scan", "--graph", path, "--data", spec,
                  "--delta", 1e-3, "--tau-max", 10.0, "--nodes", 200)
    want = ref.star_delta_condition_min(n, alpha, 1e-3, 10.0, 200)
    ck.check_close("scan", doc["min_abs"], want, ck.DET_TOL)
    _rejects(ck.check_close, "scan", doc["min_abs"] * (1 + 2 * ck.DET_TOL),
             want, ck.DET_TOL)


def test_oracle_check(files):
    save, tmp = files
    tree = dt.star_tree(2, 1.0)
    data = str(tmp / "data.json")
    u0 = dt.GraphFunction(tree, {"e1": [dt.Packet(1.0, 6.0, 1.0, -1.0)]})
    with open(data, "w") as fh:
        json.dump(dt.function_to_json(u0), fh)
    _, doc = _cli("oracle-compare", "--graph", save("single", tree), "--data",
                  data, "--times", "0.5", "--h", 1 / 32, "--dt", 1 / 64)
    ck.check_oracle(doc)
    worse = json.loads(json.dumps(doc))
    for row in worse["comparison"]:
        row["rel_l2_discrepancy"] = 2 * ck.ORACLE_TOL
    _rejects(ck.check_oracle, worse)
    for row in worse["comparison"]:
        row["within_safe_horizon"] = False
    _rejects(ck.check_oracle, worse)


def test_f1_line_is_a_known_fault():
    bench = workloads.LineManyDeltas(0, None)
    bench.prepare_checks()
    values = bench.f1_prop.dispersive(bench.T_SHORT, {"e1": bench.X})
    with pytest.raises(ck.KnownFault, match="F1"):
        bench._check_free(values, "F1")
    bench._check_free({"e1": bench.free["F1"]}, "F1")
