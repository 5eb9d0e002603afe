import json

import pytest

from deltatree import (
    GraphFunction, Packet, function_to_json, line_tree, save_tree, star_tree,
)
from deltatree.cli import main


@pytest.fixture
def files(tmp_path):
    paths = {}
    save_tree(star_tree(2, 1.0), tmp_path / "single.json")
    save_tree(line_tree([2.0, -1.0], [0.5]), tmp_path / "resonant.json")
    save_tree(star_tree(2, -2.0), tmp_path / "well.json")
    tree = star_tree(2, 1.0)
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 6.0, 1.0, -1.0)]})
    with open(tmp_path / "data.json", "w") as fh:
        json.dump(function_to_json(u0), fh)
    for name in ("single", "resonant", "well", "data"):
        paths[name] = str(tmp_path / f"{name}.json")
    paths["dir"] = tmp_path
    return paths


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_validate_ok(files, capsys):
    assert main(["validate", "--graph", files["single"]]) == 0
    doc = _json_out(capsys)
    assert doc["valid"] and doc["p"] == 1


def test_resonance_refusal(files, capsys):
    code = main(["resonance", "--graph", files["resonant"]])
    assert code == 1
    doc = _json_out(capsys)
    assert doc["zero_order"] == 2
    assert doc["p"] == 2
    assert doc["condition_holds"] is False


def test_resonance_ok(files, capsys):
    assert main(["resonance", "--graph", files["single"]]) == 0
    doc = _json_out(capsys)
    assert doc["zero_order"] == 0 and doc["condition_holds"]


def test_spectrum(files, capsys):
    assert main(["spectrum", "--graph", files["well"]]) == 0
    doc = _json_out(capsys)
    assert len(doc["omegas"]) == 1
    assert abs(doc["omegas"][0] - 1.0) < 1e-9
    capsys.readouterr()
    assert main(["spectrum", "--graph", files["single"]]) == 0
    assert _json_out(capsys)["omegas"] == []


def test_usage_error_exit_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])               # missing --graph
    assert exc.value.code == 2


def test_flag_of_another_subcommand_exit_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--graph", files["single"], "--data", files["data"],
              "--times", "1", "--eps", "0.1"])
    assert exc.value.code == 2


def test_unreadable_file_exit_2(files, capsys):
    assert main(["spectrum", "--graph", str(files["dir"] / "nope.json")]) == 2


def test_invalid_tree_refused(files, capsys):
    bad = files["dir"] / "bad.json"
    with open(bad, "w") as fh:
        json.dump({"vertices": [{"id": "v1", "alpha": 1.0}],
                   "edges": [{"id": "e1", "from": "v1", "length": "inf"}],
                   "root": "v1"}, fh)
    assert main(["validate", "--graph", str(bad)]) == 1
    doc = _json_out(capsys)
    assert doc["error"] == "invalid-tree"
    assert any("degree" in p for p in doc["problems"])


def test_strip_scan(files, capsys):
    code = main(["strip-scan", "--graph", files["single"], "--delta", "0.5",
                 "--eps", "0.01", "--tau-max", "4", "--nodes", "60"])
    assert code == 0
    doc = _json_out(capsys)
    assert doc["min_abs_det"] >= 1.0
    assert not doc["violation"]


def test_appendix_a(files, capsys):
    assert main(["appendix-a", "--graph", files["single"]]) == 0
    assert _json_out(capsys)["all_ok"]
    capsys.readouterr()
    assert main(["appendix-a", "--graph", files["well"]]) == 1
    assert _json_out(capsys)["error"] == "non-positive-strength"


def test_evolve_csv_and_determinism(files, tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["evolve", "--graph", files["single"], "--data", files["data"],
            "--times", "0.5", "--out"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    with open(out1) as f1, open(out2) as f2:
        a, b = f1.read(), f2.read()
    assert a == b
    header = a.splitlines()[0]
    assert header == "t,edge,x,re_u,im_u,abs_u"


def test_evolve_resonant_refused(files, capsys, tmp_path):
    data = str(tmp_path / "rdata.json")
    tree = line_tree([2.0, -1.0], [0.5])
    u0 = GraphFunction(tree, {"e1": [Packet(1.0, 6.0, 1.0, 0.0)]})
    with open(data, "w") as fh:
        json.dump(function_to_json(u0), fh)
    code = main(["evolve", "--graph", files["resonant"], "--data", data,
                 "--times", "1"])
    assert code == 1
    assert _json_out(capsys)["error"] == "resonant-tree"


def test_couplings_check_and_scan(files, capsys):
    assert main(["couplings-check", "--graph", files["single"]]) == 0
    assert _json_out(capsys)["ok"]
    capsys.readouterr()
    code = main(["couplings-scan", "--graph", files["single"],
                 "--nodes", "200", "--tau-max", "5"])
    assert code == 0
    doc = _json_out(capsys)
    assert "min_abs" in doc and "plausibly_holds" in doc
