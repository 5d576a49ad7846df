import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from quivermoduli import cli, curves, serialize
from quivermoduli.chambers import PnWeight, QnWeight
from quivermoduli.configs import PnConfig, QnConfig
from quivermoduli.curves import Chain, GK, lm_moduli_coordinates, moduli_coordinates
from quivermoduli.generate import random_gk_tree
from quivermoduli.projline import INF_POINT, ZERO_POINT, affine

import random


def run_cli(*args, env=None):
    argv = [sys.executable, "-m", "quivermoduli.cli", *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_point_round_trip():
    for p in (ZERO_POINT, INF_POINT, affine(F(-7, 3))):
        assert serialize.parse_point(serialize.point_json(p)) == p
    assert serialize.parse_section("zero") is None


def test_config_round_trip():
    cfg = QnConfig((affine(1), None, INF_POINT, affine(F(2, 5))))
    assert serialize.parse_config(serialize.config_json(cfg)) == cfg
    pcfg = PnConfig((ZERO_POINT, affine(3)))
    assert serialize.parse_config(serialize.config_json(pcfg)) == pcfg


def test_weight_round_trip():
    w = QnWeight((F(1, 2),) * 4)
    assert serialize.parse_weight(serialize.weight_json(w)) == w
    p = PnWeight(F(-1, 3), F(-2, 3), (F(1, 4), F(3, 4)))
    assert serialize.parse_weight(serialize.weight_json(p)) == p


def test_tree_and_family_round_trip():
    t = random_gk_tree(random.Random(1), 5)
    assert serialize.parse_tree(serialize.tree_json(t)) == t
    fam = moduli_coordinates(t, GK)
    assert serialize.parse_family(serialize.family_json(fam)) == fam
    ch = Chain((((0, affine(2)),), ((1, affine(5)),)))
    assert serialize.parse_chain(serialize.chain_json(ch)) == ch
    lfam = lm_moduli_coordinates(ch)
    assert serialize.parse_family(serialize.family_json(lfam)) == lfam


def test_parse_errors():
    with pytest.raises(serialize.ParseError):
        serialize.parse_point(["nonsense", "1/2"])
    with pytest.raises(serialize.ParseError):
        serialize.parse_any({"no": "type"})


def test_dumps_deterministic():
    text = serialize.chamber_complex_json("qn", 4)
    assert text == serialize.chamber_complex_json("qn", 4)
    # the text is what dumps writes for its own payload
    assert serialize.dumps(json.loads(text)) == text


def test_cli_chambers_counts():
    r = run_cli("chambers", "--mode", "qn", "--n", "5", "--no-adjacency")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert len(d["walls"]) == 10
    r = run_cli("chambers", "--mode", "qn", "--n", "4")
    d = json.loads(r.stdout)
    assert len(d["walls"]) == 3 and len(d["chambers"]) == 8
    r = run_cli("chambers", "--mode", "qn", "--n", "9")
    assert r.returncode == 2


@pytest.mark.parametrize("mode, n, digest", [
    ("qn", 5, "f70ad315bbbe6555c29740995cf018623d571568f1590033f77fccd580554311"),
    ("pn", 3, "20f582fcd105dbafa2a6fc7682997c79ec89c5810382fe6d2542a3c22716c1f3"),
])
def test_cli_chambers_text_format_is_pinned(tmp_path, mode, n, digest):
    # the indented form of the complex, with adjacency
    out = tmp_path / "complex.txt"
    assert cli.main(["chambers", "--mode", mode, "--n", str(n), "--format", "text", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_chambers_rejects_sizes_without_interior():
    for mode, n in (("qn", "2"), ("qn", "-1"), ("pn", "0")):
        r = run_cli("chambers", "--mode", mode, "--n", n)
        assert r.returncode == 4 and r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_cli_stability_and_exit_codes(tmp_path):
    cfg = tmp_path / "c.json"
    wt = tmp_path / "w.json"
    cfg.write_text(
        serialize.dumps(serialize.config_json(QnConfig((affine(0), affine(1), affine(2), INF_POINT))))
    )
    wt.write_text(serialize.dumps(serialize.weight_json(QnWeight((F(1, 2),) * 4))))
    r = run_cli("stability", "--config", str(cfg), "--weight", str(wt), "--oracle")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["verdict"] == "stable" and d["agreement"] is True

    bad = tmp_path / "bad.json"
    for text in ("{not json", '{"n": ' + "9" * 5000 + "}"):
        bad.write_text(text)
        r = run_cli("stability", "--config", str(bad), "--weight", str(wt))
        assert r.returncode == 3 and r.stderr.startswith("error: cannot parse"), r.stderr

    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps({"type": "weight", "mode": "qn", "theta": ["1/1", "1/1", "1/1", "1/1"]})
    )
    r = run_cli("stability", "--config", str(cfg), "--weight", str(invalid))
    assert r.returncode == 4


def test_cli_tree_round_trip(tmp_path):
    t = random_gk_tree(random.Random(3), 5)
    tf = tmp_path / "t.json"
    tf.write_text(serialize.dumps(serialize.tree_json(t)))
    fam_file = tmp_path / "f.json"
    r = run_cli("tree", "coords", "--tree", str(tf), "--out", str(fam_file))
    assert r.returncode == 0
    r = run_cli("tree", "reconstruct", "--family", str(fam_file))
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["round_trip"] is True

    # inconsistent family: perturb one chart entry
    fam = json.loads(fam_file.read_text())
    key = sorted(fam["charts"])[0]
    fam["charts"][key][4] = ["99/1", "1/1"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(fam))
    r = run_cli("tree", "reconstruct", "--family", str(broken))
    assert r.returncode == 5


def test_cli_reconstruct_builds_no_charts(tmp_path, monkeypatch):
    # the round trip compares the family with the rebuilt tree's integer
    # rows, so reconstruction calls moduli_coordinates not at all
    fam_file = tmp_path / "f.json"
    fam = moduli_coordinates(random_gk_tree(random.Random(3), 5), GK)
    fam_file.write_text(serialize.dumps(serialize.family_json(fam)))
    calls = []
    real = curves.moduli_coordinates

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(curves, "moduli_coordinates", counting)
    out = tmp_path / "t.json"
    assert cli.main(["tree", "reconstruct", "--family", str(fam_file), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["round_trip"] is True
    assert calls == []


def test_cli_verify_seeded_reproducible(tmp_path):
    args = ("verify", "--suite", "five-term", "--seed", "7", "--bounds", '{"instances": 15}')
    r1 = run_cli(*args)
    r2 = run_cli(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    d = json.loads(r1.stdout)
    assert d["reports"][0]["passed"] is True


@pytest.mark.parametrize("suite, digest", [
    ("roundtrip-lm", "65718a4c91cff4152220df8204b746cf2b0f6edba3b132f00afbc8dd6c1a29bf"),
    ("five-term", "70d32c1976951cf2a8ad48625bd7db0ee8c47a82b06df287aa321dd0dabfebde"),
])
def test_cli_chart_suites_output_pinned(suite, digest):
    # sha256 of the default output, taken while chain charts and normalized
    # configuration charts were still built with Moebius maps
    r = run_cli("verify", "--suite", suite)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_cli_bad_bounds_exit_3():
    cases = [
        ("five-term", '{"instances": "x"}'),
        ("five-term", "[1, 2]"),
        ("five-term", '{"instance": 3}'),
        ("five-term", '{"five-term": {"instances": -1}}'),
        ("all", '{"five-term": {"instances": "x"}}'),
        ("all", '{"five-term": 3}'),
        ("five-term", '{"instances": ' + "9" * 5000 + "}"),
    ]
    for suite, bounds in cases:
        r = run_cli("verify", "--suite", suite, "--bounds", bounds)
        assert r.returncode == 3, (suite, bounds, r.stderr)
        assert r.stdout == "" and r.stderr.startswith("error: bad bounds"), (suite, bounds)
        assert r.stderr.count("\n") == 1, r.stderr


def test_cli_out_of_range_bounds_exit_3():
    # values of the right type that the suites cannot run with
    cases = [
        ("qn2-pn", '{"pn_max": 0, "instances": 3}', "bounds.qn2-pn.pn_max must be an integer >= 1"),
        ("theta-polytope", '{"ns": [2]}', "bounds.theta-polytope.ns must be a list of integers >= 3"),
        ("stability-oracle", '{"random_n": []}', "bounds.stability-oracle.random_n must be a nonempty"),
        ("roundtrip-hassett", '{"ns": [2]}', "bounds.roundtrip-hassett.ns must be"),
        ("roundtrip-lm", '{"exhaustive_n": [0]}', "bounds.roundtrip-lm.exhaustive_n must be"),
        ("limit-equations", '{"corpus": {"random": {"2": 1}}}', "bounds.limit-equations.corpus.random must be"),
        ("roundtrip-gk", '{"random": {"' + "7" * 5000 + '": 1}}', "bounds.roundtrip-gk.random must be"),
        ("chambers-vs-grid", '{"plans": [["qn", 2, 8]]}', "bounds.chambers-vs-grid.plans must be"),
        ("chambers-vs-grid", '{"plans": [["pn", 0, 8]]}', "bounds.chambers-vs-grid.plans must be"),
        ("chambers-vs-grid", '{"plans": [[["qn"], 3, 8]]}', "bounds.chambers-vs-grid.plans must be"),
    ]
    for suite, bounds, message in cases:
        r = run_cli("verify", "--suite", suite, "--bounds", bounds)
        assert r.returncode == 3, (suite, bounds, r.stderr)
        assert r.stdout == "" and r.stderr.startswith(f"error: bad bounds: {message}"), r.stderr
        assert r.stderr.count("\n") == 1, r.stderr


def test_cli_bad_max_work_exits_3():
    for raw in ("abc", "-5", "0", "1.5", ""):
        env = dict(os.environ, QML_MAX_WORK=raw)
        r = run_cli("chambers", "--mode", "qn", "--n", "4", env=env)
        assert r.returncode == 3, (raw, r.stderr)
        assert r.stdout == ""
        assert r.stderr == f"error: QML_MAX_WORK must be an integer >= 1, got {raw!r}\n"
    r = run_cli("chambers", "--mode", "qn", "--n", "4", env=dict(os.environ, QML_MAX_WORK="3"))
    assert r.returncode == 2 and "QML_MAX_WORK" in r.stderr


def test_cli_tree_without_input_exits_3():
    for sub, flags in (
        ("check", "--tree or --chain"),
        ("coords", "--tree or --chain"),
        ("contract", "--tree"),
        ("reconstruct", "--family"),
    ):
        r = run_cli("tree", sub)
        assert r.returncode == 3, (sub, r.stderr)
        assert r.stderr == f"error: tree {sub} needs {flags}\n"
