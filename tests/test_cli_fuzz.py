"""Fuzz the command line in-process: whatever the arguments, `qml` ends with
one of the documented exit codes 0-5 and never prints a traceback.

Only inputs that finish quickly are drawn: chamber complexes up to n = 5
(qn) and n = 4 (pn) or sizes that are rejected, and verification bounds
that are rejected or name every key of a suite with tiny values.  A suite
run with larger bounds is refused by the guard below and the example is
dropped.
"""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, reject, settings, strategies as st

from quivermoduli import cli, configs, serialize, verify
from quivermoduli.chambers import QnWeight, SettingError, TooLargeError
from quivermoduli.configs import QnConfig
from quivermoduli.curves import (
    Chain, GK, HASSETT, InconsistentFamilyError, lm_moduli_coordinates, moduli_coordinates,
)
from quivermoduli.generate import random_gk_tree
from quivermoduli.projline import affine

_TINY = 4  # the largest size or count a fuzzed suite may run with

# families that parse but are not chart families: (body, exit code, the
# text of the one error line)
_BAD_FAMILIES = {
    "weights-negative.json": (
        {"mode": "hassett", "n": 4, "a": ["1", "1", "1", "-1"], "charts": {}}, 5,
        "inconsistent family: weight-data",
    ),
    "weights-short.json": (
        {"mode": "hassett", "n": 3, "a": ["1", "1"], "charts": {}}, 5,
        "inconsistent family: weight-data",
    ),
    "weights-long.json": (
        {"mode": "hassett", "n": 3, "a": ["1", "1", "1", "1"], "charts": {}}, 5,
        "inconsistent family: weight-data",
    ),
    "lm-short-row.json": (
        {"mode": "lm", "n": 2, "charts": {"0": [["1", "1"]], "1": [["1", "1"], ["1", "1"]]}}, 5,
        "inconsistent family: row-shape",
    ),
    "mode-zz.json": ({"mode": "zz", "n": 3, "charts": {}}, 4, "unknown family mode 'zz'"),
}

# double-star weights whose eta is not a pair: unreadable input, exit 3
_BAD_ETAS = {
    "eta-short.json": ["-1/2"],
    "eta-long.json": ["-1/2", "-1/2", "0"],
}

# chains that validate_chain refuses: (components, the text of the one error
# line); `tree check --chain` ended in a ValueError traceback on each
_BAD_CHAINS = {
    "chain-label-twice.json": ([[[0, ["1/1", "1/1"]], [0, ["1/1", "2/1"]]]], "mark labels must be distinct"),
    "chain-mark-on-anchor.json": ([[[0, ["0/1", "1/1"]]]], "mark 0 sits on an anchor or node point"),
}

# a stable tree with one component and three marks
_TREE3 = {
    "type": "tree",
    "components": ["a"],
    "edges": [],
    "marks": [[0, "a", ["0", "1"]], [1, "a", ["1", "0"]], [2, "a", ["1", "1"]]],
}

# trees that validate_tree refuses: (document, the text of the one error
# line); `tree contract` ended in a KeyError and an AssertionError traceback
# on the first two and printed a contraction of the third
_BAD_TREES = {
    "mark-off-components.json": (
        {**_TREE3, "marks": [*_TREE3["marks"][:2], [2, "b", ["1", "1"]]]}, "mark on an undeclared component",
    ),
    "components-unjoined.json": (
        {**_TREE3, "components": ["a", "b"]}, "edge count must be component count minus one",
    ),
    "mark-on-node.json": (
        {
            "type": "tree",
            "components": ["a", "b"],
            "edges": [{"ends": ["a", "b"], "nodes": [["9", "1"], ["4", "1"]]}],
            "marks": [[0, "a", ["9", "1"]], [1, "a", ["1", "1"]], [2, "b", ["2", "1"]], [3, "b", ["3", "1"]]],
        },
        "mark 0 sits on a node of component a",
    ),
}

# a well-formed document of each kind, and the command that reads it
_COMMANDS = {
    "weight": ["stability", "--config", "pn-config.json", "--weight"],
    "tree": ["tree", "check", "--tree"],
    "gk-family": ["tree", "reconstruct", "--family"],
    "hassett-family": ["tree", "reconstruct", "--family"],
    "lm-family": ["tree", "reconstruct", "--family"],
}

# a JSON string where the schema has an array, or a non-integer where it has
# an integer: unreadable input, exit 3 (each change is made to the document
# of its kind; the strings were read as arrays of their characters, n = 3.9
# as 3 and the label 0.5 as 0)
_BAD_TYPES = {
    "theta-string.json": ("weight", {"theta": "1"}),
    "eta-string.json": ("weight", {"eta": "00"}),
    "components-string.json": ("tree", {"components": "a"}),
    "label-half.json": ("tree", {"marks": [[0.5, "a", ["0", "1"]], *_TREE3["marks"][1:]]}),
    "a-string.json": ("hassett-family", {"a": "111"}),
    "n-float.json": ("gk-family", {"n": 3.9}),
    "charts-list.json": ("gk-family", {"charts": []}),
    # names are hashed: an array or object as a component name, an edge end
    # or a mark's component was an "unhashable type" traceback
    "component-array.json": ("tree", {"components": [["a"]]}),
    "edge-end-array.json": ("tree", {
        "components": ["a", "b"], "edges": [{"ends": [["a"], "b"], "nodes": [["0", "1"], ["0", "1"]]}],
    }),
    "mark-component-object.json": ("tree", {"marks": [[0, {"x": 1}, ["0", "1"]], *_TREE3["marks"][1:]]}),
}

# chart keys renamed to strings that int() reads but that are not ASCII
# digit labels: unreadable input, exit 3 (the first was read as the triple
# (0, 1, 20) and exited 5, the others were read as their plain form and
# exited 0)
_BAD_KEYS = {
    "key-underscore.json": ("gk-family", "0,1,2", "0,1,2_0"),
    "key-space.json": ("gk-family", "0,1,2", "0,1, 2"),
    "key-arabic-indic.json": ("gk-family", "0,1,2", "\u0660,1,2"),
    "lm-key-arabic-indic.json": ("lm-family", "1", "\u0661"),
}

_INPUT_NAMES = (
    "tree.json", "family.json", "chain.json", "weight.json", "bad.json", "empty.json",
    "list.json", "long.json", "untyped.json", "theta.json", "pn-config.json", "missing.json",
    *_BAD_FAMILIES, *_BAD_ETAS, *_BAD_CHAINS, *_BAD_TREES, *_BAD_TYPES, *_BAD_KEYS, *(f"{kind}-ok.json" for kind in _COMMANDS),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """Input files by name, well and badly formed; missing.json is absent."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    tree = random_gk_tree(random.Random(3), 5)
    texts = {
        "tree.json": serialize.dumps(serialize.tree_json(tree)),
        "family.json": serialize.dumps(serialize.family_json(moduli_coordinates(tree, GK))),
        "chain.json": serialize.dumps(serialize.chain_json(Chain((((0, affine(2)),), ((1, affine(5)),))))),
        "weight.json": serialize.dumps(serialize.weight_json(QnWeight((1, 1, 0)))),
        "bad.json": "{not json",
        "empty.json": "",
        "list.json": "[1, 2]",
        "long.json": '{"n": ' + "9" * 5000 + "}",
        "untyped.json": '{"type": "tree"}',
        "theta.json": json.dumps({"type": "weight", "mode": "qn", "theta": ["1/1"] * 4}),
        "pn-config.json": json.dumps({"type": "config", "mode": "pn", "sections": [["1", "1"]]}),
    }
    for name, (body, _, _) in _BAD_FAMILIES.items():
        texts[name] = json.dumps({"type": "family", **body})
    for name, eta in _BAD_ETAS.items():
        texts[name] = json.dumps({"type": "weight", "mode": "pn", "eta": eta, "theta": ["1"]})
    for name, (components, _) in _BAD_CHAINS.items():
        texts[name] = json.dumps({"type": "chain", "components": components})
    for name, (document, _) in _BAD_TREES.items():
        texts[name] = json.dumps(document)
    tree3 = serialize.parse_tree(_TREE3)
    documents = {
        "weight": {"type": "weight", "mode": "pn", "eta": ["-1/2", "-1/2"], "theta": ["1"]},
        "tree": _TREE3,
        "gk-family": serialize.family_json(moduli_coordinates(tree3, GK)),
        "hassett-family": serialize.family_json(moduli_coordinates(tree3, HASSETT, (1, 1, 1))),
        "lm-family": serialize.family_json(
            lm_moduli_coordinates(Chain((((0, affine(2)),), ((1, affine(5)),))))
        ),
    }
    for kind, document in documents.items():
        texts[f"{kind}-ok.json"] = json.dumps(document)
    for name, (kind, change) in _BAD_TYPES.items():
        texts[name] = json.dumps({**documents[kind], **change})
    for name, (kind, key, renamed) in _BAD_KEYS.items():
        charts = dict(documents[kind]["charts"])
        charts[renamed] = charts.pop(key)
        texts[name] = json.dumps({**documents[kind], "charts": charts})
    for name, text in texts.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in _INPUT_NAMES}


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_value = st.one_of(
    st.integers(-2, _TINY),
    st.integers(),
    st.sampled_from([10**40, "x", "3", None, True, 1.5, [], ["qn", 3, 2], {"4": 2}, {"2": 1}]),
    st.lists(st.integers(-1, _TINY), max_size=3),
    st.lists(st.sampled_from([["qn", 3, 2], ["qn", 4, 3], ["pn", 2, 2], ["pn", 0, 2], ["xn", 3, 1]]), max_size=2),
    st.dictionaries(st.sampled_from(["3", "4", "2", "x", "9" * 5000]), st.integers(-1, 3), max_size=2),
    _json,
)


@st.composite
def _near_bounds(draw, spec):
    """An object over a suite's bounds keys, each value well or badly formed,
    sometimes with a key left out or an unknown key added."""
    out = {}
    for key, sub in spec.items():
        if draw(st.integers(0, 9)) == 0:
            continue
        out[key] = draw(_near_bounds(sub)) if isinstance(sub, dict) else draw(_value)
    if draw(st.integers(0, 9)) == 0:
        out[draw(st.text(max_size=5))] = draw(_value)
    return out


@st.composite
def _verify_argv(draw):
    suite = draw(st.sampled_from(sorted(verify.SUITES) + ["all", "nope", ""]))
    spec = verify.BOUNDS.get(suite, {})
    bounds = draw(st.one_of(
        st.text(max_size=20),
        _json.map(json.dumps),
        _near_bounds(spec).map(json.dumps),
        _near_bounds(spec).map(lambda b: json.dumps({suite: b})),
    ))
    argv = ["verify", "--suite", suite, "--bounds", bounds]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["7", "-1", "x", "1" * 30]))]
    return argv


# pn 5 and 6 and qn 6 and 7 take seconds to minutes, so they are never drawn
_chambers_argv = st.builds(
    lambda mode, n, extra: ["chambers", "--mode", mode, "--n", n, *extra],
    st.sampled_from(["qn", "pn", "xn", ""]),
    st.sampled_from(["-3", "-1", "0", "1", "2", "3", "4", "5", "8", "13", "99999999999", "x", "1.5", ""]),
    st.lists(st.sampled_from(["--no-adjacency", "--format", "text", "yaml"]), max_size=3),
).filter(lambda argv: argv[2:5:2] != ["pn", "5"])

_tree_argv = st.builds(
    lambda sub, flags: ["tree", sub, *[part for flag in flags for part in flag]],
    st.sampled_from(["check", "contract", "coords", "reconstruct", "other"]),
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["--tree", "--chain", "--family"]), st.sampled_from(_INPUT_NAMES)),
            st.tuples(st.just("--keep"), st.sampled_from(["0,1,2", "0,0", "a,b", "", "7", "0,1,2,3,4"])),
            st.tuples(st.just("--hassett"), st.sampled_from(["1,1,1,1,1", "1/2,1/2,1/2,1/2,1/2", "x", "1/0", "1,1"])),
        ),
        max_size=3,
    ),
)

_stability_argv = st.builds(
    lambda config, weight, oracle: ["stability", "--config", config, "--weight", weight, *oracle],
    st.sampled_from(_INPUT_NAMES),
    st.sampled_from(_INPUT_NAMES),
    st.sampled_from([[], ["--oracle"]]),
)

_argv = st.one_of(
    _chambers_argv,
    _verify_argv(),
    _tree_argv,
    _stability_argv,
    st.lists(st.sampled_from(["chambers", "tree", "verify", "--mode", "qn", "--n", "-h", "x"]), max_size=4),
)


class _TooBig(Exception):
    """A suite run the fuzz test does not afford."""


def _is_tiny(spec: dict, bounds) -> bool:
    """Every key of the suite given, and no size or count above _TINY, so no
    default (full-size) bound comes into play."""

    def small(v) -> bool:
        if isinstance(v, bool) or v is None:
            return True
        if isinstance(v, int):
            return v <= _TINY
        if isinstance(v, (list, tuple)):
            return all(small(u) for u in v)
        if isinstance(v, dict):
            return all(small(verify._size_key(k)) and small(u) for k, u in v.items())
        return True

    return isinstance(bounds, dict) and all(
        key in bounds and (_is_tiny(sub, bounds[key]) if isinstance(sub, dict) else small(bounds[key]))
        for key, sub in spec.items()
    )


_run_suite = verify.run_suite


def _guarded_run_suite(name, seed=verify.DEFAULT_SEED, bounds=None):
    if not _is_tiny(verify.BOUNDS[name], bounds):
        raise _TooBig(name)
    return _run_suite(name, seed=seed, bounds=bounds)


def _run_with_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def _run(argv):
    code, _, err = _run_with_output(argv)
    return code, err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv)
@example(["tree", "coords", "--tree", "family.json"])  # was an AttributeError traceback
def test_cli_exits_with_a_documented_code(inputs, argv):
    argv = [inputs.get(arg, arg) for arg in argv]
    with mock.patch.object(verify, "run_suite", _guarded_run_suite):
        try:
            code, err = _run(argv)
        except _TooBig:
            reject()
    assert code in range(6), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("name", sorted(_BAD_FAMILIES))
def test_bad_families_exit_with_one_error_line(inputs, name):
    _, code, message = _BAD_FAMILIES[name]
    got, err = _run(["tree", "reconstruct", "--family", inputs[name]])
    lines = err.splitlines()
    assert got == code, err
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], err


@pytest.mark.parametrize("name", sorted(_BAD_ETAS))
def test_bad_etas_exit_3_with_one_error_line(inputs, name):
    got, err = _run(["stability", "--config", inputs["pn-config.json"], "--weight", inputs[name]])
    lines = err.splitlines()
    assert got == 3, err
    assert len(lines) == 1 and lines[0].startswith("error: ") and "bad weight" in lines[0], err


@pytest.mark.parametrize("subcommand", ["check", "coords"])
@pytest.mark.parametrize("name", sorted(_BAD_CHAINS))
def test_chains_that_do_not_validate_exit_4(inputs, name, subcommand):
    _, message = _BAD_CHAINS[name]
    assert _run(["tree", subcommand, "--chain", inputs[name]]) == (4, f"error: {message}\n")


@pytest.mark.parametrize("name", sorted(_BAD_TYPES))
def test_wrong_json_types_exit_3_with_one_error_line(inputs, name):
    kind, _ = _BAD_TYPES[name]
    command = [inputs.get(arg, arg) for arg in _COMMANDS[kind]]
    got, err = _run([*command, inputs[f"{kind}-ok.json"]])
    assert got == 0, err
    got, err = _run([*command, inputs[name]])
    lines = err.splitlines()
    assert got == 3, err
    assert len(lines) == 1 and lines[0].startswith("error: cannot parse "), err


@pytest.mark.parametrize("name", ["component-array.json", "edge-end-array.json", "mark-component-object.json"])
def test_array_and_object_names_exit_3_from_coords(inputs, name):
    # test_wrong_json_types_exit_3_with_one_error_line runs `tree check` on each
    code, err = _run(["tree", "coords", "--tree", inputs[name]])
    lines = err.splitlines()
    assert code == 3, err
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot parse {inputs[name]}: bad tree: name "), err


def test_numbers_stay_names(tmp_path):
    # names are refused as arrays or objects only: a component named 7 is read
    tree = {**_TREE3, "components": [7], "marks": [[lb, 7, p] for lb, _, p in _TREE3["marks"]]}
    (tmp_path / "t.json").write_text(json.dumps(tree))
    code, err = _run(["tree", "coords", "--tree", str(tmp_path / "t.json")])
    assert code == 0 and err == "", err
    assert _run(["tree", "check", "--tree", str(tmp_path / "t.json")]) == (0, "")


@pytest.mark.parametrize("name", sorted(_BAD_KEYS))
def test_chart_keys_other_than_ascii_digits_exit_3(inputs, name):
    kind, _, renamed = _BAD_KEYS[name]
    command = [inputs.get(arg, arg) for arg in _COMMANDS[kind]]
    got, err = _run([*command, inputs[f"{kind}-ok.json"]])
    assert got == 0, err
    got, err = _run([*command, inputs[name]])
    lines = err.splitlines()
    assert got == 3, err
    assert len(lines) == 1 and lines[0].startswith("error: cannot parse "), err
    assert repr(renamed) in lines[0], err


# documents the pinned commands below read, by file name
_PINNED_DOCUMENTS = {
    "qn3-config.json": {"type": "config", "mode": "qn", "sections": [["0", "1"], ["1", "0"], ["1", "1"]]},
    "qn4-weight.json": {"type": "weight", "mode": "qn", "theta": ["1", "1", "0", "0"]},
    "star40-config.json": serialize.config_json(QnConfig(tuple(affine(k) for k in range(40)))),
    "star40-weight.json": serialize.weight_json(QnWeight((F(1, 20),) * 40)),
    "tree.json": _TREE3,
    "labels-twice.json": {**_TREE3, "marks": [[0, "a", ["0", "1"]], [0, "a", ["1", "0"]], [2, "a", ["1", "1"]]]},
    "two-marks.json": {**_TREE3, "marks": _TREE3["marks"][:2]},
    "negative-weight.json": {"type": "family", **_BAD_FAMILIES["weights-negative.json"][0]},
    "type-array.json": {"type": ["tree"]},
    **{name: document for name, (document, _) in _BAD_TREES.items()},
}


# one input per command and error class, with the exact output that the
# exit-code table of cli.main keeps: (argv, QML_MAX_WORK or None, exit code,
# the one error line, where {dir} is the documents' directory)
@pytest.mark.parametrize("argv, cap, code, line", [
    (["chambers", "--mode", "qn", "--n", "2"], None, 4, "hypersimplex walls need n >= 3"),
    (["chambers", "--mode", "qn", "--n", "13"], None, 2, "wall enumeration capped at n <= 12"),
    (["chambers", "--mode", "qn", "--n", "3"], "x", 3, "QML_MAX_WORK must be an integer >= 1, got 'x'"),
    (["stability", "--config", "qn3-config.json", "--weight", "qn4-weight.json"], None, 4,
     "configuration and weight do not match"),
    (["stability", "--config", "star40-config.json", "--weight", "star40-weight.json"], None, 2,
     "a stability table of 2^40 subset sums exceeds QML_MAX_WORK (1000000)"),
    (["tree", "check", "--tree", "labels-twice.json"], None, 4, "mark labels must be distinct"),
    (["tree", "contract", "--tree", "labels-twice.json", "--keep", "0,1"], None, 4,
     "at least three marks must be kept"),
    (["tree", "coords", "--tree", "labels-twice.json"], None, 4, "chart families require mark labels 0..n-1"),
    (["tree", "contract", "--tree", "tree.json", "--keep", "0,1,5"], None, 4, "unknown mark labels"),
    (["tree", "coords", "--tree", "two-marks.json"], None, 4, "tree is not stable"),
    (["tree", "reconstruct", "--family", "negative-weight.json"], None, 5, "inconsistent family: weight-data"),
    # documents of another kind than the command reads, or of none
    (["stability", "--config", "tree.json", "--weight", "qn4-weight.json"], None, 4,
     "{dir}/tree.json is not a configuration"),
    (["tree", "check", "--tree", "qn3-config.json"], None, 4, "input is neither a tree nor a chain"),
    (["tree", "contract", "--tree", "negative-weight.json", "--keep", "0,1,2"], None, 4, "input is not a tree"),
    (["tree", "coords", "--chain", "qn4-weight.json"], None, 4, "input is neither a tree nor a chain"),
    (["tree", "reconstruct", "--family", "tree.json"], None, 4, "input is not a chart family"),
    (["tree", "check", "--tree", "type-array.json"], None, 3, "cannot parse {dir}/type-array.json: unknown type ['tree']"),
    # the tree is validated after the kept labels
    (["tree", "contract", "--tree", "mark-off-components.json", "--keep", "0,1,2"], None, 4,
     "mark on an undeclared component"),
    (["tree", "contract", "--tree", "components-unjoined.json", "--keep", "0,1,2"], None, 4,
     "edge count must be component count minus one"),
    (["tree", "check", "--tree", "mark-off-components.json"], None, 4, "mark on an undeclared component"),
    (["tree", "check", "--tree", "components-unjoined.json"], None, 4,
     "edge count must be component count minus one"),
    (["tree", "contract", "--tree", "mark-on-node.json", "--keep", "0,1,2"], None, 4,
     "mark 0 sits on a node of component a"),
])
def test_error_exits_are_pinned(tmp_path, monkeypatch, argv, cap, code, line):
    for name, document in _PINNED_DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(document))
    if cap is not None:
        monkeypatch.setenv("QML_MAX_WORK", cap)
    argv = [str(tmp_path / arg) if arg in _PINNED_DOCUMENTS else arg for arg in argv]
    assert _run_with_output(argv) == (code, "", f"error: {line.format(dir=tmp_path)}\n")


def test_the_work_bound_is_read_again_for_a_size_enumerated_before(monkeypatch):
    # chambers are enumerated afresh on every call, so a bound set after an
    # earlier enumeration of the same size in the process is still read
    assert _run_with_output(["chambers", "--mode", "qn", "--n", "3"])[0] == 0
    monkeypatch.setenv("QML_MAX_WORK", "x")
    assert _run_with_output(["chambers", "--mode", "qn", "--n", "3"]) == (
        3, "", "error: QML_MAX_WORK must be an integer >= 1, got 'x'\n"
    )


@pytest.mark.parametrize("error, code, line", [
    (TooLargeError("too large"), 2, "too large"),
    (SettingError("a setting"), 3, "a setting"),
    (serialize.ParseError("unreadable"), 3, "unreadable"),
    (InconsistentFamilyError("round-trip"), 5, "inconsistent family: round-trip"),
    (ValueError("invalid"), 4, "invalid"),
])
def test_main_maps_each_error_class_to_its_exit_code(monkeypatch, error, code, line):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(serialize, "chamber_complex_json", failing)
    assert _run_with_output(["chambers", "--mode", "qn", "--n", "3"]) == (code, "", f"error: {line}\n")


@pytest.mark.parametrize("error", [ValueError("a fault"), serialize.ParseError("a fault")])
def test_errors_escaping_a_suite_keep_their_traceback(monkeypatch, error):
    # verify feeds no user document to the library, so these are program
    # faults, not bad input that exits 3 or 4
    def broken(rep, seed, bounds):
        raise error

    monkeypatch.setitem(verify.SUITES, "five-term", broken)
    with pytest.raises(type(error), match="a fault"):
        cli.main(["verify", "--suite", "five-term"])


@pytest.mark.parametrize("argv, message", [
    (["chambers", "--n", "3"], "the following arguments are required: --mode"),
    (["chambers", "--mode", "xx", "--n", "3"], "argument --mode: invalid choice: 'xx'"),
    (["chambers", "--mode", "qn", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["tree", "check", "--hassett", "-1,1,1,1,1"], "argument --hassett: expected one argument"),
])
def test_usage_errors_exit_3_with_the_argparse_message(argv, message):
    # argparse's own code, 2, would read as an exceeded bound
    code, err = _run(argv)
    assert code == 3, err
    assert err.startswith("usage: qml") and message in err.splitlines()[-1], err


@pytest.mark.parametrize("argv", [["--help"], ["chambers", "--help"]])
def test_help_exits_0(argv):
    assert _run(argv)[0] == 0


def test_unwritable_out_exits_3_with_one_error_line(tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, err = _run(["chambers", "--mode", "qn", "--n", "3", "--out", str(target)])
    lines = err.splitlines()
    assert code == 3, err
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {target}: "), err


def _star_files(tmp_path, n: int) -> list[str]:
    """--config and --weight files of n distinct sections and the weight 2/n
    on each."""
    cfg = QnConfig(tuple(affine(k) for k in range(n)))
    weight = QnWeight((F(2, n),) * n)
    (tmp_path / "c.json").write_text(serialize.dumps(serialize.config_json(cfg)))
    (tmp_path / "w.json").write_text(serialize.dumps(serialize.weight_json(weight)))
    return ["--config", str(tmp_path / "c.json"), "--weight", str(tmp_path / "w.json")]


@pytest.mark.parametrize("n, cap", [(40, None), (7, "64")])
def test_stability_tables_over_the_work_bound_exit_2(tmp_path, monkeypatch, n, cap):
    # each table has 2^n entries; at n = 40 building one was a MemoryError
    if cap is not None:
        monkeypatch.setenv("QML_MAX_WORK", cap)
    configs._weight_tables.cache_clear()  # a table built earlier is not rebuilt
    table = "error: a stability table of 2^"
    for argv, head, tail in (
        (["stability", *_star_files(tmp_path, n)], table, ""),
        (["stability", *_star_files(tmp_path, n), "--oracle"], table, ""),
        # the suite refuses its set partitions before it builds a table
        (["verify", "--suite", "theta-polytope", "--bounds", json.dumps({"ns": [n]})], "error: ",
         f" set partitions of {n} marks exceed QML_MAX_WORK ({cap or 10**6})"),
    ):
        code, err = _run(argv)
        lines = err.splitlines()
        assert code == 2, (argv, err)
        assert len(lines) == 1 and lines[0].startswith(head) and lines[0].endswith(tail), err
    if cap is not None:
        # 2^6 entries fit a bound of 64
        assert _run(["stability", *_star_files(tmp_path, n - 1), "--oracle"])[0] == 0


def _qml(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "quivermoduli.cli", *argv], capture_output=True, text=True,
        env=env, timeout=20,
    )


@pytest.mark.parametrize("suite, bounds", [
    ("theta-polytope", {"ns": [13]}),
    ("chart-stability", {"max_n": 13}),
    ("roundtrip-lm", {"exhaustive_n": [9]}),
    ("chambers-vs-grid", {"plans": [["qn", 4, 3000]]}),
    ("chambers-vs-grid", {"plans": [["qn", 7, 2]]}),
    # 660032 split systems or 545835 chain shapes fit, the instances drawn
    # per shape do not
    ("roundtrip-gk", {"exhaustive_n": [9]}),
    ("covering", {"corpus": {"exhaustive_n": [9]}}),
    ("roundtrip-lm", {"exhaustive_n": [8]}),
    ("hassett-special", {"ns": [9]}),
    # counts too large to compute, or a grid count too long to print: each
    # count stops once a partial count passes the bound
    ("roundtrip-gk", {"exhaustive_n": [3000]}),
    ("theta-polytope", {"ns": [100000]}),
    ("roundtrip-lm", {"exhaustive_n": [100000]}),
    ("chart-stability", {"max_n": 5000}),
    ("chambers-vs-grid", {"plans": [["qn", 100000, 3]]}),
    ("hassett-special", {"ns": [3000]}),
    # 3^(10^8) would take minutes to compute, and so would ten million
    # capped counts
    ("chambers-vs-grid", {"plans": [["qn", 10**8 + 1, 4]]}),
    ("chart-stability", {"max_n": 10**7}),
    # a random tree draws from the list of every split of its marks,
    # 2^(n-1) - n - 1 of them, which is counted before it is built
    ("roundtrip-gk", {"exhaustive_n": [], "random": {"24": 1}}),
    ("roundtrip-gk", {"exhaustive_n": [], "random": {"30": 1}}),
    ("roundtrip-hassett", {"ns": [30], "weights_per_n": 1, "trees_per_weight": 1}),
    ("roundtrip-gk", {"exhaustive_n": [], "random": {str(10**9): 1}}),
])
def test_suite_catalogues_over_the_work_bound_exit_2(suite, bounds):
    # millions of partitions or chain shapes, or billions of grid candidates
    # or chamber pairs: each run went on past any timeout
    r = _qml("verify", "--suite", suite, "--bounds", json.dumps(bounds))
    lines = r.stderr.splitlines()
    assert r.returncode == 2 and r.stdout == "", r.stderr
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert lines[0].endswith(" exceed QML_MAX_WORK (1000000)"), r.stderr
    # a count is printed in digits only below 2^64 times the bound
    count = lines[0].split()[1]
    assert count == "more" or int(count) < 10**6 << 64, r.stderr


def test_default_suite_follows_the_work_bound():
    # the default chambers-vs-grid walks 14641 grid candidates at qn 5
    r = _qml("verify", "--suite", "chambers-vs-grid", env=dict(os.environ, QML_MAX_WORK="1000"))
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: 14641 grid candidates of plan ['qn', 5, 12] exceed QML_MAX_WORK (1000)\n"
    r = _qml("verify", "--suite", "chambers-vs-grid", env=dict(os.environ, QML_MAX_WORK=str(10**6)))
    assert r.returncode == 0 and r.stderr == "", r.stderr


def test_trees_per_shape_follow_the_work_bound():
    # 236 split systems on 6 marks fit a bound of 1000, 200 trees of each do not
    bounds = json.dumps({"roundtrip-gk": {"exhaustive_n": [6], "random": {}}})
    r = _qml("verify", "--suite", "roundtrip-gk", "--bounds", bounds, env=dict(os.environ, QML_MAX_WORK="1000"))
    assert r.returncode == 2 and r.stdout == "", r.stderr
    assert r.stderr == "error: 47200 trees (200 per split system on [6] marks) exceed QML_MAX_WORK (1000)\n"
