"""JSON encoding and decoding for every public value, schema quiver-moduli/1.

Rationals serialize as "num/den" strings, projective points as two-element
arrays of such strings, zero sections as the string "zero".  Emission is
deterministic: dict keys are sorted and all collections are in canonical
order, so identical inputs give byte-identical output.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Any

from . import chambers, configs, curves
from .projline import Moebius, ProjPoint, Section

SCHEMA = "quiver-moduli/1"


class ParseError(ValueError):
    pass


def _array(v, what: str):
    """v, when it is a JSON array (a JSON string is not one)."""
    if not isinstance(v, (list, tuple)):
        raise ParseError(f"bad {what}: expected an array, got {v!r}")
    return v


def _integer(v, what: str) -> int:
    """v, when it is a JSON integer (true and false are not)."""
    if type(v) is not int:
        raise ParseError(f"bad {what}: expected an integer, got {v!r}")
    return v


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}")


def point_json(p: ProjPoint) -> list[str]:
    return [frac_str(p.c0), frac_str(p.c1)]


def parse_point(v) -> ProjPoint:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ParseError(f"bad point {v!r}")
    return ProjPoint(parse_frac(v[0]), parse_frac(v[1]))


def section_json(s: Section):
    return "zero" if s is None else point_json(s)


def parse_section(v) -> Section:
    if v == "zero":
        return None
    return parse_point(v)


def moebius_json(m: Moebius) -> list[list[str]]:
    return [[frac_str(m.m00), frac_str(m.m01)], [frac_str(m.m10), frac_str(m.m11)]]


def config_json(c: configs.Config) -> dict:
    mode = "qn" if isinstance(c, configs.QnConfig) else "pn"
    return {
        "schema": SCHEMA,
        "type": "config",
        "mode": mode,
        "sections": [section_json(s) for s in c.sections],
    }


def parse_config(d) -> configs.Config:
    try:
        mode = d["mode"]
        secs = tuple(parse_section(v) for v in _array(d["sections"], "configuration sections"))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad configuration: {exc}")
    if mode == "qn":
        return configs.QnConfig(secs)
    if mode == "pn":
        return configs.PnConfig(secs)
    raise ParseError(f"unknown mode {mode!r}")


def weight_json(w) -> dict:
    if isinstance(w, chambers.QnWeight):
        return {
            "schema": SCHEMA,
            "type": "weight",
            "mode": "qn",
            "theta": [frac_str(v) for v in w.theta],
        }
    return {
        "schema": SCHEMA,
        "type": "weight",
        "mode": "pn",
        "eta": [frac_str(w.eta1), frac_str(w.eta2)],
        "theta": [frac_str(v) for v in w.theta],
    }


def parse_weight(d):
    try:
        mode = d["mode"]
        theta = tuple(parse_frac(v) for v in _array(d["theta"], "weight theta"))
        if mode == "qn":
            return chambers.QnWeight(theta)
        if mode == "pn":
            eta = tuple(parse_frac(v) for v in _array(d["eta"], "weight eta"))
            if len(eta) != 2:
                raise ParseError(f"bad weight: eta must be a pair, got {d['eta']!r}")
            return chambers.PnWeight(*eta, theta)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad weight: {exc}")
    raise ParseError(f"unknown mode {mode!r}")


def wall_json(w) -> list[int]:
    return list(w.j)


def verdict_json(v: configs.Verdict) -> dict:
    witness: Any = None
    if isinstance(v.witness, frozenset):
        witness = sorted(v.witness)
    elif isinstance(v.witness, tuple):
        witness = [
            sorted(x) if isinstance(x, frozenset) else x for x in v.witness
        ]
    return {"verdict": v.kind, "witness": witness}


def _rational_text(num: int, den: int) -> str:
    """The JSON string of num / den as `frac_str` writes it (den > 0)."""
    g = gcd(num, den)
    return f'"{num // g}/{den // g}"'


_SIGN_TEXT = str.maketrans("01", "-+")


def chamber_complex_json(mode: str, n: int, with_adjacency: bool = True) -> str:
    """The chamber complex as compact JSON text: `dumps` of {schema, type,
    mode, n, walls, chambers, and adjacency unless left out}, each chamber
    {signs, witness} with its signs as a string of + and - and its witness
    as `weight_json` writes it.

    The text is built from each chamber's mask and integer witness
    (`chambers.Chamber`), with no sign tuple and no weight: the weight
    checks run on the integers, and each distinct coordinate (den, num) is
    written once."""
    walls = chambers.enumerate_walls(mode, n)
    chs = chambers.enumerate_chambers(mode, n)
    m = len(walls)
    texts = chambers.RationalTable(_rational_text)
    close = '],"type":"weight"}'
    if mode == "qn":
        open_theta = '{"mode":"qn","schema":"' + SCHEMA + '","theta":['

        def weight(den, nums):
            chambers._check_qn(den, nums)
            return open_theta + ",".join(map(texts[den].__getitem__, nums)) + close
    else:
        open_theta = '],"mode":"pn","schema":"' + SCHEMA + '","theta":['

        def weight(den, nums):
            h1, h2, *theta = nums
            chambers._check_pn(den, -h1, -h2, den, theta)
            text = texts[den]
            return f'{{"eta":[{text[-h1]},{text[-h2]}{open_theta}{",".join(map(text.__getitem__, theta))}{close}'
    items = [
        f'{{"signs":"{chambers._code(c.mask, m).translate(_SIGN_TEXT)}","witness":{weight(*c.point)}}}'
        for c in chs
    ]
    adjacency = ""
    if with_adjacency:
        adjacency = f'"adjacency":{json.dumps(chambers.chamber_adjacency(mode, n, chs), separators=(",", ":"))},'
    # the other keys sort after "adjacency" and "chambers", so `dumps` of
    # them, its opening brace dropped, ends the text
    rest = {"mode": mode, "n": n, "schema": SCHEMA, "type": "chamber-complex", "walls": [wall_json(w) for w in walls]}
    return f'{{{adjacency}"chambers":[{",".join(items)}],{dumps(rest)[1:]}'


def tree_json(t: curves.PointedTree) -> dict:
    return {
        "schema": SCHEMA,
        "type": "tree",
        "components": list(t.components),
        "edges": [
            {"ends": list(e.ends), "nodes": [point_json(e.nodes[0]), point_json(e.nodes[1])]}
            for e in t.edges
        ],
        "marks": [[lb, comp, point_json(p)] for lb, comp, p in t.marks],
    }


def parse_tree(d) -> curves.PointedTree:
    try:
        comps = tuple(_array(d["components"], "tree components"))
        edges = []
        for e in _array(d["edges"], "tree edges"):
            ends, nodes = _array(e["ends"], "edge ends"), _array(e["nodes"], "edge nodes")
            edges.append(curves.TreeEdge((ends[0], ends[1]), (parse_point(nodes[0]), parse_point(nodes[1]))))
        marks = []
        for m in _array(d["marks"], "tree marks"):
            lb, comp, p = _array(m, "mark")
            marks.append((_integer(lb, "mark label"), comp, parse_point(p)))
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"bad tree: {exc}")
    # names are hashed: strings and numbers are names, arrays and objects not
    for name in (*comps, *(end for e in edges for end in e.ends), *(m[1] for m in marks)):
        if isinstance(name, (list, dict)):
            raise ParseError(f"bad tree: name {name!r} is an array or an object")
    return curves.PointedTree(comps, tuple(edges), tuple(marks))


def chain_json(c: curves.Chain) -> dict:
    return {
        "schema": SCHEMA,
        "type": "chain",
        "components": [
            [[lb, point_json(p)] for lb, p in comp] for comp in c.components
        ],
    }


def parse_chain(d) -> curves.Chain:
    try:
        comps = []
        for comp in _array(d["components"], "chain components"):
            marks = []
            for m in _array(comp, "chain component"):
                lb, p = _array(m, "mark")
                marks.append((_integer(lb, "mark label"), parse_point(p)))
            comps.append(tuple(marks))
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"bad chain: {exc}")
    return curves.Chain(tuple(comps))


def family_json(f: curves.LimitFamily) -> dict:
    charts = {}
    for label, row in f.charts.items():
        key = str(label) if isinstance(label, int) else ",".join(str(i) for i in label)
        charts[key] = [point_json(p) for p in row]
    return {
        "schema": SCHEMA,
        "type": "family",
        "mode": f.mode,
        "n": f.n,
        "a": None if f.a is None else [frac_str(v) for v in f.a],
        "charts": charts,
    }


def _key_label(part: str, key: str) -> int:
    """One mark label of a chart key: ASCII digits only (int() would also
    read signs, spaces, underscores and the digits of other scripts)."""
    if not (part.isascii() and part.isdigit()):
        raise ParseError(f"chart key {key!r} is not comma-separated labels")
    return int(part)


def parse_family(d) -> curves.LimitFamily:
    try:
        mode = d["mode"]
        n = _integer(d["n"], "n")
        a = None if d.get("a") is None else tuple(parse_frac(v) for v in _array(d["a"], "a"))
        if not isinstance(d["charts"], dict):
            raise ParseError(f"bad charts: expected an object, got {d['charts']!r}")
        charts = {}
        for key, row in d["charts"].items():
            pts = tuple(parse_point(p) for p in _array(row, "chart row"))
            labels = tuple(_key_label(part, key) for part in key.split(","))
            if mode == "lm":
                if len(labels) != 1:
                    raise ParseError(f"chart key {key!r} is not one label")
                charts[labels[0]] = pts
            else:
                charts[labels] = pts
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad family: {exc}")
    return curves.LimitFamily(mode, n, charts, a)


_PARSERS = {"config": parse_config, "weight": parse_weight, "tree": parse_tree, "chain": parse_chain,
            "family": parse_family}


def parse_any(d):
    if not isinstance(d, dict) or "type" not in d:
        raise ParseError("expected an object with a 'type' field")
    parse = _PARSERS.get(d["type"]) if isinstance(d["type"], str) else None
    if parse is None:
        raise ParseError(f"unknown type {d['type']!r}")
    return parse(d)


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ParseError(str(exc))
