"""Checks on the library source itself."""
import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import quivermoduli
from quivermoduli.projline import INF_POINT, Moebius, ProjPoint

_REPO = Path(__file__).resolve().parent.parent

# Public names that nothing in src/ or qmlbench/ reads, kept for library
# users, each with the reason it stays.
_KEPT_FOR_USERS = {
    "config_json": "writes the input of `qml stability --config`",
    "weight_json": "writes the input of `qml stability --weight`",
    "moebius_json": "the encoding the sha256-pinned glued-fiber test hashes",
    "contract_to_chart": "the chart of one triple on trees with any mark labels",
    "simplex_maximize": "traced by the benchmark (qmlbench/tracing.py TRACED)",
    "moebius_from_triple": "traced by the benchmark (qmlbench/tracing.py TRACED)",
    "cross_ratio": "traced by the benchmark (qmlbench/tracing.py TRACED)",
    "cross_ratio_invariant": "traced by the benchmark (qmlbench/tracing.py TRACED)",
}


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants raise typed errors
    found = []
    for path in sorted(Path(quivermoduli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_maps_errors_to_exit_codes_in_main_only():
    # a handler elsewhere in cli.py only re-raises as CliError, adding the
    # path, flag or bounds text; main alone picks exit codes by its table
    module = ast.parse((Path(quivermoduli.__file__).parent / "cli.py").read_text())
    main = next(node for node in module.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)}
    others = [node for node in ast.walk(module) if isinstance(node, ast.ExceptHandler) and id(node) not in in_main]
    assert in_main and others

    def raises_cli_error(handler) -> bool:
        return any(
            isinstance(s, ast.Raise) and isinstance(s.exc, ast.Call) and getattr(s.exc.func, "id", None) == "CliError"
            for s in handler.body
        )

    def names(handler) -> set[str]:
        return {node.id for node in ast.walk(handler.type or ast.Pass()) if isinstance(node, ast.Name)}

    assert [h.lineno for h in others if not raises_cli_error(h)] == []
    policy = {"TooLargeError", "SettingError", "InconsistentFamilyError"}
    assert [h.lineno for h in others if names(h) & policy] == []


def _reached(defs: dict, name: str) -> set[str]:
    """The names of `defs` (a module's top-level definitions by name) that
    the definition `name` reads, followed through the definitions it
    reads."""
    seen, todo = set(), [name]
    while todo:
        for sub in ast.walk(defs[todo.pop()]):
            if isinstance(sub, ast.Name) and sub.id in defs and sub.id not in seen:
                seen.add(sub.id)
                todo.append(sub.id)
    return seen - {name}


def test_stability_kernels_read_neither_each_other_nor_the_partition():
    # the fast rule and the subrepresentation oracle are checked against
    # each other, so neither may reach the other, the coincidence partition
    # (`QnConfig.first`, its blocks and the normal form that reads it) or the
    # polytope built on it, and the only function of `configs` that both
    # reach is the weight table; reads are followed through the module's own
    # functions
    module = ast.parse((Path(quivermoduli.__file__).parent / "configs.py").read_text())
    functions = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    fast, oracle = _reached(functions, "is_semistable"), _reached(functions, "brute_force_semistable")
    assert "brute_force_semistable" not in fast and "is_semistable" not in oracle
    assert (fast | oracle) & {"_blocks", "theta_polytope"} == set()
    assert fast & oracle == {"_weight_tables"}
    attributes = {
        sub.attr
        for name in fast | oracle | {"is_semistable", "brute_force_semistable"}
        for sub in ast.walk(functions[name])
        if isinstance(sub, ast.Attribute)
    }
    assert attributes & {"first", "_first", "normal_form", "_normal_form", "star", "_star"} == set()
    # the names checked above exist, so the check is not vacuous
    assert {"_blocks", "theta_polytope"} <= functions.keys()
    assert {"first", "_first", "normal_form", "star", "_star"} <= {
        sub.attr for sub in ast.walk(module) if isinstance(sub, ast.Attribute)
    }


def test_cover_check_seeds_its_walk_without_lps():
    # the chamber walk and cover_check start from g of `_space` or from the
    # closed-form `_cover_seed`, never from the LP search of `_generic_seed`,
    # which only `wall_relative_interior_point` keeps; reads are followed
    # through the functions, classes and assigned names of `chambers`
    module = ast.parse((Path(quivermoduli.__file__).parent / "chambers.py").read_text())
    defs = {node.name: node for node in module.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defs.update(
        (target.id, node) for node in module.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    )
    cover, walk = _reached(defs, "cover_check"), _reached(defs, "enumerate_chambers")
    assert "_generic_seed" not in cover
    assert "_generic_seed" not in walk
    assert "_generic_seed" in _reached(defs, "wall_relative_interior_point")
    assert {"_cover_seed", "_space", "_Space", "_Arrangement", "_enumerate_regions"} <= cover
    assert {"_arrangement", "_space", "_Space", "_Arrangement", "_enumerate_regions"} <= walk


def _ihom_keyed_dicts(path: Path) -> set[str]:
    """The functions of a module (as `Class.method` for methods) that key a
    dict by a section's integer pair: `.setdefault(x.ihom, ...)`,
    `.get(x.ihom, ...)` or `[x.ihom]`."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        key = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            if node.func.attr in ("setdefault", "get"):
                key = node.args[0]
        elif isinstance(node, ast.Subscript):
            key = node.slice
        if isinstance(key, ast.Attribute) and key.attr == "ihom":
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_one_coincidence_partition_builder():
    # sections are grouped by their integer pairs in one place, the
    # coincidence partition `QnConfig.first`; every other reader of the
    # partition reads it, and the two stability kernels keep their own
    # grouping because they are checked against each other
    package = Path(quivermoduli.__file__).parent
    found = {f"{name}:{scope}" for name in ("configs", "curves") for scope in _ihom_keyed_dicts(package / f"{name}.py")}
    assert found == {"configs:QnConfig.first", "configs:is_semistable", "configs:brute_force_semistable"}


def _anchor_readers(source: str) -> set[str]:
    """The functions of a module (as `Class.method` for methods) that
    compare with an anchor or call `_det_row` on one.  An anchor is
    ZERO_POINT or INF_POINT, its `.ihom`, or the literal pair (0, 1) or
    (1, 0)."""
    found = set()

    def anchor(node) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "ihom":
            node = node.value
        if isinstance(node, ast.Name):
            return node.id in ("ZERO_POINT", "INF_POINT")
        return isinstance(node, ast.Tuple) and [getattr(e, "value", None) for e in node.elts] in ([0, 1], [1, 0])

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare):
            hit = any(anchor(x) for x in [node.left, *node.comparators])
        else:
            hit = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_det_row" and anchor(node.args[0])
        if hit:
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_double_star_anchors_are_read_through_the_star():
    # a double-star configuration reads its anchor classes, rows and normal
    # form off `PnConfig.star`; only the two stability kernels, checked
    # against each other, test the anchors themselves
    found = _anchor_readers((Path(quivermoduli.__file__).parent / "configs.py").read_text())
    assert found == {"is_semistable"}
    # the anchor tests the star replaced are found, so the check is not
    # vacuous
    old = (
        "def rows(pts):\n    return _det_row(ZERO_POINT.ihom, pts), _det_row(INF_POINT.ihom, pts)\n"
        "def scan(pts):\n    return [k for k, p in enumerate(pts) if p == INF_POINT.ihom]\n"
    )
    assert _anchor_readers(old) == {"rows", "scan"}


def test_glue_fiber_reads_no_normal_form():
    # the row step that glue_fiber shares with check_limit_equations may
    # answer from the Moebius normal form, but glue_fiber and every other
    # function of `configs` it reaches read no normal form: its check of the
    # connecting map against every section stays an independent oracle of
    # the form
    module = ast.parse((Path(quivermoduli.__file__).parent / "configs.py").read_text())
    functions = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    form = {"normal_form", "_normal_form", "moebius_equivalent"}

    def names(name: str) -> set[str]:
        return {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(functions[name])
            if isinstance(sub, (ast.Name, ast.Attribute))
        }

    seen, todo = {"glue_fiber"}, ["glue_fiber"]
    while todo:
        for sub in names(todo.pop()) & (functions.keys() - seen - {"_agreeing_rows"}):
            seen.add(sub)
            todo.append(sub)
    assert "_agreeing_rows" in names("glue_fiber")
    assert {name: sorted(names(name) & form) for name in sorted(seen) if names(name) & form} == {}
    # the form is read where it is meant to be, so the check above is not
    # vacuous
    assert names("_agreeing_rows") & form and names("moebius_equivalent") & form


def _stored_values(obj):
    names = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    return [getattr(obj, name) for name in names] + list(getattr(obj, "__dict__", {}).values())


def test_projline_keeps_the_benchmark_tracer_hooks():
    # qmlbench/tracing.py counts points by replacing ProjPoint.__post_init__
    # with a one-argument function and wraps the Moebius methods in the
    # class __dict__
    assert "__post_init__" in ProjPoint.__dict__
    for name in ("apply", "compose", "inverse"):
        assert isinstance(Moebius.__dict__.get(name), types.FunctionType), name
    orig = ProjPoint.__dict__["__post_init__"]
    made = []

    def counting(obj):
        made.append(1)
        orig(obj)

    ProjPoint.__post_init__ = counting
    try:
        p = Moebius(1, 2, 3, 4).apply(ProjPoint(F(1, 2), 3))
    finally:
        ProjPoint.__post_init__ = orig
    assert len(made) == 2 and p == ProjPoint(13, 27)


def test_projline_stores_integers_only():
    for value in (ProjPoint(F(2, 3), F(-5, 7)), INF_POINT, Moebius(F(1, 2), 3, F(-4, 5), 6)):
        stored = _stored_values(value)
        assert stored, value
        for v in stored:
            assert type(v) is tuple and all(type(x) is int for x in v), (value, v)


def _modules_loaded_by(module: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter imports `module`."""
    src = str(Path(quivermoduli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


def test_package_import_loads_no_submodule():
    # the package re-exports nothing; library code imports from submodules
    loaded = _modules_loaded_by("quivermoduli")
    assert sorted(name for name in loaded if name.startswith("quivermoduli.")) == []


def test_cli_import_loads_the_traced_modules_only():
    # qmlbench/tracing.py looks these six modules up in sys.modules inside a
    # `qml` child; verify (and generate, which only verify needs) load only
    # for `qml verify`
    loaded = _modules_loaded_by("quivermoduli.cli")
    for name in ("projline", "curves", "configs", "lp", "chambers", "serialize"):
        assert f"quivermoduli.{name}" in loaded, name
    assert "quivermoduli.verify" not in loaded
    assert "quivermoduli.generate" not in loaded
    # the value classes are built on projline._Frozen; `dataclasses` (which
    # imports `inspect`) cost each `qml` process about 11 ms at start-up
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_benchmark_traced_names_resolve():
    # qmlbench/tracing.py wraps each (module, attribute) of TRACED; a name
    # deleted from the package would break a traced benchmark run
    path = _REPO / "qmlbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("qmlbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, attr in tracing.TRACED:
        obj = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), (module, attr)
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_public_name_has_a_use():
    # a public top-level name of the package that no code in src/ or
    # qmlbench/ reads, outside its own definition, is dead unless it is kept
    # for library users; tests do not count as uses
    package = Path(quivermoduli.__file__).parent
    defined, used = {}, set()
    for path in sorted(package.glob("*.py")) + sorted((_REPO / "qmlbench").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            names = _defined_names(node)
            if path.parent == package:
                defined.update((name, path.name) for name in names if not name.startswith("_"))
            reads = {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) or isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            used |= reads - set(names)
    unused = {name: module for name, module in defined.items() if name not in used}
    assert {k: v for k, v in unused.items() if k not in _KEPT_FOR_USERS} == {}
    # an entry whose name is now used, or gone, leaves the list
    assert sorted(_KEPT_FOR_USERS.keys() - unused.keys()) == []
