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


def test_stability_kernels_read_neither_each_other_nor_the_partition():
    # the fast rule and the subrepresentation oracle are checked against
    # each other, so neither may reach the other, the coincidence partition
    # or the polytope built on it, and the only function of `configs` that
    # both reach is the weight table; reads are followed through the
    # module's own functions
    module = ast.parse((Path(quivermoduli.__file__).parent / "configs.py").read_text())
    functions = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}

    def reached(name: str) -> set[str]:
        seen, todo = set(), [name]
        while todo:
            for sub in ast.walk(functions[todo.pop()]):
                if isinstance(sub, ast.Name) and sub.id in functions and sub.id not in seen:
                    seen.add(sub.id)
                    todo.append(sub.id)
        return seen - {name}

    fast, oracle = reached("is_semistable"), reached("brute_force_semistable")
    assert "brute_force_semistable" not in fast and "is_semistable" not in oracle
    assert (fast | oracle) & {"coincidence_partition", "theta_polytope"} == set()
    assert fast & oracle == {"_weight_tables"}


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
