"""Command-line surface: chamber complexes, stability verdicts, tree and
chain operations, and the verification suites, all speaking JSON.

Exit codes: 0 success, 1 a verification suite failed, 2 an enumeration
bound was exceeded, 3 unreadable input, a usage error or an output file
that cannot be written, 4 an input violates a type invariant, 5 a chart
family fails the functor conditions.

Commands let errors escape, and `main` alone turns one into an exit code
and one `error:` line, by the table `_EXITS`.  The few handlers elsewhere
re-raise as `CliError` to name the path, flag or bounds text at fault.
`verify` feeds no user document to the library, so a `ValueError` escaping
a suite is a program fault and keeps its traceback.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import configs, curves, serialize
from .chambers import SettingError, TooLargeError
from .curves import InconsistentFamilyError
from .serialize import ParseError

EXIT_FAIL = 1
EXIT_TOO_LARGE = 2
EXIT_PARSE = 3
EXIT_INVARIANT = 4
EXIT_INCONSISTENT = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# main's exit code for an error escaping a command: that of the first row
# whose class it is an instance of, a CliError carrying its own; only the
# first _VERIFY_ROWS rows hold for `verify`
_EXITS = (
    (CliError, None),
    (TooLargeError, EXIT_TOO_LARGE),
    (SettingError, EXIT_PARSE),
    (ParseError, EXIT_PARSE),
    (InconsistentFamilyError, EXIT_INCONSISTENT),
    (ValueError, EXIT_INVARIANT),
)
_VERIFY_ROWS = 3


def _emit(args, payload) -> None:
    """Write a payload dict, or compact JSON text as `serialize.dumps` gives it."""
    if args.format == "text":
        if isinstance(payload, str):
            payload = json.loads(payload)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = payload if isinstance(payload, str) else serialize.dumps(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)


# what a command that reads documents of `kinds` says of one of another kind
_NOT_OF_KIND = {
    (configs.QnConfig, configs.PnConfig): "{path} is not a configuration",
    (curves.PointedTree,): "input is not a tree",
    (curves.Chain, curves.PointedTree): "input is neither a tree nor a chain",
    (curves.LimitFamily,): "input is not a chart family",
}


def _load(path: str, *kinds):
    """The document at `path`; given `kinds`, one of those or exit 4."""
    try:
        with open(path) as fh:
            raw = serialize.loads(fh.read())
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {path}: {exc}")
    try:
        obj = serialize.parse_any(raw)
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {path}: {exc}")
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_INVARIANT, f"{path}: {exc}")
    if kinds and not isinstance(obj, kinds):
        raise CliError(EXIT_INVARIANT, _NOT_OF_KIND[kinds].format(path=path))
    return obj


def _parse_hassett(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(EXIT_PARSE, f"bad weight list {text!r}: {exc}")


def cmd_chambers(args) -> int:
    _emit(args, serialize.chamber_complex_json(args.mode, args.n, with_adjacency=not args.no_adjacency))
    return 0


def cmd_stability(args) -> int:
    cfg = _load(args.config, configs.QnConfig, configs.PnConfig)
    weight = _load(args.weight)
    verdict = configs.is_semistable(cfg, weight)
    payload = serialize.verdict_json(verdict)
    payload["schema"] = serialize.SCHEMA
    if args.oracle:
        oracle = configs.brute_force_semistable(cfg, weight)
        payload["oracle"] = serialize.verdict_json(oracle)
        payload["agreement"] = oracle.kind == verdict.kind
    _emit(args, payload)
    return 0


def _needed(args, *flags: str) -> str:
    """The value of the first of `flags` that was given; exit 3 naming the
    flags when none was."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-"))
        if value:
            return value
    raise CliError(EXIT_PARSE, f"tree {args.subcommand} needs {' or '.join(flags)}")


def _tree_check(args) -> dict:
    obj = _load(_needed(args, "--tree", "--chain"), curves.Chain, curves.PointedTree)
    if isinstance(obj, curves.Chain):
        stable, mode = curves.is_lm_stable(obj), "lm"
    elif args.hassett:
        stable, mode = curves.is_a_stable(obj, _parse_hassett(args.hassett)), "hassett"
    else:
        stable, mode = curves.is_gk_stable(obj), "gk"
    return {"stable": stable, "mode": mode, "schema": serialize.SCHEMA}


def _tree_contract(args) -> dict:
    tree = _load(_needed(args, "--tree"), curves.PointedTree)
    keep_text = _needed(args, "--keep")
    try:
        keep = [int(x) for x in keep_text.split(",")]
    except ValueError:
        raise CliError(EXIT_PARSE, f"bad mark list {keep_text!r}")
    return serialize.tree_json(curves.contract_gamma(tree, keep))


def _tree_coords(args) -> dict:
    obj = _load(_needed(args, "--tree", "--chain"), curves.Chain, curves.PointedTree)
    if isinstance(obj, curves.Chain):
        fam = curves.lm_moduli_coordinates(obj)
    elif args.hassett:
        fam = curves.moduli_coordinates(obj, curves.HASSETT, _parse_hassett(args.hassett))
    else:
        fam = curves.moduli_coordinates(obj, curves.GK)
    return serialize.family_json(fam)


def _tree_reconstruct(args) -> dict:
    obj = curves.reconstruct_tree(_load(_needed(args, "--family"), curves.LimitFamily))
    payload = serialize.chain_json(obj) if isinstance(obj, curves.Chain) else serialize.tree_json(obj)
    # reconstruct_tree raises "round-trip" unless obj's charts, compared
    # on integers without building them, are the family
    payload["round_trip"] = True
    return payload


_TREE_COMMANDS = {"check": _tree_check, "contract": _tree_contract, "coords": _tree_coords,
                  "reconstruct": _tree_reconstruct}


def cmd_tree(args) -> int:
    _emit(args, _TREE_COMMANDS[args.subcommand](args))
    return 0


def cmd_verify(args) -> int:
    # only this command needs the suites and the generators they load
    from . import verify

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    bounds = {}
    if args.bounds:
        try:
            bounds = json.loads(args.bounds)
        except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
            raise CliError(EXIT_PARSE, f"bad bounds JSON: {exc}")
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    if any(name not in verify.SUITES for name in names):
        raise CliError(EXIT_PARSE, f"unknown suite {args.suite!r}; choose from {sorted(verify.SUITES)}")
    if args.suite != "all" and isinstance(bounds, dict):
        # a single suite takes its bounds flat or under its own name
        bounds = {args.suite: bounds.get(args.suite, bounds)}
    try:
        verify.check_bounds(bounds)
    except verify.BoundsError as exc:
        raise CliError(EXIT_PARSE, f"bad bounds: {exc}")
    reports = [verify.run_suite(name, seed=seed, bounds=bounds.get(name, {})) for name in names]
    payload = {
        "schema": serialize.SCHEMA,
        "type": "verification-report",
        "seed": seed,
        "reports": [
            {
                "suite": r["suite"],
                "passed": r["passed"],
                "checks": r["checks"],
                "counterexample": None
                if r["counterexample"] is None
                else json.loads(json.dumps(r["counterexample"], default=str)),
            }
            for r in reports
        ],
    }
    _emit(args, payload)
    return 0 if all(r["passed"] for r in reports) else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 3, since 2 means an exceeded bound;
    the subcommand parsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qml",
        description="Exact quiver stability, wall-and-chamber decompositions, and pointed-curve moduli.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chambers", help="enumerate walls and chambers", parents=[common])
    p.add_argument("--mode", choices=("qn", "pn"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-adjacency", action="store_true")
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("stability", help="stability verdict for a configuration", parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--oracle", action="store_true", help="also run the subrepresentation oracle")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("tree", help="pointed tree and chain operations", parents=[common])
    p.add_argument("subcommand", choices=tuple(_TREE_COMMANDS))
    p.add_argument("--tree")
    p.add_argument("--chain")
    p.add_argument("--family")
    p.add_argument("--keep", help="comma-separated mark labels for contract")
    p.add_argument("--hassett", help="comma-separated weight fractions, e.g. 1,1,1/2")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("verify", help="run verification suites", parents=[common])
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int)  # default verify.DEFAULT_SEED, read by cmd_verify
    p.add_argument("--bounds", help="JSON object of per-suite size caps")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        rows = _EXITS[:_VERIFY_ROWS] if args.command == "verify" else _EXITS
        for kind, code in rows:
            if isinstance(exc, kind):
                break
        else:
            raise
        message = f"inconsistent family: {exc.condition}" if isinstance(exc, InconsistentFamilyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return exc.code if code is None else code


if __name__ == "__main__":
    sys.exit(main())
