"""Command-line surface: chamber complexes, stability verdicts, tree and
chain operations, and the verification suites, all speaking JSON.

Exit codes: 0 success, 1 a verification suite failed, 2 an enumeration
bound was exceeded, 3 unreadable input, a usage error or an output file
that cannot be written, 4 an input violates a type invariant, 5 a chart
family fails the functor conditions.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import chambers, configs, curves, serialize
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


def _emit(args, payload: dict) -> None:
    if args.format == "text":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = serialize.dumps(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        with open(path) as fh:
            raw = serialize.loads(fh.read())
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {path}: {exc}")
    try:
        return serialize.parse_any(raw)
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {path}: {exc}")
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_INVARIANT, f"{path}: {exc}")


def _parse_hassett(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(EXIT_PARSE, f"bad weight list {text!r}: {exc}")


def cmd_chambers(args) -> int:
    try:
        payload = serialize.chamber_complex_json(
            args.mode, args.n, with_adjacency=not args.no_adjacency
        )
    except TooLargeError as exc:
        raise CliError(EXIT_TOO_LARGE, str(exc))
    except ValueError as exc:
        raise CliError(EXIT_INVARIANT, str(exc))
    _emit(args, payload)
    return 0


def cmd_stability(args) -> int:
    cfg = _load(args.config)
    weight = _load(args.weight)
    if not isinstance(cfg, (configs.QnConfig, configs.PnConfig)):
        raise CliError(EXIT_INVARIANT, f"{args.config} is not a configuration")
    try:
        verdict = configs.is_semistable(cfg, weight)
    except TooLargeError as exc:
        raise CliError(EXIT_TOO_LARGE, str(exc))
    except ValueError as exc:
        raise CliError(EXIT_INVARIANT, str(exc))
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


def cmd_tree(args) -> int:
    if args.subcommand == "check":
        obj = _load(_needed(args, "--tree", "--chain"))
        if isinstance(obj, curves.Chain):
            result = {"stable": curves.is_lm_stable(obj), "mode": "lm"}
        elif isinstance(obj, curves.PointedTree):
            try:
                curves.validate_tree(obj)
            except ValueError as exc:
                raise CliError(EXIT_INVARIANT, str(exc))
            if args.hassett:
                a = _parse_hassett(args.hassett)
                try:
                    result = {"stable": curves.is_a_stable(obj, a), "mode": "hassett"}
                except ValueError as exc:
                    raise CliError(EXIT_INVARIANT, str(exc))
            else:
                result = {"stable": curves.is_gk_stable(obj), "mode": "gk"}
        else:
            raise CliError(EXIT_INVARIANT, "input is neither a tree nor a chain")
        result["schema"] = serialize.SCHEMA
        _emit(args, result)
        return 0

    if args.subcommand == "contract":
        tree = _load(_needed(args, "--tree"))
        if not isinstance(tree, curves.PointedTree):
            raise CliError(EXIT_INVARIANT, "input is not a tree")
        keep_text = _needed(args, "--keep")
        try:
            keep = [int(x) for x in keep_text.split(",")]
        except ValueError:
            raise CliError(EXIT_PARSE, f"bad mark list {keep_text!r}")
        try:
            out = curves.contract_gamma(tree, keep)
        except ValueError as exc:
            raise CliError(EXIT_INVARIANT, str(exc))
        _emit(args, serialize.tree_json(out))
        return 0

    if args.subcommand == "coords":
        obj = _load(_needed(args, "--tree", "--chain"))
        if not isinstance(obj, (curves.Chain, curves.PointedTree)):
            raise CliError(EXIT_INVARIANT, "input is neither a tree nor a chain")
        try:
            if isinstance(obj, curves.Chain):
                fam = curves.lm_moduli_coordinates(obj)
            elif args.hassett:
                fam = curves.moduli_coordinates(obj, curves.HASSETT, _parse_hassett(args.hassett))
            else:
                fam = curves.moduli_coordinates(obj, curves.GK)
        except (ValueError, curves.UnstableInputError) as exc:
            raise CliError(EXIT_INVARIANT, str(exc))
        _emit(args, serialize.family_json(fam))
        return 0

    if args.subcommand == "reconstruct":
        fam = _load(_needed(args, "--family"))
        if not isinstance(fam, curves.LimitFamily):
            raise CliError(EXIT_INVARIANT, "input is not a chart family")
        try:
            obj = curves.reconstruct_tree(fam)
        except InconsistentFamilyError as exc:
            raise CliError(EXIT_INCONSISTENT, f"inconsistent family: {exc.condition}")
        if isinstance(obj, curves.Chain):
            payload = serialize.chain_json(obj)
        else:
            payload = serialize.tree_json(obj)
        # reconstruct_tree raises "round-trip" unless obj's charts, compared
        # on integers without building them, are fam
        payload["round_trip"] = True
        _emit(args, payload)
        return 0

    raise CliError(EXIT_PARSE, f"unknown tree subcommand {args.subcommand!r}")


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
    p.add_argument("subcommand", choices=("check", "contract", "coords", "reconstruct"))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except SettingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
