"""Command line front end: polynomial printing, coefficient tables, and
pass/fail verification reports from ``diamondgf.verify``.

Exit codes: 0 computed/verified, 1 mathematical mismatch, 2 usage or parse
error (including guard violations without --force), 141 (128 + SIGPIPE)
when the reader of standard output closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import diamonds, oracle, permstat, poset as posets, series, verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when the text is not an integer
    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _lift(args, guard: int, *needed: int) -> int:
    """The guard to enforce: the default, or with --force one admitting every needed size."""
    return max(guard, *needed) if args.force else guard


# --- command handlers -------------------------------------------------------


def _print_terms(value, as_json: bool, names: tuple[str, str] = ("a", "b")) -> None:
    """Print a polynomial or a truncated series."""
    if as_json:
        to_json = series.poly_json if isinstance(value, series.Poly2) else series.series_json
        print(json.dumps(to_json(value), sort_keys=True))
    else:
        print(value.text(names))


def _print_coeffs(coeffs, as_json: bool) -> None:
    if as_json:
        print(json.dumps(series.coeffs_json(coeffs), sort_keys=True))
    else:
        print(series.coeffs_text(coeffs))


def _cmd_em(args) -> int:
    max_d = _lift(args, permstat.MAX_ENUM_D, args.d)
    _print_terms(permstat.euler_mahonian(args.d, max_d), args.json, ("x", "y"))
    return EXIT_OK


def _cmd_recursion(args) -> int:
    _print_terms(permstat.djsw_recursion(args.d), args.json, ("x", "y"))
    return EXIT_OK


def _parse_folds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--folds expects comma-separated integers, got '{text}'") from None


def _cmd_sigma(args) -> int:
    if args.folds is not None and (args.d is not None or args.M is not None):
        print("error: use either --folds or --d/--M, not both", file=sys.stderr)
        return EXIT_USAGE
    if args.folds is None and args.d is None:
        print("error: one of --d or --folds is required", file=sys.stderr)
        return EXIT_USAGE

    if args.folds is not None:
        spec = posets.DiamondSpec(_parse_folds(args.folds))
        if args.schmidt:
            print("error: --schmidt requires the uniform --d/--M form", file=sys.stderr)
            return EXIT_USAGE
        result = diamonds.sigma_multifold_closed(spec, args.trunc)
    else:
        length = args.M if args.M is not None else 1
        if args.schmidt:
            max_d = _lift(args, permstat.MAX_ENUM_D, args.d)
            _print_coeffs(diamonds.schmidt_closed(args.d, length, args.trunc, max_d), args.json)
            return EXIT_OK
        result = diamonds.sigma_closed(args.d, length, args.trunc)

    if args.a_eq_b:
        _print_coeffs(result.specialize_univariate(), args.json)
    else:
        _print_terms(result, args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    target, max_d = args.target, permstat.MAX_ENUM_D
    if target == "theorem1":
        report = verify.verify_theorem1(args.dmax, _lift(args, max_d, args.dmax))
    elif target == "main":
        size = posets.DiamondSpec.uniform(args.d, args.M).element_count
        limits = _lift(args, max_d, args.d), _lift(args, posets.MAX_JH_SIZE, size)
        report = verify.verify_main(args.d, args.M, args.trunc, *limits)
    elif target == "multifold":
        report = verify.verify_multifold(_parse_folds(args.folds), args.trunc)
    elif target == "schmidt":
        report = verify.verify_schmidt(args.d, args.M, args.trunc, _lift(args, max_d, args.d))
    elif target == "stanley":
        guard = _lift(args, posets.MAX_JH_SIZE, args.max_size)
        report = verify.verify_stanley(args.count, args.max_size, args.trunc, args.seed, guard)
    elif target == "apr":
        report = verify.verify_apr(args.trunc)
    else:  # djsw-product
        report = verify.verify_djsw_product(args.d, args.trunc, _lift(args, max_d, args.d))

    if args.json:
        print(json.dumps(report.as_json_dict(), sort_keys=True))
    else:
        print(report.text())
    if report.passed:
        return EXIT_OK
    import shlex  # only a failing verify needs it, so every other start-up skips it

    print(f"reproduce: {shlex.join(_verify_argv(args))}", file=sys.stderr)
    return EXIT_MISMATCH


def _verify_argv(args) -> list[str]:
    """The command line that reruns this verify target with every option
    spelled out, defaults included, and JSON output."""
    words = ["diamondgf", "verify", args.target]
    for dest, value in vars(args).items():
        if dest not in ("subcommand", "target", "handler", "json", "force"):
            words += [f"--{dest.replace('_', '-')}", str(value)]
    return words + (["--force"] if args.force else []) + ["--json"]


def _cmd_ppartition(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    p, tags = posets.parse_poset_file(text)
    max_size = _lift(args, posets.MAX_JH_SIZE, p.size)
    stanley = posets.stanley_sigma(p, tags, args.trunc, max_size)
    if not args.oracle:
        _print_terms(stanley, args.json)
        return EXIT_OK
    enumerated = oracle.enumerate_ppartitions(p, tags, args.trunc)
    match = stanley == enumerated
    if args.json:
        payload = {
            "truncation": args.trunc,
            "stanley": series.terms_as_json(stanley.sorted_terms()),
            "oracle": series.terms_as_json(enumerated.sorted_terms()),
            "match": match,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"stanley: {stanley.text()}")
        print(f"oracle:  {enumerated.text()}")
        print("MATCH" if match else "MISMATCH")
    return EXIT_OK if match else EXIT_MISMATCH


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamondgf",
        description="Exact generating functions for partition diamonds, with verification oracles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    em = sub.add_parser("em", help="print the bivariate descent polynomial E_d(x, y)")
    em.add_argument("--d", type=_positive, required=True)

    rec = sub.add_parser("recursion", help="print the same polynomial built by recurrence")
    rec.add_argument("--d", type=_positive, required=True)
    rec.add_argument("--json", action="store_true")
    rec.set_defaults(handler=_cmd_recursion)

    sigma = sub.add_parser("sigma", help="expand a diamond generating function")
    sigma.add_argument("--d", type=_positive)
    sigma.add_argument("--M", type=_positive)
    sigma.add_argument("--folds", type=str, help="comma-separated fold counts, e.g. 1,2")
    sigma.add_argument("--trunc", type=_nonnegative, required=True)
    collapse = sigma.add_mutually_exclusive_group()
    collapse.add_argument("--a-eq-b", action="store_true", dest="a_eq_b",
                          help="print coefficients with both variables set to q")
    collapse.add_argument("--schmidt", action="store_true",
                          help="set the fold variable to 1 (links-only weighting)")

    verify_parser = sub.add_parser("verify", help="run a verification target")
    verify_sub = verify_parser.add_subparsers(dest="target", required=True)

    v_thm = verify_sub.add_parser("theorem1", help="recurrence equals enumeration for d <= dmax")
    v_thm.add_argument("--dmax", type=_positive, default=7)

    v_main = verify_sub.add_parser("main", help="closed form == Stanley expansion == enumeration")
    v_main.add_argument("--d", type=_positive, required=True)
    v_main.add_argument("--M", type=_positive, required=True)
    v_main.add_argument("--trunc", type=_nonnegative, default=10)

    v_multi = verify_sub.add_parser("multifold", help="multifold closed form == enumeration")
    v_multi.add_argument("--folds", type=str, required=True)
    v_multi.add_argument("--trunc", type=_nonnegative, default=8)

    v_schmidt = verify_sub.add_parser("schmidt", help="links-only closed form == product == enumeration")
    v_schmidt.add_argument("--d", type=_positive, required=True)
    v_schmidt.add_argument("--M", type=_positive, default=10)
    v_schmidt.add_argument("--trunc", type=_nonnegative, default=10)

    v_stanley = verify_sub.add_parser("stanley", help="random-poset equivalence suite")
    v_stanley.add_argument("--count", type=_positive, default=200)
    v_stanley.add_argument("--max-size", type=_positive, default=7, dest="max_size")
    v_stanley.add_argument("--trunc", type=_nonnegative, default=8)
    v_stanley.add_argument("--seed", type=int, default=oracle.DEFAULT_CORPUS_SEED)

    v_apr = verify_sub.add_parser("apr", help="plane partition diamond product, three ways")
    v_apr.add_argument("--trunc", type=_nonnegative, default=20)

    v_djsw = verify_sub.add_parser("djsw-product", help="d-fold diamond product vs enumeration")
    v_djsw.add_argument("--d", type=_positive, required=True)
    v_djsw.add_argument("--trunc", type=_nonnegative, default=12)

    pp = sub.add_parser("ppartition", help="generating function of a poset file")
    pp.add_argument("file")
    pp.add_argument("--trunc", type=_nonnegative, required=True)
    pp.add_argument("--oracle", action="store_true", help="also enumerate and compare")

    targets = (v_thm, v_main, v_multi, v_schmidt, v_stanley, v_apr, v_djsw)
    handlers = [(em, _cmd_em), (sigma, _cmd_sigma), (pp, _cmd_ppartition)]
    for command, handler in handlers + [(target, _cmd_verify) for target in targets]:
        command.add_argument("--json", action="store_true")
        command.add_argument("--force", action="store_true", help="lift the size guards")
        command.set_defaults(handler=handler)

    return parser


# Building the parser costs milliseconds, a large share of a small in-process
# command; parsing leaves no state on it, so one instance serves every call.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        # includes ParseError, PosetTooLarge and DTooLarge
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # The oracles search one poset element per stack frame; the elements
        # of a verify target's poset follow from --trunc and --d.
        if args.subcommand == "ppartition":
            hint = "a smaller poset, or leave out --oracle"
        else:
            hint = "a smaller --trunc or --d"
        print(f"error: recursion too deep; use {hint}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, which is no mismatch. Point stdout at
        # devnull so the flush at interpreter exit has nothing to complain of.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
