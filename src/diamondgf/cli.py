"""Command line front end: polynomial printing, coefficient tables, and
pass/fail verification reports from ``diamondgf.verify``.

One table, ``_VERIFY_TARGETS``, gives each verify target its help, options
and library call; its subparser and dispatch are built from it, and a
failing target's reproduce line from the report's command and parameters.

Exit codes: 0 computed/verified, 1 mathematical mismatch, 2 usage or parse
error (including guard violations without --force, and sizes that do not
fit in memory), 141 (128 + SIGPIPE) when the reader of standard output
closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import budget, diamonds, oracle, permstat, poset as posets, series, verify

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


# --- command handlers -------------------------------------------------------


def _print(value, as_json: bool, names: tuple[str, str] = ("a", "b")) -> None:
    """Print a coefficient list, a polynomial or a truncated series."""
    if not as_json:
        print(series.coeffs_text(value) if isinstance(value, list) else value.text(names))
        return
    payload = series.coeffs_json(value) if isinstance(value, list) else series.terms_json(value)
    print(json.dumps(payload, sort_keys=True))


def _cmd_em(args) -> int:
    _print(permstat.euler_mahonian(args.d), args.json, ("x", "y"))
    return EXIT_OK


def _cmd_recursion(args) -> int:
    _print(permstat.djsw_recursion(args.d), args.json, ("x", "y"))
    return EXIT_OK


def _parse_folds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--folds expects comma-separated integers, got '{text}'") from None


def _cmd_sigma(args) -> int:
    if args.folds is not None and (args.d is not None or args.M is not None):
        raise ValueError("use either --folds or --d/--M, not both")
    if args.folds is None and args.d is None:
        raise ValueError("one of --d or --folds is required")
    if args.folds is not None:
        spec = posets.DiamondSpec(_parse_folds(args.folds))
        if args.schmidt:
            raise ValueError("--schmidt requires the uniform --d/--M form")
    elif args.schmidt:
        _print(diamonds.schmidt_closed(args.d, args.M or 1, args.trunc), args.json)
        return EXIT_OK
    else:
        spec = posets.DiamondSpec.uniform(args.d, args.M or 1)
    closed = diamonds.sigma_univariate if args.a_eq_b else diamonds.sigma_multifold_closed
    _print(closed(spec, args.trunc), args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = _VERIFY_TARGETS[args.target][2](args)
    print(json.dumps(report.as_json_dict(), sort_keys=True) if args.json else report.text())
    if report.passed:
        return EXIT_OK
    import shlex  # only a failing verify needs it, so every other start-up skips it

    # The parameters hold every option of the target, defaults included, in order.
    words = ["diamondgf", *report.command.split()]
    for name, value in report.parameters.items():
        words += [f"--{name.replace('_', '-')}", str(value)]
    words += ["--force"] if args.force else []
    print(f"reproduce: {shlex.join(words + ['--json'])}", file=sys.stderr)
    return EXIT_MISMATCH


def _cmd_ppartition(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    size = posets._declared_size(text)
    posets.check_size(size)  # before the parser builds the elements
    try:
        p, tags = posets.parse_poset_file(text)
    except (MemoryError, OverflowError):  # no --trunc or other option would help here
        print(f"error: a poset of {size} elements does not fit in memory", file=sys.stderr)
        return EXIT_USAGE
    stanley = posets.stanley_sigma(p, tags, args.trunc)
    if not args.oracle:
        _print(stanley, args.json)
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

# Per verify target: its help, its options as (flag, type, default), an
# option with no default being required, and the call that runs it. Each
# call looks its ``verify`` function up when it runs, not when the parser
# is built, so a patched function is the one called.
_VERIFY_TARGETS = {
    "theorem1": ("recurrence equals the count of words for d <= dmax", [("--dmax", _positive, 7)],
                 lambda a: verify.verify_theorem1(a.dmax)),
    "main": ("closed form == Stanley expansion == enumeration",
             [("--d", _positive, None), ("--M", _positive, None), ("--trunc", _nonnegative, 10)],
             lambda a: verify.verify_main(a.d, a.M, a.trunc)),
    "multifold": ("multifold closed form == enumeration",
                  [("--folds", str, None), ("--trunc", _nonnegative, 8)],
                  lambda a: verify.verify_multifold(_parse_folds(a.folds), a.trunc)),
    "schmidt": ("links-only closed form == product == enumeration",
                [("--d", _positive, None), ("--M", _positive, 10), ("--trunc", _nonnegative, 10)],
                lambda a: verify.verify_schmidt(a.d, a.M, a.trunc)),
    "stanley": ("random-poset equivalence suite",
                [("--count", _positive, 200), ("--max-size", _positive, 7),
                 ("--trunc", _nonnegative, 8), ("--seed", int, oracle.DEFAULT_CORPUS_SEED)],
                lambda a: verify.verify_stanley(a.count, a.max_size, a.trunc, a.seed)),
    "apr": ("plane partition diamond product, three ways", [("--trunc", _nonnegative, 20)],
            lambda a: verify.verify_apr(a.trunc)),
    "djsw-product": ("d-fold diamond product vs enumeration",
                     [("--d", _positive, None), ("--trunc", _nonnegative, 12)],
                     lambda a: verify.verify_djsw_product(a.d, a.trunc)),
}


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
    handlers = [(em, _cmd_em), (rec, _cmd_recursion), (sigma, _cmd_sigma)]
    for name, (help_text, options, _) in _VERIFY_TARGETS.items():
        target = verify_sub.add_parser(name, help=help_text)
        for flag, kind, default in options:
            target.add_argument(flag, type=kind, default=default, required=default is None)
        handlers.append((target, _cmd_verify))

    pp = sub.add_parser("ppartition", help="generating function of a poset file")
    pp.add_argument("file")
    pp.add_argument("--trunc", type=_nonnegative, required=True)
    pp.add_argument("--oracle", action="store_true", help="also enumerate and compare")

    handlers.append((pp, _cmd_ppartition))
    for command, handler in handlers:
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
        with budget.lifted(args.force):  # the one place that lifts a guard
            return args.handler(args)
    except budget.TooLarge as exc:
        print(f"error: {exc}; use --force to override", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # includes ParseError and the linear-extension budget, which --force does not lift
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # A truncated series holds about T^2/2 coefficients; a bivariate one
        # past series.MAX_SERIES_CELLS is refused before it is filled.
        hint = "a smaller --trunc" if "trunc" in vars(args) else "smaller parameters"
        print(f"error: out of memory; use {hint}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # A size past sys.maxsize, such as the row of a 20-digit --trunc,
        # cannot even be asked for; name the options that hold one.
        huge = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
                if type(value) is int and value > sys.maxsize]
        hint = f"a smaller {' and '.join(huge)}" if huge else "smaller parameters"
        print(f"error: a size does not fit in memory; use {hint}", file=sys.stderr)
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
