"""Command-line front end.

Subcommands: mobius, interval, downset, series, check.  Exit codes:
0 success, 1 tool error, 2 usage error, 3 conjecture violations found.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

from .analysis import (
    banding_report,
    banding_window,
    jelinek_check,
    jelinek_window,
    loglog_export,
    principal_series,
    Violation,
)
from .engine import ENGINE_NAMES, MobiusEngine, _oscillation_route, _query_route
from .errors import MobiusError, NotAPermutation, RangeError
from .oscillation_fast import principal_mu_series, trace_oscillation
from .perms import Permutation, complement, parse_permutation, sum_decompose
from .poset import downset, interval, mobius_naive_column

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VIOLATIONS = 3


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"range must look like LO..HI, got {text!r}"
        )
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"range must look like LO..HI, got {text!r}"
        ) from exc


# The flags each check suite reads; setting another is a usage error.
_SUITE_FLAGS = {
    "sign": ("n_max",), "bound": ("n_max",), "jelinek": ("range",),
    "banding": ("range",), "crosscheck": ("max_len",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permmobius",
        description=(
            "Möbius function on intervals of the permutation containment order"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mobius = sub.add_parser("mobius", help="Möbius value of one interval")
    p_mobius.add_argument("sigma", help="lower bound (one-line notation)")
    p_mobius.add_argument("pi", help="upper bound (one-line notation)")
    p_mobius.add_argument(
        "--engine", choices=ENGINE_NAMES, default="auto", help="evaluation engine"
    )
    p_mobius.add_argument(
        "--trace", action="store_true", help="print the evaluation tables first"
    )

    p_interval = sub.add_parser("interval", help="CSV dump of a closed interval")
    p_interval.add_argument("sigma")
    p_interval.add_argument("pi")
    p_interval.add_argument("--format", choices=("csv", "json"), default="csv")

    p_downset = sub.add_parser("downset", help="all patterns of a permutation")
    p_downset.add_argument("pi")
    p_downset.add_argument("--format", choices=("csv", "json"), default="csv")

    p_series = sub.add_parser("series", help="principal Möbius series")
    p_series.add_argument("--n-max", type=int, required=True)
    p_series.add_argument("--format", choices=("csv", "json"), default=None)
    p_series.add_argument(
        "--loglog", action="store_true", help="emit (ln n, ln |mu|) rows"
    )

    p_check = sub.add_parser("check", help="verification suites")
    p_check.add_argument("--suite", choices=_SUITE_FLAGS, required=True)
    p_check.add_argument("--n-max", type=int, default=None)
    p_check.add_argument("--range", type=_parse_range, default=None)
    p_check.add_argument("--max-len", type=int, default=None)

    # --out on every subcommand, and each subcommand's own parser, for the
    # usage line of _usage_error.
    for command in sub.choices.values():
        command.add_argument("--out", type=str, default=None, help="write output to file")
        command.set_defaults(subparser=command)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built on its first call: parsing leaves a
    parser as it was, so one serves every call in the process."""
    return build_parser()


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _violation_dict(v: Violation) -> dict:
    return dataclasses.asdict(v)


def _nan_to_null(x):
    """x with every float NaN (the constant of an empty band) replaced by
    None, so that the JSON payload prints null instead of NaN."""
    if isinstance(x, dict):
        return {k: _nan_to_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_nan_to_null(v) for v in x]
    return None if isinstance(x, float) and math.isnan(x) else x


def _cmd_mobius(args: argparse.Namespace) -> tuple[list[str], int]:
    sigma = parse_permutation(args.sigma)
    pi = parse_permutation(args.pi)
    engine = MobiusEngine()
    lines: list[str] = []
    if args.trace:
        lower, upper = sigma, pi
        route, target = _query_route(lower, upper, args.engine)
        if route == "complement":
            # The rule is taken at most once, so one hop reaches the route
            # that answers the query.
            lower, upper = complement(lower), target
            lines.append(f"complement sigma={lower} pi={upper}")
            route = _query_route(lower, upper, args.engine)[0]
        if route == "theorem":
            for wc, mu_sa in engine.theorem_terms(lower, upper):
                lines.append(
                    f"alpha={wc.alpha} r={wc.r} weight={wc.weight} mu={mu_sa}"
                )
        elif args.engine == "oscillation" or (
            args.engine == "auto"
            and _oscillation_route(lower, sum_decompose(upper)) is not None
        ):
            # The fast path's tables, printed also for a pair that the
            # dispatcher answers directly (sigma = pi, or a covering pair
            # under --engine oscillation).
            lines.extend(trace_oscillation(lower, upper))
    lines.append(str(engine.mobius(sigma, pi, engine=args.engine)))
    return lines, EXIT_OK


def _cmd_interval(args: argparse.Namespace) -> tuple[list[str], int]:
    sigma = parse_permutation(args.sigma)
    pi = parse_permutation(args.pi)
    table = interval(sigma, pi)
    if args.format == "json":
        payload = {
            "lower": str(table.lower),
            "upper": str(table.upper),
            "rows": [
                {"length": length, "permutation": str(member), "mu": mu}
                for length, member, mu in table.rows()
            ],
        }
        return [json.dumps(payload, sort_keys=True)], EXIT_OK
    return [
        f"{length},{member},{mu}" for length, member, mu in table.rows()
    ], EXIT_OK


def _cmd_downset(args: argparse.Namespace) -> tuple[list[str], int]:
    pi = parse_permutation(args.pi)
    groups = downset(pi)
    rows = [
        (length, str(member))
        for length in sorted(groups)
        for member in groups[length]
    ]
    if args.format == "json":
        payload = [{"length": length, "permutation": text} for length, text in rows]
        return [json.dumps(payload, sort_keys=True)], EXIT_OK
    return [f"{length},{text}" for length, text in rows], EXIT_OK


def _cmd_series(args: argparse.Namespace) -> tuple[list[str], int]:
    records = principal_series(args.n_max)
    if args.loglog:
        rows, skipped = loglog_export(records, 4, args.n_max)
        print(f"skipped: {skipped}", file=sys.stderr)
        return [
            f"{_fmt_float(x)} {_fmt_float(y)}" for x, y in rows
        ], EXIT_OK
    if args.format == "json":
        payload = [
            {
                "n": rec.n,
                "mu": rec.mu_W,
                "abs": abs(rec.mu_W),
                "ratio": rec.ratio,
                "class_mod_12": rec.n % 12,
            }
            for rec in records
        ]
        return [json.dumps(payload)], EXIT_OK
    lines = ["n,kind,mu,abs,ratio,class_mod_12"]
    for rec in records:
        # mu(1, W_n) = mu(1, M_n): both rows print the one value
        tail = f"{rec.mu_W},{abs(rec.mu_W)},{_fmt_float(rec.ratio)},{rec.n % 12}"
        lines.append(f"{rec.n},W,{tail}")
        lines.append(f"{rec.n},M,{tail}")
    return lines, EXIT_OK


def _crosscheck(max_len: int, engines: list[str]) -> list[Violation]:
    from itertools import permutations as iter_permutations

    engine = MobiusEngine()
    violations: list[Violation] = []
    for n in range(1, max_len + 1):
        for vals in iter_permutations(range(1, n + 1)):
            pi = Permutation._wrap(vals)
            column = mobius_naive_column(pi)
            for sigma, expected in column.items():
                for name in engines:
                    actual = engine.mobius(sigma, pi, engine=name)
                    if actual != expected:
                        violations.append(
                            Violation(
                                n,
                                f"crosscheck {name} sigma={sigma} pi={pi}",
                                expected,
                                actual,
                            )
                        )
    return violations


def _flag_conflict(args: argparse.Namespace) -> Optional[str]:
    """The usage error of a flag that the command does not read (a flag
    that the check suite does not read, a format for series --loglog), or
    of a crosscheck of no length; None when there is none."""
    if args.command == "series" and args.loglog and args.format is not None:
        return "--format is not read by series --loglog"
    if args.command != "check":
        return None
    for flag in ("n_max", "range", "max_len"):
        if getattr(args, flag) is not None and flag not in _SUITE_FLAGS[args.suite]:
            name = flag.replace("_", "-")
            return f"--{name} is not read by --suite {args.suite}"
    if args.max_len is not None and args.max_len < 1:
        return f"--max-len must be at least 1, got {args.max_len}"
    return None


def _usage_error(args: argparse.Namespace, message: str) -> int:
    """Report a usage error found after parsing under the subcommand's
    usage line, as argparse reports its own."""
    args.subparser.print_usage(sys.stderr)
    print(f"permmobius: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_check(args: argparse.Namespace) -> tuple[list[str], int]:
    constants: Optional[dict] = None
    deviations: list[Violation] = []
    engines: list[str] = []
    if args.suite in ("sign", "bound"):
        lo, hi = 4, 5000 if args.n_max is None else args.n_max
        if hi < 4:
            raise RangeError(f"series needs n_max >= 4, got {hi}")
        mu = principal_mu_series(hi)
        if args.suite == "bound":
            violations = [
                Violation(n, "bound-2^n", f"<= 2^{n}", abs(mu[n]))
                for n in range(lo, hi + 1)
                # 2^n is built only for an |mu| of at least n + 1 bits
                if abs(mu[n]).bit_length() > n and abs(mu[n]) > (1 << n)
            ]
        else:
            # negative at even lengths, positive at odd ones
            rules = (("sign-even", "< 0"), ("sign-odd", "> 0"))
            violations = [
                Violation(n, *rules[n % 2], mu[n])
                for n in range(lo, hi + 1)
                if (mu[n] <= 0 if n % 2 else mu[n] >= 0)
            ]
    elif args.suite == "jelinek":
        lo, hi = args.range or (51, 10000)
        mu = principal_mu_series(jelinek_window(lo, hi)[1])
        violations = jelinek_check(lo, hi, mu)
    elif args.suite == "banding":
        lo, hi = args.range or (1000, 20000)
        mu = principal_mu_series(banding_window(lo, hi)[1])
        report = banding_report(lo, hi, mu)
        violations = list(report.violations)
        deviations = list(report.deviations)
        constants = {k: report.constants[k] for k in sorted(report.constants)}
    else:  # crosscheck
        lo, hi = 1, args.max_len or 6
        # auto answers most indecomposable upper bounds from the oracle's
        # own column, so general is what checks the theorem.
        engines = ["auto", "general"]
        violations = _crosscheck(hi, engines)

    payload = {
        "range": [lo, hi],
        "violations": [_violation_dict(v) for v in violations],
        "constants": constants,
    }
    if deviations:
        payload["deviations"] = [_violation_dict(v) for v in deviations]
    if engines:
        payload["engines"] = engines
    code = EXIT_VIOLATIONS if violations else EXIT_OK
    return [json.dumps(_nan_to_null(payload), sort_keys=True)], code


_COMMANDS = {
    "mobius": _cmd_mobius,
    "interval": _cmd_interval,
    "downset": _cmd_downset,
    "series": _cmd_series,
    "check": _cmd_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    conflict = _flag_conflict(args)
    if conflict is not None:
        return _usage_error(args, conflict)
    try:
        lines, code = _COMMANDS[args.command](args)
    except NotAPermutation as exc:
        return _usage_error(args, str(exc))
    except MobiusError as exc:
        print(f"permmobius: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
