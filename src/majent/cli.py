"""Command line front end.

Exit status: 0 on success, 1 when an expected property fails (a violated
check, a reference pair that does not reproduce, a sweep aborted by a
guarantee inconsistency), 2 on usage errors and on output that cannot be
written (an unwritable ``sweep --out``, a closed standard output), 3 on
numeric domain errors such as negative weights, parameters outside the
family's domain or a power sum that overflows.

Each command loads only the modules it runs.  ``meet --exact`` and
``join --exact`` run on exact rationals, and ``compare``, float ``meet``
and ``join``, ``entropy``, ``check`` and ``verify-paper`` on one pair or
distribution in Python floats.  None of these, nor ``--help`` or a usage
error, imports numpy: only ``sweep`` loads it, with the batched engine and
:mod:`majent.search`.  :mod:`majent.lattice` loads where a meet or a join
is taken, :mod:`fractions` only for rational input, :mod:`json` only where
JSON is written, and ``verify-paper`` loads :mod:`majent.reference`.  The
records are NamedTuples or slotted classes, so no command pays for
:mod:`inspect` and the standard record decorator's class generation
(numpy itself loads :mod:`inspect` for ``sweep``).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from .properties import CHECK_TOL, PropertyKind, run_check
from .simplex import (
    ProbabilityDistribution,
    VectorParseError,
    compare,
    parse_distribution,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _fmt_vector(dist: ProbabilityDistribution, digits: int) -> str:
    if dist.exact is not None:
        return ",".join(
            f"{w.numerator}/{w.denominator}" if w.denominator != 1 else str(w.numerator)
            for w in dist.exact
        )
    return ",".join(_fmt(w, digits) for w in dist.weights)


def _add_vector_args(sub: argparse.ArgumentParser) -> None:
    for name in ("--p", "--q"):
        sub.add_argument(name, required=True, metavar="WEIGHTS", help="comma-separated weights, decimals or rationals like 1/2")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majent",
        description="Majorization lattice and entropy family checks on the probability simplex.",
    )
    parser.add_argument("--digits", type=int, default=17, help="significant digits in printed numbers (default 17)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ent = sub.add_parser("entropy", help="evaluate an entropy of one distribution")
    p_ent.add_argument("--dist", required=True, metavar="WEIGHTS")
    p_ent.add_argument(
        "--family",
        choices=["shannon", "renyi", "tsallis", "sharma-mittal"],
        default="sharma-mittal",
    )
    p_ent.add_argument("--alpha", type=float, default=None)
    p_ent.add_argument("--beta", type=float, default=None)
    p_ent.set_defaults(run=_cmd_entropy)

    for name, help_text in (
        ("meet", "greatest lower bound in the majorization order"),
        ("join", "least upper bound in the majorization order"),
    ):
        p_op = sub.add_parser(name, help=help_text)
        _add_vector_args(p_op)
        p_op.add_argument("--exact", action="store_true", help="exact rational arithmetic")
        p_op.set_defaults(run=_cmd_meet_join)

    p_cmp = sub.add_parser("compare", help="compare two distributions under majorization")
    _add_vector_args(p_cmp)
    p_cmp.set_defaults(run=_cmd_compare)

    p_chk = sub.add_parser("check", help="check one inequality on one pair")
    p_chk.add_argument("--property", required=True, choices=sorted(k.value for k in PropertyKind))
    _add_vector_args(p_chk)
    p_chk.add_argument("--alpha", type=float, required=True)
    p_chk.add_argument("--beta", type=float, required=True)
    p_chk.add_argument("--tolerance", type=float, default=CHECK_TOL)
    p_chk.add_argument("--format", choices=["text", "json"], default="text")
    p_chk.set_defaults(run=_cmd_check)

    p_ver = sub.add_parser(
        "verify-paper", help="replay the built-in reference counterexamples at (2, 3)"
    )
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.set_defaults(run=_cmd_verify_paper)

    p_swp = sub.add_parser("sweep", help="region sweep from a config file")
    p_swp.add_argument("--config", required=True, metavar="FILE")
    p_swp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_swp.add_argument("--out", metavar="FILE", default=None, help="write here instead of stdout")
    p_swp.set_defaults(run=_cmd_sweep)

    return parser


def _error(err: Exception, code: int) -> int:
    # A C library error carries (errno, message): print the message.
    print(f"error: {err.args[-1] if isinstance(err, OverflowError) else err}", file=sys.stderr)
    return code


def _cmd_entropy(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .entropy import EntropyParams, renyi, shannon, sharma_mittal, tsallis

    d = parse_distribution(args.dist)
    family = args.family
    if family == "shannon":
        value = shannon(d)
    elif family in ("renyi", "tsallis"):
        if args.alpha is None:
            parser.error(f"--family {family} requires --alpha")
        value = (renyi if family == "renyi" else tsallis)(d, args.alpha)
    else:
        if args.alpha is None or args.beta is None:
            parser.error("--family sharma-mittal requires --alpha and --beta")
        value = sharma_mittal(d, EntropyParams.make(args.alpha, args.beta))
    print(_fmt(value, args.digits))
    return EXIT_OK


def _cmd_meet_join(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import lattice

    p = parse_distribution(args.p, exact=args.exact)
    q = parse_distribution(args.q, exact=args.exact)
    op = lattice.meet if args.command == "meet" else lattice.join
    print(_fmt_vector(op(p, q), args.digits))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    p = parse_distribution(args.p)
    q = parse_distribution(args.q)
    print(compare(p, q).value)
    return EXIT_OK


def _render_check_text(record, digits: int) -> str:
    lines = [
        f"property: {record.kind.value}",
        f"alpha: {_fmt(record.params.alpha, digits)} ({record.params.alpha_kind})",
        f"beta: {_fmt(record.params.beta, digits)} ({record.params.beta_kind})",
        f"p: {_fmt_vector(record.p, digits)}",
        f"q: {_fmt_vector(record.q, digits)}",
        f"meet: {_fmt_vector(record.meet, digits)}",
    ]
    if record.join is not None:
        lines.append(f"join: {_fmt_vector(record.join, digits)}")
    lines += [
        f"lhs: {_fmt(record.lhs, digits)}",
        f"rhs: {_fmt(record.rhs, digits)}",
        f"margin: {_fmt(record.margin, digits)}",
        f"verdict: {record.verdict_label}",
    ]
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .entropy import EntropyParams

    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        parser.error(f"--tolerance must be finite and > 0, got {args.tolerance!r}")
    p = parse_distribution(args.p)
    q = parse_distribution(args.q)
    params = EntropyParams.make(args.alpha, args.beta)
    record = run_check(
        PropertyKind(args.property), p, q, params, tolerance=args.tolerance
    )
    if args.format == "json":
        import json

        print(json.dumps(record.to_json_dict(), indent=2, allow_nan=False))
    else:
        print(_render_check_text(record, args.digits))
    return EXIT_OK if record.holds else EXIT_VIOLATION


def _cmd_verify_paper(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .reference import ReproductionError, verify_paper_counterexamples

    try:
        records = verify_paper_counterexamples()
    except ReproductionError as err:
        print(f"reproduction failed: {err}", file=sys.stderr)
        return EXIT_VIOLATION
    if args.format == "json":
        import json

        print(json.dumps([r.to_json_dict() for r in records], indent=2, allow_nan=False))
    else:
        for r in records:
            c = r.check
            print(
                f"{r.source}: {c.kind.value} violated at alpha=2 beta=3, "
                f"lhs {_fmt(c.lhs, args.digits)}, rhs {_fmt(c.rhs, args.digits)}, "
                f"margin {_fmt(c.margin, args.digits)}"
            )
        print("both reference counterexamples reproduce")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .search import GuaranteeViolationError, SweepConfigError, parse_sweep_config, sweep

    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return EXIT_USAGE
    env_seed = os.environ.get("MAJENT_SEED")
    default_seed = None
    if env_seed is not None:
        try:
            default_seed = int(env_seed)
        except ValueError:
            print(f"MAJENT_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        report = sweep(parse_sweep_config(text, default_seed=default_seed))
    except SweepConfigError as err:
        return _error(err, EXIT_USAGE)
    except GuaranteeViolationError as err:
        return _error(err, EXIT_VIOLATION)
    payload = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"cannot write report: {err}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.digits < 0:
        parser.error(f"--digits must be >= 0, got {args.digits}")
    # No float's exact decimal expansion has more significant digits.
    args.digits = min(args.digits, 767)
    try:
        code = args.run(args, parser)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; that write goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except VectorParseError as err:
        return _error(err, EXIT_USAGE)
    except (ValueError, OverflowError) as err:
        return _error(err, EXIT_DOMAIN)
    return code


if __name__ == "__main__":
    sys.exit(main())
