"""Command line front end.

Compositions are written as comma-separated nonnegative integers with no
brackets, e.g. ``keypoly key 1,3,2``.  Output is JSON on stdout, compact
by default and indented with --pretty.  Exit codes: 0 success / verified,
1 verified-false (an honest negative answer), 2 usage or parse error.

Each subcommand is one handler that takes the parsed arguments and
returns ``(payload, exit_code)``; a ``str`` payload is printed as is, any
other is printed as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diagram import skyline
from .filling import Filling, enumerate_fillings, enumerate_sorted_fillings, optimize
from .moves import closure_order, leq_kappa
from .polynomial import key_polynomial
from .verify import SUITE_NAMES, _check_run, run_verification

__all__ = ["main", "console_main"]


def _composition(text: str) -> tuple[int, ...]:
    """Comma-separated parts, each of ASCII decimal digits only: ``int``
    alone would also read "1_0", "+1", " 2", "-0" and non-ASCII digits."""
    parts = text.split(",")
    if all(p.isascii() and p.isdigit() for p in parts):
        return tuple(map(int, parts))
    if any(p[:1] == "-" and p[1:].isascii() and p[1:].isdigit() for p in parts):
        raise argparse.ArgumentTypeError(f"composition parts must be nonnegative: {text!r}")
    raise argparse.ArgumentTypeError(f"cannot parse composition {text!r}")


def _key(args):
    return key_polynomial(args.alpha).to_json_dict(), 0


def _exponents(args):
    exps = sorted(key_polynomial(args.alpha).terms.keys(), reverse=True)
    return [list(e) for e in exps], 0


def _closure(args):
    return [list(v) for v in closure_order(args.alpha)], 0


def _check(args):
    ok, chain = leq_kappa(args.beta, args.alpha)
    return (chain.to_json_dict(), 0) if ok else ("not ≤_κ", 1)


def _fillings(args):
    d = skyline(args.alpha)
    source = enumerate_sorted_fillings(d) if args.increasing else enumerate_fillings(d)
    return [f.to_json_dict() for f in source], 0


def _opt(args):
    if args.path == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.path) as handle:
            data = json.load(handle)
    return optimize(Filling.from_json_dict(data)).to_json_dict(), 0


def _verify(args):
    # Both flags size the sweep exponentially: --n 5 --parts 50 means 51^5 compositions.
    for flag, value in (("--n", args.n_max), ("--parts", args.part_max)):
        if value > 5 and not args.force:
            raise ValueError(f"{flag} beyond 5 needs --force")
    names = SUITE_NAMES if not args.suite or "all" in args.suite else tuple(args.suite)
    # Checked before --out is opened, which would truncate a report there.
    _check_run(args.n_max, args.part_max, names)
    # Opening the report first fails on a bad --out before the sweep runs.
    with open(args.out, "w") as handle:
        report = run_verification(args.n_max, args.part_max, names)
        json.dump(report.to_json_dict(), handle, indent=2)
        handle.write("\n")
    summary = {
        "passed": report.passed,
        "report": args.out,
        "suites": {s.name: s.passed for s in report.suites},
        "wall_time_s": round(report.wall_time_s, 3),
    }
    return summary, 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keypoly",
        description="Key polynomials, skyline fillings, move order, and polytope checks.",
    )
    parser.add_argument("--pretty", action="store_true", help="indented JSON output (default compact)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text, *compositions):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for arg in compositions:
            p.add_argument(arg, type=_composition)
        return p

    command("key", _key, "key polynomial of a composition", "alpha")
    command("exponents", _exponents, "exponent vectors of the key polynomial", "alpha")
    command("closure", _closure, "all vectors reachable by legal moves", "alpha")
    command("check", _check, "decide reachability and print a witness chain", "beta", "alpha")

    p = command("fillings", _fillings, "column-strict flagged fillings of the skyline diagram", "alpha")
    p.add_argument(
        "--increasing",
        action="store_true",
        help="only fillings whose columns increase top to bottom",
    )

    p = command("opt", _opt, "optimize a filling given as JSON (file or - for stdin)")
    p.add_argument("path")

    p = command("verify", _verify, "run the cross-check suites and write report.json")
    p.add_argument("--n", type=int, default=3, dest="n_max")
    p.add_argument("--parts", type=int, default=3, dest="part_max")
    p.add_argument(
        "--suite",
        action="append",
        choices=list(SUITE_NAMES) + ["all"],
        help="suite to run (repeatable; default all)",
    )
    p.add_argument("--force", action="store_true", help="allow --n or --parts beyond 5")
    p.add_argument(
        "--out",
        default=os.path.join(os.environ.get("REPORT_DIR", "."), "report.json"),
        help="report path (default $REPORT_DIR/report.json)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code or 0)

    try:
        payload, code = args.run(args)
        if isinstance(payload, str):
            print(payload)
        elif args.pretty:
            print(json.dumps(payload, indent=2))
        else:
            print(json.dumps(payload, separators=(",", ":")))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
