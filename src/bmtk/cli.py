"""Command-line frontend.

Subcommands: gen, check, bounds, identities, quad, scan.  Shared flags:
--format {plain,json,csv} and --out FILE.  Exit codes: 0 when every requested
check holds, 1 when a mathematical check fails (the report carries the
witness), 2 for usage or domain errors and for an --out or --ledger path that
cannot be read or written.

Each handler runs its command once and returns ``(ok, body)``, where body is
built only for the requested format: the JSON payload, or the plain or CSV
lines.  :func:`main` renders and writes it in one place.

JSON reports are built with fixed key order and canonical exact-value strings
so repeated runs diff cleanly.  Decimal renderings are informational and are
always accompanied by the exact strings; verdicts never consume decimals.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from typing import Sequence

from . import bmcoeff, boundcheck, polyident, quadoracle, scanner, seqprops
from .exactnum import decimal_string, exact_str, parse_exact

__all__ = ["main", "build_parser"]

PROP_TOKENS = {
    "logconcave": seqprops.LOG_CONCAVE,
    "spiral": seqprops.SPIRAL,
    "ratio": seqprops.RATIO_MONOTONE,
    "unimodal": seqprops.UNIMODAL_MIDPEAK,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmtk",
        description="Exact-arithmetic toolkit for Boros-Moll coefficient sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("gen", help="generate one coefficient row")
    p.add_argument("--m", type=int, required=True)
    shared(p)

    p = sub.add_parser("check", help="check sequence properties")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--m", type=int)
    target.add_argument("--seq", metavar="LIST")
    p.add_argument("--props", required=True, metavar="P[,P...]")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--depth", type=int, default=1)
    shared(p)

    p = sub.add_parser("bounds", help="verify the inequality suite at one m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--which", default=",".join(boundcheck.BOUND_IDS), metavar="LIST")
    shared(p)

    p = sub.add_parser("identities", help="verify the symbolic identity suite")
    p.add_argument("--grid", type=int, default=50)
    shared(p)

    p = sub.add_parser("quad", help="cross-check the quartic integral identity")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    shared(p)

    p = sub.add_parser("scan", help="scan iterated ratio monotonicity over a range")
    p.add_argument("--from", dest="m_from", type=int, required=True)
    p.add_argument("--to", dest="m_to", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--ledger", required=True, metavar="FILE")
    p.add_argument("--workers", type=int, default=1)
    shared(p)

    return parser


def _parse_seq(text: str) -> tuple[Fraction, ...]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty entry in --seq")
        values.append(parse_exact(token))
    if not values:
        raise ValueError("--seq needs at least one entry")
    return tuple(values)


def _cmd_gen(args: argparse.Namespace) -> tuple[bool, object]:
    row = bmcoeff.closed_form_row(args.m)
    if args.format == "json":
        return True, bmcoeff.row_to_json(row)
    if args.format == "csv":
        return True, list(bmcoeff.row_csv_lines(row))
    plain = [f"P_{row.m} coefficients (exact, with informational decimals):"]
    plain += [
        f"  d_{i}({row.m}) = {c} = {decimal_string(c)}" for i, c in enumerate(row.coeffs)
    ]
    return True, plain


def _cmd_check(args: argparse.Namespace) -> tuple[bool, object]:
    props = []
    for token in args.props.split(","):
        token = token.strip()
        if token not in PROP_TOKENS:
            raise ValueError(
                f"unknown property {token!r} (choose from {', '.join(PROP_TOKENS)})"
            )
        props.append(PROP_TOKENS[token])
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {args.depth}")
    if args.m is not None:
        if args.m < 0:
            raise ValueError(f"--m must be nonnegative, got {args.m}")
        seq = bmcoeff.closed_form_row(args.m)
        label = f"coefficient row m={args.m}"
    else:
        seq = _parse_seq(args.seq)
        label = f"sequence of length {len(seq)}"
    verdicts = [seqprops.k_property(seq, args.depth, p, args.strict) for p in props]
    ok = all(v.holds for v in verdicts)
    if args.format == "json":
        return ok, [v.to_json() for v in verdicts]
    if args.format == "csv":
        return ok, ["property,strict,holds,level,witness"] + [
            f"{v.property},{v.strict},{v.holds},{v.level},"
            f"{'' if v.witness is None else v.witness.indices[0]}"
            for v in verdicts
        ]
    plain = [f"checking {label} to depth {args.depth}:"]
    for v in verdicts:
        status = "holds" if v.holds else "FAILS"
        detail = ""
        if v.witness is not None:
            w = v.witness
            detail = f" [witness at level {v.level}: {w.kind} i={w.indices[0]} lhs={w.lhs} rhs={w.rhs}]"
        plain.append(f"  {v.property} (strict={v.strict}): {status}{detail}")
    return ok, plain


def _cmd_bounds(args: argparse.Namespace) -> tuple[bool, object]:
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    if not which:
        raise ValueError(f"--which names no bound id: {args.which!r}")
    reports = boundcheck.run_checks(args.m, which)
    ok = all(r.all_hold for r in reports)
    if args.format == "json":
        return ok, [r.to_json() for r in reports]
    if args.format == "csv":
        csv = ["bound,m,i,relation,lhs,rhs,holds,margin"]
        csv += [
            f"{rep.bound_id},{rep.m},{rec.i},{rec.relation},{exact_str(rec.lhs)},"
            f"{exact_str(rec.rhs)},{rec.holds},{exact_str(rec.margin)}"
            for rep in reports
            for rec in rep.records
        ]
        return ok, csv
    plain = []
    for rep in reports:
        status = "all hold" if rep.all_hold else "FAILURE"
        extra = f" (min ratio {rep.min_ratio_decimal})" if rep.min_ratio is not None else ""
        plain.append(f"{rep.bound_id} at m={rep.m}: {status}{extra}")
        plain += [
            f"  violated at i={rec.i}: {exact_str(rec.lhs)} {rec.relation} {exact_str(rec.rhs)}"
            for rec in rep.records
            if not rec.holds
        ]
    return ok, plain


def _cmd_identities(args: argparse.Namespace) -> tuple[bool, object]:
    suite = polyident.run_identity_suite(args.grid)
    ok = all(item["equal"] and item["grid_ok"] is not False for item in suite)
    if args.format == "json":
        return ok, suite
    if args.format == "csv":
        csv = ["identity,equal,grid_ok"]
        csv += [f"{item['identity']},{item['equal']},{item['grid_ok']}" for item in suite]
        return ok, csv
    plain = [f"identity suite (lattice evidence to {args.grid}):"]
    for item in suite:
        grid = "-" if item["grid_ok"] is None else ("ok" if item["grid_ok"] else "FAIL")
        status = "equal" if item["equal"] else "NOT EQUAL"
        plain.append(f"  {item['identity']}: {status}, grid {grid}")
    return ok, plain


def _cmd_quad(args: argparse.Namespace) -> tuple[bool, object]:
    try:
        result = quadoracle.quartic_integral(args.m, args.a, args.tol)
        error = None
    except quadoracle.QuadratureConvergenceError as exc:
        result = exc.result
        error = str(exc)
    ok = error is None and result.relative_deviation <= 10.0 * args.tol
    if args.format == "json":
        return ok, {**result.to_json(), "error": error, "ok": ok}
    if args.format == "csv":
        return ok, [
            "m,a,integral_estimate,rhs_value,abs_error_estimate,relative_deviation,ok",
            f"{result.m},{result.a},{result.integral_estimate!r},{result.rhs_value!r},"
            f"{result.abs_error_estimate!r},{result.relative_deviation!r},{ok}",
        ]
    return ok, [
        f"quartic integral m={result.m} a={result.a}:",
        f"  quadrature       = {result.integral_estimate!r}",
        f"  exact rhs        = {result.rhs_value!r}",
        f"  error estimate   = {result.abs_error_estimate:.3e}",
        f"  rel deviation    = {result.relative_deviation:.3e}",
        f"  verdict          = {'ok' if ok else 'MISMATCH' if error is None else error}",
    ]


def _cmd_scan(args: argparse.Namespace) -> tuple[bool, object]:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    ledger = scanner.scan(
        args.m_from, args.m_to, args.depth, args.strict, args.ledger, args.workers
    )
    ok = ledger.all_verified
    if args.format == "json":
        return ok, ledger.to_json()
    if args.format == "csv":
        return ok, ["m,depth_requested,depth_verified,verdict,level"] + [
            f"{rec.m},{rec.depth_requested},{rec.depth_verified},{rec.verdict},"
            f"{'' if rec.level is None else rec.level}"
            for rec in map(ledger.records.get, sorted(ledger.records))
        ]
    counts = Counter(rec.verdict for rec in ledger.records.values())
    return ok, [
        f"scan m={args.m_from}..{args.m_to} depth={args.depth} strict={args.strict}:",
        f"  ledger  = {ledger.path}",
        f"  cells   = {len(ledger.records)} ({', '.join(f'{k}: {v}' for k, v in sorted(counts.items()))})",
        f"  verdict = {'all verified' if ok else 'NOT ALL VERIFIED'}",
    ]


_HANDLERS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "bounds": _cmd_bounds,
    "identities": _cmd_identities,
    "quad": _cmd_quad,
    "scan": _cmd_scan,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        ok, body = _HANDLERS[args.command](args)
        text = json.dumps(body, indent=2) if args.format == "json" else "\n".join(body)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
