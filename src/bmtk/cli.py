"""Command-line frontend.

Subcommands: gen, check, bounds, identities, quad, scan.  Shared flags:
--format {plain,json,csv} and --out FILE.  Exit codes: 0 when every requested
check holds, 1 when a mathematical check fails (the report carries the
witness), 2 for usage or domain errors.

JSON reports are built with fixed key order and canonical exact-value strings
so repeated runs diff cleanly.  Decimal renderings are informational and are
always accompanied by the exact strings; verdicts never consume decimals.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import bmcoeff, boundcheck, polyident, quadoracle, scanner, seqprops
from .exactnum import Dyadic, decimal_string

__all__ = ["main", "build_parser"]

PROP_TOKENS = {
    "logconcave": seqprops.LOG_CONCAVE,
    "spiral": seqprops.SPIRAL,
    "ratio": seqprops.RATIO_MONOTONE,
    "unimodal": seqprops.UNIMODAL_MIDPEAK,
}


@dataclass
class Output:
    ok: bool
    payload: object
    plain: list[str]
    csv: list[str]


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
        if "/2^" in token:
            values.append(Dyadic.parse(token).as_fraction())
        else:
            values.append(Fraction(token))
    if not values:
        raise ValueError("--seq needs at least one entry")
    return tuple(values)


def _cmd_gen(args: argparse.Namespace) -> Output:
    row = bmcoeff.closed_form_row(args.m)
    plain = [f"P_{row.m} coefficients (exact, with informational decimals):"]
    plain += [
        f"  d_{i}({row.m}) = {c} = {decimal_string(c)}" for i, c in enumerate(row.coeffs)
    ]
    return Output(True, bmcoeff.row_to_json(row), plain, list(bmcoeff.row_csv_lines(row)))


def _cmd_check(args: argparse.Namespace) -> Output:
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
        row = bmcoeff.closed_form_row(args.m)
        label = f"coefficient row m={args.m}"
        verdicts = [scanner.row_property(row, args.depth, p, args.strict) for p in props]
    else:
        seq = _parse_seq(args.seq)
        label = f"sequence of length {len(seq)}"
        verdicts = [seqprops.k_property(seq, args.depth, p, args.strict) for p in props]
    plain = [f"checking {label} to depth {args.depth}:"]
    csv = ["property,strict,holds,level,witness"]
    for v in verdicts:
        status = "holds" if v.holds else "FAILS"
        detail = ""
        if v.witness is not None:
            w = v.witness
            detail = f" [witness at level {v.level}: {w.kind} i={w.indices[0]} lhs={w.lhs} rhs={w.rhs}]"
        plain.append(f"  {v.property} (strict={v.strict}): {status}{detail}")
        wid = "" if v.witness is None else v.witness.indices[0]
        csv.append(f"{v.property},{v.strict},{v.holds},{v.level},{wid}")
    return Output(all(v.holds for v in verdicts), [v.to_json() for v in verdicts], plain, csv)


def _cmd_bounds(args: argparse.Namespace) -> Output:
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    reports = boundcheck.run_checks(args.m, which)
    plain = []
    csv = ["bound,m,i,relation,lhs,rhs,holds,margin"]
    for rep in reports:
        status = "all hold" if rep.all_hold else "FAILURE"
        extra = f" (min ratio {rep.min_ratio_decimal})" if rep.min_ratio is not None else ""
        plain.append(f"{rep.bound_id} at m={rep.m}: {status}{extra}")
        for rec in rep.records:
            if not rec.holds:
                plain.append(
                    f"  violated at i={rec.i}: {rec.lhs} {rec.relation} {rec.rhs}"
                )
            csv.append(
                f"{rep.bound_id},{rep.m},{rec.i},{rec.relation},{rec.lhs},{rec.rhs},"
                f"{rec.holds},{rec.margin}"
            )
    return Output(
        all(r.all_hold for r in reports), [r.to_json() for r in reports], plain, csv
    )


def _cmd_identities(args: argparse.Namespace) -> Output:
    suite = polyident.run_identity_suite(args.grid)
    ok = all(item["equal"] and item["grid_ok"] is not False for item in suite)
    plain = [f"identity suite (lattice evidence to {args.grid}):"]
    csv = ["identity,equal,grid_ok"]
    for item in suite:
        grid = "-" if item["grid_ok"] is None else ("ok" if item["grid_ok"] else "FAIL")
        status = "equal" if item["equal"] else "NOT EQUAL"
        plain.append(f"  {item['identity']}: {status}, grid {grid}")
        csv.append(f"{item['identity']},{item['equal']},{item['grid_ok']}")
    return Output(ok, suite, plain, csv)


def _cmd_quad(args: argparse.Namespace) -> Output:
    try:
        result = quadoracle.quartic_integral(args.m, args.a, args.tol)
        error = None
    except quadoracle.QuadratureConvergenceError as exc:
        result = exc.result
        error = str(exc)
    ok = error is None and result.relative_deviation <= 10.0 * args.tol
    payload = dict(result.to_json())
    payload["error"] = error
    payload["ok"] = ok
    plain = [
        f"quartic integral m={result.m} a={result.a}:",
        f"  quadrature       = {result.integral_estimate!r}",
        f"  exact rhs        = {result.rhs_value!r}",
        f"  error estimate   = {result.abs_error_estimate:.3e}",
        f"  rel deviation    = {result.relative_deviation:.3e}",
        f"  verdict          = {'ok' if ok else 'MISMATCH' if error is None else error}",
    ]
    csv = [
        "m,a,integral_estimate,rhs_value,abs_error_estimate,relative_deviation,ok",
        f"{result.m},{result.a},{result.integral_estimate!r},{result.rhs_value!r},"
        f"{result.abs_error_estimate!r},{result.relative_deviation!r},{ok}",
    ]
    return Output(ok, payload, plain, csv)


def _cmd_scan(args: argparse.Namespace) -> Output:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    ledger = scanner.scan(
        args.m_from, args.m_to, args.depth, args.strict, args.ledger, args.workers
    )
    ok = ledger.all_verified
    counts: dict[str, int] = {}
    for rec in ledger.records.values():
        counts[rec.verdict] = counts.get(rec.verdict, 0) + 1
    plain = [
        f"scan m={args.m_from}..{args.m_to} depth={args.depth} strict={args.strict}:",
        f"  ledger  = {ledger.path}",
        f"  cells   = {len(ledger.records)} ({', '.join(f'{k}: {v}' for k, v in sorted(counts.items()))})",
        f"  verdict = {'all verified' if ok else 'NOT ALL VERIFIED'}",
    ]
    csv = ["m,depth_requested,depth_verified,verdict,level"]
    for m in sorted(ledger.records):
        rec = ledger.records[m]
        csv.append(
            f"{rec.m},{rec.depth_requested},{rec.depth_verified},{rec.verdict},"
            f"{'' if rec.level is None else rec.level}"
        )
    return Output(ok, ledger.to_json(), plain, csv)


_HANDLERS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "bounds": _cmd_bounds,
    "identities": _cmd_identities,
    "quad": _cmd_quad,
    "scan": _cmd_scan,
}


def _render(output: Output, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(output.payload, indent=2)
    if fmt == "csv":
        return "\n".join(output.csv)
    return "\n".join(output.plain)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        output = _HANDLERS[args.command](args)
    except (ValueError, OverflowError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = _render(output, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if output.ok else 1


if __name__ == "__main__":
    sys.exit(main())
