"""Range verification of iterated ratio monotonicity with a resumable ledger.

For each m in a range the coefficient row is generated once and checked for
(strict) ratio monotonicity on the first ``depth`` iterates of the
squared-difference operator.  Verdicts are appended to a JSON-lines ledger:

    {"record": "header", "version": 1, "m_from": ..., "m_to": ...,
     "depth": ..., "strict": ..., "property": "ratio-monotone"}
    {"record": "cell", "m": ..., "depth_requested": ..., "depth_verified": ...,
     "verdict": "verified" | "failed" | "positivity-failed", "level": ...,
     "witness": ..., "wall_time": ..., "timestamp": ...}

The ledger is append-only and line-granular (each record is flushed with its
newline), so an interrupted scan leaves a valid file, at worst with a torn
last line, which loading skips and a resume cuts off before it appends;
re-running skips every m that already has a terminal record.  Resuming with
different parameters is refused with the exact difference.  A scan holds an
exclusive advisory lock on the ledger while it appends, so a second scan on
the same ledger fails at once instead of interleaving records.  Workers may
verify distinct m concurrently; all appends go through the single
coordinating process, and verdicts are order-independent, so interrupt
patterns and worker counts never change the outcome.

Rows are checked as the integer vector 4^m d_i(m) divided by its gcd (see
:func:`row_property`), so the comparisons take the fast int path of
:mod:`bmtk.seqprops`.

A finite tool cannot certify the infinite-depth conjecture; the strongest
statement a ledger makes is "verified to the requested depth for this range".
:func:`deep_probe` pushes one m as deep as a bit budget allows and reports
why iteration stopped.
"""

from __future__ import annotations

import fcntl
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .bmcoeff import CoeffRow, closed_form_row
from .seqprops import (
    RATIO_MONOTONE,
    PropertyVerdict,
    is_ratio_monotone,
    k_property,
    l_operator,
)

__all__ = [
    "ScanParams",
    "ScanRecord",
    "ScanLedger",
    "LedgerMismatchError",
    "LedgerLockedError",
    "VERDICT_VERIFIED",
    "VERDICT_FAILED",
    "VERDICT_POSITIVITY",
    "row_property",
    "verify_cell",
    "scan",
    "scan_resume",
    "load_ledger",
    "ProbeReport",
    "deep_probe",
]

LEDGER_VERSION = 1

VERDICT_VERIFIED = "verified"
VERDICT_FAILED = "failed"
VERDICT_POSITIVITY = "positivity-failed"


class LedgerMismatchError(ValueError):
    """Existing ledger was written with different parameters."""


class LedgerLockedError(ValueError):
    """Another scan holds the ledger's append lock."""


@dataclass(frozen=True)
class ScanParams:
    m_from: int
    m_to: int
    depth: int
    strict: bool

    def validate(self) -> None:
        if not 2 <= self.m_from <= self.m_to:
            raise ValueError(
                f"need 2 <= m_from <= m_to, got {self.m_from}..{self.m_to}"
            )
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")

    def header(self) -> dict:
        return {
            "record": "header",
            "version": LEDGER_VERSION,
            "m_from": self.m_from,
            "m_to": self.m_to,
            "depth": self.depth,
            "strict": self.strict,
            "property": RATIO_MONOTONE,
        }

    @classmethod
    def from_header(cls, obj: dict) -> "ScanParams":
        return cls(int(obj["m_from"]), int(obj["m_to"]), int(obj["depth"]), bool(obj["strict"]))


@dataclass(frozen=True)
class ScanRecord:
    m: int
    depth_requested: int
    depth_verified: int
    verdict: str
    level: int | None
    witness: dict | None
    wall_time: float
    timestamp: str

    def to_json(self) -> dict:
        return {
            "record": "cell",
            "m": self.m,
            "depth_requested": self.depth_requested,
            "depth_verified": self.depth_verified,
            "verdict": self.verdict,
            "level": self.level,
            "witness": self.witness,
            "wall_time": self.wall_time,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ScanRecord":
        return cls(
            m=int(obj["m"]),
            depth_requested=int(obj["depth_requested"]),
            depth_verified=int(obj["depth_verified"]),
            verdict=str(obj["verdict"]),
            level=obj["level"],
            witness=obj["witness"],
            wall_time=float(obj["wall_time"]),
            timestamp=str(obj["timestamp"]),
        )


@dataclass
class ScanLedger:
    path: Path
    params: ScanParams
    records: dict[int, ScanRecord] = field(default_factory=dict)

    @property
    def all_verified(self) -> bool:
        wanted = range(self.params.m_from, self.params.m_to + 1)
        return all(
            m in self.records and self.records[m].verdict == VERDICT_VERIFIED
            for m in wanted
        )

    def to_json(self) -> dict:
        return {
            "params": self.params.header(),
            "cells": [self.records[m].to_json() for m in sorted(self.records)],
            "all_verified": self.all_verified,
        }


def row_property(row: CoeffRow, depth: int, prop: str, strict: bool) -> PropertyVerdict:
    """:func:`~bmtk.seqprops.k_property` of the row's coefficients.

    Every predicate is invariant under positive scaling and L is homogeneous
    of degree 2, so the integer vector 4^m d_i(m), divided by its gcd, gives
    the verdicts of the dyadic row.  A witness records exact values of the
    dyadic iterates, so a failing row is checked again in that form.
    """
    g = math.gcd(*row.scaled)
    verdict = k_property(tuple(x // g for x in row.scaled), depth, prop, strict)
    if not verdict.holds:
        verdict = k_property(row.coeffs, depth, prop, strict)
    return verdict


def verify_cell(m: int, depth: int, strict: bool) -> ScanRecord:
    """Generate the row for m and check ratio monotonicity to ``depth``."""
    start = time.perf_counter()
    verdict = row_property(closed_form_row(m), depth, RATIO_MONOTONE, strict)
    elapsed = time.perf_counter() - start
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if verdict.holds:
        return ScanRecord(m, depth, depth, VERDICT_VERIFIED, None, None, elapsed, stamp)
    kind = (
        VERDICT_POSITIVITY
        if verdict.witness is not None and verdict.witness.kind == "positivity"
        else VERDICT_FAILED
    )
    witness = verdict.witness.to_json() if verdict.witness else None
    return ScanRecord(m, depth, verdict.level, kind, verdict.level, witness, elapsed, stamp)


def _cell_worker(args: tuple[int, int, bool]) -> ScanRecord:
    return verify_cell(*args)


def load_ledger(path: Path | str) -> ScanLedger:
    """Parse a ledger file; a trailing partially-written line is ignored."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"ledger {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"ledger {path} line 1: {exc.msg} at column {exc.colno}") from exc
    if header.get("record") != "header" or header.get("version") != LEDGER_VERSION:
        raise ValueError(f"ledger {path} has no valid header line")
    lineno = 1  # the file line being parsed
    try:
        ledger = ScanLedger(path, ScanParams.from_header(header))
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines):
                    break  # interrupted mid-append; the cell will be redone
                raise ValueError(
                    f"ledger {path} line {lineno}: {exc.msg} at column {exc.colno}"
                ) from exc
            if obj.get("record") != "cell":
                raise ValueError(f"ledger {path} line {lineno}: unexpected record")
            record = ScanRecord.from_json(obj)
            ledger.records.setdefault(record.m, record)
    except KeyError as exc:
        raise ValueError(f"ledger {path} line {lineno}: missing field {exc.args[0]!r}") from None
    return ledger


def _end_last_line(path: Path) -> None:
    """Make the ledger end with a newline before records are appended.

    An interrupted append can leave a last line without its newline.  If that
    line is a complete record, :func:`load_ledger` has counted it, so it gets
    its newline; otherwise it is a torn fragment, which load_ledger skipped,
    and it is cut off.
    """
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1
    try:
        json.loads(data[cut:])
        complete = True
    except ValueError:
        complete = False
    with path.open("r+b") as fh:
        if complete:
            fh.seek(0, 2)
            fh.write(b"\n")
        else:
            fh.truncate(cut)


def _param_diff(existing: ScanParams, wanted: ScanParams) -> str:
    parts = []
    for name in ("m_from", "m_to", "depth", "strict"):
        a, b = getattr(existing, name), getattr(wanted, name)
        if a != b:
            parts.append(f"{name}: ledger={a} requested={b}")
    return "; ".join(parts)


def scan(
    m_from: int,
    m_to: int,
    depth: int,
    strict: bool,
    ledger_path: Path | str,
    workers: int = 1,
) -> ScanLedger:
    """Verify every m in the range, appending verdicts; create the ledger if
    missing, resume it (skipping completed cells) if present."""
    params = ScanParams(m_from, m_to, depth, strict)
    params.validate()
    path = Path(ledger_path)
    if path.exists():
        ledger = load_ledger(path)
        if ledger.params != params:
            raise LedgerMismatchError(
                f"ledger {path} parameter mismatch: {_param_diff(ledger.params, params)}"
            )
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(params.header()) + "\n")
        ledger = ScanLedger(path, params)

    todo = [m for m in range(m_from, m_to + 1) if m not in ledger.records]
    if not todo:
        return ledger

    with path.open("a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise LedgerLockedError(
                f"ledger {path} is locked by another scan"
            ) from None
        _end_last_line(path)

        def append(record: ScanRecord) -> None:
            ledger.records[record.m] = record
            fh.write(json.dumps(record.to_json()) + "\n")
            fh.flush()

        if workers <= 1:
            for m in todo:
                append(verify_cell(m, depth, strict))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_cell_worker, (m, depth, strict)) for m in todo]
                for future in as_completed(futures):
                    append(future.result())
    return ledger


def scan_resume(
    ledger_path: Path | str,
    m_from: int,
    m_to: int,
    depth: int,
    strict: bool,
    workers: int = 1,
) -> ScanLedger:
    """Like :func:`scan`, but the ledger must already exist."""
    path = Path(ledger_path)
    if not path.exists():
        raise FileNotFoundError(f"no ledger at {path}")
    return scan(m_from, m_to, depth, strict, path, workers)


@dataclass
class ProbeReport:
    m: int
    max_depth: int
    bit_budget: int
    confirmed_depth: int  # number of levels confirmed strictly ratio monotone
    stop_reason: str  # "max-depth" | "bit-budget" | "failed" | "positivity-failed"
    levels: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "max_depth": self.max_depth,
            "bit_budget": self.bit_budget,
            "confirmed_depth": self.confirmed_depth,
            "stop_reason": self.stop_reason,
            "levels": self.levels,
        }


def deep_probe(m: int, max_depth: int, bit_budget: int = 1 << 22) -> ProbeReport:
    """Iterate the squared-difference operator on the row for m while every
    entry stays positive and below ``bit_budget`` numerator bits, checking
    strict ratio monotonicity at each level.

    Entry magnitudes square at every level, so numerator bits roughly double;
    the default budget of 2^22 bits per entry comfortably covers several
    levels at m around 100.
    """
    if m < 2:
        raise ValueError(f"requires m >= 2, got {m}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    report = ProbeReport(m, max_depth, bit_budget, 0, "max-depth")
    current = closed_form_row(m).coeffs
    for level in range(max_depth):
        bits = max(abs(x.num).bit_length() for x in current)
        if bits > bit_budget:
            report.stop_reason = "bit-budget"
            return report
        verdict = is_ratio_monotone(current, strict=True)
        holds = verdict.holds
        report.levels.append({"level": level, "max_bits": bits, "holds": holds})
        if not holds:
            report.stop_reason = (
                "positivity-failed"
                if verdict.witness and verdict.witness.kind == "positivity"
                else "failed"
            )
            return report
        report.confirmed_depth = level + 1
        if level + 1 < max_depth:
            current = l_operator(current)
    report.stop_reason = "max-depth"
    return report
