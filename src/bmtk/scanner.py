"""Range verification of iterated ratio monotonicity with a resumable ledger.

For each m in a range the coefficient row is checked for (strict) ratio
monotonicity on the first ``depth`` iterates of the squared-difference
operator.  Verdicts are appended to a JSON-lines ledger, one object a line,
with its keys in this order:

    {"record": "header", "version": 1, "m_from": int, "m_to": int,
     "depth": int, "strict": bool, "property": "ratio-monotone"}
    {"record": "cell", "m": int, "depth_requested": int, "depth_verified": int,
     "verdict": str, "level": int | null, "witness": object | null,
     "wall_time": float, "timestamp": str}

The keys between ``record`` (and the header's ``version``) and ``property``
are the fields of :class:`ScanParams` and :class:`ScanRecord`, in the order
they are declared, and those declarations are the format's only statement.
Loading takes each value's exact JSON type from its field's annotation: a
bool is not an int, an int within the float range is read as a float where a
float is due, and null is accepted only where the annotation allows None.  A
header's ``property`` is "ratio-monotone", and its parameters are ones
:func:`scan` accepts: constructing :class:`ScanParams` checks them, so a
header that ``scan`` would refuse is refused on load, with the same text.
A cell's ``verdict`` is one of "verified", "failed" and "positivity-failed",
its ``m`` lies in the header's ``m_from..m_to``, its ``depth_requested`` is
the header's ``depth``, and so is its ``depth_verified`` if it is verified; a
line breaking any of this is refused.

``wall_time`` is the time :func:`verify_cell` spends checking the cell's row,
in seconds rounded to the microsecond; generating the row is not part of it.

Rows are walked, not rebuilt: the m still to do are cut into segments of at
most ``_SEGMENT`` consecutive values.  A segment is seeded with the closed-form
row of the m before its first, and ``recu1_row`` steps to each of its m, whose
row is checked as soon as it is made.  The walk's last row must equal the
closed-form row bit for bit, and the four-term relation recu4 must vanish on it
at a few indices; only then are the segment's cells appended.  A mismatch is an
ArithmeticError naming m, and none of that segment's cells is recorded.

A new ledger appears with its whole header at once (a temporary file linked
into place), so no kill leaves it empty.  The ledger is append-only and
line-granular (each record is flushed with its newline), so an interrupted
scan leaves a valid file, at worst with a torn line: the bytes after its last
newline, and only those.  A torn line that is not valid UTF-8 JSON is skipped
by loading and cut off by a resume before it appends; one that is a complete
record counts, and a resume ends it with its newline.  A line that ends with a
newline and does not decode or parse, a blank one included, is corrupt, and
refused with its line number.
Re-running skips every m that already has a terminal record, so a kill loses
at most one segment of work per worker.  Resuming with different parameters is
refused with the exact difference.  A scan takes an exclusive advisory lock on
the ledger before it reads it and holds it while it appends, so a second scan
on the same ledger fails at once, without reading it, instead of interleaving
records.  The ledger is opened for writing only when a cell is due, so a rerun
with nothing to do writes nothing.  Workers may walk distinct segments
concurrently; all appends go through the single coordinating process, and
verdicts are order-independent, so interrupt patterns and worker counts never
change the outcome.  A segment that raises ends the scan: the segments still
waiting in the pool are cancelled, and the error is raised once those already
handed to a worker end.

Each row is checked once, by :func:`~bmtk.seqprops.k_property`, as the
integer vector 4^m d_i(m) over the unit 4^-m.  It decides every level on
enclosures of the ``L`` iterates, at 30 bits and, from the first level each
precision misses, at 64 and then 128, which need no gcd and prove a verified
cell without forming any iterate exactly (128 bits reach level 68 on the
ratio comparisons of row m=4000).  From the first level that no precision
proves, the row divided by its gcd is iterated exactly, and every
failing verdict and witness comes from that exact path; witnesses print as the
dyadic values of the row's iterates.  A cell whose exact iterate would pass
``k_property``'s size limit raises ValueError, which ends the scan; the
segments appended before it stay in the ledger.

A finite tool cannot certify the infinite-depth conjecture; the strongest
statement a ledger makes is "verified to the requested depth for this range".
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
import time
import typing
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

from .bmcoeff import CoeffRow, closed_form_row, recu1_row, recu4_residual
from .seqprops import RATIO_MONOTONE, k_property
from .seqprops import l_operator  # noqa: F401  perfbench's tracer patches it here

__all__ = [
    "ScanParams",
    "ScanRecord",
    "ScanLedger",
    "LedgerMismatchError",
    "LedgerLockedError",
    "VERDICT_VERIFIED",
    "VERDICT_FAILED",
    "VERDICT_POSITIVITY",
    "verify_cell",
    "scan",
    "load_ledger",
]

LEDGER_VERSION = 1

VERDICT_VERIFIED = "verified"
VERDICT_FAILED = "failed"
VERDICT_POSITIVITY = "positivity-failed"
_VERDICTS = (VERDICT_VERIFIED, VERDICT_FAILED, VERDICT_POSITIVITY)

# The most consecutive m walked from one closed-form seed, and so the most
# cells a failed cross-check or a kill can cost.
_SEGMENT = 32


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

    def __post_init__(self) -> None:
        if not 2 <= self.m_from <= self.m_to:
            raise ValueError(
                f"need 2 <= m_from <= m_to, got {self.m_from}..{self.m_to}"
            )
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")

    def header(self) -> dict:
        return {
            "record": "header", "version": LEDGER_VERSION, **vars(self), "property": RATIO_MONOTONE
        }


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
        return {"record": "cell", **vars(self)}


def _json_types(cls: type) -> list[tuple[str, str, tuple[type, ...]]]:
    """Per field of the dataclass ``cls``: its name, its annotation as written
    and the JSON value types that annotation admits."""
    hints = typing.get_type_hints(cls)
    return [(f.name, f.type, typing.get_args(hints[f.name]) or (hints[f.name],))
            for f in fields(cls)]


_FORMATS = {cls: _json_types(cls) for cls in (ScanParams, ScanRecord)}


def _decode(cls: type, obj: dict):
    """The ``cls`` whose fields ``obj`` holds, each of a JSON type that its
    annotation admits; an int within the float range is read as a float where
    the annotation admits floats.  A missing field is a KeyError, a wrongly
    typed one a ValueError."""
    values = []
    for name, annotation, kinds in _FORMATS[cls]:
        value = obj[name]
        if float in kinds and type(value) is int and abs(value) <= sys.float_info.max:
            value = float(value)
        if type(value) not in kinds:
            raise ValueError(f"field {name!r} is not {annotation}: {value!r}")
        values.append(value)
    return cls(*values)


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


def verify_cell(row: CoeffRow, depth: int, strict: bool) -> ScanRecord:
    """Check ratio monotonicity of ``row`` to ``depth``; the record's
    ``wall_time`` is the time the check took, to the microsecond."""
    start = time.perf_counter()
    verdict = k_property(row, depth, RATIO_MONOTONE, strict)
    elapsed = round(time.perf_counter() - start, 6)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    m = row.m
    if verdict.holds:
        return ScanRecord(m, depth, depth, VERDICT_VERIFIED, None, None, elapsed, stamp)
    # a failing verdict always carries its witness
    witness = verdict.witness
    kind = VERDICT_POSITIVITY if witness.kind == "positivity" else VERDICT_FAILED
    return ScanRecord(m, depth, verdict.level, kind, verdict.level, witness.to_json(), elapsed, stamp)


def _scan_segment(first: int, last: int, depth: int, strict: bool) -> list[ScanRecord]:
    """Records for m = first..last, walked by recu1 from the closed form at first-1.

    Each row is checked as soon as it is made and only the current one is
    kept.  The walk's last row must equal the closed form and satisfy recu4
    at its first nontrivial index, its middle and its top; otherwise, or if a
    step's division is inexact, this raises an ArithmeticError naming m and
    returns no record.
    """
    row = closed_form_row(first - 1)
    records = []
    for m in range(first, last + 1):
        try:
            row = recu1_row(row)
        except ArithmeticError as exc:
            raise ArithmeticError(f"recu1 walk from m={first} fails at m={m}: {exc}") from None
        records.append(verify_cell(row, depth, strict))
    if row.scaled != closed_form_row(last).scaled or any(
        recu4_residual(row, i).num for i in (2, (last + 3) // 2, last + 1)
    ):
        raise ArithmeticError(
            f"recu1 walk from m={first} disagrees with the closed form at m={last}"
        )
    return records


def _segments(todo: list[int], length: int) -> list[list[int]]:
    """``[first, last]`` of each run of consecutive m in the sorted ``todo``,
    cut into pieces of at most ``length`` values."""
    runs: list[list[int]] = []
    for m in todo:
        if runs and m == runs[-1][1] + 1 and m - runs[-1][0] < length:
            runs[-1][1] = m
        else:
            runs.append([m, m])
    return runs


def _parse(path: Path, data: bytes) -> tuple[ScanLedger, int]:
    """:func:`load_ledger`'s parser: the ledger held in ``data``, the bytes of
    the file ``path``, and the offset at which its complete records end, which
    is the start of the torn line if that is skipped and the end of ``data``
    otherwise."""
    if not data:
        raise ValueError(f"ledger {path} is empty")
    lines = data.split(b"\n")
    lineno = 1  # the file line being parsed
    try:
        header = json.loads(lines[0].decode())
        if not isinstance(header, dict):
            raise ValueError("not a JSON object")
        if header.get("record") != "header" or header.get("version") != LEDGER_VERSION:
            raise ValueError("not a valid header")
        params = _decode(ScanParams, header)
        if header["property"] != RATIO_MONOTONE:
            raise ValueError(f"field 'property' is not {RATIO_MONOTONE!r}: {header['property']!r}")
        ledger = ScanLedger(path, params)
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                obj = json.loads(line.decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                if lineno == len(lines):  # the torn line
                    return ledger, data.rfind(b"\n") + 1
                raise
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            if obj.get("record") != "cell":
                raise ValueError("unexpected record")
            record = _decode(ScanRecord, obj)
            if record.verdict not in _VERDICTS:
                raise ValueError(f"field 'verdict' is not one of {_VERDICTS}: {record.verdict!r}")
            if not params.m_from <= record.m <= params.m_to:
                raise ValueError(f"field 'm' is not in {params.m_from}..{params.m_to}: {record.m}")
            if record.depth_requested != params.depth:
                raise ValueError(
                    f"field 'depth_requested' is not the header's depth {params.depth}: "
                    f"{record.depth_requested}"
                )
            if record.verdict == VERDICT_VERIFIED and record.depth_verified != params.depth:
                raise ValueError(
                    f"field 'depth_verified' is not the header's depth {params.depth}: "
                    f"{record.depth_verified}"
                )
            ledger.records.setdefault(record.m, record)
    except json.JSONDecodeError as exc:
        problem = f"{exc.msg} (column {exc.colno})"
    except UnicodeDecodeError as exc:
        problem = f"not UTF-8: {exc.reason} (column {exc.start + 1})"
    except KeyError as exc:
        problem = f"missing field {exc.args[0]!r}"
    except ValueError as exc:
        problem = str(exc)
    else:
        return ledger, len(data)
    raise ValueError(f"ledger {path} line {lineno}: {problem}")


def load_ledger(path: Path | str) -> ScanLedger:
    """Parse a ledger file.

    A line ends with a newline.  The bytes after the last newline are the
    torn line that an interrupted append leaves: it is skipped if it is not
    valid UTF-8 JSON, and read like any other line if it is, so a complete
    record that lacks only its newline counts.  Any other line that is not
    UTF-8, not valid JSON, not a JSON object, or a record with a missing or
    wrongly typed field is a ValueError naming its line, and so is a blank
    line, a header whose parameters :func:`scan` would refuse or whose
    ``property`` is not "ratio-monotone", and a cell whose verdict is
    none of the three, whose m lies outside the header's range, whose
    ``depth_requested`` is not the header's ``depth``, or that is verified to
    another depth.
    """
    path = Path(path)
    return _parse(path, path.read_bytes())[0]


def _param_diff(existing: ScanParams, wanted: ScanParams) -> str:
    names = (f.name for f in fields(ScanParams))
    pairs = ((name, getattr(existing, name), getattr(wanted, name)) for name in names)
    return "; ".join(f"{name}: ledger={a} requested={b}" for name, a, b in pairs if a != b)


def _create_ledger(path: Path, params: ScanParams) -> None:
    """Create the ledger holding just its header, unless it exists.

    The header is written to a temporary file in the ledger's directory and
    hard-linked to the ledger's name, so the ledger never exists without its
    whole header: a failed write leaves no ledger, and a kill at worst a
    stray temporary file.  Linking fails on an existing name, so a ledger
    that appeared meanwhile is never truncated.  An existing ledger is left
    alone without a temporary file, so a rerun writes nothing to its
    directory.
    """
    if path.exists():
        return
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = tmp.open("x")
    except OSError as exc:  # a missing directory, say: name the ledger
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            fh.write(json.dumps(params.header()) + "\n")
        os.link(tmp, path)
    except FileExistsError:
        pass  # an existing ledger is resumed, never truncated
    finally:
        tmp.unlink()


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
    path = Path(ledger_path)
    _create_ledger(path, params)
    with path.open("rb") as held:  # flock needs no write access
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise LedgerLockedError(f"ledger {path} is locked by another scan") from None
        data = held.read()
        ledger, end = _parse(path, data)
        if ledger.params != params:
            raise LedgerMismatchError(
                f"ledger {path} parameter mismatch: {_param_diff(ledger.params, params)}"
            )
        todo = [m for m in range(m_from, m_to + 1) if m not in ledger.records]
        if not todo:
            return ledger

        with path.open("a") as fh:
            fh.truncate(end)  # cut off the torn line, if any
            if not data.endswith(b"\n", 0, end):  # a complete record without its newline
                fh.write("\n")

            def append(record: ScanRecord) -> None:
                ledger.records[record.m] = record
                fh.write(json.dumps(record.to_json()) + "\n")
                fh.flush()

            if workers <= 1:
                for first, last in _segments(todo, _SEGMENT):
                    for record in _scan_segment(first, last, depth, strict):
                        append(record)
            else:
                from concurrent.futures import ProcessPoolExecutor, as_completed

                # several segments per worker, so short ranges stay parallel
                length = max(1, min(_SEGMENT, len(todo) // (4 * workers)))
                segments = _segments(todo, length)
                # the pool forks all its workers at once: no more than segments or cores
                size = min(workers, len(segments), os.cpu_count() or 1)
                with ProcessPoolExecutor(max_workers=size) as pool:
                    futures = [
                        pool.submit(_scan_segment, first, last, depth, strict)
                        for first, last in segments
                    ]
                    try:
                        for future in as_completed(futures):
                            for record in future.result():
                                append(record)
                    except BaseException:
                        # wait only for the segments handed to a worker, not every queued one
                        pool.shutdown(cancel_futures=True)
                        raise
    return ledger
