"""Tests for the range scanner and its resumable ledger."""

import concurrent.futures
import errno
import fcntl
import json
import math
import multiprocessing
import re
from concurrent.futures import Future, ProcessPoolExecutor
from decimal import Decimal

import pytest

from bmtk import CoeffRow, Method, closed_form_row, k_property, scanner, seqprops
from bmtk.seqprops import RATIO_MONOTONE
from bmtk.scanner import (
    VERDICT_FAILED,
    VERDICT_POSITIVITY,
    VERDICT_VERIFIED,
    LedgerLockedError,
    LedgerMismatchError,
    load_ledger,
    scan,
    verify_cell,
)


def test_verify_cell_verified():
    record = verify_cell(closed_form_row(8), 2, strict=True)
    assert record.verdict == VERDICT_VERIFIED
    assert record.depth_verified == 2
    assert record.witness is None


def test_scan_range_all_verified(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = scan(2, 12, 2, True, path)
    assert ledger.all_verified
    assert sorted(ledger.records) == list(range(2, 13))
    lines = path.read_text().splitlines()
    assert len(lines) == 12  # header + 11 cells
    assert json.loads(lines[0])["record"] == "header"


def test_scan_rerun_is_a_noop(tmp_path):
    path = tmp_path / "ledger.jsonl"
    first = scan(2, 10, 2, True, path)
    size = path.stat().st_size
    second = scan(2, 10, 2, True, path)
    assert path.stat().st_size == size
    assert {m: r.verdict for m, r in second.records.items()} == {
        m: r.verdict for m, r in first.records.items()
    }


def test_cell_wall_time_has_at_most_six_decimals(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 12, 2, True, path)
    for line in path.read_text().splitlines()[1:]:
        text = re.search(r'"wall_time": ([^,}]+)', line).group(1)
        assert Decimal(text).as_tuple().exponent >= -6, text


def test_ledger_with_unrounded_wall_times_loads_and_resumes(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 12, 2, True, path)
    lines = path.read_text().splitlines()
    old = [lines[0]]
    for line in lines[1:5]:
        record = json.loads(line)
        record["wall_time"] = 0.00012345678901234567
        old.append(json.dumps(record))
    path.write_text("\n".join(old) + "\n")
    resumed = scan(2, 12, 2, True, path)
    assert resumed.all_verified
    assert sorted(resumed.records) == list(range(2, 13))
    assert [resumed.records[m].wall_time for m in range(2, 6)] == [0.00012345678901234567] * 4


def test_scan_resume_after_interrupt(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 12, 2, True, path)
    fresh = {m: r.verdict for m, r in load_ledger(path).records.items()}
    # simulate an interrupt: keep the header and the first four cells
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    resumed = scan(2, 12, 2, True, path)
    assert sorted(resumed.records) == list(range(2, 13))
    assert {m: r.verdict for m, r in resumed.records.items()} == fresh
    # no duplicated cells
    ms = [json.loads(l)["m"] for l in path.read_text().splitlines()[1:]]
    assert sorted(ms) == sorted(set(ms))


def test_scan_tolerates_partial_trailing_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    with path.open("a") as fh:
        fh.write('{"record": "cell", "m": 9')  # no newline: torn write
    ledger = load_ledger(path)
    assert sorted(ledger.records) == list(range(2, 9))
    resumed = scan(2, 8, 1, True, path)  # same parameters: clean resume
    assert resumed.all_verified


def _ledger_ms(path):
    """m of every cell line; each line must parse on its own."""
    return [json.loads(line)["m"] for line in path.read_text().splitlines()[1:]]


def test_scan_resumes_unfinished_range_after_torn_write(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fresh = {m: r.verdict for m, r in scan(2, 12, 2, True, path).records.items()}
    lines = path.read_text().splitlines(keepends=True)
    # header and four cells, then half of the fifth cell's line
    path.write_text("".join(lines[:5]) + lines[5][: len(lines[5]) // 2])
    scan(2, 12, 2, True, path)
    reloaded = load_ledger(path)
    assert {m: r.verdict for m, r in reloaded.records.items()} == fresh
    assert sorted(_ledger_ms(path)) == list(range(2, 13))


def test_scan_resume_keeps_complete_record_missing_its_newline(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 12, 2, True, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5]).rstrip("\n"))
    scan(2, 12, 2, True, path)
    assert sorted(_ledger_ms(path)) == list(range(2, 13))
    assert load_ledger(path).all_verified


def test_scan_refuses_corrupt_last_line_ending_in_newline_and_leaves_it(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1][:20] + "\n"  # cut short, newline kept: corrupt, not torn
    path.write_text("".join(lines))
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"ledger .* line 8: Unterminated string"):
        scan(2, 8, 1, True, path)
    assert path.read_bytes() == before


def test_scan_refused_at_the_lock_reads_no_byte(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    scan(2, 12, 2, True, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5]))

    def no_parse(*args):
        raise AssertionError("the ledger was parsed")

    monkeypatch.setattr(scanner, "_parse", no_parse)
    with path.open("rb") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(LedgerLockedError, match="locked"):
            scan(2, 12, 2, True, path)


def test_rerun_with_nothing_to_do_opens_the_ledger_only_for_reading(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    scan(2, 10, 2, True, path)
    before = path.stat()
    real_open = type(path).open

    def read_only(self, mode="r", *args, **kwargs):
        if self == path and set(mode) & set("wxa+"):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(type(path), "open", read_only)
    assert scan(2, 10, 2, True, path).all_verified
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def test_rerun_leaves_the_ledger_directory_untouched(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    scan(2, 10, 2, True, path)
    before = (sorted(tmp_path.iterdir()), tmp_path.stat().st_mtime_ns)

    def no_link(*args):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(scanner.os, "link", no_link)
    assert scan(2, 10, 2, True, path).all_verified
    assert (sorted(tmp_path.iterdir()), tmp_path.stat().st_mtime_ns) == before


def test_ledger_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    lines = path.read_bytes().splitlines(keepends=True)
    column = lines[3].index(b"verified") + 7
    lines[3] = lines[3].replace(b"verified", b"verifi\xffd")
    path.write_bytes(b"".join(lines))
    before = path.read_bytes()
    with pytest.raises(ValueError) as info:
        scan(2, 8, 1, True, path)
    assert str(info.value) == (
        f"ledger {path} line 4: not UTF-8: invalid start byte (column {column})"
    )
    assert path.read_bytes() == before


def test_torn_line_that_is_not_utf8_is_skipped_and_cut_off(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:5]) + lines[5][:30] + b"\xff")
    assert sorted(load_ledger(path).records) == [2, 3, 4, 5]
    assert scan(2, 8, 1, True, path).all_verified
    assert sorted(_ledger_ms(path)) == list(range(2, 9))


# Rows for m=4 that are not strictly ratio monotone at level 0; non-strictly,
# the first fails a comparison at level 1 and the second positivity there.
FAILING_ROWS = (
    (2, 5, 6, 5, 2),
    (1, 2, 4, 2, 1),
)


@pytest.mark.parametrize("nums", FAILING_ROWS)
@pytest.mark.parametrize("strict", (True, False))
def test_failing_cell_keeps_its_exact_witness(nums, strict):
    row = CoeffRow(4, tuple(x << 5 for x in nums), Method.CLOSED_FORM)  # d_i = x/2^3
    expected = k_property(row.coeffs, 3, RATIO_MONOTONE, strict)
    assert not expected.holds
    record = verify_cell(row, 3, strict)
    assert record.m == 4
    assert record.witness == expected.witness.to_json()
    assert record.level == expected.level
    assert record.verdict == (
        VERDICT_POSITIVITY if expected.witness.kind == "positivity" else VERDICT_FAILED
    )


def _stable(record):
    return {k: v for k, v in record.to_json().items() if k not in ("wall_time", "timestamp")}


def _unreduced_record(m, depth, strict):
    """verify_cell without the gcd: the integer vector 4^m d_i(m) as is."""
    row = closed_form_row(m)
    verdict = k_property(row.scaled, depth, RATIO_MONOTONE, strict)
    if not verdict.holds:
        verdict = k_property(row.coeffs, depth, RATIO_MONOTONE, strict)
    if verdict.holds:
        return scanner.ScanRecord(m, depth, depth, VERDICT_VERIFIED, None, None, 0.0, "")
    kind = VERDICT_POSITIVITY if verdict.witness.kind == "positivity" else VERDICT_FAILED
    return scanner.ScanRecord(
        m, depth, verdict.level, kind, verdict.level, verdict.witness.to_json(), 0.0, ""
    )


@pytest.mark.parametrize("strict", (True, False))
def test_gcd_reduced_cells_match_unreduced_records(strict):
    for m in range(2, 41):
        assert _stable(verify_cell(closed_form_row(m), 3, strict)) == _stable(
            _unreduced_record(m, 3, strict)
        )


def test_corrupt_middle_line_reports_its_file_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = "{not json\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"ledger .* line 4: "):
        load_ledger(path)


def test_record_missing_a_field_reports_its_file_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    good = path.read_text()
    path.write_text(good + '{"record": "cell", "m": 9}\n')
    with pytest.raises(ValueError, match=r"ledger .* line 9: missing field 'depth_requested'"):
        load_ledger(path)
    header, rest = good.split("\n", 1)
    obj = json.loads(header)
    del obj["m_from"]
    path.write_text(json.dumps(obj) + "\n" + rest)
    with pytest.raises(ValueError, match=r"ledger .* line 1: missing field 'm_from'"):
        load_ledger(path)


def _cell(**fields):
    """A cell line for m=4 of scan(2, 8, 1, True), with ``fields`` replaced."""
    cell = {"record": "cell", "m": 4, "depth_requested": 1, "depth_verified": 1,
            "verdict": "verified", "level": None, "witness": None, "wall_time": 0.0,
            "timestamp": "2026-01-01T00:00:00+00:00"}
    return json.dumps({**cell, **fields})


def _header(**fields):
    """The header line of scan(2, 8, 1, True), with ``fields`` replaced."""
    return json.dumps(
        {"record": "header", "version": 1, "m_from": 2, "m_to": 8, "depth": 1, "strict": True,
         "property": RATIO_MONOTONE, **fields}
    )


# file line, replacement text, expected problem; for ledgers of scan(2, 8, 1, True)
WRONG_SHAPES = {
    "header-not-object": (1, "[]", "not a JSON object"),
    "header-wrong-record": (1, '{"record": "cell", "version": 1}', "not a valid header"),
    "header-null-field": (
        1,
        '{"record": "header", "version": 1, "m_from": null, "m_to": 8, "depth": 1, "strict": true}',
        "field 'm_from' is not int: None",
    ),
    "header-string-strict": (
        1,
        '{"record": "header", "version": 1, "m_from": 2, "m_to": 8, "depth": 1, "strict": "false"}',
        "field 'strict' is not bool: 'false'",
    ),
    "cell-list": (4, "[]", "not a JSON object"),
    "cell-number": (4, "3", "not a JSON object"),
    "cell-wrong-record": (4, '{"record": "header"}', "unexpected record"),
    "cell-null-m": (4, '{"record": "cell", "m": null}', "field 'm' is not int: None"),
    "cell-string-m": (4, '{"record": "cell", "m": "x"}', "field 'm' is not int: 'x'"),
    "header-string-depth": (1, _header(depth="1"), "field 'depth' is not int: '1'"),
    "header-float-m_from": (1, _header(m_from=2.0), "field 'm_from' is not int: 2.0"),
    "cell-float-m": (4, _cell(m=4.9), "field 'm' is not int: 4.9"),
    "cell-bool-m": (4, _cell(m=True), "field 'm' is not int: True"),
    "cell-bool-depth": (4, _cell(depth_verified=False), "field 'depth_verified' is not int: False"),
    "cell-number-timestamp": (4, _cell(timestamp=5), "field 'timestamp' is not str: 5"),
    "cell-string-level": (4, _cell(level="0"), "field 'level' is not int | None: '0'"),
    "cell-list-witness": (4, _cell(witness=[]), "field 'witness' is not dict | None: []"),
    "cell-unknown-verdict": (
        4,
        _cell(verdict="maybe"),
        "field 'verdict' is not one of ('verified', 'failed', 'positivity-failed'): 'maybe'",
    ),
    "cell-unterminated-string": (
        4, '{"record": "cell", "m": "x', "Unterminated string starting at (column 25)"
    ),
    "cell-m-below-range": (4, _cell(m=1), "field 'm' is not in 2..8: 1"),
    "cell-m-above-range": (4, _cell(m=500), "field 'm' is not in 2..8: 500"),
    "header-missing-property": (
        1,
        '{"record": "header", "version": 1, "m_from": 2, "m_to": 8, "depth": 1, "strict": true}',
        "missing field 'property'",
    ),
    "header-other-property": (
        1,
        _header(property="log-concave"),
        "field 'property' is not 'ratio-monotone': 'log-concave'",
    ),
    "header-m-range-reversed": (
        1, _header(m_from=9, m_to=3, depth=0), "need 2 <= m_from <= m_to, got 9..3"
    ),
    "header-depth-0": (1, _header(depth=0), "depth must be >= 1, got 0"),
    "blank-line": (3, "", "Expecting value (column 1)"),
    "cell-depth-requested-not-header-depth": (
        4,
        _cell(depth_requested=3, depth_verified=3),
        "field 'depth_requested' is not the header's depth 1: 3",
    ),
    "cell-verified-to-other-depth": (
        4,
        _cell(depth_verified=0),
        "field 'depth_verified' is not the header's depth 1: 0",
    ),
}


@pytest.mark.parametrize("lineno, text, problem", WRONG_SHAPES.values(), ids=WRONG_SHAPES)
def test_wrong_shaped_line_reports_its_file_line(tmp_path, lineno, text, problem):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = text + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        load_ledger(path)
    assert str(info.value) == f"ledger {path} line {lineno}: {problem}"


def test_wrongly_typed_cell_field_reports_its_file_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    lines = path.read_text().splitlines(keepends=True)
    cell = json.loads(lines[-1])
    for field, value in (
        ("depth_verified", [1]),
        ("wall_time", "soon"),
        ("wall_time", None),
        ("wall_time", 10**400),  # an int past the float range
    ):
        lines[-1] = json.dumps({**cell, field: value}) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"ledger .* line 8: field '{field}' is not"):
            load_ledger(path)


def test_int_wall_time_loads_as_a_float(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 8, 1, True, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = _cell(wall_time=3) + "\n"
    path.write_text("".join(lines))
    wall_time = load_ledger(path).records[4].wall_time
    assert type(wall_time) is float and wall_time == 3.0


def test_ledger_lines_are_their_records_re_encoded(tmp_path, monkeypatch):
    fresh = tmp_path / "fresh.jsonl"
    scan(2, 12, 2, True, fresh)
    real = scanner.verify_cell

    def failing_at_4(row, depth, strict):
        if row.m == 4:
            row = CoeffRow(4, tuple(x << 5 for x in FAILING_ROWS[0]), Method.CLOSED_FORM)
        return real(row, depth, strict)

    monkeypatch.setattr(scanner, "verify_cell", failing_at_4)
    failing = tmp_path / "failing.jsonl"
    assert scan(2, 12, 2, True, failing).records[4].witness is not None
    for path in (fresh, failing):
        ledger = load_ledger(path)
        assert path.read_text().splitlines() == [json.dumps(ledger.params.header())] + [
            json.dumps(ledger.records[m].to_json()) for m in range(2, 13)
        ]


def test_second_writer_fails_fast_and_leaves_ledger_unchanged(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 12, 2, True, path)
    lines = path.read_text().splitlines(keepends=True)
    # an unfinished range ending in a torn line, which a resume would cut off
    path.write_text("".join(lines[:5]) + lines[5][:10])
    before = path.read_bytes()
    with path.open("a") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(LedgerLockedError, match="locked"):
            scan(2, 12, 2, True, path)
    assert path.read_bytes() == before
    assert scan(2, 12, 2, True, path).all_verified  # lock released: resumes


def test_scan_that_misses_a_new_ledger_does_not_truncate_it(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    scan(2, 20, 2, True, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:10]))  # header and 9 cells, still being appended to
    before = path.read_bytes()
    # the ledger appears between a check for the file and its creation
    monkeypatch.setattr(type(path), "exists", lambda self, **kw: False)
    with path.open("a") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(LedgerLockedError, match="locked"):
            scan(2, 20, 2, True, path)
    assert path.read_bytes() == before


def test_failed_ledger_creation_leaves_no_file_and_reruns(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    real_open = type(path).open

    class FullDisk:
        """A file whose first write stores five bytes, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:5])
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_on_full_disk(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return FullDisk(fh) if set(mode) & set("wxa") else fh

    with monkeypatch.context() as patch:
        patch.setattr(type(path), "open", open_on_full_disk)
        with pytest.raises(OSError, match="No space"):
            scan(2, 6, 2, True, path)
    assert list(tmp_path.iterdir()) == []
    assert scan(2, 6, 2, True, path).all_verified
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_foreign_empty_file_is_refused_and_left_alone(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="is empty"):
        scan(2, 6, 2, True, path)
    assert path.read_text() == ""
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_scan_parameter_mismatch_refused(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 10, 2, True, path)
    with pytest.raises(LedgerMismatchError, match="depth"):
        scan(2, 10, 3, True, path)
    with pytest.raises(LedgerMismatchError, match="strict"):
        scan(2, 10, 2, False, path)
    with pytest.raises(LedgerMismatchError, match="m_to"):
        scan(2, 11, 2, True, path)
    with pytest.raises(LedgerMismatchError) as info:
        scan(2, 11, 3, True, path)
    assert str(info.value) == (
        f"ledger {path} parameter mismatch: m_to: ledger=10 requested=11; depth: ledger=2 requested=3"
    )


def test_scan_argument_validation(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with pytest.raises(ValueError):
        scan(1, 10, 2, True, path)
    with pytest.raises(ValueError):
        scan(5, 4, 2, True, path)
    with pytest.raises(ValueError):
        scan(2, 10, 0, True, path)


@pytest.mark.parametrize(
    "params, problem",
    [
        ((1, 10, 2, True), "need 2 <= m_from <= m_to, got 1..10"),
        ((5, 4, 2, True), "need 2 <= m_from <= m_to, got 5..4"),
        ((2, 10, 0, False), "depth must be >= 1, got 0"),
    ],
    ids=["m_from-1", "reversed", "depth-0"],
)
def test_scan_and_load_refuse_the_same_headers(tmp_path, params, problem):
    path = tmp_path / "ledger.jsonl"
    with pytest.raises(ValueError) as info:
        scan(*params, path)
    assert str(info.value) == problem
    assert not path.exists()
    m_from, m_to, depth, strict = params
    path.write_text(_header(m_from=m_from, m_to=m_to, depth=depth, strict=strict) + "\n")
    with pytest.raises(ValueError) as info:
        load_ledger(path)
    assert str(info.value) == f"ledger {path} line 1: {problem}"
    before = path.read_bytes()
    with pytest.raises(ValueError) as info:
        scan(2, 4, 1, True, path)
    assert str(info.value) == f"ledger {path} line 1: {problem}"
    assert path.read_bytes() == before


def test_scan_with_workers_matches_sequential(tmp_path):
    seq_path = tmp_path / "seq.jsonl"
    par_path = tmp_path / "par.jsonl"
    sequential = scan(2, 10, 2, True, seq_path, workers=1)
    parallel = scan(2, 10, 2, True, par_path, workers=2)
    assert {m: r.verdict for m, r in sequential.records.items()} == {
        m: r.verdict for m, r in parallel.records.items()
    }


def test_ledger_verdicts_replayable(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = scan(2, 10, 2, True, path)
    for m, record in ledger.records.items():
        again = verify_cell(closed_form_row(m), record.depth_requested, True)
        assert again.verdict == record.verdict
        assert again.depth_verified == record.depth_verified


def test_rows_strictly_ratio_monotone_to_depth_6():
    for m in range(2, 41):
        verdict = k_property(closed_form_row(m), 6, RATIO_MONOTONE, strict=True)
        assert verdict.holds, m


def test_row_property_at_depth_5_matches_the_dyadic_iteration():
    for m in range(2, 13):
        row = closed_form_row(m)
        assert k_property(row, 5, RATIO_MONOTONE, True) == k_property(
            row.coeffs, 5, RATIO_MONOTONE, True
        ), m


# -- the segmented recu1 walk against the closed form ------------------------


def _closed_form_records(ms, depth):
    return {m: _stable(verify_cell(closed_form_row(m), depth, True)) for m in ms}


def test_walked_scan_matches_closed_form_cells(tmp_path):
    path = tmp_path / "seq.jsonl"
    ledger = scan(2, 100, 2, True, path, workers=1)
    expected = _closed_form_records(range(2, 101), 2)
    assert {m: _stable(r) for m, r in ledger.records.items()} == expected
    assert {m: _stable(r) for m, r in load_ledger(path).records.items()} == expected


def test_walked_scan_with_workers_matches_closed_form_cells(tmp_path, monkeypatch):
    submitted = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[:2])
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    ledger = scan(2, 100, 2, True, tmp_path / "par.jsonl", workers=2)
    assert len(submitted) >= 3
    assert sorted(m for first, last in submitted for m in range(first, last + 1)) == list(
        range(2, 101)
    )
    expected = _closed_form_records(range(2, 101), 2)
    assert {m: _stable(r) for m, r in ledger.records.items()} == expected


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for and
    runs each task at once, in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "m_to, workers, cpus, size",
    (
        (10, 64, 64, 9),  # 9 cells, so 9 one-m segments
        (10, 64, 4, 4),
        (10, 64, None, 1),  # core count unknown
        (100, 2, 8, 2),  # 9 segments of 12 m
    ),
)
def test_scan_pool_is_no_larger_than_its_segments_or_cores(
    tmp_path, monkeypatch, m_to, workers, cpus, size
):
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(scanner.os, "cpu_count", lambda: cpus)
    ledger = scan(2, m_to, 2, True, tmp_path / "par.jsonl", workers=workers)
    assert InProcessPool.sizes == [size]
    expected = _closed_form_records(range(2, m_to + 1), 2)
    assert {m: _stable(r) for m, r in ledger.records.items()} == expected


def test_resume_after_scattered_deletions_matches_fresh_scan(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fresh = {m: _stable(r) for m, r in scan(2, 100, 2, True, path).records.items()}
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(
        "".join(line for line in lines if json.loads(line).get("m") not in (5, 6, 40, 77))
    )
    assert sorted(load_ledger(path).records) == sorted(set(range(2, 101)) - {5, 6, 40, 77})
    resumed = scan(2, 100, 2, True, path)
    assert {m: _stable(r) for m, r in resumed.records.items()} == fresh
    assert {m: _stable(r) for m, r in load_ledger(path).records.items()} == fresh
    assert sorted(_ledger_ms(path)) == list(range(2, 101))


# scan(2, 100) walks m = 2..33, 34..65, ...: corrupt the second segment at its
# last m, whose row nothing walks on from, and in its middle.
SECOND = (2 + scanner._SEGMENT, 1 + 2 * scanner._SEGMENT)


@pytest.mark.parametrize("bad_m", (SECOND[1], SECOND[0] + 16), ids=("last", "middle"))
def test_corrupted_walk_raises_and_records_no_cell_of_its_segment(tmp_path, monkeypatch, bad_m):
    real = scanner.recu1_row

    def corrupted(prev):
        row = real(prev)
        if row.m != bad_m:
            return row
        scaled = list(row.scaled)
        scaled[10] += 1  # outside the recu4 spot checks of the segment's last row
        return CoeffRow(row.m, scaled, row.method)

    monkeypatch.setattr(scanner, "recu1_row", corrupted)
    path = tmp_path / "ledger.jsonl"
    with pytest.raises(ArithmeticError, match=rf"recu1 walk from m={SECOND[0]} "):
        scan(2, 100, 2, True, path)
    assert sorted(load_ledger(path).records) == list(range(2, SECOND[0]))


def _corrupt_closed_form_at(monkeypatch, bad_m):
    real = scanner.closed_form_row

    def corrupted(m):
        row = real(m)
        if m != bad_m:
            return row
        scaled = list(row.scaled)
        scaled[m // 2] += 1  # still ratio monotone to depth 2
        return CoeffRow(m, scaled, row.method)

    monkeypatch.setattr(scanner, "closed_form_row", corrupted)


def test_one_m_worker_segment_is_walked_and_cross_checked(tmp_path, monkeypatch):
    # 9 cells for 64 workers: one segment per m, run in order at submission
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    _corrupt_closed_form_at(monkeypatch, 6)
    path = tmp_path / "par.jsonl"
    with pytest.raises(ArithmeticError, match=r"^recu1 walk from m=6 disagrees .* at m=6$"):
        scan(2, 10, 2, True, path, workers=64)
    assert 6 not in load_ledger(path).records


def test_resume_filling_one_m_gap_is_walked_and_cross_checked(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    scan(2, 10, 2, True, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if json.loads(line).get("m") != 6))
    _corrupt_closed_form_at(monkeypatch, 6)
    with pytest.raises(ArithmeticError, match=r"^recu1 walk from m=6 disagrees .* at m=6$"):
        scan(2, 10, 2, True, path)
    assert sorted(load_ledger(path).records) == [2, 3, 4, 5, 7, 8, 9, 10]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers must inherit the patch"
)
def test_failing_worker_segment_cancels_the_queued_ones(tmp_path, monkeypatch):
    # scan(2, 1500) with 2 workers cuts 47 segments of 32 m, the first from 2
    real = scanner.recu1_row
    starts = tmp_path / "starts"

    def failing_at_40(prev):
        m = prev.m + 1
        if (m - 2) % scanner._SEGMENT == 0:
            with starts.open("a") as fh:
                fh.write(f"{m}\n")
        if m == 40:
            raise ArithmeticError("stop")
        return real(prev)

    monkeypatch.setattr(scanner, "recu1_row", failing_at_40)
    path = tmp_path / "par.jsonl"
    with pytest.raises(ArithmeticError, match=r"^recu1 walk from m=34 fails at m=40: stop$"):
        scan(2, 1500, 3, True, path, workers=2)
    started = starts.read_text().split()
    assert "34" in started
    # the running segments and the few the pool had queued, not all 47
    assert len(started) < 24
    assert 34 not in load_ledger(path).records


def test_cell_past_the_exact_size_limit_ends_the_scan(tmp_path, monkeypatch):
    # every level exact, with the limit at the first m of the second segment
    # minus one bit: that cell raises, and the first segment stays recorded
    monkeypatch.setattr(seqprops, "_certify", lambda *args: False)
    row = closed_form_row(SECOND[0])
    g = math.gcd(*row.scaled)
    monkeypatch.setattr(seqprops, "_EXACT_BITS", sum((v // g).bit_length() for v in row.scaled) - 1)
    path = tmp_path / "ledger.jsonl"
    with pytest.raises(ValueError, match=r"^level 1: "):
        scan(2, 100, 2, True, path)
    ledger = load_ledger(path)
    assert sorted(ledger.records) == list(range(2, SECOND[0]))
    assert {r.verdict for r in ledger.records.values()} == {VERDICT_VERIFIED}
