"""Tests for the range scanner and its resumable ledger."""

import fcntl
import json

import pytest

from bmtk import CoeffRow, Dyadic, Method, closed_form_row, k_property, scanner
from bmtk.seqprops import RATIO_MONOTONE
from bmtk.scanner import (
    VERDICT_FAILED,
    VERDICT_POSITIVITY,
    VERDICT_VERIFIED,
    LedgerLockedError,
    LedgerMismatchError,
    deep_probe,
    load_ledger,
    scan,
    scan_resume,
    verify_cell,
)


def test_verify_cell_verified():
    record = verify_cell(8, 2, strict=True)
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


def test_scan_resume_after_interrupt(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 12, 2, True, path)
    fresh = {m: r.verdict for m, r in load_ledger(path).records.items()}
    # simulate an interrupt: keep the header and the first four cells
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    resumed = scan_resume(path, 2, 12, 2, True)
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


# Rows for m=4 that are not strictly ratio monotone at level 0; non-strictly,
# the first fails a comparison at level 1 and the second positivity there.
FAILING_ROWS = (
    (2, 5, 6, 5, 2),
    (1, 2, 4, 2, 1),
)


@pytest.mark.parametrize("nums", FAILING_ROWS)
@pytest.mark.parametrize("strict", (True, False))
def test_failing_cell_keeps_its_exact_witness(monkeypatch, nums, strict):
    row = CoeffRow(4, tuple(Dyadic(x, 3) for x in nums), Method.CLOSED_FORM)
    monkeypatch.setattr(scanner, "closed_form_row", lambda m: row)
    expected = k_property(row.coeffs, 3, RATIO_MONOTONE, strict)
    assert not expected.holds
    record = verify_cell(4, 3, strict)
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
        assert _stable(verify_cell(m, 3, strict)) == _stable(_unreduced_record(m, 3, strict))


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


def test_scan_parameter_mismatch_refused(tmp_path):
    path = tmp_path / "ledger.jsonl"
    scan(2, 10, 2, True, path)
    with pytest.raises(LedgerMismatchError, match="depth"):
        scan(2, 10, 3, True, path)
    with pytest.raises(LedgerMismatchError, match="strict"):
        scan(2, 10, 2, False, path)
    with pytest.raises(LedgerMismatchError, match="m_to"):
        scan(2, 11, 2, True, path)


def test_scan_resume_requires_existing_ledger(tmp_path):
    with pytest.raises(FileNotFoundError):
        scan_resume(tmp_path / "missing.jsonl", 2, 10, 2, True)


def test_scan_argument_validation(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with pytest.raises(ValueError):
        scan(1, 10, 2, True, path)
    with pytest.raises(ValueError):
        scan(5, 4, 2, True, path)
    with pytest.raises(ValueError):
        scan(2, 10, 0, True, path)


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
        again = verify_cell(m, record.depth_requested, True)
        assert again.verdict == record.verdict
        assert again.depth_verified == record.depth_verified


def test_deep_probe_confirms_at_least_requested_depth():
    report = deep_probe(8, 4, 10**6)
    assert report.confirmed_depth >= 2
    assert report.stop_reason in ("max-depth", "bit-budget")
    assert report.levels[0]["holds"] is True


def test_deep_probe_bit_budget_stops_iteration():
    report = deep_probe(2, 3, 4)
    assert report.confirmed_depth == 0
    assert report.stop_reason == "bit-budget"


def test_deep_probe_depth_one_is_the_direct_check():
    from bmtk import closed_form_row, is_ratio_monotone

    report = deep_probe(9, 1, 10**6)
    direct = is_ratio_monotone(closed_form_row(9).coeffs, strict=True)
    assert (report.confirmed_depth == 1) == direct.holds
    assert report.stop_reason == "max-depth"


def test_deep_probe_validation():
    with pytest.raises(ValueError):
        deep_probe(1, 2, 100)
    with pytest.raises(ValueError):
        deep_probe(5, 0, 100)
