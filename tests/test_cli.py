"""Tests for the command-line frontend."""

import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bmtk import (
    bmcoeff,
    boundcheck,
    cli,
    closed_form_row,
    k_property,
    polyident,
    quadoracle,
    scanner,
    seqprops,
)
from bmtk.boundcheck import BoundRecord, BoundReport
from bmtk.cli import PROP_TOKENS, main
from bmtk.quadoracle import QuadResult
from bmtk.seqprops import PropertyVerdict

from known_values import ROW_8


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_json_row(capsys):
    code, out, _ = run(capsys, "gen", "--m", "8", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 8
    assert obj["coeffs"] == [f"{num}/2^{exp}" for num, exp in ROW_8]


def test_gen_csv_and_plain(capsys):
    code, out, _ = run(capsys, "gen", "--m", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "m,i,dyadic,decimal"
    assert "2,0,21/2^3,2.625" in out
    code, out, _ = run(capsys, "gen", "--m", "2")
    assert code == 0
    assert "d_0(2) = 21/2^3" in out


def test_gen_out_file(capsys, tmp_path):
    target = tmp_path / "row.json"
    code, out, _ = run(capsys, "gen", "--m", "3", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["m"] == 3


def test_out_path_that_cannot_be_written_exits_2(capsys, tmp_path):
    for target in (tmp_path / "missing" / "row.json", tmp_path):
        code, out, err = run(capsys, "gen", "--m", "8", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(target) in err


def test_ledger_in_a_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "scan.jsonl"
    code, out, err = run(
        capsys, "scan", "--from", "2", "--to", "3", "--depth", "1", "--ledger", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_importing_the_cli_leaves_out_the_process_pool():
    # only scan --workers above 1 uses the pool; no other command pays for it
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bmtk.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert out.stdout == "False\n"


def _refuse(*args, **kwargs):
    raise AssertionError("built a format that was not asked for")


def _builds_only(capsys, monkeypatch, argv, fmt, builders):
    """Run argv in fmt, then again with the builders of every other format
    made to raise: the exit code and output must not change.  ``builders``
    holds (formats, owner, attribute name) triples, formats naming every
    format that uses the builder, separated by spaces."""
    argv = (*argv, "--format", fmt)
    expected = run(capsys, *argv)
    assert expected[0] in (0, 1) and expected[1]
    for formats, owner, name in builders:
        if fmt not in formats.split():
            refuse = property(_refuse) if isinstance(vars(owner).get(name), property) else _refuse
            monkeypatch.setattr(owner, name, refuse)
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_gen_builds_only_the_requested_format(capsys, monkeypatch, fmt):
    _builds_only(capsys, monkeypatch, ("gen", "--m", "12"), fmt, [
        ("json", bmcoeff, "row_to_json"),
        ("csv", bmcoeff, "row_csv_lines"),
        ("plain", cli, "decimal_string"),
    ])


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_check_builds_only_the_requested_format(capsys, monkeypatch, fmt):
    argv = ("check", "--seq", "2,10,3,1", "--props", "logconcave,spiral", "--depth", "2")
    _builds_only(capsys, monkeypatch, argv, fmt, [("json", PropertyVerdict, "to_json")])


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_bounds_builds_only_the_requested_format(capsys, monkeypatch, fmt):
    # every bound holds at m=40, so plain output formats no record; csv lines
    # are joined from the records' json values, and only csv prints no ratio
    _builds_only(capsys, monkeypatch, ("bounds", "--m", "40"), fmt, [
        ("json", BoundReport, "to_json"),
        ("json csv", BoundRecord, "to_json"),
        ("json plain", BoundReport, "min_ratio_decimal"),
    ])


class _Unformattable(str):
    def __format__(self, spec):
        raise AssertionError("formatted a line of a format that was not asked for")


def test_identities_json_formats_no_line(capsys, monkeypatch):
    suite = polyident.run_identity_suite
    expected = run(capsys, "identities", "--grid", "10", "--format", "json")
    monkeypatch.setattr(polyident, "run_identity_suite", lambda grid: [
        {**item, "identity": _Unformattable(item["identity"])} for item in suite(grid)
    ])
    assert run(capsys, "identities", "--grid", "10", "--format", "json") == expected


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_quad_builds_only_the_requested_format(capsys, monkeypatch, fmt):
    argv = ("quad", "--m", "8", "--a", "0.5")
    _builds_only(capsys, monkeypatch, argv, fmt, [("json", QuadResult, "to_json")])


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_scan_builds_only_the_requested_format(capsys, monkeypatch, tmp_path, fmt):
    argv = ("scan", "--from", "2", "--to", "12", "--depth", "2",
            "--ledger", str(tmp_path / "scan.jsonl"))
    _builds_only(capsys, monkeypatch, argv, fmt, [
        ("json", scanner.ScanLedger, "to_json"),
        ("plain", cli, "Counter"),
    ])


def test_json_output_is_stable(capsys):
    _, first, _ = run(capsys, "bounds", "--m", "6", "--format", "json")
    _, second, _ = run(capsys, "bounds", "--m", "6", "--format", "json")
    assert first == second


def test_check_row_properties(capsys):
    code, out, _ = run(
        capsys, "check", "--m", "8", "--props", "ratio,spiral,logconcave", "--strict"
    )
    assert code == 0
    assert "FAILS" not in out


def test_check_counterexamples(capsys):
    code, out, _ = run(
        capsys, "check", "--seq", "2,10,3,1", "--props", "logconcave", "--format", "json"
    )
    assert code == 1
    verdicts = json.loads(out)
    assert verdicts[0]["holds"] is False
    assert verdicts[0]["witness"]["i"] == 2
    code, _, _ = run(capsys, "check", "--seq", "2,10,3,1", "--props", "spiral")
    assert code == 0
    code, _, _ = run(capsys, "check", "--seq", "3,5,4,2,1", "--props", "logconcave")
    assert code == 0
    code, _, _ = run(capsys, "check", "--seq", "3,5,4,2,1", "--props", "spiral")
    assert code == 1


def test_check_accepts_rational_and_dyadic_entries(capsys):
    code, _, _ = run(capsys, "check", "--seq", "21/2^3,15/2^2,3/2^1", "--props", "ratio")
    assert code == 0
    code, _, _ = run(capsys, "check", "--seq", "1/3,2/3,1/3", "--props", "logconcave")
    assert code == 0


def test_check_depth_flag(capsys):
    code, out, _ = run(
        capsys,
        "check", "--m", "8", "--props", "ratio", "--strict", "--depth", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["level"] == 1


@pytest.mark.parametrize("strict", (True, False))
def test_check_row_path_matches_dyadic_path(strict):
    # `check --m` decides the CoeffRow itself; it must agree with its Dyadic values
    for m in range(31):
        row = closed_form_row(m)
        for prop in PROP_TOKENS.values():
            for depth in (1, 2, 3):
                expected = k_property(row.coeffs, depth, prop, strict)
                assert k_property(row, depth, prop, strict) == expected


@pytest.mark.parametrize("strict", ([], ["--strict"]))
def test_check_row_json_matches_the_exact_path(capsys, monkeypatch, strict):
    argv = ("check", "--m", "40", "--depth", "5", "--props", ",".join(PROP_TOKENS),
            *strict, "--format", "json")
    enclosed = run(capsys, *argv)
    assert enclosed[0] == 0
    monkeypatch.setattr(seqprops, "_certify", lambda *args: False)  # every level exact
    assert run(capsys, *argv) == enclosed


def test_check_json_matches_dyadic_verdicts(capsys):
    code, out, _ = run(
        capsys, "check", "--m", "12", "--props", "ratio,unimodal,logconcave,spiral",
        "--depth", "3", "--format", "json",
    )
    coeffs = closed_form_row(12).coeffs
    expected = [k_property(coeffs, 3, PROP_TOKENS[t], False).to_json()
                for t in ("ratio", "unimodal", "logconcave", "spiral")]
    assert json.loads(out) == expected
    assert code == (0 if all(v["holds"] for v in expected) else 1)


@pytest.mark.parametrize("command", ("gen", "check"))
def test_rows_above_m_4000_are_refused(capsys, monkeypatch, command):
    def refuse(m):
        raise AssertionError("built the row")

    monkeypatch.setattr(bmcoeff, "closed_form_row", refuse)
    props = ["--props", "ratio"] if command == "check" else []
    code, out, err = run(capsys, command, "--m", "4001", *props)
    assert (code, out) == (2, "")
    assert err == "error: --m must be at most 4000, got 4001\n"


def test_scan_above_m_4000_is_refused_before_the_ledger(capsys, monkeypatch, tmp_path):
    def refuse(m):
        raise AssertionError("built a row")

    monkeypatch.setattr(scanner, "closed_form_row", refuse)
    ledger = tmp_path / "scan.jsonl"
    code, out, err = run(
        capsys, "scan", "--from", "8000", "--to", "8000", "--depth", "1", "--ledger", str(ledger)
    )
    assert (code, out) == (2, "")
    assert err == "error: --to must be at most 4000, got 8000\n"
    assert not ledger.exists()


def test_check_usage_errors(capsys):
    assert run(capsys, "check", "--seq", "1,2,x", "--props", "spiral")[0] == 2
    assert run(capsys, "check", "--seq", "1,2", "--props", "bogus")[0] == 2
    assert run(capsys, "check", "--m", "4", "--props", "ratio", "--depth", "0")[0] == 2


@pytest.mark.parametrize(
    "argv, problem",
    [
        (("--m", "-1"), "--m must be nonnegative, got -1"),
        (("--seq", "1,,2"), "empty entry in --seq"),
    ],
)
def test_check_refuses_a_negative_m_and_an_empty_entry(capsys, argv, problem):
    assert run(capsys, "check", *argv, "--props", "ratio") == (2, "", f"error: {problem}\n")


def test_exact_size_refusal_names_the_first_level_no_phase_decided(capsys):
    # row 1000's enclosures prove levels 0..88 (the last on 128 bits); the
    # exact phase passes its size limit before level 2, yet 89 is the first
    # level left undecided
    argv = ("check", "--m", "1000", "--depth", "200", "--props", "ratio", "--strict")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: level 89: .* 4194304 bits\n", err), err


def test_scan_without_workers_exits_2_and_creates_no_ledger(capsys, tmp_path):
    ledger = tmp_path / "scan.jsonl"
    argv = ("scan", "--from", "2", "--to", "4", "--depth", "1", "--ledger", str(ledger))
    assert run(capsys, *argv, "--workers", "0") == (2, "", "error: --workers must be >= 1, got 0\n")
    assert not ledger.exists()


def test_unknown_flag_and_missing_args_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--m", "3", "--bogus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--props", "ratio"])  # neither --m nor --seq
    assert excinfo.value.code == 2


def test_bounds_all_and_selected(capsys):
    code, out, _ = run(capsys, "bounds", "--m", "8", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["bound"] for r in reports] == [
        "thm21", "thm22", "l31", "l32", "l33", "l34", "sec4",
    ]
    assert all(r["all_hold"] for r in reports)
    code, out, _ = run(capsys, "bounds", "--m", "100", "--which", "thm21")
    assert code == 0
    assert "min ratio 0.998348" in out


def test_plain_bounds_output_reads_no_side_of_a_holding_record(capsys, monkeypatch):
    reads = []
    for side in ("lhs", "rhs"):
        monkeypatch.setattr(boundcheck.BoundRecord, side, property(reads.append))
    code, out, _ = run(capsys, "bounds", "--m", "40")
    assert code == 0 and len(out.splitlines()) == len(boundcheck.BOUND_IDS)
    assert reads == []


def test_bounds_domain_errors(capsys):
    assert run(capsys, "bounds", "--m", "1")[0] == 2  # strict bound needs m >= 2
    assert run(capsys, "bounds", "--m", "1", "--which", "thm21")[0] == 0
    assert run(capsys, "bounds", "--m", "8", "--which", "thm99")[0] == 2
    code, out, err = run(capsys, "bounds", "--m", "5", "--which", ",")
    assert (code, out) == (2, "")
    assert "--which names no bound id" in err


def test_bounds_m_above_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(boundcheck, "closed_form_row", lambda m: pytest.fail("generated a row"))
    code, out, err = run(capsys, "bounds", "--m", "100000")
    assert (code, out) == (2, "")
    assert err == "error: m must be at most 2000, got 100000\n"
    assert run(capsys, "bounds", "--m", "2001", "--which", "l34")[0] == 2


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--grid", "10", "--format", "json")
    assert code == 0
    suite = json.loads(out)
    assert len(suite) == 6
    assert all(item["equal"] for item in suite)


def test_identities_grid_above_cap_exits_2(capsys):
    code, out, err = run(capsys, "identities", "--grid", "100000")
    assert (code, out) == (2, "")
    assert err == "error: grid bound must be at most 2000, got 100000\n"


def test_identities_csv_lines(capsys):
    code, out, err = run(capsys, "identities", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "identity,equal,grid_ok",
        "strict-growth-step,True,None",
        "upper-bound-expansion,True,True",
        "upper-bound-quotient,True,True",
        "reflected-gap-expansion,True,True",
        "predecessor-numerator,True,None",
        "recurrence-interderivation,True,None",
    ]


def test_identity_that_fails_exits_1(capsys, monkeypatch):
    real = polyident.ratio_bound_numerator
    monkeypatch.setattr(polyident, "ratio_bound_numerator", lambda m, i: real(m, i) + 1)
    code, out, _ = run(capsys, "identities", "--grid", "10")
    assert code == 1
    assert "  upper-bound-expansion: NOT EQUAL, grid ok" in out.splitlines()


def test_quad_short_of_its_tolerance_exits_1_with_the_error(capsys):
    argv = ("quad", "--m", "3", "--a", "0.3", "--tol", "1e-30")
    error = "tolerance 1e-30 not reached within 4096 splits (error estimate "
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out.splitlines()[-1].startswith(f"  verdict          = {error}")
    code, out, err = run(capsys, *argv, "--format", "json")
    result = json.loads(out)
    assert (code, err, result["ok"]) == (1, "", False)
    assert result["error"].startswith(error)


def test_quad_deviating_past_10_tol_exits_1_as_a_mismatch(capsys, monkeypatch):
    real = quadoracle.quartic_integral
    monkeypatch.setattr(quadoracle, "quartic_integral", lambda m, a, tol, *, row=None: (
        dataclasses.replace(real(m, a, tol, row=row), relative_deviation=2e-9)
    ))
    code, out, err = run(capsys, "quad", "--m", "8", "--a", "0.5")
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == ["  rel deviation    = 2.000e-09", "  verdict          = MISMATCH"]


def test_quad_command(capsys):
    code, out, _ = run(capsys, "quad", "--m", "1", "--a", "1", "--format", "json")
    assert code == 0
    result = json.loads(out)
    assert result["ok"] is True
    assert result["relative_deviation"] < 1e-8
    assert run(capsys, "quad", "--m", "0", "--a", "-1")[0] == 2


@pytest.mark.parametrize("a", ["1e308", "1e100"])
def test_quad_outside_binary64_exits_2(capsys, a):
    code, out, err = run(capsys, "quad", "--m", "3", "--a", a)
    assert (code, out) == (2, "")
    assert err == f"error: m=3, a={float(a)} leaves the binary64 range of the quadrature\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "1e300"])
def test_quad_tolerance_outside_open_interval_exits_2(capsys, tol):
    code, out, err = run(capsys, "quad", "--m", "8", "--a", "0.5", "--tol", tol)
    assert (code, out) == (2, "")
    assert err == f"error: tolerance must be in (0, 0.1), got {float(tol)}\n"


def test_scan_command(capsys, tmp_path):
    ledger = tmp_path / "scan.jsonl"
    code, out, _ = run(
        capsys,
        "scan", "--from", "2", "--to", "8", "--depth", "2", "--strict",
        "--ledger", str(ledger), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["all_verified"] is True
    # rerunning resumes cleanly
    code, _, _ = run(
        capsys,
        "scan", "--from", "2", "--to", "8", "--depth", "2", "--strict",
        "--ledger", str(ledger),
    )
    assert code == 0
    # parameter mismatch is a usage error with the diff on stderr
    code, _, err = run(
        capsys,
        "scan", "--from", "2", "--to", "8", "--depth", "3", "--strict",
        "--ledger", str(ledger),
    )
    assert code == 2
    assert err == f"error: ledger {ledger} parameter mismatch: depth: ledger=2 requested=3\n"
    code, _, err = run(
        capsys,
        "scan", "--from", "2", "--to", "9", "--depth", "2",
        "--ledger", str(ledger),
    )
    assert code == 2
    assert err == (
        f"error: ledger {ledger} parameter mismatch: m_to: ledger=8 requested=9;"
        " strict: ledger=True requested=False\n"
    )


def test_scan_walk_that_disagrees_with_the_closed_form_exits_2(capsys, monkeypatch, tmp_path):
    real = scanner.recu1_row
    bad_m = 2 + scanner._SEGMENT + 5  # in the second segment

    def corrupted(prev):
        row = real(prev)
        if row.m != bad_m:
            return row
        scaled = list(row.scaled)
        scaled[10] += 1
        return bmcoeff.CoeffRow(row.m, scaled, row.method)

    monkeypatch.setattr(scanner, "recu1_row", corrupted)
    ledger = tmp_path / "scan.jsonl"
    code, out, err = run(
        capsys, "scan", "--from", "2", "--to", "100", "--depth", "2", "--ledger", str(ledger)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: recu1 walk from m={2 + scanner._SEGMENT} ")
    assert sorted(scanner.load_ledger(ledger).records) == list(range(2, 2 + scanner._SEGMENT))


def test_scan_ledger_naming_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run(
        capsys, "scan", "--from", "2", "--to", "4", "--depth", "1", "--ledger", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(tmp_path) in err


def test_scan_corrupt_ledger_line_exits_2_with_its_line(capsys, tmp_path):
    ledger = tmp_path / "scan.jsonl"
    argv = ("scan", "--from", "2", "--to", "8", "--depth", "1", "--strict",
            "--ledger", str(ledger))
    assert run(capsys, *argv)[0] == 0
    lines = ledger.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:5] + "\n"
    ledger.write_text("".join(lines))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "line 3:" in err


def test_scan_ledger_with_a_blank_line_exits_2_and_is_left_alone(capsys, tmp_path):
    ledger = tmp_path / "scan.jsonl"
    argv = ("scan", "--from", "2", "--to", "4", "--depth", "1", "--ledger", str(ledger))
    assert run(capsys, *argv)[0] == 0
    lines = ledger.read_bytes().splitlines(keepends=True)
    ledger.write_bytes(b"".join(lines[:2] + [b"\n"] + lines[2:]))
    before = ledger.read_bytes()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: ledger {ledger} line 3: Expecting value (column 1)\n"
    assert ledger.read_bytes() == before


def test_scan_ledger_cell_missing_a_field_exits_2_with_its_line(capsys, tmp_path):
    ledger = tmp_path / "scan.jsonl"
    argv = ("scan", "--from", "2", "--to", "8", "--depth", "1", "--strict",
            "--ledger", str(ledger))
    assert run(capsys, *argv)[0] == 0
    with ledger.open("a") as fh:
        fh.write('{"record": "cell", "m": 9}\n')
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "line 9: missing field 'depth_requested'" in err


STRAY_CELL = (
    '{"record": "cell", "m": 500, "depth_requested": 1, "depth_verified": 1, "verdict": "maybe",'
    ' "level": null, "witness": null, "wall_time": 0.0, "timestamp": "2026-01-01T00:00:00+00:00"}'
)


@pytest.mark.parametrize(
    "line", ["[]", '{"record": "cell", "m": null}', pytest.param(STRAY_CELL, id="stray-cell")]
)
def test_scan_wrong_shaped_ledger_line_exits_2_with_its_line(capsys, tmp_path, line):
    ledger = tmp_path / "scan.jsonl"
    argv = ("scan", "--from", "2", "--to", "8", "--depth", "1", "--strict",
            "--ledger", str(ledger))
    assert run(capsys, *argv)[0] == 0
    with ledger.open("a") as fh:
        fh.write(line + "\n" + line + "\n")  # the last line alone would count as torn
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "line 9: " in err
    ledger.write_text("[]\n")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "line 1: not a JSON object" in err


def test_check_seq_past_the_digit_limit(capsys):
    # int() and str() of an int refuse more than 4,300 digits by default
    digits = "1" + "0" * 5000
    entries = [digits[:-1] + "1", "3" + digits[1:], "9" * 5001 + "/2"]
    code, out, _ = run(
        capsys, "check", "--seq", ",".join(entries), "--props", "logconcave,unimodal"
    )
    assert code == 1
    assert "log-concave (strict=False): holds" in out
    witness = f"i=2 lhs={'9' * 5001}/2 rhs=3{digits[1:]}]"  # d_2 < d_1 fails
    assert f"unimodal-midpeak (strict=True): FAILS [witness at level 0: comparison {witness}" in out
    code, out, _ = run(
        capsys, "check", "--seq", f"1,{digits},1", "--props", "logconcave", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)[0]["holds"]


# Every token within 200,000 digits, the sequence past 210,000: ten tokens
# ran 13.7 s and 200 tokens 10.7 s before the whole sequence was bounded.
@pytest.mark.parametrize(
    "seq",
    [
        pytest.param(",".join(["1e199999", "1e-199999"] * 5), id="ten alternating"),
        pytest.param(",".join(f"1e-{199999 - i}" for i in range(200)), id="200 descending"),
    ],
)
def test_check_seq_past_the_sequence_digit_limit_is_refused(capsys, seq):
    code, out, err = run(capsys, "check", "--seq", seq, "--props", "ratio")
    assert (code, out) == (2, "")
    assert "--seq spells more than 210000 decimal digits" in err


def test_check_seq_of_one_token_at_its_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "check", "--seq", "1,1e-199999,1", "--props", "ratio")
    assert code == 1
    assert "ratio-monotone (strict=False): FAILS" in out


def test_four_property_witnesses_match_their_one_property_runs(capsys):
    # one 200,000-digit token: each witness prints a value of up to 400,000 digits
    argv = ("check", "--seq", "1,1e-199999,1", "--format", "json", "--props")
    code, out, _ = run(capsys, *argv, "ratio,logconcave,spiral,unimodal")
    assert code == 1
    verdicts = json.loads(out)
    assert [v["holds"] for v in verdicts] == [False] * 4
    for token, verdict in zip(("ratio", "logconcave", "spiral", "unimodal"), verdicts):
        code, out, _ = run(capsys, *argv, token)
        assert code == 1
        assert json.loads(out) == [verdict]


def _huge_failing_report(m):
    big = 10**5000
    records = boundcheck._records(">=", [(1, (big + 1, 7, 0), (big + 2, 7, 0))])
    report = BoundReport("thm21", m, records)
    report.min_ratio = Fraction(big + 2, big + 1)
    return [report]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_bounds_report_past_the_digit_limit(capsys, monkeypatch, fmt):
    # str() of a Fraction with more than 4,300 digits raises by default
    monkeypatch.setattr(boundcheck, "run_checks", lambda m, which: _huge_failing_report(m))
    code, out, _ = run(capsys, "bounds", "--m", "9", "--format", fmt)
    assert code == 1
    stem = "1" + "0" * 4999
    lhs, rhs = f"{stem}1/7", f"{stem}2/7"
    if fmt == "plain":
        assert f"  violated at i=1: {lhs} >= {rhs}" in out.splitlines()
    elif fmt == "csv":
        assert out.splitlines()[1] == f"thm21,9,1,>=,{lhs},{rhs},False,-1/7"
    else:
        (report,) = json.loads(out)
        assert report["min_ratio"] == f"{stem}2/{stem}1"
        assert report["records"][0]["lhs"] == lhs
        assert report["records"][0]["margin"] == "-1/7"


# sha256 of stdout for ``bmtk bounds --m M --format F``: every record's sides and
# margin, byte for byte
BOUNDS_STDOUT_SHA256 = {
    (2, "plain"): "0562db86110fd57dc9db42d63ada8246aa6e85f020e2b3d23e37ff2379c756a0",
    (2, "json"): "593f57b3c41bf92a8f884d49e5997442094b45a829a0994a67c4f10ad84c3bb7",
    (2, "csv"): "648221febfbce937f32df22350ee6a6ed6793151695a3f4aef7f23ea9656e9d9",
    (3, "plain"): "162ef7431e9d69593dc4e7c7df4fe763a9e3e9ca3080046de435f6b6ed3a016b",
    (3, "json"): "1ba2113bb91734894ba8e550f1d0a09c1f518508d2c882d9e67517cc957e5a84",
    (3, "csv"): "ca1788b4ab48a1e08b18f4bd5740bf7434f6e42049ddfdef42f50ca5b26c3fa3",
    (250, "plain"): "86b11555bde2f664c8b7fcdbb311d2a3341d64add316576ec7251c9f461dc6ad",
    (250, "json"): "9ab0fa1122c68430c47fed6ab66ad3b9cf3f37ef9d61e0636c87460aee3fbaad",
    (250, "csv"): "f8142797f8afbafde7bf8990764676ba2137d684ec665d3cb6efa67a4d851f17",
}


@pytest.mark.parametrize("m, fmt", list(BOUNDS_STDOUT_SHA256))
def test_bounds_output_is_pinned(capsys, m, fmt):
    code, out, err = run(capsys, "bounds", "--m", str(m), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_STDOUT_SHA256[m, fmt]


def _readme_cli_commands():
    """(argv, documented exit code) for each line of the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        exit_code = re.search(r"\bexit (\d)", comment)
        argv = shlex.split(command)
        assert argv[0] == "bmtk"
        commands.append((argv[1:], int(exit_code.group(1)) if exit_code else 0))
    assert commands, "no commands in the README's CLI block"
    return commands


README_COMMANDS = _readme_cli_commands()


@pytest.mark.parametrize(
    "argv, code", README_COMMANDS, ids=[" ".join(argv) for argv, _ in README_COMMANDS]
)
def test_readme_cli_command_exits_as_documented(capsys, monkeypatch, tmp_path, argv, code):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv)[0] == code
