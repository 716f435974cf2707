"""Tests for the command-line frontend."""

import json

import pytest

from bmtk import closed_form_row, k_property, scanner
from bmtk.cli import PROP_TOKENS, main

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
    for m in range(31):
        row = closed_form_row(m)
        for prop in PROP_TOKENS.values():
            for depth in (1, 2, 3):
                expected = k_property(row.coeffs, depth, prop, strict)
                assert scanner.row_property(row, depth, prop, strict) == expected


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


def test_check_usage_errors(capsys):
    assert run(capsys, "check", "--seq", "1,2,x", "--props", "spiral")[0] == 2
    assert run(capsys, "check", "--seq", "1,2", "--props", "bogus")[0] == 2
    assert run(capsys, "check", "--m", "4", "--props", "ratio", "--depth", "0")[0] == 2


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


def test_bounds_domain_errors(capsys):
    assert run(capsys, "bounds", "--m", "1")[0] == 2  # strict bound needs m >= 2
    assert run(capsys, "bounds", "--m", "1", "--which", "thm21")[0] == 0
    assert run(capsys, "bounds", "--m", "8", "--which", "thm99")[0] == 2


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--grid", "10", "--format", "json")
    assert code == 0
    suite = json.loads(out)
    assert len(suite) == 6
    assert all(item["equal"] for item in suite)


def test_quad_command(capsys):
    code, out, _ = run(capsys, "quad", "--m", "1", "--a", "1", "--format", "json")
    assert code == 0
    result = json.loads(out)
    assert result["ok"] is True
    assert result["relative_deviation"] < 1e-8
    assert run(capsys, "quad", "--m", "0", "--a", "-1")[0] == 2


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
    assert "depth" in err


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


def test_binomial_cache_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BMTK_BINOMIAL_CACHE", "64")
    assert run(capsys, "gen", "--m", "2")[0] == 0
    monkeypatch.setenv("BMTK_BINOMIAL_CACHE", "junk")
    assert run(capsys, "gen", "--m", "2")[0] == 2
