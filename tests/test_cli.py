"""Tests for the command line front end."""

import json

from gk2genus.cli import main


def test_classify_text_totals(capsys):
    assert main(["classify", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "total nonidentity: 17" in out
    assert main(["classify", "--q", "5"]) == 0
    out = capsys.readouterr().out
    assert "total nonidentity: 719" in out


def test_classify_json(capsys):
    assert main(["classify", "--q", "4", "--format", "json"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["group_order"] == (4**3 - 4) * 5
    assert tree["total"] == tree["group_order"] - 1


def test_spectrum_csv_deterministic(capsys):
    assert main(["spectrum", "--q", "5", "--n", "3", "--format", "csv"]) == 0
    first = capsys.readouterr().out
    assert main(["spectrum", "--q", "5", "--n", "3", "--format", "csv"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "genus,witness"
    assert any(line.startswith("482,") for line in first.splitlines())


def test_spectrum_json_schema(capsys):
    assert main(["spectrum", "--q", "4", "--n", "3", "--format", "json"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["schema"] == "gk2genus.spectrum/1"
    assert tree["q"] == 4 and tree["n"] == 3


def test_output_file(tmp_path, capsys):
    path = tmp_path / "spectrum.csv"
    code = main(
        ["spectrum", "--q", "5", "--n", "3", "--format", "csv", "--output", str(path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().splitlines()[0] == "genus,witness"


def test_output_into_missing_directory(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code = main(
        ["spectrum", "--q", "5", "--n", "3", "--format", "csv", "--output", str(path)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not path.exists()


def test_exit_codes_for_invalid_arguments(capsys):
    # unsupported congruence class of q
    assert main(["spectrum", "--q", "7", "--n", "3"]) == 2
    assert "falls outside" in capsys.readouterr().err
    # missing required flag
    assert main(["spectrum", "--q", "5"]) == 2
    capsys.readouterr()
    # unknown subcommand
    assert main(["bogus"]) == 2
    capsys.readouterr()
    # no subcommand at all
    assert main([]) == 2
    capsys.readouterr()


def test_verify_exit_codes(capsys):
    assert main(["verify", "--q", "4"]) == 0
    assert "PASS" in capsys.readouterr().out
    # rejected q values are invalid arguments
    for q in ("7", "49"):
        assert main(["verify", "--q", q]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "rejected" in out


def test_catalog_listing(capsys):
    assert main(["catalog", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "30 instances" in out
    assert "sl2_subfield[q=4,k=2,w=1]" in out
    assert main(["catalog", "--q", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,order,tame"
    assert len(lines) == 31


def test_table_matrix_reports_every_row(capsys):
    code = main(["table"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    verdicts = [ln for ln in lines if ln.startswith("q=")]
    assert len(verdicts) == 8
    # the q=9, n=7 row tracks three values whose only published route is a
    # misprinted orbit count (see the errata report), so it stays red
    assert sum("FAIL" in ln for ln in verdicts) == 1
    assert any("q=9" in ln and "FAIL" in ln for ln in verdicts)
    assert "658" in out and "387562" in out and "11239956" in out
    assert code == 1
