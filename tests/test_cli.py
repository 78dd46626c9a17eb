"""Tests for the command line front end."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import gk2genus
from gk2genus import engine, formulas
from gk2genus.catalog import enumerate_instances
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


def test_classify_rejects_a_field_above_the_size_limit(capsys):
    # GF(256^2) has 2^16 elements, past the 2^15 field limit
    assert main(["classify", "--q", "256"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_names_a_q_past_the_dense_table_bound(capsys):
    # GF(37^2) is a valid field, but M_ell needs dense tables: q <= 32
    assert main(["classify", "--q", "37"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "q=37" in err
    # past the bound too, a q that is no prime power is named as such
    for q in ("36", "-40"):
        assert main(["classify", "--q", q]) == 2
        assert capsys.readouterr().err == "error: q must be a prime power, got %s\n" % q


def test_spectrum_names_q_and_n_when_m_exceeds_the_factoring_budget(capsys, monkeypatch):
    # m = (4^151 + 1)/5 has 300 bits; the factoring budget leaves it composite,
    # and the spectrum rejects it before building any catalog instance
    def no_instances(inst):
        raise AssertionError("instantiated %s before factoring m" % inst.label())

    monkeypatch.setattr("gk2genus.engine.instantiate", no_instances)
    assert main(["spectrum", "--q", "4", "--n", "151"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot factor m = (q^n+1)/(q+1) for q=4, n=151: a 300-bit "
        "cofactor is left composite by the factoring budget\n"
    )


def test_spectrum_rejects_a_semiprime_q_without_factoring_it(capsys):
    # q = nextprime(2^80) * nextprime(2^81): a 161-bit semiprime that no
    # factoring budget splits quickly, so the prime-power test must not factor
    q = 2923003274661805836407421649242809468366377451741
    start = time.perf_counter()
    assert main(["spectrum", "--q", str(q), "--n", "3"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: q must be a prime power, got %d\n" % q


def test_a_large_prime_q_exceeds_the_supported_bound(capsys):
    q = 2**127 - 1
    for argv in (
        ["catalog", "--q", str(q)],
        ["spectrum", "--q", str(q), "--n", "1"],
        ["spectrum", "--q", str(q), "--n", "3"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: q=%d exceeds the supported bound 1048576\n" % q
        )


def test_the_cli_runs_without_importing_sympy():
    # the benchmark's three commands in a fresh interpreter; sympy is only
    # needed for an m that the stdlib factoring pass cannot finish
    code = "\n".join([
        "import contextlib, io, sys",
        "import gk2genus.cli as cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['spectrum', '--q', '1048576', '--n', '7', '--format', 'csv']) == 0",
        "    assert cli.main(['classify', '--q', '9']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(gk2genus.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("command, exit_code, loads_numpy", [
    # formula mode, the catalog listing and argument rejections use the
    # closed forms only
    ("spectrum --q 1048576 --n 3", 0, False),
    ("spectrum --q 29 --n 5", 0, False),
    ("catalog --q 9", 0, False),
    ("verify --q 1048576", 2, False),
    ("classify --q 37", 2, False),
    ("classify --q 256", 2, False),
    ("spectrum --q 36 --n 3", 2, False),
    # the group action at q = 2 loads it: the check tells the two apart
    ("spectrum --q 2 --n 3", 0, True),
])
def test_numpy_loads_only_when_the_group_action_runs(command, exit_code, loads_numpy):
    # a lazy numpy sits in sys.modules unexecuted; executing it imports
    # numpy.* submodules, under numpy 1 and numpy 2 alike
    code = "\n".join([
        "import contextlib, io, sys",
        "import gk2genus.cli as cli",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "    rc = cli.main(%r)" % command.split(),
        "print(rc, any(m.startswith('numpy.') for m in sys.modules))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(gk2genus.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "%d %s\n" % (exit_code, loads_numpy)


def test_verify_exit_codes(capsys):
    assert main(["verify", "--q", "4"]) == 0
    assert "PASS" in capsys.readouterr().out
    # rejected q values are invalid arguments; the first failing check names the reason
    for q, reason in (
        ("7", "q=7 falls outside"),
        ("27", "q=27 falls outside"),
        ("0", "q must be a prime power"),
        ("2097152", "exceeds the supported bound"),
        ("49", "q=49 exceeds the explicit-construction bound"),
        ("1048576", "q=1048576 exceeds the explicit-construction bound"),
    ):
        assert main(["verify", "--q", q]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "rejected: " in out and reason in out


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


def test_catalog_and_verify_csv_quote_labels_with_commas(capsys):
    labels = [inst.label() for inst in enumerate_instances(4)]
    assert main(["catalog", "--q", "4", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["label", "order", "tame"]
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1:]] == labels
    assert main(["verify", "--q", "4", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["instance", "passed"]
    assert all(len(row) == 2 for row in rows)
    assert [row[0] for row in rows[1:]] == labels


@pytest.fixture
def cold_spectrum():
    engine.spectrum.cache_clear()
    yield
    engine.spectrum.cache_clear()


def test_spectrum_refuses_a_closed_form_the_group_action_contradicts(
    capsys, monkeypatch, cold_spectrum
):
    # the closed form of every elation family, elementary_abelian among them
    closed_form = formulas.point_stabilizer_quotient

    def one_orbit_too_many(q, mu, u):
        genus, orbits = closed_form(q, mu, u)
        return genus, orbits + 1

    monkeypatch.setattr(formulas, "point_stabilizer_quotient", one_orbit_too_many)
    assert main(["spectrum", "--q", "4", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mismatch:")
    report = json.loads(captured.err.splitlines()[-1])
    assert report["kind"] == "orbit-count"
    assert report["instance"] == "elementary_abelian[q=4,f=1,w=1]"


@pytest.mark.parametrize("burnside, shown", [(Fraction(131, 2), "131/2"), (Fraction(2), 2)])
def test_spectrum_reports_a_burnside_average_the_orbit_count_contradicts(
    capsys, monkeypatch, cold_spectrum, burnside, shown
):
    # the report goes through json.dumps, so a Fraction is shown as an int
    # when it is one and as a string otherwise
    monkeypatch.setattr(engine, "_burnside_orbits", lambda sub: burnside)
    assert main(["spectrum", "--q", "4", "--n", "3"]) == 1
    report = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert report["kind"] == "tame-orbit-identity"
    assert report["formula"] == shown and type(report["formula"]) is type(shown)
