"""Command-line behaviour: output formats, validation, exit codes, cache."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from quatcurves import ClassificationReport, candidate_degree_multisets, make_field
from quatcurves.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_text_output(capsys):
    code, out, err = run(capsys, "classify", "--p", "3", "--places", "T,T^2+1")
    assert code == 0 and not err
    assert "genus: 3" in out
    assert "w[T] = 0" in out
    assert "w[T^2+1] = 4" in out
    assert "w[T,T^2+1] = 8" in out
    assert "verdict: hyperelliptic (canonical_found)" in out


def test_classify_json_round_trip(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--places", "T,T^2+1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "hyperelliptic"
    assert data["genus"] == 3
    report = ClassificationReport.from_dict(data)
    assert report.to_json() + "\n" == out


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--places", "T,T^2+1",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "f_x", "f_y", "g", "fix_x", "fix_y", "fix_xy", "verdict"]
    assert rows[1] == ["3", "T", "T^2+1", "3", "0", "4", "8", "hyperelliptic"]


def test_classify_extension_field_reports_modulus(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--e", "2",
                       "--places", "T,T^2+(u+1)T+2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 9
    assert data["modulus"] == "u^2+1"
    assert data["kappa"] == "u+1"


def test_classify_validation_errors(capsys):
    code, _, err = run(capsys, "classify", "--p", "3", "--places", "T,T")
    assert code == 2 and "duplicate" in err

    code, _, err = run(capsys, "classify", "--p", "3", "--places", "T,T^2-1")
    assert code == 2 and "reducible" in err

    code, _, err = run(capsys, "classify", "--p", "3", "--places", "T,2T^2+2")
    assert code == 2 and "monic" in err

    code, _, err = run(capsys, "classify", "--p", "3", "--places", "T")
    assert code == 2

    code, _, err = run(capsys, "classify", "--p", "2", "--places", "T,T+1")
    assert code == 2 and "odd characteristic required" in err

    code, _, err = run(capsys, "classify", "--p", "9", "--places", "T,T^2+1")
    assert code == 2 and "prime" in err


def test_classify_kappa_override(capsys):
    code, base_out, _ = run(capsys, "classify", "--p", "5", "--places", "T,T^2+2")
    assert code == 0
    code, out, _ = run(capsys, "classify", "--p", "5", "--places", "T,T^2+2",
                       "--kappa", "3")
    assert code == 0
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("kappa")]
    assert strip(out) == strip(base_out)

    code, _, err = run(capsys, "classify", "--p", "5", "--places", "T,T^2+2",
                       "--kappa", "4")
    assert code == 2 and "non-square" in err


def test_classify_kappa_override_extension_field(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--e", "2",
                       "--places", "T,T^2+(u+1)T+2", "--kappa", "u+2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == "u+2"

    # u generates the squares of GF(9) (u = (u+1)^6), so it is rejected
    code, _, err = run(capsys, "classify", "--p", "3", "--e", "2",
                       "--places", "T,T^2+(u+1)T+2", "--kappa", "u")
    assert code == 2 and "non-square" in err


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_q3(capsys):
    code, out, _ = run(capsys, "search", "--p", "3", "--max-degree", "4")
    assert code == 0
    for pair in ("{1,1}", "{1,2}", "{1,3}", "{2,2}"):
        assert pair in out
    assert "{1,4}" not in out and "{2,3}" not in out
    lines = [l for l in out.splitlines() if "hyperelliptic" in l]
    hyper = [l for l in lines if "not_hyperelliptic" not in l]
    assert len(hyper) == 9
    assert all("T^2" in l for l in hyper)


def test_search_q5_candidates(capsys):
    code, out, _ = run(capsys, "search", "--p", "5", "--max-degree", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["candidate_degree_multisets"] == [[1, 1], [1, 2]]
    hyper = [r for r in data["reports"] if r["verdict"] == "hyperelliptic"]
    assert len(hyper) == 50


def test_search_csv_rows(capsys):
    code, out, _ = run(capsys, "search", "--p", "3", "--max-degree", "4",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "f_x", "f_y", "g", "fix_x", "fix_y", "fix_xy", "verdict"]
    assert len(rows) == 1 + 39  # 3 + 9 + 24 + 3 candidate instances
    assert sum(1 for row in rows[1:] if row[-1] == "hyperelliptic") == 9
    assert all(row[4] != "" for row in rows[1:])  # fix columns filled even at genus 0


def test_search_csv_rows_equal_table_rows(capsys):
    code, out, _ = run(capsys, "search", "--p", "3", "--max-degree", "3",
                       "--format", "csv")
    assert code == 0
    header, *search_rows = list(csv.reader(io.StringIO(out)))
    table_rows = []
    for d1, d2 in candidate_degree_multisets(make_field(3)):
        code, out, _ = run(capsys, "table", "--p", "3", "--degrees", f"{d1},{d2}",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == header
        table_rows += rows[1:]
    assert search_rows == table_rows


def test_search_even_characteristic(capsys):
    code, out, _ = run(capsys, "search", "--p", "2", "--max-degree", "3")
    assert code == 0
    assert "not classified (even characteristic)" in out
    assert "{1,1}" in out and "{1,2}" in out and "{1,3}" in out
    assert "verdict" not in out


def test_search_even_characteristic_json(capsys):
    code, out, _ = run(capsys, "search", "--p", "2", "--max-degree", "8",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passing_degree_multisets"] == [[1, 1], [1, 2], [1, 3], [1, 4], [2, 3]]
    assert "even characteristic" in data["note"]


def test_search_bound_guard(capsys):
    code, _, err = run(capsys, "search", "--p", "2", "--max-degree", "30")
    assert code == 3 and "bound" in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_degrees_12(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--degrees", "1,2",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 9
    assert all(row[-1] == "hyperelliptic" for row in rows[1:])
    assert all(row[3] == "3" for row in rows[1:])


def test_table_degrees_22_csv(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--degrees", "2,2",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 3
    assert all(row[-1] == "not_hyperelliptic" for row in rows[1:])


def test_table_fix_columns_present_for_low_genus(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--degrees", "1,1",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 3
    for row in rows[1:]:
        assert row[3] == "0"
        assert row[4] != "" and row[5] != "" and row[6] != ""


def test_table_text_and_json_formats(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--degrees", "1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["q", "f_x", "f_y", "g", "fix_x", "fix_y", "fix_xy", "verdict"]
    assert len(lines) == 1 + 9

    code, out, _ = run(capsys, "table", "--p", "3", "--degrees", "1,2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 9
    assert all(row["verdict"] == "hyperelliptic" and row["g"] == 3 for row in data)


def test_table_rejects_nonprime_p(capsys):
    code, _, err = run(capsys, "table", "--p", "9", "--degrees", "1,2")
    assert code == 2 and "prime" in err


def test_table_rejects_bad_degrees(capsys):
    code, _, err = run(capsys, "table", "--p", "3", "--degrees", "1")
    assert code == 2
    code, _, err = run(capsys, "table", "--p", "3", "--degrees", "1,2,3")
    assert code == 2


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_does_not_change_reports(tmp_path, capsys):
    path = str(tmp_path / "h.cache")
    code, plain, _ = run(capsys, "classify", "--p", "3", "--places", "T,T^2+1")
    assert code == 0
    code, cached_first, _ = run(capsys, "classify", "--p", "3", "--places", "T,T^2+1",
                                "--cache", path)
    assert code == 0
    code, cached_second, _ = run(capsys, "classify", "--p", "3", "--places", "T,T^2+1",
                                 "--cache", path)
    assert code == 0
    assert plain == cached_first == cached_second

    lines = (tmp_path / "h.cache").read_text().strip().splitlines()
    assert lines
    for line in lines:
        p, e, a, h = line.split()
        assert p == "3" and e == "1"
        assert int(h) >= 1


def test_cache_reused_across_commands(tmp_path, capsys):
    path = str(tmp_path / "h.cache")
    code, first, _ = run(capsys, "table", "--p", "3", "--degrees", "2,2",
                         "--format", "csv", "--cache", path)
    assert code == 0
    code, second, _ = run(capsys, "table", "--p", "3", "--degrees", "2,2",
                          "--format", "csv", "--cache", path)
    assert code == 0
    code, plain, _ = run(capsys, "table", "--p", "3", "--degrees", "2,2",
                         "--format", "csv")
    assert code == 0
    assert first == second == plain


def test_inconsistent_cache_exits_with_code_4(tmp_path, capsys):
    # class numbers of 4 make both w[T^2+1] and w[T,T^2+1] fix 2g+2 = 8
    # points, but the canonical involution is unique
    path = tmp_path / "poisoned.cache"
    path.write_text("3 1 2T^2+2 4\n3 1 2T^3+2T 4\n3 1 T^3+T 4\n")
    code, out, err = run(capsys, "classify", "--p", "3", "--places", "T,T^2+1",
                         "--cache", str(path))
    assert code == 4
    assert not out
    assert err.startswith("error: ") and "two involutions with 8 fixed points" in err
    assert len(err.splitlines()) == 1


def test_cache_with_nonpositive_class_number_is_unreadable(tmp_path, capsys):
    # a class number is the order of a group, so h = 0 would silently zero
    # every embedding count that reads it
    path = tmp_path / "zero.cache"
    path.write_text("3 1 T^3+T 0\n")
    code, out, err = run(capsys, "classify", "--p", "3", "--places", "T,T^2+1",
                         "--cache", str(path))
    assert code == 2
    assert not out
    assert "cannot read cache" in err and "T^3+T 0" in err
    assert path.read_text() == "3 1 T^3+T 0\n"


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "classify" in out and "search" in out and "table" in out


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_python_m_runs_the_cli_from_a_checkout(capsys):
    argv = ["classify", "--p", "3", "--places", "T,T^2+1"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "quatcurves", *argv],
                          capture_output=True, text=True, env=env, check=False, timeout=120)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
