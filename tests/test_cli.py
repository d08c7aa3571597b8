"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from ringchain.cli import CURVE_COLUMNS, main
from ringchain.dispersion import ContinuationError


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ringchain.cli", *args],
        capture_output=True,
        text=True,
    )


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_bands_csv_layout():
    proc = run_cli("bands", "--alpha", "3", "--emax", "30")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == [
        "band_index", "e_lo", "e_hi", "k_lo", "k_hi", "closed_lo", "closed_hi",
    ]
    assert len(rows) == 6
    uppers = [float(r[2]) for r in rows]
    assert uppers == [1.0, 4.0, 9.0, 16.0, 25.0, 36.0]


def test_bands_json_layout():
    proc = run_cli("bands", "--alpha", "-3", "--emax", "10", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == {"alpha", "e_max", "bands", "flat_eigenvalues"}
    assert payload["alpha"] == -3.0
    assert payload["bands"][0]["e_lo"] == pytest.approx(-0.7369125399334089)


def test_eigenvalues_single_angle():
    proc = run_cli("eigenvalues", "--alpha", "3", "--theta", "1.0", "--nmax", "3")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == list(CURVE_COLUMNS)
    assert len(rows) == 6
    for row in rows:
        assert float(row[0]) == 1.0
        assert row[2] == ""  # real curves leave k_im empty
        assert row[6] == "real"
        assert float(row[8]) <= 1e-9
    # Rows carry positive energies equal to k**2.
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[1]) ** 2)


def test_eigenvalues_range_uses_half_offset_grid():
    proc = run_cli(
        "eigenvalues", "--alpha", "3", "--theta-start", "0.4",
        "--theta-stop", "2.8", "--theta-count", "3", "--nmax", "1",
    )
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    thetas = sorted({float(r[0]) for r in rows})
    assert thetas == pytest.approx([0.8, 1.6, 2.4])


def test_eigenvalues_negative_energy_rows():
    proc = run_cli("eigenvalues", "--alpha", "-3", "--theta", "1.0", "--nmax", "2")
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    negative = [r for r in rows if float(r[3]) < 0.0]
    assert negative
    for row in negative:
        # Purely imaginary momentum: k_re = 0 and k_im carries the rate.
        assert float(row[1]) == 0.0
        assert float(row[2]) > 0.0
        assert float(row[3]) == pytest.approx(-float(row[2]) ** 2)


def test_eigenvalues_singular_angle_marks_empty_row():
    proc = run_cli(
        "eigenvalues", "--alpha", "3",
        "--theta", "2.0943951023931953", "--nmax", "3",
    )
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    empties = [r for r in rows if r[1] == "" and r[2] == "" and r[3] == ""]
    assert len(empties) == 1
    assert empties[0][4] == "+"
    assert empties[0][5] == "3"


def test_eigenvalues_double_angle_reports_multiplicity_two():
    proc = run_cli(
        "eigenvalues", "--alpha", "3",
        "--theta", "1.2313500129365125", "--nmax", "1",
    )
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    merged = [r for r in rows if r[5] == "1"]
    assert len(merged) == 1
    assert merged[0][4] == "+-"
    assert merged[0][7] == "2"
    assert float(merged[0][1]) == pytest.approx(1.2756700453097611)


def test_eigenvalues_parity_filter():
    proc = run_cli(
        "eigenvalues", "--alpha", "3", "--theta", "1.0",
        "--nmax", "3", "--parity", "+",
    )
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert rows
    assert all(r[4] == "+" for r in rows)


def test_resonances_csv_and_conjugate_branches():
    proc = run_cli(
        "resonances", "--alpha", "3", "--nmax", "1",
        "--theta-count", "30", "--parity", "+",
    )
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == list(CURVE_COLUMNS)
    lower = [r for r in rows if r[6] == "lower"]
    upper = [r for r in rows if r[6] == "upper"]
    assert len(lower) == len(upper) > 0
    for lo, up in zip(lower, upper):
        assert float(lo[0]) == pytest.approx(float(up[0]))
        assert float(lo[2]) == pytest.approx(-float(up[2]))
        assert lo[3] == "" and lo[7] == ""  # energy/multiplicity not defined
        assert float(lo[8]) <= 1e-9


def test_resonances_json_bundles():
    proc = run_cli(
        "resonances", "--alpha", "3", "--nmax", "1",
        "--theta-count", "30", "--parity", "+", "--branch", "lower",
        "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "curves" in payload
    curve = payload["curves"][0]
    assert curve["parity"] == "+"
    assert curve["branch"] == "lower"
    assert curve["seed"]["n"] == 1
    assert curve["termination"] in {"completed", "singular-point"}
    assert all(len(s) == 3 for s in curve["samples"])


def test_verify_subset_passes():
    proc = run_cli("verify", "--criteria", "1,2,9", "--format", "text")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.startswith("criterion")]
    assert len(lines) == 3
    assert all("PASS" in l for l in lines)


def test_verify_expected_failure_exits_one():
    proc = run_cli("verify", "--criteria", "7")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    entry = payload["criteria"][0]
    assert entry["passed"] is False
    assert entry["expected_to_fail"] is True
    assert payload["overall_pass"] is False


def test_verify_json_passed_is_a_json_bool():
    proc = run_cli("verify", "--criteria", "10", "--format", "json")
    assert proc.returncode == 0
    assert '"passed": true' in proc.stdout
    assert json.loads(proc.stdout)["criteria"][0]["passed"] is True


def test_usage_errors_exit_two():
    cases = [
        ("bands",),  # missing --alpha
        ("bands", "--alpha", "3", "--emax", "0.5"),
        ("eigenvalues", "--alpha", "0", "--theta", "1.0"),
        ("eigenvalues", "--alpha", "3", "--theta", "3.5"),
        ("eigenvalues", "--alpha", "3"),  # neither theta nor range
        ("eigenvalues", "--alpha", "3", "--theta-start", "0.5",
         "--theta-stop", "2.0", "--theta-count", "1"),
        ("eigenvalues", "--alpha", "3", "--theta", "1.0", "--tol-root", "1e-18"),
        ("verify", "--criteria", "99"),
        ("frobnicate",),
    ]
    for case in cases:
        proc = run_cli(*case)
        assert proc.returncode == 2, case


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "exit codes" in proc.stdout.lower()


def test_numeric_failure_exits_three(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ContinuationError("synthetic failure")

    monkeypatch.setattr("ringchain.cli.gap_eigenvalues", explode)
    code = main(["eigenvalues", "--alpha", "3", "--theta", "1.0"])
    captured = capsys.readouterr()
    assert code == 3
    assert "numeric failure" in captured.err


def test_residual_gate_exits_three():
    # An impossibly tight residual demand trips the numeric exit for real.
    proc = run_cli(
        "eigenvalues", "--alpha", "3", "--theta", "1.0",
        "--nmax", "3", "--tol-residual", "1e-14",
    )
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr


def test_outputs_are_deterministic(tmp_path):
    args = (
        "eigenvalues", "--alpha", "-3", "--theta-start", "0.3",
        "--theta-stop", "2.9", "--theta-count", "8", "--nmax", "2",
    )
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(f1)).returncode == 0
    assert run_cli(*args, "--out", str(f2)).returncode == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert b"\r" not in f1.read_bytes()  # LF endings only


def test_thread_count_env(monkeypatch, capsys, tmp_path):
    args = [
        "eigenvalues", "--alpha", "3", "--theta-start", "0.4",
        "--theta-stop", "2.8", "--theta-count", "6", "--nmax", "2",
    ]
    monkeypatch.setenv("CHAIN_SPECTRUM_THREADS", "1")
    assert main(args + ["--out", str(tmp_path / "one.csv")]) == 0
    monkeypatch.setenv("CHAIN_SPECTRUM_THREADS", "3")
    assert main(args + ["--out", str(tmp_path / "three.csv")]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "three.csv").read_bytes()
    monkeypatch.setenv("CHAIN_SPECTRUM_THREADS", "0")
    assert main(args) == 2
    monkeypatch.setenv("CHAIN_SPECTRUM_THREADS", "soon")
    assert main(args) == 2
    capsys.readouterr()
