"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import csv
import dataclasses
import errno
import io
import json
import subprocess
import sys

import pytest

from ringchain import cli, resonance
from ringchain.bands import Band, BandSpectrum
from ringchain.cli import CURVE_COLUMNS, main
from ringchain.dispersion import ContinuationError
from ringchain.verify import CriterionResult, run_all


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


def test_eigenvalues_range_marks_singular_angles():
    # Both nodes, pi/4 and 3pi/4, are singular angles of gap 4's even
    # eigenvalue; each angle's marker row follows its eigenvalue rows.
    proc = run_cli(
        "eigenvalues", "--alpha", "3", "--theta-start", "0",
        "--theta-stop", "3.141592653589793", "--theta-count", "2", "--nmax", "4",
    )
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    thetas = ["0.78539816339744828", "2.3561944901923448"]
    assert [r[0] for r in rows] == [thetas[0]] * 9 + [thetas[1]] * 8
    marker = ["", "", "", "+", "4", "real", "", ""]
    empties = [i for i, r in enumerate(rows) if r[1] == ""]
    assert empties == [8, 16]
    assert [rows[i][1:] for i in empties] == [marker, marker]


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


def test_abandoned_seed_warns_once_per_requested_branch(monkeypatch, capsys):
    # One trace serves both branches of a seed, so a failed trace must
    # still warn for, and drop the rows of, each branch by its own name.
    real = resonance.trace_complex_branch

    def fail_at_2_1(alpha, sp, *args, **kwargs):
        if (sp.n, sp.ell, sp.parity) == (2, 1, "+"):
            raise ContinuationError("step underflow at theta=1.6")
        return real(alpha, sp, *args, **kwargs)

    monkeypatch.setattr(resonance, "trace_complex_branch", fail_at_2_1)
    argv = ["resonances", "--alpha", "3", "--nmax", "2", "--theta-count", "30"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"warning: curve abandoned (2,1,+,{br}): step underflow at theta=1.6 (branch {br})"
        for br in ("lower", "upper")
    ]
    _, rows = parse_csv(captured.out)
    written = {(r[4], r[5], r[6]) for r in rows}
    assert written == {(p, n, br) for p, n in (("+", "1"), ("-", "2")) for br in ("lower", "upper")}
    assert main([*argv, "--branch", "upper", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["abandoned"] == [
        "(2,1,+,upper): step underflow at theta=1.6 (branch upper)"
    ]
    assert captured.err.count("warning: curve abandoned") == 1


def test_seed_past_theta_stop_is_skipped_without_warning(capsys):
    # The (2,1) seed sits at pi/2 + 1e-2: past a stop of 1.575 it is not
    # traced and not reported, and a stop of 1.6 traces it.
    argv = ["resonances", "--alpha", "3", "--theta-start", "0", "--theta-count", "5",
            "--nmax", "2", "--parity", "+", "--format", "json"]
    for stop, seeds in (("1.575", [(1, 1)]), ("1.6", [(1, 1), (2, 1)])):
        assert main([*argv, "--theta-stop", stop]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert captured.err == ""
        assert payload["abandoned"] == []
        assert [(c["seed"]["n"], c["seed"]["ell"], c["branch"]) for c in payload["curves"]] == [
            (n, ell, br) for n, ell in seeds for br in ("lower", "upper")
        ]


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
        ("eigenvalues", "--alpha", "3", "--theta", "1.0", "--tol-residual", "1e-18"),
        ("verify", "--criteria", "99"),
        ("frobnicate",),
    ]
    for case in cases:
        proc = run_cli(*case)
        assert proc.returncode == 2, case


THETA_RANGE = ["--theta-start", "0.5", "--theta-stop", "2", "--theta-count", "3"]


# One case for each branch of the argument check, with its exact message.
@pytest.mark.parametrize(
    "threads, argv, message",
    [
        (None, ["verify", "--criteria", "99,1x,3"], "unknown criteria: 99, 1x"),
        (None, ["verify", "--criteria", ","], "empty criteria selection"),
        (None, ["bands", "--alpha", "3", "--tol-residual", "1e-20"],
         "--tol-residual must be >= 1e-14"),
        (None, ["bands", "--alpha", "3", "--emax", "1"], "--emax must exceed 1"),
        ("0", ["bands", "--alpha", "3"], "CHAIN_SPECTRUM_THREADS must be positive"),
        ("soon", ["bands", "--alpha", "3"],
         "CHAIN_SPECTRUM_THREADS must be an integer: 'soon'"),
        (None, ["eigenvalues", "--alpha", "0", "--theta", "1"],
         "the uncoupled chain has no gaps: --alpha must be nonzero"),
        (None, ["resonances", "--alpha", "0"],
         "the uncoupled chain has no gaps: --alpha must be nonzero"),
        (None, ["eigenvalues", "--alpha", "3", "--theta", "1", "--nmax", "0"],
         "--nmax must be at least 1"),
        (None, ["resonances", "--alpha", "3", "--nmax", "0"], "--nmax must be at least 1"),
        (None, ["eigenvalues", "--alpha", "3"],
         "give either --theta or a full --theta-start/stop/count range"),
        (None, ["eigenvalues", "--alpha", "3", "--theta", "1", *THETA_RANGE],
         "give either --theta or a full --theta-start/stop/count range"),
        (None, ["eigenvalues", "--alpha", "3", *THETA_RANGE[:4]],
         "a range needs --theta-start, --theta-stop and --theta-count"),
        (None, ["eigenvalues", "--alpha", "3", "--theta", "3.5"],
         "--theta must lie strictly between 0 and pi"),
        # A negative value in scientific notation is a value, not an option,
        # for every numeric option.
        (None, ["eigenvalues", "--alpha", "-1e-6", "--theta", "-1e-3"],
         "--theta must lie strictly between 0 and pi"),
        (None, ["bands", "--alpha", "-1E-6", "--emax", "-1e2"], "--emax must exceed 1"),
        (None, ["bands", "--alpha", "3", "--tol-residual", "-1e-3"],
         "--tol-residual must be >= 1e-14"),
        (None, ["resonances", "--alpha", "-3e0", "--theta-start", "-.5e-1",
                "--theta-stop", "-2e0", "--theta-count", "-3"],
         "--theta-count must be at least 2"),
        (None, ["resonances", "--alpha", "-3.0e+0", "--nmax", "-2"], "--nmax must be at least 1"),
        (None, ["eigenvalues", "--alpha", "3", "--theta-start", "-1e-3", "--theta-stop", "2",
                "--theta-count", "3"],
         "the range must satisfy 0 <= start < stop <= pi"),
    ],
)
def test_usage_error_messages(threads, argv, message, monkeypatch, capsys):
    if threads is not None:
        monkeypatch.setenv("CHAIN_SPECTRUM_THREADS", threads)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


SWEEP_2_5 = [
    "eigenvalues", "--alpha", "2.5", "--theta-start", "0",
    "--theta-stop", "3.141592653589793", "--theta-count", "128", "--nmax", "5",
]


@pytest.mark.parametrize(
    "argv, message",
    [
        # NaN compares false both ways, so a `tol < floor` check let it
        # through and then no residual was ever above it.
        ([*SWEEP_2_5, "--tol-residual", "nan"], "--tol-residual must be >= 1e-14"),
        (["resonances", "--alpha", "3", "--nmax", "3", "--tol-residual", "nan"],
         "--tol-residual must be >= 1e-14"),
        (["bands", "--alpha", "3", "--tol-residual", "nan"], "--tol-residual must be >= 1e-14"),
        (["bands", "--alpha", "nan"], "--alpha must be finite"),
        (["bands", "--alpha", "inf"], "--alpha must be finite"),
        (["eigenvalues", "--alpha", "nan", "--theta", "1"], "--alpha must be finite"),
        (["eigenvalues", "--alpha=-inf", "--theta", "1"], "--alpha must be finite"),
        (["resonances", "--alpha", "nan", "--nmax", "2"], "--alpha must be finite"),
        (["resonances", "--alpha", "inf", "--nmax", "2"], "--alpha must be finite"),
        (["bands", "--alpha", "3", "--emax", "nan"], "--emax must exceed 1"),
        (["bands", "--alpha", "3", "--emax", "inf"], "--emax must be finite"),
        (["eigenvalues", "--alpha", "3", "--theta", "1", "--emax", "nan"],
         "--emax must exceed 1"),
        (["eigenvalues", "--alpha", "3", "--theta", "1", "--emax", "inf"],
         "--emax must be finite"),
    ],
)
def test_non_finite_values_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_negative_values_in_scientific_notation_are_read(capsys):
    # argparse took only "-0.5"-style strings as negative numbers, so
    # "--alpha -1e-6" was a usage error and "--alpha=-1e-6" was needed.
    assert main(["bands", "--alpha=-1e-6", "--emax", "10"]) == 0
    joined = capsys.readouterr()
    assert main(["bands", "--alpha", "-1e-6", "--emax", "10"]) == 0
    assert capsys.readouterr() == joined
    # Negative infinity and NaN stay refused, spelled either way.
    for argv in (["bands", "--alpha", "-inf"], ["bands", "--alpha", "-nan"]):
        assert main(argv) == 2
    for argv in (["bands", "--alpha=-inf"], ["bands", "--alpha=-nan"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith("error: --alpha must be finite\n")


def test_infinite_residual_tolerance_turns_the_gate_off(capsys):
    # The sweep that the default tolerance stops with exit 3 runs through.
    assert main([*SWEEP_2_5, "--tol-residual", "inf"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["eigenvalues", "resonances"])
@pytest.mark.parametrize(
    "start, stop, count, message",
    [
        ("0.5", "2.0", "1", "--theta-count must be at least 2"),
        ("2.0", "2.0", "5", "the range must satisfy 0 <= start < stop <= pi"),
        ("2.0", "1.0", "5", "the range must satisfy 0 <= start < stop <= pi"),
        ("0.0", "3.5", "5", "the range must satisfy 0 <= start < stop <= pi"),
    ],
)
def test_bad_theta_range_exits_two(command, start, stop, count, message, capsys):
    code = main([
        command, "--alpha", "3", "--theta-start", start, "--theta-stop", stop,
        "--theta-count", count,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "exit codes" in proc.stdout.lower()


def test_numeric_failure_exits_three(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ContinuationError("synthetic failure")

    monkeypatch.setattr("ringchain.gaps.gap_eigenvalues_grid", explode)
    code = main(["eigenvalues", "--alpha", "3", "--theta", "1.0"])
    captured = capsys.readouterr()
    assert code == 3
    assert "numeric failure" in captured.err


def test_residual_gate_exits_three(tmp_path):
    # An impossibly tight residual demand trips the numeric exit for real,
    # before anything is opened or written.
    out = tmp_path / "eig.csv"
    proc = run_cli(
        "eigenvalues", "--alpha", "3", "--theta", "1.0",
        "--nmax", "3", "--tol-residual", "1e-14", "--out", str(out),
    )
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.xfail(
    strict=True, reason="the absolute residual gate rejects correct roots next to a band edge"
)
@pytest.mark.parametrize("alpha", ["2.5", "-1"])
def test_full_sweep_passes_the_residual_gate(alpha, capsys):
    # Both sweeps exit 3 on a correct root: at alpha = 2.5 the residual is
    # 1.12e-9 at theta = 3.080, at alpha = -1 it is 1.69e-9 at theta = 0.822,
    # where the gap function's terms cancel.  A residual scaled to the
    # conditioning of the condition would pass them.
    code = main([
        "eigenvalues", "--alpha", alpha, "--theta-start", "0",
        "--theta-stop", "3.141592653589793", "--theta-count", "128", "--nmax", "5",
    ])
    capsys.readouterr()
    assert code == 0


def test_resonance_residual_gate_exits_three(tmp_path):
    # The polished samples up to n = 3 carry residuals up to about 8e-14,
    # above this demand (up to n = 1 they stay below 5e-15).
    out = tmp_path / "res.csv"
    proc = run_cli(
        "resonances", "--alpha", "3", "--nmax", "3",
        "--theta-count", "20", "--tol-residual", "1e-14", "--out", str(out),
    )
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


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


@pytest.fixture(scope="module")
def criterion_1():
    return run_all(["1"])


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--alpha", "-3"],
        ["bands", "--alpha", "-3", "--format", "json"],
        ["eigenvalues", "--alpha", "3", "--theta", "1.0", "--nmax", "3"],
        ["eigenvalues", "--alpha", "3", "--theta", "1.0", "--nmax", "3", "--format", "json"],
        ["resonances", "--alpha", "3", "--nmax", "4"],
        ["resonances", "--alpha", "3", "--nmax", "4", "--format", "json"],
        ["verify", "--criteria", "1", "--format", "text"],
        ["verify", "--criteria", "1", "--format", "json"],
    ],
    ids=" ".join,
)
def test_out_file_holds_the_stdout_bytes(argv, criterion_1, tmp_path, monkeypatch, capsys):
    # verify reports its run time, so both calls share one run of criterion 1.
    monkeypatch.setattr("ringchain.verify.run_all", lambda labels: criterion_1)
    out = tmp_path / "artifact"
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")


def test_json_keys_are_the_dataclass_fields_in_order(criterion_1, monkeypatch, capsys):
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert main(["bands", "--alpha", "-3", "--format", "json"]) == 0
    spectrum = json.loads(capsys.readouterr().out)
    assert list(spectrum) == names(BandSpectrum)
    assert [list(band) for band in spectrum["bands"]] == [names(Band)] * len(spectrum["bands"])
    monkeypatch.setattr("ringchain.verify.run_all", lambda labels: criterion_1)
    assert main(["verify", "--criteria", "1", "--format", "json"]) == 0
    criteria = json.loads(capsys.readouterr().out)["criteria"]
    assert [list(c) for c in criteria] == [names(CriterionResult)]


@pytest.mark.parametrize(
    "target, reason",
    [("missing/x.csv", "No such file or directory"), (".", "Is a directory")],
)
def test_unwritable_out_is_a_usage_error(target, reason, tmp_path, capsys):
    path = tmp_path / target
    assert main(["bands", "--alpha", "3", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: {reason}\n"


def test_failed_write_is_a_usage_error(monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["bands", "--alpha", "3"]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"


class Recorder(list):
    """A stand-in for ``sys.stdout`` that keeps every write."""

    write = list.append


def test_artifacts_reach_stdout_in_blocks(monkeypatch):
    # One write per block: not one per row, which is a syscall each on an
    # unbuffered stdout, and not one string of the whole 850 KB artifact.
    writes = Recorder()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(["resonances", "--alpha", "3", "--nmax", "8"]) == 0
    assert 1 < len(writes) <= sum(map(len, writes)) // cli.BLOCK_CHARS + 1
    assert max(map(len, writes)) <= 2 * cli.BLOCK_CHARS
    writes.clear()
    assert main(["bands", "--alpha", "3"]) == 0
    assert len(writes) == 1
