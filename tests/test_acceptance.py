"""Acceptance gate: one test per criterion, with runtime budgets.

Three criteria pin target constants that the measured asymptotics
contradict (see ``ringchain.verify.EXPECTED_FAILURES``); they run in full
and are marked strict-xfail so a silent "fix" would fail the suite too.
Every criterion contributes one pass/fail line to the terminal summary.
"""
from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conftest
from ringchain import _rootfind, bands, dispersion, gaps, resonance, transfer, verify
from ringchain.verify import EXPECTED_FAILURES, run_criterion

# Runtime budgets per criterion, in seconds.
BUDGETS = {
    "1": 1.0,
    "2": 1.0,
    "3": 2.0,
    "4": 30.0,
    "5": 20.0,
    "6-exponent": 60.0,
    "6-coefficient": 60.0,
    "7": 30.0,
    "8": 5.0,
    "9": 10.0,
    "10": 10.0,
    "11": 5.0,
    "12": 60.0,
}


def run_and_record(label: str):
    result = run_criterion(label)
    conftest.ACCEPTANCE_LINES[label] = (
        f"criterion {label}: {result.status} "
        f"({result.runtime_seconds:.2f}s) - {result.detail}"
    )
    assert result.runtime_seconds < BUDGETS[label], (
        f"criterion {label} took {result.runtime_seconds:.2f}s, "
        f"budget {BUDGETS[label]:.0f}s"
    )
    assert result.passed, f"criterion {label} failed: {result.detail}"
    return result


def test_criterion_01_band_edges_pin_to_squares():
    run_and_record("1")


def test_criterion_02_borderline_coupling_closes_at_zero():
    run_and_record("2")


def test_criterion_03_floquet_membership_oracle():
    run_and_record("3")


def test_criterion_04_gap_counting():
    run_and_record("4")


def test_criterion_05_spectral_form_equivalence():
    run_and_record("5")


def _count_calls(monkeypatch, calls: dict, name: str, *modules) -> None:
    """Count calls of ``name`` made through any of ``modules``."""
    for module in modules:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)


def test_criterion_05_work_count(monkeypatch):
    # Criterion 5's 2,000 one-angle slots are scanned as stacked rows in
    # full blocks, and its gap and negative queries share one dispatch.
    # Slot by slot it made 2,611 scans and found the threshold edges of
    # its attractive couplings twice.
    calls = {}
    _count_calls(monkeypatch, calls, "bracket_rows", _rootfind)
    _count_calls(monkeypatch, calls, "_negative_edges", gaps)
    passed, _, detail = verify._criterion_form_equivalence()
    assert passed, detail
    assert calls["bracket_rows"] <= 500
    assert calls["_negative_edges"] == 1


def test_criterion_03_work_count(monkeypatch):
    # Criterion 3 asks for the membership of all its energies at once, one
    # call per coupling; sample by sample it made 4,000 calls.
    calls = {}
    _count_calls(monkeypatch, calls, "in_spectrum", verify)
    passed, measured, detail = verify._criterion_floquet_oracle()
    assert passed, detail
    assert measured["checked"] == 4000
    assert calls["in_spectrum"] <= 4


def test_criterion_11_work_count(monkeypatch):
    # Criterion 11 evaluates its 10,000 draws in blocks.  Draw by draw it
    # made 20,020 half-trace and 20,040 transfer-matrix calls; a per-draw
    # loop coming back would exceed 1% of either.
    calls = {}
    _count_calls(monkeypatch, calls, "discriminant", verify, dispersion)
    _count_calls(monkeypatch, calls, "transfer_matrix", verify, transfer)
    passed, measured, detail = verify._criterion_transfer_invariants()
    assert passed, detail
    assert measured["decay_samples"] == 20
    assert calls["discriminant"] <= 200
    assert calls["transfer_matrix"] <= 200


def test_criterion_06_fits_each_branch_once(monkeypatch):
    # Criteria 6-exponent and 6-coefficient read the same four branch fits,
    # made once per process.
    calls = {}
    _count_calls(monkeypatch, calls, "fit_branch_exponent", verify)
    verify._branch_fits.cache_clear()
    for label in ("6-exponent", "6-coefficient"):
        assert run_criterion(label).measured
    assert calls["fit_branch_exponent"] == 4


def test_criterion_09_solves_every_double_point_in_one_call(monkeypatch):
    # Both parities of gaps 1-3, each at its own double angle, are one
    # slot of one angle apiece in a single call of the gap engine.
    calls = []

    def counted(slots):
        calls.append(slots)
        return gaps._sector_roots(slots)

    monkeypatch.setattr(verify, "_sector_roots", counted)
    passed, measured, detail = verify._criterion_double_points()
    assert passed, detail
    (slots,) = calls
    assert [(n, p) for _, n, p, _ in slots] == [(n, p) for n in (1, 2, 3) for p in "+-"]
    assert [t for *_, t in slots] == [[measured[f"theta_gap{n}"]] for n in (1, 2, 3) for _ in "+-"]


def test_criterion_05_oracle_runs_without_the_engine_it_checks(monkeypatch):
    # Criterion 5 checks the batched solvers against verify's own scan and
    # scalar bisection of the cleared residual; the oracle must still work
    # with every batched entry point and both complex residual kernels
    # broken.
    alpha, theta = -3.0, 1.0
    (s_even,), (k,) = gaps._sector_roots([(alpha, 0, "+", [theta]), (-alpha, 1, "-", [theta])])
    kappa = -s_even
    gap = bands.gap_intervals(-alpha, 1)[1]
    kappas = np.linspace(1e-6, gaps.kappa_cutoff(alpha) + 1.0, 4001)
    ks = np.linspace(gap.k_lo + 1e-12, gap.k_hi - 1e-12, 2001)

    def broken(*args, **kwargs):
        raise AssertionError("the oracle called the batched engine")

    for module, name in (
        (_rootfind, "bisect_batch"),
        (gaps, "bisect_batch"),
        (gaps, "_sector_roots"),
        (verify, "_sector_roots"),
        (resonance, "resonance_residual"),
        (resonance, "resonance_residual_grid"),
    ):
        monkeypatch.setattr(module, name, broken)
    roots = verify._cleared_roots(kappas, alpha, theta, 1j)["+"]
    assert len(roots) == 1 and abs(roots[0] - kappa) <= 1e-9
    roots = verify._cleared_roots(ks, -alpha, theta, 1)["-"]
    roots = [r for r in roots if min(r - gap.k_lo, gap.k_hi - r) > 1e-9]
    assert len(roots) == 1 and abs(roots[0] - k) <= 1e-9


def _per_parity_reference(xs, alpha, theta, parity, unit):
    # Reference oracle in complex arithmetic, one parity at a time: a scan
    # of the complex residual grid, then the scalar bisection of the
    # complex residual's real part.
    vals = resonance.resonance_residual_grid(
        unit * xs.astype(complex), alpha, theta, parity
    ).real

    def cleared(x):
        return resonance.resonance_residual(unit * x, alpha, theta, parity).real

    roots = []
    for i in verify._candidate_indices(vals):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        else:
            roots.append(_rootfind.bisect(cleared, float(xs[i]), float(xs[i + 1]),
                                          fa=float(vals[i]), fb=float(vals[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


@settings(max_examples=40, deadline=None)
@given(
    magnitude=st.floats(1.0, 6.0),
    attractive=st.booleans(),
    theta=st.floats(0.3, np.pi - 0.3),
    n=st.integers(1, 5),
)
def test_cleared_roots_match_the_complex_per_parity_oracle(magnitude, attractive, theta, n):
    alpha = -magnitude if attractive else magnitude
    gap = next(g for g in bands.gap_intervals(alpha, n) if g.n == n)
    axes = [(np.linspace(gap.k_lo + 1e-12, gap.k_hi - 1e-12, 2001), 1)]
    upper = gaps.kappa_cutoff(alpha) + 1.0 if attractive else 4.0
    axes.append((np.linspace(1e-6, upper, 4001), 1j))
    for xs, unit in axes:
        found = verify._cleared_roots(xs, alpha, theta, unit)
        assert set(found) == {"+", "-"}
        for parity in ("+", "-"):
            reference = _per_parity_reference(xs, alpha, theta, parity, unit)
            assert list(map(repr, found[parity])) == list(map(repr, reference))


def test_criterion_06_branch_exponent():
    run_and_record("6-exponent")


@pytest.mark.xfail(
    strict=True,
    reason="the branch coefficient target constant uses alpha/4 where the "
    "measured asymptotics follow alpha/8; the fit misses the pinned "
    "value by ~21% at every tested flat-band point",
)
def test_criterion_06_branch_coefficient():
    run_and_record("6-coefficient")


@pytest.mark.xfail(
    strict=True,
    reason="the quartic-descent target constant carries an extra 1/pi; "
    "the fit matches the same expression without it to ~1e-5 but misses "
    "the pinned value by a factor of pi",
)
def test_criterion_07_quartic_descent_coefficient():
    run_and_record("7")


def test_criterion_08_negative_eigenvalue_bounds():
    run_and_record("8")


def test_criterion_09_double_eigenvalue_recovery():
    run_and_record("9")


def test_criterion_10_zero_crossing_continuity():
    run_and_record("10")


def test_criterion_11_transfer_invariants_and_decay():
    run_and_record("11")


@pytest.mark.xfail(
    strict=True,
    reason="the residual is even in k, so every zero mirrors into the "
    "scanned left-half-plane boxes and two test angles put a zero on the "
    "contour itself; a zero count there is unattainable",
)
def test_criterion_12_left_half_plane_exclusion():
    run_and_record("12")


def test_expected_failure_set_is_exactly_the_known_three():
    assert EXPECTED_FAILURES == {"6-coefficient", "7", "12"}


def _without_runtime(result) -> dict:
    fields = dataclasses.asdict(result)
    del fields["runtime_seconds"]
    return fields


@pytest.mark.skipif(
    verify._usable_cpus() < 2, reason="one usable CPU runs the criteria in-process"
)
def test_worker_processes_give_the_in_process_results():
    labels = ["1", "2", "9", "12"]
    pooled = verify.run_all(labels)
    assert multiprocessing.active_children() == []
    serial = [run_criterion(label) for label in labels]
    assert [_without_runtime(r) for r in pooled] == [
        _without_runtime(r) for r in serial
    ]


def test_run_all_runs_a_patched_run_criterion(monkeypatch):
    # The benchmark's tracer patches ``run_criterion`` with a local
    # wrapper, which cannot be pickled; the workers must look it up
    # rather than be sent it.
    def marked(label):
        return verify.CriterionResult(
            label, "marked", True, False, 0.0, detail=str(os.getpid())
        )

    monkeypatch.setattr(verify, "run_criterion", marked)
    results = verify.run_all(["1", "2", "9"])
    assert [(r.label, r.description) for r in results] == [
        ("1", "marked"), ("2", "marked"), ("9", "marked"),
    ]
    if verify._usable_cpus() >= 2:
        assert str(os.getpid()) not in {r.detail for r in results}
    assert multiprocessing.active_children() == []


def _marked(label):
    return verify.CriterionResult(label, "marked", True, False, 0.0)


def test_run_all_reads_a_bare_string_as_one_label(monkeypatch):
    # "12" is criterion 12, not criteria 1 and 2.
    monkeypatch.setattr(verify, "run_criterion", _marked)
    assert [r.label for r in verify.run_all("12")] == ["12"]
    assert [r.label for r in verify.run_all("6")] == ["6-exponent", "6-coefficient"]


def test_run_all_rejects_an_unknown_or_empty_selection(monkeypatch):
    monkeypatch.setattr(verify, "run_criterion", _marked)
    with pytest.raises(ValueError, match="^unknown criteria: 99$"):
        verify.run_all(["1", "99"])
    with pytest.raises(ValueError, match="^empty criteria selection$"):
        verify.run_all([])


# Writes each worker's pid, then keeps the worker busy.  One write per
# line: a pipe write below PIPE_BUF is atomic, whereas print may split the
# line in two writes that the other worker's can interleave.
_SLOW_WORKERS = """
import os, time
from ringchain import verify

def slow(label):
    os.write(1, f"{os.getpid()}\\n".encode())
    time.sleep(60)

verify.run_criterion = slow
verify.run_all(["1", "2"])
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    verify._usable_cpus() < 2 or not os.path.isdir("/proc"),
    reason="needs worker processes and /proc",
)
def test_workers_exit_when_their_parent_is_killed():
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_WORKERS], stdout=subprocess.PIPE, text=True
    )
    pids = [int(proc.stdout.readline()) for _ in range(2)]
    proc.kill()
    proc.wait()
    proc.stdout.close()
    try:
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
