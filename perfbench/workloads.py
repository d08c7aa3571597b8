"""The four benchmark workloads: inputs from a seed, and a correctness gate.

Each workload is one ``ringchain`` CLI call.  Its seed fixes the coupling
alpha (uniform in the stated range); everything else in the argv is
fixed.  The gate reads the artifact the call wrote and splits what it
finds into two kinds:

* ``failed`` counts operations that did not complete properly: a
  (theta, gap) slot of a sweep without one or two eigenvalues, a
  resonance branch that was abandoned, a verify criterion whose status
  differs from the expected one.  Known defects show up here and are not
  hidden.
* ``wrong`` lists outputs that are wrong in themselves: a published root
  that is not a root of the cleared residual, rows that do not belong to
  the requested grid, an exit code that contradicts the artifact, an
  artifact that cannot be read.  Any entry makes the run incorrect.

Roots are re-checked against the cleared resonance residual written out
here from its formula, not imported from the package, so that a defect in
the package's own residual cannot vouch for its roots: eigenvalues by
their distance to a zero, resonance samples by the residual relative to
the size of its terms.
"""
from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# A published eigenvalue must lie within this share of max(1, |k|) of a
# zero of the cleared residual, by the Newton-step estimate |F/F'|.  The
# CLI's roots sit below 1e-14; an error of 1e-9 in k shows above 6e-11.
# (The residual alone cannot tell: near integers at small angles it is so
# flat that an error of 1e-6 in k moves it by 1e-11 of its scale.)
ROOT_TOL = 1e-10
# A resonance sample must make the cleared residual vanish to this share
# of the size of its terms (measured: below 1e-13).  Samples next to a
# flat-band point sit on a nearly triple zero, where the Newton step is
# no distance estimate.
RESIDUAL_TOL = 1e-9

THETA_COUNT = 128
N_MAX_SWEEP = 5
N_MAX_RESONANCE = 8
# ``resonances`` seeds every branch this far past its singular angle.
RESONANCE_DELTA0 = 1e-2
RESONANCE_THETA_STOP = math.pi - 1e-2

# Acceptance criteria whose pinned target constants are known to be wrong:
# they must fail, and every other criterion must pass.
VERIFY_EXPECTED_FAILURES = frozenset({"6-coefficient", "7", "12"})
VERIFY_LABELS = (
    "1", "2", "3", "4", "5", "6-exponent", "6-coefficient", "7", "8", "9",
    "10", "11", "12",
)


@dataclass
class GateResult:
    """What the gate found in one call's artifact."""

    ops: int
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digest: str = ""


@dataclass(frozen=True)
class Workload:
    """One CLI call whose coupling is drawn from the seed, and its gate.

    An operation is one (theta, gap) slot for the sweeps, one branch for
    the resonance trace and one criterion for the acceptance report.
    """

    name: str
    alpha_range: tuple[float, float] | None
    argv: Callable[[float | None], list[str]]
    gate: Callable[[float | None, int, Path, str], GateResult]

    def alpha(self, seed: int) -> float | None:
        """Coupling drawn from the seed; the same seed gives the same alpha."""
        if self.alpha_range is None:
            return None
        lo, hi = self.alpha_range
        return round(random.Random(f"{self.name}:{seed}").uniform(lo, hi), 6)


def cleared_residual(k: complex, alpha: float, theta: float, sign: float) -> tuple[complex, float]:
    """Cleared resonance residual at ``k`` and the size of its terms.

    ``alpha (1 + s a b)(s a + b) - 2 k sin(pi k)(1 + 2 s a b + a^2)`` with
    ``a = cos(k theta)``, ``b = cos(pi k)`` and ``s`` the parity sign.  It
    is entire in ``k``; gap eigenvalues are its real zeros, negative
    energies its zeros ``k = i kappa``, resonances its complex zeros.
    """
    a = cmath.cos(k * theta)
    b = cmath.cos(math.pi * k)
    sp = cmath.sin(math.pi * k)
    left = alpha * (1.0 + sign * a * b) * (sign * a + b)
    right = 2.0 * k * sp * (1.0 + 2.0 * sign * a * b + a * a)
    scale = abs(alpha) * (1.0 + abs(a * b)) * (abs(a) + abs(b)) + 2.0 * abs(k * sp) * (
        1.0 + 2.0 * abs(a * b) + abs(a) ** 2
    )
    return left - right, scale


def _signs(parity: str) -> tuple[float, ...]:
    return {"+": (1.0,), "-": (-1.0,), "+-": (1.0, -1.0)}[parity]


def _relative_residual(k: complex, alpha: float, theta: float, parity: str) -> float:
    worst = 0.0
    for sign in _signs(parity):
        value, scale = cleared_residual(k, alpha, theta, sign)
        worst = max(worst, abs(value) / scale if scale > 0.0 else abs(value))
    return worst


def _root_distance(k: complex, alpha: float, theta: float, parity: str) -> float:
    """Newton-step estimate ``|F(k) / F'(k)|`` of the distance to the nearest zero."""
    h = 1e-6 * max(1.0, abs(k))
    worst = 0.0
    for sign in _signs(parity):
        value = cleared_residual(k, alpha, theta, sign)[0]
        slope = (
            cleared_residual(k + h, alpha, theta, sign)[0]
            - cleared_residual(k - h, alpha, theta, sign)[0]
        ) / (2.0 * h)
        if value != 0.0:
            worst = max(worst, abs(value / slope) if slope != 0.0 else math.inf)
    return worst


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _unreadable(ops: int, exit_code: int, path: Path, expected: int) -> GateResult | None:
    """Gate result for a call that left no usable artifact, else None.

    A numeric failure (exit 3) is the CLI declining to answer: every
    operation failed, but nothing wrong was published.  Any other exit
    code than the expected one, or a missing artifact, is wrong.
    """
    if exit_code == 3:
        return GateResult(ops, ops, failures=["numeric failure (exit 3)"])
    if exit_code != expected:
        return GateResult(ops, ops, wrong=[f"exit code {exit_code}, expected {expected}"])
    if not path.is_file():
        return GateResult(ops, ops, wrong=["no artifact written"])
    return None


def _sweep_thetas() -> list[float]:
    """The CLI's half-step-offset grid over [0, pi] with 128 nodes."""
    step = math.pi / THETA_COUNT
    return [(i + 0.5) * step for i in range(THETA_COUNT)]


def _sweep_argv(alpha: float | None) -> list[str]:
    return [
        "eigenvalues", "--alpha", repr(alpha),
        "--theta-start", "0", "--theta-stop", repr(math.pi),
        "--theta-count", str(THETA_COUNT), "--nmax", str(N_MAX_SWEEP),
    ]


def _gate_sweep(alpha: float | None, exit_code: int, path: Path, stderr: str) -> GateResult:
    thetas = _sweep_thetas()
    gaps = list(range(N_MAX_SWEEP + 1))
    ops = len(thetas) * len(gaps)
    bad = _unreadable(ops, exit_code, path, 0)
    if bad is not None:
        return bad
    result = GateResult(ops, digest=_file_digest(path))
    counts = {(t, g): 0 for t in thetas for g in gaps}
    broken: set[tuple[float, int]] = set()
    try:
        rows = _read_csv(path)
        for row in rows:
            theta, gap = float(row["theta"]), int(row["gap_index"])
            if (theta, gap) not in counts:
                result.wrong.append(f"row outside the grid: theta={theta!r} gap={gap}")
                continue
            if row["k_re"] == "" and row["k_im"] == "":
                continue  # marker of an eigenvalue suppressed at a singular angle
            energy = float(row["energy"])
            k = complex(float(row["k_re"])) if energy > 0.0 else 1j * float(row["k_im"])
            dist = _root_distance(k, alpha, theta, row["parity"])
            if not dist <= ROOT_TOL * max(1.0, abs(k)):
                broken.add((theta, gap))
                result.wrong.append(
                    f"theta={theta:.6g} gap={gap} parity={row['parity']}: "
                    f"k={k} is {dist:.3g} from a root"
                )
            counts[(theta, gap)] += int(row["multiplicity"])
    except (KeyError, ValueError) as exc:
        result.wrong.append(f"unreadable artifact: {exc!r}")
        result.failed = ops
        return result
    for (theta, gap), n in counts.items():
        if not 1 <= n <= 2 or (theta, gap) in broken:
            result.failed += 1
            result.failures.append(f"theta={theta:.6g} gap={gap}: {n} eigenvalues")
    return result


def _resonance_argv(alpha: float | None) -> list[str]:
    return ["resonances", "--alpha", repr(alpha), "--nmax", str(N_MAX_RESONANCE)]


def _resonance_jobs() -> list[tuple[str, int, int, str, float]]:
    """Branches the CLI traces, in its output order: (parity, n, ell, branch, theta0)."""
    jobs = []
    for parity in ("+", "-"):
        for n in range(1, N_MAX_RESONANCE + 1):
            ells = range(1, (n + 1) // 2 + 1) if parity == "+" else range(1, n // 2 + 1)
            for ell in ells:
                units = n + 1 - 2 * ell if parity == "+" else n - 2 * ell
                theta0 = units * math.pi / n
                if not 0.0 <= theta0 < math.pi or theta0 + RESONANCE_DELTA0 >= RESONANCE_THETA_STOP:
                    continue
                for branch in ("lower", "upper"):
                    jobs.append((parity, n, ell, branch, theta0))
    return jobs


def _gate_resonance(alpha: float | None, exit_code: int, path: Path, stderr: str) -> GateResult:
    jobs = _resonance_jobs()
    ops = len(jobs)
    bad = _unreadable(ops, exit_code, path, 0)
    if bad is not None:
        return bad
    result = GateResult(ops, digest=_file_digest(path))
    abandoned = [ln for ln in stderr.splitlines() if ln.startswith("warning: curve abandoned")]
    # Rows of one branch are contiguous; consecutive branches never share
    # (parity, n, branch) because the branch alternates lower/upper.
    curves: list[tuple[tuple[str, int, str], list[dict[str, str]]]] = []
    missing = 0
    try:
        for row in _read_csv(path):
            key = (row["parity"], int(row["gap_index"]), row["branch"])
            if not curves or curves[-1][0] != key:
                curves.append((key, []))
            curves[-1][1].append(row)
        traced = iter(curves)
        current = next(traced, None)
        for parity, n, ell, branch, theta0 in jobs:
            label = f"({n},{ell},{parity},{branch})"
            if current is None or current[0] != (parity, n, branch):
                missing += 1
                result.failed += 1
                result.failures.append(f"branch {label} missing")
                continue
            rows = current[1]
            current = next(traced, None)
            first = float(rows[0]["theta"])
            if abs(first - (theta0 + RESONANCE_DELTA0)) > 1e-12:
                result.wrong.append(f"branch {label} starts at theta={first!r}")
            worst = max(
                _relative_residual(
                    complex(float(r["k_re"]), float(r["k_im"])), alpha, float(r["theta"]), parity
                )
                for r in rows
            )
            if not worst <= RESIDUAL_TOL:
                result.failed += 1
                result.wrong.append(f"branch {label}: relative residual {worst:.3g}")
        if current is not None:
            result.wrong.append(f"unexpected branch {current[0]}")
    except (KeyError, ValueError) as exc:
        result.wrong.append(f"unreadable artifact: {exc!r}")
        result.failed = ops
        return result
    if len(abandoned) != missing:
        result.wrong.append(f"{len(abandoned)} abandoned-curve warnings for {missing} missing branches")
    return result


def _verify_argv(alpha: float | None) -> list[str]:
    return ["verify", "--format", "json"]


def _gate_verify(alpha: float | None, exit_code: int, path: Path, stderr: str) -> GateResult:
    ops = len(VERIFY_LABELS)
    if exit_code not in (0, 1):
        return _unreadable(ops, exit_code, path, 1)
    if not path.is_file():
        return GateResult(ops, ops, wrong=["no artifact written"])
    result = GateResult(ops)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        criteria = payload["criteria"]
        labels = [c["label"] for c in criteria]
        if labels != list(VERIFY_LABELS):
            result.wrong.append(f"criteria {labels}, expected {list(VERIFY_LABELS)}")
        for c in criteria:
            expect_fail = c["label"] in VERIFY_EXPECTED_FAILURES
            if bool(c["passed"]) == expect_fail or bool(c["expected_to_fail"]) != expect_fail:
                result.failed += 1
                result.failures.append(
                    f"criterion {c['label']}: passed={c['passed']} "
                    f"expected_to_fail={c['expected_to_fail']}"
                )
        all_passed = all(bool(c["passed"]) for c in criteria)
        if (exit_code == 0) != all_passed or bool(payload["overall_pass"]) != all_passed:
            result.wrong.append(f"exit code {exit_code} contradicts the criteria statuses")
        # Runtimes differ between runs; everything else must not.
        for c in criteria:
            c.pop("runtime_seconds", None)
        canonical = json.dumps(payload, sort_keys=True).encode()
        result.digest = hashlib.sha256(canonical).hexdigest()
    except (KeyError, TypeError, ValueError) as exc:
        result.wrong.append(f"unreadable artifact: {exc!r}")
        result.failed = ops
    return result


# Why each workload is here (BENCHMARK.json holds the one-line record):
# - sweep-repulsive: 22 bracket scans per angle (12 in solve_gap, 10 in the
#   two gap_intervals calls per angle), the path that scan vectorising and
#   alpha-only hoisting target; all angles share one alpha.  The grid starts
#   at 0 so that the small-angle eigenvalue drop shows as a failed slot.
# - sweep-attractive: the same gaps layer below the borderline -8/pi:
#   negative energies, per-point Python scans in solve_negative, the
#   deep-odd path and the band-edge scans of _negative_edges.
# - resonance-trace: complex Newton continuation only, no bracket scans;
#   a scan or bisection change must leave it unchanged.
# - verify-all: the only path through transfer, the contour count and
#   verify's own cleared-residual scans; criterion 5 draws a fresh alpha
#   per triple, so a cache keyed on alpha cannot help it.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep-repulsive", (2.5, 3.5), _sweep_argv, _gate_sweep),
        Workload("sweep-attractive", (-3.5, -2.7), _sweep_argv, _gate_sweep),
        Workload("resonance-trace", (2.5, 3.5), _resonance_argv, _gate_resonance),
        Workload("verify-all", None, _verify_argv, _gate_verify),
    )
}
