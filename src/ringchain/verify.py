"""Self-contained acceptance checks over the whole engine.

Each criterion is a pure function returning a pass/fail verdict plus the
measured numbers behind it, so both the test suite and the command line
can render one line per criterion.  Three checks pin measured asymptotics
against stated target constants that the measurements contradict by fixed
factors; they are expected to fail and are flagged as such, never
silenced (see ``EXPECTED_FAILURES``).

Criterion 5 checks the batched gap and negative-energy solvers against an
oracle of this module's own: a scan of the cleared resonance residual and
a scalar bisection of it, on the real axis and on the imaginary axis.  On
both axes every term of that residual is real, so the oracle evaluates it
in real arithmetic (``cos``/``sin`` and ``cosh``/``sinh``) without
changing a root, and it runs none of the batched code it checks.

Every criterion is a pure function with its own RNG seed, so ``run_all``
may run them in forked worker processes without changing a result.
"""
from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ._rootfind import bisect
from .bands import _gaps_at, compute_bands, gap_intervals, in_spectrum, lowest_band_threshold
from .dispersion import (
    ZERO_ENERGY_ALPHA_MIN,
    _complex_multiply,
    discriminant,
    discriminant_negative,
)
from .gaps import (
    _sector_roots,
    double_points_in_gap,
    gap_eigenvalues_grid,
    kappa_cutoff,
    odd_zero_crossing_angle,
    recover_double_angle,
    singular_angles,
    trace_eigenvalue_curve,
)
from .resonance import (
    ContourZeroError,
    SingularPoint,
    _axis_terms,
    _cleared,
    count_zeros_box,
    fit_branch_exponent,
    fit_gentle_coefficient,
    gentle_bend_coefficient,
)
from .transfer import (
    boundary_vector_even,
    coefficient_sequence,
    measured_decay_rate,
    transfer_eigen,
    transfer_matrix,
)

__all__ = [
    "CriterionResult",
    "EXPECTED_FAILURES",
    "CRITERION_LABELS",
    "select_criteria",
    "run_criterion",
    "run_all",
    "summarize",
]

# Checks whose pinned target constants disagree with the measured
# asymptotics: the branch coefficient target cbrt(alpha/4)*k0/pi (the fits
# give cbrt(alpha/8)*k0/pi), the quartic target with an extra 1/pi (the
# fits give the same expression without it), and the left-half-plane zero
# count (the residual is even in k, mirroring every zero into it).  They
# run fully and report honest failures.
EXPECTED_FAILURES = frozenset({"6-coefficient", "7", "12"})

_RNG_SEED_ORACLE = 20260814
_RNG_SEED_FORMS = 20260815
_RNG_SEED_TRANSFER = 20260816
# Criterion 11's draws per array call; blocks of 2,048 raised its process's
# peak RSS by about 0.4 MB, and one block of 10,000 by 3.2 MB.
_TRANSFER_BLOCK = 512


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    label: str
    description: str
    passed: bool
    expected_to_fail: bool
    runtime_seconds: float
    detail: str = ""
    measured: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "FAIL (expected)" if self.expected_to_fail else "FAIL"


def _criterion_band_edges() -> tuple[bool, dict, str]:
    rep = compute_bands(3.0, 30.0)
    dev_hi = max(
        abs(b.e_hi - (i + 1) ** 2) for i, b in enumerate(rep.bands)
    )
    att = compute_bands(-3.0, 30.0)
    dev_lo = max(
        abs(b.e_lo - i * i) for i, b in enumerate(att.bands) if i >= 1
    )
    passed = dev_hi <= 1e-10 and dev_lo <= 1e-10
    measured = {
        "repulsive_upper_edge_deviation": dev_hi,
        "attractive_lower_edge_deviation": dev_lo,
        "repulsive_band_count": len(rep.bands),
        "attractive_band_count": len(att.bands),
    }
    return passed, measured, (
        f"upper-edge dev {dev_hi:.3g}, lower-edge dev {dev_lo:.3g}"
    )


def _criterion_borderline() -> tuple[bool, dict, str]:
    spectrum = compute_bands(ZERO_ENERGY_ALPHA_MIN, 10.0)
    top = spectrum.bands[0].e_hi
    passed = abs(top) <= 1e-10
    return passed, {"lowest_band_upper_edge": top}, (
        f"lowest band tops out at {top:.3g}"
    )


def _criterion_floquet_oracle() -> tuple[bool, dict, str]:
    rng = np.random.default_rng(_RNG_SEED_ORACLE)
    energies = rng.uniform(-10.0, 30.0, 1000)
    roots = np.sqrt(np.abs(energies))
    positive = energies >= 0.0
    disagreements = 0
    checked = 0
    for alpha in (3.0, -3.0, 0.5, ZERO_ENERGY_ALPHA_MIN):
        g = np.where(positive, discriminant(roots, alpha), discriminant_negative(roots, alpha))
        r = np.sqrt((g * g - 1.0).astype(complex))
        big = np.maximum(np.hypot(g + r.real, r.imag), np.hypot(g - r.real, r.imag))
        oracle = big <= 1.0 + 1e-9
        disagreements += int(np.count_nonzero(oracle != in_spectrum(energies, alpha)))
        checked += energies.size
    passed = disagreements == 0
    return passed, {"checked": checked, "disagreements": disagreements}, (
        f"{checked} samples, {disagreements} disagreements"
    )


def _criterion_gap_counts() -> tuple[bool, dict, str]:
    violations: list[str] = []
    lo_seen, hi_seen = math.inf, -math.inf
    for alpha in (3.0, -3.0):
        thetas = [(i + 0.5) * math.pi / 50.0 for i in range(50)]
        for theta, records in zip(thetas, gap_eigenvalues_grid(alpha, thetas, 5)):
            counts: dict[int, int] = {}
            for r in records:
                counts[r.gap_index] = counts.get(r.gap_index, 0) + r.multiplicity
            for idx in range(6):
                c = counts.get(idx, 0)
                lo_seen, hi_seen = min(lo_seen, c), max(hi_seen, c)
                if not 1 <= c <= 2:
                    violations.append(
                        f"alpha={alpha} theta={theta:.4f} gap={idx}: {c}"
                    )
    passed = not violations
    measured = {
        "min_count": lo_seen,
        "max_count": hi_seen,
        "violations": len(violations),
    }
    detail = "counts all in {1, 2}" if passed else "; ".join(violations[:4])
    return passed, measured, detail


def _candidate_indices(vals: np.ndarray) -> np.ndarray:
    """Ascending ``i`` with ``vals[i] == 0`` or ``vals[i]*vals[i+1] < 0``."""
    return np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))


def _cleared_roots(
    xs: np.ndarray, alpha: float, theta: float, unit: complex
) -> dict[str, list[float]]:
    """Zeros ``x`` of the cleared residual at ``k = unit*x``, per parity.

    ``unit`` is 1 for the real axis and ``1j`` for the imaginary axis.  On
    both the residual's terms ``cos(k theta)``, ``cos(pi k)`` and
    ``2k sin(pi k)`` are real (``cosh``, ``cosh`` and ``-2x sinh`` on the
    imaginary one), so it is evaluated in real arithmetic: the samples are
    computed once for both parities, and the scalar form bisected between
    them equals the complex evaluation's real part bit for bit.  Scan
    (``_candidate_indices``) and bisection (the scalar ``bisect``) are this
    module's own, so the oracle shares no code with the batched solvers it
    checks.
    """
    terms = _axis_terms(xs, theta, unit, np)
    roots: dict[str, list[float]] = {}
    for parity, s in (("+", 1.0), ("-", -1.0)):
        vals = _cleared(*terms, alpha, s)

        def cleared(x: float) -> float:
            return _cleared(*_axis_terms(x, theta, unit, math), alpha, s)

        found = roots[parity] = []
        for i in _candidate_indices(vals):
            if vals[i] == 0.0:
                found.append(float(xs[i]))
            else:
                found.append(
                    bisect(cleared, float(xs[i]), float(xs[i + 1]),
                           fa=float(vals[i]), fb=float(vals[i + 1]))
                )
        if vals[-1] == 0.0:
            found.append(float(xs[-1]))
    return roots


def _matches_reference(roots: list[float], reference: float | None) -> bool:
    if reference is None:
        return not roots
    return len(roots) == 1 and abs(roots[0] - reference) <= 1e-9


def _criterion_form_equivalence() -> tuple[bool, dict, str]:
    rng = np.random.default_rng(_RNG_SEED_FORMS)
    draws = []
    while len(draws) < 1000:
        alpha = float(rng.uniform(1.0, 6.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        n = int(rng.integers(1, 6))
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        if any(
            abs(theta - t0) < 1e-3
            for p in ("+", "-")
            for t0 in singular_angles(n, p)
        ):
            continue
        draws.append((alpha, n, theta))
    trials = len(draws)
    # Gap n in both parities; for an attractive coupling the even negative
    # sector too, and below the borderline the odd one, whose slot in gap
    # 1 serves both readers.
    wanted = [(a, n, p, t) for a, n, t in draws for p in ("+", "-")]
    for a, _, t in draws:
        if a < 0.0:
            wanted.append((a, 0, "+", t))
        if a < ZERO_ENERGY_ALPHA_MIN:
            wanted.append((a, 1, "-", t))
    slots = list(dict.fromkeys(wanted))
    solved = _sector_roots([(a, n, p, [t]) for a, n, p, t in slots])
    signed = dict(zip(slots, np.concatenate(solved).tolist()))
    alphas, ns, _ = zip(*draws)
    cutoffs = iter(kappa_cutoff([a for a, _, _ in draws if a < 0.0]))
    mismatches = 0
    worst = 0.0
    for (alpha, n, theta), gap in zip(draws, _gaps_at(alphas, ns)):
        ks = np.linspace(gap.k_lo + 1e-12, gap.k_hi - 1e-12, 2001)
        found = _cleared_roots(ks, alpha, theta, 1)
        for parity in ("+", "-"):
            k_gap = signed[(alpha, n, parity, theta)]
            k_gap = k_gap if k_gap > 0.0 else None
            roots = [
                r for r in found[parity]
                if min(abs(r - gap.k_lo), abs(r - gap.k_hi)) > 1e-9
            ]
            if not _matches_reference(roots, k_gap):
                mismatches += 1
            elif k_gap is not None:
                worst = max(worst, float(abs(roots[0] - k_gap)))
        if alpha < 0.0:
            # Below the spectrum threshold the same cleared residual,
            # evaluated on the imaginary axis, must reproduce the
            # hyperbolic-form eigenvalues.
            kappas = np.linspace(1e-6, next(cutoffs) + 1.0, 4001)
            found = _cleared_roots(kappas, alpha, theta, 1j)
            for parity, n_neg in (("+", 0), ("-", 1)):
                kappa_ref = -signed.get((alpha, n_neg, parity, theta), math.nan)
                kappa_ref = kappa_ref if kappa_ref > 0.0 else None
                roots = found[parity]
                if not _matches_reference(roots, kappa_ref):
                    mismatches += 1
                elif kappa_ref is not None:
                    worst = max(worst, float(abs(roots[0] - kappa_ref)))
    passed = mismatches == 0
    measured = {"trials": trials, "mismatches": mismatches, "worst_gap": worst}
    return passed, measured, (
        f"{trials} triples, worst root gap {worst:.3g}, {mismatches} mismatches"
    )


_BRANCH_POINTS = (
    SingularPoint(1, 1, "+"),
    SingularPoint(2, 1, "+"),
    SingularPoint(3, 1, "+"),
    SingularPoint(3, 2, "+"),
)


@functools.cache
def _branch_fits(alpha: float):
    # Criteria 6-exponent and 6-coefficient read the same frozen fits.
    return tuple((sp, fit_branch_exponent(alpha, sp)) for sp in _BRANCH_POINTS)


def _criterion_branch_exponent() -> tuple[bool, dict, str]:
    measured: dict = {}
    ok = True
    for sp, fit in _branch_fits(3.0):
        key = f"({sp.n},{sp.ell})"
        measured[f"exponent{key}"] = fit.exponent
        if not 1.31 <= fit.exponent <= 1.36:
            ok = False
    detail = ", ".join(
        f"{k.removeprefix('exponent')}: {v:.4f}" for k, v in measured.items()
    )
    return ok, measured, f"fitted exponents {detail}"


def _criterion_branch_coefficient() -> tuple[bool, dict, str]:
    alpha = 3.0
    measured: dict = {}
    ok = True
    worst = 0.0
    for sp, fit in _branch_fits(alpha):
        target = (alpha / 4.0) ** (1.0 / 3.0) * sp.k0 / math.pi
        alt = (alpha / 8.0) ** (1.0 / 3.0) * sp.k0 / math.pi
        rel = abs(fit.coefficient - target) / target
        key = f"({sp.n},{sp.ell})"
        measured[f"coefficient{key}"] = fit.coefficient
        measured[f"target{key}"] = target
        measured[f"relative_error{key}"] = rel
        measured[f"halved_cube_target{key}"] = alt
        worst = max(worst, rel)
        if rel > 0.03:
            ok = False
    return ok, measured, (
        f"worst relative error vs cbrt(alpha/4)*k0/pi target: {worst:.3g} "
        "(measurements instead track cbrt(alpha/8)*k0/pi)"
    )


def _criterion_quartic_law() -> tuple[bool, dict, str]:
    alpha = 3.0
    gap = next(g for g in gap_intervals(alpha, 2) if g.n == 2)
    k0 = gap.band_edge
    fitted = fit_gentle_coefficient(alpha, gap)
    target = (k0 * k0 / (8.0 * math.pi)) * (alpha / 4.0) ** 3 / (
        k0 * math.pi + math.sin(math.pi * k0)
    )
    closed = gentle_bend_coefficient(k0, alpha)
    rel = abs(fitted - target) / target
    measured = {
        "k0": k0,
        "fitted": fitted,
        "target_with_extra_pi": target,
        "closed_form": closed,
        "relative_error_vs_target": rel,
        "relative_error_vs_closed_form": abs(fitted - closed) / closed,
    }
    passed = rel <= 0.02
    return passed, measured, (
        f"fitted {fitted:.6g} vs pinned target {target:.6g} "
        f"(rel err {rel:.3g}; closed form without the extra 1/pi gives "
        f"{closed:.6g})"
    )


def _criterion_negative_bounds() -> tuple[bool, dict, str]:
    alpha = -3.0
    cutoff_energy = -kappa_cutoff(alpha) ** 2
    threshold = lowest_band_threshold(alpha)
    worst_margin = math.inf
    ok = True
    thetas = [(i + 0.5) * math.pi / 20.0 for i in range(20)]
    (s,) = _sector_roots([(alpha, 0, "+", thetas)])
    for kap in -s:
        if np.isnan(kap):
            ok = False
            continue
        e = -kap * kap
        margin = min(e - cutoff_energy, threshold - e)
        worst_margin = min(worst_margin, margin)
        if not cutoff_energy < e < threshold:
            ok = False
    measured = {
        "cutoff_energy": cutoff_energy,
        "threshold": threshold,
        "worst_margin": worst_margin,
    }
    return ok, measured, (
        f"even negative eigenvalue inside ({cutoff_energy:.6g}, "
        f"{threshold:.6g}), worst margin {worst_margin:.3g}"
    )


def _criterion_double_points() -> tuple[bool, dict, str]:
    alpha = 3.0
    gaps = {g.n: g for g in gap_intervals(alpha, 3)}
    ok = True
    measured: dict = {}
    worst = 0.0
    stars = {}
    for n in (1, 2, 3):
        found = double_points_in_gap(alpha, gaps[n])
        if found:
            stars[n] = (found[0], recover_double_angle(found[0], alpha))
        else:
            ok = False
    # Both parities of every gap at its double angle, solved in one call.
    slots = [(alpha, n, p, [theta]) for n, (_, theta) in stars.items() for p in "+-"]
    roots = iter(_sector_roots(slots))
    for n, (k_star, theta) in stars.items():
        (kp,), (km,) = next(roots), next(roots)
        measured[f"k_star_gap{n}"] = k_star
        measured[f"theta_gap{n}"] = theta
        if not (kp > 0.0 and km > 0.0):
            ok = False
            continue
        dev = max(abs(kp - k_star), abs(km - k_star))
        worst = max(worst, dev)
        if dev > 1e-9:
            ok = False
    measured["worst_deviation"] = worst
    return ok, measured, (
        f"both parity solvers return the degenerate root, worst deviation "
        f"{worst:.3g}"
    )


def _criterion_zero_crossing() -> tuple[bool, dict, str]:
    alpha = -4.0
    theta_star = odd_zero_crossing_angle(alpha)
    grid = np.linspace(theta_star - 0.25, theta_star + 0.25, 201)
    curve = trace_eigenvalue_curve(alpha, "-", 1, grid, jump_factor=3.0)
    energies = curve.energies()
    thetas = curve.thetas()
    crossed = energies[0] < 0.0 < energies[-1]
    crossing = math.nan
    for (t0, e0), (t1, e1) in zip(
        zip(thetas, energies), zip(thetas[1:], energies[1:])
    ):
        if e0 < 0.0 <= e1:
            crossing = t0 - e0 * (t1 - t0) / (e1 - e0)
            break
    complete = len(curve.samples) == len(grid)
    passed = crossed and complete and abs(crossing - theta_star) < 5e-3
    measured = {
        "predicted_crossing": theta_star,
        "interpolated_crossing": crossing,
        "samples": len(curve.samples),
    }
    return passed, measured, (
        f"curve crosses zero at {crossing:.6f} (predicted {theta_star:.6f}) "
        "with every step inside the 3x secant bound"
    )


def _criterion_transfer_invariants() -> tuple[bool, dict, str]:
    rng = np.random.default_rng(_RNG_SEED_TRANSFER)
    n_pts = 10_000
    whole = rng.integers(0, 6, n_pts)
    frac = rng.uniform(0.1, 0.9, n_pts)
    ims = np.where(
        np.arange(n_pts) % 2 == 0, 0.0, rng.uniform(-1.0, 1.0, n_pts)
    )
    alphas = rng.uniform(-6.0, 6.0, n_pts)
    draws = (whole + frac) + 1j * ims
    max_det = 0.0
    max_char = 0.0
    degenerate = 0
    for lo in range(0, n_pts, _TRANSFER_BLOCK):
        k, alpha = draws[lo:lo + _TRANSFER_BLOCK], alphas[lo:lo + _TRANSFER_BLOCK]
        det = transfer_matrix(k, alpha).det - 1.0
        max_det = max(max_det, float(np.hypot(det.real, det.imag).max()))
        g = discriminant(k, alpha)
        disc = _complex_multiply(g, g) - 1.0
        keep = np.hypot(disc.real, disc.imag) >= 1e-12  # transfer_eigen raises on the rest
        degenerate += int(np.count_nonzero(~keep))
        eig, g = transfer_eigen(k[keep], alpha[keep]), g[keep]
        for lam in (eig.expanding, eig.contracting):
            res = _complex_multiply(lam, lam) - _complex_multiply(2.0 * g, lam) + 1.0
            max_char = max(max_char, float(np.hypot(res.real, res.imag).max(initial=0.0)))
    pool: list[tuple[float, object]] = []
    for alpha in (3.0, -3.0):
        for records in gap_eigenvalues_grid(alpha, (0.6, 1.3, 2.0, 2.7), 5, "+"):
            for r in records:
                if r.energy > 0.0 and r.gap_index >= 1:
                    pool.append((alpha, r))
    worst_decay = 0.0
    used = 0
    for alpha, rec in pool[:20]:
        eig = transfer_eigen(rec.k, alpha)
        seed = boundary_vector_even(rec.k, alpha, rec.theta)
        pairs = coefficient_sequence(seed, rec.k, alpha, 14)
        rate = measured_decay_rate(pairs)
        worst_decay = max(worst_decay, float(abs(rate - abs(eig.contracting))))
        used += 1
    passed = (
        max_det <= 1e-10
        and max_char <= 1e-10
        and used == 20
        and worst_decay <= 1e-6
    )
    measured = {
        "max_det_deviation": max_det,
        "max_char_poly_residual": max_char,
        "degenerate_draws": degenerate,
        "decay_samples": used,
        "worst_decay_deviation": worst_decay,
    }
    return passed, measured, (
        f"det dev {max_det:.3g}, char residual {max_char:.3g}, decay dev "
        f"{worst_decay:.3g} over {used} eigenvalues"
    )


def _criterion_half_plane() -> tuple[bool, dict, str]:
    outcomes: dict = {}
    nonzero = 0
    contour_hits = 0
    for alpha in (3.0, -3.0):
        for theta in (math.pi / 5.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
            for parity in ("+", "-"):
                key = f"alpha={alpha:g},theta={theta:.4f},{parity}"
                try:
                    c = count_zeros_box(
                        alpha, theta, parity, -3.0, -0.05, -3.0, 3.0
                    )
                except ContourZeroError:
                    outcomes[key] = "zero on contour"
                    contour_hits += 1
                    continue
                outcomes[key] = c
                if c != 0:
                    nonzero += 1
    passed = nonzero == 0 and contour_hits == 0
    measured = dict(outcomes)
    measured["nonzero_boxes"] = nonzero
    measured["contour_hits"] = contour_hits
    return passed, measured, (
        f"{nonzero} boxes with zeros, {contour_hits} contours hitting a "
        "zero (the residual's evenness in k mirrors right-half-plane zeros "
        "into the scanned region)"
    )


CRITERIA: tuple[tuple[str, str, object], ...] = (
    ("1", "band edges pin to squared integers", _criterion_band_edges),
    ("2", "borderline coupling closes the lowest band at zero", _criterion_borderline),
    ("3", "membership agrees with the unimodular-multiplier oracle", _criterion_floquet_oracle),
    ("4", "every gap holds one or two eigenvalues", _criterion_gap_counts),
    ("5", "cleared-form roots match gap-function roots", _criterion_form_equivalence),
    ("6-exponent", "branches leave flat-band points with exponent 4/3", _criterion_branch_exponent),
    ("6-coefficient", "branch coefficient matches the pinned target", _criterion_branch_coefficient),
    ("7", "quartic descent coefficient matches the pinned target", _criterion_quartic_law),
    ("8", "negative eigenvalue bounded by cutoff and threshold", _criterion_negative_bounds),
    ("9", "double eigenvalues recovered by both parity solvers", _criterion_double_points),
    ("10", "odd curve crosses zero energy within secant bounds", _criterion_zero_crossing),
    ("11", "transfer invariants hold and coefficients decay", _criterion_transfer_invariants),
    ("12", "no residual zeros with negative real part", _criterion_half_plane),
)

CRITERION_LABELS: tuple[str, ...] = tuple(label for label, _, _ in CRITERIA)


def select_criteria(labels=None) -> tuple[str, ...]:
    """Labels of the criteria ``labels`` asks for, in declaration order (default: all).

    A label is a criterion's label or the number before its dash (``"6"``
    selects both parts of criterion 6); a bare string is one label.  An
    unknown label or an empty selection is a ``ValueError``.
    """
    if labels is None:
        return CRITERION_LABELS
    wanted = [labels] if isinstance(labels, str) else list(labels)
    prefixes = {lab: lab.split("-")[0] for lab in CRITERION_LABELS}
    bad = [t for t in wanted if t not in prefixes and t not in prefixes.values()]
    if bad:
        raise ValueError(f"unknown criteria: {', '.join(bad)}")
    if not wanted:
        raise ValueError("empty criteria selection")
    return tuple(lab for lab, num in prefixes.items() if lab in wanted or num in wanted)


def run_criterion(label: str) -> CriterionResult:
    """Run one criterion by label, timing it and never raising."""
    for lab, desc, fn in CRITERIA:
        if lab == label:
            start = time.perf_counter()
            try:
                passed, measured, detail = fn()
            except Exception as exc:  # honest failure, never masked
                passed, measured, detail = False, {}, f"error: {exc!r}"
            runtime = time.perf_counter() - start
            return CriterionResult(
                lab, desc, bool(passed), lab in EXPECTED_FAILURES, runtime, detail,
                measured,
            )
    raise ValueError(f"unknown criterion label {label!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_label(label: str) -> CriterionResult:
    # The worker's task: only a label goes out and only the result comes
    # back.  ``run_criterion`` is looked up at call time, so a wrapper
    # patched over it (as the benchmark's tracer does) runs in the worker
    # without having to be pickled.
    return run_criterion(label)


def _exit_with_parent() -> None:
    # Worker initializer: a worker whose parent is killed would wait for
    # its next task for ever, so a thread ends it once the parent is gone.
    import threading
    from multiprocessing import connection, parent_process

    sentinel = parent_process().sentinel

    def watch():
        connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_all(labels=None) -> list[CriterionResult]:
    """Run the criteria ``select_criteria(labels)`` picks, results in declaration order.

    Two or more criteria on two or more usable CPUs run in forked worker
    processes, one per CPU and at most one per criterion; otherwise, or
    where the platform cannot fork, they run in this process.  The
    results are the same either way.
    """
    selected = select_criteria(labels)
    workers = min(len(selected), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [run_criterion(lab) for lab in selected]
    # Imported here: ``import ringchain.cli`` would otherwise pay for them
    # on every command.  Fork, not spawn: a spawned worker would import
    # numpy and the package again, and the pool forks all its workers
    # before it starts its own thread.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        workers, mp_context=fork, initializer=_exit_with_parent
    ) as pool:
        return list(pool.map(_run_label, selected))


def summarize(results: list[CriterionResult]) -> str:
    """One line per criterion, plus a final verdict line."""
    lines = [
        f"criterion {r.label}: {r.status} ({r.runtime_seconds:.2f}s) - "
        f"{r.description}; {r.detail}"
        for r in results
    ]
    n_fail = sum(not r.passed for r in results)
    n_unexpected = sum(
        not r.passed and not r.expected_to_fail for r in results
    )
    lines.append(
        f"{len(results) - n_fail}/{len(results)} criteria passed"
        + (f", {n_fail - n_unexpected} expected failures" if n_fail else "")
        + (f", {n_unexpected} unexpected failures" if n_unexpected else "")
    )
    return "\n".join(lines)
