"""Discrete spectrum of the bent chain inside the gaps of the straight one.

Bending one ring by ``theta`` keeps the essential spectrum but inserts at
most one eigenvalue per spectral gap and parity sector.  Positive-energy
eigenvalues solve ``±cos(k*theta) = gap_function(k)`` on a gap interval
(``+`` even sector, ``-`` odd sector); negative-energy ones solve the
hyperbolic analogue.  Every solver below works the same way: a dense scan
of the residual over the admissible interval, bisection of each bracket to
full precision, then edge filtering — an eigenvalue sitting on a band edge
(within ``EDGE_WINDOW``) is reported as absent, since the candidate
eigenfunction stops being square-summable there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rootfind import bisect, brackets_from_samples
from .bands import _edge_roots, _negative_sweep_limit
from .dispersion import (
    INTEGER_WINDOW,
    ROOT_TOL,
    ZERO_ENERGY_ALPHA_MIN,
    ContinuationError,
    DomainError,
    discriminant,
    gap_function,
    gap_function_negative,
    gap_function_negative_curvature,
)

__all__ = [
    "GAP_SCAN_POINTS",
    "INTEGER_EXCLUSION",
    "EDGE_WINDOW",
    "SINGULAR_ANGLE_TOL",
    "GapInterval",
    "EigenvalueRecord",
    "SpectralCurve",
    "gap_intervals",
    "singular_angles",
    "is_singular_angle",
    "solve_gap",
    "solve_gap_near_edge",
    "solve_negative",
    "kappa_cutoff",
    "odd_zero_crossing_angle",
    "double_eigenvalue_residual",
    "double_points_in_gap",
    "recover_double_angle",
    "gap_eigenvalues",
    "trace_eigenvalue_curve",
]

# Points per dense residual scan of one gap.
GAP_SCAN_POINTS = 1024
# Roots are not sought closer than this to an integer wavenumber, where the
# flat band lives and the gap function degenerates.
INTEGER_EXCLUSION = 1e-6
# A root within this distance of a non-integer band edge is treated as
# having dissolved into the band.
EDGE_WINDOW = 1e-9
# Bend angles within this distance of a singular angle are treated as
# singular (no eigenvalue in that gap/parity).
SINGULAR_ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class GapInterval:
    """Closed spectral gap ``[k_lo, k_hi]`` of the straight chain, in k.

    ``n`` is the integer contained in the closure (``n = 0`` labels the
    gap below the first band of a repulsive coupling, whose interior
    carries no integer).  ``sign_halftrace`` records the sign of the
    half-trace on the interior, which fixes the decaying Floquet branch.
    """

    n: int
    k_lo: float
    k_hi: float
    sign_halftrace: int

    def __post_init__(self) -> None:
        if self.n < 0 or not self.k_lo < self.k_hi:
            raise ValueError("malformed gap interval")

    @property
    def integer_edge(self) -> float | None:
        if self.n >= 1 and (self.k_lo == self.n or self.k_hi == self.n):
            return float(self.n)
        return None

    @property
    def band_edge(self) -> float:
        """The non-integer endpoint (a genuine |half-trace| = 1 edge)."""
        if self.n >= 1 and self.k_hi == self.n:
            return self.k_lo
        return self.k_hi


@dataclass(frozen=True)
class EigenvalueRecord:
    """One discrete eigenvalue of the bent chain.

    ``k`` is the positive wavenumber for ``energy > 0`` and the decay
    parameter ``kappa`` for ``energy < 0`` (then ``energy = -k**2``).
    ``parity`` is ``'+'``, ``'-'`` or ``'+-'`` for a parity-degenerate
    double eigenvalue (``multiplicity = 2``).
    """

    theta: float
    k: float
    energy: float
    parity: str
    gap_index: int
    multiplicity: int = 1
    residual: float = 0.0

    def __post_init__(self) -> None:
        if self.parity not in ("+", "-", "+-"):
            raise ValueError("parity must be '+', '-' or '+-'")
        if self.multiplicity not in (1, 2):
            raise ValueError("multiplicity must be 1 or 2")


@dataclass(frozen=True)
class SpectralCurve:
    """Eigenvalue curve of one gap/parity over a grid of bend angles.

    Samples are ``(theta, s)`` with the signed-wavenumber convention
    ``energy = sign(s) * s**2``; angles with no eigenvalue simply have no
    sample.
    """

    alpha: float
    parity: str
    gap_index: int
    samples: tuple[tuple[float, float], ...]

    def thetas(self) -> list[float]:
        return [t for t, _ in self.samples]

    def energies(self) -> list[float]:
        return [math.copysign(s * s, s) for _, s in self.samples]


def gap_intervals(alpha: float, n_max: int) -> list[GapInterval]:
    """The spectral gaps ``I_0 .. I_n_max`` of the straight chain, in k.

    For a repulsive coupling the gaps sit on ``[n, k*]`` above each
    integer (with the extra gap ``I_0 = [0, k*]`` below the first band);
    for an attractive one they sit on ``[k*, n]`` below each integer, and
    once the coupling is at or below ``ZERO_ENERGY_ALPHA_MIN`` the first
    gap fills all of ``[0, 1]``.  ``alpha = 0`` has no gaps and is
    rejected.
    """
    if alpha == 0.0:
        raise ValueError("the uncoupled chain has no spectral gaps")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out: list[GapInterval] = []
    if alpha > 0.0:
        k0 = bisect(lambda k: discriminant(k, alpha) - 1.0, 1e-9, 1.0 - 1e-9)
        out.append(GapInterval(0, 0.0, k0, 1))
        for n in range(1, n_max + 1):
            target = 1.0 if n % 2 == 0 else -1.0
            edge = float(_noninteger_edge(alpha, n, n + 1.0, target))
            out.append(GapInterval(n, float(n), edge, int(target)))
        return out
    # Attractive coupling: gaps below the integers.
    if discriminant(1e-9, alpha) + 1.0 > 0.0:
        edge = bisect(lambda k: discriminant(k, alpha) + 1.0, 1e-9, 1.0 - 1e-9)
        out.append(GapInterval(1, edge, 1.0, -1))
    else:
        out.append(GapInterval(1, 0.0, 1.0, -1))
    for n in range(2, n_max + 1):
        target = 1.0 if n % 2 == 0 else -1.0
        edge = float(_noninteger_edge(alpha, n - 1.0, n, target))
        out.append(GapInterval(n, edge, float(n), int(target)))
    return out


def _noninteger_edge(alpha: float, lo: float, hi: float, target: float) -> float:
    """Root of ``half-trace = target`` strictly inside ``(lo, hi)``."""
    grid = np.linspace(lo + 1e-9, hi - 1e-9, 512)
    vals = np.cos(np.pi * grid) + 0.25 * alpha * np.pi * np.sinc(grid) - target
    br = brackets_from_samples(grid, vals)
    if not br:
        raise RuntimeError(f"no gap edge located in ({lo}, {hi})")
    a, b = br[0]
    if a == b:
        return a
    return bisect(lambda k: float(discriminant(k, alpha)) - target, a, b)


def singular_angles(n: int, parity: str) -> tuple[float, ...]:
    """Bend angles at which gap ``n`` loses its ``parity`` eigenvalue.

    Even sector: ``(n+1-2l)*pi/n`` for ``l = 1..floor((n+1)/2)``; odd
    sector: ``(n-2l)*pi/n`` for ``l = 1..floor(n/2)``.  Values outside
    ``[0, pi)`` do not occur.  Gap 0 has none.
    """
    if n < 1:
        return ()
    if parity == "+":
        vals = ((n + 1 - 2 * ell) * math.pi / n for ell in range(1, (n + 1) // 2 + 1))
    elif parity == "-":
        vals = ((n - 2 * ell) * math.pi / n for ell in range(1, n // 2 + 1))
    else:
        raise ValueError("parity must be '+' or '-'")
    return tuple(v for v in vals if 0.0 <= v < math.pi)


def is_singular_angle(theta: float, n: int, parity: str) -> bool:
    return any(abs(theta - v) < SINGULAR_ANGLE_TOL for v in singular_angles(n, parity))


def _parity_sign(parity: str) -> float:
    if parity == "+":
        return 1.0
    if parity == "-":
        return -1.0
    raise ValueError("parity must be '+' or '-'")


def _gap_function_vec(ks: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorised ``gap_function`` for scan grids known to lie in a gap."""
    d = np.cos(np.pi * ks) + 0.25 * alpha * np.pi * np.sinc(ks)
    root = np.sqrt(np.clip(d * d - 1.0, 0.0, None))
    denom = 0.25 * alpha * np.pi * np.sinc(ks) + np.where(d >= 0.0, root, -root)
    s = np.sin(np.pi * ks)
    return -np.cos(np.pi * ks) + s * s / denom


def _scan_domain(gap: GapInterval) -> tuple[float, float] | None:
    """Open scan interval of a gap: integer window and edge slivers removed."""
    lo, hi = gap.k_lo, gap.k_hi
    if gap.n >= 1 and hi == gap.n:
        hi = gap.n - INTEGER_EXCLUSION
    elif gap.n >= 1 and lo == gap.n:
        lo = gap.n + INTEGER_EXCLUSION
    if lo <= 0.0:
        lo = INTEGER_EXCLUSION  # keep off the k = 0 singularity as well
    else:
        lo = lo + 1e-11
    if hi == gap.band_edge:
        hi = hi - 1e-11
    if not lo < hi:
        return None
    return lo, hi


def solve_gap(
    alpha: float,
    theta: float,
    gap: GapInterval,
    parity: str,
) -> float | None:
    """Positive-energy eigenvalue wavenumber in one gap and parity sector.

    Returns ``None`` when the sector has no eigenvalue there: at a
    singular angle, or when the root has collapsed onto the non-integer
    band edge (within ``EDGE_WINDOW``), or when the residual simply does
    not change sign.  At most one root can exist; finding more than one
    surviving candidate raises ``RuntimeError``.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    if alpha == 0.0:
        raise ValueError("the uncoupled chain has no gap eigenvalues")
    if gap.n >= 1 and is_singular_angle(theta, gap.n, parity):
        return None
    dom = _scan_domain(gap)
    if dom is None:
        return None
    lo, hi = dom
    sgn = _parity_sign(parity)
    ks = np.linspace(lo, hi, GAP_SCAN_POINTS)
    resid = sgn * np.cos(ks * theta) - _gap_function_vec(ks, alpha)

    def scalar(k: float) -> float:
        return sgn * math.cos(k * theta) - gap_function(k, alpha)

    roots: list[float] = []
    for a, b in brackets_from_samples(ks, resid):
        roots.append(a if a == b else bisect(scalar, a, b))
    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    edge = gap.band_edge
    deduped = [r for r in deduped if abs(r - edge) > EDGE_WINDOW]
    if not deduped:
        return None
    if len(deduped) > 1:
        raise RuntimeError(
            f"multiple gap roots {deduped} in gap {gap.n}: scan inconsistency"
        )
    return deduped[0]


def solve_gap_near_edge(
    alpha: float,
    theta: float,
    gap: GapInterval,
    parity: str,
    *,
    window: float = 1e-2,
) -> float | None:
    """Eigenvalue wavenumber hugging the non-integer band edge.

    Small bend angles push the gap root exponentially close to the band
    edge, far below the resolution of the uniform scan in ``solve_gap``;
    this variant bisects directly on a one-sided bracket at the edge.
    Returns ``None`` when no sign change exists in the bracket.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    sgn = _parity_sign(parity)
    edge = gap.band_edge
    inner = edge - 1e-13 if edge == gap.k_hi else edge + 1e-13
    width = gap.k_hi - gap.k_lo
    outer = edge - min(window, 0.5 * width) if edge == gap.k_hi else edge + min(
        window, 0.5 * width
    )

    def scalar(k: float) -> float:
        return sgn * math.cos(k * theta) - gap_function(k, alpha)

    fi, fo = scalar(inner), scalar(outer)
    if fi == 0.0:
        return inner
    if (fi > 0.0) == (fo > 0.0):
        return None
    return bisect(scalar, min(inner, outer), max(inner, outer))


def _negative_edges(alpha: float) -> tuple[float, float | None]:
    """Threshold-band edges on the decay axis: ``(x1, x_minus1 or None)``.

    ``x1`` is the largest root of ``|discriminant_negative| = 1`` (the
    bottom of the spectrum sits at ``-x1**2``); ``x_minus1`` is the root
    of ``discriminant_negative = -1`` which exists only below the
    borderline coupling ``ZERO_ENERGY_ALPHA_MIN``.
    """
    roots = _edge_roots(alpha, _negative_sweep_limit(alpha), -1e-9)
    if not roots:
        raise RuntimeError("no negative-branch edges found")
    x1 = -roots[0]
    x_m1 = -roots[-1] if len(roots) >= 2 else None
    return x1, x_m1


def kappa_cutoff(alpha: float) -> float:
    """Unique positive root of ``kappa*tanh(pi*kappa) = -alpha/2``.

    The negative gap function diverges there; the even-sector negative
    eigenvalue always satisfies ``kappa < kappa_cutoff(alpha)``.  Defined
    for attractive couplings.
    """
    if alpha >= 0.0:
        raise ValueError("cutoff defined for alpha < 0 only")
    cap = 0.5 * abs(alpha) + 1.0
    return bisect(
        lambda x: x * math.tanh(math.pi * x) + 0.5 * alpha, 1e-12, cap
    )


def odd_zero_crossing_angle(alpha: float) -> float:
    """Bend angle where the odd-sector eigenvalue curve crosses zero energy.

    Equals ``sqrt(2*C)`` with ``C`` the small-``kappa`` curvature of the
    negative gap function; below this angle the odd eigenvalue in the gap
    touching zero is negative, above it positive.  Requires a coupling
    below ``ZERO_ENERGY_ALPHA_MIN``.
    """
    return math.sqrt(2.0 * gap_function_negative_curvature(alpha))


def _odd_negative_residual_scaled(kappa: float, alpha: float, theta: float) -> float:
    """``(-cosh(kappa*theta) - gap_function_negative)/kappa**2``, stably.

    Uses the product form ``cosh a - cosh b = 2 sinh((a+b)/2) sinh((a-b)/2)``
    so the double zero at ``kappa = 0`` cancels analytically; the limit
    value is ``C - theta**2/2`` with ``C`` the negative-gap curvature.
    """
    if kappa < 1e-8:
        return gap_function_negative_curvature(alpha) - 0.5 * theta * theta
    a = 0.25 * alpha * math.sinh(math.pi * kappa) / kappa
    d = math.cosh(math.pi * kappa) + 0.25 * alpha * math.sinh(math.pi * kappa) / kappa
    denom = a - math.sqrt(max(d * d - 1.0, 0.0))
    sp = math.sinh(math.pi * kappa)
    term1 = (
        2.0
        * math.sinh(0.5 * kappa * (math.pi + theta))
        * math.sinh(0.5 * kappa * (math.pi - theta))
    )
    return (term1 + sp * sp / denom) / (kappa * kappa)


def _odd_positive_residual_scaled(k: float, alpha: float, theta: float) -> float:
    """Continuation of the scaled odd residual to positive energies.

    Matches ``_odd_negative_residual_scaled`` continuously across zero;
    its roots on ``k > 0`` are exactly the odd-sector gap roots.
    """
    if k < 1e-8:
        return gap_function_negative_curvature(alpha) - 0.5 * theta * theta
    t = 0.25 * alpha * math.sin(math.pi * k) / k
    d = math.cos(math.pi * k) + t
    denom = t - math.sqrt(max(d * d - 1.0, 0.0))  # half-trace <= -1 here
    sp = math.sin(math.pi * k)
    term1 = (
        2.0
        * math.sin(0.5 * k * (math.pi + theta))
        * math.sin(0.5 * k * (math.pi - theta))
    )
    return (term1 + sp * sp / denom) / (k * k)


def solve_negative(alpha: float, theta: float, parity: str) -> float | None:
    """Decay parameter ``kappa`` of a negative-energy eigenvalue.

    Even sector: exists for every attractive coupling and every bend
    angle, strictly between the spectral threshold and the cutoff of
    ``kappa_cutoff``.  Odd sector: exists only below the borderline
    coupling and only for bend angles under ``odd_zero_crossing_angle``.
    Returns ``None`` when there is nothing to find.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    if alpha >= 0.0:
        return None
    sgn = _parity_sign(parity)
    x1, x_m1 = _negative_edges(alpha)
    if sgn > 0.0:
        hi = kappa_cutoff(alpha)
        lo = x1 + 1e-12
        if not lo < hi - 1e-12:
            return None

        def scalar(kp: float) -> float:
            return math.cosh(kp * theta) - gap_function_negative(kp, alpha)

        grid = np.linspace(lo, hi - 1e-12, GAP_SCAN_POINTS)
        vals = np.array([scalar(x) for x in grid])
        br = brackets_from_samples(grid, vals)
        if not br:
            return None
        a, b = br[0]
        return a if a == b else bisect(scalar, a, b)
    # Odd sector below threshold.
    if x_m1 is None:
        return None

    def scaled(kp: float) -> float:
        return _odd_negative_residual_scaled(kp, alpha, theta)

    grid = np.linspace(1e-9, x_m1 - 1e-11, GAP_SCAN_POINTS)
    vals = np.array([scaled(x) for x in grid])
    br = brackets_from_samples(grid, vals)
    if not br:
        return None
    a, b = br[0]
    root = a if a == b else bisect(scaled, a, b)
    return root if root > EDGE_WINDOW else None


def double_eigenvalue_residual(k: float, alpha: float) -> float:
    """Residual ``k*tan(pi*k) - alpha/2`` of the parity-degeneracy condition.

    Vanishes exactly where the even and odd gap eigenvalues coincide (the
    gap function has a zero).  Near half-integer ``k`` the tangent blows
    up; the residual is then reported as a signed infinity.
    """
    t = math.tan(math.pi * k)
    if abs(t) > 1e15:
        return math.copysign(math.inf, k * t)
    return k * t - 0.5 * alpha


def double_points_in_gap(alpha: float, gap: GapInterval) -> list[float]:
    """Wavenumbers in one gap where both parities share an eigenvalue.

    Scans ``double_eigenvalue_residual`` over the gap interior, splitting
    at half-integers where the residual jumps through infinity (a sign
    change there is a pole, not a root).
    """
    dom = _scan_domain(gap)
    if dom is None:
        return []
    lo, hi = dom
    cuts = [lo]
    m = math.floor(lo) + 0.5
    while m < hi:
        if m > lo:
            cuts.append(m)
        m += 1.0
    cuts.append(hi)
    roots: list[float] = []
    for a, b in zip(cuts, cuts[1:]):
        grid = np.linspace(a + 1e-9, b - 1e-9, 512)
        vals = np.array([double_eigenvalue_residual(x, alpha) for x in grid])
        for xa, xb in brackets_from_samples(grid, vals):
            roots.append(
                xa
                if xa == xb
                else bisect(lambda k: double_eigenvalue_residual(k, alpha), xa, xb)
            )
    return roots


def recover_double_angle(k_star: float, alpha: float) -> float:
    """Smallest bend angle at which the double eigenvalue at ``k_star`` occurs.

    Solves ``cos(k*theta) = gap_function(k)`` for ``theta``; at a genuine
    double point the gap function vanishes and the angle is
    ``pi/(2*k_star)`` up to the arccos branch.
    """
    f = gap_function(k_star, alpha)
    return math.acos(max(-1.0, min(1.0, f))) / k_star


def _merge_records(
    alpha: float, theta: float, gap: GapInterval, kp: float | None, km: float | None
) -> list[EigenvalueRecord]:
    """Combine the two parity roots of one gap, merging degenerate pairs."""
    out: list[EigenvalueRecord] = []
    if kp is not None and km is not None and abs(kp - km) < 1e-9:
        mid = 0.5 * (kp + km)
        if abs(double_eigenvalue_residual(mid, alpha)) < 1e-6:
            res = max(
                abs(math.cos(kp * theta) - gap_function(kp, alpha)),
                abs(-math.cos(km * theta) - gap_function(km, alpha)),
            )
            return [
                EigenvalueRecord(theta, mid, mid * mid, "+-", gap.n, 2, res)
            ]
    if kp is not None:
        res = abs(math.cos(kp * theta) - gap_function(kp, alpha))
        out.append(EigenvalueRecord(theta, kp, kp * kp, "+", gap.n, 1, res))
    if km is not None:
        res = abs(-math.cos(km * theta) - gap_function(km, alpha))
        out.append(EigenvalueRecord(theta, km, km * km, "-", gap.n, 1, res))
    return out


def gap_eigenvalues(
    alpha: float, theta: float, n_max: int, parity: str = "both"
) -> list[EigenvalueRecord]:
    """All discrete eigenvalues of the bent chain with gap index <= n_max.

    Includes the negative-energy eigenvalues of an attractive coupling:
    the even one below the lowest band (reported with ``gap_index = 0``)
    and, below the borderline coupling, the odd one in the negative reach
    of the first gap (``gap_index = 1``).
    """
    if alpha == 0.0:
        raise ValueError("the uncoupled chain has no gap eigenvalues")
    want_plus = parity in ("both", "+")
    want_minus = parity in ("both", "-")
    records: list[EigenvalueRecord] = []
    if alpha < 0.0 and want_plus:
        kap = solve_negative(alpha, theta, "+")
        if kap is not None:
            res = abs(math.cosh(kap * theta) - gap_function_negative(kap, alpha))
            records.append(
                EigenvalueRecord(theta, kap, -kap * kap, "+", 0, 1, res)
            )
    for gap in gap_intervals(alpha, n_max) if alpha != 0.0 else []:
        if gap.n == 0 and alpha > 0.0:
            kp = solve_gap(alpha, theta, gap, "+") if want_plus else None
            km = solve_gap(alpha, theta, gap, "-") if want_minus else None
            records.extend(_merge_records(alpha, theta, gap, kp, km))
            continue
        kp = solve_gap(alpha, theta, gap, "+") if want_plus else None
        km = solve_gap(alpha, theta, gap, "-") if want_minus else None
        if (
            km is None
            and want_minus
            and gap.n == 1
            and alpha < ZERO_ENERGY_ALPHA_MIN
            and not is_singular_angle(theta, 1, "-")
        ):
            kap = solve_negative(alpha, theta, "-")
            if kap is not None:
                res = abs(
                    -math.cosh(kap * theta) - gap_function_negative(kap, alpha)
                )
                records.append(
                    EigenvalueRecord(theta, kap, -kap * kap, "-", 1, 1, res)
                )
        records.extend(_merge_records(alpha, theta, gap, kp, km))
    records.sort(key=lambda r: (r.gap_index, r.energy, r.parity))
    return records


def _solve_zero_gap_odd_signed(alpha: float, theta: float) -> float | None:
    """Signed root ``s`` of the odd condition in the gap touching zero.

    For couplings below the borderline the odd eigenvalue of the first
    gap moves continuously from negative to positive energy as the bend
    angle grows; this solver works in the signed variable
    (``energy = sign(s)*s**2``) with the zero-crossing removed by scaling,
    so the crossing itself is no obstacle.
    """
    x1, x_m1 = _negative_edges(alpha)
    if x_m1 is None:
        return None
    if is_singular_angle(theta, 1, "-"):
        return None

    def scaled(s: float) -> float:
        if s >= 0.0:
            return _odd_positive_residual_scaled(s, alpha, theta)
        return _odd_negative_residual_scaled(-s, alpha, theta)

    grid = np.linspace(-(x_m1 - 1e-11), 1.0 - INTEGER_EXCLUSION, GAP_SCAN_POINTS)
    vals = np.array([scaled(s) for s in grid])
    br = brackets_from_samples(grid, vals)
    if not br:
        return None
    a, b = br[0]
    return a if a == b else bisect(scaled, a, b)


def trace_eigenvalue_curve(
    alpha: float,
    parity: str,
    gap_index: int,
    thetas,
    *,
    jump_factor: float = 10.0,
) -> SpectralCurve:
    """Sample one gap/parity eigenvalue curve over a grid of bend angles.

    Negative-energy samples carry ``s = -kappa``.  The odd-sector curve of
    the gap touching zero (attractive coupling below the borderline) is
    traced in the signed variable straight through the zero crossing.
    Consecutive energies are checked against a local secant prediction; a
    jump beyond ``jump_factor`` times the predicted increment raises
    ``ContinuationError``.
    """
    samples: list[tuple[float, float]] = []
    deep_odd = (
        parity == "-" and gap_index == 1 and alpha < ZERO_ENERGY_ALPHA_MIN
    )
    gaps = gap_intervals(alpha, max(gap_index, 1)) if alpha != 0.0 else []
    gap = next((g for g in gaps if g.n == gap_index), None)
    for theta in thetas:
        s: float | None
        if gap_index == 0 and alpha < 0.0:
            if parity == "+":
                kap = solve_negative(alpha, theta, "+")
                s = -kap if kap is not None else None
            else:
                s = None
        elif gap_index == 0:
            if gap is None:
                raise ValueError("gap 0 exists only for a repulsive coupling")
            s = solve_gap(alpha, theta, gap, parity)
        elif deep_odd:
            s = _solve_zero_gap_odd_signed(alpha, theta)
        else:
            if gap is None:
                raise ValueError(f"gap {gap_index} not available")
            k = solve_gap(alpha, theta, gap, parity)
            if k is None and parity == "-" and gap_index == 1 and alpha < 0.0:
                kap = solve_negative(alpha, theta, "-")
                s = -kap if kap is not None else None
            else:
                s = k
        if s is not None:
            samples.append((theta, s))
    # Secant continuity audit on the energies.
    for i in range(2, len(samples)):
        t0, s0 = samples[i - 2]
        t1, s1 = samples[i - 1]
        t2, s2 = samples[i]
        e0, e1, e2 = (math.copysign(s * s, s) for s in (s0, s1, s2))
        dt_prev, dt_cur = t1 - t0, t2 - t1
        if dt_prev <= 0.0 or dt_cur <= 0.0:
            continue
        predicted = (e1 - e0) * (dt_cur / dt_prev)
        allowed = jump_factor * abs(predicted) + 1e-9 * (1.0 + abs(e1))
        if abs(e2 - e1) > allowed:
            raise ContinuationError(
                f"energy jump at theta={t2:.6g}: |{e2 - e1:.3g}| > {allowed:.3g}"
            )
    return SpectralCurve(alpha, parity, gap_index, tuple(samples))
