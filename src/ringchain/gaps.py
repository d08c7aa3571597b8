"""Discrete spectrum of the bent chain inside the gaps of the straight one.

Bending one ring by ``theta`` keeps the essential spectrum but inserts at
most one eigenvalue per spectral gap and parity sector.  Positive-energy
eigenvalues solve ``±cos(k*theta) = gap_function(k)`` on a gap interval
(``+`` even sector, ``-`` odd sector); negative-energy ones solve the
hyperbolic analogue.  One engine solves a whole grid of bend angles at a
fixed coupling: work that depends only on the coupling (gap intervals,
threshold edges, the cutoff, the gap function on each scan grid) is done
once; the residual is sampled as (angles x points) blocks of at most
``SCAN_BLOCK`` angles; every bracket of every (angle, gap, parity) slot is
bisected together to full precision (``_rootfind.bisect_batch``); then
each slot is filtered on its own — an eigenvalue sitting on a band edge
(within ``EDGE_WINDOW``) is reported as absent, since the candidate
eigenfunction stops being square-summable there.  The one-angle solvers
are the one-angle case of the same engine, and ``solve_gap_batch`` runs
its positive-energy part over one-angle queries at many couplings.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._rootfind import bisect, bisect_batch, bracket_rows, find_roots
from .bands import _edge_roots, _halftrace_signed_vec, _negative_sweep_limit
from .dispersion import (
    SMALL_ARG,
    ZERO_ENERGY_ALPHA_MIN,
    ContinuationError,
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
    "solve_gap_batch",
    "solve_gap_near_edge",
    "solve_negative",
    "kappa_cutoff",
    "odd_zero_crossing_angle",
    "double_eigenvalue_residual",
    "double_points_in_gap",
    "recover_double_angle",
    "gap_eigenvalues",
    "gap_eigenvalues_grid",
    "trace_eigenvalue_curve",
]

# Points per dense residual scan of one gap.
GAP_SCAN_POINTS = 1024
# Angles sampled together in one residual scan; bounds the memory of the
# (angles x GAP_SCAN_POINTS) sample blocks of a long sweep.
SCAN_BLOCK = 16
# One-angle queries solved together by ``solve_gap_batch``: enough to spread
# the cost of the bisection loop, few enough to bound the arrays they hold.
QUERY_BLOCK = 256
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
    root = next(
        find_roots(
            lambda k: float(discriminant(k, alpha)) - target,
            grid,
            _halftrace_signed_vec(grid, alpha) - target,
        ),
        None,
    )
    if root is None:
        raise RuntimeError(f"no gap edge located in ({lo}, {hi})")
    return root


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


def _gap_residual(k: float, alpha: float, theta: float, sgn: float) -> float:
    """Gap condition ``sgn*cos(k*theta) - gap_function(k)`` (``sgn = ±1``)."""
    return sgn * math.cos(k * theta) - gap_function(k, alpha)


def _gap_function_vec(ks: np.ndarray, alpha) -> np.ndarray:
    """``gap_function`` on an array, operation for operation, for points in a gap."""
    pk = np.pi * ks
    s = np.sin(pk)
    c = np.cos(pk)
    ratio = s / ks
    small = np.abs(ks) < SMALL_ARG
    if small.any():  # the series of dispersion._sin_ratio
        x2 = pk * pk
        series = np.pi * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)))
        ratio = np.where(small, series, ratio)
    t = 0.25 * alpha * ratio
    d = c + t
    root = np.sqrt(np.maximum(d * d - 1.0, 0.0))
    return -c + s * s / (t + np.where(d >= 0.0, root, -root))


def _gap_function_negative_vec(kappas: np.ndarray, alpha) -> np.ndarray:
    """``gap_function_negative`` on an array of decay parameters ``kappa > 0``."""
    s = np.sinh(np.pi * kappas)
    c = np.cosh(np.pi * kappas)
    t = 0.25 * alpha * (s / kappas)
    d = c + t
    root = np.sqrt(np.maximum(d * d - 1.0, 0.0))
    return -c - s * s / (t + np.where(d >= 0.0, root, -root))


def _angles(thetas) -> np.ndarray:
    """Bend angles as a float array, each strictly between 0 and pi."""
    th = np.asarray(thetas, dtype=float).reshape(-1)
    if not np.all((0.0 < th) & (th < math.pi)):
        raise ValueError("theta must lie strictly between 0 and pi")
    return th


def _singular_mask(thetas: np.ndarray, n: int, parity: str) -> np.ndarray:
    """``is_singular_angle`` at every angle of ``thetas``."""
    angles = np.array(singular_angles(n, parity), dtype=float)
    return np.any(np.abs(thetas[:, None] - angles) < SINGULAR_ANGLE_TOL, axis=1)


def _scan(xs: np.ndarray, thetas: np.ndarray, residual):
    """Brackets of ``residual(theta_column)`` on ``xs`` at every angle.

    The residual is sampled as (angles x points) blocks of at most
    ``SCAN_BLOCK`` angles.  Returns ``(angle index, lo, hi)`` arrays ordered
    by angle and ascending within an angle.
    """
    parts = [(np.empty(0, dtype=int), xs[:0], xs[:0])]
    for start in range(0, len(thetas), SCAN_BLOCK):
        rows, lo, hi = bracket_rows(xs, residual(thetas[start:start + SCAN_BLOCK, None]))
        parts.append((rows + start, lo, hi))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _bisect_brackets(kernel, lo: np.ndarray, hi: np.ndarray, *params) -> np.ndarray:
    """Root in every bracket: a degenerate one as it stands, the rest bisected together.

    ``kernel(x, *params)`` is evaluated with one value of each of
    ``params`` per bracket.
    """
    live = lo != hi
    sub = [p[live] for p in params]
    roots = lo.copy()
    roots[live] = bisect_batch(lambda x: kernel(x, *sub), lo[live], hi[live])
    return roots


def _first_roots(xs: np.ndarray, thetas: np.ndarray, kernel, residual=None) -> np.ndarray:
    """Root in the first bracket of ``kernel(xs, theta)`` at every angle; NaN where none.

    ``residual(theta_column)`` samples the scan blocks; by default it is the
    kernel itself.
    """
    if residual is None:
        def residual(th):
            return kernel(xs, th)
    rows, lo, hi = _scan(xs, thetas, residual)
    first = np.unique(rows, return_index=True)[1]
    rows, lo, hi = rows[first], lo[first], hi[first]
    roots = np.full(len(thetas), np.nan)
    roots[rows] = _bisect_brackets(kernel, lo, hi, thetas[rows])
    return roots


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


def _gap_roots(slots) -> list[np.ndarray]:
    """Positive-energy roots of every slot ``(alpha, gap, parity, thetas)``.

    Gives one wavenumber per angle of each slot, NaN where the slot has no
    eigenvalue there (see ``solve_gap``).  The gap function is sampled
    once for each run of slots with the same coupling and gap; all
    brackets of all slots are bisected together on one kernel with a
    per-bracket coupling and parity sign.
    """
    out = [np.full(len(thetas), np.nan) for *_, thetas in slots]
    sampled = None
    found = []
    for slot, (alpha, gap, parity, thetas) in enumerate(slots):
        sgn = _parity_sign(parity)
        live = np.flatnonzero(~_singular_mask(thetas, gap.n, parity))
        dom = _scan_domain(gap)
        if dom is None:
            continue
        if sampled != (alpha, gap):  # the parities of a gap come in turn
            sampled = alpha, gap
            ks = np.linspace(dom[0], dom[1], GAP_SCAN_POINTS)
            g_k = _gap_function_vec(ks, alpha)
        rows, lo, hi = _scan(ks, thetas[live], lambda th: sgn * np.cos(ks * th) - g_k)
        n = rows.size
        found.append((np.full(n, slot), live[rows], lo, hi, thetas[live][rows],
                      np.full(n, sgn), np.full(n, alpha)))
    if not found:
        return out
    slot, angle, lo, hi, *params = (np.concatenate(col) for col in zip(*found))
    roots = _bisect_brackets(
        lambda k, th, sgn, al: sgn * np.cos(k * th) - _gap_function_vec(k, al),
        lo, hi, *params,
    )
    # Per slot and angle: drop near-duplicates of the last kept root, then
    # roots on the band edge; more than one survivor means the scan is
    # inconsistent.
    kept: dict[tuple[int, int], list] = {}
    for key, r in zip(zip(slot.tolist(), angle.tolist()), roots):
        rs = kept.setdefault(key, [])
        if not rs or r - rs[-1] > 1e-9:
            rs.append(r)
    for (s, i), rs in kept.items():
        gap = slots[s][1]
        rs = [r for r in rs if abs(r - gap.band_edge) > EDGE_WINDOW]
        if len(rs) > 1:
            raise RuntimeError(
                f"multiple gap roots {rs} in gap {gap.n}: scan inconsistency"
            )
        if rs:
            out[s][i] = rs[0]
    return out


def _found(x: np.float64) -> np.float64 | None:
    return None if np.isnan(x) else x


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
    return solve_gap_batch([(alpha, theta, gap, parity)])[0]


def solve_gap_batch(queries) -> list[float | None]:
    """``solve_gap`` for every ``(alpha, theta, gap, parity)`` query.

    The queries (any iterable) are solved together, ``QUERY_BLOCK`` at a
    time.
    """
    out: list[float | None] = []
    queries = iter(queries)
    while block := list(itertools.islice(queries, QUERY_BLOCK)):
        slots = []
        for alpha, theta, gap, parity in block:
            thetas = _angles([theta])
            if alpha == 0.0:
                raise ValueError("the uncoupled chain has no gap eigenvalues")
            slots.append((alpha, gap, parity, thetas))
        out += [_found(roots[0]) for roots in _gap_roots(slots)]
    return out


def solve_gap_near_edge(
    alpha: float,
    theta: float,
    gap: GapInterval,
    parity: str,
) -> float | None:
    """Eigenvalue wavenumber hugging the non-integer band edge.

    Small bend angles push the gap root exponentially close to the band
    edge, far below the resolution of the uniform scan in ``solve_gap``;
    this variant bisects directly on a one-sided bracket, at most 1e-2
    wide, at the edge.  Returns ``None`` when no sign change exists in the
    bracket.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    sgn = _parity_sign(parity)
    edge = gap.band_edge
    reach = min(1e-2, 0.5 * (gap.k_hi - gap.k_lo))
    if edge == gap.k_hi:
        ends = [edge - reach, edge - 1e-13]
    else:
        ends = [edge + 1e-13, edge + reach]
    return next(
        find_roots(lambda k: _gap_residual(k, alpha, theta, sgn), ends), None
    )


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


def _negative_residual(kappa: float, alpha: float, theta: float, sgn: float) -> float:
    """Hyperbolic gap condition ``sgn*cosh(kappa*theta) - gap_function_negative``."""
    return sgn * math.cosh(kappa * theta) - gap_function_negative(kappa, alpha)


def _odd_residual_scaled(s, alpha: float, theta):
    """Odd-sector residual divided by ``-E`` (``E = sign(s)*s**2``), stably.

    On ``x = |s|`` it is ``(cos(x*theta) + gap_function(x))/x**2`` for
    ``s > 0`` and ``(-cosh(x*theta) - gap_function_negative(x))/x**2`` for
    ``s < 0``: the sin/cos and sinh/cosh forms of one expression, continuous
    across zero energy.  The product forms ``cos b - cos a = 2 sin((a+b)/2)
    sin((a-b)/2)`` and ``cosh a - cosh b = 2 sinh((a+b)/2) sinh((a-b)/2)``,
    with ``a = pi*x`` and ``b = theta*x``, cancel the double zero at
    ``s = 0`` analytically; the limit value is ``C - theta**2/2`` with
    ``C`` the negative-gap curvature.  ``s`` and ``theta`` broadcast.
    """
    x = np.abs(s)
    neg = np.asarray(s) < 0.0

    def sin(z):
        return np.where(neg, np.sinh(z), np.sin(z))

    def cos(z):
        return np.where(neg, np.cosh(z), np.cos(z))

    with np.errstate(divide="ignore", invalid="ignore"):
        t = 0.25 * alpha * sin(np.pi * x) / x
        d = cos(np.pi * x) + t
        denom = t - np.sqrt(np.maximum(d * d - 1.0, 0.0))  # half-trace <= -1 here
        sp = sin(np.pi * x)
        term1 = 2.0 * sin(0.5 * x * (np.pi + theta)) * sin(0.5 * x * (np.pi - theta))
        value = (term1 + sp * sp / denom) / (x * x)
    small = x < 1e-8
    if not np.any(small):
        return value
    limit = gap_function_negative_curvature(alpha) - 0.5 * theta * theta
    return np.where(small, limit, value)


def _negative_even_roots(alpha: float, thetas: np.ndarray, x1: float) -> np.ndarray:
    """Even negative-energy ``kappa`` at every angle (NaN where none)."""
    hi = kappa_cutoff(alpha)
    lo = x1 + 1e-12
    if not lo < hi - 1e-12:
        return np.full(len(thetas), np.nan)
    grid = np.linspace(lo, hi - 1e-12, GAP_SCAN_POINTS)
    g = _gap_function_negative_vec(grid, alpha)
    return _first_roots(
        grid,
        thetas,
        lambda kp, th: np.cosh(kp * th) - _gap_function_negative_vec(kp, alpha),
        lambda th: np.cosh(grid * th) - g,
    )


def _negative_odd_roots(
    alpha: float, thetas: np.ndarray, x_m1: float | None
) -> np.ndarray:
    """Odd negative-energy ``kappa`` at every angle (NaN where none)."""
    if x_m1 is None:
        return np.full(len(thetas), np.nan)
    grid = np.linspace(1e-9, x_m1 - 1e-11, GAP_SCAN_POINTS)
    roots = _first_roots(
        grid, thetas, lambda kp, th: _odd_residual_scaled(-kp, alpha, th)
    )
    return np.where(roots > EDGE_WINDOW, roots, np.nan)


def solve_negative(alpha: float, theta: float, parity: str) -> float | None:
    """Decay parameter ``kappa`` of a negative-energy eigenvalue.

    Even sector: exists for every attractive coupling and every bend
    angle, strictly between the spectral threshold and the cutoff of
    ``kappa_cutoff``.  Odd sector: exists only below the borderline
    coupling and only for bend angles under ``odd_zero_crossing_angle``.
    Returns ``None`` when there is nothing to find.
    """
    thetas = _angles([theta])
    if alpha >= 0.0:
        return None
    sgn = _parity_sign(parity)
    x1, x_m1 = _negative_edges(alpha)
    if sgn > 0.0:
        return _found(_negative_even_roots(alpha, thetas, x1)[0])
    return _found(_negative_odd_roots(alpha, thetas, x_m1)[0])


def double_eigenvalue_residual(k, alpha: float):
    """Residual ``k*tan(pi*k) - alpha/2`` of the parity-degeneracy condition.

    Vanishes exactly where the even and odd gap eigenvalues coincide (the
    gap function has a zero).  Near half-integer ``k`` the tangent blows
    up; the residual is then reported as a signed infinity.  Takes a
    number or an array.
    """
    t = np.tan(np.pi * k)
    return np.where(np.abs(t) > 1e15, np.copysign(np.inf, k * t), k * t - 0.5 * alpha)[()]


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
        roots.extend(
            find_roots(
                lambda k: double_eigenvalue_residual(k, alpha),
                grid,
                double_eigenvalue_residual(grid, alpha),
            )
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
                abs(_gap_residual(kp, alpha, theta, 1.0)),
                abs(_gap_residual(km, alpha, theta, -1.0)),
            )
            return [
                EigenvalueRecord(theta, mid, mid * mid, "+-", gap.n, 2, res)
            ]
    if kp is not None:
        res = abs(_gap_residual(kp, alpha, theta, 1.0))
        out.append(EigenvalueRecord(theta, kp, kp * kp, "+", gap.n, 1, res))
    if km is not None:
        res = abs(_gap_residual(km, alpha, theta, -1.0))
        out.append(EigenvalueRecord(theta, km, km * km, "-", gap.n, 1, res))
    return out


def gap_eigenvalues_grid(
    alpha: float, thetas, n_max: int, parity: str = "both"
) -> list[list[EigenvalueRecord]]:
    """``gap_eigenvalues`` at every angle of ``thetas``, solved together.

    Returns one sorted record list per angle, in the order of ``thetas``.
    The gap intervals, the threshold edges, the cutoff and the gap
    function on each scan grid are computed once for the whole grid.
    """
    if alpha == 0.0:
        raise ValueError("the uncoupled chain has no gap eigenvalues")
    thetas = _angles(thetas)
    absent = np.full(len(thetas), np.nan)
    want_plus = parity in ("both", "+")
    want_minus = parity in ("both", "-")
    parities = [p for p, want in (("+", want_plus), ("-", want_minus)) if want]
    gaps = gap_intervals(alpha, n_max)
    slots = [(alpha, gap, p, thetas) for gap in gaps for p in parities]
    roots = dict(zip(((g.n, p) for _, g, p, _ in slots), _gap_roots(slots)))
    kap_even = kap_odd = absent
    if alpha < 0.0 and want_plus:
        kap_even = _negative_even_roots(alpha, thetas, _negative_edges(alpha)[0])
    if want_minus and alpha < ZERO_ENERGY_ALPHA_MIN:
        # The odd eigenvalue of the first gap drops below zero energy.
        need = np.isnan(roots[1, "-"]) & ~_singular_mask(thetas, 1, "-")
        if need.any():
            kap_odd = absent.copy()
            kap_odd[need] = _negative_odd_roots(
                alpha, thetas[need], _negative_edges(alpha)[1]
            )
    out: list[list[EigenvalueRecord]] = []
    for i, theta in enumerate(thetas.tolist()):
        records: list[EigenvalueRecord] = []
        kap = _found(kap_even[i])
        if kap is not None:
            res = abs(_negative_residual(kap, alpha, theta, 1.0))
            records.append(EigenvalueRecord(theta, kap, -kap * kap, "+", 0, 1, res))
        for gap in gaps:
            kap = _found(kap_odd[i]) if gap.n == 1 else None
            if kap is not None:
                res = abs(_negative_residual(kap, alpha, theta, -1.0))
                records.append(EigenvalueRecord(theta, kap, -kap * kap, "-", 1, 1, res))
            kp, km = (_found(roots.get((gap.n, p), absent)[i]) for p in ("+", "-"))
            records.extend(_merge_records(alpha, theta, gap, kp, km))
        records.sort(key=lambda r: (r.gap_index, r.energy, r.parity))
        out.append(records)
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
    return gap_eigenvalues_grid(alpha, [theta], n_max, parity)[0]


def _signed_odd_roots(alpha: float, thetas: np.ndarray) -> np.ndarray:
    """Signed roots ``s`` of the odd condition in the gap touching zero.

    For couplings below the borderline the odd eigenvalue of the first
    gap moves continuously from negative to positive energy as the bend
    angle grows; this solver works in the signed variable
    (``energy = sign(s)*s**2``) with the zero-crossing removed by scaling,
    so the crossing itself is no obstacle.  NaN where there is no root.
    """
    roots = np.full(len(thetas), np.nan)
    x_m1 = _negative_edges(alpha)[1]
    if x_m1 is None:
        return roots
    live = ~_singular_mask(thetas, 1, "-")
    grid = np.linspace(-(x_m1 - 1e-11), 1.0 - INTEGER_EXCLUSION, GAP_SCAN_POINTS)
    roots[live] = _first_roots(
        grid, thetas[live], lambda s, th: _odd_residual_scaled(s, alpha, th)
    )
    return roots


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
    grid = list(thetas)
    th = _angles(grid)
    deep_odd = (
        parity == "-" and gap_index == 1 and alpha < ZERO_ENERGY_ALPHA_MIN
    )
    gaps = gap_intervals(alpha, max(gap_index, 1)) if alpha != 0.0 else []
    gap = next((g for g in gaps if g.n == gap_index), None)
    if gap_index == 0 and alpha < 0.0:
        s = np.full(len(th), np.nan)
        if parity == "+":
            s = -_negative_even_roots(alpha, th, _negative_edges(alpha)[0])
    elif deep_odd:
        s = _signed_odd_roots(alpha, th)
    else:
        if gap is None:
            raise ValueError(f"gap {gap_index} not available")
        s = _gap_roots([(alpha, gap, parity, th)])[0]
        miss = np.isnan(s)
        if parity == "-" and gap_index == 1 and alpha < 0.0 and miss.any():
            s[miss] = -_negative_odd_roots(alpha, th[miss], _negative_edges(alpha)[1])
    samples = [(theta, r) for theta, r in zip(grid, s) if not np.isnan(r)]
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
