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
are the one-angle case of the same engine; ``solve_gap_batch`` and
``solve_negative_batch`` run it over one-angle queries at many couplings,
each query scanned on its own grid, and the gap edges of many couplings
are bisected together in the same way.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._rootfind import bisect, bisect_batch, bracket_rows, find_roots
from .bands import _edge_roots, _negative_sweep_limit
from .dispersion import (
    SMALL_ARG,
    ZERO_ENERGY_ALPHA_MIN,
    ContinuationError,
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
    "solve_negative_batch",
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
# Rows (angles or queries) sampled together in one residual scan; bounds
# the memory of the (rows x GAP_SCAN_POINTS) sample blocks.  At 8 rows each
# block array takes 64 KB; 16-row blocks of the per-row-grid scans raised
# the peak RSS of ``verify`` and of an attractive sweep by about 0.9 MB.
SCAN_BLOCK = 8
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
    ns = range(0 if alpha > 0.0 else 1, n_max + 1)
    return _gaps_at([alpha] * len(ns), ns)


def _gaps_at(alphas, ns) -> list[GapInterval]:
    """Gap ``ns[i]`` of the straight chain at coupling ``alphas[i]``, for every ``i``.

    The non-integer edge of gap ``n`` is the root of ``discriminant = +1``
    (``n`` even) or ``-1`` (``n`` odd) in the unit cell ``[n, n+1]`` of a
    repulsive coupling or ``[n-1, n]`` of an attractive one.  The cell
    ``[0, 1]`` is bisected whole, every other cell in the first bracket of
    a 512-point scan; all edges are bisected together.
    """
    alphas = np.asarray(alphas, dtype=float)
    ns = np.asarray(ns, dtype=int)
    cells = np.where(alphas > 0.0, ns, ns - 1)
    targets = np.where(ns % 2 == 0, 1.0, -1.0)
    edges = np.empty(len(ns))
    for whole, points in ((True, 2), (False, 512)):
        sel = (cells == 0) == whole
        edges[sel] = _first_roots(
            cells[sel] + 1e-9,
            (cells[sel] + 1.0) - 1e-9,
            lambda k, al, target: _discriminant_vec(k, al) - target,
            alphas[sel],
            targets[sel],
            points=points,
        )
    out: list[GapInterval] = []
    for alpha, n, cell, target, edge in zip(
        alphas.tolist(), ns.tolist(), cells.tolist(), targets.tolist(), edges.tolist()
    ):
        if alpha < 0.0 and cell == 0 and not edge > 1e-9:
            edge = 0.0  # the half-trace starts at or below -1: the gap reaches k = 0
        if math.isnan(edge):
            raise RuntimeError(f"no gap edge located in ({cell}, {cell + 1})")
        lo, hi = (float(n), edge) if alpha > 0.0 else (edge, float(n))
        out.append(GapInterval(n, lo, hi, int(target)))
    return out


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


def _sin_ratio_vec(ks: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``dispersion._sin_ratio`` on an array, from ``s = sin(pi*ks)``."""
    ratio = s / ks
    small = np.abs(ks) < SMALL_ARG
    if small.any():
        x2 = (np.pi * ks) * (np.pi * ks)
        series = np.pi * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)))
        ratio = np.where(small, series, ratio)
    return ratio


def _discriminant_vec(ks: np.ndarray, alpha) -> np.ndarray:
    """``discriminant`` on an array of real wavenumbers, operation for operation."""
    pk = np.pi * ks
    return np.cos(pk) + 0.25 * alpha * _sin_ratio_vec(ks, np.sin(pk))


def _gap_function_vec(ks: np.ndarray, alpha) -> np.ndarray:
    """``gap_function`` on an array, operation for operation, for points in a gap."""
    pk = np.pi * ks
    s = np.sin(pk)
    c = np.cos(pk)
    t = 0.25 * alpha * _sin_ratio_vec(ks, s)
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


def _scan(rows: int, sample):
    """Brackets of ``rows`` sampled rows, in blocks of at most ``SCAN_BLOCK`` rows.

    ``sample(block)`` gives the grid (shared, or one per row) and the
    samples of the rows in the slice ``block``.  Returns ``(row, lo, hi)``
    arrays ordered by row and ascending within a row.
    """
    parts = [(np.empty(0, dtype=int), np.empty(0), np.empty(0))]
    for start in range(0, rows, SCAN_BLOCK):
        found, lo, hi = bracket_rows(*sample(slice(start, start + SCAN_BLOCK)))
        parts.append((found + start, lo, hi))
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


def _first_roots(lo, hi, kernel, *params, points: int = GAP_SCAN_POINTS) -> np.ndarray:
    """Root in the first bracket of ``kernel(x, *params)`` on every row; NaN where none.

    Row ``i`` samples ``kernel`` with the ``i``-th value of every parameter
    on its own grid of ``points`` points spanning ``[lo[i], hi[i]]``, in
    blocks of at most ``SCAN_BLOCK`` rows; a row without ``lo < hi`` has no
    root.  The first brackets of all rows are bisected together.  The
    arguments broadcast to one value per row.
    """
    lo, hi, *params = np.broadcast_arrays(lo, hi, *params)
    live = np.flatnonzero(lo < hi)

    def sample(block):
        rows = live[block]
        xs = np.linspace(lo[rows], hi[rows], points, axis=-1)
        return xs, kernel(xs, *(p[rows, None] for p in params))

    rows, a, b = _scan(live.size, sample)
    first = np.unique(rows, return_index=True)[1]
    rows = live[rows[first]]
    roots = np.full(lo.shape, np.nan)
    roots[rows] = _bisect_brackets(kernel, a[first], b[first], *(p[rows] for p in params))
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
        th = thetas[live, None]
        rows, lo, hi = _scan(live.size, lambda b: (ks, sgn * np.cos(ks * th[b]) - g_k))
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


def _negative_edges(alpha: float) -> tuple[float, float]:
    """Threshold-band edges on the decay axis: ``(x1, x_minus1)``.

    ``x1`` is the largest root of ``|discriminant_negative| = 1`` (the
    bottom of the spectrum sits at ``-x1**2``); ``x_minus1`` is the root
    of ``discriminant_negative = -1`` which exists only below the
    borderline coupling ``ZERO_ENERGY_ALPHA_MIN`` (NaN above it).
    """
    roots = _edge_roots(alpha, _negative_sweep_limit(alpha), -1e-9)
    if not roots:
        raise RuntimeError("no negative-branch edges found")
    x1 = -roots[0]
    x_m1 = -roots[-1] if len(roots) >= 2 else math.nan
    return x1, x_m1


def _per_coupling(fn, alphas) -> np.ndarray:
    """``fn(alpha)`` at every coupling of ``alphas``, evaluated once per distinct value."""
    alphas = np.asarray(alphas, dtype=float).tolist()
    values = {alpha: fn(alpha) for alpha in dict.fromkeys(alphas)}
    return np.array([values[alpha] for alpha in alphas], dtype=float)


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


def _odd_residual_scaled(s, alpha, theta, curvature):
    """Odd-sector residual divided by ``-E`` (``E = sign(s)*s**2``), stably.

    On ``x = |s|`` it is ``(cos(x*theta) + gap_function(x))/x**2`` for
    ``s > 0`` and ``(-cosh(x*theta) - gap_function_negative(x))/x**2`` for
    ``s < 0``: the sin/cos and sinh/cosh forms of one expression, continuous
    across zero energy.  The product forms ``cos b - cos a = 2 sin((a+b)/2)
    sin((a-b)/2)`` and ``cosh a - cosh b = 2 sinh((a+b)/2) sinh((a-b)/2)``,
    with ``a = pi*x`` and ``b = theta*x``, cancel the double zero at
    ``s = 0`` analytically; the limit value is ``C - theta**2/2`` with
    ``C = curvature``, the negative-gap curvature at ``alpha``.  All
    arguments broadcast.
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
    return np.where(x < 1e-8, curvature - 0.5 * theta * theta, value)


def _negative_even_roots(alpha, theta, x1, cutoff) -> np.ndarray:
    """Even negative-energy ``kappa`` of every row (NaN where none).

    ``x1`` are the threshold edges and ``cutoff`` the values of
    ``kappa_cutoff``; the arguments broadcast to one value per row.
    """
    return _first_roots(
        x1 + 1e-12,
        cutoff - 1e-12,
        lambda kp, al, th: np.cosh(kp * th) - _gap_function_negative_vec(kp, al),
        alpha,
        theta,
    )


def solve_negative(alpha: float, theta: float, parity: str) -> float | None:
    """Decay parameter ``kappa`` of a negative-energy eigenvalue.

    Even sector: exists for every attractive coupling and every bend
    angle, strictly between the spectral threshold and the cutoff of
    ``kappa_cutoff``.  Odd sector: exists only below the borderline
    coupling and only for bend angles under ``odd_zero_crossing_angle``.
    Returns ``None`` when there is nothing to find.
    """
    return solve_negative_batch([(alpha, theta, parity)])[0]


def solve_negative_batch(queries) -> list[float | None]:
    """``solve_negative`` for every ``(alpha, theta, parity)`` query.

    The queries (any iterable) are solved together: the threshold edges,
    the cutoff and the curvature are computed once per distinct coupling,
    each query's residual is sampled on its own grid, and the brackets of
    all queries of one parity are bisected together.
    """
    rows = []
    for alpha, theta, parity in queries:
        _angles([theta])
        rows.append((alpha, theta, 0.0 if alpha >= 0.0 else _parity_sign(parity)))
    alpha, theta, sgn = np.array(rows, dtype=float).reshape(-1, 3).T
    x1, x_m1 = np.full((2, len(rows)), np.nan)
    live = sgn != 0.0
    x1[live], x_m1[live] = _per_coupling(_negative_edges, alpha[live]).reshape(-1, 2).T
    roots = np.full(len(rows), np.nan)
    even = sgn > 0.0
    roots[even] = _negative_even_roots(
        alpha[even], theta[even], x1[even], _per_coupling(kappa_cutoff, alpha[even])
    )
    # The odd eigenvalue exists only below the borderline coupling.
    odd = (sgn < 0.0) & ~np.isnan(x_m1)
    curvature = _per_coupling(gap_function_negative_curvature, alpha[odd])
    kappa = _first_roots(
        1e-9,
        x_m1[odd] - 1e-11,
        lambda kp, al, th, c: _odd_residual_scaled(-kp, al, th, c),
        alpha[odd],
        theta[odd],
        curvature,
    )
    roots[odd] = np.where(kappa > EDGE_WINDOW, kappa, np.nan)
    return [_found(r) for r in roots]


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
    # Below the borderline the odd eigenvalue of the first gap passes
    # through zero energy; it is solved in the signed variable.
    deep_odd = want_minus and alpha < ZERO_ENERGY_ALPHA_MIN
    gaps = gap_intervals(alpha, n_max)
    slots = [
        (alpha, gap, p, thetas)
        for gap in gaps
        for p in parities
        if not (deep_odd and gap.n == 1 and p == "-")
    ]
    roots = dict(zip(((g.n, p) for _, g, p, _ in slots), _gap_roots(slots)))
    kap_even = kap_odd = absent
    if alpha < 0.0 and (want_plus or deep_odd):
        x1, x_m1 = _negative_edges(alpha)
        if want_plus:
            kap_even = _negative_even_roots(alpha, thetas, x1, kappa_cutoff(alpha))
        if deep_odd:
            s = _signed_odd_roots(alpha, thetas, x_m1)
            roots[1, "-"] = np.where(s > 0.0, s, np.nan)
            kap_odd = np.where(s < 0.0, -s, np.nan)
    out: list[list[EigenvalueRecord]] = []
    for i, theta in enumerate(thetas.tolist()):
        records: list[EigenvalueRecord] = []
        for kap, sgn, p, n in ((kap_even[i], 1.0, "+", 0), (kap_odd[i], -1.0, "-", 1)):
            if not np.isnan(kap):
                res = abs(_negative_residual(kap, alpha, theta, sgn))
                records.append(EigenvalueRecord(theta, kap, -kap * kap, p, n, 1, res))
        for gap in gaps:
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


def _signed_odd_roots(alpha: float, thetas: np.ndarray, x_m1: float) -> np.ndarray:
    """Signed roots ``s`` of the odd condition in the gap touching zero.

    For couplings below the borderline the odd eigenvalue of the first
    gap moves continuously from negative to positive energy as the bend
    angle grows; this solver works in the signed variable
    (``energy = sign(s)*s**2``) with the zero-crossing removed by scaling,
    so the crossing itself is no obstacle.  ``x_m1`` is the deeper
    threshold edge of ``_negative_edges``.  NaN where there is no root.
    """
    return _first_roots(
        -(x_m1 - 1e-11),
        1.0 - INTEGER_EXCLUSION,
        _odd_residual_scaled,
        alpha,
        thetas,
        gap_function_negative_curvature(alpha),
    )


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
    if gap_index == 0 and alpha < 0.0:
        s = np.full(len(th), np.nan)
        if parity == "+":
            s = -_negative_even_roots(
                alpha, th, _negative_edges(alpha)[0], kappa_cutoff(alpha)
            )
    elif parity == "-" and gap_index == 1 and alpha < ZERO_ENERGY_ALPHA_MIN:
        s = _signed_odd_roots(alpha, th, _negative_edges(alpha)[1])
    else:
        gaps = gap_intervals(alpha, max(gap_index, 1)) if alpha != 0.0 else []
        gap = next((g for g in gaps if g.n == gap_index), None)
        if gap is None:
            raise ValueError(f"gap {gap_index} not available")
        s = _gap_roots([(alpha, gap, parity, th)])[0]
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
