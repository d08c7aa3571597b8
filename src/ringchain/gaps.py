"""Discrete spectrum of the bent chain inside the gaps of the straight one.

Bending one ring by ``theta`` keeps the essential spectrum but inserts at
most one eigenvalue per spectral gap and parity sector.  Positive-energy
eigenvalues solve ``±cos(k*theta) = gap_function(k)`` on a gap interval
(``+`` even sector, ``-`` odd sector); negative-energy ones solve the
hyperbolic analogue.  Every query, whatever its shape, becomes slots
``(alpha, gap index, parity, angles)`` for one dispatcher,
``_sector_roots``, the only place that decides which solver serves a
sector: the even negative eigenvalue of an attractive coupling (gap 0),
the odd eigenvalue of gap 1 below the borderline coupling, solved in the
signed variable through zero energy, or a positive-energy root on the gap
interval.  It returns the signed root ``s`` (``energy = sign(s)*s**2``)
at every angle of every slot, and the public readers only read it.  Each
solver runs once over all of its slots: work that depends only on the
coupling (gap intervals, threshold edges, the cutoff, the gap function on
each scan grid) is done once; every angle of every slot is one row on
its own scan grid, and the rows of all slots are sampled together in
blocks of at most ``_rootfind.SCAN_SAMPLES`` samples; every bracket is
bisected together to full precision (``_rootfind.bisect_batch``);
then each slot is filtered on its own — an eigenvalue sitting on a band
edge (within ``EDGE_WINDOW``) is reported as absent, since the candidate
eigenfunction stops being square-summable there.  The gap intervals and
the threshold edges are the straight chain's and come from ``bands``,
which finds every edge that ``compute_bands`` reports; the cutoff and the
double points are found on the same scan-bracket-bisect path of
``_rootfind``, for many couplings at once, and every residual is built
from the numpy kernels of ``dispersion``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._core import ContinuationError, _parity_sign, singular_angles
from ._rootfind import _first_roots, _row_brackets, bisect_batch
from .bands import GapInterval, _gaps_at, _negative_edges
from .dispersion import (
    ZERO_ENERGY_ALPHA_MIN,
    _decaying_denominator,
    _gap_function,
    gap_function,
    gap_function_negative_curvature,
)

__all__ = [
    "EDGE_WINDOW",
    "EigenvalueRecord",
    "SpectralCurve",
    "singular_angles",
    "is_singular_angle",
    "solve_gap_near_edge",
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


def is_singular_angle(theta, n: int, parity: str):
    """True where ``theta`` lies within ``SINGULAR_ANGLE_TOL`` of a singular angle.

    Takes a number or an array of angles.
    """
    angles = np.array(singular_angles(n, parity), dtype=float)
    near = np.abs(np.asarray(theta, dtype=float)[..., None] - angles) < SINGULAR_ANGLE_TOL
    return np.any(near, axis=-1)[()]


def _gap_residual(x, alpha, theta, sgn, sign=-1.0):
    """Gap condition ``sgn*cos(x*theta) - gap_function(x)`` (``sign = -1``) or its
    hyperbolic twin ``sgn*cosh(x*theta) - gap_function_negative(x)`` (``sign = +1``),
    with ``sgn = ±1`` the parity sign; arguments broadcast."""
    cos = np.cosh if sign > 0.0 else np.cos
    return sgn * cos(x * theta) - _gap_function(x, alpha, sign)


def _angles(thetas) -> np.ndarray:
    """Bend angles as a float array, each strictly between 0 and pi."""
    th = np.asarray(thetas, dtype=float).reshape(-1)
    if not np.all((0.0 < th) & (th < math.pi)):
        raise ValueError("theta must lie strictly between 0 and pi")
    return th


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


def _gap_roots(slots) -> np.ndarray:
    """Positive-energy roots of every slot ``(alpha, n, parity, thetas)``.

    Gives one wavenumber per angle, the angles of all slots in turn, NaN
    where the slot has no eigenvalue there: at a singular angle, on the
    band edge (within ``EDGE_WINDOW``), or with no sign change.  Every
    angle is one row on the scan grid of its slot's gap, and the rows of
    all slots are scanned together in full blocks (``_row_brackets``).
    The gap intervals of all runs come from one ``_gaps_at`` call, and the
    gap function is sampled once for each run; all brackets of all slots
    are bisected together on one kernel with a per-bracket coupling and
    parity sign.
    """
    sizes = [len(thetas) for *_, thetas in slots]
    # A run is a stretch of slots with one coupling and gap (the parities
    # of a gap come in turn); one row per angle, each on its run's grid.
    heads = [i == 0 or slots[i - 1][:2] != slot[:2] for i, slot in enumerate(slots)]
    runs = [slot for slot, head in zip(slots, heads) if head]
    run_alpha = np.array([alpha for alpha, *_ in runs])
    gaps = _gaps_at(run_alpha, [n for _, n, *_ in runs])
    doms = np.array([_scan_domain(gap) or (math.nan, math.nan) for gap in gaps])
    run = np.repeat(np.cumsum(heads, dtype=int) - 1, sizes)
    n = np.repeat([n for _, n, *_ in slots], sizes)
    sgn = np.repeat([_parity_sign(p) for *_, p, _ in slots], sizes)
    th = np.concatenate([thetas for *_, thetas in slots] or [[]])
    lo, hi = doms.reshape(-1, 2)[run].T
    for gn, p in {(gn, p) for _, gn, p, _ in slots}:  # no row at a singular angle
        sel = (n == gn) & (sgn == _parity_sign(p))
        lo[sel] = np.where(is_singular_angle(th[sel], gn, p), math.nan, lo[sel])
    sampled = {}  # run -> the gap function on its grid, for the runs of one block

    def residual(ks, run, theta, sgn):
        # Blocks come in row order, so a run that goes on into the next
        # block is kept for it.  Each run is sampled on its own grid: a
        # whole block at once would hold the kernel's temporaries block-sized.
        ids = run[:, 0].tolist()
        for i, r in enumerate(ids):
            if r not in sampled:
                sampled[r] = _gap_function(ks[i], run_alpha[r])
        g = sampled[ids[0]] if ids[0] == ids[-1] else np.array([sampled[r] for r in ids])
        last = sampled[ids[-1]]
        sampled.clear()
        sampled[ids[-1]] = last
        return sgn * np.cos(ks * theta) - g

    row, a, b = _row_brackets(lo, hi, residual, run, th, sgn, points=GAP_SCAN_POINTS)
    al, th_b, sgn_b = run_alpha[run[row]], th[row], sgn[row]
    roots = bisect_batch(lambda k: _gap_residual(k, al, th_b, sgn_b), a, b)
    # Per row: drop near-duplicates of the last kept root, then roots on
    # the band edge; more than one survivor means the scan is inconsistent.
    kept: dict[int, list] = {}
    for i, r in zip(row.tolist(), roots.tolist()):
        rs = kept.setdefault(i, [])
        if not rs or r - rs[-1] > 1e-9:
            rs.append(r)
    edge = np.array([gap.band_edge for gap in gaps])[run]
    out = np.full(th.size, np.nan)
    for i, rs in kept.items():
        rs = [r for r in rs if abs(r - edge[i]) > EDGE_WINDOW]
        if len(rs) > 1:
            raise RuntimeError(
                f"multiple gap roots {rs} in gap {n[i]}: scan inconsistency"
            )
        if rs:
            out[i] = rs[0]
    return out


def solve_gap_near_edge(alpha: float, thetas, gap: GapInterval, parity: str):
    """Eigenvalue wavenumber hugging the non-integer band edge, at every angle of ``thetas``.

    Small bend angles push the gap root exponentially close to the band
    edge, far below the resolution of the uniform scan in ``_gap_roots``;
    this variant bisects directly on a one-sided bracket, at most 1e-2
    wide, at the edge, all angles together.  NaN where no sign change
    exists in the bracket.
    """
    th = _angles(thetas)
    sgn = _parity_sign(parity)
    edge = gap.band_edge
    reach = min(1e-2, 0.5 * (gap.k_hi - gap.k_lo))
    if edge == gap.k_hi:
        lo, hi = edge - reach, edge - 1e-13
    else:
        lo, hi = edge + 1e-13, edge + reach
    roots = _first_roots(lo, hi, lambda k, t: _gap_residual(k, alpha, t, sgn), th, points=2)
    return roots.reshape(np.shape(thetas))[()]


def kappa_cutoff(alpha):
    """Unique positive root of ``kappa*tanh(pi*kappa) = -alpha/2``.

    The negative gap function diverges there; the even-sector negative
    eigenvalue always satisfies ``kappa < kappa_cutoff(alpha)``.  Defined
    for attractive couplings.  Takes a number or an array of couplings,
    bisected together.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha >= 0.0):
        raise ValueError("cutoff defined for alpha < 0 only")
    return bisect_batch(
        lambda x: x * np.tanh(np.pi * x) + 0.5 * alpha,
        np.full(alpha.shape, 1e-12),
        0.5 * np.abs(alpha) + 1.0,
    )[()]


def odd_zero_crossing_angle(alpha: float) -> float:
    """Bend angle where the odd-sector eigenvalue curve crosses zero energy.

    Equals ``sqrt(2*C)`` with ``C`` the small-``kappa`` curvature of the
    negative gap function; below this angle the odd eigenvalue in the gap
    touching zero is negative, above it positive.  Requires a coupling
    below ``ZERO_ENERGY_ALPHA_MIN``.
    """
    return math.sqrt(2.0 * gap_function_negative_curvature(alpha))


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
        sp = sin(np.pi * x)
        t = 0.25 * alpha * sp / x
        denom = _decaying_denominator(t, cos(np.pi * x) + t)  # half-trace <= -1 here
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
        lambda kp, al, th: _gap_residual(kp, al, th, 1.0, 1.0),
        alpha,
        theta,
        points=GAP_SCAN_POINTS,
    )


def _signed_odd_roots(alpha, theta, x_m1) -> np.ndarray:
    """Signed root ``s`` of the odd condition in the gap touching zero, on every row.

    For couplings below the borderline the odd eigenvalue of the first
    gap moves continuously from negative to positive energy as the bend
    angle grows; this solver works in the signed variable
    (``energy = sign(s)*s**2``) with the zero-crossing removed by scaling,
    so the crossing itself is no obstacle.  ``x_m1`` are the deeper
    threshold edges of ``_negative_edges``; the arguments broadcast to one
    value per row.  NaN where there is no root.
    """
    return _first_roots(
        -(x_m1 - 1e-11),
        1.0 - INTEGER_EXCLUSION,
        _odd_residual_scaled,
        alpha,
        theta,
        gap_function_negative_curvature(alpha),
        points=GAP_SCAN_POINTS,
    )


def _sector(alpha: float, n: int, parity: str) -> str | None:
    """Solver of the (coupling, gap, parity) sector: ``"even"``, ``"odd"`` or
    ``"gap"``, or ``None`` where it holds no eigenvalue (see ``_sector_roots``)."""
    if alpha == 0.0:
        raise ValueError("the uncoupled chain has no gap eigenvalues")
    _parity_sign(parity)  # a bad parity is an error in every sector
    if alpha < 0.0 and n == 0:
        return "even" if parity == "+" else None
    if alpha < ZERO_ENERGY_ALPHA_MIN and n == 1 and parity == "-":
        return "odd"
    return "gap"


def _sector_roots(slots) -> list[np.ndarray]:
    """Signed root ``s`` of every slot ``(alpha, n, parity, thetas)``.

    The one place that decides which solver serves which (coupling, gap,
    parity) sector; every solver runs once, over all of its slots:

    - gap 0 of an attractive coupling holds the even negative eigenvalue,
      strictly between the threshold and ``kappa_cutoff`` at every angle,
      and no odd one;
    - the odd eigenvalue of gap 1 below the borderline coupling is solved
      in the signed variable (``_signed_odd_roots``); its energy is
      negative only below ``odd_zero_crossing_angle``;
    - every other sector holds a positive-energy root on gap ``n`` of the
      straight chain (``_gap_roots``).

    Gives one ``s`` per angle of each slot (``energy = sign(s)*s**2``),
    NaN where the sector has no eigenvalue there.  The threshold edges
    and the cutoff are computed once per distinct attractive coupling.
    """
    sector = [_sector(alpha, n, parity) for alpha, n, parity, _ in slots]
    # One row per angle of every slot.
    sizes = [len(thetas) for *_, thetas in slots]
    row_sector = np.repeat(np.array(sector, dtype=object), sizes)
    al = np.repeat([slot[0] for slot in slots], sizes)
    th = np.concatenate([thetas for *_, thetas in slots] or [[]])
    out = np.full(al.size, np.nan)
    even, odd = row_sector == "even", row_sector == "odd"
    if even.any() or odd.any():
        # Not np.unique: on floats it imports numpy.ma (about 1 MB and 12 ms).
        couplings = np.array(sorted(set(al[even | odd].tolist())))
        x1, x_m1 = _negative_edges(couplings)
        cutoff = kappa_cutoff(couplings)
        c = np.searchsorted(couplings, al)
        out[even] = -_negative_even_roots(al[even], th[even], x1[c[even]], cutoff[c[even]])
        out[odd] = _signed_odd_roots(al[odd], th[odd], x_m1[c[odd]])
    out[row_sector == "gap"] = _gap_roots(
        [slot for slot, kind in zip(slots, sector) if kind == "gap"]
    )
    ends = np.cumsum(sizes).tolist()
    return [out[end - size:end] for size, end in zip(sizes, ends)]


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
    halves = np.arange(math.floor(lo) + 0.5, hi, 1.0)
    ends = np.concatenate([[lo], halves[halves > lo], [hi]])

    def kernel(k):
        return double_eigenvalue_residual(k, alpha)

    _, a, b = _row_brackets(ends[:-1] + 1e-9, ends[1:] - 1e-9, kernel, points=512)
    return bisect_batch(kernel, a, b).tolist()


def recover_double_angle(k_star: float, alpha: float) -> float:
    """Smallest bend angle at which the double eigenvalue at ``k_star`` occurs.

    Solves ``cos(k*theta) = gap_function(k)`` for ``theta``; at a genuine
    double point the gap function vanishes and the angle is
    ``pi/(2*k_star)`` up to the arccos branch.
    """
    f = gap_function(k_star, alpha)
    return math.acos(max(-1.0, min(1.0, f))) / k_star


def _merge_records(theta: float, n: int, alpha: float, ks, res) -> list[EigenvalueRecord]:
    """Records of gap ``n`` from its parity roots ``ks = (k+, k-)`` (NaN if absent).

    ``res`` holds their residuals; a degenerate pair merges into one
    double record.
    """
    kp, km = ks
    if abs(kp - km) < 1e-9:
        mid = 0.5 * (kp + km)
        if abs(double_eigenvalue_residual(mid, alpha)) < 1e-6:
            return [EigenvalueRecord(theta, mid, mid * mid, "+-", n, 2, max(res))]
    return [
        EigenvalueRecord(theta, k, k * k, p, n, 1, r)
        for k, r, p in zip(ks, res, "+-")
        if not np.isnan(k)
    ]


def gap_eigenvalues_grid(
    alpha: float, thetas, n_max: int, parity: str = "both"
) -> list[list[EigenvalueRecord]]:
    """``gap_eigenvalues`` at every angle of ``thetas``, solved together.

    Returns one sorted record list per angle, in the order of ``thetas``.
    Every sector of the grid is one slot of ``_sector_roots``, so the gap
    intervals, the threshold edges, the cutoff and the gap function on
    each scan grid are computed once for the whole grid; the residuals of
    all records take one array call per energy sign.  ``parity`` is
    ``'+'``, ``'-'`` or ``'both'``.
    """
    if parity not in ("+", "-", "both"):
        raise ValueError("parity must be '+', '-' or 'both'")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    thetas = _angles(thetas)
    parities = "+-" if parity == "both" else parity
    ns = range(0 if alpha > 0.0 else 1, n_max + 1)
    slots = [(alpha, n, p, thetas) for n in ns for p in parities]
    if alpha < 0.0 and "+" in parities:
        slots.append((alpha, 0, "+", thetas))
    roots = dict(zip(((n, p) for _, n, p, _ in slots), _sector_roots(slots)))
    absent = np.full(len(thetas), np.nan)
    # Both parities of every gap, an absent root as NaN: (gap, parity, angle).
    signed = np.array([[roots.get((n, p), absent) for p in "+-"] for n in ns])
    ks = np.where(signed > 0.0, signed, np.nan)
    # The negative energies: the even one of gap 0 and the odd one of gap 1.
    signed = np.array([roots.get((0, "+"), absent), roots.get((1, "-"), absent)])
    kaps = np.where(signed < 0.0, -signed, np.nan)
    sgn = np.array([[1.0], [-1.0]])
    res = np.abs(_gap_residual(ks, alpha, thetas, sgn))
    kap_res = np.abs(_gap_residual(kaps, alpha, thetas, sgn, 1.0))
    out: list[list[EigenvalueRecord]] = []
    for i, theta in enumerate(thetas.tolist()):
        records = [
            EigenvalueRecord(theta, kap, -kap * kap, p, n, 1, r)
            for kap, r, p, n in zip(kaps[:, i], kap_res[:, i], "+-", (0, 1))
            if not np.isnan(kap)
        ]
        for n, k, r in zip(ns, ks[..., i], res[..., i]):
            records += _merge_records(theta, n, alpha, k, r)
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


def trace_eigenvalue_curve(
    alpha: float,
    parity: str,
    gap_index: int,
    thetas,
    *,
    jump_factor: float = 10.0,
) -> SpectralCurve:
    """Sample one gap/parity eigenvalue curve over a grid of bend angles.

    The samples are the signed roots of ``_sector_roots``, so they equal
    what ``gap_eigenvalues_grid`` reports: negative-energy samples carry
    ``s = -kappa``, and the odd-sector curve of the gap touching zero
    (attractive coupling below the borderline) runs straight through the
    zero crossing.
    Consecutive energies are checked against a local secant prediction; a
    jump beyond ``jump_factor`` times the predicted increment raises
    ``ContinuationError``.
    """
    grid = list(thetas)
    if gap_index < 0:
        raise ValueError(f"gap {gap_index} not available")
    (s,) = _sector_roots([(alpha, gap_index, parity, _angles(grid))])
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
