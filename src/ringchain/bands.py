"""Band spectrum of the straight ring chain: the one owner of its edges.

Spectral bands are the energies where the period-map half-trace lies in
``[-1, 1]``; on top of them sits a flat (infinitely degenerate) eigenvalue
``n**2`` at every positive integer ``n``.  Every edge of the straight
chain is found here, once, for the band list and for the gap solvers of
``gaps`` alike: the non-integer edge of each spectral gap
(``gap_intervals``, ``_gaps_at``) and the threshold edges of an
attractive coupling on the decay axis (``_negative_edges``).  Each finder
scans and bisects the edges of many couplings together on the batched
root path of ``_rootfind``.  ``compute_bands`` assembles these edges and
the integers along one signed axis ``s`` with ``E = sign(s) * s**2``
(``s = -kappa`` below zero energy, ``s = k`` above it) and keeps the
pieces whose midpoint has ``|half-trace| <= 1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rootfind import _first_roots, _row_brackets, bisect_batch
from .dispersion import (
    discriminant,
    discriminant_negative,
    discriminant_zero_limit,
    is_near_integer,
)

__all__ = [
    "Band",
    "BandSpectrum",
    "GapInterval",
    "in_spectrum",
    "gap_intervals",
    "compute_bands",
    "lowest_band_threshold",
]

# Sample density used to bracket the threshold edges, per unit of kappa.
BAND_SCAN_PER_UNIT = 128
# Grid offset keeping scan samples off the exact integers, where the
# half-trace equals ±1 identically.
_EDGE_OFFSET = 1e-10
# Scan roots closer than this to an integer collapse onto the integer.
_SNAP = 1e-9


@dataclass(frozen=True)
class Band:
    """One spectral band ``[e_lo, e_hi]``.

    ``k_lo``/``k_hi`` hold the signed wavenumber edges with the convention
    ``E = sign(s) * s**2`` (negative ``s`` means ``E = -s**2``, i.e. the
    decaying branch).  ``closed_*`` flags are False only for artificial
    window boundaries (the ``alpha = 0`` half-line cut at ``e_max``), never
    for genuine spectral edges.
    """

    e_lo: float
    e_hi: float
    k_lo: float
    k_hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self) -> None:
        if not self.e_lo <= self.e_hi:
            raise ValueError("band edges out of order")

    @property
    def width(self) -> float:
        return self.e_hi - self.e_lo

    def as_dict(self) -> dict:
        return {
            "e_lo": self.e_lo,
            "e_hi": self.e_hi,
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "closed_lo": self.closed_lo,
            "closed_hi": self.closed_hi,
        }


@dataclass(frozen=True)
class BandSpectrum:
    """Bands and flat eigenvalues of the straight chain up to ``e_max``."""

    alpha: float
    e_max: float
    bands: tuple[Band, ...]
    flat_eigenvalues: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for prev, cur in zip(self.bands, self.bands[1:]):
            if not prev.e_hi < cur.e_lo:
                raise ValueError("bands must be disjoint and ordered")

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "e_max": self.e_max,
            "bands": [b.as_dict() for b in self.bands],
            "flat_eigenvalues": list(self.flat_eigenvalues),
        }


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


def in_spectrum(energy, alpha: float):
    """Membership test against the straight-chain essential spectrum.

    Positive energies with integer ``sqrt(E)`` are the flat eigenvalues and
    always belong; otherwise membership is ``|half-trace| <= 1`` on the
    matching (positive or negative) branch.  Takes a number or an array
    of energies.
    """
    e = np.asarray(energy, dtype=float)
    inside = np.full(e.shape, abs(discriminant_zero_limit(alpha)) <= 1.0)
    k = np.sqrt(e[e > 0.0])
    inside[e > 0.0] = is_near_integer(k) | (abs(discriminant(k, alpha)) <= 1.0)
    inside[e < 0.0] = abs(discriminant_negative(np.sqrt(-e[e < 0.0]), alpha)) <= 1.0
    return inside[()]


def _halftrace_signed(s, alpha):
    """Half-trace at the signed sweep variable ``s``: a number, or an array of one sign."""
    if np.all(np.asarray(s) >= 0.0):
        return discriminant(s, alpha)
    return discriminant_negative(-s, alpha)


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
            lambda k, al, target: discriminant(k, al) - target,
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


def _edge_roots(alphas, s_lo, s_hi: float, points: int) -> list[list[float]]:
    """Non-integer roots of |half-trace| = 1 on ``(s_lo[i], s_hi)`` at ``alphas[i]``.

    One sorted root list per coupling; ``s_lo`` broadcasts with
    ``alphas``.  Each interval is scanned cell by cell, on ``points``
    points per cell, against the targets +1 and -1 on grids kept off the
    integers (the half-trace equals ±1 there by construction); the
    bracketed crossings of all couplings are bisected together to full
    precision, and roots landing within the snap window of an integer are
    discarded — integers enter the edge list explicitly.
    """
    alphas, s_lo = np.broadcast_arrays(np.atleast_1d(np.asarray(alphas, dtype=float)), s_lo)
    top = s_hi - _EDGE_OFFSET
    cells = [
        (i, alpha, max(cell + _EDGE_OFFSET, lo), min(cell + 1 - _EDGE_OFFSET, top), t)
        for i, (alpha, lo) in enumerate(zip(alphas.tolist(), s_lo.tolist()))
        for cell in range(math.floor(lo), math.ceil(s_hi))
        for t in (1.0, -1.0)
    ]
    owner, alpha, a, b, target = np.array(cells, dtype=float).reshape(-1, 5).T

    def kernel(x, al, t):
        return _halftrace_signed(x, al) - t

    row, lo, hi = _row_brackets(a, b, kernel, alpha, target, points=points)
    roots = bisect_batch(lambda x: kernel(x, alpha[row], target[row]), lo, hi)
    order = np.lexsort((roots, owner[row]))
    out: list[list[float]] = [[] for _ in alphas]
    for i, r in zip(owner[row][order].astype(int).tolist(), roots[order].tolist()):
        kept = out[i]
        if abs(r - round(r)) > _SNAP and (not kept or r - kept[-1] > _SNAP):
            kept.append(r)
    return out


def _negative_edges(alpha):
    """Threshold-band edges on the decay axis: ``(x1, x_minus1)``.

    ``x1`` is the largest root of ``|discriminant_negative| = 1`` (the
    bottom of the spectrum sits at ``-x1**2``); ``x_minus1`` is the root
    of ``discriminant_negative = -1`` which exists only below the
    borderline coupling ``ZERO_ENERGY_ALPHA_MIN`` (NaN above it).  Takes a
    number or an array of couplings, all scanned and bisected together.
    """
    alpha = np.asarray(alpha, dtype=float)
    # The deepest spectral point has kappa <= |alpha|/2 + 1: the half-trace
    # exceeds 1 beyond it, and the extra unit covers weak couplings too.
    roots = _edge_roots(alpha, -(0.5 * np.abs(alpha) + 1.0), -1e-9, BAND_SCAN_PER_UNIT)
    if not all(roots):
        raise RuntimeError("no negative-branch edges found")
    x1 = np.array([-r[0] for r in roots]).reshape(alpha.shape)
    x_m1 = np.array([-r[-1] if len(r) >= 2 else math.nan for r in roots]).reshape(alpha.shape)
    return x1[()], x_m1[()]


def compute_bands(alpha: float, e_max: float) -> BandSpectrum:
    """All spectral bands with ``e_lo < e_max``, plus flat eigenvalues.

    The boundaries are the edges the gap solvers use: the non-integer edge
    of every gap up to ``k_max``, the threshold edges ``-x1`` and ``-x_m1``
    and zero for an attractive coupling, and the integers; a piece between
    neighbouring boundaries is a band where the half-trace at its midpoint
    lies in ``[-1, 1]``.  So the edges do not depend on ``e_max``.  Bands
    are reported with their genuine edges, so the last band may reach
    beyond ``e_max``.  For ``alpha = 0`` the essential spectrum is the
    half-line ``[0, inf)``, reported as a single band cut at ``e_max``
    with an open upper flag.
    """
    if not e_max > 1.0:
        raise ValueError("e_max must exceed 1")
    flats = tuple(
        float(n * n) for n in range(1, int(math.floor(math.sqrt(e_max))) + 1)
    )
    if alpha == 0.0:
        band = Band(0.0, e_max, 0.0, math.sqrt(e_max), True, False)
        return BandSpectrum(alpha, e_max, (band,), flats)

    k_max = math.ceil(math.sqrt(e_max)) + 1
    # Gap n lies in the cell [n, n+1] (repulsive) or [n-1, n] (attractive);
    # every cell below k_max holds one.
    n_max = k_max - 1 if alpha > 0.0 else k_max
    edges = {gap.band_edge for gap in gap_intervals(alpha, n_max)}
    edges |= {float(n) for n in range(1, k_max + 1)}
    if alpha < 0.0:
        x1, x_m1 = _negative_edges(alpha)
        edges |= {-float(x1), 0.0} | (set() if math.isnan(x_m1) else {-float(x_m1)})
    boundary = sorted(edges)

    pieces: list[tuple[float, float]] = []
    for a, b in zip(boundary, boundary[1:]):
        if abs(_halftrace_signed(0.5 * (a + b), alpha)) <= 1.0:
            if pieces and pieces[-1][1] == a:
                pieces[-1] = (pieces[-1][0], b)
            else:
                pieces.append((a, b))

    def to_energy(s: float) -> float:
        return math.copysign(s * s, s) if s != 0.0 else 0.0

    bands = tuple(
        Band(to_energy(a), to_energy(b), a, b)
        for a, b in pieces
        if to_energy(a) < e_max
    )
    return BandSpectrum(alpha, e_max, bands, flats)


def lowest_band_threshold(alpha: float) -> float:
    """Bottom of the essential spectrum for an attractive coupling.

    Equals ``-x1**2`` with ``x1`` the threshold edge of ``_negative_edges``,
    the largest root of ``|discriminant_negative| = 1``; defined for
    ``alpha < 0`` only.
    """
    if alpha >= 0.0:
        raise ValueError("threshold below zero exists only for alpha < 0")
    x1 = float(_negative_edges(alpha)[0])
    return -x1 * x1
