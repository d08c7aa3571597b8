"""Band spectrum of the straight ring chain.

Spectral bands are the energies where the period-map half-trace lies in
``[-1, 1]``; on top of them sits a flat (infinitely degenerate) eigenvalue
``n**2`` at every positive integer ``n``.  Energies are swept along a
single signed axis ``s`` with ``E = sign(s) * s**2``, so the negative
branch (``s = -kappa``) and the positive branch (``s = k``) assemble into
one ordered list of bands; the threshold band of an attractive coupling
comes out of the same sweep as any other band.  The edges of many
couplings are scanned and bisected together on the batched root path of
``_rootfind``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rootfind import _row_brackets, bisect_batch
from .dispersion import (
    discriminant,
    discriminant_negative,
    discriminant_zero_limit,
    is_near_integer,
)

__all__ = [
    "BAND_SCAN_PER_UNIT",
    "Band",
    "BandSpectrum",
    "in_spectrum",
    "compute_bands",
    "lowest_band_threshold",
]

# Sample density used to bracket |half-trace| = 1 edges, per unit of k.
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


def in_spectrum(energy: float, alpha: float) -> bool:
    """Membership test against the straight-chain essential spectrum.

    Positive energies with integer ``sqrt(E)`` are the flat eigenvalues and
    always belong; otherwise membership is ``|half-trace| <= 1`` on the
    matching (positive or negative) branch.
    """
    if energy > 0.0:
        k = math.sqrt(energy)
        if is_near_integer(k):
            return True
        return abs(discriminant(k, alpha)) <= 1.0
    if energy < 0.0:
        return abs(discriminant_negative(math.sqrt(-energy), alpha)) <= 1.0
    return abs(discriminant_zero_limit(alpha)) <= 1.0


def _halftrace_signed(s, alpha):
    """Half-trace as a function of the signed sweep variable; ``alpha`` broadcasts with ``s``."""
    s, alpha = np.broadcast_arrays(np.asarray(s, dtype=float), alpha)
    pos = s >= 0.0
    # A block of one sign (the usual case) goes to its kernel as it stands.
    if pos.all():
        return discriminant(s, alpha)
    if not pos.any():
        return discriminant_negative(-s, alpha)
    out = np.empty(s.shape)
    out[pos] = discriminant(s[pos], alpha[pos])
    out[~pos] = discriminant_negative(-s[~pos], alpha[~pos])
    return out[()]


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


def _negative_sweep_limit(alpha):
    """Safe lower end of the signed sweep for attractive couplings.

    The deepest spectral point satisfies ``kappa <= |alpha|/2 + 1`` (the
    half-trace exceeds 1 beyond it for every sign pattern), with the extra
    unit keeping weak couplings covered as well.  Takes a number or an
    array.
    """
    return -(0.5 * np.abs(alpha) + 1.0)


def compute_bands(alpha: float, e_max: float) -> BandSpectrum:
    """All spectral bands with ``e_lo < e_max``, plus flat eigenvalues.

    Bands are reported with their genuine edges, so the last band may
    reach beyond ``e_max``.  For ``alpha = 0`` the essential spectrum is
    the half-line ``[0, inf)``, reported as a single band cut at ``e_max``
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

    k_max = math.ceil(math.sqrt(e_max)) + 1.0
    s_lo = _negative_sweep_limit(alpha) if alpha < 0.0 else _EDGE_OFFSET
    width = k_max - s_lo
    points = max(64, max(64, int(BAND_SCAN_PER_UNIT * width)) // max(1, math.ceil(width)))
    (edges,) = _edge_roots(alpha, s_lo, k_max, points)
    boundary = sorted(
        set(edges)
        | {float(n) for n in range(1, int(k_max) + 1)}
        | ({0.0} if alpha < 0.0 else set())
    )
    boundary = [s_lo] + boundary + [k_max]

    pieces: list[tuple[float, float]] = []
    for a, b in zip(boundary, boundary[1:]):
        if not a < b:
            continue
        mid = 0.5 * (a + b)
        if mid == 0.0:
            mid = a + 0.25 * (b - a)
        if abs(_halftrace_signed(mid, alpha)) <= 1.0:
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

    Equals ``-x1**2`` where ``x1`` is the largest root of
    ``|discriminant_negative| = 1``; defined for ``alpha < 0`` only.
    """
    if alpha >= 0.0:
        raise ValueError("threshold below zero exists only for alpha < 0")
    s_lo = _negative_sweep_limit(alpha)
    (edges,) = _edge_roots(alpha, s_lo, -1e-9, BAND_SCAN_PER_UNIT)
    if not edges:
        raise RuntimeError("no negative-branch band edge located")
    return -edges[0] * edges[0]
