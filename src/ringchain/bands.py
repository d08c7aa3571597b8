"""Band spectrum of the straight ring chain: the one owner of its edges.

Spectral bands are the energies where the period-map half-trace
``d = cos(pi*k) + (alpha/4k) sin(pi*k)`` lies in ``[-1, 1]``; on top of
them sits a flat (infinitely degenerate) eigenvalue ``n**2`` at every
positive integer ``n``.  Every edge of the straight chain is found here,
once, for the band list and the gap solvers of ``gaps`` alike, as the
one root of a well-conditioned equation in a known bracket, so the edges
of many couplings are bisected together without a scan.  With
``k = n + u`` and ``sigma = (-1)**n`` the half-trace factors as
``d - sigma = sigma * 2 sin(pi*u/2) * [(alpha/4k) cos(pi*u/2) - sin(pi*u/2)]``,
whose bracket gives the edge of gap ``n`` (``_gap_edges``); at
``k = i*kappa`` it gives the threshold edges of an attractive coupling
(``_negative_edges``).  ``compute_bands`` builds the bands as the
complement of the gaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rootfind import bisect_batch
from .dispersion import (
    ZERO_ENERGY_ALPHA_MIN,
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

# pi/8 as the unevaluated sum of two doubles; Dekker's splitter 2**27 + 1
# cuts a double into two halves whose products are exact.
_PI_8 = (math.pi / 8.0, 1.5308084989341915e-17)
_SPLITTER = 134217729.0
# Powers m, smallest terms first, and (2m + 1)! of the series of ``_twin``:
# full precision up to h = 1.
_M = np.arange(9.0, -1.0, -1.0)[:, None]
_ODD_FACTORIALS = np.array([math.factorial(2 * m + 1) for m in range(9, -1, -1)], dtype=float)[:, None]


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


@dataclass(frozen=True)
class GapInterval:
    """Closed spectral gap ``[k_lo, k_hi]`` of the straight chain, in k.

    ``n`` is the integer contained in the closure (``n = 0`` labels the
    gap below the first band of a repulsive coupling, whose interior
    carries no integer).  The half-trace on the interior has the sign
    ``(-1)**n``, which fixes the decaying Floquet branch.
    """

    n: int
    k_lo: float
    k_hi: float

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


def _twin_terms(alpha):
    """``(a, coef)`` of ``_twin`` at every coupling of the array ``alpha``.

    ``a = alpha*pi/8`` and ``coef[m] = (2m + 1 + a)/(2m + 1)!``; ``1 + a``,
    zero at the borderline coupling, also takes the rounding error of ``a``
    (Dekker's exact product) and ``alpha`` times the low part of ``pi/8``.
    """
    a = alpha * _PI_8[0]
    t, p = _SPLITTER * alpha, _SPLITTER * _PI_8[0]
    ah, ph = t - (t - alpha), p - (p - _PI_8[0])
    al, pl = alpha - ah, _PI_8[0] - ph
    coef = (2.0 * _M + 1.0 + a) / _ODD_FACTORIALS
    coef[-1] += (((ah * ph - a) + ah * pl) + al * ph) + al * pl + alpha * _PI_8[1]
    return a, coef


def _twin(h, sign, a, coef):
    """``cos(h) + a sin(h)/h`` (``sign = -1``) or ``cosh(h) + a sinh(h)/h`` (``sign = +1``).

    ``a`` and ``coef`` come from ``_twin_terms``.  For ``h <= 1`` it is
    summed as its series in ``s = sign*h**2``, ``sum_m coef[m] s**m``, so no
    O(1) terms cancel next to the borderline coupling.
    """
    wide = np.maximum(h, 1.0)
    sin, cos = (np.sinh, np.cosh) if sign > 0.0 else (np.sin, np.cos)
    return np.where(h <= 1.0, ((sign * h * h) ** _M * coef).sum(axis=0), cos(wide) + a * sin(wide) / wide)


def _gap_edges(alphas, ns) -> np.ndarray:
    """Non-integer edge ``k`` of gap ``ns[i]`` at coupling ``alphas[i]``, for every ``i``.

    The one root of ``(alpha/4) cos(pi*u/2) - k sin(pi*u/2)``, ``u = k - n``,
    in the cell ``(n, n+1)`` (repulsive) or ``(n-1, n)`` (attractive); below
    ``k = 2/pi`` in the cell ``(0, 1)`` its twin, the same divided by ``k``.
    Gap 1 at or below ``ZERO_ENERGY_ALPHA_MIN`` reaches ``k = 0``.
    """
    alphas = np.asarray(alphas, dtype=float)
    ns = np.asarray(ns, dtype=float)
    edges = np.zeros(alphas.shape)
    open_ = (ns != 1.0) | (alphas > ZERO_ENERGY_ALPHA_MIN)
    al, n = alphas[open_], ns[open_]
    # Each row bisects u = k - n, so that n + u rounds once, except the
    # cell (0, 1) of an attractive coupling, which bisects k itself.
    base = np.where((n == 1.0) & (al < 0.0), 0.0, n)
    first = np.flatnonzero(base != n)
    terms = _twin_terms(al[first])

    def residual(x):
        v = 0.5 * np.pi * (x + (base - n))
        out = 0.25 * al * np.cos(v) - (base + x) * np.sin(v)
        if first.size:
            k = x[first]
            out[first] = np.where(k < 2.0 / np.pi, _twin(0.5 * np.pi * k, -1.0, *terms), out[first])
        return out

    lo = np.where((al > 0.0) | (base == 0.0), 0.0, -1.0)
    edges[open_] = base + bisect_batch(residual, lo, lo + 1.0)
    return edges


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
    """Gap ``ns[i]`` of the straight chain at coupling ``alphas[i]``, for every ``i``."""
    alphas, ns = np.asarray(alphas, dtype=float), np.asarray(ns, dtype=int)
    out: list[GapInterval] = []
    for alpha, n, edge in zip(alphas.tolist(), ns.tolist(), _gap_edges(alphas, ns).tolist()):
        lo, hi = (float(n), edge) if alpha > 0.0 else (edge, float(n))
        out.append(GapInterval(n, lo, hi))
    return out


def _negative_edges(alpha):
    """Threshold-band edges on the decay axis: ``(x1, x_minus1)``.

    ``x1``, the root of ``kappa*tanh(pi*kappa/2) = -alpha/4``, is where
    ``discriminant_negative = 1`` (the bottom of the spectrum is ``-x1**2``);
    ``x_minus1``, where it is ``-1``, is the root of ``_twin`` at
    ``h = pi*kappa/2`` and exists only below ``ZERO_ENERGY_ALPHA_MIN`` (NaN
    elsewhere).  Both lie below ``|alpha|/2 + 1``.  Takes a number or an
    array of attractive couplings, all bisected together.
    """
    alpha = np.asarray(alpha, dtype=float)
    flat = alpha.reshape(-1)
    deep = flat < ZERO_ENERGY_ALPHA_MIN
    terms = _twin_terms(flat[deep])

    def residual(x):
        x1, h = x[:flat.size], 0.5 * np.pi * x[flat.size:]
        return np.concatenate([x1 * np.tanh(0.5 * np.pi * x1) + 0.25 * flat, _twin(h, 1.0, *terms)])

    hi = 0.5 * np.abs(np.concatenate([flat, flat[deep]])) + 1.0
    roots = bisect_batch(residual, np.zeros(hi.shape), hi)
    x_m1 = np.full(flat.shape, math.nan)
    x_m1[deep] = roots[flat.size:]
    return roots[:flat.size].reshape(alpha.shape)[()], x_m1.reshape(alpha.shape)[()]


def compute_bands(alpha: float, e_max: float) -> BandSpectrum:
    """All spectral bands with ``e_lo < e_max``, plus flat eigenvalues.

    The bands are the complement of the gaps, with the edges the gap
    solvers use: ``[k*_n, n+1]`` for a repulsive coupling; for an
    attractive one ``[-x1, k*_1]`` (``[-x1, -x_m1]`` below the borderline)
    and then ``[n, k*_(n+1)]``.  So the edges do not depend on ``e_max``.
    Bands are reported with their genuine edges, so the last band may
    reach beyond ``e_max``; two bands whose gap is too narrow to separate
    in double precision are one band.  For ``alpha = 0`` the essential
    spectrum is the half-line ``[0, inf)``, reported as a single band cut
    at ``e_max`` with an open upper flag.
    """
    if not e_max > 1.0:
        raise ValueError("e_max must exceed 1")
    flats = tuple(
        float(n * n) for n in range(1, int(math.floor(math.sqrt(e_max))) + 1)
    )
    if alpha == 0.0:
        band = Band(0.0, e_max, 0.0, math.sqrt(e_max), True, False)
        return BandSpectrum(alpha, e_max, (band,), flats)

    # Every cell below k_max holds one gap edge.
    k_max = math.ceil(math.sqrt(e_max)) + 1
    ns = range(k_max) if alpha > 0.0 else range(1, k_max + 1)
    edges = _gap_edges([alpha] * k_max, ns).tolist()
    if alpha > 0.0:
        pieces = [(edge, n + 1.0) for n, edge in zip(ns, edges)]
    else:
        x1, x_m1 = _negative_edges(alpha)
        top = edges[0] if math.isnan(x_m1) else -float(x_m1)
        pieces = [(-float(x1), top)] + [(n - 1.0, edge) for n, edge in zip(ns[1:], edges[1:])]
    merged = pieces[:1]
    for a, b in pieces[1:]:  # a gap that rounds shut joins its two bands
        merged[-1:] = [(merged[-1][0], b)] if merged[-1][1] == a else [merged[-1], (a, b)]

    def to_energy(s: float) -> float:
        return math.copysign(s * s, s) if s != 0.0 else 0.0

    bands = tuple(
        Band(to_energy(a), to_energy(b), a, b)
        for a, b in merged
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
