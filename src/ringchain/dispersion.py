"""Dispersion relations for a straight chain of delta-coupled unit rings.

The chain is periodic with one ring (circumference ``2*pi``) per cell and a
delta coupling of strength ``alpha`` at each touching point; units are
chosen so the Hamiltonian is minus the second derivative.  At energy
``E = k**2`` the period map has half-trace

    ``discriminant(k, alpha) = cos(pi*k) + (alpha/(4*k)) * sin(pi*k)``,

and an energy belongs to the essential spectrum exactly when the half-trace
lies in ``[-1, 1]``.  Negative energies ``E = -kappa**2`` use the hyperbolic
counterpart ``discriminant_negative``.  Inside spectral gaps the boundary
condition of the bent chain reduces to matching ``cos(k*theta)`` (even
sector) or ``-cos(k*theta)`` (odd sector) against ``gap_function`` /
``gap_function_negative``, which are built from the decaying Floquet
solution.

Each formula is written once, as a numpy kernel: a number is the 0-d case
of an array, and the coupling broadcasts with the wavenumbers.  The public
functions check their domain and raise ``ValueError``/``DomainError``; the
solvers call the unchecked kernel ``_gap_function``, which serves both
energy signs and whose square root is clamped onto the band edge.
Positive energies give the bits of the ``math``/``cmath`` formulas;
``np.cosh``/``np.sinh`` may differ from ``math`` in the last ulp.
"""
from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from ._core import ContinuationError, InsufficientDataError

__all__ = [
    "SMALL_ARG",
    "ZERO_ENERGY_ALPHA_MIN",
    "DomainError",
    "DegenerateError",
    "OverflowNormError",
    "ContinuationError",
    "InsufficientDataError",
    "discriminant",
    "discriminant_negative",
    "discriminant_zero_limit",
    "floquet_phases",
    "gap_function",
    "gap_function_negative",
    "gap_function_negative_curvature",
    "is_near_integer",
]

# Real wavenumbers closer than this to an integer are treated as the
# flat-band point itself and routed to the degenerate handling.
INTEGER_WINDOW = 1e-9
# Below this |k| the trigonometric ratios switch to their Taylor series so
# the zero-energy limit emerges continuously.
SMALL_ARG = 1e-4
# Zero energy belongs to the straight-chain spectrum exactly for couplings
# in [ZERO_ENERGY_ALPHA_MIN, 0].
ZERO_ENERGY_ALPHA_MIN = -8.0 / math.pi


# CPython's complex division and ``cmath.sqrt``, applied element by element
# (numpy's square root rounds differently once a part is subnormal).
_complex_quotient = np.frompyfunc(operator.truediv, 2, 1)
_complex_root = np.frompyfunc(cmath.sqrt, 1, 1)


class DomainError(ValueError):
    """Evaluation requested outside a function's natural domain."""


class DegenerateError(RuntimeError):
    """Period map is defective (band edge); no eigenbasis exists."""


class OverflowNormError(OverflowError):
    """A coefficient recursion left the representable range."""


def is_near_integer(k):
    """True where a real wavenumber is within ``INTEGER_WINDOW`` of an integer."""
    return (np.abs(k - np.rint(k)) < INTEGER_WINDOW)[()]


def _complex_divide(a, b):
    """``a / b`` for complex operands, rounded as CPython and ``cmath`` round it.

    numpy divides complex numbers through a reciprocal, which rounds
    differently from CPython's Smith division; complex wavenumbers keep
    the bits of the scalar formulas.
    """
    return np.asarray(_complex_quotient(a, b), dtype=complex)[()]


def _complex_multiply(a, b):
    """``a * b`` for complex operands, rounded as CPython rounds it (numpy's may fuse, FMA)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out[()]


def _sin_ratio(x, s, sign=-1.0):
    """``s/x`` for ``s = sin(pi*x)`` (``sign = -1``) or ``s = sinh(pi*x)`` (``sign = +1``).

    Below ``SMALL_ARG`` the ratio is the Taylor series in
    ``x2 = sign*(pi*x)**2``; the two series differ only in that sign.
    """
    divide = _complex_divide if s.dtype.kind == "c" else operator.truediv
    small = abs(x) < SMALL_ARG
    if not np.count_nonzero(small):
        return divide(s, x)
    x2 = sign * (np.pi * x) * (np.pi * x)
    series = np.pi * (1.0 + divide(x2, 6.0) * (1.0 + divide(x2, 20.0) * (1.0 + divide(x2, 42.0))))
    return np.where(small, series, divide(s, np.where(small, 1.0, x)))[()]


def discriminant(k, alpha):
    """Half-trace of the one-cell period map at energy ``k**2``.

    Equals ``cos(pi*k) + (alpha/(4k)) sin(pi*k)``; its continuous limit at
    ``k = 0`` is ``1 + alpha*pi/4``.  Accepts complex ``k`` (in particular
    ``k = i*kappa`` reproduces ``discriminant_negative(kappa, alpha)``).
    Takes a number or an array; ``alpha`` broadcasts with ``k``.
    """
    k = np.asarray(k)
    if k.dtype.kind == "c" and not k.imag.any():
        k = k.real
    k = k[()]  # a number computes on numpy scalars, much faster than on a 0-d array
    pk = np.pi * k
    return np.cos(pk) + 0.25 * alpha * _sin_ratio(k, np.sin(pk))


def discriminant_negative(kappa, alpha):
    """Half-trace of the period map at energy ``-kappa**2`` (``kappa > 0``).

    Equals ``cosh(pi*kappa) + (alpha/(4 kappa)) sinh(pi*kappa)``.  Takes a
    number or an array.
    """
    kappa = np.asarray(kappa, dtype=float)
    if (kappa <= 0.0).any():
        raise ValueError("kappa must be positive")
    kappa = kappa[()]
    pk = np.pi * kappa
    return np.cosh(pk) + 0.25 * alpha * _sin_ratio(kappa, np.sinh(pk), 1.0)


def discriminant_zero_limit(alpha: float) -> float:
    """Common ``k -> 0`` limit of both discriminants: ``1 + alpha*pi/4``."""
    return 1.0 + 0.25 * math.pi * alpha


def floquet_phases(k, alpha):
    """Both Floquet multipliers at energy ``k**2``.

    Roots of ``z**2 - 2*d*z + 1 = 0`` with ``d`` the half-trace; they
    multiply to 1.  The first returned phase has the larger modulus.  Real
    ``k`` within ``INTEGER_WINDOW`` of an integer is rejected: there the
    period map is defective and the flat-band value ``k**2`` must be
    handled as an eigenvalue, not through the phases.  Takes a number or an
    array; ``alpha`` broadcasts with ``k``.
    """
    return _floquet(k, alpha)[:2]


def _floquet(k, alpha):
    """``floquet_phases``, then ``d**2 - 1``; each value has the bits of the complex scalar formula."""
    k = np.asarray(k, dtype=complex)
    real = k.imag == 0.0
    if np.any(real & is_near_integer(k.real)):
        raise ValueError("integer wavenumber: flat-band point, phases undefined")
    d = discriminant(k, alpha)
    d = np.where(real, d.real, d)  # +0 imaginary part at a real k, as for a number
    disc = _complex_multiply(d, d) - 1.0
    r = np.asarray(_complex_root(disc), dtype=complex)
    z1, z2 = d + r, d - r
    swap = np.hypot(z1.real, z1.imag) < np.hypot(z2.real, z2.imag)
    return np.where(swap, z2, z1)[()], np.where(swap, z1, z2)[()], disc


def _decaying_denominator(t, d):
    """``t + sign(d)*sqrt(d**2 - 1)``, clamped onto the band edge where ``|d| < 1``."""
    root = np.sqrt(np.maximum(d * d - 1.0, 0.0))
    return t + np.where(d >= 0.0, root, -root)


def _gap_function(x, alpha, sign=-1.0):
    """``gap_function`` (``sign = -1``) or ``gap_function_negative`` (``sign = +1``)
    without their checks, for points in a gap off the threshold band."""
    px = np.pi * x
    s, c = (np.sinh(px), np.cosh(px)) if sign > 0.0 else (np.sin(px), np.cos(px))
    t = 0.25 * alpha * _sin_ratio(x, s, sign)
    return -c - sign * (s * s / _decaying_denominator(t, c + t))


def gap_function(k, alpha):
    """Gap boundary function at positive energy ``k**2``.

    Defined on the closed spectral gaps (``|half-trace| >= 1``) of the
    straight chain, away from integer ``k``:

        ``-cos(pi*k) + sin(pi*k)**2 / (T + s*sqrt(d**2 - 1))``

    with ``T = (alpha/4k) sin(pi*k)``, ``d`` the half-trace and ``s`` its
    sign; this choice picks the Floquet solution that decays along the
    chain.  Even-sector gap eigenvalues solve ``cos(k*theta) = gap_function``
    and odd-sector ones ``-cos(k*theta) = gap_function``.  Takes a number
    or an array.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("k must be positive")
    if np.any(is_near_integer(k)):
        raise ValueError("integer wavenumber: handle the flat band separately")
    d = discriminant(k, alpha)
    if np.any(d * d - 1.0 < 0.0):
        raise DomainError(f"k={k} lies inside a spectral band")
    return _gap_function(k, alpha)[()]


def gap_function_negative(kappa, alpha):
    """Gap boundary function at negative energy ``-kappa**2``.

    Defined where ``|discriminant_negative| >= 1``:

        ``-cosh(pi*kappa) - sinh(pi*kappa)**2 / (T ± sqrt(d**2 - 1))``

    with the ``+`` branch for ``d > 1`` and the ``-`` branch for
    ``d < -1`` (again the decaying-solution choice).  Even-sector negative
    eigenvalues solve ``cosh(kappa*theta) = gap_function_negative`` and
    odd-sector ones ``-cosh(kappa*theta) = gap_function_negative``.  Takes
    a number or an array.
    """
    d = discriminant_negative(kappa, alpha)
    if np.any(d * d - 1.0 < 0.0):
        raise DomainError(f"kappa={kappa} lies inside the threshold band")
    return _gap_function(np.asarray(kappa, dtype=float), alpha, 1.0)[()]


def gap_function_negative_curvature(alpha):
    """Small-``kappa`` curvature ``C`` of the negative gap function.

    For couplings below ``ZERO_ENERGY_ALPHA_MIN`` the gap function on the
    branch below ``-1`` behaves as ``-1 - C*kappa**2 + o(kappa**2)`` with

        ``C = pi**2 * (1/2 + 1/D)``,
        ``D = alpha*pi/4 - sqrt((alpha*pi/4)**2 + alpha*pi/2)``,

    which lies in ``(0, pi**2/2)`` and vanishes as ``alpha`` approaches
    ``ZERO_ENERGY_ALPHA_MIN``.  The odd-sector negative eigenvalue exists
    exactly for bend angles below ``sqrt(2*C)``.  Takes a number or an
    array.
    """
    a = 0.25 * np.pi * np.asarray(alpha, dtype=float)
    rad = a * a + 2.0 * a
    if np.any(rad < 0.0):
        raise ValueError("curvature defined only for alpha <= -8/pi")
    d0 = a - np.sqrt(rad)
    return (np.pi * np.pi * (0.5 + 1.0 / d0))[()]
