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

All scalar routines accept plain floats (and, where meaningful, complex
wavenumbers); the vectorised variants used by the band/gap scanners live in
the consuming modules.
"""
from __future__ import annotations

import cmath
import math

__all__ = [
    "ROOT_TOL",
    "RESIDUAL_TOL",
    "INTEGER_WINDOW",
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

# Absolute tolerance to which bracketed roots are reported.
ROOT_TOL = 1e-12
# Acceptable residual of a spectral condition at a reported root.
RESIDUAL_TOL = 1e-10
# Real wavenumbers closer than this to an integer are treated as the
# flat-band point itself and routed to the degenerate handling.
INTEGER_WINDOW = 1e-9
# Below this |k| the trigonometric ratios switch to their Taylor series so
# the zero-energy limit emerges continuously.
SMALL_ARG = 1e-4
# Zero energy belongs to the straight-chain spectrum exactly for couplings
# in [ZERO_ENERGY_ALPHA_MIN, 0].
ZERO_ENERGY_ALPHA_MIN = -8.0 / math.pi


class DomainError(ValueError):
    """Evaluation requested outside a function's natural domain."""


class DegenerateError(RuntimeError):
    """Period map is defective (band edge); no eigenbasis exists."""


class OverflowNormError(OverflowError):
    """A coefficient recursion left the representable range."""


class ContinuationError(RuntimeError):
    """Curve continuation lost its footing (jump or step underflow)."""


class InsufficientDataError(RuntimeError):
    """Too few valid samples to fit the requested model."""


def is_near_integer(k: float, window: float = INTEGER_WINDOW) -> bool:
    """True when a real wavenumber is within ``window`` of an integer."""
    return abs(k - round(k)) < window


def _sin_ratio(k: float | complex) -> float | complex:
    """``sin(pi*k)/k`` with a series branch below ``SMALL_ARG``."""
    if abs(k) < SMALL_ARG:
        x2 = (math.pi * k) * (math.pi * k)
        return math.pi * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)))
    if isinstance(k, complex):
        return cmath.sin(math.pi * k) / k
    return math.sin(math.pi * k) / k


def _sinh_ratio(kappa: float) -> float:
    """``sinh(pi*kappa)/kappa`` with a series branch below ``SMALL_ARG``."""
    if abs(kappa) < SMALL_ARG:
        x2 = (math.pi * kappa) * (math.pi * kappa)
        return math.pi * (1.0 + x2 / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0)))
    return math.sinh(math.pi * kappa) / kappa


def discriminant(k: float | complex, alpha: float) -> float | complex:
    """Half-trace of the one-cell period map at energy ``k**2``.

    Equals ``cos(pi*k) + (alpha/(4k)) sin(pi*k)``; its continuous limit at
    ``k = 0`` is ``1 + alpha*pi/4``.  Accepts complex ``k`` (in particular
    ``k = i*kappa`` reproduces ``discriminant_negative(kappa, alpha)``).
    """
    if isinstance(k, complex):
        if k.imag == 0.0:
            k = k.real
        else:
            return cmath.cos(math.pi * k) + 0.25 * alpha * _sin_ratio(k)
    return math.cos(math.pi * k) + 0.25 * alpha * _sin_ratio(k)


def discriminant_negative(kappa: float, alpha: float) -> float:
    """Half-trace of the period map at energy ``-kappa**2`` (``kappa > 0``).

    Equals ``cosh(pi*kappa) + (alpha/(4 kappa)) sinh(pi*kappa)``.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return math.cosh(math.pi * kappa) + 0.25 * alpha * _sinh_ratio(kappa)


def discriminant_zero_limit(alpha: float) -> float:
    """Common ``k -> 0`` limit of both discriminants: ``1 + alpha*pi/4``."""
    return 1.0 + 0.25 * math.pi * alpha


def floquet_phases(k: float | complex, alpha: float) -> tuple[complex, complex]:
    """Both Floquet multipliers at energy ``k**2``.

    Roots of ``z**2 - 2*d*z + 1 = 0`` with ``d`` the half-trace; they
    multiply to 1.  The first returned phase has the larger modulus.  Real
    ``k`` within ``INTEGER_WINDOW`` of an integer is rejected: there the
    period map is defective and the flat-band value ``k**2`` must be
    handled as an eigenvalue, not through the phases.
    """
    kc = complex(k)
    if kc.imag == 0.0 and is_near_integer(kc.real):
        raise ValueError("integer wavenumber: flat-band point, phases undefined")
    d = complex(discriminant(kc, alpha))
    r = cmath.sqrt(d * d - 1.0)
    z1, z2 = d + r, d - r
    if abs(z1) < abs(z2):
        z1, z2 = z2, z1
    return z1, z2


def _gap_sign(d: float) -> float:
    return 1.0 if d >= 0.0 else -1.0


def gap_function(k: float, alpha: float) -> float:
    """Gap boundary function at positive energy ``k**2``.

    Defined on the closed spectral gaps (``|half-trace| >= 1``) of the
    straight chain, away from integer ``k``:

        ``-cos(pi*k) + sin(pi*k)**2 / (T + s*sqrt(d**2 - 1))``

    with ``T = (alpha/4k) sin(pi*k)``, ``d`` the half-trace and ``s`` its
    sign; this choice picks the Floquet solution that decays along the
    chain.  Even-sector gap eigenvalues solve ``cos(k*theta) = gap_function``
    and odd-sector ones ``-cos(k*theta) = gap_function``.
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    if is_near_integer(k):
        raise ValueError("integer wavenumber: handle the flat band separately")
    d = discriminant(k, alpha)
    disc = d * d - 1.0
    if disc < 0.0:
        raise DomainError(f"k={k!r} lies inside a spectral band")
    t = 0.25 * alpha * _sin_ratio(k)
    denom = t + _gap_sign(d) * math.sqrt(disc)
    s = math.sin(math.pi * k)
    return -math.cos(math.pi * k) + s * s / denom


def gap_function_negative(kappa: float, alpha: float) -> float:
    """Gap boundary function at negative energy ``-kappa**2``.

    Defined where ``|discriminant_negative| >= 1``:

        ``-cosh(pi*kappa) - sinh(pi*kappa)**2 / (T ± sqrt(d**2 - 1))``

    with the ``+`` branch for ``d > 1`` and the ``-`` branch for
    ``d < -1`` (again the decaying-solution choice).  Even-sector negative
    eigenvalues solve ``cosh(kappa*theta) = gap_function_negative`` and
    odd-sector ones ``-cosh(kappa*theta) = gap_function_negative``.
    """
    d = discriminant_negative(kappa, alpha)
    disc = d * d - 1.0
    if disc < 0.0:
        raise DomainError(f"kappa={kappa!r} lies inside the threshold band")
    t = 0.25 * alpha * _sinh_ratio(kappa)
    denom = t + _gap_sign(d) * math.sqrt(disc)
    s = math.sinh(math.pi * kappa)
    return -math.cosh(math.pi * kappa) - s * s / denom


def gap_function_negative_curvature(alpha: float) -> float:
    """Small-``kappa`` curvature ``C`` of the negative gap function.

    For couplings below ``ZERO_ENERGY_ALPHA_MIN`` the gap function on the
    branch below ``-1`` behaves as ``-1 - C*kappa**2 + o(kappa**2)`` with

        ``C = pi**2 * (1/2 + 1/D)``,
        ``D = alpha*pi/4 - sqrt((alpha*pi/4)**2 + alpha*pi/2)``,

    which lies in ``(0, pi**2/2)`` and vanishes as ``alpha`` approaches
    ``ZERO_ENERGY_ALPHA_MIN``.  The odd-sector negative eigenvalue exists
    exactly for bend angles below ``sqrt(2*C)``.
    """
    a = 0.25 * math.pi * alpha
    rad = a * a + 2.0 * a
    if rad < 0.0:
        raise ValueError("curvature defined only for alpha <= -8/pi")
    d0 = a - math.sqrt(rad)
    return math.pi * math.pi * (0.5 + 1.0 / d0)
