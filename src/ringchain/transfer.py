"""Ring-to-ring transfer matrix of the chain and decay certificates.

On ring ``j`` an energy-``k**2`` solution restricted to the upper/lower
arcs is fixed by a coefficient pair ``(c_plus, c_minus)``; crossing one
contact point multiplies the pair by a fixed ``2x2`` matrix of unit
determinant whose trace is twice the period-map half-trace.  Inside a
spectral gap the matrix has one expanding and one contracting eigenvalue;
an eigenfunction candidate is genuine exactly when its coefficient pair
on the outer rings follows the contracting direction, which is what
``coefficient_sequence`` lets tests certify.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import (
    DegenerateError,
    OverflowNormError,
    _complex_divide,
    _complex_multiply,
    _floquet,
    is_near_integer,
)

__all__ = [
    "TransferMatrix",
    "TransferEigen",
    "CoefficientPair",
    "transfer_matrix",
    "transfer_eigen",
    "boundary_vector_even",
    "coefficient_sequence",
    "measured_decay_rate",
]


@dataclass(frozen=True)
class TransferMatrix:
    """One-ring transfer matrix at (possibly complex) wavenumber ``k``, or at each point of an array."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex
    k: complex
    alpha: float

    @property
    def det(self) -> complex:
        return _complex_multiply(self.m11, self.m22) - _complex_multiply(self.m12, self.m21)

    @property
    def trace(self) -> complex:
        return self.m11 + self.m22

    def apply(self, pair: tuple[complex, complex]) -> tuple[complex, complex]:
        cp, cm = pair
        return (self.m11 * cp + self.m12 * cm, self.m21 * cp + self.m22 * cm)


@dataclass(frozen=True)
class TransferEigen:
    """Eigenpairs of a transfer matrix, ordered by modulus.

    ``expanding`` has the larger modulus; the two eigenvalues multiply to
    one, so inside a gap ``|contracting| < 1`` and the contracting
    direction spans the decaying solutions.
    """

    expanding: complex
    contracting: complex
    v_expanding: tuple[complex, complex]
    v_contracting: tuple[complex, complex]


@dataclass(frozen=True)
class CoefficientPair:
    """Arc coefficients on one ring of the chain."""

    c_plus: complex
    c_minus: complex
    ring_index: int

    @property
    def norm(self) -> float:
        return math.hypot(abs(self.c_plus), abs(self.c_minus))


def transfer_matrix(k, alpha) -> TransferMatrix:
    """Transfer matrix across one contact point at wavenumber ``k``.

    With ``a = alpha/(4ik)`` and ``E = exp(i pi k)`` the matrix is
    ``[[(1+a)E, a/E], [-aE, (1-a)/E]]``; its determinant is 1 and its
    trace twice the half-trace.  Purely imaginary ``k = i*kappa`` gives a
    real matrix, matching the negative-energy branch.  Takes a number or
    an array (``alpha`` broadcasts with ``k``); each entry has the bits of
    the ``cmath`` formula.  Raises ``OverflowNormError`` where the entry
    products overflow, so that the determinant would be NaN: next to
    ``k = 0`` (``|a|`` above about 1e154) or far off the real axis.
    """
    kc = np.asarray(k, dtype=complex)
    if np.any((kc.imag == 0.0) & is_near_integer(kc.real)):
        raise ValueError("integer wavenumber: flat-band point")
    mul = _complex_multiply
    a = _complex_divide(alpha, mul(4j, kc))
    e, einv = np.exp(mul(1j * math.pi, kc)), np.exp(mul(-1j * math.pi, kc))
    m = TransferMatrix(
        mul(1.0 + a, e), mul(a, einv), mul(-a, e), mul(1.0 - a, einv), kc[()], alpha
    )
    if not np.all(np.isfinite(m.det)):
        raise OverflowNormError("transfer matrix entry products overflow")
    return m


def transfer_eigen(k, alpha) -> TransferEigen:
    """Eigenvalues and eigenvectors of the one-ring transfer matrix.

    The eigenvalues are ``floquet_phases(k, alpha)``.  Raises
    ``DegenerateError`` at band edges (half-trace ``±1`` within ``1e-12``
    of the branch point), where the matrix is defective.  Takes a number
    or an array, which is rejected if any of its points is.
    """
    m = transfer_matrix(k, alpha)
    big, small, disc = _floquet(m.k, alpha)
    if np.any(np.hypot(disc.real, disc.imag) < 1e-12):
        raise DegenerateError("transfer matrix defective at a band edge")

    def norm(u, v):
        return np.hypot(np.hypot(u.real, u.imag), np.hypot(v.real, v.imag))

    def eigvec(lam):
        u, v = m.m12, lam - m.m11
        swap = norm(u, v) < 1e-12 * np.hypot(lam.real, lam.imag)
        u, v = np.where(swap, lam - m.m22, u), np.where(swap, m.m21, v)
        n = norm(u, v)
        return (_complex_divide(u, n), _complex_divide(v, n))

    return TransferEigen(big, small, eigvec(big), eigvec(small))


def boundary_vector_even(
    k: complex, alpha: float, theta: float
) -> tuple[complex, complex]:
    """Coefficient pair on the first ring next to the bent one (even sector).

    With ``Q = (cos(pi k) + cos(k theta)) / sin(pi k)`` the pair is
    ``(Q + i w, Q - i w)``, ``w = 1 - alpha Q/(2k)``.  Requires
    ``|sin(pi k)| >= 1e-12``; on the real axis the two components are
    complex conjugates.
    """
    kc = complex(k)
    sp = cmath.sin(math.pi * kc)
    if abs(sp) < 1e-12:
        raise ValueError("boundary vector undefined where sin(pi k) vanishes")
    q = (cmath.cos(math.pi * kc) + cmath.cos(kc * theta)) / sp
    w = 1.0 - alpha * q / (2.0 * kc)
    return (q + 1j * w, q - 1j * w)


def coefficient_sequence(
    seed: tuple[complex, complex],
    k: complex,
    alpha: float,
    count: int,
) -> list[CoefficientPair]:
    """Iterate the transfer matrix from a seed pair on ring 1.

    Returns ``count`` pairs with ring indices ``1..count``.  Raises
    ``OverflowNormError`` once a pair norm exceeds ``1e300`` (expanding
    seeds leave the representable range long before ``count`` is large).
    """
    if count < 1:
        raise ValueError("count must be positive")
    m = transfer_matrix(k, alpha)
    pairs = [CoefficientPair(seed[0], seed[1], 1)]
    cur = (complex(seed[0]), complex(seed[1]))
    for j in range(2, count + 1):
        cur = m.apply(cur)
        pair = CoefficientPair(cur[0], cur[1], j)
        if pair.norm > 1e300 or not math.isfinite(pair.norm):
            raise OverflowNormError(f"coefficient norm overflow at ring {j}")
        pairs.append(pair)
    return pairs


def measured_decay_rate(
    pairs: list[CoefficientPair], lo: int = 4, hi: int = 12
) -> float:
    """Geometric mean of consecutive norm ratios over rings ``lo..hi``.

    The window sits deep enough that the contracting behaviour has set in
    but early enough that round-off contamination of the expanding mode
    has not yet surfaced.
    """
    if not 0 <= lo < hi < len(pairs):
        raise ValueError(f"decay window needs 0 <= lo < hi < {len(pairs)}, got {lo}, {hi}")
    logs = [
        math.log(pairs[j + 1].norm / pairs[j].norm) for j in range(lo, hi)
    ]
    return math.exp(sum(logs) / len(logs))
