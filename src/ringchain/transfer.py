"""Ring-to-ring transfer matrix of the chain and decay certificates.

On ring ``j`` an energy-``k**2`` solution is fixed by its value and slope
``(psi, psi')`` at the contact point; crossing one ring multiplies the
pair by a ``2x2`` matrix of unit determinant, entire in ``k``, whose
trace is twice the period-map half-trace.  Inside a spectral gap the
matrix has one expanding and one contracting eigenvalue; an eigenfunction
candidate is genuine exactly when its pair on the outer rings decays at
the contracting rate, which is what ``coefficient_sequence`` lets tests
certify.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import (
    DegenerateError,
    OverflowNormError,
    _complex_multiply,
    _floquet,
    _sin_ratio,
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
        psi, dpsi = pair
        return (self.m11 * psi + self.m12 * dpsi, self.m21 * psi + self.m22 * dpsi)


@dataclass(frozen=True)
class TransferEigen:
    """Eigenvalues of a transfer matrix, ordered by modulus.

    ``expanding`` has the larger modulus; the two eigenvalues multiply to
    one, so inside a gap ``|contracting| < 1`` is the decay rate per ring
    of the decaying solutions.
    """

    expanding: complex
    contracting: complex


@dataclass(frozen=True)
class CoefficientPair:
    """Value and slope at the contact point on one ring of the chain."""

    value: complex
    slope: complex
    ring_index: int

    @property
    def norm(self) -> float:
        return math.hypot(abs(self.value), abs(self.slope))


def transfer_matrix(k, alpha) -> TransferMatrix:
    """Transfer matrix across one ring at wavenumber ``k``.

    With ``c = cos(pi k)``, ``s = sin(pi k)`` and ``r = s/k`` (its Taylor
    series below ``SMALL_ARG``) the matrix is
    ``[[c, r], [(alpha/2) c - k s, c + (alpha/2) r]]``; its determinant is
    ``c**2 + s**2 = 1`` and its trace twice the half-trace.  Purely
    imaginary ``k = i*kappa`` gives a real matrix, matching the
    negative-energy branch.  Takes a number or an array (``alpha``
    broadcasts with ``k``); each entry has the bits of the ``cmath``
    formula.  Raises ``OverflowNormError`` where the entry products
    overflow, so that the determinant would be NaN: far off the real axis.
    """
    kc = np.asarray(k, dtype=complex)
    if np.any((kc.imag == 0.0) & is_near_integer(kc.real)):
        raise ValueError("integer wavenumber: flat-band point")
    mul = _complex_multiply
    pk = np.pi * kc
    c, s = np.cos(pk), np.sin(pk)
    r, h = _sin_ratio(kc, s), 0.5 * alpha
    m = TransferMatrix(c, r, mul(h, c) - mul(kc, s), c + mul(h, r), kc[()], alpha)
    if not np.all(np.isfinite(m.det)):
        raise OverflowNormError("transfer matrix entry products overflow")
    return m


def transfer_eigen(k, alpha) -> TransferEigen:
    """Eigenvalues of the one-ring transfer matrix, ``floquet_phases(k, alpha)``.

    Raises ``DegenerateError`` at band edges (half-trace ``±1`` within
    ``1e-12`` of the branch point), where the matrix is defective.  Takes
    a number or an array, which is rejected if any of its points is.
    """
    m = transfer_matrix(k, alpha)
    big, small, disc = _floquet(m.k, alpha)
    if np.any(np.hypot(disc.real, disc.imag) < 1e-12):
        raise DegenerateError("transfer matrix defective at a band edge")
    return TransferEigen(big, small)


def boundary_vector_even(
    k: complex, alpha: float, theta: float
) -> tuple[complex, complex]:
    """Value and slope on the first ring next to the bent one (even sector).

    With ``Q = (cos(pi k) + cos(k theta)) / sin(pi k)`` the pair is
    ``(2Q, alpha Q - 2k)``.  Requires ``|sin(pi k)| >= 1e-12``; on the
    real axis both components are real.
    """
    kc = complex(k)
    sp = cmath.sin(math.pi * kc)
    if abs(sp) < 1e-12:
        raise ValueError("boundary vector undefined where sin(pi k) vanishes")
    q = (cmath.cos(math.pi * kc) + cmath.cos(kc * theta)) / sp
    return (2.0 * q, alpha * q - 2.0 * kc)


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
