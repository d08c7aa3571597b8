"""Names shared by the numpy engine and the numpy-free resonance trace.

``resonances`` runs on scalar ``cmath`` arithmetic alone, so what it shares
with ``dispersion`` and ``gaps`` lives here, with the standard library only;
those modules re-export each name, so it stays the same object everywhere.
"""
from __future__ import annotations

import math

__all__ = ["ContinuationError", "InsufficientDataError", "singular_angles"]


class ContinuationError(RuntimeError):
    """Curve continuation lost its footing (jump or step underflow)."""


class InsufficientDataError(RuntimeError):
    """Too few valid samples to fit the requested model."""


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


def _parity_sign(parity: str) -> float:
    if parity == "+":
        return 1.0
    if parity == "-":
        return -1.0
    raise ValueError("parity must be '+' or '-'")
