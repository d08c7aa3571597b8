"""Scalar root-finding helpers shared by the spectral solvers.

Everything here is deliberately simple: bisection run to floating-point
exhaustion for guaranteed real brackets, a vectorised sign-change scanner
for bracketing, the one scan-bracket-bisect path (``find_roots``) that
every real solver takes, and a damped complex Newton iteration for the
resonance residual.  The solvers in the public modules own all model
knowledge; this module only sees callables.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "bisect",
    "brackets_from_samples",
    "find_roots",
    "newton_complex",
    "NewtonResult",
]

# Newton stops once |F| drops below this.
NEWTON_RESIDUAL_TOL = 1e-12


def bisect(
    fn: Callable[[float], float],
    a: float,
    b: float,
    *,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Bisection on a sign-changing bracket ``[a, b]``.

    The loop runs until the midpoint can no longer be distinguished from
    an endpoint, i.e. to full double precision.  Raises ``ValueError``
    when the bracket does not change sign.
    """
    if not a < b:
        a, b = b, a
        fa, fb = fb, fa
    fa = fn(a) if fa is None else fa
    fb = fn(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"no sign change on [{a!r}, {b!r}]")
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


def brackets_from_samples(
    xs: Sequence[float] | np.ndarray,
    ys: Sequence[float] | np.ndarray,
) -> list[tuple[float, float]]:
    """Return the sub-intervals of a sampled function that change sign.

    NaN samples break the scan locally instead of poisoning it; an exact
    zero at a sample point is reported as a degenerate bracket (interior
    zeros only when the next sample is finite).  Brackets come in
    ascending sample order as pairs of ``np.float64`` values of ``xs``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = np.isfinite(ys)
    y0, y1 = ys[:-1], ys[1:]
    hit = good[:-1] & good[1:] & ((y0 == 0.0) | ((y0 > 0.0) != (y1 > 0.0)))
    idx = np.flatnonzero(hit)
    lo = xs[idx]
    hi = np.where(ys[idx] == 0.0, lo, xs[idx + 1])
    out: list[tuple[float, float]] = list(zip(lo, hi))
    if len(ys) and good[-1] and ys[-1] == 0.0:
        out.append((xs[-1], xs[-1]))
    return out


def find_roots(
    fn: Callable[[float], float],
    xs: Sequence[float] | np.ndarray,
    ys: Sequence[float] | np.ndarray | None = None,
) -> Iterator[float]:
    """Roots of ``fn`` in the sign-change brackets of its samples on ``xs``.

    ``ys`` are the samples (``fn`` at every ``xs`` when omitted).  A
    degenerate bracket yields its point as it stands; every other bracket
    is bisected on ``fn``.  Roots come lazily and in ascending order for
    ascending ``xs``, so ``next(find_roots(...), None)`` bisects only the
    first bracket.
    """
    if ys is None:
        ys = [fn(x) for x in xs]
    for a, b in brackets_from_samples(xs, ys):
        yield a if a == b else bisect(fn, a, b)


@dataclass(frozen=True)
class NewtonResult:
    """Outcome of a complex Newton run."""

    root: complex
    residual: float
    iterations: int
    converged: bool


def newton_complex(
    fn: Callable[[complex], complex],
    z0: complex,
    *,
    dfn: Callable[[complex], complex] | None = None,
    max_iter: int = 40,
) -> NewtonResult:
    """Newton iteration in the complex plane.

    Falls back to a central finite difference with step
    ``1e-7 * (1 + |z|)`` when no derivative is supplied.
    """
    z = complex(z0)
    fz = fn(z)
    for it in range(1, max_iter + 1):
        if abs(fz) < NEWTON_RESIDUAL_TOL:
            return NewtonResult(z, abs(fz), it - 1, True)
        if dfn is not None:
            dz = dfn(z)
        else:
            h = 1e-7 * (1.0 + abs(z))
            dz = (fn(z + h) - fn(z - h)) / (2.0 * h)
        if dz == 0 or not cmath.isfinite(dz):
            return NewtonResult(z, abs(fz), it, False)
        step = fz / dz
        z_new = z - step
        fz_new = fn(z_new)
        # Crude damping: halve the step while it fails to reduce |F|.
        halvings = 0
        while abs(fz_new) > abs(fz) and halvings < 8:
            step *= 0.5
            z_new = z - step
            fz_new = fn(z_new)
            halvings += 1
        if z_new == z:
            return NewtonResult(z, abs(fz), it, abs(fz) < NEWTON_RESIDUAL_TOL)
        z, fz = z_new, fz_new
    return NewtonResult(z, abs(fz), max_iter, abs(fz) < NEWTON_RESIDUAL_TOL)
