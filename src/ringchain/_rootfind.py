"""Root-finding helpers shared by the spectral solvers.

Everything here is deliberately simple.  There is one scan-bracket-bisect
path: rows of a sampled function, each on its own grid, are scanned in
blocks of at most ``SCAN_SAMPLES`` samples, as many rows as fit
(``_row_brackets``), the sign-change rule finds every row's
brackets (``bracket_rows``), and all brackets are bisected together in
numpy to floating-point exhaustion (``bisect_batch``, which returns a
degenerate bracket's exact zero as it stands; ``_first_roots`` keeps the
first bracket of each row).  The scalar ``bisect`` has the same rules and
gives the same roots; it serves only as an independent reference.  The
resonance residual's complex Newton iteration is scalar ``cmath`` code
and lives with its one caller, ``resonance``, which runs without numpy.
The solvers in the public modules own all model knowledge; this module
only sees callables.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "bisect",
    "bisect_batch",
    "bracket_rows",
]

# Samples per scan block: a block holds as many rows (angles, queries or
# scan cells) as fit, at least one, so short rows fill it too.  Bounds the
# memory of the (rows x points) sample blocks: each block array takes 64 KB,
# 8 rows of 1,024 points; 16 such rows raised the peak RSS of ``verify``
# and of an attractive sweep by about 0.9 MB.
SCAN_SAMPLES = 8 * 1024


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


def bisect_batch(
    fn: Callable[[np.ndarray], np.ndarray],
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """``bisect`` on every bracket ``[a[i], b[i]]`` at once.

    ``fn`` maps an array holding one point per bracket to the values
    there.  Each bracket follows ``bisect``'s rules: a reversed bracket is
    swapped, an endpoint whose value is an exact zero is returned, a
    midpoint whose value is an exact zero is returned, and the loop stops
    once the midpoint is no longer strictly inside.  With the same kernel
    every root equals the one ``bisect`` returns, bit for bit.  Raises
    ``ValueError`` when a bracket does not change sign.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    swap = ~(a < b)
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    fa, fb = fn(a), fn(b)
    za, zb = fa == 0.0, fb == 0.0
    flat = np.flatnonzero(~(za | zb) & ((fa > 0.0) == (fb > 0.0)))
    if flat.size:
        i = flat[0]
        raise ValueError(f"no sign change on [{a[i]!r}, {b[i]!r}]")
    # A finished bracket collapses onto its root (a == b), after which its
    # midpoint is never strictly inside again.
    a, b = np.where(zb & ~za, b, a), np.where(za, a, b)
    for _ in range(200):
        mid = 0.5 * (a + b)
        inside = (a < mid) & (mid < b)
        if not inside.any():
            break
        fm = fn(mid)
        up = (fm > 0.0) == (fa > 0.0)
        stop = ~inside | (fm == 0.0)
        a = np.where(up | stop, mid, a)
        b = np.where(up & ~stop, b, mid)
        fa = np.where(up, fm, fa)
    return 0.5 * (a + b)


def bracket_rows(
    xs: Sequence[float] | np.ndarray,
    ys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign-change brackets of every row of ``ys``, each row sampled on ``xs``.

    ``xs`` is one grid shared by every row, or one grid per row (the
    shape of ``ys``).  NaN samples break the scan locally instead of
    poisoning it; an exact zero at a sample point is reported as a
    degenerate bracket (interior zeros only when the next sample is
    finite).  Returns the arrays ``(row, lo, hi)``, ordered by row and
    ascending in sample order within a row; ``lo`` and ``hi`` are values
    of ``xs``.
    """
    ys = np.asarray(ys, dtype=float)
    xs = np.broadcast_to(np.asarray(xs, dtype=float), ys.shape)
    if ys.shape[1] == 0:
        return np.empty(0, dtype=int), np.empty(0), np.empty(0)
    good = np.isfinite(ys)
    zero = ys == 0.0
    pos = ys > 0.0
    hit = zero & good
    hit[:, :-1] |= pos[:, :-1] != pos[:, 1:]
    hit[:, :-1] &= good[:, :-1] & good[:, 1:]
    # One flat scan of the hits: np.nonzero on a 2-D mask costs several
    # times more.
    rows, cols = np.divmod(np.flatnonzero(hit), ys.shape[1])
    lo = xs[rows, cols]
    hi = np.where(zero[rows, cols], lo, xs[rows, np.minimum(cols + 1, ys.shape[1] - 1)])
    return rows, lo, hi


def _row_brackets(lo, hi, kernel, *params, points: int):
    """Brackets of ``kernel(x, *params)`` on every row's own grid.

    Row ``i`` samples ``kernel`` with the ``i``-th value of every parameter
    on ``points`` points spanning ``[lo[i], hi[i]]`` (``np.linspace``), in
    blocks of ``SCAN_SAMPLES // points`` rows (at least one), in row order;
    a row without ``lo < hi`` has no bracket.  The arguments broadcast to
    one value per row.  Returns ``(row, lo, hi)`` arrays ordered by row
    and ascending within a row.
    """
    lo, hi, *params = np.broadcast_arrays(lo, hi, *params)
    live = np.flatnonzero(lo < hi)
    block = max(1, SCAN_SAMPLES // points)
    parts = [(np.empty(0, dtype=int), np.empty(0), np.empty(0))]
    steps = np.arange(float(points))
    for start in range(0, live.size, block):
        rows = live[start:start + block]
        # np.linspace(lo[rows], hi[rows], points, axis=-1) in its own
        # arithmetic (i * step + lo, the last point hi), without the call's
        # overhead, which cost as much as building the grid.
        xs = np.multiply.outer((hi[rows] - lo[rows]) / max(points - 1, 1), steps)
        xs += lo[rows, None]
        if points > 1:
            xs[:, -1] = hi[rows]
        found, a, b = bracket_rows(xs, kernel(xs, *(p[rows, None] for p in params)))
        parts.append((rows[found], a, b))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _first_roots(lo, hi, kernel, *params, points: int) -> np.ndarray:
    """Root in the first bracket of ``kernel(x, *params)`` on every row; NaN where none.

    The rows are scanned as in ``_row_brackets``; the first brackets of all
    rows are bisected together.
    """
    lo, hi, *params = np.broadcast_arrays(lo, hi, *params)
    rows, a, b = _row_brackets(lo, hi, kernel, *params, points=points)
    rows, first = np.unique(rows, return_index=True)
    sub = [p[rows] for p in params]
    roots = np.full(lo.shape, np.nan)
    roots[rows] = bisect_batch(lambda x: kernel(x, *sub), a[first], b[first])
    return roots
