"""Resonance poles of the bent chain and their bend-angle trajectories.

Clearing denominators in the gap condition of either parity sector yields
an entire residual

    ``F(k) = alpha (1 + s A B)(s A + B) - 2 k S (1 + 2 s A B + A**2)``

with ``A = cos(k theta)``, ``B = cos(pi k)``, ``S = sin(pi k)`` and
``s = +1`` (even) or ``-1`` (odd).  Its real zeros on the spectral gaps
are the discrete eigenvalues; its complex zeros in the lower half-plane
are resonance poles.  At the singular bend angles the eigenvalue curve of
a gap dives into the flat-band point ``k = n`` and splits into three
Puiseux branches ``k = n + eps``, ``eps ~ cbrt(alpha/8) (n/pi)
|theta - theta0|**(4/3)`` — one real and a conjugate pair spiralling off
at ``exp(±2 pi i/3)``.  This module seeds Newton iterations from that law,
continues the branches in the bend angle, fits the branch exponents, and
counts zeros in rectangles by the argument principle.  The trace is
scalar ``cmath`` code and runs without numpy; the functions that build
arrays (the fits, the residual grid, the zero count) import it when called.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ._core import ContinuationError, InsufficientDataError, _parity_sign, singular_angles

if TYPE_CHECKING:
    import numpy as np

    from .bands import GapInterval

__all__ = [
    "ContourZeroError",
    "SingularPoint",
    "ResonanceCurve",
    "BranchFit",
    "resonance_residual",
    "resonance_residual_grid",
    "enumerate_singular_points",
    "seed_from_singular_point",
    "on_branch",
    "refine_resonance",
    "continue_curve",
    "trace_complex_branch",
    "real_branch_offset",
    "fit_branch_exponent",
    "gentle_bend_coefficient",
    "fit_gentle_coefficient",
    "count_zeros_box",
]

# Continuation step bounds (in bend angle, radians).
MAX_STEP = 1e-2
MIN_STEP = 1e-7
# Share of the angle the tangent needs to reach the nearest integer that
# one continuation step may take.
STEP_FRACTION = 0.1
# A corrector that moves k by more than this share of its distance to
# the nearest integer has jumped branches; the three branches meeting at
# a flat-band point lie about sqrt(3) times that distance apart.
PLAUSIBLE_MOVE = 0.5
# A trajectory within this distance of an integer is snapped onto the
# singular point it is entering.
SNAP_DISTANCE = 1e-5
# A complex branch is seeded this far (in bend angle) past its singular angle.
SEED_OFFSET = 1e-2
# Angle offsets of the real-branch exponent fit: this many geometric
# samples from the low to the high offset, on each side of the angle.
FIT_DELTA_LO = 1e-3
FIT_DELTA_HI = 1e-2
FIT_SAMPLES_PER_SIDE = 13
# A Newton root must bring |F| below this.
NEWTON_RESIDUAL_TOL = 1e-12
# Newton iterations before a run counts as not converged.
NEWTON_MAX_ITER = 30
# Newton stops once its step is within this many ulp of |z|.
NEWTON_ULP_STEPS = 4


class ContourZeroError(RuntimeError):
    """A zero of the residual sits on the requested counting contour."""


def resonance_residual(
    k: complex, alpha: float, theta: float, parity: str
) -> complex:
    """Cleared resonance residual; entire in ``k`` and even under ``k -> -k``.

    Real zeros on spectral gaps coincide with the gap eigenvalues of the
    matching parity sector; zeros with negative imaginary part are the
    resonance poles.
    """
    return _residual_terms(complex(k), alpha, theta, _parity_sign(parity))[0]


def _residual_terms(
    k: complex, alpha: float, theta: float, s: float
) -> tuple[complex, complex, complex]:
    """``(F, F_k, F_theta)`` of the cleared residual at complex ``k``.

    ``s`` is the parity sign.  ``F`` depends on ``theta`` only through
    ``A = cos(k theta)``; with ``F_A`` its derivative in ``A`` and ``F_k|A``
    the one in ``k`` at fixed ``A``, ``F_k = F_k|A - theta sin(k theta) F_A``
    and ``F_theta = -k sin(k theta) F_A``.
    """
    kt, pk = k * theta, math.pi * k
    a, sin_kt = cmath.cos(kt), cmath.sin(kt)
    b, sp = cmath.cos(pk), cmath.sin(pk)
    db = -math.pi * sp
    sa = s * a
    p = 1.0 + sa * b
    r = sa + b
    t = 1.0 + 2.0 * s * a * b + a * a
    f_a = alpha * s * (b * r + p) - 4.0 * k * sp * (s * b + a)
    f_k_at_a = (
        alpha * db * (sa * r + p)
        - 2.0 * sp * t
        - 2.0 * k * (math.pi * b * t + 2.0 * s * a * sp * db)
    )
    # F is ``_cleared(a, b, 2.0 * k * sp, alpha, s)``, written out on p, r, t.
    f = alpha * p * r - 2.0 * k * sp * t
    return f, f_k_at_a - theta * sin_kt * f_a, -k * sin_kt * f_a


@dataclass(frozen=True)
class SingularPoint:
    """Flat-band point ``(theta0, n)`` where a gap loses its eigenvalue.

    ``theta0`` is the ``ell``-th angle of ``singular_angles(n, parity)``:
    ``(n+1-2*ell) * pi / n`` in the even sector, ``(n-2*ell) * pi / n`` in
    the odd one, with ``ell`` a positive integer keeping it in ``[0, pi)``.
    """

    n: int
    ell: int
    parity: str
    theta0: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.ell < 1:
            raise ValueError("n and ell must be positive integers")
        angles = singular_angles(self.n, self.parity)
        if self.ell > len(angles):
            raise ValueError(f"({self.n}, {self.ell}) gives no admissible angle")
        object.__setattr__(self, "theta0", angles[self.ell - 1])

    @property
    def k0(self) -> float:
        return float(self.n)


def enumerate_singular_points(n_max: int, parity: str) -> list[SingularPoint]:
    """All singular points with ``n <= n_max`` of one parity sector."""
    out: list[SingularPoint] = []
    for n in range(1, n_max + 1):
        for ell in range(1, len(singular_angles(n, parity)) + 1):
            out.append(SingularPoint(n, ell, parity))
    return out


def seed_from_singular_point(sp: SingularPoint, alpha: float, delta: float) -> complex:
    """Leading-order lower-branch position at bend angle ``theta0 + delta``.

    Implements ``k = n + eps`` with ``eps`` the real-branch offset
    ``cbrt(alpha/8) * (n/pi) * |delta|**(4/3)`` rotated by
    ``exp(±2 pi i / 3)`` into the lower half-plane, the resonance side;
    ``on_branch(seed, 'upper')`` is the upper seed, its exact conjugate.
    ``delta = 0`` is rejected; ``|delta| <= 0.1`` keeps the expansion
    inside its trust region.
    """
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    if abs(delta) > 0.1:
        raise ValueError("|delta| too large for the branch-point expansion")
    eps_real = (
        math.copysign(abs(alpha / 8.0) ** (1.0 / 3.0), alpha)
        * (sp.k0 / math.pi)
        * abs(delta) ** (4.0 / 3.0)
    )
    rot = cmath.exp(2j * math.pi / 3.0)
    return sp.k0 + (eps_real / rot if eps_real > 0.0 else eps_real * rot)


def on_branch(k: complex, branch: str) -> complex:
    """A lower-branch value ``k`` as it stands on ``branch``: ``F(conj k) =
    conj F(k)`` for real ``alpha`` and ``theta``, so the upper branch is the
    exact mirror of the lower, with the same ``|F|``.  A real ``k`` (a
    snapped endpoint) keeps its ``+0.0`` imaginary part."""
    return k.conjugate() if branch == "upper" and k.imag else k


@dataclass(frozen=True)
class NewtonResult:
    """Outcome of a complex Newton run; ``values`` is ``fn`` at ``root``."""

    root: complex
    residual: float
    iterations: int
    converged: bool
    values: tuple


def newton_complex(
    fn: Callable[..., tuple],
    z0: complex,
    *args,
) -> NewtonResult:
    """Damped Newton iteration in the complex plane, run to exhaustion.

    ``fn(z, *args)`` returns ``(F, F', ...)`` at ``z``: the value, the
    exact derivative and anything else the caller wants at the root, so
    one call per point serves both.  While ``|F| >= NEWTON_RESIDUAL_TOL``
    a step that fails to reduce ``|F|`` is halved, at most 8 times.  The
    iteration stops once the Newton step is within ``NEWTON_ULP_STEPS``
    ulp of ``|z|``, or once ``|F| < NEWTON_RESIDUAL_TOL`` and the step
    stops shrinking, i.e. only rounding is left; either way with
    ``converged`` set when ``|F|`` is below the tolerance.  A run that
    hits ``NEWTON_MAX_ITER`` or a vanishing derivative has not converged.
    """
    z = complex(z0)
    vals = fn(z, *args)
    last = math.inf
    for it in range(NEWTON_MAX_ITER):
        fz, dz = vals[0], vals[1]
        if dz == 0 or not cmath.isfinite(dz):
            return NewtonResult(z, abs(fz), it, False, vals)
        step = fz / dz
        small = abs(fz) < NEWTON_RESIDUAL_TOL
        size = abs(step)
        at_ulp = size <= NEWTON_ULP_STEPS * sys.float_info.epsilon * abs(z)
        if at_ulp or (small and size >= last):
            return NewtonResult(z, abs(fz), it, small, vals)
        last = size
        z_new = z - step
        vals = fn(z_new, *args)
        halvings = 0
        while not small and abs(vals[0]) > abs(fz) and halvings < 8:
            step *= 0.5
            z_new = z - step
            vals = fn(z_new, *args)
            halvings += 1
        z = z_new
    return NewtonResult(z, abs(vals[0]), NEWTON_MAX_ITER, False, vals)


def refine_resonance(
    alpha: float,
    theta: float,
    parity: str,
    k_guess: complex,
) -> NewtonResult:
    """Newton-polish a resonance-residual zero from a guess, to exhaustion.

    The result's ``values`` are ``(F, F_k, F_theta)`` at the root.
    """
    return newton_complex(_residual_terms, k_guess, alpha, theta, _parity_sign(parity))


@dataclass(frozen=True)
class ResonanceCurve:
    """One traced branch: samples ``(theta, k)`` plus how tracing ended.

    ``residuals`` holds ``|F|`` at every sample, as its polish left it.
    """

    alpha: float
    parity: str
    samples: tuple[tuple[float, complex], ...]
    residuals: tuple[float, ...]
    termination: str
    seed: SingularPoint | None = None


def continue_curve(
    alpha: float,
    parity: str,
    theta_grid,
    k_start: complex,
    *,
    seed: SingularPoint | None = None,
) -> ResonanceCurve:
    """Continue a residual zero across a monotone grid of bend angles.

    Tangent predictor ``dk/dtheta = -F_theta/F_k`` plus Newton corrector,
    sub-stepping between grid nodes.  The tangent takes the partials that
    the last polish evaluated at its root (``NewtonResult.values``), so it
    costs no kernel call of its own.  The step is ``STEP_FRACTION`` of the
    angle over which the tangent would carry ``k`` onto the nearest
    integer, ``|k - round(Re k)| / |dk/dtheta|``, capped by ``MAX_STEP``:
    by the Puiseux law this is a fixed share of the distance to the
    singular angle, so a flat-band point is approached in geometrically
    shrinking steps.  A corrector that fails, or that moves ``k`` by more
    than ``PLAUSIBLE_MOVE`` of that integer distance (a jump to another
    branch), halves the step.  Every sample is polished to exhaustion, so
    the samples do not depend on the steps taken, and each sample keeps
    the ``|F|`` of its polish.  Landing within ``SNAP_DISTANCE`` of an
    integer while a matching singular angle is nearby snaps the endpoint
    onto the exact singular point, evaluated there, and stops.
    A step below ``MIN_STEP`` raises ``ContinuationError``.  The branch
    followed is the one of ``k_start``.
    """
    thetas = [float(t) for t in theta_grid]
    if len(thetas) < 2:
        raise ValueError("theta grid needs at least two nodes")
    direction = 1.0 if thetas[-1] > thetas[0] else -1.0
    start = refine_resonance(alpha, thetas[0], parity, k_start)
    if not start.converged:
        raise ValueError("k_start does not converge onto a residual zero")
    samples: list[tuple[float, complex]] = [(thetas[0], start.root)]
    residuals = [start.residual]
    cur, polish = (thetas[0], start.root), start
    termination = "completed"

    def snap_target(k: complex, t: float) -> tuple[float, float] | None:
        m = round(k.real)
        if m < 1 or abs(k - m) > SNAP_DISTANCE:
            return None
        cands = [v for v in singular_angles(m, parity) if abs(v - t) < 2e-2]
        if not cands:
            return None
        return (min(cands, key=lambda v: abs(v - t)), float(m))

    done = False
    for t_target in thetas[1:]:
        while not done and cur[0] != t_target:
            dist = abs(cur[1] - round(cur[1].real))
            _, f_k, f_theta = polish.values
            slope = -f_theta / f_k
            step = MAX_STEP
            if STEP_FRACTION * dist < MAX_STEP * abs(slope):
                step = STEP_FRACTION * dist / abs(slope)
            step = direction * min(step, abs(t_target - cur[0]))
            while True:
                t_new = cur[0] + step
                if (t_new - t_target) * direction > 0.0:
                    t_new = t_target
                k_pred = cur[1] + slope * (t_new - cur[0])
                res = refine_resonance(alpha, t_new, parity, k_pred)
                if res.converged and abs(res.root - k_pred) < PLAUSIBLE_MOVE * dist:
                    break
                step *= 0.5
                if abs(step) < MIN_STEP:
                    raise ContinuationError(f"step underflow at theta={cur[0]:.8g}")
            cur, polish = (t_new, res.root), res
            hit = snap_target(cur[1], cur[0])
            if hit is not None:
                samples.append((hit[0], complex(hit[1])))
                residuals.append(abs(resonance_residual(hit[1], alpha, hit[0], parity)))
                termination = "singular-point"
                done = True
        if done:
            break
        samples.append(cur)
        residuals.append(polish.residual)
    return ResonanceCurve(alpha, parity, tuple(samples), tuple(residuals), termination, seed)


def trace_complex_branch(
    alpha: float,
    sp: SingularPoint,
    *,
    theta_stop: float | None = None,
    n_nodes: int = 200,
) -> ResonanceCurve:
    """Trace the lower complex branch away from a singular point.

    Seeds the Puiseux law at ``theta0 + SEED_OFFSET``, polishes it, then
    continues toward ``theta_stop`` (default: just short of ``pi``).  The
    upper branch is this trace moved by ``on_branch``, which is what
    tracing it from its conjugate seed gives, bit for bit.
    """
    stop = theta_stop if theta_stop is not None else math.pi - 1e-2
    t0 = sp.theta0 + SEED_OFFSET
    if not 0.0 < t0 < math.pi:
        raise ValueError("seed angle outside (0, pi)")
    k_seed = seed_from_singular_point(sp, alpha, SEED_OFFSET)
    # np.linspace(t0, stop, n_nodes) in its own arithmetic (i * step + t0,
    # the last node stop), without numpy.
    step = (stop - t0) / max(n_nodes - 1, 1)
    grid = [i * step + t0 for i in range(n_nodes - 1)] + [stop]
    return continue_curve(alpha, sp.parity, grid, k_seed, seed=sp)


def real_branch_offset(alpha: float, gap: GapInterval, thetas, parity: str):
    """Signed offset ``k - n`` of the gap eigenvalue at every angle of ``thetas``.

    Bisects the entire cleared residual between the integer and the band
    edge, which stays numerically meaningful arbitrarily close to the
    integer (unlike the gap function); all angles are bisected together.
    NaN where the sector has no root there.
    """
    import numpy as np

    from ._rootfind import _first_roots

    if gap.n < 1:
        raise ValueError("offset defined for gaps containing an integer")
    n = float(gap.n)
    if gap.k_lo == n:  # repulsive: root above the integer
        lo, hi = n + 1e-13, gap.k_hi - 1e-13
    else:  # attractive: root below
        lo, hi = gap.k_lo + 1e-13, n - 1e-13
    thetas = np.asarray(thetas, dtype=float)
    roots = _first_roots(
        lo,
        hi,
        lambda k, th: resonance_residual_grid(k, alpha, th, parity).real,
        thetas.reshape(-1),
        points=2,
    )
    return (roots - n).reshape(thetas.shape)[()]


@dataclass(frozen=True)
class BranchFit:
    """Log-log fit of a branch offset against the angle offset."""

    exponent: float
    coefficient: float
    n_samples: int


def fit_branch_exponent(alpha: float, sp: SingularPoint) -> BranchFit:
    """Fit ``|k - n| = C |theta - theta0|**p`` on the real branch near a singular point.

    ``k - n`` is the gap root's offset from ``real_branch_offset``, sampled
    at ``FIT_SAMPLES_PER_SIDE`` angle offsets from ``FIT_DELTA_LO`` to
    ``FIT_DELTA_HI``.  When the singular angle is interior the fit pools
    both sides of it, which cancels the odd-order corrections of the branch
    expansion.  Fewer than 8 usable samples raise ``InsufficientDataError``.
    """
    import numpy as np

    from .bands import gap_intervals

    deltas = np.geomspace(FIT_DELTA_LO, FIT_DELTA_HI, FIT_SAMPLES_PER_SIDE)
    signed = np.concatenate([deltas, -deltas]) if sp.theta0 > 0.0 else deltas
    thetas = sp.theta0 + signed
    inside = (0.0 < thetas) & (thetas < math.pi)
    signed, thetas = signed[inside], thetas[inside]
    gap = next(g for g in gap_intervals(alpha, sp.n) if g.n == sp.n)
    eps = np.abs(real_branch_offset(alpha, gap, thetas, sp.parity))
    use = eps > 0.0
    log_d = [math.log(abs(d)) for d in signed[use].tolist()]
    log_e = [math.log(e) for e in eps[use].tolist()]
    if len(log_d) < 8:
        raise InsufficientDataError(
            f"only {len(log_d)} usable samples near ({sp.n}, {sp.ell})"
        )
    slope, intercept = np.polyfit(log_d, log_e, 1)
    return BranchFit(float(slope), float(math.exp(intercept)), len(log_d))


def gentle_bend_coefficient(k0: float, alpha: float) -> float:
    """Quartic coefficient of the small-angle eigenvalue descent.

    For a gap whose non-integer edge ``k0`` adjoins an even flat band, the
    even-sector eigenvalue leaves the edge as ``k = k0 - C*theta**4 +
    O(theta**6)`` with

        ``C = (k0**2 / 8) * (alpha/4)**3 / (k0*pi + sin(pi*k0))``.
    """
    denom = k0 * math.pi + math.sin(math.pi * k0)
    if abs(denom) < 1e-12:
        raise ValueError("degenerate edge: k0*pi + sin(pi*k0) vanishes")
    return (k0 * k0 / 8.0) * (alpha / 4.0) ** 3 / denom


def fit_gentle_coefficient(alpha: float, gap: GapInterval) -> float:
    """Measured quartic coefficient of the near-edge eigenvalue descent.

    Solves the even-sector gap condition hard against the band edge on 12
    angles from 0.01 to 0.1 and extracts the ``theta**4`` coefficient by a
    weighted fit of ``offset/theta**4`` against ``theta**2`` (the next term
    of the even expansion).
    """
    import numpy as np

    from .gaps import solve_gap_near_edge

    thetas = np.geomspace(0.01, 0.1, 12)
    off = np.abs(gap.band_edge - solve_gap_near_edge(alpha, thetas, gap, "+"))
    thetas, off = thetas[off > 0.0], off[off > 0.0]
    if len(thetas) < 4:
        raise InsufficientDataError("too few near-edge solutions for the fit")
    _, intercept = np.polyfit(thetas * thetas, off / thetas ** 4, 1)
    return float(intercept)


def _cleared(a, b, q, alpha: float, s: float):
    """The cleared residual from ``A = cos(k theta)``, ``B = cos(pi k)`` and
    ``Q = 2k sin(pi k)``, with ``s`` the parity sign; works on any operands.

    ``Q`` is ``(2k) sin(pi k)``, in ``_residual_terms``' order: doubling
    ``k sin(pi k)`` instead loses a bit where that product is subnormal.
    """
    return alpha * (1.0 + s * a * b) * (s * a + b) - q * (1.0 + 2.0 * s * a * b + a * a)


def _axis_terms(x, theta: float, unit: complex, xp):
    """``(A, B, Q)`` of ``_cleared`` at ``k = unit*x`` in real arithmetic.

    ``unit`` is 1 (``k = x``: ``cos``, ``cos``, ``2x sin``) or ``1j``
    (``k = i x``: ``cosh``, ``cosh``, ``-2x sinh``); ``xp`` is ``np`` for an
    array or ``math`` for a float.  On both axes the complex terms are
    real, and these are their real parts: bit for bit, except that
    ``np.cosh``/``np.sinh`` can differ from ``cmath`` in the last ulp.
    """
    if unit == 1:
        return xp.cos(x * theta), xp.cos(math.pi * x), 2.0 * x * xp.sin(math.pi * x)
    return xp.cosh(x * theta), xp.cosh(math.pi * x), -2.0 * x * xp.sinh(math.pi * x)


def resonance_residual_grid(
    zs: np.ndarray, alpha: float, theta: float, parity: str
) -> np.ndarray:
    """Vectorised ``resonance_residual`` over an array of momenta, real or complex."""
    import numpy as np

    return _cleared(*_axis_terms(zs, theta, 1, np), alpha, _parity_sign(parity))


def count_zeros_box(
    alpha: float,
    theta: float,
    parity: str,
    re_lo: float,
    re_hi: float,
    im_lo: float,
    im_hi: float,
) -> int:
    """Number of residual zeros in a rectangle, by the argument principle.

    The contour is refined until consecutive phase differences stay below
    ``pi/2``, which makes the winding number unambiguous for an analytic
    function.  A residual zero sitting on the contour itself makes the
    count undefined; it is detected by a node magnitude collapsing
    relative to its neighbours and raises ``ContourZeroError``.
    """
    import numpy as np

    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("degenerate counting rectangle")
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]
    nodes: list[complex] = []
    per_unit = 8
    for c0, c1 in zip(corners, corners[1:] + corners[:1]):
        m = max(8, int(abs(c1 - c0) * per_unit))
        for i in range(m):
            nodes.append(c0 + (c1 - c0) * (i / m))
    zs = np.array(nodes, dtype=complex)
    for _ in range(60):
        vals = resonance_residual_grid(zs, alpha, theta, parity)
        mags = np.abs(vals)
        neighbour = np.maximum(np.roll(mags, 1), np.roll(mags, -1))
        collapsed = mags < 1e-12 * (1.0 + neighbour)
        if collapsed.any():
            where = zs[int(np.argmin(np.where(collapsed, mags, np.inf)))]
            raise ContourZeroError(
                f"residual vanishes on the contour near {where:.6g}"
            )
        ratios = np.roll(vals, -1) / vals
        dphi = np.angle(ratios)
        bad = np.abs(dphi) > 0.5 * math.pi
        if not bad.any():
            total = float(dphi.sum())
            winding = total / (2.0 * math.pi)
            if abs(winding - round(winding)) > 1e-2:
                raise RuntimeError("winding sum failed to close up")
            return int(round(winding))
        if len(zs) > 500_000:
            break
        mids = 0.5 * (zs + np.roll(zs, -1))
        zs = np.insert(zs, np.flatnonzero(bad) + 1, mids[bad])
    raise RuntimeError("contour refinement did not converge")

