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
counts zeros in rectangles by the argument principle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._rootfind import NewtonResult, bisect, newton_complex
from .dispersion import ContinuationError, InsufficientDataError
from .gaps import (
    GapInterval,
    _parity_sign,
    gap_intervals,
    singular_angles,
    solve_gap_near_edge,
)

__all__ = [
    "ContourZeroError",
    "SingularPoint",
    "ResonanceCurve",
    "BranchFit",
    "resonance_residual",
    "resonance_residual_grid",
    "resonance_residual_dk",
    "enumerate_singular_points",
    "seed_from_singular_point",
    "refine_resonance",
    "continue_curve",
    "trace_complex_branch",
    "real_branch_offset",
    "fit_branch_exponent",
    "gentle_bend_coefficient",
    "fit_gentle_coefficient",
    "count_zeros_box",
    "connecting_hyperbola_angle",
]

# Continuation step bounds (in bend angle, radians).
MAX_STEP = 1e-2
MIN_STEP = 1e-7
# Step cap once the trajectory closes in on a flat-band point, where the
# branch point makes Newton's basin shrink.
NEAR_SINGULAR_STEP = 1e-5
# A trajectory within this distance of an integer is snapped onto the
# singular point it is entering.
SNAP_DISTANCE = 1e-5


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
    s = _parity_sign(parity)
    kc = complex(k)
    a = cmath.cos(kc * theta)
    b = cmath.cos(math.pi * kc)
    sp = cmath.sin(math.pi * kc)
    return alpha * (1.0 + s * a * b) * (s * a + b) - 2.0 * kc * sp * (
        1.0 + 2.0 * s * a * b + a * a
    )


def resonance_residual_dk(
    k: complex, alpha: float, theta: float, parity: str
) -> complex:
    """Exact ``k``-derivative of ``resonance_residual`` (product rule)."""
    s = _parity_sign(parity)
    kc = complex(k)
    a = cmath.cos(kc * theta)
    b = cmath.cos(math.pi * kc)
    sp = cmath.sin(math.pi * kc)
    da = -theta * cmath.sin(kc * theta)
    db = -math.pi * sp
    dsp = math.pi * cmath.cos(math.pi * kc)
    p = 1.0 + s * a * b
    dp = s * (da * b + a * db)
    r = s * a + b
    dr = s * da + db
    t = 1.0 + 2.0 * s * a * b + a * a
    dt = 2.0 * s * (da * b + a * db) + 2.0 * a * da
    return alpha * (dp * r + p * dr) - 2.0 * sp * t - 2.0 * kc * (dsp * t + sp * dt)


@dataclass(frozen=True)
class SingularPoint:
    """Flat-band point ``(theta0, n)`` where a gap loses its eigenvalue.

    Even sector: ``theta0 = (n+1-2*ell) * pi / n``; odd sector:
    ``theta0 = (n-2*ell) * pi / n``; in both cases ``ell`` is a positive
    integer keeping ``theta0`` inside ``[0, pi)``.
    """

    n: int
    ell: int
    parity: str
    theta0: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.ell < 1:
            raise ValueError("n and ell must be positive integers")
        if self.parity == "+":
            units = self.n + 1 - 2 * self.ell
        elif self.parity == "-":
            units = self.n - 2 * self.ell
        else:
            raise ValueError("parity must be '+' or '-'")
        theta0 = units * math.pi / self.n
        if not 0.0 <= theta0 < math.pi:
            raise ValueError(f"({self.n}, {self.ell}) gives no admissible angle")
        object.__setattr__(self, "theta0", theta0)

    @property
    def k0(self) -> float:
        return float(self.n)


def enumerate_singular_points(n_max: int, parity: str) -> list[SingularPoint]:
    """All singular points with ``n <= n_max`` of one parity sector."""
    out: list[SingularPoint] = []
    for n in range(1, n_max + 1):
        ell_hi = (n + 1) // 2 if parity == "+" else n // 2
        for ell in range(1, ell_hi + 1):
            out.append(SingularPoint(n, ell, parity))
    return out


def seed_from_singular_point(
    sp: SingularPoint, alpha: float, delta: float, branch: str = "lower"
) -> complex:
    """Leading-order branch position at bend angle ``theta0 + delta``.

    Implements ``k = n + eps`` with ``eps = cbrt(alpha/8) * (n/pi) *
    |delta|**(4/3)`` on the real branch and the same magnitude rotated by
    ``exp(±2 pi i / 3)`` on the complex pair; ``branch`` picks ``'real'``,
    ``'upper'`` (positive imaginary part) or ``'lower'`` (negative, the
    resonance side).  ``delta = 0`` is rejected; ``|delta| <= 0.1`` keeps
    the expansion inside its trust region.
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
    if branch == "real":
        return complex(sp.k0 + eps_real)
    if branch not in ("upper", "lower"):
        raise ValueError("branch must be 'real', 'upper' or 'lower'")
    rot = cmath.exp(2j * math.pi / 3.0)
    cand = eps_real * rot
    if (cand.imag > 0.0) != (branch == "upper"):
        cand = eps_real / rot
    return sp.k0 + cand


def refine_resonance(
    alpha: float,
    theta: float,
    parity: str,
    k_guess: complex,
    *,
    exact_derivative: bool = False,
    residual_tol: float = 1e-12,
    max_iter: int = 30,
) -> NewtonResult:
    """Newton-polish a resonance-residual zero from a guess."""

    def residual(k: complex) -> complex:
        return resonance_residual(k, alpha, theta, parity)

    def derivative(k: complex) -> complex:
        return resonance_residual_dk(k, alpha, theta, parity)

    return newton_complex(
        residual,
        k_guess,
        dfn=derivative if exact_derivative else None,
        residual_tol=residual_tol,
        max_iter=max_iter,
    )


@dataclass(frozen=True)
class ResonanceCurve:
    """One traced branch: samples ``(theta, k)`` plus how tracing ended."""

    alpha: float
    parity: str
    branch: str
    samples: tuple[tuple[float, complex], ...]
    termination: str
    seed: SingularPoint | None = None

    def residuals(self) -> list[float]:
        return [
            abs(resonance_residual(k, self.alpha, t, self.parity))
            for t, k in self.samples
        ]


def _secant_extrapolate(
    prev: tuple[float, complex] | None,
    cur: tuple[float, complex],
    t_new: float,
) -> complex:
    if prev is None or prev[0] == cur[0]:
        return cur[1]
    slope = (cur[1] - prev[1]) / (cur[0] - prev[0])
    return cur[1] + slope * (t_new - cur[0])


def continue_curve(
    alpha: float,
    parity: str,
    theta_grid,
    k_start: complex,
    *,
    branch: str = "lower",
    seed: SingularPoint | None = None,
    exact_derivative: bool = False,
    residual_accept: float = 1e-9,
    max_step: float = MAX_STEP,
    min_step: float = MIN_STEP,
) -> ResonanceCurve:
    """Continue a residual zero across a monotone grid of bend angles.

    Secant prediction plus Newton correction, with adaptive sub-stepping
    between grid nodes: failed or implausible corrections halve the step,
    and steps shrink to ``NEAR_SINGULAR_STEP`` as the trajectory nears a
    flat-band point.  Landing within ``SNAP_DISTANCE`` of an integer while
    a matching singular angle is nearby snaps the endpoint onto the exact
    singular point and stops.  Underflowing the step raises
    ``ContinuationError``.
    """
    thetas = [float(t) for t in theta_grid]
    if len(thetas) < 2:
        raise ValueError("theta grid needs at least two nodes")
    direction = 1.0 if thetas[-1] > thetas[0] else -1.0
    start = refine_resonance(
        alpha, thetas[0], parity, k_start, exact_derivative=exact_derivative
    )
    if not start.converged or start.residual > residual_accept:
        raise ValueError("k_start does not converge onto a residual zero")
    samples: list[tuple[float, complex]] = [(thetas[0], start.root)]
    prev: tuple[float, complex] | None = None
    cur = (thetas[0], start.root)
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
            cap = max_step
            if dist < 3e-3:
                cap = NEAR_SINGULAR_STEP
            elif dist < 3e-2:
                cap = 1e-3
            step = direction * min(cap, abs(t_target - cur[0]))
            while True:
                t_new = cur[0] + step
                if (t_new - t_target) * direction > 0.0:
                    t_new = t_target
                k_pred = _secant_extrapolate(prev, cur, t_new)
                res = refine_resonance(
                    alpha, t_new, parity, k_pred,
                    exact_derivative=exact_derivative, max_iter=12,
                )
                moved = abs(res.root - k_pred)
                plausible = moved < max(0.05, 10.0 * abs(cur[1] - k_pred))
                if res.converged and res.residual <= residual_accept and plausible:
                    break
                step *= 0.5
                if abs(step) < min_step:
                    raise ContinuationError(
                        f"step underflow at theta={cur[0]:.8g} (branch {branch})"
                    )
            prev, cur = cur, (t_new, res.root)
            hit = snap_target(cur[1], cur[0])
            if hit is not None:
                samples.append((hit[0], complex(hit[1])))
                termination = "singular-point"
                done = True
        if done:
            break
        samples.append(cur)
    return ResonanceCurve(
        alpha, parity, branch, tuple(samples), termination, seed
    )


def trace_complex_branch(
    alpha: float,
    sp: SingularPoint,
    branch: str = "lower",
    *,
    delta0: float = 1e-2,
    theta_stop: float | None = None,
    n_nodes: int = 200,
    exact_derivative: bool = False,
) -> ResonanceCurve:
    """Trace one complex branch away from a singular point.

    Seeds the Puiseux law at ``theta0 + delta0``, polishes it, then
    continues toward ``theta_stop`` (default: just short of ``pi``).
    """
    stop = theta_stop if theta_stop is not None else math.pi - 1e-2
    t0 = sp.theta0 + delta0
    if not 0.0 < t0 < math.pi:
        raise ValueError("seed angle outside (0, pi)")
    k_seed = seed_from_singular_point(sp, alpha, delta0, branch)
    grid = np.linspace(t0, stop, n_nodes)
    return continue_curve(
        alpha,
        sp.parity,
        grid,
        k_seed,
        branch=branch,
        seed=sp,
        exact_derivative=exact_derivative,
    )


def real_branch_offset(
    alpha: float, gap: GapInterval, theta: float, parity: str
) -> float | None:
    """Signed offset ``k - n`` of the gap eigenvalue, resolved near ``n``.

    Bisects the entire cleared residual between the integer and the band
    edge, which stays numerically meaningful arbitrarily close to the
    integer (unlike the gap function).  ``None`` when the sector has no
    root there.
    """
    if gap.n < 1:
        raise ValueError("offset defined for gaps containing an integer")
    n = float(gap.n)

    def f(k: float) -> float:
        return resonance_residual(complex(k), alpha, theta, parity).real

    if gap.k_lo == n:  # repulsive: root above the integer
        a, b = n + 1e-13, gap.k_hi - 1e-13
    else:  # attractive: root below
        a, b = gap.k_lo + 1e-13, n - 1e-13
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a - n
    if fb == 0.0:
        return b - n
    if (fa > 0.0) == (fb > 0.0):
        return None
    root = bisect(f, a, b, fa=fa, fb=fb)
    return root - n


@dataclass(frozen=True)
class BranchFit:
    """Log-log fit of a branch offset against the angle offset."""

    exponent: float
    coefficient: float
    n_samples: int


def fit_branch_exponent(
    alpha: float,
    sp: SingularPoint,
    branch: str = "real",
    *,
    delta_lo: float = 1e-3,
    delta_hi: float = 1e-2,
    samples_per_side: int = 13,
    two_sided: bool | None = None,
) -> BranchFit:
    """Fit ``|k - n| = C |theta - theta0|**p`` near a singular point.

    Real branches measure the gap root; complex branches Newton-refine the
    seeded pole.  When the singular angle is interior the fit pools both
    sides of it, which cancels the odd-order corrections of the branch
    expansion.  Fewer than 8 usable samples raise
    ``InsufficientDataError``.
    """
    if two_sided is None:
        two_sided = sp.theta0 > 0.0
    gap = None
    if branch == "real":
        gap = next(g for g in gap_intervals(alpha, sp.n) if g.n == sp.n)
    deltas = np.geomspace(delta_lo, delta_hi, samples_per_side)
    signed = list(deltas) + ([-d for d in deltas] if two_sided else [])
    log_d: list[float] = []
    log_e: list[float] = []
    for d in signed:
        theta = sp.theta0 + d
        if not 0.0 < theta < math.pi:
            continue
        if branch == "real":
            off = real_branch_offset(alpha, gap, theta, sp.parity)
            eps = abs(off) if off is not None else None
        else:
            k_seed = seed_from_singular_point(sp, alpha, d, branch)
            res = refine_resonance(alpha, theta, sp.parity, k_seed)
            eps = abs(res.root - sp.k0) if res.converged else None
        if eps is not None and eps > 0.0:
            log_d.append(math.log(abs(d)))
            log_e.append(math.log(eps))
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


def fit_gentle_coefficient(
    alpha: float,
    gap: GapInterval,
    *,
    parity: str = "+",
    thetas=None,
) -> float:
    """Measured quartic coefficient of the near-edge eigenvalue descent.

    Solves the gap condition hard against the band edge on a grid of
    small angles and extracts the ``theta**4`` coefficient by a weighted
    fit of ``offset/theta**4`` against ``theta**2`` (the next term of the
    even expansion).
    """
    if thetas is None:
        thetas = np.geomspace(0.01, 0.1, 12)
    k0 = gap.band_edge
    t2: list[float] = []
    ratio: list[float] = []
    for theta in thetas:
        k = solve_gap_near_edge(alpha, float(theta), gap, parity)
        if k is None:
            continue
        off = abs(k0 - k)
        if off <= 0.0:
            continue
        t2.append(theta * theta)
        ratio.append(off / theta ** 4)
    if len(t2) < 4:
        raise InsufficientDataError("too few near-edge solutions for the fit")
    _, intercept = np.polyfit(t2, ratio, 1)
    return float(intercept)


def resonance_residual_grid(
    zs: np.ndarray, alpha: float, theta: float, parity: str
) -> np.ndarray:
    """Vectorised ``resonance_residual`` over an array of complex momenta."""
    s = _parity_sign(parity)
    a = np.cos(zs * theta)
    b = np.cos(np.pi * zs)
    sp = np.sin(np.pi * zs)
    return alpha * (1.0 + s * a * b) * (s * a + b) - 2.0 * zs * sp * (
        1.0 + 2.0 * s * a * b + a * a
    )




def count_zeros_box(
    alpha: float,
    theta: float,
    parity: str,
    re_lo: float,
    re_hi: float,
    im_lo: float,
    im_hi: float,
    *,
    max_refine: int = 60,
) -> int:
    """Number of residual zeros in a rectangle, by the argument principle.

    The contour is refined until consecutive phase differences stay below
    ``pi/2``, which makes the winding number unambiguous for an analytic
    function.  A residual zero sitting on the contour itself makes the
    count undefined; it is detected by a node magnitude collapsing
    relative to its neighbours and raises ``ContourZeroError``.
    """
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
    for _ in range(max_refine):
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
        nxt = np.roll(zs, -1)
        mids = 0.5 * (zs + nxt)
        pieces = []
        for z, m_, flag in zip(zs, mids, bad):
            pieces.append(z)
            if flag:
                pieces.append(m_)
        zs = np.array(pieces, dtype=complex)
    raise RuntimeError("contour refinement did not converge")


def connecting_hyperbola_angle(total: int, k: float) -> float:
    """Bend angle on the hyperbola ``(theta + pi) * k = total * pi``.

    The complex branches run along these curves between consecutive
    singular points sharing the same ``total = n + ell``-style sum.
    """
    return total * math.pi / k - math.pi
