"""Tests for the dispersion kernels of the periodic chain."""
from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringchain import (
    ZERO_ENERGY_ALPHA_MIN,
    DomainError,
    discriminant,
    discriminant_negative,
    floquet_phases,
    gap_function,
    gap_function_negative,
    gap_function_negative_curvature,
)
from ringchain.dispersion import SMALL_ARG, discriminant_zero_limit

FINITE_ALPHA = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
POSITIVE_K = st.floats(min_value=1e-3, max_value=12.0, allow_nan=False)


def test_discriminant_closed_form():
    # cos(k*pi) + alpha*sin(k*pi)/(4k) against a hand-expanded sample
    k, alpha = 0.5, 3.0
    expected = math.cos(0.5 * math.pi) + 3.0 * math.sin(0.5 * math.pi) / 2.0
    assert math.isclose(discriminant(k, alpha), expected, rel_tol=1e-15)


def test_discriminant_zero_momentum_limit():
    alpha = 2.0
    assert math.isclose(
        discriminant(1e-12, alpha), 1.0 + alpha * math.pi / 4.0, rel_tol=1e-9
    )
    assert discriminant(0.0, alpha) == discriminant_zero_limit(alpha)


def test_discriminant_series_window_is_seamless():
    # Values straddling the series window boundary must agree to rounding.
    alpha = -3.0
    below, above = 1e-4 - 1e-12, 1e-4 + 1e-12
    assert math.isclose(
        discriminant(below, alpha), discriminant(above, alpha), rel_tol=0.0,
        abs_tol=1e-12,
    )


def test_discriminant_free_chain_is_cosine():
    for k in (0.3, 1.7, 2.9):
        assert math.isclose(discriminant(k, 0.0), math.cos(math.pi * k), rel_tol=1e-15)


def test_discriminant_negative_matches_imaginary_momentum():
    # The hyperbolic form is the analytic continuation k -> i*kappa.
    for kappa in (0.3, 1.1, 2.4):
        via_complex = discriminant(complex(0.0, kappa), -3.0)
        assert abs(via_complex.imag) < 1e-12
        assert math.isclose(
            discriminant_negative(kappa, -3.0), via_complex.real, rel_tol=1e-12
        )


def test_borderline_alpha_constant():
    assert ZERO_ENERGY_ALPHA_MIN == -8.0 / math.pi
    # At the borderline coupling the half-trace limit at zero energy is -1.
    assert math.isclose(
        discriminant_zero_limit(ZERO_ENERGY_ALPHA_MIN), -1.0, abs_tol=1e-15
    )


@given(k=POSITIVE_K, alpha=FINITE_ALPHA)
def test_floquet_phases_multiply_to_one(k, alpha):
    assume(abs(k - round(k)) > 1e-6)
    z_big, z_small = floquet_phases(k, alpha)
    assert abs(z_big * z_small - 1.0) < 1e-9
    assert abs(z_big) >= abs(z_small)


@given(k=POSITIVE_K, alpha=FINITE_ALPHA)
def test_floquet_phases_solve_quadratic(k, alpha):
    assume(abs(k - round(k)) > 1e-6)
    g = discriminant(k, alpha)
    for z in floquet_phases(k, alpha):
        assert abs(z * z - 2.0 * g * z + 1.0) < 1e-8


def test_floquet_phases_reject_flat_band_point():
    with pytest.raises(ValueError):
        floquet_phases(2.0, 3.0)


def test_floquet_unimodular_iff_band():
    # Inside a band both multipliers sit on the unit circle; in a gap they
    # split off it reciprocally.
    z_big, z_small = floquet_phases(0.9, 3.0)
    assert abs(abs(z_big) - 1.0) < 1e-12
    assert abs(abs(z_small) - 1.0) < 1e-12
    z_big, z_small = floquet_phases(1.1, 3.0)
    assert abs(z_big) > 1.0 + 1e-6
    assert abs(z_small) < 1.0 - 1e-6


def test_gap_function_moebius_identity():
    # gap_function equals (1 - cos(pi k) z) / (z - cos(pi k)) with z the
    # expanding Floquet multiplier; verified on one point of each of the
    # first gaps for both coupling signs.
    for k, alpha in [(1.15, 3.0), (2.1, 3.0), (0.7, -3.0), (1.9, -3.0)]:
        z = floquet_phases(k, alpha)[0]
        assert abs(z.imag) < 1e-12
        c = math.cos(math.pi * k)
        f = gap_function(k, alpha)
        assert math.isclose(f * (z.real - c), 1.0 - c * z.real, rel_tol=1e-10)


def test_gap_function_rejects_band_interior_and_integers():
    with pytest.raises(DomainError):
        gap_function(0.9, 3.0)  # inside the first band
    with pytest.raises(ValueError):
        gap_function(1.0, 3.0)  # flat-band point


def test_gap_function_negative_moebius_identity():
    # Same Moebius identity with cosh in place of cos, on the imaginary axis.
    for kappa, alpha in [(1.0, -3.0), (1.2, -3.0), (1.3, -4.0)]:
        z = floquet_phases(complex(0.0, kappa), alpha)[0]
        assert abs(z.imag) < 1e-9
        ch = math.cosh(math.pi * kappa)
        f = gap_function_negative(kappa, alpha)
        assert math.isclose(f * (z.real - ch), 1.0 - ch * z.real, rel_tol=1e-9)


def test_gap_function_negative_rejects_threshold_band():
    # alpha = -3 keeps a negative-energy band; its interior is not a gap.
    with pytest.raises(DomainError):
        gap_function_negative(0.5, -3.0)


def test_negative_curvature_positive_below_borderline():
    for alpha in (-3.0, -4.0, -6.0):
        assert gap_function_negative_curvature(alpha) > 0.0
    with pytest.raises(ValueError):
        gap_function_negative_curvature(-1.0)  # above the borderline


def test_negative_curvature_matches_gap_function_expansion():
    # gap_function_negative ~ -1 - C*kappa**2 near zero for alpha < -8/pi.
    alpha = -4.0
    c = gap_function_negative_curvature(alpha)
    for kappa in (1e-3, 5e-4):
        f = gap_function_negative(kappa, alpha)
        approx = (-1.0 - f) / (kappa * kappa)
        assert math.isclose(approx, c, rel_tol=1e-4)


def test_negative_curvature_vanishes_at_borderline():
    assert abs(gap_function_negative_curvature(ZERO_ENERGY_ALPHA_MIN)) < 1e-9


def scalar_sin_ratio(k):
    """``sin(pi*k)/k`` as the scalar ``math``/``cmath`` formula."""
    if abs(k) < SMALL_ARG:
        x2 = (math.pi * k) * (math.pi * k)
        return math.pi * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)))
    if isinstance(k, complex):
        return cmath.sin(math.pi * k) / k
    return math.sin(math.pi * k) / k


def scalar_discriminant(k, alpha):
    if isinstance(k, complex):
        if k.imag == 0.0:
            k = k.real
        else:
            return cmath.cos(math.pi * k) + 0.25 * alpha * scalar_sin_ratio(k)
    return math.cos(math.pi * k) + 0.25 * alpha * scalar_sin_ratio(k)


def scalar_gap_function(k, alpha):
    d = scalar_discriminant(k, alpha)
    t = 0.25 * alpha * scalar_sin_ratio(k)
    denom = t + (1.0 if d >= 0.0 else -1.0) * math.sqrt(d * d - 1.0)
    s = math.sin(math.pi * k)
    return -math.cos(math.pi * k) + s * s / denom


def scalar_gap_function_negative(kappa, alpha):
    """``-cosh - sinh**2/(t ± sqrt(d**2 - 1))`` on numpy scalars (``np.cosh`` is not ``math.cosh``)."""
    x = np.float64(kappa)
    s, c = np.sinh(np.pi * x), np.cosh(np.pi * x)
    if x < SMALL_ARG:
        x2 = (np.pi * x) * (np.pi * x)
        ratio = np.pi * (1.0 + x2 / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0)))
    else:
        ratio = s / x
    t = 0.25 * alpha * ratio
    d = c + t
    denom = t + (1.0 if d >= 0.0 else -1.0) * math.sqrt(d * d - 1.0)
    return -c - s * s / denom


def same_bits(got, want) -> bool:
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


# Wavenumbers in the series window below SMALL_ARG and beyond it; complex
# ones off the real axis, where the scalar formula switches to the real one.
REAL_K = st.one_of(st.floats(0.0, 0.99 * SMALL_ARG), st.floats(SMALL_ARG, 12.0))
COMPLEX_K = st.builds(
    complex,
    st.floats(-6.0, 6.0),
    st.floats(-2.0, 2.0).filter(lambda y: abs(y) > 1e-3),
).map(lambda z: z * 1e-5 if abs(z) < 1.0 else z)


@settings(max_examples=200, deadline=None)
@given(
    ks=st.lists(REAL_K, min_size=1, max_size=20),
    zs=st.lists(COMPLEX_K, min_size=1, max_size=20),
    alpha=FINITE_ALPHA,
)
def test_kernels_equal_the_scalar_formulas_bit_for_bit(ks, zs, alpha):
    # One array call gives, bit for bit, what the scalar math/cmath
    # formulas give one wavenumber at a time.
    assert same_bits(discriminant(np.array(ks), alpha), [scalar_discriminant(k, alpha) for k in ks])
    assert same_bits(discriminant(np.array(zs), alpha), [scalar_discriminant(z, alpha) for z in zs])
    for z in zs[:3]:
        assert same_bits(discriminant(z, alpha), scalar_discriminant(z, alpha))
    # Inside a gap, away from the integers and from a vanishing denominator.
    in_gap = [
        k for k in ks
        if k > 0.0 and abs(k - round(k)) >= 1e-9 and scalar_discriminant(k, alpha) ** 2 > 1.0
    ]
    if in_gap:
        want = [scalar_gap_function(k, alpha) for k in in_gap]
        assert same_bits(gap_function(np.array(in_gap), alpha), want)
        assert same_bits(gap_function(in_gap[0], alpha), want[0])
    # The hyperbolic twin, off the threshold band: an array call, the
    # per-point calls and the written-out formula agree bit for bit.
    off_band = [k for k in ks if k > 0.0 and discriminant_negative(k, alpha) ** 2 > 1.0]
    if off_band:
        want = [scalar_gap_function_negative(k, alpha) for k in off_band]
        assert same_bits(gap_function_negative(np.array(off_band), alpha), want)
        assert same_bits([gap_function_negative(k, alpha) for k in off_band], want)


@pytest.mark.parametrize("alpha", [-1.0, 2.5])
def test_negative_half_trace_matches_high_precision_across_the_series_window(alpha):
    # The sinh ratio switches to its Taylor series below SMALL_ARG; both
    # branches must give the half-trace to rounding of its O(1) terms.
    kappas = np.concatenate([np.geomspace(1e-8, 1e-2, 25), SMALL_ARG * np.array([1 - 1e-9, 1 + 1e-9])])
    got = discriminant_negative(kappas, alpha)
    with mpmath.workdps(50):
        for kappa, d in zip(kappas.tolist(), got.tolist()):
            k, a = mpmath.mpf(kappa), mpmath.mpf(alpha)
            ref = mpmath.cosh(mpmath.pi * k) + a / 4 * mpmath.sinh(mpmath.pi * k) / k
            assert abs(float(d - ref)) <= 1e-15
