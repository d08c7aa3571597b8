"""Tests for the ring-to-ring transfer matrix and coefficient recursion."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringchain import (
    DegenerateError,
    OverflowNormError,
    boundary_vector_even,
    coefficient_sequence,
    discriminant,
    floquet_phases,
    gap_eigenvalues,
    gap_intervals,
    in_spectrum,
    measured_decay_rate,
    transfer_eigen,
    transfer_matrix,
)

K_RE = st.floats(min_value=0.1, max_value=5.9, allow_nan=False)
K_IM = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
ALPHA = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


@given(re=K_RE, im=K_IM, alpha=ALPHA)
def test_determinant_is_one(re, im, alpha):
    assume(im != 0.0 or abs(re - round(re)) > 1e-6)
    m = transfer_matrix(complex(re, im), alpha)
    assert abs(m.det - 1.0) < 1e-9


@given(re=K_RE, im=K_IM, alpha=ALPHA)
def test_trace_is_twice_the_halftrace(re, im, alpha):
    assume(im != 0.0 or abs(re - round(re)) > 1e-6)
    k = complex(re, im)
    m = transfer_matrix(k, alpha)
    assert abs(m.trace - 2.0 * discriminant(k, alpha)) < 1e-9


def test_apply_is_matrix_action():
    m = transfer_matrix(1.3 + 0.2j, 3.0)
    v = (0.7 - 0.1j, -0.4 + 0.9j)
    out = m.apply(v)
    assert out[0] == pytest.approx(m.m11 * v[0] + m.m12 * v[1])
    assert out[1] == pytest.approx(m.m21 * v[0] + m.m22 * v[1])


def test_eigen_pairs_satisfy_eigen_equation():
    k, alpha = 1.15, 3.0  # inside the first gap
    m = transfer_matrix(k, alpha)
    eig = transfer_eigen(k, alpha)
    for lam, vec in (
        (eig.expanding, eig.v_expanding),
        (eig.contracting, eig.v_contracting),
    ):
        mv = m.apply(vec)
        assert abs(mv[0] - lam * vec[0]) < 1e-9
        assert abs(mv[1] - lam * vec[1]) < 1e-9


def test_eigenvalues_are_reciprocal_and_ordered():
    eig = transfer_eigen(1.15, 3.0)
    assert abs(eig.expanding * eig.contracting - 1.0) < 1e-12
    assert abs(eig.expanding) > 1.0 > abs(eig.contracting)


def test_flat_band_point_is_rejected():
    # Integer momenta are flat-band points; the period map has no safe
    # eigenbasis there and the constructor refuses them up front.
    with pytest.raises(ValueError):
        transfer_eigen(2.0, 3.0)


def test_band_edge_is_degenerate():
    # At a band edge the two multipliers coalesce at +-1.
    with pytest.raises(DegenerateError):
        transfer_eigen(1.327409862383918, 3.0)


def test_boundary_vector_rejects_integer_momentum():
    with pytest.raises(ValueError):
        boundary_vector_even(2.0, 3.0, 1.0)


def test_even_gap_eigenvalue_coefficients_decay_at_contracting_rate():
    # Frozen gap eigenvalue: alpha=3, theta=1.3, even sector, first gap.
    records = [
        r for r in gap_eigenvalues(3.0, 1.3, 4, "+")
        if r.energy > 0.0 and r.gap_index >= 1
    ]
    rec = records[0]
    assert math.isclose(rec.k, 1.2876960620127247, rel_tol=1e-12)
    k = complex(rec.k)
    eig = transfer_eigen(k, 3.0)
    seed = boundary_vector_even(k, 3.0, rec.theta)
    pairs = coefficient_sequence(seed, k, 3.0, 14)
    assert pairs[0].ring_index == 1
    assert [p.ring_index for p in pairs] == list(range(1, 15))
    rate = measured_decay_rate(pairs)
    assert abs(rate - abs(eig.contracting)) <= 1e-6


def test_decay_rate_needs_enough_rings():
    k = complex(1.2876960620127247)
    seed = boundary_vector_even(k, 3.0, 1.3)
    pairs = coefficient_sequence(seed, k, 3.0, 6)
    with pytest.raises(ValueError):
        measured_decay_rate(pairs)


@pytest.mark.parametrize("lo, hi", [(5, 5), (-3, 4), (4, 14)])
def test_decay_rate_rejects_a_window_outside_the_rings(lo, hi):
    # An empty window divided by zero, and a negative ``lo`` read rings
    # from the far end of the list.
    k = complex(1.2876960620127247)
    pairs = coefficient_sequence(boundary_vector_even(k, 3.0, 1.3), k, 3.0, 14)
    with pytest.raises(ValueError, match="decay window"):
        measured_decay_rate(pairs, lo, hi)


def test_growing_seed_overflows_loudly():
    # A seed aligned with the expanding direction blows past the float
    # range; the recursion reports that instead of returning inf silently.
    with pytest.raises(OverflowNormError):
        coefficient_sequence((1e250, 1e250), complex(0.3), -3.0, 400)


# Array arguments: every value must equal the scalar call's bits.  A point
# is a wavenumber with its coupling, alpha = +-U[0.1, 20]: off the real
# axis (Re k in (0, 12], Im k in [-1, 1], one in ten on the real axis), on
# the imaginary axis, at an integer (rejected with ValueError) or at a
# band edge (``transfer_eigen`` raises DegenerateError).
ALPHA_SIGNED = st.builds(
    lambda sign, size: sign * size,
    st.sampled_from((1.0, -1.0)),
    st.floats(min_value=0.1, max_value=20.0),
)
OFF_AXIS = st.builds(
    lambda re, im, on_axis: complex(re, 0.0 if on_axis else im),
    st.floats(min_value=0.0, max_value=12.0, exclude_min=True),
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(0, 9).map(lambda i: i == 0),
)


@st.composite
def _point(draw) -> tuple[complex, float]:
    alpha = draw(ALPHA_SIGNED)
    kind = draw(st.integers(0, 9))
    if kind < 6:
        return draw(OFF_AXIS), alpha
    if kind < 8:
        return complex(0.0, draw(st.floats(min_value=1e-3, max_value=12.0))), alpha
    if kind == 8:
        return complex(draw(st.integers(1, 12))), alpha
    gaps = gap_intervals(alpha, 11)
    return complex(gaps[draw(st.integers(0, len(gaps) - 1))].band_edge), alpha


POINT = _point()

def _cmath_values(fn, k: complex, alpha: float) -> list:
    """The scalar formulas in CPython's complex arithmetic, as written before numpy."""
    if fn is transfer_matrix:
        a = alpha / (4j * k)
        e, einv = cmath.exp(1j * math.pi * k), cmath.exp(-1j * math.pi * k)
        m = ((1.0 + a) * e, a * einv, -a * e, (1.0 - a) * einv)
        return [*m, m[0] * m[3] - m[1] * m[2]]
    d = complex(discriminant(k, alpha))
    r = cmath.sqrt(d * d - 1.0)
    z1, z2 = d + r, d - r
    return [z2, z1] if abs(z1) < abs(z2) else [z1, z2]


def _scalar_outcome(fn, k: complex, alpha: float):
    try:
        return fn(k.real if k.imag == 0.0 else k, alpha)
    except (ValueError, DegenerateError) as exc:
        return type(exc)


def _values(fn, out) -> list:
    if fn is transfer_matrix:
        return [out.m11, out.m12, out.m21, out.m22, out.det]
    if fn is transfer_eigen:
        return [out.expanding, out.contracting]
    return list(out)


def _same(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def _assert_same_bits(array_value, scalar_values) -> None:
    array_value = np.asarray(array_value)
    for i, scalar in enumerate(scalar_values):
        assert _same(array_value[i].real, scalar.real), (i, array_value[i], scalar)
        assert _same(array_value[i].imag, scalar.imag), (i, array_value[i], scalar)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(points=st.lists(POINT, min_size=1, max_size=12))
@np.errstate(over="ignore", invalid="ignore")  # near k = 0 both paths give inf and nan
def test_array_calls_equal_the_scalar_calls_bit_for_bit(points):
    k = np.array([p[0] for p in points])
    alpha = np.array([p[1] for p in points])
    for fn in (transfer_matrix, floquet_phases, transfer_eigen):
        outcomes = [_scalar_outcome(fn, *p) for p in points]
        raised = np.array([isinstance(o, type) for o in outcomes])
        # The array call rejects exactly the points whose scalar call
        # raises, with the first check's error, alone or among others.
        for i in np.flatnonzero(raised):
            with pytest.raises(outcomes[i]):
                fn(k[i:i + 1], alpha[i:i + 1])
        if raised.any():
            first = ValueError if ValueError in outcomes else DegenerateError
            with pytest.raises(first):
                fn(k, alpha)
        keep = ~raised
        for p, o in zip(points, outcomes):
            if not isinstance(o, type):
                _assert_same_bits(_values(fn, o), _cmath_values(fn, *p))
        if not keep.any():
            continue
        out = fn(k[keep], alpha[keep])
        scalars = [_values(fn, o) for o, kept in zip(outcomes, keep) if kept]
        for j, value in enumerate(_values(fn, out)):
            _assert_same_bits(value, [s[j] for s in scalars])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(points=st.lists(POINT, min_size=1, max_size=12))
def test_in_spectrum_on_an_array_equals_its_scalar_calls(points):
    # Re(k**2): k**2 on the real axis (integers are flat-band points, always
    # inside), -kappa**2 on the imaginary one; zero energy rides along.
    energies = [(k * k).real for k, _ in points] + [0.0]
    for alpha in {points[0][1], 3.0, -8.0 / math.pi}:
        inside = in_spectrum(np.array(energies), alpha)
        assert inside.tolist() == [bool(in_spectrum(e, alpha)) for e in energies]
