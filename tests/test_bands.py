"""Tests for the straight-chain band structure."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringchain import _rootfind, bands
from ringchain import (
    ZERO_ENERGY_ALPHA_MIN,
    compute_bands,
    discriminant,
    discriminant_negative,
    gap_intervals,
    in_spectrum,
    lowest_band_threshold,
)
from ringchain.gaps import _negative_edges


def test_repulsive_upper_edges_are_squares():
    spectrum = compute_bands(3.0, 30.0)
    assert len(spectrum.bands) == 6
    for i, band in enumerate(spectrum.bands):
        assert abs(band.e_hi - (i + 1) ** 2) <= 1e-10
        assert band.closed_hi


def test_repulsive_bands_sit_between_consecutive_squares():
    spectrum = compute_bands(3.0, 30.0)
    for i, band in enumerate(spectrum.bands):
        assert band.e_lo > i * i
        assert band.e_hi <= (i + 1) ** 2 + 1e-10
        assert band.width > 0.0


def test_attractive_lower_edges_are_squares():
    spectrum = compute_bands(-3.0, 30.0)
    for i, band in enumerate(spectrum.bands):
        if i == 0:
            continue  # the threshold band starts below zero instead
        assert abs(band.e_lo - i * i) <= 1e-10
        assert band.closed_lo


def test_attractive_threshold_band():
    spectrum = compute_bands(-3.0, 30.0)
    band0 = spectrum.bands[0]
    assert band0.e_lo == lowest_band_threshold(-3.0)
    assert math.isclose(band0.e_lo, -0.7369125399334089, rel_tol=1e-12)
    # For coupling below the borderline the threshold band tops out below 0.
    assert math.isclose(band0.e_hi, -0.22441022678705386, rel_tol=1e-10)


def test_borderline_band_touches_zero():
    spectrum = compute_bands(ZERO_ENERGY_ALPHA_MIN, 10.0)
    assert abs(spectrum.bands[0].e_hi) <= 1e-10


def test_mildly_attractive_band_straddles_zero():
    spectrum = compute_bands(-2.0, 10.0)
    assert spectrum.bands[0].e_lo < 0.0 < spectrum.bands[0].e_hi


def test_flat_eigenvalues_are_integer_squares():
    spectrum = compute_bands(3.0, 30.0)
    assert spectrum.flat_eigenvalues == (1.0, 4.0, 9.0, 16.0, 25.0)


def test_threshold_solves_defining_equation():
    # The threshold is the half-trace = +1 crossing of the hyperbolic form,
    # equivalently kappa * tanh(pi*kappa/2) = -alpha/4.
    alpha = -3.0
    kappa0 = math.sqrt(-lowest_band_threshold(alpha))
    assert abs(discriminant_negative(kappa0, alpha) - 1.0) <= 1e-9
    assert abs(kappa0 * math.tanh(0.5 * math.pi * kappa0) + 0.25 * alpha) <= 1e-9


def test_in_spectrum_matches_discriminant_oracle():
    rng = np.random.default_rng(7)
    for alpha in (3.0, -3.0, 0.5):
        for energy in rng.uniform(-10.0, 30.0, 300):
            energy = float(energy)
            if energy >= 0.0:
                k = math.sqrt(energy)
                if abs(k - round(k)) < 1e-7:
                    continue  # flat-band points are spectrum by convention
                inside = abs(discriminant(k, alpha)) <= 1.0
            elif energy < -1e-12:
                inside = abs(discriminant_negative(math.sqrt(-energy), alpha)) <= 1.0
            assert in_spectrum(energy, alpha) == inside


def test_flat_band_energies_belong_to_spectrum():
    for alpha in (3.0, -3.0):
        for n in (1, 2, 3):
            assert in_spectrum(float(n * n), alpha)


def test_band_serialization_round_trip():
    spectrum = compute_bands(3.0, 10.0)
    d = dataclasses.asdict(spectrum)
    assert d["alpha"] == 3.0
    assert d["e_max"] == 10.0
    assert len(d["bands"]) == len(spectrum.bands)
    first = d["bands"][0]
    assert set(first) == {"e_lo", "e_hi", "k_lo", "k_hi", "closed_lo", "closed_hi"}
    assert first["e_hi"] == spectrum.bands[0].e_hi


def test_emax_truncates_band_list_not_edges():
    # A band whose interior crosses e_max is kept with its true upper edge.
    spectrum = compute_bands(3.0, 30.0)
    assert spectrum.bands[-1].e_hi == 36.0
    assert spectrum.bands[-1].e_lo < 30.0


@pytest.mark.parametrize("e_max", [30.0, 40.0, 50.0, 100.0])
@pytest.mark.parametrize("alpha", [3.0, -3.0, -3.5, -2.6, 1e-6])
def test_band_edges_do_not_depend_on_emax(alpha, e_max):
    # A wider window keeps every band of e_max = 30 to the last bit.  Band
    # 2 of alpha = -3.5 used to end at k 2.8076729364266324 with e_max = 30
    # but at 2.807672936426632 with e_max = 40 or 50.
    ref = compute_bands(alpha, 30.0).bands
    assert compute_bands(alpha, e_max).bands[:len(ref)] == ref


@pytest.mark.parametrize("alpha", [3.0, 0.25, 1e-6, -0.5, -2.6, -3.0, -3.5, -8.0 / math.pi])
def test_band_edges_are_the_gap_solvers_edges(alpha):
    # Every non-integer edge is one the eigenvalue solvers also use: a gap
    # interval's band edge or a threshold edge, equal to the last bit.
    known = {gap.band_edge for gap in gap_intervals(alpha, 9)}
    if alpha < 0.0:
        known |= {-float(x) for x in _negative_edges(alpha)}
    edges = [k for b in compute_bands(alpha, 50.0).bands for k in (b.k_lo, b.k_hi)]
    assert [k for k in edges if k != round(k) and k not in known] == []


@pytest.mark.parametrize("alpha", [1e-6, -1e-6])
def test_weak_coupling_opens_every_gap(alpha):
    # Every gap is open for alpha != 0: one band per unit cell up to e_max,
    # where a scan at the old density merged them all into one band.
    assert len(compute_bands(alpha, 30.0).bands) == 6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    size=st.floats(min_value=-12.0, max_value=-2.0).map(lambda e: 10.0**e),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_weak_coupling_gap_widths_follow_first_order(size, sign):
    # All gaps open for alpha != 0: gap n >= 1 is |alpha|/(2 pi n) wide, up
    # to alpha**2/n, and to the rounding of n + u where u is its width.
    alpha = sign * size
    for gap in gap_intervals(alpha, 20)[1 if alpha > 0.0 else 0:]:
        width = gap.k_hi - gap.k_lo
        assert abs(width - size / (2.0 * math.pi * gap.n)) <= size * size / gap.n + 2.0 * math.ulp(gap.n)


@pytest.mark.parametrize("alpha", [1e-6, -1e-6, 1e-9, -1e-9])
def test_weak_coupling_writes_one_band_per_unit_cell(alpha):
    # A scan and a midpoint test merged the bands at e_max = 100: the top
    # band of alpha = 1e-6 reached from 7 to 11, alpha = -1e-6 wrote 8 bands
    # and alpha = 1e-9 a single one.
    found = compute_bands(alpha, 100.0).bands
    assert [math.ceil(b.k_hi) for b in found] == list(range(1, 11))
    assert all(b.k_lo < b.k_hi for b in found)


def test_edges_are_found_without_a_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("an edge finder scanned")

    monkeypatch.setattr(_rootfind, "_row_brackets", scan)
    monkeypatch.setattr(bands, "_row_brackets", scan, raising=False)
    gap_intervals(3.1, 20)
    _negative_edges(np.linspace(-8.0, -0.1, 200))
    compute_bands(-3.0, 30.0)


@pytest.mark.parametrize("alpha, count", [(1e-14, 4), (-1e-14, 5)])
def test_gaps_that_round_shut_join_their_bands(alpha, count):
    # From gap 4 (repulsive) or 5 (attractive) up, a gap is narrower than
    # half the spacing of doubles next to its integer: n + u rounds to n,
    # and the bands on either side of it are one.
    found = compute_bands(alpha, 100.0).bands
    assert len(found) == count
    assert found[-1].k_hi == 11.0
