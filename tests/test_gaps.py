"""Tests for gap eigenvalues of the bent chain."""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringchain import (
    ZERO_ENERGY_ALPHA_MIN,
    gap_eigenvalues,
    gap_function,
    gap_function_negative,
    gap_function_negative_curvature,
    gap_intervals,
    double_points_in_gap,
    gap_eigenvalues_grid,
    is_singular_angle,
    kappa_cutoff,
    lowest_band_threshold,
    odd_zero_crossing_angle,
    recover_double_angle,
    singular_angles,
    solve_gap,
    solve_gap_near_edge,
    solve_negative,
    trace_eigenvalue_curve,
)
from ringchain import _rootfind, gaps
from ringchain.gaps import (
    _gaps_at,
    _negative_edges,
    _odd_residual_scaled,
    _sector_roots,
    double_eigenvalue_residual,
)

THETA = st.floats(min_value=0.3, max_value=math.pi - 0.3, allow_nan=False)
COUPLING = st.floats(min_value=1.0, max_value=6.0, allow_nan=False)
# Couplings below the borderline, where the odd residual crosses zero energy.
DEEP = st.floats(min_value=-8.0, max_value=ZERO_ENERGY_ALPHA_MIN - 1e-3)


def test_gap_intervals_repulsive_layout():
    gaps = gap_intervals(3.0, 3)
    assert [g.n for g in gaps] == [0, 1, 2, 3]
    for g in gaps[1:]:
        # Gaps open upward from each flat-band momentum for alpha > 0.
        assert g.k_lo == float(g.n)
        assert g.k_lo < g.k_hi < g.n + 1
        assert g.integer_edge == float(g.n)
        assert g.band_edge == g.k_hi


def test_gap_intervals_attractive_layout():
    gaps = gap_intervals(-3.0, 3)
    for g in gaps:
        if g.n == 0:
            continue
        # Gaps open downward from each flat-band momentum for alpha < 0.
        assert g.k_hi == float(g.n)
        assert g.integer_edge == float(g.n)
        assert g.band_edge == g.k_lo
        assert g.k_lo < g.k_hi
    # At the borderline the half-trace is exactly -1 at the first sample:
    # the first gap still reaches k = 0.
    assert gap_intervals(ZERO_ENERGY_ALPHA_MIN, 1)[0].k_lo == 0.0


def test_first_gap_fixture_roots():
    k_even = solve_gap(3.0, math.pi / 5.0, 1, "+")
    k_odd = solve_gap(3.0, math.pi / 5.0, 1, "-")
    assert math.isclose(k_even, 1.1239278679448357, rel_tol=1e-12)
    assert math.isclose(k_odd, 1.3239223583327728, rel_tol=1e-12)


def test_solved_roots_satisfy_matching_conditions():
    theta = math.pi / 5.0
    k_even = solve_gap(3.0, theta, 1, "+")
    k_odd = solve_gap(3.0, theta, 1, "-")
    assert abs(math.cos(k_even * theta) - gap_function(k_even, 3.0)) < 1e-10
    assert abs(-math.cos(k_odd * theta) - gap_function(k_odd, 3.0)) < 1e-10


def test_solve_gap_root_is_unique_in_gap():
    # Independent audit: a dense scan of the matching condition over the
    # gap finds exactly one sign change, at the solver's root.
    alpha, theta = 3.0, 1.1
    gap = gap_intervals(alpha, 2)[2]
    k_root = solve_gap(alpha, theta, 2, "+")
    xs = np.linspace(gap.k_lo + 1e-9, gap.k_hi - 1e-9, 4001)
    vals = [math.cos(x * theta) - gap_function(x, alpha) for x in xs]
    crossings = [
        i for i in range(len(xs) - 1) if vals[i] * vals[i + 1] < 0.0
    ]
    assert len(crossings) == 1
    i = crossings[0]
    assert xs[i] <= k_root <= xs[i + 1]


def test_singular_angle_inventory_small_n():
    # Even-sector singular angles are (n+1-2l)*pi/n, odd-sector (n-2l)*pi/n,
    # both restricted to [0, pi).
    for n in range(1, 7):
        for parity, offset in (("+", n + 1), ("-", n)):
            angles = singular_angles(n, parity)
            expected = sorted(
                {
                    (offset - 2 * ell) * math.pi / n
                    for ell in range(offset + 1)
                    if 0.0 <= (offset - 2 * ell) * math.pi / n < math.pi
                }
            )
            assert sorted(angles) == pytest.approx(expected)


def test_singular_angle_examples():
    assert sorted(singular_angles(3, "+")) == pytest.approx([0.0, 2 * math.pi / 3])
    assert sorted(singular_angles(3, "-")) == pytest.approx([math.pi / 3])
    assert is_singular_angle(2 * math.pi / 3 + 1e-12, 3, "+")
    assert not is_singular_angle(2 * math.pi / 3 + 1e-3, 3, "+")


def test_eigenvalue_absent_exactly_at_singular_angle():
    assert solve_gap(3.0, 2.0 * math.pi / 3.0, 3, "+") is None
    assert solve_gap(3.0, 2.0 * math.pi / 3.0 + 0.05, 3, "+") is not None


def test_gap_eigenvalue_records_are_consistent():
    records = gap_eigenvalues(3.0, 1.0, 3)
    assert records
    for r in records:
        assert r.theta == 1.0
        assert r.residual < 1e-9
        assert r.multiplicity == 1
        assert r.energy == pytest.approx(r.k * r.k)
        gap = gap_intervals(3.0, 3)[r.gap_index]
        assert gap.k_lo < r.k < gap.k_hi


def test_double_points_satisfy_tangent_relation():
    # Parity-degenerate momenta solve k*tan(pi*k) = alpha/2.
    for gap in gap_intervals(3.0, 3)[1:]:
        points = double_points_in_gap(3.0, gap)
        assert len(points) == 1
        k_star = points[0]
        assert abs(k_star * math.tan(math.pi * k_star) - 1.5) < 1e-9


def test_double_angle_recovery_and_merged_record():
    gap1 = gap_intervals(3.0, 1)[1]
    k_star = double_points_in_gap(3.0, gap1)[0]
    theta_star = recover_double_angle(k_star, 3.0)
    assert math.isclose(k_star, 1.2756700453097611, rel_tol=1e-12)
    assert math.isclose(theta_star, 1.2313500129365125, rel_tol=1e-12)
    # Both parity solvers land on the same momentum there...
    k_even = solve_gap(3.0, theta_star, 1, "+")
    k_odd = solve_gap(3.0, theta_star, 1, "-")
    assert abs(k_even - k_star) < 1e-9
    assert abs(k_odd - k_star) < 1e-9
    # ...and the record set reports one eigenvalue of multiplicity two.
    merged = [r for r in gap_eigenvalues(3.0, theta_star, 1) if r.gap_index == 1]
    assert len(merged) == 1
    assert merged[0].multiplicity == 2
    assert merged[0].parity == "+-"


def test_negative_roots_fixtures_and_conditions():
    kappa_even = solve_negative(-3.0, 1.0, "+")
    kappa_odd = solve_negative(-3.0, 1.0, "-")
    assert math.isclose(kappa_even, 0.8615691865149844, rel_tol=1e-12)
    assert math.isclose(kappa_odd, 0.45543538071420087, rel_tol=1e-12)
    assert abs(
        math.cosh(kappa_even) - gap_function_negative(kappa_even, -3.0)
    ) < 1e-10
    assert abs(
        -math.cosh(kappa_odd) - gap_function_negative(kappa_odd, -3.0)
    ) < 1e-10


def test_negative_even_root_is_bracketed():
    # The even negative eigenvalue sits between the threshold momentum and
    # the sweep cutoff for every bend angle.
    alpha = -3.0
    x1 = math.sqrt(-lowest_band_threshold(alpha))
    cutoff = kappa_cutoff(alpha)
    assert math.isclose(cutoff, 1.5002417505725039, rel_tol=1e-12)
    for theta in (0.3, 1.0, 1.9, 2.7):
        kappa = solve_negative(alpha, theta, "+")
        assert x1 < kappa < cutoff


def test_odd_negative_root_exists_below_crossing_angle_only():
    alpha = -3.0
    theta_c = odd_zero_crossing_angle(alpha)
    assert math.isclose(
        theta_c,
        math.sqrt(2.0 * gap_function_negative_curvature(alpha)),
        rel_tol=1e-12,
    )
    assert math.isclose(theta_c, 1.958929867883135, rel_tol=1e-12)
    assert solve_negative(alpha, theta_c - 0.05, "-") is not None
    assert solve_negative(alpha, theta_c + 0.05, "-") is None


def test_traced_odd_curve_crosses_zero_energy():
    alpha = -4.0
    theta_c = odd_zero_crossing_angle(alpha)
    grid = np.linspace(theta_c - 0.2, theta_c + 0.2, 41)
    curve = trace_eigenvalue_curve(alpha, "-", 1, grid, jump_factor=3.0)
    energies = np.asarray(curve.energies(), dtype=float)
    thetas = np.asarray(curve.thetas(), dtype=float)
    assert len(energies) == 41
    signs = np.sign(energies)
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    i = flips[0]
    t_cross = thetas[i] - energies[i] * (thetas[i + 1] - thetas[i]) / (
        energies[i + 1] - energies[i]
    )
    assert abs(t_cross - theta_c) < 5e-3


@settings(max_examples=40, deadline=None)
@given(alpha=COUPLING, theta=THETA)
def test_first_gap_even_root_properties(alpha, theta):
    assume(all(abs(theta - t) > 1e-2 for t in singular_angles(1, "+")))
    gap1 = gap_intervals(alpha, 1)[1]
    k = solve_gap(alpha, theta, 1, "+")
    assume(k is not None)
    assert gap1.k_lo < k < gap1.k_hi
    assert abs(math.cos(k * theta) - gap_function(k, alpha)) < 1e-9


def negative_odd_reference(kappa, alpha, theta):
    """``(-cosh(kappa*theta) - gap_function_negative(kappa))/kappa**2`` to 50 digits.

    In doubles this form loses about 1e-16/kappa**2 to cancellation, which
    exceeds the tolerance below kappa ~ 3e-4 (couplings just under the
    borderline); the reference must not carry that error.
    """
    with mpmath.workdps(50):
        k, a, th = (mpmath.mpf(v) for v in (kappa, alpha, theta))
        t = a / 4 * mpmath.sinh(mpmath.pi * k) / k
        d = mpmath.cosh(mpmath.pi * k) + t
        denom = t + mpmath.sign(d) * mpmath.sqrt(d * d - 1)
        g = -mpmath.cosh(mpmath.pi * k) - mpmath.sinh(mpmath.pi * k) ** 2 / denom
        return float((-mpmath.cosh(k * th) - g) / (k * k))


@settings(max_examples=60, deadline=None)
@given(
    alpha=DEEP,
    theta=st.floats(min_value=0.01, max_value=math.pi - 0.01),
    frac=st.floats(min_value=0.01, max_value=0.99),
)
def test_scaled_odd_residual_matches_both_energy_forms(alpha, theta, frac):
    # Positive energy E = s**2: the odd residual -cos - gap_function over -E.
    s = frac
    curvature = gap_function_negative_curvature(alpha)
    ref = -(-math.cos(s * theta) - gap_function(s, alpha)) / (s * s)
    got = _odd_residual_scaled(s, alpha, theta, curvature)
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))
    # Negative energy E = -kappa**2 at s = -kappa, below the threshold band.
    kappa = frac * _negative_edges(alpha)[1]
    ref = negative_odd_reference(kappa, alpha, theta)
    got = _odd_residual_scaled(-kappa, alpha, theta, curvature)
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


@settings(max_examples=30, deadline=None)
@given(alpha=DEEP, theta=st.floats(min_value=0.01, max_value=math.pi - 0.01))
def test_scaled_odd_residual_tends_to_its_zero_energy_limit(alpha, theta):
    curvature = gap_function_negative_curvature(alpha)
    limit = curvature - 0.5 * theta * theta
    for s in (1e-3, 1e-4, 1e-5, 1e-6):
        for signed in (s, -s):
            got = _odd_residual_scaled(signed, alpha, theta, curvature)
            assert abs(got - limit) <= 1e3 * s * s


@pytest.mark.parametrize("alpha", [3.0, -3.0])
def test_grid_rows_equal_the_one_angle_solve(alpha):
    # The CLI's 128-angle grid, plus angles singular for gaps 2 and 3.
    thetas = [(i + 0.5) * math.pi / 128 for i in range(128)]
    thetas += [math.pi / 2.0, 2.0 * math.pi / 3.0]
    assert is_singular_angle(thetas[-1], 3, "+")
    grid = gap_eigenvalues_grid(alpha, thetas, 5)
    assert len(grid) == len(thetas)
    for theta, records in zip(thetas, grid):
        one = gap_eigenvalues(alpha, theta, 5)
        assert [repr(r) for r in records] == [repr(r) for r in one]
    assert not any(r.gap_index == 3 and "+" in r.parity for r in grid[-1])


def reprs(values):
    return [None if v is None else repr(float(v)) for v in values]


def one_by_one(slots):
    """The signed root of every one-angle slot, each from a call of its own."""
    return [s for slot in slots for (s,) in _sector_roots([slot])]


def test_gap_solves_batched_across_couplings_equal_one_by_one():
    slots = [
        (alpha, gap.n, parity, [theta])
        for alpha in (3.0, -3.0, 1.7)
        for theta in (0.4, 2.0 * math.pi / 3.0, 2.5)
        for gap in gap_intervals(alpha, 3)
        for parity in ("+", "-")
    ]
    batched = [s for (s,) in _sector_roots(slots)]
    assert reprs(batched) == reprs(one_by_one(slots))
    ks = [s if s > 0.0 else None for s in batched]
    assert reprs(ks) == reprs(solve_gap(a, t, n, p) for a, n, p, (t,) in slots)
    assert any(k is None for k in ks) and any(k is not None for k in ks)


def test_solve_gap_reads_the_gap_of_its_own_coupling():
    # Gap 2 is wider at alpha = 3 than at alpha = 2, and this root lies in
    # the part that alpha = 2's gap leaves out.
    k = solve_gap(3.0, 0.5, 2, "+")
    assert k == 2.2052998308679292
    assert gap_intervals(2.0, 2)[2].k_hi < k < gap_intervals(3.0, 2)[2].k_hi


def _grid_root(alpha, theta, n, parity, negative):
    """The grid's root of one sector at one angle, or None."""
    for r in gap_eigenvalues(alpha, theta, 5):
        if (r.gap_index, r.parity, r.energy < 0.0) == (n, parity, negative):
            return r.k
    return None


@pytest.mark.parametrize("count", [1, 8, 9, 17])
def test_mixed_queries_equal_one_by_one_and_the_grid(count):
    # The rows of all slots are scanned together, 8 rows of 1,024 points to
    # a block, and the gap function is sampled once per run of one
    # coupling and gap.  Runs of three slots put block boundaries inside
    # a run; pi/2 and 2*pi/3 are singular for gaps 2 and 3 (even), and a
    # positive-energy slot and a negative-energy slot name gap 1's odd
    # sector below the borderline coupling.
    couplings = (3.0, 1.7, -3.1, -2.6, 2.2, -4.0)
    thetas = (0.7, math.pi / 2.0, 2.0 * math.pi / 3.0, 1.9, 0.35)
    positive = [
        (couplings[i // 3 % len(couplings)], 3 - i // 3 % 3, "+-"[i % 2], [thetas[i % len(thetas)]])
        for i in range(count)
    ]
    # The negative-energy sectors at the same angles: gap 0 even, gap 1 odd.
    negative = [
        (alpha, 0 if parity == "+" else 1, parity, theta)
        for alpha, _, parity, theta in positive + [(-3.1, None, "-", [0.4])]
    ]
    got = [s for (s,) in _sector_roots(positive + negative)]
    assert reprs(got) == reprs(one_by_one(positive + negative))
    ks = [s if s > 0.0 else None for s in got[:count]]
    kappas = [-s if s < 0.0 else None for s in got[count:]]
    assert reprs(ks) == reprs(solve_gap(a, t, n, p) for a, n, p, (t,) in positive)
    assert reprs(kappas) == reprs(solve_negative(a, t, p) for a, _, p, (t,) in negative)
    assert reprs(ks) == reprs(_grid_root(a, t, n, p, False) for a, n, p, (t,) in positive)
    assert reprs(kappas) == reprs(_grid_root(a, t, n, p, True) for a, n, p, (t,) in negative)


@pytest.mark.parametrize(
    "reader, args",
    [
        (gap_eigenvalues_grid, (-3.1, [0.5, 1.0, 2.0], 5)),
        (trace_eigenvalue_curve, (3.1, "+", 2, [0.5, 1.0, 2.0])),
        (solve_gap, (3.0, 0.5, 2, "+")),
    ],
    ids=["grid", "curve", "solve_gap"],
)
def test_every_reader_finds_its_gaps_in_one_call(monkeypatch, reader, args):
    calls = []

    def counted(alphas, ns):
        calls.append(ns)
        return _gaps_at(alphas, ns)

    monkeypatch.setattr(gaps, "_gaps_at", counted)
    reader(*args)
    assert len(calls) == 1


BOTH = "parity must be '\\+', '-' or 'both'$"
ONE = "parity must be '\\+' or '-'$"


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda p: gap_eigenvalues(3.0, 1.0, 3, p), BOTH),
        (lambda p: gap_eigenvalues_grid(3.0, [1.0, 2.0], 3, p), BOTH),
        (lambda p: solve_gap(3.0, 1.0, 2, p), ONE),
        (lambda p: solve_negative(-3.0, 1.0, p), ONE),
        (lambda p: trace_eigenvalue_curve(-3.0, p, 0, [1.0, 2.0]), ONE),
    ],
    ids=["gap_eigenvalues", "grid", "solve_gap", "solve_negative", "curve"],
)
@pytest.mark.parametrize("parity", ["x", "even"])
def test_a_bad_parity_is_an_error(read, message, parity):
    with pytest.raises(ValueError, match=message):
        read(parity)


def test_traced_curves_equal_the_one_angle_solvers():
    alpha = -3.0
    thetas = np.linspace(0.3, 2.8, 12)
    curve = trace_eigenvalue_curve(alpha, "+", 2, thetas)
    assert list(curve.samples) == [(t, solve_gap(alpha, t, 2, "+")) for t in thetas]
    curve = trace_eigenvalue_curve(alpha, "+", 0, thetas)
    assert list(curve.samples) == [(t, -solve_negative(alpha, t, "+")) for t in thetas]


@pytest.mark.parametrize("alpha", [-2.6, -3.1, -4.0])
def test_every_reader_of_the_deep_odd_sector_equals_the_grid(alpha):
    # Below the borderline gap 1's odd eigenvalue crosses zero energy; the
    # one-angle solvers and the traced curve must report the roots the
    # grid writes, bit for bit, on both sides of the crossing.
    thetas = [(i + 0.5) * math.pi / 64 for i in range(64)]
    odd = [
        next(r for r in records if r.gap_index == 1 and r.parity == "-")
        for records in gap_eigenvalues_grid(alpha, thetas, 1, "-")
    ]
    assert {r.energy > 0.0 for r in odd} == {True, False}

    assert reprs(solve_gap(alpha, t, 1, "-") for t in thetas) == reprs(
        r.k if r.energy > 0.0 else None for r in odd
    )
    assert reprs(solve_negative(alpha, t, "-") for t in thetas) == reprs(
        r.k if r.energy < 0.0 else None for r in odd
    )
    curve = trace_eigenvalue_curve(alpha, "-", 1, thetas)
    assert curve.thetas() == thetas
    assert reprs(s for _, s in curve.samples) == reprs(math.copysign(r.k, r.energy) for r in odd)


def test_double_eigenvalue_residual_on_an_array_keeps_the_scalar_rule():
    # Just above 0.5 and 1.5 the tangent is below -1e15, at 1.5 above 1e15.
    ks = np.array([1.2, 1.2756700453097611, 0.5000000000000001, 1.5, 1.5000000000000002, 2.9])
    got = double_eigenvalue_residual(ks, 3.0)
    want = []
    for k in ks.tolist():
        t = math.tan(math.pi * k)
        want.append(math.copysign(math.inf, k * t) if abs(t) > 1e15 else k * t - 1.5)
    assert got[2:5].tolist() == [-math.inf, math.inf, -math.inf]
    assert np.sign(got).tolist() == np.sign(want).tolist()
    assert got == pytest.approx(want, rel=1e-12)
    assert double_eigenvalue_residual(1.2, 3.0) == got[0]


# Attractive couplings on both sides of the borderline, and a repulsive one.
NEGATIVE_QUERY = st.tuples(
    st.one_of(
        st.floats(min_value=-6.0, max_value=ZERO_ENERGY_ALPHA_MIN - 1e-3),
        st.floats(min_value=ZERO_ENERGY_ALPHA_MIN + 1e-3, max_value=-0.5),
        st.just(2.0),
    ),
    st.floats(min_value=1e-3, max_value=math.pi - 1e-3),
    st.sampled_from("+-"),
)


@settings(max_examples=25, deadline=None)
@given(queries=st.lists(NEGATIVE_QUERY, min_size=1, max_size=6), repeat=st.booleans())
def test_negative_solves_batched_across_couplings_equal_one_by_one(queries, repeat):
    if repeat:  # the same coupling at a second angle and the other parity
        alpha, theta, parity = queries[0]
        queries.append((alpha, math.pi - theta, "-" if parity == "+" else "+"))
    slots = [(alpha, 0 if parity == "+" else 1, parity, [theta]) for alpha, theta, parity in queries]
    kappas = [-s if s < 0.0 else None for (s,) in _sector_roots(slots)]
    assert reprs(kappas) == reprs(solve_negative(*q) for q in queries)


# Repulsive couplings, and odd sectors from the borderline up to zero.
NO_NEGATIVE_ENERGY = [
    (alpha, parity)
    for alpha in (0.3, 2.0, 5.0)
    for parity in ("+", "-")
] + [(alpha, "-") for alpha in (ZERO_ENERGY_ALPHA_MIN, -2.0, -0.5, -1e-9)]


def test_solve_negative_scans_nothing_where_no_negative_energy_lives(monkeypatch):
    calls, real = [], _rootfind._row_brackets

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gaps, "_row_brackets", counted)
    monkeypatch.setattr(_rootfind, "_row_brackets", counted)
    for alpha, parity in NO_NEGATIVE_ENERGY:
        for theta in (0.1, 1.0, 3.0):
            assert solve_negative(alpha, theta, parity) is None
    assert calls == []


def test_solve_negative_keeps_the_sector_roots_on_a_grid():
    # The answer of a one-slot ``_sector_roots`` call, as solve_negative
    # read it before it stopped solving the sectors without negative energy.
    couplings = (-6.0, -3.0, ZERO_ENERGY_ALPHA_MIN, -2.0, -0.5, 0.3, 2.0, 5.0)
    thetas = (0.05, 0.7, 1.6, 2.5, 3.1)
    for alpha in couplings:
        for parity in ("+", "-"):
            slots = [(alpha, 0 if parity == "+" else 1, parity, [t]) for t in thetas]
            want = [-s if s < 0.0 else None for s in one_by_one(slots)]
            got = [solve_negative(alpha, t, parity) for t in thetas]
            assert reprs(got) == reprs(want), (alpha, parity)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0, 1.0, "+"), "uncoupled"),
        ((0.0, 1.0, "-"), "uncoupled"),
        ((2.0, 1.0, "x"), "parity"),
        ((-3.0, 1.0, "even"), "parity"),
        ((2.0, 0.0, "-"), "theta"),
        ((2.0, math.pi, "+"), "theta"),
        ((-3.0, 4.0, "+"), "theta"),
    ],
)
def test_solve_negative_keeps_its_errors(args, message):
    with pytest.raises(ValueError, match=message):
        solve_negative(*args)


def mp_bisect(f, lo, hi):
    """The one sign change of ``f`` on ``(lo, hi)``, to 1e-25 relative in 50 digits."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        f_lo = f(lo)
        assert (f_lo > 0) != (f(hi) > 0)
        while hi - lo > 1e-25 * hi:
            mid = (lo + hi) / 2
            if (f(mid) > 0) == (f_lo > 0):
                lo = mid
            else:
                hi = mid
        return lo


def mp_gap_edge(alpha, n):
    """Non-integer edge of gap ``n``: where the half-trace is ``(-1)**n``, to 50 digits.

    The cell excludes its integers, where the half-trace is ``±1`` too.
    """
    with mpmath.workdps(50):
        a, tiny = mpmath.mpf(alpha), mpmath.mpf("1e-18")
        target = 1 if n % 2 == 0 else -1

        def f(k):
            return mpmath.cos(mpmath.pi * k) + a / (4 * k) * mpmath.sin(mpmath.pi * k) - target

        cell = n if alpha > 0.0 else n - 1
        return mp_bisect(f, cell + tiny, cell + 1 - tiny)


def mp_threshold_edge(alpha, target):
    """Root of ``discriminant_negative = target`` (``x1`` or ``x_-1``), to 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)

        def f(x):
            return mpmath.cosh(mpmath.pi * x) + a / (4 * x) * mpmath.sinh(mpmath.pi * x) - target

        return mp_bisect(f, mpmath.mpf("1e-18"), abs(a) / 2 + 1)


def ulps(got: float, ref) -> float:
    return float(abs(mpmath.mpf(got) - ref)) / math.ulp(float(ref))


@settings(max_examples=25, deadline=None)
@given(
    couplings=st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=6.0),
            st.sampled_from([1.0, -1.0]),
            st.integers(1, 6),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_gap_edges_batched_across_couplings_equal_gap_intervals(couplings):
    alphas, ns, want = [], [], []
    for size, sign, n_max in couplings:
        alpha = sign * size
        for gap in gap_intervals(alpha, n_max):
            alphas.append(alpha)
            ns.append(gap.n)
            want.append(gap)
            if gap.band_edge != 0.0:
                assert ulps(gap.band_edge, mp_gap_edge(alpha, gap.n)) <= 2.0
    assert [repr(g) for g in _gaps_at(alphas, ns)] == [repr(g) for g in want]


# |alpha| from 1e-12 to 20, and couplings within 1e-12 to 1e-3 of the
# borderline on either side, where the constant term of the edge equations
# for x_-1 and gap 1 vanishes.
EDGE_ALPHA = st.one_of(
    st.builds(lambda e, sign: sign * 10.0**e,
              st.floats(min_value=-12.0, max_value=math.log10(20.0)), st.sampled_from([1.0, -1.0])),
    st.builds(lambda e, sign: ZERO_ENERGY_ALPHA_MIN + sign * 10.0**e,
              st.floats(min_value=-12.0, max_value=-3.0), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=EDGE_ALPHA, n_max=st.integers(1, 20))
def test_every_edge_matches_high_precision(alpha, n_max):
    for gap in gap_intervals(alpha, n_max):
        if gap.band_edge == 0.0:  # gap 1 at or below the borderline reaches k = 0
            assert alpha <= ZERO_ENERGY_ALPHA_MIN and gap.n == 1
        else:
            assert ulps(gap.band_edge, mp_gap_edge(alpha, gap.n)) <= 2.0
    if alpha < 0.0:
        x1, x_m1 = _negative_edges(alpha)
        assert ulps(x1, mp_threshold_edge(alpha, 1)) <= 2.0
        assert math.isnan(x_m1) == (alpha >= ZERO_ENERGY_ALPHA_MIN)
        if alpha < ZERO_ENERGY_ALPHA_MIN:
            assert ulps(x_m1, mp_threshold_edge(alpha, -1)) <= 2.0


def test_gap_one_odd_root_near_zero_energy_matches_high_precision():
    # Just past the zero-crossing angle both terms of the unscaled odd
    # condition are 1 - O(k**2) and cancel; the root was once off by 6.3e-9.
    alpha, theta = -2.941805, 1.902136176978195
    (k,) = [r.k for r in gap_eigenvalues(alpha, theta, 1) if r.parity == "-"]
    with mpmath.workdps(50):
        a, th = mpmath.mpf(alpha), mpmath.mpf(theta)

        def odd_condition(x):
            t = a / 4 * mpmath.sin(mpmath.pi * x) / x
            d = mpmath.cos(mpmath.pi * x) + t
            g = -mpmath.cos(mpmath.pi * x) + mpmath.sin(mpmath.pi * x) ** 2 / (
                t - mpmath.sqrt(d * d - 1)
            )
            return -mpmath.cos(x * th) - g

        ref = mpmath.findroot(odd_condition, (mpmath.mpf("0.0033"), mpmath.mpf("0.0034")),
                              solver="anderson")
        assert abs(float((k - ref) / ref)) <= 1e-10


def mp_kappa_cutoff(alpha, guess):
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        return mpmath.findroot(lambda k: k * mpmath.tanh(mpmath.pi * k) + a / 2, mpmath.mpf(guess))


def relative_error(got, ref) -> float:
    with mpmath.workdps(50):
        return float(abs((mpmath.mpf(got) - ref) / ref))


# Couplings on both sides of the borderline, within 1e-6 of it as well.
EDGE_COUPLINGS = [-0.3, -1.0, -2.0, ZERO_ENERGY_ALPHA_MIN + 1e-6, ZERO_ENERGY_ALPHA_MIN + 1e-9,
                  ZERO_ENERGY_ALPHA_MIN - 1e-9, ZERO_ENERGY_ALPHA_MIN - 1e-6,
                  ZERO_ENERGY_ALPHA_MIN - 0.05, -3.0, -4.5, -7.9]


def test_threshold_edges_and_cutoff_of_many_couplings_match_high_precision():
    alphas = np.array(EDGE_COUPLINGS)
    x1, x_m1 = _negative_edges(alphas)
    cutoff = kappa_cutoff(alphas)
    for alpha, a, b, c in zip(alphas.tolist(), x1, x_m1, cutoff):
        assert relative_error(a, mp_threshold_edge(alpha, 1)) <= 1e-13
        assert relative_error(c, mp_kappa_cutoff(alpha, c)) <= 1e-13
        # The deeper edge exists exactly below the borderline.
        assert math.isnan(b) == (alpha > ZERO_ENERGY_ALPHA_MIN)
        if alpha < ZERO_ENERGY_ALPHA_MIN:
            assert relative_error(b, mp_threshold_edge(alpha, -1)) <= 1e-13
    assert (x1[3], cutoff[3]) == (_negative_edges(alphas[3])[0], kappa_cutoff(alphas[3]))


def test_deeper_threshold_edge_next_to_the_borderline_matches_high_precision():
    # Within 1e-6 below the borderline, discriminant_negative + 1 is the
    # difference of terms near 1 and -1: a scan of it placed x_-1 only to
    # about 1e-10 relative.  Its factored form has no such cancellation.
    alpha = ZERO_ENERGY_ALPHA_MIN - 1e-6
    x_m1 = _negative_edges(alpha)[1]
    assert relative_error(x_m1, mp_threshold_edge(alpha, -1)) <= 1e-13


@pytest.mark.xfail(strict=True, reason="solve_gap discards roots within EDGE_WINDOW = 1e-9 of the band edge")
def test_small_angle_keeps_the_eigenvalues_next_to_the_band_edge():
    # At alpha = 3 and theta = 0.01 these four states lie 6e-11 to 5e-10
    # below their non-integer band edge; the one-sided edge solver finds
    # each of them.
    alpha, theta = 3.0, 0.01
    gaps = {g.n: g for g in gap_intervals(alpha, 3)}
    found = {(r.gap_index, r.parity): r.k for r in gap_eigenvalues(alpha, theta, 3, "both")}
    for n, parity in ((0, "+"), (1, "-"), (2, "+"), (3, "-")):
        edge_root = solve_gap_near_edge(alpha, theta, gaps[n], parity)
        assert (n, parity) in found
        assert abs(found[(n, parity)] - edge_root) <= 1e-12
