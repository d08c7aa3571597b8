"""Tests for the sign-change scanner and the batched scan-bracket-bisect path."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringchain._rootfind import (
    SCAN_SAMPLES,
    _first_roots,
    _row_brackets,
    bisect,
    bisect_batch,
    bracket_rows,
)
from ringchain.verify import _candidate_indices

NAN, INF = math.nan, math.inf

# Samples biased towards the values the scan treats specially.
SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, NAN, INF, -INF, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
SAMPLES = st.lists(SAMPLE, max_size=40)


def reference_brackets(xs, ys):
    """The per-element loop that ``bracket_rows`` must match on every row."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = []
    good = np.isfinite(ys)
    for i in range(len(xs) - 1):
        if not (good[i] and good[i + 1]):
            continue
        yi, yj = ys[i], ys[i + 1]
        if yi == 0.0:
            out.append((xs[i], xs[i]))
        elif (yi > 0.0) != (yj > 0.0):
            out.append((xs[i], xs[i + 1]))
    if len(ys) and good[-1] and ys[-1] == 0.0:
        out.append((xs[-1], xs[-1]))
    return out


def reference_roots(fn, xs, ys):
    """The per-site loop of scalar scans: every bracket, bisected one at a time."""
    return [a if a == b else bisect(fn, a, b) for a, b in reference_brackets(xs, ys)]


def one_row(xs, ys):
    """``bracket_rows`` on a single sampled function, as ``(lo, hi)`` pairs."""
    _, lo, hi = bracket_rows(xs, np.reshape(np.asarray(ys, dtype=float), (1, -1)))
    return list(zip(lo, hi))


class Counted:
    """A callable that counts the points it is evaluated at."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x, *args):
        self.calls += np.size(x)
        return self.fn(x, *args)


def reference_candidates(vals):
    """The per-element rule of verify's cleared-residual scans."""
    return [
        i for i in range(len(vals) - 1)
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0
    ]


def test_empty_and_single_sample():
    assert one_row([], []) == []
    assert one_row([1.0], [2.0]) == []
    assert one_row([1.0], [0.0]) == [(1.0, 1.0)]
    assert one_row([1.0], [NAN]) == []


def test_nan_breaks_the_scan_only_locally():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    ys = [1.0, NAN, -1.0, 1.0, -1.0]
    assert one_row(xs, ys) == [(2.0, 3.0), (3.0, 4.0)]


def test_zero_followed_by_nan_is_not_reported():
    assert one_row([0.0, 1.0, 2.0], [1.0, 0.0, NAN]) == [(0.0, 1.0)]


def test_sign_change_into_exact_zero_gives_both_brackets():
    xs = [0.0, 1.0, 2.0]
    assert one_row(xs, [1.0, 0.0, 1.0]) == [(0.0, 1.0), (1.0, 1.0)]
    # From below, the zero counts as non-positive: only the degenerate bracket.
    assert one_row(xs, [-1.0, 0.0, 1.0]) == [(1.0, 1.0)]


def test_trailing_zero():
    assert one_row([0.0, 1.0, 2.0], [-1.0, -2.0, 0.0]) == [(2.0, 2.0)]
    assert one_row([0.0, 1.0], [0.0, 0.0]) == [(0.0, 0.0), (1.0, 1.0)]


def test_brackets_ascend_and_keep_sample_values():
    xs = np.linspace(0.0, 10.0, 1001)
    out = one_row(xs, np.sin(xs))
    assert [lo for lo, _ in out] == sorted(lo for lo, _ in out)
    # the exact zero at 0, then sign changes near pi, 2 pi and 3 pi
    assert len(out) == 4 and out[0] == (0.0, 0.0)
    for lo, hi in out:
        assert type(lo) is np.float64 and type(hi) is np.float64
        assert lo in xs and hi in xs
        assert math.sin(lo) * math.sin(hi) <= 0.0


@settings(max_examples=300, deadline=None)
@given(ys=SAMPLES)
def test_brackets_match_the_per_element_loop(ys):
    xs = np.cumsum(np.arange(1, len(ys) + 1, dtype=float)) * 0.37
    out = one_row(xs, ys)
    assert out == reference_brackets(xs, ys)
    assert all(type(v) is np.float64 for pair in out for v in pair)


@settings(max_examples=300, deadline=None)
@given(ys=SAMPLES.filter(len))
def test_cleared_scan_candidates_match_the_per_element_rule(ys):
    vals = np.asarray(ys, dtype=float)
    with np.errstate(all="ignore"):
        got = _candidate_indices(vals).tolist()
        want = reference_candidates(vals)
    assert got == want


def test_row_engine_returns_an_exact_zero_sample_as_it_stands():
    kernel = Counted(lambda x: x - 1.0)
    # The zero at 1 is the first sample of the grid [1, 3]: a degenerate
    # bracket, whose root is the sample itself.  The bisection reads its two
    # ends and takes no step.
    assert _first_roots([1.0], [3.0], kernel, points=3).tolist() == [1.0]
    assert kernel.calls == 3 + 2
    # A degenerate bracket is its own root; the others are bisected as the
    # scalar bisection does.
    roots = bisect_batch(lambda x: x - 1.0, np.array([1.0, 0.0]), np.array([1.0, 3.0]))
    assert roots.tolist() == [1.0, bisect(lambda x: x - 1.0, 0.0, 3.0)] == [1.0, 1.0]


def test_row_engine_roots_ascend():
    # The second row has no lo < hi and so no bracket.
    row, lo, hi = _row_brackets([0.5, 1.0], [20.0, 1.0], np.sin, points=300)
    roots = bisect_batch(np.sin, lo, hi).tolist()
    assert row.tolist() == [0] * 6
    assert roots == sorted(roots)
    assert roots == pytest.approx([j * math.pi for j in range(1, 7)], abs=1e-14)


def test_find_roots_with_samples_does_not_sample_fn():
    # Samples in hand, the scan never calls fn: the samples place the bracket
    # and fn only bisects it, with the scalar bisection's evaluations.
    fn = Counted(lambda x: x - 1.5)
    xs = [0.0, 1.0, 2.0, 3.0]
    _, lo, hi = bracket_rows(xs, [[1.0, 1.0, 2.0, 3.0]])
    assert bisect_batch(fn, lo, hi).tolist() == []
    assert fn.calls == 0
    _, lo, hi = bracket_rows(xs, [[1.0, 1.0, -1.0, -1.0]])
    assert bisect_batch(fn, lo, hi).tolist() == [1.5]
    direct = Counted(fn.fn)
    bisect(direct, 1.0, 2.0)
    assert fn.calls == direct.calls


def test_next_bisects_only_the_first_bracket():
    xs = np.linspace(0.5, 10.0, 100)
    kernel = Counted(np.sin)
    first = _first_roots([0.5], [10.0], kernel, points=100)[0]
    a, b = one_row(xs, np.sin(xs))[0]
    direct = Counted(math.sin)
    assert first == bisect(direct, a, b)
    # The samples, then exactly the evaluations of one scalar bisection.
    assert kernel.calls == len(xs) + direct.calls
    everything = Counted(np.sin)
    _, lo, hi = _row_brackets([0.5], [10.0], everything, points=100)
    assert bisect_batch(everything, lo, hi).size == 3
    assert everything.calls > kernel.calls


@settings(max_examples=200, deadline=None)
@given(
    zeros=st.lists(
        st.one_of(
            st.integers(0, 20).map(lambda i: 0.5 * i),  # on the grid
            st.floats(0.0, 10.0),
        ),
        max_size=5,
    ),
    n=st.integers(1, 60),
    rows=st.integers(1, 3),
)
def test_row_engine_matches_the_per_site_loop(zeros, n, rows):
    def fn(x, shift=0.0):
        out = x * 0.0 + 1.0  # an array for an array, also without zeros
        for z in zeros:
            out = out * (x - z - shift)
        return out

    # Row i is the same function shifted by i on the shifted grid.
    shifts = np.arange(rows, dtype=float)
    row, lo, hi = _row_brackets(shifts, 10.0 + shifts, fn, shifts, points=n)
    got = bisect_batch(lambda x: fn(x, shifts[row]), lo, hi)
    want = []
    for i, shift in enumerate(shifts.tolist()):
        xs = np.linspace(shift, 10.0 + shift, n)
        ys = [fn(x, shift) for x in xs]
        roots = reference_roots(lambda x: fn(x, shift), xs, ys)
        want += [(i, r) for r in roots]
        first = _first_roots([shift], [10.0 + shift], fn, [shift], points=n)[0]
        assert first == roots[0] if roots else math.isnan(first)
    assert list(zip(row.tolist(), got.tolist())) == want


@pytest.mark.parametrize("shared", [False, True], ids=["own-intervals", "one-interval"])
@pytest.mark.parametrize("points", [2, 128, 512, 1024])
def test_row_brackets_in_full_blocks_equal_row_by_row(points, shared):
    # A block holds SCAN_SAMPLES samples: 4,096 rows of 2 points, 64 of
    # 128, 16 of 512, 8 of 1,024.  Enough rows for a block boundary in
    # each case, some dead (no lo < hi), per-row frequencies, and rows on
    # their own intervals or all on one.
    count = SCAN_SAMPLES // points + 5
    freq = 1.0 + 0.37 * np.arange(count)
    lo = np.where(np.arange(count) % 7 == 3, 2.5, 0.1)
    hi = 2.0 + (0.0 if shared else 0.01) * np.arange(count)

    def kernel(x, f):
        return np.sin(f * x)

    got = _row_brackets(lo, hi, kernel, freq, points=points)
    want = [[], [], []]
    for i in range(count):
        row, a, b = _row_brackets(lo[i:i + 1], hi[i:i + 1], kernel, freq[i:i + 1], points=points)
        for col, part in zip(want, (row + i, a, b)):
            col += part.tolist()
    assert [col.tolist() for col in got] == want
    assert max(want[0]) >= SCAN_SAMPLES // points  # a bracket past the first block


@pytest.mark.parametrize("points", [1, 2, 3, 128, 1024])
def test_row_grids_are_linspace_bit_for_bit(points):
    rng = np.random.default_rng(points)
    lo = rng.uniform(-50.0, 50.0, 20) * 10.0 ** rng.integers(-8, 3, 20)
    hi = lo + rng.uniform(1e-9, 30.0, 20)
    sampled = []

    def kernel(x):
        sampled.append(x.copy())
        return np.ones_like(x)

    _row_brackets(lo, hi, kernel, points=points)
    assert np.concatenate(sampled).tobytes() == np.linspace(lo, hi, points, axis=-1).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(SAMPLES, min_size=1, max_size=5),
    width=st.integers(0, 12),
    per_row=st.booleans(),
)
def test_bracket_rows_apply_the_rule_to_each_row(rows, width, per_row):
    ys = np.array([(r + [1.0] * width)[:width] for r in rows], dtype=float).reshape(len(rows), width)
    xs = np.arange(width, dtype=float) * 0.37
    if per_row:  # one grid per row
        xs = xs + np.arange(len(rows))[:, None]
    got_rows, lo, hi = bracket_rows(xs, ys)
    grids = np.broadcast_to(xs, ys.shape)
    want = [(i, a, b) for i, y in enumerate(ys) for a, b in reference_brackets(grids[i], y)]
    assert list(zip(got_rows.tolist(), lo, hi)) == want


# Dyadic points, where a bisection midpoint can land exactly on a zero.
DYADIC = st.integers(-32, 32).map(lambda i: i / 8.0)
POINT = st.one_of(DYADIC, st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(
    zeros=st.lists(POINT, min_size=1, max_size=4),
    ends=st.lists(st.tuples(POINT, POINT), min_size=1, max_size=12),
    flip=st.booleans(),
)
def test_bisect_batch_matches_bisect_bit_for_bit(zeros, ends, flip):
    def fn(x):
        # Plain arithmetic: the same rounding on a float and on an array.
        out = -1.0 if flip else 1.0
        for z in zeros:
            out = out * (x - z)
        return out

    def changes_sign(a, b):
        fa, fb = fn(a), fn(b)
        return fa == 0.0 or fb == 0.0 or (fa > 0.0) != (fb > 0.0)

    # Exact zeros at either end, reversed brackets and zeros at midpoints
    # all occur among these.
    ends = [(a, b) for a, b in ends + [(zeros[0], 4.5), (4.5, zeros[0])] if changes_sign(a, b)]
    assume(ends)
    a, b = (np.array(col) for col in zip(*ends))
    got = bisect_batch(fn, a, b)
    want = [bisect(fn, x, y) for x, y in ends]
    assert got.tolist() == want


def test_bisect_batch_rules_on_fixed_brackets():
    fn = lambda x: x - 0.5  # noqa: E731
    # A midpoint that is an exact zero, a reversed bracket, a zero at
    # either end.
    got = bisect_batch(fn, [0.0, 1.0, 0.5, 0.0], [1.0, 0.0, 2.0, 0.5])
    assert got.tolist() == [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(ValueError, match="no sign change"):
        bisect_batch(fn, [0.0, 1.0], [1.0, 2.0])
    assert bisect_batch(fn, [], []).size == 0
