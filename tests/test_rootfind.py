"""Tests for the sign-change scanners and the scan-bracket-bisect path."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringchain._rootfind import (
    bisect,
    bisect_batch,
    bracket_rows,
    brackets_from_samples,
    find_roots,
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
    """The per-element loop that ``brackets_from_samples`` must match."""
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
    """The per-site loop that ``find_roots`` replaced."""
    roots = []
    for a, b in brackets_from_samples(xs, ys):
        roots.append(a if a == b else bisect(fn, a, b))
    return roots


class Counted:
    """A callable that counts its evaluations."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def reference_candidates(vals):
    """The per-element rule of verify's cleared-residual scans."""
    return [
        i for i in range(len(vals) - 1)
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0
    ]


def test_empty_and_single_sample():
    assert brackets_from_samples([], []) == []
    assert brackets_from_samples([1.0], [2.0]) == []
    assert brackets_from_samples([1.0], [0.0]) == [(1.0, 1.0)]
    assert brackets_from_samples([1.0], [NAN]) == []


def test_nan_breaks_the_scan_only_locally():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    ys = [1.0, NAN, -1.0, 1.0, -1.0]
    assert brackets_from_samples(xs, ys) == [(2.0, 3.0), (3.0, 4.0)]


def test_zero_followed_by_nan_is_not_reported():
    assert brackets_from_samples([0.0, 1.0, 2.0], [1.0, 0.0, NAN]) == [(0.0, 1.0)]


def test_sign_change_into_exact_zero_gives_both_brackets():
    xs = [0.0, 1.0, 2.0]
    assert brackets_from_samples(xs, [1.0, 0.0, 1.0]) == [(0.0, 1.0), (1.0, 1.0)]
    # From below, the zero counts as non-positive: only the degenerate bracket.
    assert brackets_from_samples(xs, [-1.0, 0.0, 1.0]) == [(1.0, 1.0)]


def test_trailing_zero():
    assert brackets_from_samples([0.0, 1.0, 2.0], [-1.0, -2.0, 0.0]) == [(2.0, 2.0)]
    assert brackets_from_samples([0.0, 1.0], [0.0, 0.0]) == [(0.0, 0.0), (1.0, 1.0)]


def test_brackets_ascend_and_keep_sample_values():
    xs = np.linspace(0.0, 10.0, 1001)
    out = brackets_from_samples(xs, np.sin(xs))
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
    out = brackets_from_samples(xs, ys)
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


def test_find_roots_yields_an_exact_zero_sample_as_it_stands():
    fn = Counted(lambda x: x - 1.0)
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    roots = list(find_roots(fn, xs))
    # The zero at 1 is a degenerate bracket: no bisection, only the samples.
    assert roots == [1.0] and type(roots[0]) is np.float64
    assert fn.calls == len(xs)


def test_find_roots_ascend():
    xs = np.linspace(0.5, 20.0, 300)
    roots = list(find_roots(math.sin, xs))
    assert roots == sorted(roots)
    assert roots == pytest.approx([j * math.pi for j in range(1, 7)], abs=1e-14)


def test_find_roots_with_samples_does_not_sample_fn():
    fn = Counted(lambda x: x - 1.5)
    xs = [0.0, 1.0, 2.0, 3.0]
    assert list(find_roots(fn, xs, [1.0, 1.0, 2.0, 3.0])) == []
    assert fn.calls == 0
    # The samples place the bracket; fn only bisects it.
    assert list(find_roots(fn, xs, [1.0, 1.0, -1.0, -1.0])) == [1.5]
    direct = Counted(fn.fn)
    bisect(direct, 1.0, 2.0)
    assert fn.calls == direct.calls


def test_next_bisects_only_the_first_bracket():
    xs = np.linspace(0.5, 10.0, 100)
    fn = Counted(math.sin)
    first = next(find_roots(fn, xs))
    a, b = brackets_from_samples(xs, [math.sin(x) for x in xs])[0]
    direct = Counted(math.sin)
    assert first == bisect(direct, a, b)
    assert fn.calls == len(xs) + direct.calls
    everything = Counted(math.sin)
    assert len(list(find_roots(everything, xs))) == 3
    assert everything.calls > fn.calls


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
    sampled=st.booleans(),
)
def test_find_roots_match_the_per_site_loop(zeros, n, sampled):
    def fn(x):
        return math.prod(x - z for z in zeros)

    xs = np.linspace(0.0, 10.0, n)
    ys = [fn(x) for x in xs]
    got = list(find_roots(fn, xs, ys if sampled else None))
    assert got == reference_roots(fn, xs, ys)
    assert got == sorted(got)


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
