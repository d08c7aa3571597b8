"""Tests for resonance-pole seeding, continuation, and asymptotic fits."""
from __future__ import annotations

import cmath
import csv
import json
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ringchain import (
    ContourZeroError,
    InsufficientDataError,
    SingularPoint,
    count_zeros_box,
    enumerate_singular_points,
    fit_branch_exponent,
    fit_gentle_coefficient,
    gap_intervals,
    gentle_bend_coefficient,
    refine_resonance,
    resonance_residual,
    resonance_residual_grid,
    seed_from_singular_point,
    singular_angles,
    continue_curve,
    trace_complex_branch,
)
from ringchain import resonance
from ringchain.cli import main
from ringchain.gaps import _sector_roots
from ringchain.verify import _BRANCH_POINTS

K_RE = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
K_IM = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
THETA = st.floats(min_value=0.1, max_value=math.pi - 0.1, allow_nan=False)


@given(re=K_RE, im=K_IM, theta=THETA)
def test_residual_is_even_in_k(re, im, theta):
    k = complex(re, im)
    for parity in ("+", "-"):
        a = resonance_residual(k, 3.0, theta, parity)
        b = resonance_residual(-k, 3.0, theta, parity)
        assert cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@given(re=K_RE, im=K_IM, theta=THETA)
def test_residual_conjugate_symmetry(re, im, theta):
    k = complex(re, im)
    for parity in ("+", "-"):
        a = resonance_residual(k.conjugate(), -3.0, theta, parity)
        b = resonance_residual(k, -3.0, theta, parity).conjugate()
        assert cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_residual_closed_form_at_flat_band_points():
    # At integer momentum the residual collapses to
    # alpha * (-1)**n * (1 + s*(-1)**n * cos(n*theta))**2.
    alpha, theta = 3.0, 0.8
    for n in (1, 2, 3):
        for parity, s in (("+", 1.0), ("-", -1.0)):
            val = resonance_residual(complex(n), alpha, theta, parity)
            closed = alpha * (-1.0) ** n * (
                1.0 + s * (-1.0) ** n * math.cos(n * theta)
            ) ** 2
            assert abs(val - closed) < 1e-12


def test_residual_grid_matches_scalar():
    zs = np.array([0.5 + 0.1j, 1.5 - 0.3j, -2.2 + 0.0j])
    grid = resonance_residual_grid(zs, -3.0, 1.1, "-")
    for z, v in zip(zs, grid):
        assert cmath.isclose(v, resonance_residual(complex(z), -3.0, 1.1, "-"),
                             rel_tol=1e-12, abs_tol=1e-12)


ALPHA = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
PARITY = st.sampled_from(["+", "-"])
KAPPA = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


@given(xs=st.lists(K_RE, min_size=1, max_size=40), alpha=ALPHA, theta=THETA, parity=PARITY)
def test_residual_grid_on_real_momenta_is_the_real_part_of_the_complex_call(
    xs, alpha, theta, parity
):
    xs = np.array(xs)
    real = resonance_residual_grid(xs, alpha, theta, parity)
    assert real.dtype == float
    complex_ = resonance_residual_grid(xs.astype(complex), alpha, theta, parity)
    assert np.array_equal(real, complex_.real)


@given(x=K_RE, kappa=KAPPA, alpha=ALPHA, theta=THETA, parity=PARITY)
@example(x=0.0, kappa=9.057784844983981e-158, alpha=0.0, theta=1.0, parity="+")  # subnormal Q
def test_scalar_axis_forms_are_the_real_parts_of_the_complex_residual(
    x, kappa, alpha, theta, parity
):
    s = 1.0 if parity == "+" else -1.0
    for z, unit in ((x, 1), (kappa, 1j)):
        got = resonance._cleared(*resonance._axis_terms(z, theta, unit, math), alpha, s)
        assert got == resonance_residual(unit * z, alpha, theta, parity).real


def _term_size(a, b, q, alpha):
    # Magnitude of the cleared residual's terms: its rounding scale.
    return abs(alpha) * (1.0 + abs(a * b)) * (abs(a) + abs(b)) + abs(q) * (
        1.0 + 2.0 * abs(a * b) + a * a
    )


@settings(max_examples=60)
@given(kappas=st.lists(KAPPA, min_size=1, max_size=40), alpha=ALPHA, theta=THETA,
       parity=PARITY)
def test_imaginary_axis_grid_matches_complex_and_high_precision(kappas, alpha, theta, parity):
    s = 1.0 if parity == "+" else -1.0
    kappas = np.array(kappas)
    terms = resonance._axis_terms(kappas, theta, 1j, np)
    got = resonance._cleared(*terms, alpha, s)
    complex_ = resonance_residual_grid(1j * kappas, alpha, theta, parity).real
    size = _term_size(*terms, alpha)
    # np.cosh and the complex cos differ by an ulp in A and B; propagated
    # through F that reached 8 ulp of the term size in 2.6M samples.
    assert np.all(np.abs(got - complex_) <= 16.0 * np.spacing(size))
    with mpmath.workdps(50):
        for kappa, value, scale in zip(kappas.tolist(), got.tolist(), size.tolist()):
            k, a, th = mpmath.mpf(kappa), mpmath.mpf(alpha), mpmath.mpf(theta)
            big_a = mpmath.cosh(k * th)
            big_b = mpmath.cosh(mpmath.pi * k)
            q = -k * mpmath.sinh(mpmath.pi * k)
            exact = a * (1 + s * big_a * big_b) * (s * big_a + big_b) - 2 * q * (
                1 + 2 * s * big_a * big_b + big_a ** 2
            )
            # The floor covers terms that underflow double precision.
            assert abs(value - exact) <= 1e-13 * scale + np.finfo(float).tiny


def _parent_residual(k, alpha, theta, s):
    # The separate scalar residual the fused kernel replaced, operation for
    # operation.
    a = cmath.cos(k * theta)
    b = cmath.cos(math.pi * k)
    sp = cmath.sin(math.pi * k)
    return alpha * (1.0 + s * a * b) * (s * a + b) - 2.0 * k * sp * (
        1.0 + 2.0 * s * a * b + a * a
    )


def _parent_partials(k, alpha, theta, s):
    # The separate scalar partials ``(F_k, F_theta)`` the fused kernel
    # replaced, operation for operation.
    a = cmath.cos(k * theta)
    b = cmath.cos(math.pi * k)
    sp = cmath.sin(math.pi * k)
    db = -math.pi * sp
    p = 1.0 + s * a * b
    r = s * a + b
    t = 1.0 + 2.0 * s * a * b + a * a
    f_a = alpha * s * (b * r + p) - 4.0 * k * sp * (s * b + a)
    f_k_at_a = (
        alpha * db * (s * a * r + p)
        - 2.0 * sp * t
        - 2.0 * k * (math.pi * b * t + 2.0 * s * a * sp * db)
    )
    sin_kt = cmath.sin(k * theta)
    return f_k_at_a - theta * sin_kt * f_a, -k * sin_kt * f_a


def _bits(z):
    return struct.pack("<2d", z.real, z.imag)


@settings(max_examples=400)
@given(
    re=st.floats(min_value=0.0, max_value=12.0, exclude_min=True),
    im=st.floats(min_value=-1.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True),
    size=st.floats(min_value=0.1, max_value=20.0),
    sign=st.sampled_from([1.0, -1.0]),
    s=st.sampled_from([1.0, -1.0]),
)
def test_fused_terms_equal_the_separate_kernels_bit_for_bit(re, im, theta, size, sign, s):
    k, alpha = complex(re, im), sign * size
    got = resonance._residual_terms(k, alpha, theta, s)
    want = (_parent_residual(k, alpha, theta, s), *_parent_partials(k, alpha, theta, s))
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


def test_exact_derivative_matches_finite_difference():
    k = 1.7 - 0.2j
    h = 1e-6
    for parity, s in (("+", 1.0), ("-", -1.0)):
        f, f_k, f_theta = resonance._residual_terms(k, 3.0, 1.2, s)
        assert f == resonance_residual(k, 3.0, 1.2, parity)
        fd = (
            resonance_residual(k + h, 3.0, 1.2, parity)
            - resonance_residual(k - h, 3.0, 1.2, parity)
        ) / (2.0 * h)
        assert abs(f_k - fd) < 1e-7
        fd_theta = (
            resonance_residual(k, 3.0, 1.2 + h, parity)
            - resonance_residual(k, 3.0, 1.2 - h, parity)
        ) / (2.0 * h)
        assert abs(f_theta - fd_theta) < 1e-7


def test_singular_point_angles_match_gap_inventory():
    for n in range(1, 7):
        for parity in ("+", "-"):
            from_points = sorted(
                sp.theta0 for sp in enumerate_singular_points(n, parity)
                if sp.n == n
            )
            assert from_points == pytest.approx(sorted(singular_angles(n, parity)))


def test_singular_point_validation():
    sp = SingularPoint(2, 1, "+")
    assert sp.theta0 == pytest.approx(math.pi / 2.0)
    assert sp.k0 == 2.0
    with pytest.raises(ValueError, match="gives no admissible angle"):
        SingularPoint(2, 5, "+")  # angle would leave [0, pi)
    with pytest.raises(ValueError, match="positive integers"):
        SingularPoint(0, 1, "+")
    with pytest.raises(ValueError, match="parity must be"):
        SingularPoint(2, 1, "x")


SINGULAR_POINTS = [sp for p in "+-" for sp in enumerate_singular_points(8, p)]


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=0.5, max_value=6.0) | st.floats(min_value=-6.0, max_value=-0.5),
    delta=st.floats(min_value=1e-4, max_value=0.1) | st.floats(min_value=-0.1, max_value=-1e-4),
    sp=st.sampled_from(SINGULAR_POINTS),
)
@example(alpha=3.1, delta=0.01, sp=SingularPoint(1, 1, "+"))
def test_seed_branches_are_conjugate(alpha, delta, sp):
    # The upper seed is the lower one conjugated, bit for bit, so the two
    # branches traced from them mirror each other exactly.
    lo = seed_from_singular_point(sp, alpha, delta)
    up = resonance.on_branch(lo, "upper")
    assert lo.imag < 0.0 < up.imag
    assert (up.real, up.imag) == (lo.real, -lo.imag)


def test_seed_rejects_deltas_outside_the_expansion():
    sp = SingularPoint(2, 1, "+")
    with pytest.raises(ValueError):
        seed_from_singular_point(sp, 3.0, 0.3)  # outside expansion range
    with pytest.raises(ValueError):
        seed_from_singular_point(sp, 3.0, 0.0)


def test_refined_pole_fixture():
    sp = SingularPoint(2, 1, "+")
    seed = seed_from_singular_point(sp, 3.0, 0.05)
    res = refine_resonance(3.0, sp.theta0 + 0.05, "+", seed)
    assert res.converged
    assert res.residual < 1e-12
    grid = np.linspace(sp.theta0 + 0.05, sp.theta0 + 0.3, 60)
    curve = continue_curve(3.0, "+", grid, res.root, seed=sp)
    assert curve.termination == "completed"
    t_last, k_last = curve.samples[-1]
    assert t_last == pytest.approx(sp.theta0 + 0.3)
    assert abs(k_last - (1.9429488995655997 - 0.06055168603539124j)) < 1e-9
    assert max(curve.residuals) < 1e-9


def test_continuation_snaps_onto_singular_point():
    # Walking the branch back toward its seed angle must land exactly on
    # the flat-band point and stop there.
    sp = SingularPoint(2, 1, "+")
    seed = seed_from_singular_point(sp, 3.0, 0.05)
    res = refine_resonance(3.0, sp.theta0 + 0.05, "+", seed)
    grid = np.linspace(sp.theta0 + 0.05, sp.theta0, 30)
    curve = continue_curve(3.0, "+", grid, res.root, seed=sp)
    assert curve.termination == "singular-point"
    t_last, k_last = curve.samples[-1]
    assert t_last == pytest.approx(sp.theta0)
    assert k_last == 2.0 + 0.0j


def test_continue_curve_needs_two_nodes():
    with pytest.raises(ValueError):
        continue_curve(3.0, "+", [1.0], 2.0 - 0.01j)


def _traced_grid(sp, stop, n):
    """The angle grid ``trace_complex_branch`` hands to ``continue_curve``."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resonance, "continue_curve", lambda a, p, grid, *r, **kw: seen.append(grid))
        trace_complex_branch(3.0, sp, theta_stop=stop, n_nodes=n)
    return seen[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sp=st.sampled_from([sp for p in "+-" for sp in enumerate_singular_points(60, p)]),
    share=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    n=st.integers(min_value=2, max_value=400),
)
def test_branch_grid_is_numpys_linspace_bit_for_bit(sp, share, n):
    # The trace builds its grid without numpy, in linspace's own arithmetic.
    t0 = sp.theta0 + resonance.SEED_OFFSET
    stop = t0 + share * (math.pi - t0)
    assume(t0 < stop < math.pi)
    grid = _traced_grid(sp, stop, n)
    assert [t.hex() for t in grid] == [t.hex() for t in np.linspace(t0, stop, n).tolist()]


@pytest.mark.parametrize("n", [0, 1])
def test_branch_grid_of_fewer_than_two_nodes_is_an_error(n):
    with pytest.raises(ValueError, match="^theta grid needs at least two nodes$"):
        trace_complex_branch(3.0, SingularPoint(2, 1, "+"), n_nodes=n)


def test_full_branch_trace_and_conjugacy():
    sp = SingularPoint(2, 1, "+")
    lower = trace_complex_branch(3.0, sp)
    # The upper branch, traced on its own from the conjugate seed.
    grid = np.linspace(sp.theta0 + 1e-2, math.pi - 1e-2, 200)
    k_seed = seed_from_singular_point(sp, 3.0, 1e-2).conjugate()
    upper = continue_curve(3.0, "+", grid, k_seed, seed=sp)
    assert lower.termination == upper.termination == "completed"
    assert upper.residuals == lower.residuals
    # Poles come in conjugate pairs: the two branches mirror each other.
    assert upper.samples == tuple((t, k.conjugate()) for t, k in lower.samples)
    # The lower branch stays in the lower half plane with positive Re k.
    assert all(k.imag <= 0.0 and k.real > 0.0 for _, k in lower.samples)


def test_samples_do_not_depend_on_the_guess():
    # Re-polishing every sample of a branch that runs into a flat-band
    # point, from guesses 1e-7 off in eight directions, returns it.
    curve = trace_complex_branch(3.0, SingularPoint(4, 2, "-"))
    assert curve.termination == "singular-point"
    for i, (t, k) in enumerate(curve.samples[:-1]):
        guess = k + 1e-7 * cmath.exp(0.25j * math.pi * i)
        res = refine_resonance(3.0, t, "-", guess)
        assert res.converged
        assert abs(res.root - k) <= 1e-12 * abs(k)


def _mp_residual(k, alpha, theta, parity):
    s = 1 if parity == "+" else -1
    a = mpmath.cos(k * theta)
    b = mpmath.cos(mpmath.pi * k)
    sp = mpmath.sin(mpmath.pi * k)
    return alpha * (1 + s * a * b) * (s * a + b) - 2 * k * sp * (1 + 2 * s * a * b + a * a)


@pytest.mark.parametrize("alpha", [3.0, -3.0])
@pytest.mark.parametrize("sp", [SingularPoint(3, 2, "+"), SingularPoint(4, 2, "-")])
def test_samples_match_high_precision_roots(alpha, sp):
    # Both ends of a branch from one flat-band point to the next, where
    # k lies within 2e-3 of an integer, and its middle.
    curve = trace_complex_branch(alpha, sp)
    assert curve.termination == "singular-point"
    mid = len(curve.samples) // 2
    picks = curve.samples[:2] + curve.samples[mid:mid + 1] + curve.samples[-3:-1]
    near = 0
    with mpmath.workdps(50):
        for t, k in picks:
            root = mpmath.findroot(
                lambda z: _mp_residual(z, alpha, mpmath.mpf(t), sp.parity), mpmath.mpc(k)
            )
            assert abs(k - complex(root)) <= 1e-13 * abs(k)
            near += abs(k - round(k.real)) < 1e-3
    assert near >= 1


def test_resonance_trace_work_count(monkeypatch, tmp_path):
    # The tangent steps approach each flat-band point in a logarithmic
    # number of steps; a fixed step cap near the integers took 93,468
    # polishes.  One fused kernel call per Newton point, with the tangent
    # read from the last polish, replaced 159,136 separate residual and
    # partials calls.  Only the lower branches are traced; the upper ones
    # are their mirror images, which halved 17,288 polishes.
    calls = {}

    def counted(name):
        fn = getattr(resonance, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(resonance, name, wrapper)

    for name in ("refine_resonance", "_residual_terms", "resonance_residual"):
        counted(name)
    out = tmp_path / "res.json"
    assert main(["resonances", "--alpha", "3", "--nmax", "8", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    curves = payload["curves"]
    assert calls["refine_resonance"] <= 8_644
    assert calls["_residual_terms"] <= 33_220
    assert calls["resonance_residual"] <= 21
    assert len(curves) == 72
    assert sum(len(c["samples"]) for c in curves) == 9128
    assert sum(c["termination"] == "singular-point" for c in curves) == 42
    assert payload["abandoned"] == []


def _written(argv, tmp_path, fmt):
    out = tmp_path / f"res.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    if fmt == "json":
        return json.loads(out.read_text())["curves"]
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("alpha", [3.1, 3.4, -3.1, 0.53])
def test_upper_rows_equal_an_independent_upper_trace(alpha, tmp_path):
    # The CLI traces the lower branches only.  Every upper branch it writes
    # must equal, bit for bit, the branch continued from the upper seed.
    argv = ["resonances", "--alpha", repr(alpha), "--nmax", "8"]
    curves, rows = _written(argv, tmp_path, "json"), _written(argv, tmp_path, "csv")
    assert "-0" not in {r["k_im"] for r in rows}
    assert sum(c["branch"] == "upper" for c in curves) == len(curves) // 2
    pos = 0
    for c in curves:
        block, pos = rows[pos:pos + len(c["samples"])], pos + len(c["samples"])
        assert {r["branch"] for r in block} == {c["branch"]}
        if c["branch"] == "lower":
            continue
        sp = SingularPoint(c["seed"]["n"], c["seed"]["ell"], c["parity"])
        grid = np.linspace(sp.theta0 + 1e-2, math.pi - 1e-2, 200)
        k_seed = seed_from_singular_point(sp, alpha, 1e-2).conjugate()
        ref = continue_curve(alpha, sp.parity, grid, k_seed, seed=sp)
        expected = [(t, k.real, k.imag) for t, k in ref.samples]
        assert c["termination"] == ref.termination
        assert [tuple(s) for s in c["samples"]] == expected
        assert [(float(r["theta"]), float(r["k_re"]), float(r["k_im"])) for r in block] == expected
        assert [float(r["residual_abs"]) for r in block] == list(ref.residuals)
    assert pos == len(rows)


def test_upper_branch_alone_equals_the_upper_rows_of_both(tmp_path):
    argv = ["resonances", "--alpha", "3.1", "--nmax", "4"]
    both = _written(argv, tmp_path, "csv")
    upper = _written([*argv, "--branch", "upper"], tmp_path, "csv")
    assert upper == [r for r in both if r["branch"] == "upper"]
    assert len(upper) == len(both) // 2


def test_real_branch_offsets_open_upward_for_repulsive_coupling():
    sp = SingularPoint(2, 1, "+")
    # Both sides of the singular angle in one call of the gap engine, which
    # the branch fit reads; an absent root would be NaN.
    (roots,) = _sector_roots([(3.0, 2, "+", sp.theta0 + np.array([-5e-3, 5e-3]))])
    offs = roots - 2.0
    assert offs.shape == (2,)
    assert np.all((0.0 < offs) & (offs < 1e-2))


@pytest.mark.parametrize("sp", _BRANCH_POINTS, ids=lambda sp: f"{sp.n}-{sp.ell}")
def test_branch_fit_offsets_match_high_precision_roots(sp):
    # Criterion 6 fits the gap engine's k - n at these angles (every one
    # lies inside (0, pi)); each offset must match the 60-digit real root
    # of the cleared residual F, which the engine never evaluates, to 1e-10
    # relative.
    deltas = np.geomspace(
        resonance.FIT_DELTA_LO, resonance.FIT_DELTA_HI, resonance.FIT_SAMPLES_PER_SIDE
    )
    thetas = sp.theta0 + (np.concatenate([deltas, -deltas]) if sp.theta0 > 0.0 else deltas)
    (roots,) = _sector_roots([(3.0, sp.n, sp.parity, thetas)])
    assert not np.isnan(roots).any()
    with mpmath.workdps(60):
        for theta, k in zip(thetas.tolist(), roots.tolist()):
            eps = mpmath.mpf(k) - sp.n
            assert eps > 0  # the real branch opens upward for alpha > 0
            ref = mpmath.findroot(
                lambda z: _mp_residual(z, 3, mpmath.mpf(theta), sp.parity),
                (sp.n + eps * (1 - mpmath.mpf("1e-6")), sp.n + eps * (1 + mpmath.mpf("1e-6"))),
                solver="anderson",
            ) - sp.n
            assert abs(eps - ref) <= 1e-10 * ref, (theta, k)


def test_branch_exponent_fixture():
    # theta0 = 0: the fit samples one side only.
    fit = fit_branch_exponent(3.0, SingularPoint(1, 1, "+"))
    assert fit.n_samples == 13
    assert math.isclose(fit.exponent, 1.3333203070795792, rel_tol=1e-9)
    assert math.isclose(fit.coefficient, 0.22952113867235624, rel_tol=1e-9)
    # The measured coefficient tracks cbrt(alpha/8) * k0 / pi to a few
    # basis points; the companion constant with alpha/4 misses by ~21%.
    target = (3.0 / 8.0) ** (1.0 / 3.0) / math.pi
    assert abs(fit.coefficient - target) / target < 3e-2


def test_branch_exponent_pools_both_sides_of_an_interior_angle():
    # theta0 = pi/2: 13 samples on each side, whose pooled fit cancels the
    # odd-order corrections (one side alone reads 1.359).
    fit = fit_branch_exponent(3.0, SingularPoint(2, 1, "+"))
    assert fit.n_samples == 26
    assert abs(fit.exponent - 4.0 / 3.0) < 3e-3


def test_branch_exponent_requires_enough_samples(monkeypatch):
    # Three samples on one side (theta0 = 0) of a narrow window.
    monkeypatch.setattr(resonance, "FIT_DELTA_LO", 1e-3)
    monkeypatch.setattr(resonance, "FIT_DELTA_HI", 1.2e-3)
    monkeypatch.setattr(resonance, "FIT_SAMPLES_PER_SIDE", 3)
    with pytest.raises(InsufficientDataError):
        fit_branch_exponent(3.0, SingularPoint(1, 1, "+"))


def test_gentle_bend_coefficient_fixtures():
    gap2 = gap_intervals(3.0, 2)[2]
    closed = gentle_bend_coefficient(gap2.band_edge, 3.0)
    fitted = fit_gentle_coefficient(3.0, gap2)
    assert math.isclose(closed, 0.03407899213351154, rel_tol=1e-12)
    assert math.isclose(fitted, 0.03407867758356819, rel_tol=1e-9)
    assert abs(fitted - closed) / closed < 2e-2
    with pytest.raises(ValueError):
        gentle_bend_coefficient(0.0, 3.0)


def test_winding_count_isolates_the_pole():
    sp = SingularPoint(2, 1, "+")
    theta = sp.theta0 + 0.3
    pole = 1.9429488995655997 - 0.06055168603539124j
    hit = count_zeros_box(
        3.0, theta, "+", pole.real - 0.1, pole.real + 0.1,
        pole.imag - 0.05, pole.imag + 0.05,
    )
    miss = count_zeros_box(
        3.0, theta, "+", pole.real + 0.2, pole.real + 0.4,
        pole.imag - 0.05, pole.imag + 0.05,
    )
    assert hit == 1
    assert miss == 0


def test_winding_refinement_inserts_each_midpoint(monkeypatch):
    # Each pass must add the midpoint after every node whose phase step
    # to the next is too large, exactly as a node-by-node loop does.
    passes = []
    grid = resonance.resonance_residual_grid

    def recorded(zs, *args):
        vals = grid(zs, *args)
        passes.append((zs.copy(), vals))
        return vals

    monkeypatch.setattr(resonance, "resonance_residual_grid", recorded)
    assert count_zeros_box(3.0, 1.3, "+", 0.5, 20.5, -1.0, 0.2) == 43
    assert len(passes) == 4
    for (zs, vals), (refined, _) in zip(passes, passes[1:]):
        bad = np.abs(np.angle(np.roll(vals, -1) / vals)) > 0.5 * math.pi
        mids = 0.5 * (zs + np.roll(zs, -1))
        expected = []
        for z, m, flag in zip(zs, mids, bad):
            expected.append(z)
            if flag:
                expected.append(m)
        assert np.array_equal(refined, np.array(expected, dtype=complex))


def test_winding_scan_detects_on_contour_zero():
    # The residual vanishes identically at k = -3 for this angle, which
    # sits on the scanned box boundary.
    with pytest.raises(ContourZeroError):
        count_zeros_box(-3.0, math.pi / 3.0, "-", -3.0, -0.05, -3.0, 3.0)

