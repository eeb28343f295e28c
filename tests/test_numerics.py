import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsfield import numerics
from bcsfield.numerics import (
    MAX_ACTIVE_PANELS,
    BracketError,
    NumericsError,
    QuadratureError,
    QuadSpec,
    RootBelowBracket,
    RootSpec,
    central_diff,
    find_root_decreasing,
    find_root_decreasing_many,
    integrate,
    integrate_many,
)
from conftest import trapezoid


class Counter:
    """Wraps a vectorized integrand, counting calls and points."""

    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.points = 0

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.f(x)


# ---------------------------------------------------------------- quadrature


def test_constant_integrand_exact_at_depth_zero():
    f = Counter(lambda x: np.full_like(x, 3.7))
    value = integrate(f, 0.25, 1.75)
    assert value == pytest.approx(3.7 * 1.5, rel=5e-16, abs=0.0)
    assert f.calls == 1 and f.points == 15  # single panel, no subdivision


def test_tanh_kernel_matches_trapezoid_oracle():
    # 1e6-point trapezoid as an independent brute-force reference.
    def f(x):
        x_safe = np.where(x == 0.0, 1.0, x)
        return np.where(x == 0.0, 0.5, np.tanh(x_safe / 2.0) / x_safe)

    x = np.linspace(-1.0, 1.0, 10**6)
    oracle = trapezoid(f(x), x)
    value = integrate(f, -1.0, 1.0)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_degenerate_interval_is_zero():
    assert integrate(lambda x: np.exp(x), 2.5, 2.5) == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf)])
def test_non_finite_bounds_rejected(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        integrate(lambda x: x, lo, hi)


def test_depth_exhaustion_raises_with_worst_panel():
    # A jump discontinuity defeats bisection at any depth.
    f = lambda x: np.where(x < 1 / 3, 0.0, 1.0)
    with pytest.raises(QuadratureError) as err:
        integrate(f, 0.0, 1.0, QuadSpec(abs_tol=1e-14, rel_tol=1e-14))
    assert err.value.panel_lo < 1 / 3 < err.value.panel_hi
    assert err.value.panel_err > 0


def test_quadrature_deterministic(p):
    from bcsfield.kernel import StatePoint, F_eval

    s = StatePoint(0.03, 0.01, 1e-3)
    assert F_eval(s, p) == F_eval(s, p)


def test_peaked_integrand_meets_tolerance():
    # Narrow Lorentzian with known antiderivative.
    w = 1e-3
    f = lambda x: w / (x * x + w * w)
    exact = math.atan(0.7 / w) + math.atan(0.3 / w)
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-12)
    assert integrate(f, -0.3, 0.7, spec) == pytest.approx(exact, rel=1e-11)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    lo=st.floats(-3, 3),
    width=st.floats(0.01, 5),
)
def test_affine_integrands_exact(a, b, lo, width):
    hi = lo + width
    value = integrate(lambda x: a * x + b, lo, hi)
    exact = 0.5 * a * (hi * hi - lo * lo) + b * width
    assert value == pytest.approx(exact, rel=1e-13, abs=1e-12)


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0)


def test_quad_spec_rejects_rel_tol_below_double_precision():
    # 1e-15 is met by every integral of the package; below it the
    # refinement only chases rounding noise until the panel cap.
    assert QuadSpec(abs_tol=1e-20, rel_tol=1e-15).rel_tol == 1e-15
    for rel_tol in (5e-16, 1e-20):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadSpec(abs_tol=1e-20, rel_tol=rel_tol)


# -------------------------------------------------------------- root finding


def test_linear_root_exact():
    result = find_root_decreasing(lambda x: 1.0 - x, 0.0, 2.0)
    assert result.root == 1.0
    assert abs(result.residual) <= 1e-10


def test_exponential_root_closed_form():
    spec = RootSpec(x_tol=1e-13, f_tol=1e-13)
    result = find_root_decreasing(lambda x: math.exp(-x) - 0.5, 0.0, 10.0, spec)
    assert result.root == pytest.approx(math.log(2.0), abs=1e-10)


def test_root_below_bracket_signal():
    with pytest.raises(RootBelowBracket) as sig:
        find_root_decreasing(lambda x: -1.0 - x, 0.0, 2.0)
    assert sig.value.lo == 0.0
    assert sig.value.value == -1.0


def test_near_zero_lower_endpoint_signals_boundary():
    # g(lo) within f_tol counts as a root at/below lo: callers map this to
    # their boundary cases, keeping e.g. H_c(tau1) identically zero.
    spec = RootSpec(f_tol=1e-10)
    with pytest.raises(RootBelowBracket):
        find_root_decreasing(lambda x: 5e-11 - x, 0.0, 1.0, spec)


def test_no_root_in_bracket():
    with pytest.raises(BracketError):
        find_root_decreasing(lambda x: 2.0 - x, 0.0, 1.0)


def test_root_at_upper_endpoint_within_tolerance():
    spec = RootSpec(f_tol=1e-8)
    result = find_root_decreasing(lambda x: 1.0 - x + 5e-9, 0.0, 1.0, spec)
    assert result.root == 1.0
    assert result.iterations == 0


def test_never_evaluates_outside_bracket():
    seen = []

    def g(x):
        seen.append(x)
        return math.tanh(3.0 * (0.37 - x))

    find_root_decreasing(g, -2.0, 5.0, RootSpec(x_tol=1e-14, f_tol=1e-14))
    assert all(-2.0 <= x <= 5.0 for x in seen)


def test_bracket_width_termination():
    # Force the x_tol exit with an f_tol too tight to reach in few digits.
    spec = RootSpec(x_tol=1e-6, f_tol=1e-300)
    result = find_root_decreasing(lambda x: math.pi / 4 - x, 0.0, 1.0, spec)
    assert result.root == pytest.approx(math.pi / 4, abs=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    root=st.floats(-0.9, 0.9),
    scale=st.floats(0.1, 10),
)
def test_monotone_cubic_roots(root, scale):
    g = lambda x: -scale * ((x - root) ** 3 + 0.2 * (x - root))
    spec = RootSpec(x_tol=1e-14, f_tol=1e-14)
    result = find_root_decreasing(g, -1.0, 1.0, spec)
    assert result.root == pytest.approx(root, abs=1e-4)


def _ninth_power(x):
    return -(x - 0.3) ** 9


def _kink(x):
    # Slopes 1 and 1e6 on either side of the root.
    return 0.3 - x if x < 0.3 else 1e6 * (0.3 - x)


def _reciprocal(x):
    return 1.0 / x - 1.0 / 0.3


def _cubic(x):
    return -((x - 0.3) ** 3 + 0.2 * (x - 0.3))


@pytest.mark.parametrize("g, lo, hi, budget", [
    # Illinois false position took 183, 182 and 43 evaluations.
    (_ninth_power, -1.0, 2.0, 60),
    (_kink, -1.0, 2.0, 60),
    (_reciprocal, 1e-9, 100.0, 20),
])
def test_hard_monotone_roots_within_an_evaluation_budget(g, lo, hi, budget):
    seen = []
    spec = RootSpec(x_tol=1e-14, f_tol=1e-300)
    result = find_root_decreasing(lambda x: seen.append(x) or g(x), lo, hi, spec)
    assert result.root == pytest.approx(0.3, abs=1e-14)
    assert len(seen) <= budget


@pytest.mark.parametrize("g, lo, hi", [
    (_ninth_power, -1.0, 2.0), (_kink, -1.0, 2.0), (_reciprocal, 1e-9, 100.0),
    # Chandrupatla's steps alone leave this bracket above half its width
    # for three iterations in a row.
    (_cubic, -1.0, 1.0),
])
def test_bracket_halves_at_least_once_in_every_three_iterations(g, lo, hi):
    # The bracket after each iterate: the largest point with g > 0 and the
    # smallest with g < 0 seen so far.
    seen = []
    find_root_decreasing(lambda x: seen.append((x, g(x))) or seen[-1][1], lo, hi,
                         RootSpec(x_tol=1e-14, f_tol=1e-300))
    a, b = lo, hi
    widths = [b - a]
    for x, gx in seen[2:]:
        a, b = (max(a, x), b) if gx > 0.0 else (a, min(b, x))
        widths.append(b - a)
    assert all(widths[k + 3] <= 0.5 * widths[k] for k in range(len(widths) - 3))


def test_step_function_root_is_its_jump():
    # Repeated g values make the interpolation step divide by zero; it falls
    # back to bisection (a RuntimeWarning fails the suite).
    result = find_root_decreasing(lambda x: 1.0 if x < 0.3 else -1.0, 0.0, 1.0)
    assert result.root == pytest.approx(0.3, abs=1e-12)


def test_max_iter_exhaustion(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_ITER", 5)
    spec = RootSpec(x_tol=1e-300, f_tol=1e-300)
    with pytest.raises(NumericsError):
        find_root_decreasing(lambda x: math.exp(-x) - 0.5, 0.0, 10.0, spec)


def test_nan_value_of_g_fails_naming_x():
    # A NaN is neither sign: the solve stops at the first NaN iterate, where
    # it once took NaN for negative (a "root" at 0.6 for the second g).
    with pytest.raises(NumericsError, match=r"NaN at x = 0\.0"):
        find_root_decreasing(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(NumericsError, match=r"NaN at x = 2\.0"):
        find_root_decreasing(lambda x: 1.0 - x if x < 0.6 else math.nan, 0.0, 2.0)

    def g_many(x, idx):
        # Function 1 is NaN above 0.5 and fails alone, at an interior iterate.
        return np.where((idx == 1) & (x > 0.5), np.nan, 0.75 - x), {}

    out = find_root_decreasing_many(g_many, np.zeros(3), np.array([1.0, 0.8, 1.0]))
    assert isinstance(out[1], NumericsError) and "NaN at x = " in str(out[1])
    assert out[0] == out[2] == find_root_decreasing(lambda x: 0.75 - x, 0.0, 1.0)


def test_root_spec_validation():
    with pytest.raises(ValueError):
        RootSpec(x_tol=-1.0)


def test_invalid_bracket_ordering():
    with pytest.raises(ValueError):
        find_root_decreasing(lambda x: -x, 1.0, 1.0)


# -------------------------------------------------------- central difference


def test_central_diff_quadratic():
    assert central_diff(lambda x: x * x, 3.0, 1e-4) == pytest.approx(6.0, abs=1e-7)


def test_central_diff_sine_at_zero():
    h = 1e-5
    assert central_diff(math.sin, 0.0, h) == pytest.approx(1.0, abs=h * h)


def test_central_diff_constant_zero():
    assert central_diff(lambda x: 42.0, 0.3, 1e-3) == 0.0


def test_central_diff_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        central_diff(math.sin, 0.0, 0.0)


# ------------------------------------------------------------ batch paths


def test_nan_integrand_fails_after_one_level():
    f = Counter(lambda x: np.where(x > 0.5, np.nan, x))
    with pytest.raises(QuadratureError, match="not finite") as err:
        integrate(f, 0.0, 1.0)
    assert f.calls == 1
    assert (err.value.panel_lo, err.value.panel_hi) == (0.0, 1.0)


def test_unconvergeable_integrand_stops_at_the_panel_cap():
    # Far too oscillatory for the tolerance: every panel stays unconverged,
    # so the panel count doubles per level until the cap, not max_depth.
    f = Counter(lambda x: np.sin(1e6 * x))
    with pytest.raises(QuadratureError, match="panels unconverged at depth 16"):
        integrate(f, 0.0, 1.0)
    assert f.points == 15 * (2 * MAX_ACTIVE_PANELS - 1)


def test_many_kinks_in_one_interval_converge():
    # A linear interpolant of 2001 knots has a kink at every knot, each
    # unconverged for dozens of levels; its integral is the trapezoid sum.
    knots = np.linspace(0.0, 1.0, 2001)
    vals = np.cos(7.0 * knots) + knots * knots
    value = integrate(lambda x: np.interp(x, knots, vals), 0.0, 1.0)
    assert value == pytest.approx(trapezoid(vals, knots), rel=1e-10)


def test_batch_over_the_panel_cap_is_refined_in_groups(monkeypatch):
    # Each interval alone stays under a cap of 64 active panels, the batch
    # does not: it is refined in groups, with every result unchanged.
    knots = np.linspace(0.0, 4.0, 81)
    vals = np.sin(3.0 * knots)

    def f(x, owner):
        return np.interp(x, knots, vals) * (1.0 + owner[:, None])

    def levels(calls):
        return lambda x, owner: calls.append(owner) or f(x, owner)

    lo, hi = np.arange(4.0), np.arange(1.0, 5.0)
    together, alone = [], []
    whole, errors = integrate_many(levels(together), lo, hi)
    assert not errors and max(owner.size for owner in together) > 64
    monkeypatch.setattr(numerics, "MAX_ACTIVE_PANELS", 64)
    grouped, errors = integrate_many(levels(alone), lo, hi)
    assert not errors and np.array_equal(grouped, whole)
    assert max(owner.size for owner in alone) <= 64


def test_failed_interval_leaves_the_others_unchanged():
    def f(x, owner):
        return np.where(owner[:, None] == 1, np.nan, np.exp(-x * x))

    values, errors = integrate_many(f, [0.0, 0.0, -1.0], [1.0, 2.0, 3.0])
    assert list(errors) == [1] and isinstance(errors[1], QuadratureError)
    assert math.isnan(values[1])
    assert values[0] == integrate(lambda x: np.exp(-x * x), 0.0, 1.0)
    assert values[2] == integrate(lambda x: np.exp(-x * x), -1.0, 3.0)


def test_first_raises_the_lowest_failed_entry_of_the_batch():
    def f(x, owner):
        return np.where(owner[:, None] >= 1, np.nan, x)

    values, errors = integrate_many(f, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(QuadratureError) as caught:
        numerics.first(values, errors)
    assert caught.value is errors[1]
    values, errors = integrate_many(f, [0.0], [1.0])
    assert numerics.first(values, errors) is values


def test_vector_integrand_meets_each_component_tolerance():
    def f(x, owner):
        return np.stack([np.cos(x), 1e-6 * np.exp(x)], axis=-1)

    values, errors = integrate_many(f, [0.0], [2.0], QuadSpec(abs_tol=1e-15, rel_tol=1e-13))
    assert not errors and values.shape == (1, 2)
    assert values[0, 0] == pytest.approx(math.sin(2.0), rel=1e-13)
    assert values[0, 1] == pytest.approx(1e-6 * (math.exp(2.0) - 1.0), rel=1e-13)


def _peaks(width):
    """f(x, owner) = 1 / sqrt(x^2 + width^2) per interval, and its integral.

    Shaped like the gap kernel: branch points width off the axis at x = 0
    (where x has no rounding to speak of), 1/|x| tails.
    """
    width = np.asarray(width, dtype=float)

    def f(x, owner):
        return 1.0 / np.hypot(x, width[owner, None])

    def exact(lo, hi):
        return np.arcsinh(hi / width) - np.arcsinh(lo / width)

    return f, exact


def test_graded_start_resolves_a_narrow_peak_at_level_0():
    # Branch points 1e-9 off the axis: the graded start meets the tolerance
    # in one integrand call.
    f, exact = _peaks([1e-9])
    calls = []

    def counted(x, owner):
        calls.append(owner.size)
        return f(x, owner)

    features = (np.array([[0.0]]), np.array([[1e-9]]))
    values, errors = integrate_many(counted, [-1.0], [2.0], features=features)
    assert not errors and len(calls) == 1
    assert abs(values[0] - exact(-1.0, 2.0)) <= 1e-10 * abs(values[0])


@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(-2.0, 1.0),
    width=st.floats(1e-3, 3.0),
    log_scale=st.floats(-12.0, 0.0),
    tol=st.sampled_from([1e-10, 1e-13]),
)
def test_graded_start_meets_the_tolerance(lo, width, log_scale, tol):
    # The fractions of tol given to the level-0 panels sum to 1, so the
    # contract error <= max(abs_tol, rel_tol |estimate|) holds as it does
    # from one panel.  A cut outside the interval grades from there.
    scale = 10.0**log_scale
    f, exact = _peaks([scale, scale])
    spec = QuadSpec(abs_tol=tol, rel_tol=tol)
    features = (np.array([[0.0, np.nan], [0.0, 0.5]]), np.array([[scale, np.nan], [scale, 1.0]]))
    values, errors = integrate_many(f, [lo, lo], [lo + width] * 2, spec, features)
    assert not errors
    truth = exact(lo, lo + width)
    assert np.all(np.abs(values - truth) <= tol * np.maximum(1.0, np.abs(values)))


def test_graded_batch_equals_its_intervals_alone(rng):
    m = 12
    lo = rng.uniform(-2.0, 0.0, m)
    hi = lo + rng.uniform(0.0, 3.0, m)
    hi[3] = lo[3]  # an empty interval
    width = 10.0 ** rng.uniform(-9.0, 0.0, m)
    cuts = np.column_stack([np.zeros(m), rng.uniform(-3.0, 3.0, m)])
    cuts[::3, 1] = np.nan
    scales = np.column_stack([width, 10.0 ** rng.uniform(-6.0, 0.0, m)])
    f, _ = _peaks(width)
    values, errors = integrate_many(f, lo, hi, features=(cuts, scales))
    assert not errors
    for i in range(m):
        g, _ = _peaks(width[i:i + 1])
        alone, _ = integrate_many(g, lo[i:i + 1], hi[i:i + 1],
                                  features=(cuts[i:i + 1], scales[i:i + 1]))
        assert alone[0] == values[i]


def test_graded_level_0_over_the_panel_cap_is_refined_in_groups(monkeypatch):
    # Every interval's level 0 holds 24 panels; with a cap of 64 the 12 of
    # them are refined in groups, each with its own tolerance.
    f, _ = _peaks(np.full(12, 1e-3))
    features = (np.zeros((12, 1)), np.full((12, 1), 1e-3))
    whole, errors = integrate_many(f, -np.ones(12), np.ones(12), features=features)
    assert not errors
    monkeypatch.setattr(numerics, "MAX_ACTIVE_PANELS", 64)
    grouped, errors = integrate_many(f, -np.ones(12), np.ones(12), features=features)
    assert not errors and np.array_equal(grouped, whole)
    plain, errors = integrate_many(f, -np.ones(12), np.ones(12))
    assert not errors and np.allclose(plain, whole, rtol=1e-10, atol=0.0)


def test_level_0_alone_over_the_panel_cap_fails_its_interval(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_ACTIVE_PANELS", 16)
    f, exact = _peaks([1e-6, 1e-6])
    features = (np.array([[0.0], [np.nan]]), np.array([[1e-6], [1e-6]]))
    values, errors = integrate_many(f, [-1.0, -1.0], [1.0, 1.0], features=features)
    assert list(errors) == [0] and "exceed MAX_ACTIVE_PANELS" in str(errors[0])
    assert math.isnan(values[0])
    assert values[1] == pytest.approx(exact(-1.0, 1.0)[1], rel=1e-10)


@pytest.mark.parametrize("cuts, scales", [
    (np.zeros((2, 1)), np.ones((2, 2))),  # shapes differ
    (np.zeros((3, 1)), np.ones((3, 1))),  # one row per interval
    (np.zeros((2, 1)), np.zeros((2, 1))),  # scale must be > 0
    (np.full((2, 1), np.inf), np.ones((2, 1))),  # cut finite or NaN
])
def test_malformed_features_rejected(cuts, scales):
    with pytest.raises(ValueError, match="features"):
        integrate_many(lambda x, owner: x, [0.0, 0.0], [1.0, 1.0], features=(cuts, scales))


@settings(max_examples=30, deadline=None)
@given(
    roots=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=6),
    scale=st.floats(0.1, 10),
)
def test_lockstep_roots_take_the_scalar_iterates(roots, scale):
    r = np.array(roots)

    def g_many(x, idx):
        d = x - r[idx]
        return -scale * (d**3 + 0.2 * d), {}

    spec = RootSpec(x_tol=1e-14, f_tol=1e-14)
    batch = find_root_decreasing_many(g_many, -np.ones(r.size), np.ones(r.size), spec)
    for root, got in zip(roots, batch):
        alone = find_root_decreasing(
            lambda x: -scale * ((x - root) ** 3 + 0.2 * (x - root)), -1.0, 1.0, spec)
        assert got == alone


def test_lockstep_failures_stay_per_function():
    shift = np.array([0.5, -2.0, 3.0, 0.25])  # roots of shift - x on [0, 1]

    def g_many(x, idx):
        return shift[idx] - x, {}

    out = find_root_decreasing_many(g_many, np.zeros(4), np.ones(4))
    assert isinstance(out[1], RootBelowBracket)
    assert isinstance(out[2], BracketError)
    assert out[0].root == 0.5 and out[3].root == 0.25
