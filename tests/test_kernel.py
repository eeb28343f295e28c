import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsfield import (
    F_eval,
    F_partials,
    MaterialParams,
    QuadSpec,
    StatePoint,
    fermi,
    thermal_weight,
)
from bcsfield.kernel import F_eval_many, F_partials_many, _dJ_all, _energy, _J, _shift, _Z_SERIES
from bcsfield.solvers import TAU1_WEAK_COUPLING, solve_tau1
from conftest import central_diff


def quasiparticle_energy(xi, H, Y, p):
    """E = hypot(xi + a H + b H^2, sqrt(Y)), as the kernel's integrands take it."""
    return _energy(xi + _shift(H, p), Y)


def _dJ_column(k):
    return lambda T, H, Y, xi, p: _dJ_all(T, H, Y, xi, p)[..., k]


_dJ_dT, _dJ_dh, _dJ_dY = (_dJ_column(k) for k in range(3))


def interior_points(dbox, rng, n, h_lo=1e-4):
    """Random points strictly inside the working box (H > 0, Y > 0)."""
    return [
        StatePoint(
            float(rng.uniform(dbox.T0, dbox.tau1)),
            float(rng.uniform(h_lo, dbox.H_max)),
            float(rng.uniform(1e-6, dbox.Y0)),
        )
        for _ in range(n)
    ]


# ---------------------------------------------------------------- energy


def test_energy_pythagorean_triple():
    p = MaterialParams(a=1.0, b=1.0)  # shift a H + b H^2 = 2 at H = 1
    assert quasiparticle_energy(1.0, 1.0, 16.0, p) == pytest.approx(5.0, rel=1e-15)


def test_energy_reduces_to_abs_xi():
    p = MaterialParams()
    for xi in (-2.3, -0.1, 0.7):
        assert quasiparticle_energy(xi, 0.0, 0.0, p) == abs(xi)


def test_energy_zero_xi():
    assert quasiparticle_energy(0.0, 0.0, 4.0, MaterialParams()) == 2.0


def test_energy_vectorized():
    p = MaterialParams(a=1.0, b=1.0)
    xi = np.array([2.0, 0.0, -6.0])
    out = quasiparticle_energy(xi, 1.0, 0.0, p)
    assert np.allclose(out, [4.0, 2.0, 4.0])


# ---------------------------------------------------------------- weight


def test_weight_zero_field_is_half_tanh():
    p = MaterialParams()
    # sinh z / (cosh z + 1) = tanh(z/2)
    assert thermal_weight(1.0, 2.0, 0.0, p) == pytest.approx(math.tanh(1.0), rel=1e-14)


def test_weight_vanishes_at_zero_energy():
    assert thermal_weight(0.5, 0.0, 0.3, MaterialParams()) == 0.0


def test_weight_range(rng):
    # w lies in [0, 1); for (E - mu_B H)/T beyond ~700 the defect 1 - w is
    # below the representable gap under 1.0, so equality with 1.0 is the
    # correctly rounded double there.
    p = MaterialParams()
    for _ in range(300):
        T = 10 ** rng.uniform(-4, 0)
        E = 10 ** rng.uniform(-6, 1)
        H = rng.uniform(0.0, 2.0)
        w = thermal_weight(T, E, H, p)
        assert 0.0 <= w <= 1.0
        if (E - p.mu_B * H) / T <= 30.0:
            assert w < 1.0


def test_weight_identity_both_forms(rng):
    # The weight versus the two-Fermi-function identity
    # 1 - fermi(z + z1) - fermi(z - z1), well past where cosh(z) overflows.
    p = MaterialParams()
    for _ in range(1000):
        z = 10 ** rng.uniform(-3, math.log10(600.0))
        z1 = rng.uniform(0.0, 50.0)
        T = 10 ** rng.uniform(-3, 0)
        w1 = thermal_weight(T, z * T, z1 * T / p.mu_B, p)
        w2 = 1.0 - fermi(z + z1) - fermi(z - z1)
        assert abs(w1 - w2) <= 1e-12


def test_weight_crossover_band_is_smooth():
    # The weight agrees with the direct sinh/cosh quotient to near machine
    # precision where that quotient is representable, here around z = 30.
    p = MaterialParams()
    for z in np.linspace(29.9, 30.1, 41):
        direct = math.sinh(z) / (math.cosh(z) + math.cosh(0.7))
        assert thermal_weight(1.0, z, 0.7, p) == pytest.approx(direct, rel=1e-13)


def _weight_reference(z: float, z1: float) -> float:
    """sinh z / (cosh z + cosh z1) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        ez, ez1 = Decimal(z).exp(), Decimal(z1).exp()
        return float((ez - 1 / ez) / (ez + 1 / ez + ez1 + 1 / ez1))


def _dyadic(x, bits):
    """x rounded to a nonzero multiple of 2^-bits."""
    return np.ldexp(np.maximum(np.round(np.ldexp(x, bits)), 1.0), -bits)


def test_weight_matches_50_digit_reference(rng):
    # With T = mu_B = 1 the kernel sees exactly z = E and z1 = H, so the
    # reference is evaluated at the same doubles.  The weight takes
    # e^(z1 - z) from the rounded difference, which adds up to
    # |z1 - z| 2^-53 relative: no more than rounding z1 itself to a double
    # does.  Where the difference is exact (the dyadic samples) the bound
    # is a flat 1e-15.
    p = MaterialParams()
    assert p.mu_B == 1.0
    z = 10 ** rng.uniform(-14, 4, 300)
    z1 = rng.uniform(0.0, 40.0, 300)
    tail_z = 10 ** rng.uniform(-14, 1, 150)
    tail_d = rng.uniform(30.0, 700.0, 150)
    samples = [
        (z, z1),
        (_dyadic(z, 47), _dyadic(z1, 47)),
        (tail_z, tail_z + tail_d),
        (_dyadic(tail_z, 43), _dyadic(tail_z, 43) + _dyadic(tail_d, 43)),
        (np.array([1e-14, 1.0, 1e4, 3.0, 0.5]), np.array([0.0, 0.0, 40.0, 703.0, 700.5])),
    ]
    exact_samples = 0
    for zs, z1s in samples:
        for z_, z1_ in zip(zs.tolist(), z1s.tolist()):
            ref = _weight_reference(z_, z1_)
            exact = Fraction(z1_) - Fraction(z_) == Fraction(z1_ - z_)
            exact_samples += exact
            tol = 1e-15 if exact else 1e-15 + abs(z1_ - z_) * 2.0**-53
            assert abs(thermal_weight(1.0, z_, z1_, p) - ref) <= tol * ref, (z_, z1_)
    assert exact_samples >= 450


def test_weight_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        thermal_weight(0.0, 1.0, 0.0, MaterialParams())


@pytest.mark.parametrize("T, H, name", [
    (math.inf, 0.0, "T"),                  # used to return 0.0
    (np.array([0.5, -1.0]), 0.0, "T"),     # used to fail on an array truth value
    (1.0, math.nan, "H"),
    (1.0, -0.5, "H"),
])
def test_weight_rejects_bad_arguments_by_name(T, H, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        thermal_weight(T, 1.0, H, MaterialParams())


@pytest.mark.parametrize("E", [math.nan, math.inf, -1.0, np.array([0.5, -1.0])])
def test_weight_rejects_a_bad_energy_by_name(E):
    with pytest.raises(ValueError, match="^E must be"):
        thermal_weight(0.03, E, 0.0, MaterialParams())


# ---------------------------------------------------------------- integrand


def test_integrand_limit_at_zero_energy():
    p = MaterialParams()
    T, H = 0.03, 0.02
    shift = p.a * H + p.b * H * H
    limit = _J(T, H, 0.0, -shift, p)
    expected = 1.0 / (T * (1.0 + math.cosh(p.mu_B * H / T)))
    assert limit == pytest.approx(expected, rel=1e-13)
    # values at E = 1e-6 and 1e-7 converge quadratically onto the limit
    j6 = _J(T, H, 1e-12, -shift, p)  # E = 1e-6
    j7 = _J(T, H, 1e-14, -shift, p)  # E = 1e-7
    assert abs(j7 - limit) < abs(j6 - limit)
    assert j6 == pytest.approx(limit, rel=1e-8)


def test_integrand_reduces_to_tanh_over_xi():
    p = MaterialParams()
    T, xi = 0.05, 0.3
    expected = math.tanh(abs(xi) / (2.0 * T)) / abs(xi)
    assert _J(T, 0.0, 0.0, xi, p) == pytest.approx(expected, rel=1e-13)


def test_integrand_nonnegative(rng):
    p = MaterialParams()
    for _ in range(200):
        T = 10 ** rng.uniform(-4, 0)
        H = rng.uniform(0.0, 1.0)
        Y = rng.uniform(0.0, 0.5)
        xi = rng.uniform(-1.0, 1.0)
        assert _J(T, H, Y, xi, p) >= 0.0


# ------------------------------------------------------------------- F


def test_F_zero_at_transition(p, tau1):
    assert abs(F_eval(StatePoint(tau1, 0.0, 0.0), p)) <= 1e-10


def test_F_positive_below_transition(p, tau1, dbox):
    for T in np.linspace(dbox.T0, 0.999 * tau1, 20):
        assert F_eval(StatePoint(float(T), 0.0, 0.0), p) > 0.0


@pytest.mark.parametrize("T", [1e-6, 1e-8, 1e-10])
def test_F_at_zero_field_matches_the_low_temperature_closed_form(p, T):
    # At H = Y = 0 and T << hbar_omega_D, F = 2 ln(2 e^gamma w / (pi T)) - 1/U1
    # up to O(e^(-w/T)); every E >> T here keeps the full integrand.
    euler_gamma = 0.5772156649015329
    ref = 2.0 * math.log(2.0 * math.exp(euler_gamma) * p.hbar_omega_D / (math.pi * T)) - 1.0 / p.U1
    assert F_eval(StatePoint(T, 0.0, 0.0), p) == pytest.approx(ref, rel=0, abs=1e-12)


@st.composite
def gap_states(draw):
    """(U1, T, H, Y) as the point queries meet them, hbar_omega_D = 1.

    Near the transition (T in [0.8, 1] tau1, H up to 0.6 Delta0) or cold
    (T from 1e-4 to tau1, H up to 2 Delta0), with Y = 0 or up to 4 Delta0^2.
    """
    U1 = draw(st.floats(0.13, 0.25))
    tau1 = TAU1_WEAK_COUPLING * math.exp(-0.5 / U1)
    delta0 = 1.0 / math.sinh(0.5 / U1)
    if draw(st.booleans()):
        T, H = 1e-4 * (tau1 / 1e-4) ** draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0 * delta0))
    else:
        T, H = draw(st.floats(0.8 * tau1, tau1)), draw(st.floats(0.0, 0.6 * delta0))
    Y = draw(st.just(0.0) | st.floats(0.0, 4.0 * delta0 * delta0))
    return U1, T, H, Y


@settings(max_examples=200, deadline=None)
@given(state=gap_states())
@example(state=(0.2, 1.8371802505331663e-4, 0.32723038885810335, 0.0))
def test_F_meets_its_tolerance(state):
    # The example is a cold state whose Zeeman edge a whole-window panel
    # once missed by accident: F came out 1.2e-7 off at the 1e-10 default.
    U1, T, H, Y = state
    p = MaterialParams(U1=U1)
    s = StatePoint(T, H, Y)
    tight = F_eval(s, p, QuadSpec(1e-13, 1e-13))
    assert abs(F_eval(s, p) - tight) <= 2e-10 * max(1.0, abs(tight))


def test_F_on_the_box_takes_one_integrand_call(p, dbox, rng, integrand_calls):
    # The graded start resolves J at level 0: no refinement on the box.
    for k in range(100):
        Y = 0.0 if k % 4 == 0 else float(rng.uniform(0.0, dbox.Y0))
        s = StatePoint(float(rng.uniform(dbox.T0, dbox.tau1)), float(rng.uniform(0.0, dbox.H_max)), Y)
        integrand_calls[0] = 0
        F_eval(s, p)
        assert integrand_calls[0] == 1


def test_F_batch_equals_its_states_alone(p, dbox, rng):
    # States with 1, 2 or 3 feature points each, near tau1 and cold.
    T = np.concatenate([rng.uniform(dbox.T0, dbox.tau1, 6), 10.0 ** rng.uniform(-4, -2, 6)])
    H = np.concatenate([rng.uniform(0.0, dbox.H_max, 6), rng.uniform(0.0, 0.15, 6)])
    Y = np.where(np.arange(12) % 3 == 0, 0.0, rng.uniform(0.0, dbox.Y0, 12))
    values, errors = F_eval_many(T, H, Y, p)
    assert not errors
    for t, h, y, f in zip(T.tolist(), H.tolist(), Y.tolist(), values):
        assert f == F_eval(StatePoint(t, h, y), p)


def test_F_partials_of_no_states_have_three_columns(p):
    values, errors = F_partials_many([], [], [], p)
    assert values.shape == (0, 3) and not errors


@pytest.mark.parametrize("U1", [0.03, 0.04, 0.05, 0.15])
def test_F_H_is_exactly_zero_at_zero_field(U1):
    # At H = 0, J is the same at both window ends and dJ/dh is 0, so F_H is
    # exactly 0.  An integrand for all of F_H is odd there and of size 1/T^2
    # near xi = 0: at (tau1, 0, 0) a tolerance relative to the zero integral
    # was unmet at depth 16 (U1 = 0.03) and 33 (U1 = 0.04).
    p = MaterialParams(U1=U1)
    tau1 = solve_tau1(p)
    T, H, Y = [tau1, 0.9 * tau1, 0.9 * tau1], [0.0, 0.0, 0.1 * tau1], [0.0, 1e-6 * tau1**2, 0.0]
    values, errors = F_partials_many(T, H, Y, p)
    assert not errors
    assert values[:2, 1].tolist() == [0.0, 0.0]
    assert values[2, 1] < 0.0
    assert np.all(values[:, [0, 2]] < 0.0)


def test_F_where_the_orbital_shift_overflows(p):
    # s = a H + b H^2 is inf: every E is inf, J = 0 and F is its limit
    # -1/U1.  The infinite cuts at xi = -s grade nothing; F_partials
    # marks its state failed instead of returning NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        assert F_eval(StatePoint(0.04, 1e200, 0.0), p) == -1.0 / p.U1
        values, errors = F_partials_many(0.04, 1e200, 0.0, p)
    assert values.shape == (1, 3) and list(errors) == [0]


def test_F_decay_bound_in_Y(p, rng):
    # J <= 1/E <= 1/sqrt(Y) pointwise, so F + 1/U1 <= 2 hbar_omega_D/sqrt(Y).
    for Y in (1e-4, 1e-2, 1.0, 25.0):
        val = F_eval(StatePoint(0.03, 0.01, Y), p)
        assert val + 1.0 / p.U1 <= 2.0 * p.hbar_omega_D / math.sqrt(Y) + 1e-12
    assert F_eval(StatePoint(0.03, 0.01, 1e6), p) == pytest.approx(-1.0 / p.U1, rel=1e-2)


def test_F_monotone_decreasing_in_Y_and_H(p, dbox, rng):
    for _ in range(60):
        T = float(rng.uniform(dbox.T0, dbox.tau1))
        H = float(rng.uniform(0.0, dbox.H_max))
        y1, y2 = sorted(rng.uniform(0.0, dbox.Y0, size=2))
        if y2 - y1 < 1e-3 * dbox.Y0:
            y2 = y1 + 1e-3 * dbox.Y0
        assert F_eval(StatePoint(T, H, float(y2)), p) < F_eval(StatePoint(T, H, float(y1)), p)
        h1, h2 = sorted(rng.uniform(0.0, dbox.H_max, size=2))
        if h2 - h1 < 1e-3 * dbox.H_max:
            h2 = h1 + 1e-3 * dbox.H_max
        Y = float(rng.uniform(0.0, dbox.Y0))
        assert F_eval(StatePoint(T, float(h2), Y), p) < F_eval(StatePoint(T, float(h1), Y), p)


# ---------------------------------------------------------------- partials


def test_partial_signs_on_the_box(p, dbox, rng):
    for s in interior_points(dbox, rng, 100):
        f_T, f_H, f_Y = F_partials(s, p)
        assert f_Y < 0.0
        assert f_H < 0.0
        assert f_T < 0.0


def test_partials_match_central_differences(p, dbox, rng):
    # Finite-difference oracle for all three analytic partials.  The two
    # small fields at Y = 0 once failed to converge: the odd orbital part
    # of the dH integrand, of size 1/T^2, dwarfed F_H there.  There F_H is
    # of order H, so a step of 1e-7 leaves rounding noise of several 1e-6
    # relative in the difference; F is even in H, and the step H / 2 keeps
    # it below 1.1e-7.
    tau1 = dbox.tau1
    small_fields = [StatePoint(0.9 * tau1, 1e-3 * tau1, 0.0), StatePoint(0.9 * tau1, 1e-4 * tau1, 0.0)]
    for s in interior_points(dbox, rng, 100, h_lo=1e-3) + small_fields:
        f_T, f_H, f_Y = F_partials(s, p)
        c_T = central_diff(lambda t: F_eval(StatePoint(t, s.H, s.Y), p), s.T, 1e-6 * s.T)
        dH = 0.5 * s.H if s in small_fields else 1e-7
        c_H = central_diff(lambda h: F_eval(StatePoint(s.T, h, s.Y), p), s.H, dH)
        assert f_T == pytest.approx(c_T, rel=1e-6)
        assert f_H == pytest.approx(c_H, rel=1e-6)
        if s.Y > 0.0:  # Y = 0 is one-sided: test_partial_Y_one_sided_at_zero_gap
            c_Y = central_diff(lambda y: F_eval(StatePoint(s.T, s.H, y), p), s.Y, 1e-5 * s.Y)
            assert f_Y == pytest.approx(c_Y, rel=1e-6)


def test_partials_match_a_tight_reference(p, dbox, rng):
    # On the box the default tolerance keeps F_T and F_H to the digits of a
    # 1e-13 quadrature.  Every 7th state has H = 0 and every 5th Y = 0.
    T, H, Y = rng.uniform([dbox.T0, 0.0, 0.0], [dbox.tau1, dbox.H_max, dbox.Y0], (40, 3)).T
    H[::7] = 0.0
    Y[::5] = 0.0
    values, errors = F_partials_many(T, H, Y, p)
    ref, _ = F_partials_many(T, H, Y, p, QuadSpec(1e-13, 1e-13))
    assert not errors
    ok = np.isfinite(ref).all(axis=1)
    assert ok.sum() >= 35
    rel = np.abs(values[ok] - ref[ok]) / np.abs(ref[ok]).clip(1e-300)
    assert rel[:, 0].max() <= 1e-14
    assert rel[H[ok] > 0, 1].max() <= 5e-14
    assert values[H == 0, 1].tolist() == [0.0] * int((H == 0).sum())


@pytest.mark.parametrize(
    "frac, f_T, f_H",
    [
        (0.05, -1.0899805355425524e-9, -0.0060165314590255806),
        (0.02, -3.1457408240012093e-28, -0.0060165314225317565),
    ],
    ids=["0.05tau1", "0.02tau1"],
)
def test_partials_at_cold_gapped_states(p, dbox, frac, f_T, f_H):
    # At (frac tau1, 0.3 H_max, Y0/4) F_T is exponentially small, below any
    # finite-difference oracle's reach.  T F_T from Euler's relation for J's
    # scaling subtracts terms of order 1 and was 5.5e-5 off at 0.05 tau1 and
    # of the wrong sign at 0.02 tau1.  References: closed-form dJ/dT and
    # dJ/dH at fixed (T, Y) integrated with mpmath at 40 digits.
    values, errors = F_partials_many(frac * dbox.tau1, 0.3 * dbox.H_max, dbox.Y0 / 4, p)
    assert not errors
    assert values[0, :2] == pytest.approx([f_T, f_H], rel=1e-9, abs=0.0)


def test_partial_Y_one_sided_at_zero_gap(p):
    # At Y = 0 the one-sided derivative is returned; it must extrapolate the
    # interior values continuously.
    s0 = StatePoint(0.035, 0.01, 0.0)
    _, _, f_Y0 = F_partials(s0, p)
    _, _, f_Y1 = F_partials(StatePoint(0.035, 0.01, 1e-8), p)
    assert f_Y0 == pytest.approx(f_Y1, rel=1e-5)
    assert f_Y0 < 0


def pointwise_cases(p):
    # (T, H, Y, xi) probes spanning every stability branch:
    # z near 0, below/above the series cut, large z, large Zeeman.
    shift = lambda H: p.a * H + p.b * H * H
    cases = []
    for T, H in [(0.03, 0.02), (0.003, 0.02), (1e-4, 0.05)]:
        s = shift(H)
        for z in (3e-6, 3e-5, 0.5 * _Z_SERIES, 2 * _Z_SERIES, 5.0, 80.0):
            cases.append((T, H, 0.0, z * T - s))
        cases.append((T, H, 4e-4, 0.1 - s))
    return cases


@pytest.mark.parametrize("which", ["T", "H", "Y"])
def test_pointwise_derivatives_match_fd(p, which):
    # The integrated channels against central differences of J, including
    # points straddling the internal branch switches.  "H" checks the Zeeman
    # channel dJ/dh, h = mu_B H, by differences in mu_B.  The FD oracle
    # cancels J's leading digits, so derivatives exponentially smaller than
    # J's own scale sit below its noise floor.
    deriv = {"T": _dJ_dT, "H": _dJ_dh, "Y": _dJ_dY}[which]
    for T, H, Y, xi in pointwise_cases(p):
        args = {"T": T, "H": p.mu_B * H, "Y": Y}
        step = {"T": 1e-6 * T, "H": 1e-8, "Y": max(1e-4 * T * T, 1e-6 * Y)}[which]
        j_val = _J(T, H, Y, xi, p)
        e_val = max(quasiparticle_energy(xi, H, Y, p), T)
        floor = 1e-9 * j_val / {"T": T, "H": T / 2.0, "Y": e_val * e_val}[which]

        def J_of(v):
            a = dict(args)
            a[which] = v
            return _J(a["T"], H, a["Y"], xi, dataclasses.replace(p, mu_B=a["H"] / H))

        analytic = deriv(T, H, Y, xi, p)
        if which == "Y" and Y == 0.0:
            # one-sided at the boundary, Richardson-extrapolated
            j0 = J_of(0.0)
            fd = 2.0 * (J_of(0.5 * step) - j0) / (0.5 * step) - (J_of(step) - j0) / step
            assert analytic == pytest.approx(fd, rel=5e-4, abs=floor)
        else:
            fd = central_diff(J_of, args[which], step)
            assert analytic == pytest.approx(fd, rel=1e-5, abs=floor)


def test_series_and_direct_branches_agree(p):
    # dJ/dY: series (z < 0.1) and direct (z >= 0.1) forms overlap smoothly.
    T, H = 0.0323596, 0.0349
    s = p.a * H + p.b * H * H
    for z in np.linspace(0.05, 0.2, 31):
        xi = z * T - s
        series_val = _dJ_dY(T, H, 0.0, xi, p)
        j_lo = _dJ_dY(T, H, 0.0, xi - 1e-9, p)
        assert series_val == pytest.approx(j_lo, rel=1e-6)


def test_weight_decrease_inequality_grid():
    # cosh(z1)(sinh z - z cosh z) + cosh z sinh z - z >= 0 for z1 <= 1.24:
    # the inequality behind dF/dH < 0 (it fails for cosh z1 >= 2, which the
    # field cap excludes).
    for z1 in np.linspace(0.0, 1.24, 7):
        c1 = math.cosh(z1)
        for z in np.linspace(0.0, 50.0, 201):
            lhs = c1 * (math.sinh(z) - z * math.cosh(z)) + math.cosh(z) * math.sinh(z) - z
            scale = max(1.0, abs(c1 * z * math.cosh(z)))
            assert lhs >= -1e-12 * scale


def test_temperature_decrease_inequality_grid():
    # 1 + cosh z cosh z1 - z1 sinh z1 sinh(z)/z > 0 for z1 <= 1.24
    # (equivalently z1 sinh z1 < 2): the inequality behind dF/dT < 0.
    assert 1.24 * math.sinh(1.24) < 2.0
    for z1 in np.linspace(0.0, 1.24, 7):
        for z in np.linspace(0.0, 50.0, 201):
            sinhc = 1.0 if z == 0.0 else math.sinh(z) / z
            assert 1.0 + math.cosh(z) * math.cosh(z1) - z1 * math.sinh(z1) * sinhc > 0.0


# ------------------------------------------------------ sampled continuity


def test_sampled_lipschitz_bound(p, dbox, rng):
    # F is uniformly continuous on the box; estimate a Lipschitz constant on
    # one batch of random pairs and verify an independent batch respects
    # 2x that bound.  A sampled check, not a proof.
    def draw():
        return StatePoint(
            float(rng.uniform(dbox.T0, dbox.tau1)),
            float(rng.uniform(0.0, dbox.H_max)),
            float(rng.uniform(0.0, dbox.Y0)),
        )

    def ratio(s1, s2):
        dist = abs(s1.T - s2.T) + abs(s1.H - s2.H) + abs(s1.Y - s2.Y)
        if dist == 0:
            return 0.0
        return abs(F_eval(s1, p) - F_eval(s2, p)) / dist

    calibration = max(ratio(draw(), draw()) for _ in range(40))
    bound = 2.0 * calibration
    violations = sum(ratio(draw(), draw()) > bound for _ in range(40))
    assert violations == 0


def test_scalar_and_array_paths_agree(p):
    xi = np.array([-0.7, -0.0173, 0.0, 0.31, 0.9999])
    T, H, Y = 0.004, 0.03, 1.3e-4
    vec_j = _J(T, H, Y, xi, p)
    vec_e = quasiparticle_energy(xi, H, Y, p)
    vec_w = thermal_weight(T, vec_e, H, p)
    for k, x in enumerate(xi):
        assert _J(T, H, Y, float(x), p) == vec_j[k]
        assert quasiparticle_energy(float(x), H, Y, p) == vec_e[k]
        assert thermal_weight(T, float(vec_e[k]), H, p) == vec_w[k]
    assert isinstance(_J(T, H, Y, 0.5, p), float)


def test_state_point_validation():
    with pytest.raises(ValueError):
        StatePoint(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        StatePoint(1.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        StatePoint(1.0, 0.0, -1e-30)
