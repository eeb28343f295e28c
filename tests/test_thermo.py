import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsfield import (
    GapSolution,
    dos_constant,
    dos_eval,
    dos_linear,
    dos_sqrt,
    dos_tabulated,
    entropy_gap,
    entropy_gap_fd,
    entropy_gap_fd_many,
    entropy_gap_many,
    grand_potential_N,
    grand_potential_S,
    integrate,
    load_dos_table,
    psi,
    solve_hc,
)
from bcsfield.thermo import _bracket


def _bracket_up(xi, T, Y, s, h):
    return _bracket(xi, T, Y, s, h, 1.0)


def _bracket_dn(xi, T, Y, s, h):
    return _bracket(xi, T, Y, s, h, -1.0)


def zero_gap(T, H):
    return GapSolution(T=T, H=H, Y=0.0, delta=0.0, residual=0.0, iterations=0, boundary=True)


# ------------------------------------------------------------------- DOS


def test_dos_constant_everywhere(p):
    dos = dos_constant(2.5)
    for eps in (-3.0, 0.0, 11.7):
        assert dos_eval(dos, eps, p) == 2.5


def test_dos_sqrt_normalized_at_mu(p):
    assert dos_eval(dos_sqrt(1.3), p.mu, p) == pytest.approx(1.3, rel=1e-15)


def test_dos_linear_at_debye_edge(p):
    dos = dos_linear(1.0, 0.5)
    assert dos_eval(dos, p.mu + p.hbar_omega_D, p) == pytest.approx(1.5, rel=1e-15)


def test_dos_sqrt_requires_positive_argument(p):
    with pytest.raises(ValueError, match="eps > 0"):
        dos_eval(dos_sqrt(), -0.5, p)


def test_dos_linear_rejects_negative_values(p):
    with pytest.raises(ValueError, match="negative"):
        dos_eval(dos_linear(1.0, 2.0), p.mu - p.hbar_omega_D, p)


def test_dos_tabulated_interpolates_and_bounds(p):
    dos = dos_tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 2.0]))
    assert dos_eval(dos, 0.5, p) == pytest.approx(1.5)
    with pytest.raises(ValueError, match="outside"):
        dos_eval(dos, 2.5, p)


def test_dos_tabulated_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        dos_tabulated(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        dos_tabulated(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


def test_dos_table_file_roundtrip(tmp_path, p):
    path = tmp_path / "dos.txt"
    path.write_text("9.0 0.9\n10.0 1.0\n11.0 1.1\n")
    dos = load_dos_table(path)
    assert dos_eval(dos, 10.5, p) == pytest.approx(1.05)


def test_dos_kind_validation():
    from bcsfield.thermo import DosModel

    with pytest.raises(ValueError, match="kind"):
        DosModel(kind="parabolic")
    # Without a table dos_eval would fail on unpacking None.
    with pytest.raises(ValueError, match="table"):
        DosModel(kind="tabulated")


# --------------------------------------------------------- grand potential


def test_normal_equals_superconducting_with_zero_gap(p, dbox):
    T, H = 0.9 * dbox.tau1, 0.01
    dos = dos_linear(1.0, 0.5)
    a = grand_potential_S(T, H, p, dos, zero_gap(T, H))
    b = grand_potential_N(T, H, p, dos)
    assert a == b  # identical code path, bit for bit


def test_spin_brackets_coincide_at_zero_field_normal_state(p):
    # With the gap forced to zero and H = 0 the two spin windows and their
    # integrands are identical.  (At Y > 0 the channels differ pointwise by
    # Y/E: the condensation term is split asymmetrically between spins, and
    # only their sum is physical.)
    xi = np.linspace(-1.0, 1.0, 17)
    up = _bracket_up(xi, 0.03, 0.0, 0.0, 0.0)
    dn = _bracket_dn(xi, 0.03, 0.0, 0.0, 0.0)
    assert np.array_equal(up, dn)
    Y = 2e-3
    up_s = _bracket_up(xi, 0.03, Y, 0.0, 0.0)
    dn_s = _bracket_dn(xi, 0.03, Y, 0.0, 0.0)
    E = np.sqrt(xi * xi + Y)
    assert np.allclose(up_s - dn_s, Y / E, rtol=1e-12)


def test_bracket_half_sum_matches_symmetric_form(p):
    # Independent algebra: averaging the spin brackets must reproduce
    #   eta - eta^2/E - (Y/2E)(1 + f(beta(E+h)) + f(beta(E-h)))
    #     - T ln(1+e^-beta(E+h)) - T ln(1+e^-beta(E-h)),
    # the symmetric single-expression form of the same potential.
    from bcsfield import fermi, log1p_exp_neg

    T, Y, s, h = 0.031, 1.7e-3, 0.017, 0.034
    beta = 1.0 / T
    xi = np.linspace(-1.0 - s - h, 1.0 - s + h, 301)
    eta = xi + s
    E = np.sqrt(eta * eta + Y)
    avg = 0.5 * (_bracket_up(xi, T, Y, s, h) + _bracket_dn(xi, T, Y, s, h))
    symmetric = (
        eta
        - eta * eta / E
        - (Y / (2 * E)) * (1.0 + fermi(beta * (E + h)) + fermi(beta * (E - h)))
        - T * log1p_exp_neg(beta * (E + h))
        - T * log1p_exp_neg(beta * (E - h))
    )
    assert np.allclose(avg, symmetric, rtol=1e-13, atol=1e-15)


def test_normal_state_entropy_positive(p, dbox):
    # -dOmega_N/dT > 0: the windowed modes carry positive entropy.
    dos = dos_linear(1.0, 0.5)
    for T in (0.9 * dbox.tau1, dbox.T0):
        h = 1e-4 * T
        slope = (grand_potential_N(T + h, 0.01, p, dos) -
                 grand_potential_N(T - h, 0.01, p, dos)) / (2 * h)
        assert -slope > 0.0


def test_omega_smooth_in_T(p, dbox):
    dos = dos_constant()
    T0 = 0.9 * dbox.tau1
    h = 1e-3 * T0
    f = lambda t: grand_potential_N(t, 0.01, p, dos)
    second = f(T0 + h) - 2.0 * f(T0) + f(T0 - h)
    assert abs(second) < 1e-4 * abs(f(T0))


def test_omega_finite_at_low_temperature(p):
    value = grand_potential_N(1e-4, 0.02, p, dos_linear(1.0, 0.5))
    assert math.isfinite(value)


def test_brackets_finite_across_removable_point(p):
    # E -> 0 inside the window (Y = 0, eta = 0) stays finite.
    up = _bracket_up(np.array([0.0]), 0.03, 0.0, 0.0, 0.02)
    assert np.isfinite(up).all()


# ------------------------------------------------------------------- psi


def test_psi_zero_on_critical_curve(p, tau1, dbox):
    dos = dos_linear(1.0, 0.5)
    for frac in (0.81, 0.85, 0.9, 0.95, 0.99):
        T = frac * tau1
        hc = solve_hc(T, p, dbox)
        tp = psi(T, hc, p, dos, dbox)
        assert abs(tp.psi) <= 1e-8 * abs(tp.omega_N)
        assert tp.psi == tp.omega_S - tp.omega_N


def test_psi_negative_near_transition_constant_dos(p, tau1, dbox):
    # The condensed state lowers the grand potential just below the
    # transition, already for a flat DOS at zero field.
    dos = dos_constant()
    for frac in (0.95, 0.98, 0.995):
        assert psi(frac * tau1, 0.0, p, dos, dbox).psi < 0.0


def test_psi_negative_inside(p, tau1, dbox, rng):
    dos = dos_linear(1.0, 0.5)
    for _ in range(20):
        T = float(rng.uniform(dbox.T0, 0.98 * tau1))
        hc = solve_hc(T, p, dbox)
        H = float(rng.uniform(0.0, 0.9 * hc))
        assert psi(T, H, p, dos, dbox).psi < 0.0


def test_psi_continuous_across_critical_field(p, tau1, dbox):
    dos = dos_linear(1.0, 0.5)
    T = 0.9 * tau1
    hc = solve_hc(T, p, dbox)
    eps = 1e-4 * hc
    left = psi(T, hc - eps, p, dos, dbox).psi
    right = psi(T, hc + eps, p, dos, dbox).psi
    omega_scale = abs(psi(T, hc, p, dos, dbox).omega_N)
    assert right == 0.0
    assert abs(left - right) <= 1e-6 * omega_scale


# ----------------------------------------------------------- entropy gap


def test_entropy_gap_constant_dos_vanishes(p, dbox):
    assert abs(entropy_gap(dbox.T0, p, dos_constant(), dbox)) <= 1e-12


def test_entropy_gap_zero_at_transition(p, tau1, dbox):
    # H_c = 0 there, the edge slivers are empty.
    assert entropy_gap(tau1, p, dos_linear(1.0, 0.5), dbox) == 0.0


def test_entropy_gap_negative_for_increasing_dos(p, dbox):
    for dos in (dos_linear(1.0, 0.5), dos_sqrt()):
        ds = entropy_gap(dbox.T0, p, dos, dbox)
        fd = entropy_gap_fd(dbox.T0, p, dos, dbox)
        assert ds < 0.0
        assert fd < 0.0


def test_entropy_gap_formula_matches_fd(p, dbox):
    # T = 0.8 tau1 (the box lower bound).
    dos = dos_linear(1.0, 0.5)
    ds = entropy_gap(dbox.T0, p, dos, dbox)
    fd = entropy_gap_fd(dbox.T0, p, dos, dbox)
    assert fd == pytest.approx(ds, rel=0.05)


def test_entropy_fd_noise_floor_constant_dos(p, dbox):
    fd = entropy_gap_fd(dbox.T0, p, dos_constant(), dbox)
    omega = abs(grand_potential_N(dbox.T0, solve_hc(dbox.T0, p, dbox), p, dos_constant()))
    assert abs(fd) <= 1e-6 * omega


def test_entropy_brace_negative_for_increasing_dos(p, tau1, dbox):
    # Independent recomputation of the two edge integrals.
    T = 0.85 * tau1
    hc = solve_hc(T, p, dbox)
    s = p.a * hc + p.b * hc * hc
    h = p.mu_B * hc
    w = p.hbar_omega_D
    for dos in (dos_linear(1.0, 0.5), dos_sqrt()):
        f = lambda xi: dos_eval(dos, np.asarray(xi) + p.mu, p) / np.abs(np.asarray(xi) + s)
        lower = integrate(f, -w - s - h, -w - s + h)
        upper = integrate(f, w - s - h, w - s + h)
        assert lower - upper < 0.0
    # sliver bookkeeping: widths exactly 2 mu_B H_c, centers at -+w - s
    assert (-w - s + h) - (-w - s - h) == pytest.approx(2 * p.mu_B * hc, rel=1e-15)
    assert 0.5 * ((-w - s - h) + (-w - s + h)) == pytest.approx(-w - s, rel=1e-15)
    assert 0.5 * ((w - s - h) + (w - s + h)) == pytest.approx(w - s, rel=1e-15)


def test_entropy_sign_structure(p, dbox):
    # dS = -(1/4) (df/dT < 0) * (brace < 0) < 0, assembled from the factors.
    from bcsfield import implicit_partials

    T = dbox.T0
    hc = solve_hc(T, p, dbox)
    df_dT, _ = implicit_partials(T, hc, p, dbox)
    ds = entropy_gap(T, p, dos_linear(1.0, 0.5), dbox)
    brace = ds / (-0.25 * df_dT)
    assert df_dT < 0.0 and brace < 0.0 and ds < 0.0


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["constant", "linear", "sqrt"]),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_batched_entropy_rows_equal_scalar_calls(p, dbox, kind, fracs):
    dos = {"constant": dos_constant(), "linear": dos_linear(1.0, 0.5), "sqrt": dos_sqrt()}[kind]
    T = [dbox.T0 + u * (dbox.tau1 - dbox.T0) for u in fracs]
    rows = zip(T, entropy_gap_many(T, p, dos, dbox), entropy_gap_fd_many(T, p, dos, dbox))
    for t, ds, ds_fd in rows:
        assert ds == entropy_gap(t, p, dos, dbox)
        assert ds_fd == entropy_gap_fd(t, p, dos, dbox)


def test_batched_entropy_of_no_rows(p, dbox):
    assert entropy_gap_many([], p, dos_linear(), dbox) == []
    assert entropy_gap_fd_many([], p, dos_linear(), dbox) == []


def test_entropy_fd_step_validation(p, dbox):
    with pytest.raises(ValueError, match="delta_T"):
        entropy_gap_fd(dbox.T0, p, dos_constant(), dbox, delta_T=2 * dbox.T0)


def test_tabulated_dos_out_of_support_error(p, dbox):
    # Table too narrow for the edge slivers around mu +/- hbar_omega_D.
    narrow = dos_tabulated(np.array([p.mu - 0.5, p.mu + 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="outside"):
        entropy_gap(dbox.T0, p, narrow, dbox)


def _omega_knot_by_knot(T, H, Y, p, dos):
    """Grand potential integrated piece by piece between the table's knots."""
    s, h, w = p.a * H + p.b * H * H, p.mu_B * H, p.hbar_omega_D
    total = 0.0
    for spin in (1.0, -1.0):
        lo, hi = -w - s - spin * h, w - s - spin * h
        cuts = np.unique(np.concatenate([[lo, -s, hi], dos.table[0] - p.mu]))
        cuts = cuts[(cuts >= lo) & (cuts <= hi)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += integrate(
                lambda xi: dos_eval(dos, xi + p.mu, p) * _bracket(xi, T, Y, s, h, spin), a, b)
    return 0.5 * total


def test_densely_tabulated_dos(p, tau1, dbox):
    # 601 knots over mu +/- 2 hbar_omega_D: about 150 kinks in every piece of
    # every spin window, integrated whole by the adaptive quadrature.
    x = np.linspace(-2.0, 2.0, 601)
    dos = dos_tabulated(p.mu + x, 1.0 + 0.3 * x + 0.05 * x * x + 0.01 * np.sin(9.0 * x))
    T = 0.9 * tau1
    tp = psi(T, 0.5 * solve_hc(T, p, dbox), p, dos, dbox)
    assert tp.psi < 0.0
    assert tp.omega_S == pytest.approx(_omega_knot_by_knot(T, tp.H, tp.gap.Y, p, dos), rel=1e-9)
    assert tp.omega_N == pytest.approx(_omega_knot_by_knot(T, tp.H, 0.0, p, dos), rel=1e-9)
    ds = entropy_gap(dbox.T0, p, dos, dbox)
    assert ds < 0.0
    assert entropy_gap_fd(dbox.T0, p, dos, dbox) == pytest.approx(ds, rel=0.05)
