import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsfield import (
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
    implicit_partials,
    integrate,
    load_dos_table,
    psi,
    solve_hc,
    solve_hc_many,
)
from bcsfield import solvers, thermo
from bcsfield.kernel import zeeman_edges
from bcsfield.numerics import NumericsError, QuadSpec, integrate_many
from bcsfield.solvers import DomainWarning, implicit_partials_at
from bcsfield.thermo import (
    FD_STEP,
    _brackets,
    _entropy_gap_fd_many,
    _entropy_gap_many,
    _omega_many,
)


def _bracket(xi, T, Y, s, h, spin):
    """Grand-potential bracket of one spin (+1 up, -1 down) at squared gap Y: a reference.

    Up:   eta - eta^2/E - (Y/E) f(beta(E + h)) - 2T ln(1 + e^(-beta(E + h)));
    down: eta - (eta^2 + 2Y)/E + (Y/E) f(-beta(E - h)) - 2T ln(1 + e^(-beta(E - h))).
    omega_S and omega_N are two integrals of it, at Y and at 0; their
    difference is psi, taken with the cancellation that the library avoids.
    """
    eta = np.asarray(xi, dtype=float) + s
    paired = np.any(Y)
    E = np.sqrt(eta * eta + Y) if paired else np.abs(eta)
    x = (1.0 / T) * (E + spin * h)
    t = np.exp(-np.abs(x))
    log_term = np.maximum(-x, 0.0) + np.log1p(t)
    if paired:
        f = np.where(spin * x >= 0, t / (1.0 + t), 1.0 / (1.0 + t))
        core = eta - (eta * eta + (1.0 - spin) * Y) / E - spin * (Y / E) * f
    else:
        core = eta - E
    return core - 2.0 * T * log_term


def _brackets_at(xi, T, Y, s, h, spin):
    """The library's (bracket_S - bracket_N, bracket_N) of one spin, from physical arguments."""
    return _brackets(np.asarray(xi, dtype=float) + s, Y, 1.0 / T, 2.0 * T, spin * h,
                     0.5 * (1.0 - spin))


def omega_two_integrals(T, H, Y, p, dos, quad=None):
    """omega at squared gap Y integrated from the reference bracket: a reference.

    Each spin window is integrated in xi, split at xi = -s into two pieces,
    and every piece is graded toward xi = -s and the Zeeman edges: a layout
    independent of the library's one interval per state.
    """
    s, h, w = p.a * H + p.b * H * H, p.mu_B * H, p.hbar_omega_D
    spin = np.array([1.0, 1.0, -1.0, -1.0])
    lo, hi = -w - s - spin * h, w - s - spin * h
    split = np.clip(-s, lo, hi)
    lo, hi = np.where([1, 0, 1, 0], lo, split), np.where([1, 0, 1, 0], split, hi)
    cuts = np.tile([-s, *zeeman_edges(s, h, Y)], (4, 1))
    scales = np.tile([min(math.sqrt(Y), math.pi * T) if Y > 0 else math.pi * T,
                      math.pi * T, math.pi * T], (4, 1))
    values, errors = integrate_many(
        lambda xi, k: dos_eval(dos, xi + p.mu, p) * _bracket(xi, T, Y, s, h, spin[k, None]),
        lo, hi, quad, (cuts, scales))
    assert not errors
    return 0.5 * ((values[0] + values[1]) + (values[2] + values[3]))


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
    # A table built directly gets the checks dos_tabulated's does.
    eps = np.array([8.0, 9.5, 10.5, 12.0])
    dens = np.ones(4)
    for table, match in [
        ((eps[[0, 2, 1, 3]], dens), "strictly increasing"),
        ((eps, np.array([1.0, -0.5, 1.0, 1.0])), "nonnegative"),
        ((eps, np.array([1.0, np.inf, 1.0, 1.0])), "finite"),
        ((eps[:3], dens), "equal-length"),
        ((eps[:1], dens[:1]), ">= 2 rows"),
    ]:
        with pytest.raises(ValueError, match=match):
            DosModel(kind="tabulated", table=table)
    # Through dos_tabulated, an empty or mismatched column is the table's
    # error, not numpy's.
    for columns in [([], []), ([0.0, 1.0], [])]:
        with pytest.raises(ValueError, match="equal-length"):
            dos_tabulated(*columns)


# --------------------------------------------------------- grand potential


def test_normal_equals_superconducting_with_zero_gap(p, dbox):
    # Beyond H_c the gap grand_potential_S solves is zero.
    T = 0.9 * dbox.tau1
    H = 1.01 * solve_hc(T, p, dbox)
    dos = dos_linear(1.0, 0.5)
    a = grand_potential_S(T, H, p, dos, dbox)
    b = grand_potential_N(T, H, p, dos)
    assert a == b  # identical code path, bit for bit


def test_superconducting_potential_solves_its_own_gap(p, dbox):
    T = 0.9 * dbox.tau1
    H = 0.9 * solve_hc(T, p, dbox)
    dos = dos_linear(1.0, 0.5)
    tp = psi(T, H, p, dos, dbox)
    assert tp.psi < 0
    assert grand_potential_S(T, H, p, dos, dbox) == tp.omega_S


@pytest.mark.parametrize("T, H, name", [
    (-1.0, 0.0, "T"),
    (math.nan, 0.0, "T"),
    (0.03, -1.0, "H"),  # used to return a value
    (0.03, math.inf, "H"),
])
def test_grand_potentials_reject_bad_arguments_by_name(p, dbox, T, H, name):
    dos = dos_linear(1.0, 0.5)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        grand_potential_N(T, H, p, dos)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        grand_potential_S(T, H, p, dos, dbox)


def test_omega_batch_keeps_state_order_and_error_keys(p, dbox, monkeypatch):
    # Paired and normal states interleaved: each value and error stays at its
    # state's index, and equals the state's value alone.
    import bcsfield.thermo as thermo

    dos = dos_linear(1.0, 0.5)
    T = [0.9 * dbox.tau1, 0.85 * dbox.tau1, 0.95 * dbox.tau1, 0.88 * dbox.tau1, 0.9 * dbox.tau1]
    H = [0.004, 0.01, 0.002, 0.0, 0.0]
    Y = [1e-3, 0.0, 2e-4, 0.0, 5e-4]
    values, errors = _omega_many(T, H, Y, p, dos, None)
    assert not errors and values.shape == (5, 2)
    for i in range(5):
        assert np.array_equal(values[i], _omega_many(T[i], H[i], Y[i], p, dos, None)[0][0])
    brackets = thermo._brackets

    def nan_at(eta, Y_, inv_T, *args):
        gap, normal = brackets(eta, Y_, inv_T, *args)
        return gap, np.where(np.isin(inv_T, [1.0 / T[1], 1.0 / T[2]]), np.nan, normal)

    monkeypatch.setattr(thermo, "_brackets", nan_at)
    failed, errors = _omega_many(T, H, Y, p, dos, None)
    assert sorted(errors) == [1, 2]
    assert np.isnan(failed[[1, 2]]).all()
    assert np.array_equal(failed[[0, 3, 4]], values[[0, 3, 4]])


def test_omega_integrates_one_debye_window_per_state(p, dbox, monkeypatch):
    # Both spins of a state share one interval in eps = eta + spin h, so the
    # quadrature sees m intervals [-w, w] and its error keys are state indices.
    T = [0.9 * dbox.tau1, 0.85 * dbox.tau1, 0.95 * dbox.tau1]
    H = [0.004, 0.01, 0.0]
    Y = [1e-3, 0.0, 2e-4]
    calls = []
    integrate_many_ = thermo._integrate_many
    brackets = thermo._brackets

    def recorded(f, lo, hi, *args):
        values, errors = integrate_many_(f, lo, hi, *args)
        calls.append((np.asarray(lo), np.asarray(hi), sorted(errors)))
        return values, errors

    def nan_at(eta, Y_, inv_T, *args):
        gap, normal = brackets(eta, Y_, inv_T, *args)
        return gap, np.where(inv_T == 1.0 / T[1], np.nan, normal)

    monkeypatch.setattr(thermo, "_integrate_many", recorded)
    monkeypatch.setattr(thermo, "_brackets", nan_at)
    _, errors = _omega_many(T, H, Y, p, dos_linear(1.0, 0.5), None)
    [(lo, hi, raw)] = calls
    w = p.hbar_omega_D
    assert lo.tolist() == [-w] * 3 and hi.tolist() == [w] * 3
    assert raw == sorted(errors) == [1]


def test_spin_brackets_coincide_at_zero_field_normal_state(p):
    # At H = 0 the two spin windows and their normal brackets are identical,
    # and so are the reference's at Y = 0.  (At Y > 0 the channels differ
    # pointwise by Y/E: the condensation term is split asymmetrically between
    # spins, and only their sum is physical.)
    xi = np.linspace(-1.0, 1.0, 17)
    gap_up, up = _brackets_at(xi, 0.03, 0.0, 0.0, 0.0, 1.0)
    gap_dn, dn = _brackets_at(xi, 0.03, 0.0, 0.0, 0.0, -1.0)
    assert np.array_equal(up, dn)
    assert np.array_equal(up, _bracket(xi, 0.03, 0.0, 0.0, 0.0, 1.0))
    assert np.array_equal(gap_up, np.zeros_like(xi)) and not np.signbit(gap_up).any()
    assert np.array_equal(gap_dn, np.zeros_like(xi)) and not np.signbit(gap_dn).any()
    Y = 2e-3
    gap_up, _ = _brackets_at(xi, 0.03, Y, 0.0, 0.0, 1.0)
    gap_dn, _ = _brackets_at(xi, 0.03, Y, 0.0, 0.0, -1.0)
    E = np.sqrt(xi * xi + Y)
    assert np.allclose(gap_up - gap_dn, Y / E, rtol=1e-12)


def test_bracket_half_sum_matches_symmetric_form(p):
    # Independent algebra: averaging the spin brackets must reproduce
    #   eta - eta^2/E - (Y/2E)(1 + f(beta(E+h)) + f(beta(E-h)))
    #     - T ln(1+e^-beta(E+h)) - T ln(1+e^-beta(E-h)),
    # the symmetric single-expression form of the same potential.
    from bcsfield import fermi
    from bcsfield.kernel import _log1p_exp_neg

    T, Y, s, h = 0.031, 1.7e-3, 0.017, 0.034
    beta = 1.0 / T
    xi = np.linspace(-1.0 - s - h, 1.0 - s + h, 301)
    eta = xi + s
    E = np.sqrt(eta * eta + Y)
    avg = 0.5 * sum(sum(_brackets_at(xi, T, Y, s, h, spin)) for spin in (1.0, -1.0))
    symmetric = (
        eta
        - eta * eta / E
        - (Y / (2 * E)) * (1.0 + fermi(beta * (E + h)) + fermi(beta * (E - h)))
        - T * _log1p_exp_neg(beta * (E + h))
        - T * _log1p_exp_neg(beta * (E - h))
    )
    assert np.allclose(avg, symmetric, rtol=1e-13, atol=1e-15)
    reference = 0.5 * (_bracket(xi, T, Y, s, h, 1.0) + _bracket(xi, T, Y, s, h, -1.0))
    assert np.allclose(avg, reference, rtol=1e-13, atol=1e-15)


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


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["linear", "sqrt", "constant"]),
    slope=st.floats(0.2, 0.8),
    fracs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                   min_size=20, max_size=40),
)
def test_grand_potentials_meet_their_tolerance(p, dbox, kind, slope, fracs):
    # psi and omega_N at sweep-like states, at least 2000 per run, paired
    # and at Y = 0: a whole-piece panel once passed a spin-up piece 6.2e-7
    # off by accident.
    dos = {"linear": dos_linear(1.0, slope), "sqrt": dos_sqrt(), "constant": dos_constant()}[kind]
    T = [dbox.T0 + u * (dbox.tau1 - dbox.T0) for u, _, _ in fracs]
    H = [v * dbox.H_max for _, v, _ in fracs] * 2
    Y = [w * dbox.Y0 for _, _, w in fracs] + [0.0] * len(fracs)
    default, errors = _omega_many(T * 2, H, Y, p, dos, None)
    tight, tight_errors = _omega_many(T * 2, H, Y, p, dos, QuadSpec(1e-13, 1e-13))
    assert not errors and not tight_errors
    assert np.all(np.abs(default - tight) <= 2e-10 * np.maximum(1.0, np.abs(tight)))


def test_brackets_finite_across_removable_point(p):
    # E -> 0 inside the window (Y = 0, eta = 0) stays finite, with the
    # difference exactly +0.0 and no warning (pytest would raise it).
    for spin in (1.0, -1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap, normal = _brackets_at(np.array([0.0, -0.0, 5e-324]), 0.03, 0.0, 0.0, 0.02, spin)
        assert np.array_equal(gap, [0.0, 0.0, 0.0]) and not np.signbit(gap).any()
        assert np.isfinite(normal).all()
        assert np.array_equal(normal, _bracket(np.array([0.0, -0.0, 5e-324]), 0.03, 0.0, 0.0,
                                               0.02, spin))


# ------------------------------------------------------------------- psi


def test_psi_zero_on_critical_curve(p, tau1, dbox):
    dos = dos_linear(1.0, 0.5)
    for frac in (0.81, 0.85, 0.9, 0.95, 0.99):
        T = frac * tau1
        hc = solve_hc(T, p, dbox)
        tp = psi(T, hc, p, dos, dbox)
        assert abs(tp.psi) <= 1e-8 * abs(tp.omega_N)
        assert tp.omega_S == tp.omega_N + tp.psi


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
    beyond = psi(T, hc + eps, p, dos, dbox)
    right = beyond.psi
    omega_scale = abs(psi(T, hc, p, dos, dbox).omega_N)
    # +0.0, so that no CSV cell prints -0, and omega_S is omega_N exactly.
    assert right == 0.0 and math.copysign(1.0, right) == 1.0
    assert beyond.omega_S == beyond.omega_N
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


DOS_MODELS = {"linear": dos_linear(1.0, 0.5), "sqrt": dos_sqrt(), "constant": dos_constant()}
CURVE_FRACS = (0.0, 0.25, 0.5, 0.75, 0.95)


def entropy_gap_by_gap_solve(T, hc, p, dos, dbox):
    """dS with df/dT from a gap solve at (T, H_c) and its brace on [-h, h]: a reference."""
    df_dT = implicit_partials(T, hc, p, dbox)[0]
    mu_s, h, w = p.mu - (p.a * hc + p.b * hc * hc), p.mu_B * hc, p.hbar_omega_D
    brace, errors = integrate_many(
        lambda t, k: dos_eval(dos, mu_s - w + t, p) / (w - t) - dos_eval(dos, mu_s + w + t, p) / (w + t),
        [-h], [h])
    assert not errors
    return -0.25 * df_dT * float(brace[0])


def entropy_gap_fd_by_three_probes(T, hc, p, dos, dbox):
    """Richardson estimate from psi at T, T - d and T - d/2, d = FD_STEP T: a reference."""
    d = FD_STEP * T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        psi_0, psi_1, psi_2 = (psi(t, hc, p, dos, dbox).psi for t in (T, T - d, T - 0.5 * d))
    assert psi_0 == 0.0
    return 2.0 * ((psi_2 - psi_0) / (0.5 * d)) - (psi_1 - psi_0) / d


@pytest.mark.parametrize("kind", sorted(DOS_MODELS))
def test_entropy_gap_on_the_critical_curve_keeps_every_bit(p, dbox, kind):
    # The closed form takes df/dT at Y = 0 and the finite difference takes
    # psi(T, H_c) = 0, without solving for either: both give the doubles of
    # the paths that solve the gap there.  run_sweep and the CLI call these
    # private forms with the H_c they have solved.
    dos = DOS_MODELS[kind]
    T = np.array([dbox.T0 + u * (dbox.tau1 - dbox.T0) for u in CURVE_FRACS])
    hcs = solve_hc_many(T, p, dbox)
    ds = _entropy_gap_many(T, hcs, p, dos, None)
    ds_fd = _entropy_gap_fd_many(T, hcs, p, dos, dbox, None)
    for t, hc, value, value_fd in zip(T, hcs, ds, ds_fd):
        assert value == entropy_gap_by_gap_solve(t, hc, p, dos, dbox)
        assert value_fd == entropy_gap_fd_by_three_probes(t, hc, p, dos, dbox)


def test_entropy_gap_solves_no_root_and_probes_two_states_per_row(p, dbox, monkeypatch):
    T = np.array([dbox.T0 + u * (dbox.tau1 - dbox.T0) for u in CURVE_FRACS])
    hcs = solve_hc_many(T, p, dbox)
    dos = dos_linear(1.0, 0.5)
    expected = _entropy_gap_many(T, hcs, p, dos, None)

    def no_root(*args, **kwargs):
        raise AssertionError("_entropy_gap_many solved a root")

    monkeypatch.setattr(solvers, "find_root_decreasing_many", no_root)
    assert _entropy_gap_many(T, hcs, p, dos, None) == expected
    monkeypatch.undo()
    probed = []
    psi_many = thermo.psi_many

    def counted_psi_many(T, H, *args):
        probed.append(len(T))
        return psi_many(T, H, *args)

    monkeypatch.setattr(thermo, "psi_many", counted_psi_many)
    _entropy_gap_fd_many(T, hcs, p, dos, dbox, None)
    assert probed == [2 * len(T)]


def test_entropy_gap_keeps_an_hc_error_as_its_row(p, dbox):
    # solve_hc_many's output may hold an error; it stays that row's result.
    T = np.array([dbox.T0, 0.9 * dbox.tau1, 0.95 * dbox.tau1])
    failed = NumericsError("critical field exceeds domain cap")
    hcs = solve_hc_many(T, p, dbox)
    hcs[1] = failed
    dos = dos_linear()
    for out, one in ((_entropy_gap_many(T, hcs, p, dos, None), entropy_gap),
                     (_entropy_gap_fd_many(T, hcs, p, dos, dbox, None), entropy_gap_fd)):
        assert out[1] is failed
        assert [out[0], out[2]] == [one(T[0], p, dos, dbox), one(T[2], p, dos, dbox)]


def test_entropy_fd_step_validation(p, dbox):
    # FD_STEP * T underflows to 0 at T = 1e-321: the row would divide by 0.
    # The step is checked before H_c is solved, whose F would overflow there.
    with pytest.raises(ValueError, match="^T must have its step"):
        entropy_gap_fd(1e-321, p, dos_constant(), dbox)


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


# ------------------------------------------------ psi without cancellation


def _psi_bracket_50_digits(eta, Y, T, h, spin):
    """bracket_S - bracket_N of one spin in 50-digit decimal arithmetic: a reference."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        eta, Y, T, h, spin = (Decimal(float(v)) for v in (eta, Y, T, h, spin))

        def log1p(y):
            return y - y * y / 2 + y ** 3 / 3 - y ** 4 / 4 if abs(y) < Decimal("1e-13") \
                else (1 + y).ln()

        def softplus_neg(z):  # ln(1 + e^-z)
            return log1p((-z).exp()) if z > 0 else -z + log1p(z.exp())

        E = (eta * eta + Y).sqrt()
        x = (E + spin * h) / T
        u = (abs(eta) + spin * h) / T
        f = 1 / (1 + (spin * x).exp())
        S = eta - (eta * eta + (1 - spin) * Y) / E - spin * (Y / E) * f - 2 * T * softplus_neg(x)
        N = eta - abs(eta) - 2 * T * softplus_neg(u)
        return float(S - N)


def test_psi_bracket_against_50_digits_on_cold_high_field_nodes(rng):
    from bcsfield import fermi

    # Spin-down nodes with mu_B H / T up to 3e4 and T down to 1e-5, most of
    # them inside the Zeeman edges (|eta| < h) and with d = E - |eta| from
    # T/10 to 1000 T, where 1 + f(u) expm1(-d/T) falls below 1/2; a
    # quarter are spin up.
    n = 1200
    T = 10.0 ** rng.uniform(-5.0, -2.0, n)
    h = T * 10.0 ** rng.uniform(0.0, math.log10(3e4), n)
    eta = rng.uniform(-1.2, 1.2, n) * h
    Y = (T * 10.0 ** rng.uniform(-1.0, 3.0, n)) ** 2
    spin = np.where(rng.random(n) < 0.75, -1.0, 1.0)
    gap, _ = _brackets_at(eta, T, Y, 0.0, h, spin)
    a = np.abs(eta)
    d = Y / (np.sqrt(eta * eta + Y) + a)
    u = (a + spin * h) / T
    assert np.count_nonzero(fermi(u) * np.expm1(-d / T) < -0.5) > n // 4
    ref = np.array([_psi_bracket_50_digits(*args) for args in zip(eta, Y, T, h, spin)])
    assert np.all(np.abs(gap - ref) <= 1e-10 * np.abs(ref))


@pytest.mark.parametrize("U1", [0.08, 0.15, 0.25])
def test_psi_matches_the_two_integral_difference_at_tight_tolerance(U1):
    # The sqrt DOS takes the spin-shifted argument D(eps - s - spin h + mu)
    # non-linearly.
    from bcsfield import MaterialParams, domain_from, solve_tau1

    q = MaterialParams(U1=U1)
    t1 = solve_tau1(q)
    box = domain_from(q, 0.8 * t1, t1)
    tight = QuadSpec(1e-13, 1e-13)
    T = [f * t1 for f in (0.82, 0.9, 0.97)]
    hcs = solve_hc_many(T, q, box)
    for dos in (dos_linear(1.0, 0.5), dos_sqrt()):
        for t, hc in zip(T, hcs):
            for H in (0.0, 0.5 * hc):
                tp = psi(t, H, q, dos, box)
                Y = tp.gap.Y
                omega_N = omega_two_integrals(t, H, 0.0, q, dos, tight)
                difference = omega_two_integrals(t, H, Y, q, dos, tight) - omega_N
                assert abs(tp.psi - difference) <= 1e-13
                assert abs(tp.omega_N - omega_N) <= 1e-12 * abs(omega_N)
                assert tp.omega_S == tp.omega_N + tp.psi


@pytest.mark.parametrize("U1", [0.05, 0.08, 0.15, 0.25])
def test_entropy_fd_matches_the_formula_at_every_coupling(U1):
    # At U1 = 0.05 psi at the probes is about 1e-16: a difference of two
    # grand potentials of size 0.67 gave dS_fd the wrong sign there.
    from bcsfield import MaterialParams, domain_from, solve_tau1

    q = MaterialParams(U1=U1)
    t1 = solve_tau1(q)
    box = domain_from(q, 0.8 * t1, t1)
    T = np.linspace(0.8 * t1, 0.97 * t1, 10)
    for dos in (dos_linear(1.0, 0.5), dos_sqrt()):
        ds = entropy_gap_many(T, q, dos, box)
        ds_fd = entropy_gap_fd_many(T, q, dos, box)
        for value, value_fd in zip(ds, ds_fd):
            assert value < 0.0
            assert value_fd == pytest.approx(value, rel=0.05)


def _curve(U1):
    """Parameters, box, 10 temperatures from 0.8 to 0.97 tau1 and their H_c at coupling U1."""
    from bcsfield import MaterialParams, domain_from, solve_tau1

    q = MaterialParams(U1=U1)
    t1 = solve_tau1(q)
    box = domain_from(q, 0.8 * t1, t1)
    T = np.linspace(0.8 * t1, 0.97 * t1, 10).tolist()
    return q, box, T, solve_hc_many(T, q, box)


@pytest.mark.parametrize("U1", [0.0025, 0.015, 0.02, 0.03, 0.05, 0.08, 0.15, 0.25])
def test_entropy_gap_matches_the_linear_dos_closed_form(U1):
    # For D = D0 (1 + c (eps - mu) / w) the brace is exactly -4 D0 c h / w,
    # so dS = (df/dT) D0 c mu_B H_c / w.  The slivers taken in absolute xi
    # lost their width to the rounding of -+w at U1 <= 0.03, and were 2e-12
    # off at U1 = 0.05.  At U1 = 0.0025 the partials' small-z series once
    # overflowed on the nodes it does not serve, which the suite's
    # RuntimeWarning filter makes an error.
    q, box, T, hcs = _curve(U1)
    ds = entropy_gap_many(T, q, dos_linear(1.0, 0.5), box)
    for value, hc, (df_dT, _) in zip(ds, hcs, implicit_partials_at(T, hcs, [0.0] * 10, q)):
        exact = df_dT * 0.5 * q.mu_B * hc / q.hbar_omega_D
        assert value == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("U1", [0.03, 0.05, 0.15])
def test_entropy_gap_sqrt_dos_matches_a_40_digit_brace(U1):
    # The brace of D = D0 sqrt(eps / mu) integrated with mpmath at 40 digits,
    # at the library's H_c and df/dT.  The slivers in absolute xi were
    # 1.3e-11 off at U1 = 0.05.
    mpmath = pytest.importorskip("mpmath")
    q, box, T, hcs = _curve(U1)
    ds = entropy_gap_many(T, q, dos_sqrt(), box)
    with mpmath.workdps(40):
        mu, w = mpmath.mpf(q.mu), mpmath.mpf(q.hbar_omega_D)
        for value, hc, (df_dT, _) in zip(ds, hcs, implicit_partials_at(T, hcs, [0.0] * 10, q)):
            H = mpmath.mpf(hc)
            mu_s, h = mu - (q.a * H + q.b * H * H), q.mu_B * H
            brace = mpmath.quad(lambda t: mpmath.sqrt((mu_s - w + t) / mu) / (w - t)
                                - mpmath.sqrt((mu_s + w + t) / mu) / (w + t), [-h, h])
            assert value == pytest.approx(-0.25 * df_dT * float(brace), rel=2e-15, abs=0.0)


def test_entropy_slivers_holding_the_pole_fail_by_name():
    # At U1 = 1.5, mu_B H_c >= hbar_omega_D at 0.8 and 0.84 tau1: each
    # sliver then holds the pole of 1/|xi + s|, which no quadrature meets.
    from bcsfield import MaterialParams, domain_from, solve_tau1

    q = MaterialParams(U1=1.5)
    t1 = solve_tau1(q)
    box = domain_from(q, 0.8 * t1, t1)
    T = [0.8 * t1, 0.84 * t1, 0.9 * t1]
    dos = dos_sqrt()
    out = entropy_gap_many(T, q, dos, box)
    for row in out[:2]:
        assert isinstance(row, NumericsError)
        assert "mu_B H_c" in str(row) and "hbar_omega_D = 1.0" in str(row)
    assert out[2] == entropy_gap(T[2], q, dos, box)
