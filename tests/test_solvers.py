import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsfield import (
    DomainBox,
    DomainWarning,
    F_eval,
    MaterialParams,
    StatePoint,
    domain_from,
    dos_linear,
    psi,
    hc_slope_at_tc,
    SingularDerivativeError,
    implicit_partials,
    implicit_partials_many,
    solve_gap_squared,
    solve_hc,
    solve_tau1,
)
from bcsfield import kernel, numerics, solvers
from bcsfield.kernel import F_eval_many, _fermi_delta
from bcsfield.numerics import BracketError, NumericsError, RootSpec, first, integrate, unwrap
from bcsfield.solvers import TAU1_WEAK_COUPLING, solve_gap_squared_many, solve_hc_many
from bcsfield.thermo import psi_many


# ------------------------------------------------------------------ tau1


def test_tau1_weak_coupling_asymptote(p, tau1):
    ref = 1.134 * p.hbar_omega_D * math.exp(-0.5 / p.U1)
    assert tau1 == pytest.approx(ref, rel=0.02)


def test_tau1_increases_with_coupling(tau1):
    stronger = solve_tau1(MaterialParams(U1=0.2))
    assert stronger > tau1


def test_tau1_residual_within_tolerance(p, tau1):
    assert abs(F_eval(StatePoint(tau1, 0.0, 0.0), p)) <= 1e-10


def test_tau1_rejects_invalid_params():
    with pytest.raises(ValueError):
        solve_tau1(MaterialParams(U1=-1.0))


@pytest.mark.parametrize("U1", [0.025, 0.03])
def test_tau1_at_weak_coupling_matches_the_closed_form(U1):
    # tau1 near 1e-9 hbar_omega_D: the bracket seeds E << hbar_omega_D states.
    q = MaterialParams(U1=U1)
    ref = 2.0 * math.exp(0.5772156649015329) / math.pi * q.hbar_omega_D * math.exp(-0.5 / U1)
    assert solve_tau1(q) == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_tau1_at_weak_coupling_is_the_seed():
    # With the default RootSpec the seed (2 e^gamma / pi) hbar_omega_D
    # e^(-1/(2 U1)) is the root to within f_tol.
    q = MaterialParams(U1=0.02)
    ref = 2.0 * math.exp(0.5772156649015329) / math.pi * q.hbar_omega_D * math.exp(-0.5 / q.U1)
    assert solve_tau1(q) == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_tau1_evaluates_each_F_once(p, integrand_calls, monkeypatch):
    # At U1 = 0.15 the Newton step from the seed is below 1e-8: one
    # closed-form F, at T_s, and no quadrature.
    evaluated = []
    closed = solvers._F_tau1

    def recorded(T, T_s, q):
        evaluated.append(T)
        return closed(T, T_s, q)

    monkeypatch.setattr(solvers, "_F_tau1", recorded)
    solve_tau1(p)
    assert evaluated == [TAU1_WEAK_COUPLING * p.hbar_omega_D * math.exp(-0.5 / p.U1)]
    assert integrand_calls[0] == 0


@pytest.mark.parametrize("U1", [0.1, 0.15, 0.3, 0.8, 3.0])
def test_tau1_checks_T_once_and_keeps_the_checked_F(U1, monkeypatch):
    # solve_tau1 checks its seed once, however many Newton steps it takes,
    # and evaluates no quadrature F.
    p = MaterialParams(U1=U1)
    checks = []
    for module in (kernel, numerics, solvers):
        def counted(*args, _check=module.check_arg, **kwargs):
            checks.append(args[0])
            return _check(*args, **kwargs)

        monkeypatch.setattr(module, "check_arg", counted)
    evaluated = []
    monkeypatch.setattr(solvers, "_F_many", lambda *args: evaluated.append(args))
    solve_tau1(p)
    assert checks == ["T"]
    assert evaluated == []


@pytest.mark.parametrize("U1", [0.13, 0.19, 0.25, 0.8, 3.0])
def test_tau1_meets_f_tol(U1):
    q = MaterialParams(U1=U1)
    assert abs(F_eval(StatePoint(solve_tau1(q), 0.0, 0.0), q)) <= RootSpec().f_tol


def test_tau1_strong_coupling_expansion():
    # Far from the weak-coupling seed T_s: at U1 = 3 tau1 lies above T_s e,
    # and Newton's steps in ln T climb there from the seed.
    previous = solve_tau1(MaterialParams(U1=0.3))
    for U1 in (0.8, 3.0):
        strong = MaterialParams(U1=U1)
        t1 = solve_tau1(strong)
        assert t1 > previous
        assert abs(F_eval(StatePoint(t1, 0.0, 0.0), strong)) <= 1e-10
        previous = t1
    assert previous > math.e * TAU1_WEAK_COUPLING * math.exp(-0.5 / 3.0)


@pytest.mark.parametrize("U1", [0.05, 0.15, 0.25, 1.0, 15.5, 653.0])
def test_tau1_closed_form_matches_the_quadrature(U1):
    # Both branches of the closed form and their crossing at u = 3: at
    # U1 = 0.25, T from 0.5 to 2 tau1 is u from 6.5 down to 1.6.
    q = MaterialParams(U1=U1)
    tau1 = solve_tau1(q)
    T_s = TAU1_WEAK_COUPLING * q.hbar_omega_D * math.exp(-0.5 / U1)
    for T in np.linspace(0.5, 2.0, 31) * tau1:
        closed = solvers._F_tau1(float(T), T_s, q)
        assert abs(closed - F_eval(StatePoint(float(T), 0.0, 0.0), q)) <= 1e-13, T


@pytest.mark.parametrize("U1", [0.13, 0.16, 0.19, 0.2, 0.22, 0.25, 0.5, 1.0, 2.0, 15.5, 653.0])
def test_tau1_takes_one_integrand_call(U1, integrand_calls):
    # tau1 is the root of the closed form, found with no integrand call,
    # and the quadrature F meets f_tol there.  F(T_s) = 8e-5 at U1 = 0.22
    # and 8e-4 at 0.25: the Newton steps in ln T from the seed are taken
    # on the closed form alone.
    q = MaterialParams(U1=U1)
    tau1 = solve_tau1(q)
    assert integrand_calls[0] == 0
    assert abs(F_eval(StatePoint(tau1, 0.0, 0.0), q)) <= RootSpec().f_tol


@pytest.mark.parametrize("U1, root", [
    (0.02, 1.5747066210012466627e-11),
    (0.05, 0.000051477433005999313023),
    (0.15, 0.040449525190890074804),
    (0.1535, 0.043643713372581852212),
    (0.25, 0.15351347071856033847),
    (1.0, 0.97235299883984194127),
    (653.0, 652.99995746129021707),
])
def test_tau1_matches_a_40_digit_root(U1, root):
    # The roots of 2 G(u) - 1/U1 = 0, u = hbar_omega_D / (2 T), from mpmath
    # at 40 digits with G(u) = ln(4 e^gamma u / pi) + I(u) for u >= 3.  At
    # U1 = 0.15 and 0.1535 the seed T_s meets f_tol but is 1.4e-12 and
    # 9.4e-12 off; tau1 is no farther from the root than T_s anywhere.
    q = MaterialParams(U1=U1)
    tau1 = solve_tau1(q)
    assert tau1 == pytest.approx(root, rel=1e-15, abs=0.0)
    T_s = TAU1_WEAK_COUPLING * q.hbar_omega_D * math.exp(-0.5 / U1)
    assert abs(tau1 - root) <= abs(T_s - root)


@pytest.mark.parametrize("w", [8.0, 2.0**10, 2.0**100])
def test_tau1_ends_where_the_closed_form_overflows(w):
    # At U1 = 7.04e-4 the gap scale w e^(-1/(2 U1)) is a normal double from
    # w = 4.5 up, but w / T_s overflows: the closed form would return T_s,
    # where the quadrature of F fails, so the coupling is rejected.
    with pytest.raises(ValueError, match=r"\bU1\b"):
        MaterialParams(hbar_omega_D=w, U1=7.04e-4)


def test_tau1_at_strong_coupling_leaves_no_newton_step():
    # |F| <= f_tol alone bounds ln tau1 only to f_tol / (2 tanh u), about
    # 6.5e-8 at U1 = 653; the closed-form root is within 1e-12.
    q = MaterialParams(U1=653.0)
    tau1 = solve_tau1(q)
    F = F_eval(StatePoint(tau1, 0.0, 0.0), q)
    assert abs(F / (2.0 * math.tanh(0.5 * q.hbar_omega_D / tau1))) <= 1e-12


# ------------------------------------------------------------------- gap


def test_gap_zero_at_transition(p, tau1, dbox):
    sol = solve_gap_squared(tau1, 0.0, p, dbox)
    assert sol.boundary
    assert sol.Y == 0.0 and sol.delta == 0.0


def test_gap_zero_on_critical_curve(p, tau1, dbox):
    for frac in (0.82, 0.9, 0.97):
        T = frac * tau1
        hc = solve_hc(T, p, dbox)
        sol = solve_gap_squared(T, hc, p, dbox)
        assert sol.boundary and sol.Y == 0.0


def test_gap_zero_temperature_closed_form(p, dbox):
    # 2 asinh(hbar_omega_D / delta) = 1/U1 at T = 0.
    expected = p.hbar_omega_D / math.sinh(0.5 / p.U1)
    with pytest.warns(DomainWarning):
        sol = solve_gap_squared(1e-4 * p.hbar_omega_D, 0.0, p, dbox)
    assert sol.delta == pytest.approx(expected, rel=1e-3)


def test_gap_positive_inside_and_zero_beyond(p, tau1, dbox):
    T = 0.9 * tau1
    hc = solve_hc(T, p, dbox)
    inside = solve_gap_squared(T, 0.5 * hc, p, dbox)
    assert not inside.boundary and inside.Y > 0
    assert abs(inside.residual) <= 1e-10
    beyond = solve_gap_squared(T, min(1.05 * hc, dbox.H_max), p, dbox)
    assert beyond.boundary and beyond.Y == 0.0


def test_gap_takes_few_iterations(p, tau1, dbox):
    # Inverse quadratic steps: 5 iterations (7 under Illinois false position).
    assert solve_gap_squared(0.9 * tau1, 0.0, p, dbox).iterations <= 6


@pytest.mark.parametrize("U1", [0.03, 0.035, 0.05])
def test_gap_meets_f_tol_at_weak_coupling(U1):
    # Y0 ~ 16 e^(-1/U1) is near 1e-12 here: a width stop of 1e-12 in Y,
    # not relative to Y0, ended these solves with residuals up to -0.87.
    p = MaterialParams(U1=U1)
    tau1 = solve_tau1(p)
    box = domain_from(p, 0.8 * tau1, tau1)
    for T in (0.8 * tau1, 0.9 * tau1, 0.99 * tau1):
        gap = solve_gap_squared(T, 0.0, p, box)
        assert not gap.boundary and 0.0 < gap.Y < box.Y0
        assert abs(gap.residual) <= RootSpec().f_tol
        assert gap.residual == F_eval(StatePoint(T, 0.0, gap.Y), p)


@pytest.mark.parametrize("U1", [0.13, 0.16, 0.19, 0.22, 0.25])
def test_cold_gap_roots_take_few_iterations(U1):
    # F falls like -ln Y at low T, which is linear in the root variable
    # u = log1p(Y / (pi T)^2); the same roots took 8 iterations in Y.
    p = MaterialParams(U1=U1)
    tau1 = solve_tau1(p)
    box = domain_from(p, 0.8 * tau1, tau1)
    delta0 = p.hbar_omega_D / math.sinh(0.5 / U1)
    T = np.geomspace(1e-4 * p.hbar_omega_D, delta0 / 20, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        gaps = solve_gap_squared_many(T, 0.0, p, box)
    assert max(gap.iterations for gap in gaps) <= 6
    for gap in gaps:
        assert abs(gap.residual) <= RootSpec().f_tol
        # The thermal correction is about 2e-9 at T = Delta0 / 20.
        assert gap.Y == pytest.approx(delta0**2, rel=1e-8)


@pytest.mark.parametrize("T", [1e-300, 1e-200, 1e-160, 1e-100, 1e-4, 0.9, 1e100, 1e200])
def test_gap_root_lies_in_the_box_at_any_temperature(p, dbox, T):
    # The scale (pi T)^2 of the root variable is clamped to
    # [Y0 2^-60, Y0 2^60]: unclamped, Y0 / (pi T)^2 or (pi T)^2 leaves double
    # range at the ends of this list.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        gap = solve_gap_squared(T, 0.0, p, dbox)
    assert 0.0 <= gap.Y <= dbox.Y0
    assert gap.residual == F_eval(StatePoint(T, 0.0, gap.Y), p)
    if T < 0.5 * dbox.tau1:
        assert not gap.boundary and abs(gap.residual) <= RootSpec().f_tol
    else:
        assert gap.boundary and gap.Y == 0.0


def test_gap_at_a_subnormal_Y0_stops_at_its_resolution():
    # Y0 is subnormal here (2e-322 at U1 = 1.345e-3, 3e-314 at 1.38e-3) and
    # x_tol * Y0 underflows to 0, so the width stop is one ulp of Y0.  F is
    # about const - ln(Y) / 2 there, so one ulp of Y moves F by about
    # ulp / (2 Y).
    for U1 in (1.345e-3, 1.36e-3, 1.37e-3, 1.38e-3):
        p = MaterialParams(U1=U1)
        tau1 = solve_tau1(p)
        box = domain_from(p, 0.8 * tau1, tau1)
        for T in (0.8 * tau1, 0.9 * tau1, 0.99 * tau1):
            gap = solve_gap_squared(T, 0.0, p, box)
            assert not gap.boundary and 0.0 < gap.Y < box.Y0
            assert abs(gap.residual) <= max(RootSpec().f_tol, math.ulp(box.Y0) / gap.Y)


def test_gap_warns_outside_guarantee_zone(p, dbox):
    T = dbox.T0
    H = 1.3 * T / p.mu_B  # mu_B H / T = 1.3 > 1.24
    with pytest.warns(DomainWarning, match="guarantee"):
        solve_gap_squared(T, H, p, dbox)


def test_gap_corrupted_bracket_surfaces(p, tau1, dbox):
    # A Y0 below the actual squared gap breaks the sign change at the top.
    bad = DomainBox(T0=dbox.T0, tau1=tau1, H_max=dbox.H_max, Y0=1e-8)
    with pytest.raises(BracketError):
        solve_gap_squared(dbox.T0, 0.0, p, bad)


def test_gap_unique_root_independent_of_bracket(p, tau1, dbox):
    # Strict monotonicity: a different upper bracket lands on the same root.
    wider = DomainBox(T0=dbox.T0, tau1=tau1, H_max=dbox.H_max, Y0=7.3 * dbox.Y0)
    spec = RootSpec(x_tol=1e-13, f_tol=1e-12)
    a = solve_gap_squared(0.85 * tau1, 0.01, p, dbox, spec)
    b = solve_gap_squared(0.85 * tau1, 0.01, p, wider, spec)
    assert abs(a.Y - b.Y) <= 10 * spec.x_tol + 1e-12 * a.Y


def test_gap_monotone_on_grid(p, tau1, dbox):
    # delta nonincreasing along T at fixed H and along H at fixed T.
    t_grid = np.linspace(dbox.T0, tau1, 20)
    h_grid = np.linspace(0.0, dbox.H_max, 20)
    delta = np.empty((20, 20))
    for i, T in enumerate(t_grid):
        for j, H in enumerate(h_grid):
            delta[i, j] = solve_gap_squared(float(T), float(H), p, dbox).delta
    tol = 1e-9
    assert (np.diff(delta, axis=0) <= tol).all()  # T direction
    assert (np.diff(delta, axis=1) <= tol).all()  # H direction


def test_gap_continuity_in_T(p, tau1, dbox):
    T, H = 0.9 * tau1, 0.005
    base = solve_gap_squared(T, H, p, dbox).delta
    gaps = [
        abs(solve_gap_squared(T + h, H, p, dbox).delta - base)
        for h in (1e-4 * T, 1e-5 * T, 1e-6 * T)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6


def test_gap_input_validation(p, dbox):
    with pytest.raises(ValueError):
        solve_gap_squared(-1.0, 0.0, p, dbox)
    with pytest.raises(ValueError):
        solve_gap_squared(0.03, -0.5, p, dbox)


# ------------------------------------------------------------------- H_c


def test_hc_zero_at_transition(p, tau1, dbox):
    assert solve_hc(tau1, p, dbox) == 0.0


def test_hc_nonincreasing_50_points(p, tau1, dbox):
    grid = np.linspace(dbox.T0, tau1, 50)
    values = [solve_hc(float(T), p, dbox) for T in grid]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[0] > 0


def test_hc_residual(p, tau1, dbox):
    for frac in (0.85, 0.95):
        T = frac * tau1
        hc = solve_hc(T, p, dbox)
        assert abs(F_eval(StatePoint(T, hc, 0.0), p)) <= 1e-10


def test_hc_exceeding_cap_is_an_error(p, tau1):
    # At T0 = 0.5 tau1 the critical field lies above 1.24 T0 / mu_B for
    # these constants, violating the box hypothesis.
    low_box = domain_from(p, 0.5 * tau1, tau1)
    with pytest.raises(NumericsError, match="raise T0"):
        solve_hc(0.5 * tau1, p, low_box)
    # The upper end of the root in (H / H_max)^2 is F at exactly H_max; in a
    # batch the failure stays with its temperature.
    over, under = solve_hc_many([0.5 * tau1, 0.95 * tau1], p, low_box)
    assert isinstance(over, NumericsError) and "raise T0" in str(over)
    assert isinstance(over.__cause__, BracketError)
    assert under == solve_hc(0.95 * tau1, p, low_box)


@pytest.mark.parametrize("low", [0.8, 0.92])
def test_hc_grid_to_tau1_takes_few_integrand_calls(p, tau1, dbox, integrand_calls, low):
    # Near tau1, F(T, H, 0) is nearly linear in H^2, where the roots are
    # solved: both ends in one call, then a few iterations.
    hcs = solve_hc_many(np.linspace(low * tau1, tau1, 6), p, dbox)
    assert integrand_calls[0] <= 5
    assert hcs[-1] == 0.0 and all(a > b for a, b in zip(hcs, hcs[1:]))


def test_hc_square_root_approach_to_transition(p, tau1, dbox):
    # The computed curve leaves tau1 with a square-root cusp: H_c(tau1 - d)
    # ~ K sqrt(d).  (F is even in H up to O(H^2) at H = 0, so the implicit
    # curve cannot leave with a finite slope; see the acceptance notes.)
    deltas = [1e-3 * tau1, 5e-4 * tau1, 2.5e-4 * tau1]
    ratios = [solve_hc(tau1 - d, p, dbox) / math.sqrt(d) for d in deltas]
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 5e-3
    quotients = [solve_hc(tau1 - d, p, dbox) / d for d in deltas]
    assert quotients[2] > quotients[1] > quotients[0]  # diverging secants


@pytest.mark.parametrize("U1", [0.03, 0.05])
def test_hc_meets_f_tol_at_weak_coupling(U1):
    # A width stop of x_tol / H_max in v, fixed in H rather than relative
    # to the bracket, ended 39 and 13 of these solves with |F| up to 4.1e-6.
    p = MaterialParams(U1=U1)
    tau1 = solve_tau1(p)
    box = domain_from(p, 0.8 * tau1, tau1)
    T = np.linspace(0.8 * tau1, 0.999 * tau1, 40)
    hcs = solve_hc_many(T, p, box)
    assert all(0.0 < hc < box.H_max for hc in hcs)
    assert np.all(np.abs(first(*F_eval_many(T, hcs, 0.0, p))) <= RootSpec().f_tol)


# ----------------------------------------------------------------- units


def _scaled_solution(U1, lam):
    # Energies scale by lam, so do T and H (a and mu_B are energies per unit
    # field, b per unit field squared), and Y scales by lam^2.
    p = MaterialParams(hbar_omega_D=lam, mu=10.0 * lam, U1=U1, a=0.5, b=0.1 / lam, mu_B=1.0)
    tau1 = solve_tau1(p)
    box = domain_from(p, 0.8 * tau1, tau1)
    T = np.linspace(box.T0, tau1, 9)
    hcs = np.array([unwrap(h) for h in solve_hc_many(T, p, box)])
    Y = [unwrap(g).Y for g in solve_gap_squared_many(T, 0.5 * hcs, p, box)]
    return tau1, T, hcs, np.array(Y)


@pytest.mark.parametrize("U1", [0.05, 0.15, 0.25])
def test_solutions_are_unit_covariant(U1):
    # Every width stop is relative to its bracket (tau1: to T), and a scale
    # by a power of two is exact, so the solutions scale exactly.
    tau1, T, hcs, Y = _scaled_solution(U1, 1.0)
    assert hcs[0] > 0.0 and Y[0] > 0.0
    for k in (-40, -10, 10, 40):
        lam = 2.0**k
        got = _scaled_solution(U1, lam)
        assert got[0] == lam * tau1
        assert np.array_equal(got[1], lam * T)
        assert np.array_equal(got[2], lam * hcs)
        assert np.array_equal(got[3], lam * lam * Y)


# ------------------------------------------------------- implicit partials


def test_implicit_partials_negative_inside(p, tau1, dbox, rng):
    for _ in range(50):
        T = float(rng.uniform(dbox.T0, 0.995 * tau1))
        hc = solve_hc(T, p, dbox)
        H = float(rng.uniform(0.0, 0.8 * hc))
        df_dT, df_dH = implicit_partials(T, H, p, dbox)
        assert df_dT < 0.0
        assert df_dH < 0.0


def test_implicit_partials_match_fd(p, tau1, dbox, rng):
    for _ in range(20):
        T = float(rng.uniform(1.02 * dbox.T0, 0.98 * tau1))
        hc = solve_hc(T, p, dbox)
        H = float(rng.uniform(0.0, 0.7 * hc))
        df_dT, df_dH = implicit_partials(T, H, p, dbox)
        step_T = 1e-4 * T
        fd_T = (
            solve_gap_squared(T + step_T, H, p, dbox).Y
            - solve_gap_squared(T - step_T, H, p, dbox).Y
        ) / (2 * step_T)
        step_H = 1e-5
        fd_H = (
            solve_gap_squared(T, H + step_H, p, dbox).Y
            - solve_gap_squared(T, max(H - step_H, 0.0), p, dbox).Y
        ) / (step_H + min(H, step_H))
        assert df_dT == pytest.approx(fd_T, rel=1e-4)
        assert df_dH == pytest.approx(fd_H, rel=1e-3, abs=1e-8)


def test_boundary_blowup_of_delta_derivative(p, tau1, dbox):
    # df/dT stays finite on the critical curve while d(delta)/dT diverges:
    # one-sided quotients of delta grow without bound as the step shrinks.
    T = 0.9 * tau1
    hc = solve_hc(T, p, dbox)
    df_dT, _ = implicit_partials(T, hc, p, dbox)
    assert math.isfinite(df_dT) and df_dT < 0.0
    quotients = []
    for k in range(7):  # 3 decades of step sizes
        step = 1e-3 * tau1 / 10 ** (k / 2)
        delta = solve_gap_squared(T - step, hc, p, dbox).delta
        quotients.append(delta / step)
    assert all(b > a for a, b in zip(quotients, quotients[1:]))
    assert quotients[-1] > 10 * quotients[0]


# ------------------------------------------------------------ slope at tau1


def test_slope_negative(p, tau1):
    assert hc_slope_at_tc(p, tau1=tau1) < 0.0


def test_slope_scales_exactly_as_inverse_a(p, tau1):
    s1 = hc_slope_at_tc(p, tau1=tau1)
    s2 = hc_slope_at_tc(MaterialParams(a=2 * p.a), tau1=tau1)
    assert s2 == 0.5 * s1


def test_slope_integrals_share_their_panels(p, tau1, integrand_calls):
    # One two-component quadrature, within the quadrature tolerance of the
    # two integrals taken alone.
    slope = hc_slope_at_tc(p, tau1=tau1)
    assert integrand_calls[0] <= 6
    w = p.hbar_omega_D

    def den_integrand(xi):
        u = xi / tau1
        small = np.abs(u) < 1e-4
        u = np.where(small, 1.0, u)
        return np.where(small, (xi / tau1) ** 2 / 12.0,
                        np.tanh(0.5 * u) / u - 2.0 * _fermi_delta(u))

    num = integrate(lambda xi: 2.0 * _fermi_delta(xi / tau1), -w, w)
    den = integrate(den_integrand, -w, w)
    assert slope == pytest.approx(-num / (p.a * tau1 * den), rel=3e-10)


def test_slope_closed_form(p, tau1):
    # The two quadratures have tanh antiderivatives: numerator -> 2 tau1,
    # denominator -> tau1 (1/U1 - 2), both up to exp(-1/tau1) corrections.
    expected = -2.0 / (p.a * tau1 * (1.0 / p.U1 - 2.0))
    assert hc_slope_at_tc(p, tau1=tau1) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("U1, tau1, expected", [
    (653.0, 652.9999501985177, -23508.000228586265),
    (10.0, 9.997222339456362, -360.03203092487807),
    (0.006, 7.300538167836216e-37, -3.3273571642606979847e+34),
    (0.02, 1.574706621001246e-11, -5291991042.7726206655),
    (0.05, 5.147743300599929e-05, -4316.886240157390362),
    (0.15, 0.04044952519089008, -21.190430618231246994),
    (0.2663, 0.17359997289130816, -12.952689834589139498),
    (1.0, 0.9723529988398419, -36.351913313994249343),
    (169.4, 169.39983602258866, -6098.4018890264762927),
    (1000.0, 999.9999722222221, -36000.000320000023767),
])
def test_slope_at_strong_coupling_matches_a_40_digit_reference(U1, tau1, expected):
    # From weak coupling (u = hbar_omega_D / (2 tau1) = 7e35) to strong
    # (u = 5e-4), across the switch at u = 3 (U1 = 0.2663 is u = 2.88).
    # Below u = 1/2 every node takes the series of (sinh v - v) / v, where
    # the difference would cancel (to 3.2e-10 relative at U1 = 653).  The
    # references are taken at this tau1 with mpmath at 40 digits: the first
    # two integrate the numerator and denominator integrands over the
    # window, the others integrate G(u) - tanh u.
    assert hc_slope_at_tc(MaterialParams(U1=U1), tau1=tau1) == pytest.approx(expected, rel=2e-15)


@pytest.mark.parametrize("U1", [1.36e-3, 0.01, 0.02])
def test_slope_closed_form_at_weak_coupling(U1):
    # tau1 is 2.4e-160, 2.2e-22 and 1.6e-11: the integrands are peaks far
    # narrower than the Debye window, and u * u must not overflow.
    q = MaterialParams(U1=U1)
    t1 = solve_tau1(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = hc_slope_at_tc(q, tau1=t1)
    expected = -2.0 / (q.a * t1 * (1.0 / U1 - 2.0))
    assert slope == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------- input validation


@pytest.mark.parametrize("T, H, name", [
    (0.03, math.nan, "H"), (0.03, math.inf, "H"), (math.inf, 0.01, "T"), (math.nan, 0.01, "T"),
])
def test_gap_rejects_non_finite_input(p, dbox, T, H, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        solve_gap_squared(T, H, p, dbox)
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        solve_gap_squared_many([0.03, T], [0.0, H], p, dbox)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_hc_rejects_non_finite_temperature(p, dbox, T):
    with pytest.raises(ValueError, match="^T must be finite"):
        solve_hc(T, p, dbox)
    with pytest.raises(ValueError, match="^T must be finite"):
        solve_hc_many([0.03, T], p, dbox)


@pytest.mark.parametrize("tau1", [0.0, -1.0, math.nan, math.inf])
def test_slope_rejects_an_invalid_tau1(p, tau1):
    with pytest.raises(ValueError, match="^tau1 must be"):
        hc_slope_at_tc(p, tau1=tau1)


def test_state_point_rejects_non_finite_input():
    for args, name in (((math.nan, 0.0, 0.0), "T"), ((0.03, math.nan, 0.0), "H"),
                       ((0.03, 0.0, math.inf), "Y")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            StatePoint(*args)


# ------------------------------------------------------- domain warnings


def test_domain_warnings_do_not_grow_the_registry(p, dbox):
    # One fixed text per condition: the warning registry of the calling
    # module keeps one entry per condition, however many distinct states warn.
    registry = globals().setdefault("__warningregistry__", {})
    sizes = []
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("default", DomainWarning)
        for k in range(11):
            T = (0.99 - 0.001 * k) * dbox.T0
            solve_gap_squared(T, (1.3 + 0.01 * k) * T / p.mu_B, p, dbox)
            sizes.append(len(registry))
    assert sizes == [sizes[0]] * 11


def test_domain_warning_carries_the_state(p, dbox):
    T, H = 0.99 * dbox.T0, 1.3 * dbox.T0 / p.mu_B
    with pytest.warns(DomainWarning) as record:
        solve_gap_squared(T, H, p, dbox)
    texts = sorted(str(w.message) for w in record)
    assert texts == ["T below the box lower bound T0",
                     "mu_B H / T > 1.24: outside the monotonicity guarantee zone"]
    for w in record:
        assert (w.message.T, w.message.H, w.message.T0) == (T, H, dbox.T0)
        assert w.message.z == p.mu_B * H / T


def test_domain_warnings_one_per_state_and_condition(p, dbox):
    T = np.array([0.99, 1.0, 0.98, 1.2]) * dbox.T0
    H = np.array([0.1, 1.3, 1.3, 0.1]) * T / p.mu_B
    with pytest.warns(DomainWarning) as record:
        solve_gap_squared_many(T, H, p, dbox)
    got = sorted((str(w.message), w.message.T, w.message.H, w.message.z) for w in record)
    expected = sorted(
        [("T below the box lower bound T0", T[i], H[i], p.mu_B * H[i] / T[i]) for i in (0, 2)]
        + [("mu_B H / T > 1.24: outside the monotonicity guarantee zone",
            T[i], H[i], p.mu_B * H[i] / T[i]) for i in (1, 2)])
    assert got == expected
    assert all(w.filename == __file__ for w in record)


def test_domain_warning_works_as_a_plain_category_and_pickles():
    with pytest.warns(DomainWarning, match="^custom$") as record:
        warnings.warn("custom", DomainWarning)
    assert math.isnan(record[0].message.T)
    copy = pickle.loads(pickle.dumps(DomainWarning("text", 0.1, 0.2, 2.0, 0.05)))
    assert (str(copy), copy.T, copy.H, copy.z, copy.T0) == ("text", 0.1, 0.2, 2.0, 0.05)


# ------------------------------------------------------------ batch paths


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=4))
def test_batched_solvers_match_scalar_calls(p, dbox, fracs):
    T = [dbox.T0 + u * (dbox.tau1 - dbox.T0) for u, _, _ in fracs]
    H = [v * dbox.H_max for _, v, _ in fracs]
    Y = [w * dbox.Y0 for _, _, w in fracs]
    dos = dos_linear(1.0, 0.5)
    values, errors = F_eval_many(T, H, Y, p)
    assert not errors
    for t, h, y, f in zip(T, H, Y, values):
        assert f == F_eval(StatePoint(t, h, y), p)
    for t, hc in zip(T, solve_hc_many(T, p, dbox)):
        assert hc == solve_hc(t, p, dbox)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        gaps = solve_gap_squared_many(T, H, p, dbox)
        points = psi_many(T, H, p, dos, dbox)
        for t, h, gap, tp in zip(T, H, gaps, points):
            assert gap == solve_gap_squared(t, h, p, dbox)
            one = psi(t, h, p, dos, dbox)
            assert (tp.omega_S, tp.omega_N, tp.psi) == (one.omega_S, one.omega_N, one.psi)
            assert tp.gap == gap


def _is_root(g, x, lo, hi, spec=RootSpec()):
    """x is a root of the decreasing g: |g(x)| <= f_tol, or g changes sign
    within x_tol of x."""
    if abs(g(x)) <= spec.f_tol:
        return True
    return g(max(x - spec.x_tol, lo)) > 0.0 >= g(min(x + spec.x_tol, hi))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4))
def test_solvers_return_a_root_or_an_error(p, dbox, fracs):
    T = [dbox.T0 + u * (dbox.tau1 - dbox.T0) for u, _ in fracs]
    H = [v * dbox.H_max for _, v in fracs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        gaps = solve_gap_squared_many(T, H, p, dbox)
    for t, h, gap in zip(T, H, gaps):
        if isinstance(gap, NumericsError):
            continue
        assert not any(map(math.isnan, (gap.Y, gap.delta, gap.residual)))
        F = lambda y: F_eval(StatePoint(t, h, y), p)
        if gap.boundary:
            assert gap.Y == 0.0 and gap.residual == F(0.0) <= 1e-10
        else:
            assert _is_root(F, gap.Y, 0.0, dbox.Y0)
    for t, hc in zip(T, solve_hc_many(T, p, dbox)):
        if isinstance(hc, NumericsError):
            continue
        assert not math.isnan(hc)
        F = lambda h: F_eval(StatePoint(t, h, 0.0), p)
        if hc == 0.0:
            assert F(0.0) <= 1e-10
        else:
            assert _is_root(F, hc, 0.0, dbox.H_max)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.02, 1.0))
# At U1 = 1e-3 tau1 is T_s = 8.1e-218, where the quadrature gives
# F = -3.8e-11.
@example(1e-3)
def test_tau1_is_a_root_or_an_error(U1):
    q = MaterialParams(U1=U1)
    try:
        t1 = solve_tau1(q)
    except NumericsError:
        return
    assert not math.isnan(t1)
    assert _is_root(lambda t: F_eval(StatePoint(t, 0.0, 0.0), q), t1, 0.5 * t1, 2.0 * t1)


def test_failed_state_leaves_its_neighbours_unchanged(p, tau1, dbox):
    # Y0 below the squared gap at (T0, 0) forces a BracketError there alone.
    T = [dbox.T0, 0.9 * tau1, 0.97 * tau1]
    H = [0.0, 0.0, 0.002]
    y_cut = 0.5 * (solve_gap_squared(T[0], 0.0, p, dbox).Y + solve_gap_squared(T[1], 0.0, p, dbox).Y)
    cut = DomainBox(T0=dbox.T0, tau1=tau1, H_max=dbox.H_max, Y0=y_cut)
    gaps = solve_gap_squared_many(T, H, p, cut)
    assert isinstance(gaps[0], BracketError)
    for t, h, gap in zip(T[1:], H[1:], gaps[1:]):
        assert gap == solve_gap_squared(t, h, p, cut)
    points = psi_many(T, H, p, dos_linear(1.0, 0.5), cut)
    assert isinstance(points[0], BracketError)
    assert [tp.gap for tp in points[1:]] == gaps[1:]


def test_zero_F_Y_fails_its_state_alone(p, tau1, dbox, monkeypatch):
    import bcsfield.solvers as solvers

    F_partials_many = solvers.F_partials_many

    def singular_first(T, H, Y, p, quad=None):
        values, errors = F_partials_many(T, H, Y, p, quad)
        values[0, 2] = 0.0
        return values, errors

    monkeypatch.setattr(solvers, "F_partials_many", singular_first)
    T, H = [dbox.T0, 0.9 * tau1], [0.0, 0.5 * solve_hc(0.9 * tau1, p, dbox)]
    out = implicit_partials_many(T, H, p, dbox)
    assert isinstance(out[0], SingularDerivativeError)
    monkeypatch.undo()
    assert out[1] == implicit_partials(T[1], H[1], p, dbox)
