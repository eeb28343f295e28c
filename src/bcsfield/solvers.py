"""Implicit functions of the gap equation realized as monotone root finding.

Because F(T, H, Y) is strictly decreasing in each argument on the working
box, every quantity of interest is the unique root of F along one axis:

* ``solve_tau1``        -- zero-field transition temperature, root in T at
                           H = Y = 0;
* ``solve_hc``          -- critical field at temperature T, root in H^2 at
                           Y = 0;
* ``solve_gap_squared`` -- squared gap f(T, H), root in Y;
* ``implicit_partials`` -- df/dT and df/dH by implicit differentiation;
* ``hc_slope_at_tc``    -- closed-form slope of the critical-field curve at
                           the transition temperature.

``solve_hc_many`` and ``solve_gap_squared_many`` solve a whole batch of
states with one lockstep root iteration over batched evaluations of F, and
``implicit_partials_many`` adds one batched evaluation of the partials; a
state that fails comes back as its error without changing the others.  The
scalar ``solve_hc``, ``solve_gap_squared`` and ``implicit_partials`` are
their batch-of-one cases.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import F_partials_many, _F_many, fermi_delta
# ``find_root_decreasing`` stays importable here: bench/spans.py patches
# solvers.find_root_decreasing by name.
from .numerics import (  # noqa: F401
    DEFAULT_ROOT,
    BracketError,
    NumericsError,
    QuadSpec,
    RootBelowBracket,
    RootResult,
    RootSpec,
    find_root_decreasing,
    find_root_decreasing_many,
    first,
    integrate_many,
    unwrap,
)
from .params import Z_CAP, DomainBox, MaterialParams, check_arg

__all__ = [
    "GapSolution",
    "DomainWarning",
    "SingularDerivativeError",
    "solve_tau1",
    "solve_gap_squared",
    "solve_gap_squared_many",
    "solve_hc",
    "solve_hc_many",
    "implicit_partials",
    "implicit_partials_many",
    "hc_slope_at_tc",
]


class DomainWarning(UserWarning):
    """The requested state point lies outside the monotonicity guarantee zone.

    Results are still computed (the kernel is defined everywhere), but
    uniqueness and sign guarantees hold only for mu_B H / T <= Z_CAP and
    T >= T0.  The message is one fixed text per condition, so Python's
    warning registry keeps one entry per condition and call site however
    many states are solved; the state is in the attributes ``T``, ``H``,
    ``z`` (= mu_B H / T) and ``T0``.
    """

    def __init__(self, message: str, T: float = math.nan, H: float = math.nan,
                 z: float = math.nan, T0: float = math.nan):
        super().__init__(message)
        self.T = T
        self.H = H
        self.z = z
        self.T0 = T0


_OUTSIDE_ZONE = f"mu_B H / T > {Z_CAP}: outside the monotonicity guarantee zone"
_BELOW_T0 = "T below the box lower bound T0"


class SingularDerivativeError(NumericsError):
    """dF/dY vanished where an implicit derivative was requested."""


@dataclass(frozen=True)
class GapSolution:
    """Squared gap Y = f(T, H) = delta^2 at one state point.

    ``boundary`` is set when Y = 0 because F(T, H, 0) <= 0 (within the root
    tolerance): the point is in the normal state, at or beyond the critical
    field.  For boundary solutions the residual is F(T, H, 0) itself.
    """

    T: float
    H: float
    Y: float
    delta: float
    residual: float
    iterations: int
    boundary: bool


_NEWTON_LIMIT = 50

# Weak-coupling ratio tau1 / (hbar_omega_D e^(-1/(2 U1))) = 2 e^gamma / pi.
TAU1_WEAK_COUPLING = 2.0 * math.exp(np.euler_gamma) / math.pi

# Below this u = hbar_omega_D / (2 T), _F_tau1 integrates tanh(x) / x over
# [0, u] by the 20-point Gauss-Legendre rule (_gauss_legendre).  The
# integrand's nearest poles are at x = +-i pi / 2, off the interval, and the
# rule is within 3e-16 relative of the integral for u <= 3 (7e-16 at
# u = 4).  At and above it _F_tau1 sums E1 terms: 7 at u = 3, each about 20
# steps of its continued fraction, but 38 terms of about 16 steps at
# u = 1/2, where one F would cost 150 us.
_U_QUADRATURE = 3.0

# A Newton step s in ln T leaves the root of F(T, 0, 0) about
# s^2 u / sinh(2u) <= s^2 / 2 away (see _F_tau1_root), below 1e-16 once
# |s| <= 1e-8.
_CLOSED_STEP = 1e-8


@functools.cache
def _gauss_legendre() -> tuple[tuple[float, float], ...]:
    """The 20-point Gauss-Legendre rule on [0, 1] as (node, weight) pairs.

    Built on first use, at strong coupling: importing numpy.polynomial adds
    about 4% to the set-up time of a process that never needs it.
    """
    x, w = np.polynomial.legendre.leggauss(20)
    return tuple(zip((0.5 + 0.5 * x).tolist(), (0.5 * w).tolist()))


def _e1(x: float) -> float:
    """Exponential integral E1(x) for x >= 6, from its continued fraction.

    The even contraction of Abramowitz & Stegun 5.1.22,
    E1(x) = e^(-x) / (x + 1 - 1 / (x + 3 - 4 / (x + 5 - ...))), evaluated
    by the modified Lentz method until a factor is within 2^-52 of 1: 20
    steps at x = 6 and fewer above, of at most 40.  Where e^(-x) underflows
    to 0 (x > 745, and x = inf), so does E1, and no step is taken.
    """
    scale = math.exp(-x)
    if scale == 0.0:
        return 0.0
    b = x + 1.0
    c = 1e300
    d = h = 1.0 / b
    for n in range(1, 41):
        b += 2.0
        d = 1.0 / (b - n * n * d)
        c = b - n * n / c
        h *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            break
    return h * scale


def _F_tau1(T: float, T_s: float, p: MaterialParams) -> float:
    """F(T, 0, 0) in closed form, with no quadrature; T_s is the seed of solve_tau1.

    With u = hbar_omega_D / (2 T), F = 2 G(u) - 1/U1 for G(u) = integral from
    0 to u of tanh(x) / x dx, which is also 2 ln(T_s / T) + 2 I(u) with
    I(u) = integral from u to infinity of (1 - tanh x) / x dx (solve_tau1).
    Below _U_QUADRATURE, G(u) comes from a fixed Gauss-Legendre rule;
    there tau1 is above hbar_omega_D / 6, and at strong coupling
    2 G(u) - 1/U1 cancels no term of size ln(T / T_s).  At and above it,
    where the seed is decided, the second form is used, with
    I(u) = 2 sum over k >= 1 of (-1)^(k+1) E1(2 k u) summed until a term is
    below 1e-17 of the sum (3 terms at the default u = 12.4, 7 at u = 3, of
    at most 20), so that F(T_s) is exactly 2 I(u).
    """
    u = 0.5 * p.hbar_omega_D / T
    if u < _U_QUADRATURE:
        return 2.0 * sum(w * math.tanh(u * t) / t for t, w in _gauss_legendre()) - 1.0 / p.U1
    tail, sign = 0.0, 1.0
    for k in range(1, 21):
        term = _e1(2.0 * k * u)
        tail += sign * term
        sign = -sign
        if term <= 1e-17 * tail:
            break
    return 2.0 * math.log(T_s / T) + 4.0 * tail


def _F_tau1_root(T_s: float, p: MaterialParams, f_tol: float) -> float:
    """The root of :func:`_F_tau1`: T_s where ``|F(T_s)| <= f_tol``, else Newton steps in ln T.

    In ln T, F(T, 0, 0) is decreasing and convex (see solve_tau1), and its
    curvature over twice its slope is u / sinh(2 u) <= 1/2, so the iterates
    rise from T_s and a step s leaves the root within about s^2 / 2.  Stops
    once a step is at most _CLOSED_STEP, or where a step would leave
    (0, inf), returning the last T inside.
    """
    T = T_s
    F = _F_tau1(T, T_s, p)
    if abs(F) <= f_tol:
        return T
    for _ in range(_NEWTON_LIMIT):
        step = F / (2.0 * math.tanh(0.5 * p.hbar_omega_D / T))
        nxt = T * math.exp(step)
        if not 0.0 < nxt < math.inf:  # false for NaN too
            break
        T = nxt
        if abs(step) <= _CLOSED_STEP:
            break
        F = _F_tau1(T, T_s, p)
    return T


def solve_tau1(
    p: MaterialParams,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> float:
    """Zero-field transition temperature: the root of F(T, 0, 0) in T.

    At H = Y = 0 the gap equation is exactly

        F(T, 0, 0) = 2 ln(T_s / T) + 2 I(hbar_omega_D / (2 T)),
        T_s = (2 e^gamma / pi) hbar_omega_D e^(-1/(2 U1)),

    with the positive tail I(u) = integral from u to infinity of
    (1 - tanh x) / x dx.  The seed is the root of this closed form, taken
    with no quadrature (:func:`_F_tau1_root`): T_s itself where the closed
    form puts ``|F(T_s)| <= f_tol``, else the end of Newton steps on the
    closed form.  From the seed, Newton steps in ln T on the quadrature F,

        T <- T exp(F / (2 tanh u)),   u = hbar_omega_D / (2 T),

    run until ``|F| <= f_tol`` or a step moves T by at most ``x_tol * T``,
    so the quadrature stays the arbiter.  In ln T, F has slope
    -2 tanh u < 0 and curvature 2 u sech^2 u > 0: it is decreasing and
    convex, so every tangent lies below it.  From F >= 0 the iterates rise
    monotonically to the root and never overshoot; from F < 0 (quadrature
    noise at the seed) one step lands below the root and the iteration then
    rises.  The closed form agrees with the quadrature F to 2e-14 or better
    from U1 = 0.05 to 653, so the first quadrature meets f_tol and a solve
    takes one evaluation of F at every coupling tried, from the
    ``MaterialParams`` floor to U1 = 1e3 at hbar_omega_D = 1.  From
    hbar_omega_D = 4.5 up, the floor lets hbar_omega_D / T_s overflow; there
    E1 is 0, T_s is the seed, and the quadrature F, which overflows too,
    fails with a NumericsError.

    Where T_s is kept, ``|F| <= f_tol`` bounds ln tau1 to about
    ``f_tol / (2 tanh u)``, which is f_tol / 2 there (u >= 3): 1.4e-12 at
    the default U1 = 0.15.  Elsewhere the seed's own rounding bounds it:
    the Newton step left at the returned tau1 is at most 7e-16 relative
    from U1 = 0.05 to 1e3, where stopping on ``|F| <= f_tol`` alone left
    1.1e-8 at U1 = 653 (a relative error of about ``f_tol * tau1 /
    hbar_omega_D`` once tau1 >> hbar_omega_D).

    Raises:
        NumericsError: on a non-finite F or step, or no convergence within
            50 steps.
    """
    if spec is None:
        spec = DEFAULT_ROOT
    T_s = TAU1_WEAK_COUPLING * p.hbar_omega_D * math.exp(-0.5 / p.U1)
    # Every T evaluated is the seed times e^step for a finite step, and is
    # checked to stay in (0, inf): checking the seed checks them all.
    check_arg("T", T_s, positive=True)
    T = _F_tau1_root(T_s, p, spec.f_tol)
    for _ in range(_NEWTON_LIMIT):
        F = float(first(*_F_many(np.array([T]), 0.0, 0.0, p, quad))[0])
        if abs(F) <= spec.f_tol:
            return T
        step = F / (2.0 * math.tanh(0.5 * p.hbar_omega_D / T))
        try:
            nxt = T * math.exp(step)
        except OverflowError:
            nxt = math.inf
        if not 0.0 < nxt < math.inf:  # false for NaN too
            raise NumericsError(
                f"tau1 solve: F(T, 0, 0) = {F!r} at T = {T!r} gives no finite Newton step"
            )
        if abs(nxt - T) <= spec.x_tol * T:
            return nxt
        T = nxt
    raise NumericsError(f"tau1 solve: Newton steps did not converge within {_NEWTON_LIMIT}")


def solve_gap_squared_many(
    T,
    H,
    p: MaterialParams,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> list[GapSolution | NumericsError]:
    """Squared gaps at a batch of states (T and H broadcast to one length).

    One lockstep root iteration over all states; each state takes the
    iterates :func:`solve_gap_squared` takes for it alone.  Returns one
    entry per state: its ``GapSolution``, or the ``NumericsError`` that
    failed it.  Warns once per state outside the guarantee zone.

    Raises:
        ValueError: naming the argument, for non-finite T or H, T <= 0 or
            H < 0.
    """
    return _solve_gaps(T, H, p, dbox, spec, quad)


def solve_gap_squared(
    T: float,
    H: float,
    p: MaterialParams,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> GapSolution:
    """Squared gap Y = f(T, H): the unique root of F(T, H, .) on [0, Y0].

    If F(T, H, 0) <= 0 (within f_tol) the point is normal: the solution is
    Y = 0 with the boundary flag set.  The root meets ``|F| <= f_tol``, or
    its final bracket is at most ``x_tol * Y0`` wide (one spacing of Y0
    where that underflows): x_tol is relative to the bracket, which at weak
    coupling is far narrower than 1 (Y0 is about 16 e^(-1/U1)
    hbar_omega_D^2).  Warns (but proceeds) outside the guarantee zone:
    mu_B H / T > Z_CAP or T < T0.
    """
    return unwrap(_solve_gaps(T, H, p, dbox, spec, quad)[0])


def _solve_gaps(T, H, p, dbox, spec, quad) -> list[GapSolution | NumericsError]:
    """The batch gap solve behind both public functions.

    Its warnings point at the line that called the public function.
    """
    T, H = (a.ravel() for a in np.broadcast_arrays(
        check_arg("T", T, positive=True), check_arg("H", H)))
    z = p.mu_B * H / T
    for message, warn in ((_OUTSIDE_ZONE, z > Z_CAP), (_BELOW_T0, T < dbox.T0)):
        for t, h, z_i in zip(T[warn].tolist(), H[warn].tolist(), z[warn].tolist()):
            warnings.warn(DomainWarning(message, t, h, z_i, dbox.T0), stacklevel=3)

    def g(Y, idx):
        return _F_many(T[idx], H[idx], Y, p, quad)

    roots = find_root_decreasing_many(g, np.zeros(T.size), np.full(T.size, dbox.Y0), spec)
    out: list[GapSolution | NumericsError] = []
    for t, h, r in zip(T.tolist(), H.tolist(), roots):
        if isinstance(r, RootBelowBracket):
            r = GapSolution(T=t, H=h, Y=0.0, delta=0.0, residual=r.value, iterations=0,
                            boundary=True)
        elif isinstance(r, RootResult):
            r = GapSolution(T=t, H=h, Y=r.root, delta=math.sqrt(r.root), residual=r.residual,
                            iterations=r.iterations, boundary=False)
        # BracketError (F(T,H,Y0) > 0) stays an error: Y0 of a box from
        # domain_from is a bracket in closed form, so it signals a corrupted box.
        out.append(r)
    return out


def solve_hc_many(
    T,
    p: MaterialParams,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> list[float | NumericsError]:
    """Critical fields at a batch of temperatures, in one lockstep root iteration.

    Returns one entry per temperature: H_c(T) as :func:`solve_hc` gives it,
    or the ``NumericsError`` that failed it.  The root is taken in
    v = (H / H_max)^2 (see :func:`solve_hc`).

    Raises:
        ValueError: naming T, for a non-finite or non-positive temperature.
    """
    T = check_arg("T", T, positive=True).ravel()

    def g(v, idx):
        return _F_many(T[idx], dbox.H_max * np.sqrt(v), 0.0, p, quad)

    roots = find_root_decreasing_many(g, np.zeros(T.size), np.ones(T.size), spec)
    out: list[float | NumericsError] = []
    for t, r in zip(T.tolist(), roots):
        if isinstance(r, RootBelowBracket):
            r = 0.0
        elif isinstance(r, RootResult):
            r = dbox.H_max * math.sqrt(r.root)
        elif isinstance(r, BracketError):
            cause = r
            r = NumericsError(
                f"critical field exceeds domain cap H_max = {dbox.H_max:.6g} "
                f"at T = {t:.6g}; raise T0"
            )
            r.__cause__ = cause
        out.append(r)
    return out


def solve_hc(
    T: float,
    p: MaterialParams,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> float:
    """Critical field H_c(T): the unique root of F(T, ., 0) on [0, H_max].

    F is even in H at H = 0 (``hc_slope_at_tc``), so near the transition
    F(T, H, 0) is nearly linear in H^2 but quadratic in H, and H_c leaves
    tau1 as K sqrt(tau1 - T).  The root is therefore found in
    v = (H / H_max)^2 on [0, 1], with g(v) = F(T, H_max sqrt(v), 0), whose
    upper end is F at exactly H_max; H_c = H_max sqrt(v_c).  It meets
    ``|F| <= f_tol``, or its final bracket in v is at most ``x_tol`` wide:
    in H that is ``x_tol * H_max^2 / (2 H_c)``.

    Returns 0 at (and numerically beyond) the transition temperature, where
    F(T, 0, 0) <= 0 already.

    Raises:
        NumericsError: if F(T, H_max, 0) > 0, i.e. the critical field
            exceeds the domain cap; raise T0 to shrink the curve's range.
        ValueError: for a non-finite or non-positive T.
    """
    return unwrap(solve_hc_many(T, p, dbox, spec, quad)[0])


def implicit_partials_many(
    T,
    H,
    p: MaterialParams,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> list[tuple[float, float] | NumericsError]:
    """:func:`implicit_partials` at a batch of states (T and H broadcast to one length).

    One batched gap solve, then one ``F_partials_many`` over the solved
    states.  Returns one entry per state: its ``(df/dT, df/dH)``, or the
    ``NumericsError`` of its gap solve or partials, or a
    ``SingularDerivativeError`` where F_Y = 0.

    Raises:
        ValueError: naming the argument, for non-finite T or H, T <= 0 or
            H < 0.
    """
    gaps = _solve_gaps(T, H, p, dbox, spec, quad)
    solved = [g for g in gaps if isinstance(g, GapSolution)]
    partials = iter(implicit_partials_at([g.T for g in solved], [g.H for g in solved],
                                         [g.Y for g in solved], p, quad))
    return [next(partials) if isinstance(g, GapSolution) else g for g in gaps]


def implicit_partials_at(T: list[float], H: list[float], Y: list[float], p: MaterialParams,
                         quad: QuadSpec | None = None) -> list[tuple[float, float] | NumericsError]:
    """(-F_T/F_Y, -F_H/F_Y) at states whose Y is already their squared gap.

    One ``F_partials_many`` over the states, given as three lists of one
    length.  Returns one entry per state: the pair, the ``QuadratureError``
    of its partials, or a ``SingularDerivativeError`` where F_Y = 0.
    """
    values, errors = F_partials_many(T, H, Y, p, quad)
    out: list[tuple[float, float] | NumericsError] = []
    for k, (f_T, f_H, f_Y) in enumerate(values.tolist()):
        if k not in errors and f_Y == 0.0:
            errors[k] = SingularDerivativeError(
                f"dF/dY = 0 at (T={T[k]!r}, H={H[k]!r}, Y={Y[k]!r}): implicit derivatives undefined")
        out.append(errors[k] if k in errors else (-f_T / f_Y, -f_H / f_Y))
    return out


def implicit_partials(
    T: float,
    H: float,
    p: MaterialParams,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> tuple[float, float]:
    """Implicit derivatives (df/dT, df/dH) of the squared gap.

    Evaluates the kernel partials at (T, H, f(T, H)) -- including on the
    boundary, where f = 0 -- and returns (-F_T/F_Y, -F_H/F_Y).  Both are
    negative on the working box.

    Raises:
        SingularDerivativeError: if F_Y = 0 at the state.
    """
    return unwrap(implicit_partials_many(T, H, p, dbox, spec, quad)[0])


# (sinh u - u) / u^3 = sum over k of u^(2k) / (2k + 3)!, highest power
# first; nine terms leave a truncation below 5e-17 relative on |u| < 1.
_SINH_SERIES = [1.0 / math.factorial(2 * k + 3) for k in range(8, -1, -1)]


def hc_slope_at_tc(
    p: MaterialParams,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
    tau1: float | None = None,
) -> float:
    """Closed-form slope dH_c/dT at the transition temperature.

        -(1 / (a tau1)) * [I de / (1 + cosh(xi/tau1))]
                        / [I (sinh(u)/u - 1) / (1 + cosh(u)) de],  u = xi/tau1,

    with the denominator integrand (sinh u - u) / (u (1 + cosh u)) taken
    from the series of (sinh u - u) / u^3 on |u| < 1, where the difference
    would cancel, and as tanh(u/2)/u - 1/(1 + cosh u) beyond.  Both
    integrals are taken in u over [-hbar_omega_D / tau1, hbar_omega_D /
    tau1], graded toward u = 0 with width 1, so that their peaks of width
    tau1 in xi are resolved at any coupling.  Always negative; scales
    exactly as 1/a.

    This is not the slope of the solved curve.  F is even in H at H = 0
    (F_H(tau1, 0, 0) = 0), so the curve leaves tau1 with a square-root cusp,
    H_c ~ K sqrt(tau1 - T) with K = sqrt(2 |F_T| / |F_HH|) at (tau1, 0, 0),
    and its difference quotients diverge instead of approaching this value.
    ``tests/test_acceptance.py::test_criterion_6_slope_formula`` compares the
    two and fails for that reason.
    """
    if tau1 is None:
        tau1 = solve_tau1(p, spec, quad)
    # In u = xi / tau1 both integrands are peaks of width 1 at u = 0, and tau1
    # cancels from their ratio.
    w = p.hbar_omega_D / tau1

    def integrand(u, owner):
        # Numerator and denominator on shared panels, each to its tolerance.
        r = 2.0 * fermi_delta(u)
        small = np.abs(u) < 1.0
        u2 = np.where(small, u, 0.0) ** 2
        den = np.where(small, u2 * np.polyval(_SINH_SERIES, u2) * r,
                       np.tanh(0.5 * u) / np.where(small, 1.0, u) - r)
        return np.stack([r, den], axis=-1)

    num, den = (float(v) for v in first(*integrate_many(
        integrand, [-w], [w], quad, ([[0.0]], [[1.0]])))[0])
    return -num / (p.a * tau1 * den)

