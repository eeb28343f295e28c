"""Implicit functions of the gap equation realized as monotone root finding.

Because F(T, H, Y) is strictly decreasing in each argument on the working
box, every quantity of interest is the unique root of F along one axis:

* ``solve_tau1``        -- zero-field transition temperature, root in T at
                           H = Y = 0, taken on F's closed form there;
* ``solve_hc``          -- critical field at temperature T, root in H^2 at
                           Y = 0;
* ``solve_gap_squared`` -- squared gap f(T, H), root in log1p(Y / (pi T)^2);
* ``implicit_partials`` -- df/dT and df/dH by implicit differentiation;
* ``hc_slope_at_tc``    -- closed-form slope of the critical-field curve at
                           the transition temperature.

At H = Y = 0, F and the slope's two integrals are functions of
u = hbar_omega_D / (2 T) alone, with antiderivatives in G(u) = integral
from 0 to u of tanh(x) / x dx, so ``solve_tau1`` and ``hc_slope_at_tc`` run
no quadrature and take no tolerances; the quadrature F stays their
independent check in the tests and in ``bcsfield check``.

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

from .kernel import F_partials_many, _F_many
# ``find_root_decreasing`` stays importable here: bench/spans.py patches
# solvers.find_root_decreasing by name.
from .numerics import (  # noqa: F401
    BracketError,
    NumericsError,
    QuadSpec,
    RootBelowBracket,
    RootResult,
    RootSpec,
    find_root_decreasing,
    find_root_decreasing_many,
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
# u = 1/2, where one F would cost 150 us.  _G_minus_tanh switches at the
# same u, for the same reasons.
_U_QUADRATURE = 3.0

# A Newton step s in ln T leaves the root of F(T, 0, 0) about
# s^2 u / sinh(2u) <= s^2 / 2 away (see _F_tau1_root), below 1e-16 once
# |s| <= 1e-8.
_CLOSED_STEP = 1e-8

# The gap root is taken in u = log1p(Y / s) with s = (_GAP_SCALE T)^2, and
# _GAP_SCALE T / sqrt(Y0) is clipped to [_S_CLAMP, 1 / _S_CLAMP] (see
# _solve_gaps).
_GAP_SCALE = math.pi
_S_CLAMP = 2.0**-30
_Y_LEAST = math.ulp(0.0)


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


def _tail(u: float) -> float:
    """I(u) = integral from u to infinity of (1 - tanh x) / x dx, for u >= _U_QUADRATURE.

    I(u) = 2 sum over k >= 1 of (-1)^(k+1) E1(2 k u), summed until a term is
    below 1e-17 of the sum: 3 terms at the default u = 12.4, 7 at u = 3, of
    at most 20.  It is G(u) - ln(4 e^gamma u / pi) for the G(u) of
    :func:`_F_tau1`.
    """
    tail, sign = 0.0, 1.0
    for k in range(1, 21):
        term = _e1(2.0 * k * u)
        tail += sign * term
        sign = -sign
        if term <= 1e-17 * tail:
            break
    return 2.0 * tail


def _F_tau1(T: float, T_s: float, p: MaterialParams) -> float:
    """F(T, 0, 0) in closed form, with no quadrature; T_s is the seed of solve_tau1.

    With u = hbar_omega_D / (2 T), F = 2 G(u) - 1/U1 for G(u) = integral from
    0 to u of tanh(x) / x dx, which is also 2 ln(T_s / T) + 2 I(u) with the
    tail I of :func:`_tail` (solve_tau1).  Below _U_QUADRATURE, G(u) comes
    from a fixed Gauss-Legendre rule; there tau1 is above hbar_omega_D / 6,
    and at strong coupling 2 G(u) - 1/U1 cancels no term of size
    ln(T / T_s).  At and above it the second form is used, so that F(T_s)
    is exactly 2 I(u) there.
    """
    u = 0.5 * p.hbar_omega_D / T
    if u < _U_QUADRATURE:
        return 2.0 * sum(w * math.tanh(u * t) / t for t, w in _gauss_legendre()) - 1.0 / p.U1
    return 2.0 * math.log(T_s / T) + 2.0 * _tail(u)


def _F_tau1_root(T_s: float, p: MaterialParams) -> float:
    """The root of :func:`_F_tau1`, by Newton steps in ln T from T_s.

    In ln T, F(T, 0, 0) is decreasing and convex (see solve_tau1), and its
    curvature over twice its slope is u / sinh(2 u) <= 1/2, so the iterates
    rise from T_s and a step s leaves the root within about s^2 / 2.  Stops
    once a step is at most _CLOSED_STEP, or where a step would leave
    (0, inf), returning the last T inside.
    """
    T = T_s
    for _ in range(_NEWTON_LIMIT):
        step = _F_tau1(T, T_s, p) / (2.0 * math.tanh(0.5 * p.hbar_omega_D / T))
        nxt = T * math.exp(step)
        if not 0.0 < nxt < math.inf:  # false for NaN too
            break
        T = nxt
        if abs(step) <= _CLOSED_STEP:
            break
    return T


def solve_tau1(p: MaterialParams) -> float:
    """Zero-field transition temperature: the root of F(T, 0, 0) in T.

    At H = Y = 0 the gap equation is exactly

        F(T, 0, 0) = 2 G(u) - 1/U1 = 2 ln(T_s / T) + 2 I(u),
        T_s = (2 e^gamma / pi) hbar_omega_D e^(-1/(2 U1)),

    with u = hbar_omega_D / (2 T), G(u) = integral from 0 to u of
    tanh(x) / x dx and the positive tail I(u) = integral from u to infinity
    of (1 - tanh x) / x dx.  tau1 is the root of this closed form, taken
    with no quadrature (:func:`_F_tau1_root`): Newton steps in ln T,

        T <- T exp(F / (2 tanh u)),

    from T_s until a step is at most 1e-8.  In ln T, F has slope
    -2 tanh u < 0 and curvature 2 u sech^2 u > 0: it is decreasing and
    convex, so every tangent lies below it, and from F(T_s) = 2 I >= 0 the
    iterates rise monotonically to the root and never overshoot.  The last
    step leaves about its square over 2, below 1e-16, so tau1 is the root
    to the rounding of the closed form, where T_s carries the rounding of
    1/(2 U1) times that exponent: within 9.6e-16 relative of a 40-digit
    root at 32 couplings from U1 = 0.02 to 1e3.  The closed form agrees
    with the quadrature F to 2e-14 or better from U1 = 0.05 to 653; the
    quadrature F, which no longer decides tau1, is its check in the tests
    and in ``bcsfield check``.  ``params.validate`` keeps T_s a positive
    double and hbar_omega_D / tau1 finite at every coupling it accepts.
    """
    T_s = TAU1_WEAK_COUPLING * p.hbar_omega_D * math.exp(-0.5 / p.U1)
    # Every T evaluated is the seed times e^step for a finite step, and is
    # checked to stay in (0, inf): checking the seed checks them all.
    check_arg("T", T_s, positive=True)
    return _F_tau1_root(T_s, p)


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
    Y = 0 with the boundary flag set.  The root is taken in
    u = log1p(Y / s) on [0, log1p(Y0 / s)], with s = (pi T)^2 clamped to
    [Y0 2^-60, Y0 2^60] (see ``_solve_gaps``), and lies in [0, Y0].  It
    meets ``|F| <= f_tol``, or its final bracket in u is at most
    ``x_tol * log1p(Y0 / s)`` wide (one spacing of that where the product
    underflows): x_tol is relative to the bracket, which at weak coupling is
    far narrower than 1 (Y0 is about 16 e^(-1/U1) hbar_omega_D^2).  As
    dY/du = s + Y, that is a width in Y of about
    ``x_tol * (s + Y) * log1p(Y0 / s)``: ``x_tol * Y0`` where s >> Y0, and
    ``x_tol * Y * ln(Y0 / s)``, at most 42 x_tol Y, where s << Y.  At the
    default tolerances a cold zero-field root (T from 1e-4 hbar_omega_D to
    Delta_0 / 20, U1 = 0.13-0.25) takes 5.2 iterations on average and at
    most 6, where a root taken in Y itself took 8.  Warns (but proceeds)
    outside the guarantee zone: mu_B H / T > Z_CAP or T < T0.
    """
    return unwrap(_solve_gaps(T, H, p, dbox, spec, quad)[0])


def _solve_gaps(T, H, p, dbox, spec, quad) -> list[GapSolution | NumericsError]:
    """The batch gap solve behind both public functions.

    The root is taken in u = log1p(Y / s) on [0, log1p(Y0 / s)], with
    g(u) = F(T, H, s expm1(u)) and s = (pi T)^2 clamped to
    [Y0 2^-60, Y0 2^60].  Where Y >> s (a cold state) F falls like
    -ln Y, which is linear in u, and where Y << s the map is linear in Y,
    so inverse quadratic steps fit g in both.  The scale was chosen by
    measurement: (pi e^-gamma T)^2 takes cold roots in fewer iterations
    (3.8 against 5.2 on average) but a warm one in more (4.6 against 3.8),
    and a phase sweep's lockstep in one more.  The clamp keeps s a normal
    multiple of Y0 at any T: unclamped, Y0 / (pi T)^2 overflows below
    T = 3e-156 at the default coupling, and (pi T)^2 above T = 4e153.
    Y is taken as Y0 (ratio expm1(u)) with ratio = s / Y0, at most Y0, and
    exactly Y0 at the upper end, so that end is the closed-form bracket of
    the box.

    Its warnings point at the line that called the public function.
    """
    T, H = (a.ravel() for a in np.broadcast_arrays(
        check_arg("T", T, positive=True), check_arg("H", H)))
    z = p.mu_B * H / T
    for message, warn in ((_OUTSIDE_ZONE, z > Z_CAP), (_BELOW_T0, T < dbox.T0)):
        for t, h, z_i in zip(T[warn].tolist(), H[warn].tolist(), z[warn].tolist()):
            warnings.warn(DomainWarning(message, t, h, z_i, dbox.T0), stacklevel=3)

    # ratio = (pi T)^2 / Y0, with pi T / sqrt(Y0) clipped to [2^-30, 2^30]
    # before it is squared, so that nothing overflows or underflows.
    Y0 = dbox.Y0
    root_Y0 = math.sqrt(Y0)
    q = _GAP_SCALE / root_Y0 * np.clip(T, _S_CLAMP * root_Y0 / _GAP_SCALE,
                                       root_Y0 / (_S_CLAMP * _GAP_SCALE))
    ratio = q * q
    u_hi = np.log1p(1.0 / ratio)

    def gap_of(u, idx):
        # The floor min(u, _Y_LEAST) keeps Y > 0 for every u > 0: where Y0
        # is subnormal, the product underflows to 0 near u = 0.
        Y = np.clip(Y0 * (ratio[idx] * np.expm1(u)), np.minimum(u, _Y_LEAST), Y0)
        return np.where(u < u_hi[idx], Y, Y0)

    def g(u, idx):
        return _F_many(T[idx], H[idx], gap_of(u, idx), p, quad)

    roots = find_root_decreasing_many(g, np.zeros(T.size), u_hi, spec)
    gaps = gap_of(np.array([r.root if isinstance(r, RootResult) else 0.0 for r in roots]),
                  np.arange(T.size))
    out: list[GapSolution | NumericsError] = []
    for t, h, Y, r in zip(T.tolist(), H.tolist(), gaps.tolist(), roots):
        if isinstance(r, RootBelowBracket):
            r = GapSolution(T=t, H=h, Y=0.0, delta=0.0, residual=r.value, iterations=0,
                            boundary=True)
        elif isinstance(r, RootResult):
            r = GapSolution(T=t, H=h, Y=Y, delta=math.sqrt(Y), residual=r.residual,
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


# (sinh v - v) / v^3 = sum over k of v^(2k) / (2k + 3)!, highest power
# first; nine terms leave a truncation below 5e-17 relative on |v| < 1.
_SINH_SERIES = [1.0 / math.factorial(2 * k + 3) for k in range(8, -1, -1)]


def _G_minus_tanh(u: float) -> float:
    """G(u) - tanh u = integral from 0 to u of (tanh x / x - sech^2 x) dx.

    At and above _U_QUADRATURE, G(u) = ln(4 e^gamma u / pi) + I(u) with the
    tail I of :func:`_tail`; nothing cancels there, as G(3) is about 1.9 and
    tanh u < 1.  Below it, the integrand is written
    (sinh v - v) / (v cosh^2 x) with v = 2x, taking (sinh v - v) / v from
    _SINH_SERIES where v < 1, where the difference would cancel, and the
    integral by the 20-point rule of _gauss_legendre.
    """
    if u >= _U_QUADRATURE:
        return math.log(2.0 * TAU1_WEAK_COUPLING * u) + _tail(u) - math.tanh(u)
    total = 0.0
    for t, w in _gauss_legendre():
        x = u * t
        v = 2.0 * x
        if v < 1.0:
            v2, series = v * v, 0.0
            for c in _SINH_SERIES:
                series = series * v2 + c
            ratio = v2 * series
        else:
            ratio = (math.sinh(v) - v) / v
        total += w * ratio / math.cosh(x) ** 2
    return u * total


def hc_slope_at_tc(p: MaterialParams, tau1: float | None = None) -> float:
    """Closed-form slope dH_c/dT at the transition temperature, with no quadrature.

        -tanh(u) / (a tau1 (G(u) - tanh u)),   u = hbar_omega_D / (2 tau1),

    with G(u) = integral from 0 to u of tanh(x) / x dx.  It is the ratio of
    two integrals over the pairing window, in v = xi / tau1 over [-2u, 2u]:
    the numerator, of 1 / (1 + cosh v), is 2 tanh u, and the denominator,
    of (sinh v - v) / (v (1 + cosh v)), is 2 (G(u) - tanh u)
    (:func:`_G_minus_tanh`).  At tau1, 2 G(u) = 1/U1, but that shortcut
    cancels at strong coupling, so G is evaluated.  Always negative;
    scales exactly as 1/a.  ``tau1`` defaults to :func:`solve_tau1`.

    This is not the slope of the solved curve.  F is even in H at H = 0
    (F_H(tau1, 0, 0) = 0), so the curve leaves tau1 with a square-root cusp,
    H_c ~ K sqrt(tau1 - T) with K = sqrt(2 |F_T| / |F_HH|) at (tau1, 0, 0),
    and its difference quotients diverge instead of approaching this value.
    ``tests/test_acceptance.py::test_criterion_6_slope_formula`` compares the
    two and fails for that reason.

    Raises:
        ValueError: naming tau1, for a non-finite or non-positive one.
    """
    if tau1 is None:
        tau1 = solve_tau1(p)
    check_arg("tau1", tau1, positive=True)
    u = 0.5 * p.hbar_omega_D / tau1
    return -math.tanh(u) / (p.a * tau1 * _G_minus_tanh(u))
