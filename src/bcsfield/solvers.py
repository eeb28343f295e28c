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
    (1 - tanh x) / x dx.  The weak-coupling value T_s is the seed and is
    returned when ``|F(T_s)| <= f_tol``.  Otherwise Newton steps in ln T,

        T <- T exp(F / (2 tanh u)),   u = hbar_omega_D / (2 T),

    run until ``|F| <= f_tol`` or a step moves T by at most ``x_tol``.  In
    ln T, F has slope -2 tanh u < 0 and curvature 2 u sech^2 u > 0: it is
    decreasing and convex, so every tangent lies below it.  From F >= 0 the
    iterates rise monotonically to the root and never overshoot; from F < 0
    (quadrature noise at the seed) one step lands below the root and the
    iteration then rises.

    Raises:
        NumericsError: on a non-finite F or step, or no convergence within
            50 steps.
    """
    if spec is None:
        spec = DEFAULT_ROOT
    T = TAU1_WEAK_COUPLING * p.hbar_omega_D * math.exp(-0.5 / p.U1)
    # Every T evaluated is the seed times e^step for a finite step, and is
    # checked below to stay in (0, inf): checking the seed checks them all.
    check_arg("T", T, positive=True)
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
        if abs(nxt - T) <= spec.x_tol:
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
    Y = 0 with the boundary flag set.  Warns (but proceeds) outside the
    guarantee zone: mu_B H / T > Z_CAP or T < T0.
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
        # BracketError (F(T,H,Y0) > 0) stays an error: the box corner check
        # is supposed to make that impossible, so it signals a corrupted box.
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
    if spec is None:
        spec = DEFAULT_ROOT
    # x_tol is a width in H; solve_hc says what it bounds in v.
    spec_v = RootSpec(x_tol=spec.x_tol / dbox.H_max, f_tol=spec.f_tol)

    def g(v, idx):
        return _F_many(T[idx], dbox.H_max * np.sqrt(v), 0.0, p, quad)

    roots = find_root_decreasing_many(g, np.zeros(T.size), np.ones(T.size), spec_v)
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
    ``|F| <= f_tol``, or its final bracket in v is at most ``x_tol / H_max``
    wide: in H that is x_tol at H_c = H_max / 2, and
    ``x_tol * H_max / (2 H_c)`` in general.

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
    T, H = (a.ravel() for a in np.broadcast_arrays(
        check_arg("T", T, positive=True), check_arg("H", H)))
    gaps = _solve_gaps(T, H, p, dbox, spec, quad)
    out: list[tuple[float, float] | NumericsError] = list(gaps)
    solved = [i for i, g in enumerate(gaps) if isinstance(g, GapSolution)]
    values, errors = F_partials_many(T[solved], H[solved], [gaps[i].Y for i in solved], p, quad)
    for k, i in enumerate(solved):
        if k in errors:
            out[i] = errors[k]
            continue
        f_T, f_H, f_Y = (float(v) for v in values[k])
        if f_Y == 0.0:
            out[i] = SingularDerivativeError(
                f"dF/dY = 0 at (T={float(T[i])!r}, H={float(H[i])!r}, Y={gaps[i].Y!r}): "
                "implicit derivatives undefined"
            )
        else:
            out[i] = (-f_T / f_Y, -f_H / f_Y)
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


def hc_slope_at_tc(
    p: MaterialParams,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
    tau1: float | None = None,
) -> float:
    """Closed-form slope dH_c/dT at the transition temperature.

        -(1 / (a tau1)) * [I de / (1 + cosh(xi/tau1))]
                        / [I (sinh(u)/u - 1) / (1 + cosh(u)) de],  u = xi/tau1,

    with the removable u -> 0 limit of the denominator integrand handled by
    its quadratic series.  Always negative; scales exactly as 1/a.

    This is not the slope of the solved curve.  F is even in H at H = 0
    (F_H(tau1, 0, 0) = 0), so the curve leaves tau1 with a square-root cusp,
    H_c ~ K sqrt(tau1 - T) with K = sqrt(2 |F_T| / |F_HH|) at (tau1, 0, 0),
    and its difference quotients diverge instead of approaching this value.
    ``tests/test_acceptance.py::test_criterion_6_slope_formula`` compares the
    two and fails for that reason.
    """
    if tau1 is None:
        tau1 = solve_tau1(p, spec, quad)
    w = p.hbar_omega_D

    def integrand(xi, owner):
        # Numerator and denominator on shared panels, each to its tolerance.
        u = xi / tau1
        small = np.abs(u) < 1e-4
        u_safe = np.where(small, 1.0, u)
        direct = np.tanh(0.5 * u_safe) / u_safe - 2.0 * fermi_delta(u_safe)
        return np.stack([2.0 * fermi_delta(u), np.where(small, u * u / 12.0, direct)], axis=-1)

    num, den = (float(v) for v in first(*integrate_many(integrand, [-w], [w], quad))[0])
    return -num / (p.a * tau1 * den)

