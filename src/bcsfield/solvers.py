"""Implicit functions of the gap equation realized as monotone root finding.

Because F(T, H, Y) is strictly decreasing in each argument on the working
box, every quantity of interest is the unique root of F along one axis:

* ``solve_tau1``        -- zero-field transition temperature, root in T at
                           H = Y = 0;
* ``solve_hc``          -- critical field at temperature T, root in H at
                           Y = 0;
* ``solve_gap_squared`` -- squared gap f(T, H), root in Y;
* ``implicit_partials`` -- df/dT and df/dH by implicit differentiation;
* ``hc_slope_at_tc``    -- closed-form slope of the critical-field curve at
                           the transition temperature.

``solve_hc_many`` and ``solve_gap_squared_many`` solve a whole batch of
states with one lockstep root iteration over batched evaluations of F; a
state that fails comes back as its error without changing the others.  The
scalar ``solve_hc`` and ``solve_gap_squared`` are their batch-of-one cases.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import F_eval, F_eval_many, F_partials, StatePoint, fermi_delta
from .numerics import (
    BracketError,
    NumericsError,
    QuadSpec,
    RootBelowBracket,
    RootResult,
    RootSpec,
    find_root_decreasing,
    find_root_decreasing_many,
    integrate,
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


_EXPANSION_LIMIT = 60


def solve_tau1(
    p: MaterialParams,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> float:
    """Zero-field transition temperature: the root of F(T, 0, 0) in T.

    The bracket is grown geometrically (factor 2, at most 60 steps each way)
    from the weak-coupling scale ``hbar_omega_D * exp(-1/(2 U1))`` until the
    sign changes, then handed to the monotone root finder.

    Raises:
        NumericsError: if no sign change appears within the expansion budget
            (pathological parameters).
    """
    def g(T: float) -> float:
        return F_eval(StatePoint(T, 0.0, 0.0), p, quad)

    seed = p.hbar_omega_D * math.exp(-0.5 / p.U1)
    hi = seed
    for _ in range(_EXPANSION_LIMIT):
        if g(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NumericsError("tau1 bracket expansion failed upward: F stays positive")
    lo = min(seed, 0.5 * hi)
    for _ in range(_EXPANSION_LIMIT):
        if g(lo) > 0.0:
            break
        lo *= 0.5
    else:
        raise NumericsError("tau1 bracket expansion failed downward: F stays negative")
    try:
        result = find_root_decreasing(g, lo, hi, spec)
    except RootBelowBracket:
        # g(lo) landed within f_tol of zero: lo is the root.
        return lo
    return float(result.root)


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
    for t, h in zip(T.tolist(), H.tolist()):
        z = p.mu_B * h / t
        if z > Z_CAP:
            warnings.warn(DomainWarning(_OUTSIDE_ZONE, t, h, z, dbox.T0), stacklevel=3)
        if t < dbox.T0:
            warnings.warn(DomainWarning(_BELOW_T0, t, h, z, dbox.T0), stacklevel=3)

    def g(Y, idx):
        return F_eval_many(T[idx], H[idx], Y, p, quad)

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
    or the ``NumericsError`` that failed it.

    Raises:
        ValueError: naming T, for a non-finite or non-positive temperature.
    """
    T = check_arg("T", T, positive=True).ravel()

    def g(H, idx):
        return F_eval_many(T[idx], H, 0.0, p, quad)

    roots = find_root_decreasing_many(g, np.zeros(T.size), np.full(T.size, dbox.H_max), spec)
    out: list[float | NumericsError] = []
    for t, r in zip(T.tolist(), roots):
        if isinstance(r, RootBelowBracket):
            r = 0.0
        elif isinstance(r, RootResult):
            r = r.root
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

    Returns 0 at (and numerically beyond) the transition temperature, where
    F(T, 0, 0) <= 0 already.

    Raises:
        NumericsError: if F(T, H_max, 0) > 0, i.e. the critical field
            exceeds the domain cap; raise T0 to shrink the curve's range.
        ValueError: for a non-finite or non-positive T.
    """
    return unwrap(solve_hc_many(T, p, dbox, spec, quad)[0])


def implicit_partials(
    T: float,
    H: float,
    p: MaterialParams,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
    gap: GapSolution | None = None,
) -> tuple[float, float]:
    """Implicit derivatives (df/dT, df/dH) of the squared gap.

    Evaluates the kernel partials at (T, H, f(T, H)) -- including on the
    boundary, where f = 0 -- and returns (-F_T/F_Y, -F_H/F_Y).  Both are
    negative on the working box.  ``gap`` may pass a precomputed solution
    for the same (T, H) to skip one root solve.
    """
    if gap is None:
        gap = solve_gap_squared(T, H, p, dbox, spec, quad)
    f_T, f_H, f_Y = F_partials(StatePoint(T, H, gap.Y), p, quad)
    if f_Y == 0.0:
        raise SingularDerivativeError(
            f"dF/dY = 0 at (T={T!r}, H={H!r}, Y={gap.Y!r}): implicit "
            "derivatives undefined"
        )
    return -f_T / f_Y, -f_H / f_Y


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

    def num_integrand(xi):
        return 2.0 * fermi_delta(np.asarray(xi) / tau1)

    def den_integrand(xi):
        u = np.asarray(xi, dtype=float) / tau1
        small = np.abs(u) < 1e-4
        u_safe = np.where(small, 1.0, u)
        direct = np.tanh(0.5 * u_safe) / u_safe - 2.0 * fermi_delta(u_safe)
        return np.where(small, u * u / 12.0, direct)

    num = integrate(num_integrand, -w, w, quad)
    den = integrate(den_integrand, -w, w, quad)
    return -num / (p.a * tau1 * den)

