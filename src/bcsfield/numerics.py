"""Adaptive quadrature, monotone bracketed root finding, and finite differences.

This is the shared numerical machinery used by every solver in the package.
Design goals, in order: correctness with controlled error, determinism
(identical inputs give bit-identical results), and no evaluation outside the
caller's bracket / interval.

Both algorithms work on batches.  :func:`integrate_many` refines many
intervals breadth-first: each refinement level hands every unconverged
panel of every interval to the integrand in one call, and accepts exactly
the panels a depth-first bisection with the same tolerance split would.
:func:`find_root_decreasing_many` steps many bracketed roots in lockstep,
each taking the iterates it would take alone: Chandrupatla's hybrid of
inverse quadratic interpolation and bisection (T. R. Chandrupatla, Adv. Eng.
Softw. 28 (1997) 145-149), which needs no derivatives, with a rule that
halves the bracket at least once in every three iterations.  An interval or
root that fails comes back as its error without changing the others, so a
batch result never depends on what else was in the batch.
:func:`integrate` and :func:`find_root_decreasing` are the batch-of-one
cases.

Integrands passed to :func:`integrate` must be vectorized: they receive a
one-dimensional ``numpy`` array of abscissas and must return an array of the
same shape.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .params import check_arg

__all__ = [
    "QuadSpec",
    "RootSpec",
    "RootResult",
    "NumericsError",
    "QuadratureError",
    "BracketError",
    "RootBelowBracket",
    "integrate",
    "integrate_many",
    "find_root_decreasing",
    "find_root_decreasing_many",
    "central_diff",
]


class NumericsError(Exception):
    """Base class for failures of the numerical layer."""


class QuadratureError(NumericsError):
    """Adaptive subdivision hit its depth limit before reaching tolerance.

    Attributes carry the worst (deepest unconverged) panel so callers can
    report where the integrand resisted integration.
    """

    def __init__(self, message: str, panel_lo: float, panel_hi: float, panel_err: float):
        super().__init__(message)
        self.panel_lo = panel_lo
        self.panel_hi = panel_hi
        self.panel_err = panel_err


class BracketError(NumericsError):
    """No sign change in the bracket: g(hi) is still positive."""


class RootBelowBracket(NumericsError):
    """Signal: the root lies at or below the lower bracket endpoint.

    Raised when g(lo) <= f_tol for a decreasing g.  This is a control-flow
    signal, not a failure: callers map it to their boundary cases (a gap that
    is identically zero, a critical field of zero).
    """

    def __init__(self, lo: float, value: float):
        super().__init__(f"root at or below lo={lo!r} (g(lo)={value!r})")
        self.lo = lo
        self.value = value


# The smallest relative quadrature tolerance a double can meet: the F and
# psi integrals on the working box converge at 1e-15, while at 5e-16 many F
# and nearly all psi integrals refine until they fail.
MIN_REL_TOL = 1e-15

# Deepest bisection level of adaptive quadrature: a panel still unconverged
# at this depth fails its interval.
MAX_DEPTH = 50

# Iteration limit of a bracketed root solve.  The bracket halves at least
# once in every three iterations, so the limit guarantees 66 halvings.
MAX_ITER = 200


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances for adaptive quadrature.

    The returned estimate satisfies
    ``error <= max(abs_tol, rel_tol * |estimate|)`` whenever the integrator
    returns without raising.  Both must be finite and > 0, and ``rel_tol``
    at least ``MIN_REL_TOL``: below it the Kronrod-Gauss differences are
    rounding noise of the panel sums, and refinement runs to the panel cap
    and fails.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        check_arg("abs_tol", self.abs_tol, positive=True)
        check_arg("rel_tol", self.rel_tol, positive=True)
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError(
                f"rel_tol must be >= {MIN_REL_TOL:g} (double precision), got {self.rel_tol!r}"
            )


@dataclass(frozen=True)
class RootSpec:
    """Tolerances for bracketed root finding, both finite and > 0.

    ``x_tol`` is an absolute width; callers working far from unit scale
    should set it to 1e-12 times their natural scale.
    """

    x_tol: float = 1e-12
    f_tol: float = 1e-10

    def __post_init__(self) -> None:
        check_arg("x_tol", self.x_tol, positive=True)
        check_arg("f_tol", self.f_tol, positive=True)


@dataclass(frozen=True)
class RootResult:
    """A bracketed root together with its convergence diagnostics."""

    root: float
    residual: float
    iterations: int


DEFAULT_QUAD = QuadSpec()
DEFAULT_ROOT = RootSpec()


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].  Standard
# double-precision nodes/weights; the embedded Gauss rule shares the odd
# nodes, so one evaluation sweep yields both estimates.
_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

_XGK = np.array([-x for x in _XGK_HALF] + [0.0] + list(reversed(_XGK_HALF)))
_WGK = np.array(list(_WGK_HALF) + [_WGK_CENTER] + list(reversed(_WGK_HALF)))
# Gauss points sit at the odd Kronrod indices (1, 3, ..., 13).
_WG = np.array(list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF)))


# Largest number of panels one refinement level evaluates.  An interval whose
# next level would hold more fails: an integrand whose rounding noise exceeds
# the tolerance doubles its panels at every level, and the cap stops it after
# 17 levels instead of MAX_DEPTH.  A sharp feature needs depth, not width, so
# legitimate integrals stay far below it: a piecewise-linear tabulated DOS
# needs about two panels per knot.  A batch whose level would hold more is
# refined in groups of intervals, which bounds the frontier to tens of
# megabytes without changing any interval's result.
MAX_ACTIVE_PANELS = 2**16

# Panels per integrand call: a level with more unconverged panels is
# evaluated in slices of this size, which bounds the integrand's temporaries
# to a few hundred kilobytes whatever the batch size.
_SLICE_PANELS = 1024


def unwrap(result):
    """Return one entry of a batch result, raising it if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def first(values, errors: dict):
    """Return entry 0 of a ``(values, errors)`` batch result, raising its error."""
    if 0 in errors:
        raise errors[0]
    return values[0]


def _gk15_many(f: Callable, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """GK 7/15 on the panels [a, b], in slices of at most _SLICE_PANELS.

    Returns (estimates, error bounds), each of shape (k, c) for an integrand
    with c components, and the integrand's component shape.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    est, err = [], []
    for i in range(0, owner.size, _SLICE_PANELS):
        s = slice(i, i + _SLICE_PANELS)
        fx = np.asarray(f(mid[s, None] + half[s, None] * _XGK, owner[s]), dtype=float)
        components = fx.shape[2:]
        fx = fx.reshape(fx.shape[0], 15, -1)
        kronrod = half[s, None] * (fx * _WGK[:, None]).sum(axis=1)
        gauss = half[s, None] * (fx[:, 1::2] * _WG[:, None]).sum(axis=1)
        est.append(kronrod)
        err.append(np.abs(kronrod - gauss))
    if len(est) == 1:
        return est[0], err[0], components
    return np.concatenate(est), np.concatenate(err), components


def integrate_many(
    f: Callable, lo, hi, spec: QuadSpec | None = None
) -> tuple[np.ndarray, dict[int, QuadratureError]]:
    """Integrate one vectorized integrand over many intervals at once.

    Breadth-first adaptive Gauss-Kronrod: every unconverged panel of every
    interval at one refinement level goes to the integrand in one call.  The
    acceptance rule is that of a depth-first bisection: with
    ``tol = max(abs_tol, rel_tol * |first estimate|)`` per interval, a panel
    at depth d is accepted when its Kronrod-Gauss difference is at most
    ``tol * 2**-d``, and is otherwise split in half.  The accepted panels and
    the result of an interval therefore do not depend on the other intervals
    of the batch.

    Args:
        f: ``f(x, owner)`` with ``x`` a (k, 15) array of abscissas and
            ``owner`` the (k,) interval index of each row; returns an array
            of shape (k, 15), or (k, 15, c) for c components integrated on
            shared panels (a panel is then accepted when every component
            meets its own tolerance).
        lo, hi: 1-d arrays of bounds, ``lo <= hi`` elementwise.
        spec: Tolerances; defaults to ``QuadSpec()``.

    Returns:
        ``(values, errors)``: the m integrals (shape (m,) or (m, c)), and a
        dict from interval index to the ``QuadratureError`` that failed it.
        Failed entries of ``values`` are NaN; the others are unaffected.  An
        interval fails when the integrand is not finite on one of its
        panels (at once, naming that panel), when a panel at MAX_DEPTH is
        unconverged (naming the leftmost), or when its next level would
        hold more than MAX_ACTIVE_PANELS panels.

    Raises:
        ValueError: if some lo > hi, a bound is not finite, or the bounds
            are not 1-d arrays of one shape.
    """
    if spec is None:
        spec = DEFAULT_QUAD
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"integrate needs 1-d bounds of one shape, got {lo.shape} and {hi.shape}")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("integrate requires finite bounds")
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        raise ValueError(f"integrate requires lo <= hi, got [{float(lo[i])!r}, {float(hi[i])!r}]")
    errors: dict[int, QuadratureError] = {}
    total = tol = None
    components: tuple[int, ...] = ()

    def refine(owner, a, b, depth):
        # The panels [a, b] of the intervals ``owner`` (sorted), at ``depth``.
        nonlocal total, tol, components
        while owner.size:
            if owner.size > MAX_ACTIVE_PANELS:
                # Several intervals (each holds at most the cap): refine two
                # groups of them one after the other.
                cut = int(np.searchsorted(owner, owner[owner.size // 2]))
                if cut == 0:
                    cut = int(np.searchsorted(owner, owner[0], side="right"))
                refine(owner[:cut], a[:cut], b[:cut], depth)
                refine(owner[cut:], a[cut:], b[cut:], depth)
                return
            est, err, components = _gk15_many(f, a, b, owner)
            if total is None:
                total = np.zeros((lo.size, est.shape[1]))
                tol = np.zeros_like(total)
                tol[owner] = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(est))
            # A non-finite integrand value makes its panel's error bound non-finite.
            if not np.isfinite(err).all():
                for i in np.flatnonzero(~np.isfinite(err).all(axis=1)):
                    errors.setdefault(int(owner[i]), QuadratureError(
                        f"integrand not finite on [{float(a[i])!r}, {float(b[i])!r}] at depth {depth}",
                        panel_lo=float(a[i]), panel_hi=float(b[i]), panel_err=math.nan,
                    ))
            ok = (err <= tol[owner] * 0.5**depth).all(axis=1)
            split = ~ok
            if errors:
                live = ~np.isin(owner, list(errors))
                ok &= live
                split &= live
            np.add.at(total, owner[ok], est[ok])
            if depth >= MAX_DEPTH:
                for i in np.flatnonzero(split):
                    errors.setdefault(int(owner[i]), QuadratureError(
                        f"quadrature did not converge on [{float(a[i])!r}, {float(b[i])!r}] "
                        f"(panel error {err[i].max():.3e} > "
                        f"{tol[owner[i]].min() * 0.5**depth:.3e} at depth {depth})",
                        panel_lo=float(a[i]), panel_hi=float(b[i]), panel_err=float(err[i].max()),
                    ))
                return
            owner, a, b = owner[split], a[split], b[split]
            if 2 * owner.size > MAX_ACTIVE_PANELS:
                err = err[split]
                crowded = 2 * np.bincount(owner, minlength=lo.size) > MAX_ACTIVE_PANELS
                for j in np.flatnonzero(crowded):
                    mine = owner == j
                    errors[int(j)] = QuadratureError(
                        f"quadrature did not converge on [{float(lo[j])!r}, {float(hi[j])!r}]: "
                        f"{int(mine.sum())} panels unconverged at depth {depth}",
                        panel_lo=float(a[mine][0]), panel_hi=float(b[mine][-1]),
                        panel_err=float(err[mine].max()),
                    )
                keep = ~crowded[owner]
                owner, a, b = owner[keep], a[keep], b[keep]
            mid = 0.5 * (a + b)
            owner = np.repeat(owner, 2)
            a = np.repeat(a, 2)
            a[1::2] = mid
            b = np.repeat(b, 2)
            b[0::2] = mid
            depth += 1

    owner = np.flatnonzero(lo < hi)
    refine(owner, lo[owner], hi[owner], 0)
    if total is None:
        total = np.zeros((lo.size, 1))
    total[list(errors)] = np.nan
    return total.reshape((lo.size,) + components), errors


def integrate(f: Callable, lo: float, hi: float, spec: QuadSpec | None = None) -> float:
    """Integrate a vectorized real function over [lo, hi].

    The batch-of-one case of :func:`integrate_many`: ``f`` receives one
    1-d array holding every node of a refinement level.

    Returns:
        The integral estimate, accurate to
        ``max(abs_tol, rel_tol * |estimate|)``.

    Raises:
        QuadratureError: if MAX_DEPTH is reached with the tolerance unmet,
            or the integrand is not finite somewhere.
        ValueError: if lo > hi or a bound is not finite.
    """
    return float(first(*integrate_many(
        lambda x, owner: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape),
        [lo], [hi], spec,
    )))


def find_root_decreasing_many(
    g: Callable, lo, hi, spec: RootSpec | None = None
) -> list[RootResult | NumericsError]:
    """Find the roots of many decreasing functions, stepping them in lockstep.

    ``g(x, idx)`` evaluates the functions ``idx`` (an index array) at the
    points ``x`` and returns ``(values, errors)``, with ``errors`` a dict from
    position in ``idx`` to the ``NumericsError`` that failed it.  Each
    function takes exactly the iterates :func:`find_root_decreasing` takes
    for it alone: both endpoints first, then a false-position step, then
    Chandrupatla's steps.  Each of those is an inverse quadratic
    interpolation through the bracket ends and the point last replaced when
    it is monotone on the bracket, else a bisection; a bracket that has not
    halved over the last two steps is bisected.  Every step lands at least
    x_tol / 2 inside the bracket, and nothing is evaluated outside [lo, hi].

    Returns:
        One entry per function: a ``RootResult`` with ``|residual| <=
        f_tol`` or a final bracket width ``<= x_tol``, or the error that
        ended it: ``RootBelowBracket`` if ``g(lo) <= f_tol``,
        ``BracketError`` if ``g(hi) > f_tol``, ``NumericsError`` if MAX_ITER
        is exhausted, or an error returned by ``g``.

    Raises:
        ValueError: unless hi > lo for every function.
    """
    if spec is None:
        spec = DEFAULT_ROOT
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    lo, hi = lo.ravel(), hi.ravel()
    if not np.all(hi > lo):
        i = int(np.argmin(hi > lo))
        raise ValueError(
            f"find_root_decreasing requires hi > lo, got [{float(lo[i])!r}, {float(hi[i])!r}]"
        )
    out: list = [None] * lo.size

    def evaluate(idx, x):
        if not idx.size:
            return x, np.zeros(0, dtype=bool)
        values, errors = g(x, idx)
        live = np.ones(idx.size, dtype=bool)
        for j, exc in errors.items():
            out[idx[j]] = exc
            live[j] = False
        return np.asarray(values, dtype=float), live

    idx = np.arange(lo.size)
    g_lo, live = evaluate(idx, lo)
    for i in np.flatnonzero(live & (g_lo <= spec.f_tol)):
        out[idx[i]] = RootBelowBracket(float(lo[i]), float(g_lo[i]))
    live &= ~(g_lo <= spec.f_tol)
    idx, a, fa = idx[live], lo[live], g_lo[live]
    g_hi, live = evaluate(idx, hi[idx])
    for i in np.flatnonzero(live & (g_hi > spec.f_tol)):
        out[idx[i]] = BracketError(
            f"no root in bracket: g({float(hi[idx[i]])!r}) = {float(g_hi[i])!r} > 0 "
            "for a decreasing function"
        )
    for i in np.flatnonzero(live & (g_hi > 0.0) & (g_hi <= spec.f_tol)):
        out[idx[i]] = RootResult(float(hi[idx[i]]), float(g_hi[i]), 0)
    live &= ~(g_hi > 0.0)
    idx, x1, f1, x2, f2 = idx[live], a[live], fa[live], hi[idx[live]], g_hi[live]
    # Chandrupatla's state: x1 is the newest point, x2 the bracket end of the
    # opposite sign and x3 the point x1 replaced.  The first step is false
    # position.
    with np.errstate(all="ignore"):
        t = f1 / (f1 - f2)
    width = x2 - x1
    past = np.full((2, idx.size), np.inf)  # the widths one and two steps back
    for it in range(1, MAX_ITER + 1):
        if not idx.size:
            break
        # Every step lands at least x_tol / 2 inside the bracket, so a point
        # that converges from one side closes the bracket around the root.
        tlim = 0.5 * spec.x_tol / width
        x = x1 + np.clip(t, tlim, 1.0 - tlim) * (x2 - x1)
        inside = (np.minimum(x1, x2) < x) & (x < np.maximum(x1, x2))
        x = np.where(inside, x, 0.5 * (x1 + x2))
        fx, live = evaluate(idx, x)
        same = (fx > 0.0) == (f1 > 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
        past = np.stack([width, past[0]])
        width = np.abs(x2 - x1)
        hit = live & ((np.abs(fx) <= spec.f_tol) | (width <= spec.x_tol))
        for i in np.flatnonzero(hit):
            out[idx[i]] = RootResult(float(x[i]), float(fx[i]), it)
        # Inverse quadratic interpolation where Chandrupatla's test finds it
        # monotone on the bracket, else bisection.  A bracket that has not
        # halved over the last two steps is bisected, so it halves at least
        # once in every three.
        with np.errstate(all="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        t = np.where(iqi & (width <= 0.5 * past[1]), t, 0.5)
        live &= ~hit
        idx, x1, f1, x2, f2, t, width = (v[live] for v in (idx, x1, f1, x2, f2, t, width))
        past = past[:, live]
    for i in range(idx.size):
        out[idx[i]] = NumericsError(
            f"root iteration limit ({MAX_ITER}) exhausted; "
            f"bracket [{float(min(x1[i], x2[i]))!r}, {float(max(x1[i], x2[i]))!r}]"
        )
    return out


def find_root_decreasing(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    spec: RootSpec | None = None,
) -> RootResult:
    """Find the root of a decreasing function g on [lo, hi].

    The batch-of-one case of :func:`find_root_decreasing_many`.  Both
    endpoints are evaluated up front; nothing is assumed.  The bracket
    always retains a sign change, and g is never evaluated outside [lo, hi].
    Iteration takes a false-position step, then inverse quadratic steps
    where Chandrupatla's test allows them and bisections elsewhere; the
    bracket halves at least once in every three iterations.

    Returns:
        RootResult with ``|residual| <= f_tol`` or a final bracket width
        ``<= x_tol``.

    Raises:
        RootBelowBracket: if ``g(lo) <= f_tol`` -- the root sits at or below
            the lower endpoint (within tolerance).  Callers map this to their
            boundary cases.
        BracketError: if ``g(hi) > f_tol`` -- no root in the bracket.
        NumericsError: if MAX_ITER is exhausted (should not happen for a
            bracketed method with sane tolerances).
    """
    def g_many(x, idx):
        return [g(float(x[0]))], {}

    return unwrap(find_root_decreasing_many(g_many, lo, hi, spec)[0])


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order central difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0:
        raise ValueError("central_diff requires h > 0")
    return (f(x + h) - f(x - h)) / (2.0 * h)
