"""Adaptive quadrature and monotone bracketed root finding.

This is the shared numerical machinery used by every solver in the package.
Design goals, in order: correctness with controlled error, determinism
(identical inputs give bit-identical results), and no evaluation outside the
caller's bracket / interval.

Both algorithms work on batches.  :func:`integrate_many` refines many
intervals breadth-first: each refinement level hands every unconverged
panel of every interval to the integrand in one call, and accepts exactly
the panels a depth-first bisection with the same tolerance split would.
Its first level is one panel per interval, or panels graded geometrically
toward the points where the caller knows the integrand changes fast
(L. N. Trefethen and J. A. C. Weideman, SIAM Rev. 56 (2014) 385-458).
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

Cost model.  The integrands of this package are cheap, and a call of a few
states pays mostly for numpy calls on small arrays, a fixed number of them
per quadrature level and per root iteration.  Measured on a 2-core Intel
Xeon with numpy 2.4 and Python 3.11 (best of 15 timings, with a build of
level 0 that sorted its points alongside): the graded level 0 takes 35,
52 and 145 us per call at 1, 36 and 244 intervals, against 44, 72 and
385 us for the sorted build, whose two argsorts were only 2.4 us, 1.5% of
a 160 us scalar F; the rest were its 50-odd small numpy calls.  The
lockstep root loop compacts its state arrays only on a step where a root
ends, and forms the next step only for the roots left: the bookkeeping of
a 5-iteration solve (set-up included, a trivial g) takes 208, 248 and
386 us at 1, 36 and 144 roots, against 267, 294 and 424 us when every
step was formed before the finished roots left and took each difference
anew (best of 21 interleaved timings in one process).  The level-0 budget (``_level0_budget``)
takes 23 us for one state of F (12 panels) and 44 us for 36 (444 panels)
with one ``np.bincount`` per column and sum, against 24 and 52 us for one
over (interval, column) bins (medians of 15 interleaved timings in one
process).  The argument checks of :func:`integrate_many` cost about 20 us
of a 300 us scalar F, so the package's own integrals, whose bounds and
features come from checked states, call the unchecked core
``_integrate_many``.
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

    ``x_tol`` is relative, so a solved value does not depend on the unit
    of its variable: a solve on [lo, hi] may stop once its bracket is
    ``max(x_tol * (hi - lo), spacing(hi - lo))`` wide (the Newton steps of
    ``solve_tau1``, which has no bracket, once a step moves T by at most
    ``x_tol * T``).  ``f_tol`` bounds the residual at the root.
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
    """Return the values of a ``(values, errors)`` batch result.

    Raises the error of the lowest failed entry, if any entry failed.
    """
    if errors:
        raise errors[min(errors)]
    return values


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
        # einsum sums each row alone; a BLAS product (``@``) may round a row
        # differently with its position and the slice's size, and a batch
        # must give each panel the estimate it gets alone.
        kronrod = half[s, None] * np.einsum("kjc,j->kc", fx, _WGK)
        gauss = half[s, None] * np.einsum("kjc,j->kc", fx[:, 1::2], _WG)
        est.append(kronrod)
        err.append(np.abs(kronrod - gauss))
    if len(est) == 1:
        return est[0], err[0], components
    return np.concatenate(est), np.concatenate(err), components


def _level0_budget(est, owner, a, b, lo, hi, spec):
    """The tolerance of each level-0 panel's interval and the panel's share of it.

    Both are (k, c).  ``tol = max(abs_tol, rel_tol * |sum of the interval's
    level-0 estimates|)``; the share is half the panel's share of the
    interval's width plus half its share of the sum of the level-0
    estimates' absolute values (the width share alone where that sum is 0).
    The shares of an interval sum to 1, and one panel per interval gets
    exactly 1.  ``np.bincount`` adds each interval's panels in their order,
    from 0, as ``np.add.at`` does, in half its time or less from a thousand
    panels on.
    """
    c = est.shape[1]
    mag = np.abs(est)
    sums = np.array([np.bincount(owner, w, lo.size) for w in (*est.T, *mag.T)])[:, owner].T
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(sums[:, :c]))
    width = ((b - a) / (hi - lo)[owner])[:, None]
    by_value = np.divide(mag, sums[:, c:], out=np.repeat(width, c, axis=1), where=sums[:, c:] > 0)
    return tol, 0.5 * width + 0.5 * by_value


# Rows of a graded level 0 are built in groups whose step counts agree to
# within this many, so that one row with a scale far below its interval's
# width (one step per halving) does not widen every other row's template.
_STEP_GROUP = 64


def _level0(lo, hi, features):
    """The level-0 panels ``(owner, a, b)``, sorted by owner and then position.

    Without features, one panel per interval with lo < hi.  With them, each
    interval is cut at its feature points and at the midpoints between
    neighbouring ones, and each feature point's cell (the part of the
    interval nearer to it than to the others) at ``cut +- scale * 2**(k -
    1)`` for k = 0, 1, ... out to the cell's farther end, so that the panel
    widths grow geometrically away from each cut.  Equal cuts of one
    interval count as one, with the smallest of their scales.  A cut at
    +-inf, where a caller's shift of a finite state overflowed, lies
    outside every interval and counts as absent.

    Once each interval's cuts are sorted (absent ones last), its points are
    in position order as written: ``lo``, then for each cut its steps below
    (k descending), the cut and its steps above, clipped to the cut's cell,
    then ``hi``.  So the points of all intervals form one dense template,
    each row padded by repeating its last step, and the panels are the
    neighbours that differ: a fixed number of numpy calls, and no sort of
    the points (see the cost model above).
    """
    if features is None:
        owner = np.flatnonzero(lo < hi)
        return owner, lo[owner], hi[owner]
    cuts, scales = features
    cuts = np.where(np.isinf(cuts), np.nan, cuts)
    # Each row's cuts in order, absent (NaN) ones last.
    order = np.argsort(cuts, axis=1) + np.arange(0, cuts.size, cuts.shape[1])[:, None]
    cuts, scales = cuts.take(order), scales.take(order)
    if (cuts[:, 1:] == cuts[:, :-1]).any():
        # Equal cuts take the smallest of their scales: the first then grades
        # below their point and the last above it, as one cut would.
        scales = np.where(cuts[:, :, None] == cuts[:, None, :], scales[:, None, :], np.inf).min(axis=2)
    # Cell ends: the midpoints between neighbouring cuts, within the
    # interval.  An absent cut counts as +inf here: it bounds no cell, and
    # its cell starts at hi, or at lo where every cut is absent.
    known = np.fmin(cuts, np.inf)
    mid = np.minimum(np.maximum(0.5 * (known[:, :-1] + known[:, 1:]), lo[:, None]), hi[:, None])
    ends = np.concatenate([lo[:, None], mid, hi[:, None]], axis=1)
    below, above = ends[:, :-1], ends[:, 1:]
    # Steps below and above each cut.  With reach = r 2**e_r and scale =
    # q 2**e_s (r, q in [1/2, 1)), the step at k = e_r - e_s + 2 exceeds the
    # reach: take k = 0 ... that k, and k = 0 alone on a side where the cell
    # is empty (its point clips to the cut's end of the cell).
    reach = np.array([cuts - below, above - cuts])
    last = np.frexp(reach)[1] - np.frexp(scales)[1] + 2
    last = np.where(reach > 0, np.maximum(last, 0), 0)
    if last.max(initial=0) < _STEP_GROUP:
        return _graded_panels(lo, hi, cuts, scales, below, above, last)
    group = last.max(axis=(0, 2)) // _STEP_GROUP
    rows = [np.flatnonzero(group == g) for g in np.unique(group)]
    parts = [_graded_panels(lo[r], hi[r], cuts[r], scales[r], below[r], above[r], last[:, r])
             for r in rows]
    owner = np.concatenate([r[part[0]] for r, part in zip(rows, parts)])
    order = np.argsort(owner, kind="stable")
    a, b = (np.concatenate([part[i] for part in parts])[order] for i in (1, 2))
    return owner[order], a, b


def _graded_panels(lo, hi, cuts, scales, below, above, last):
    """The panels of one dense template (see ``_level0``), rows in position order.

    ``last`` (2, m, c) is each side's last step k; a side's later steps
    repeat it, so that none overflows.
    """
    k = np.minimum(np.arange(last.max(initial=0) + 1, dtype=np.int32), last[..., None])
    step = np.ldexp(0.5 * scales[..., None], k)
    x = cuts[..., None]
    x = np.concatenate([x - step[0, ..., ::-1], x, x + step[1]], axis=2)
    # Points past a cell's ends clip to them, where they make no panel; an
    # absent cut's points (NaN) take its cell's lower end.  Between equal
    # values (0.0 and -0.0) fmax(below, x) returns below, as
    # np.maximum(x, below) does.
    x = np.minimum(np.fmax(below[..., None], x), above[..., None])
    x = np.concatenate([lo[:, None], x.reshape(lo.size, x.shape[1] * x.shape[2]), hi[:, None]], axis=1)
    # Neighbours of a row that differ; a row's last point and the next
    # row's first make no panel.
    width, x = x.shape[1], x.ravel()
    panel = x[1:] > x[:-1]
    panel[width - 1::width] = False
    at = np.flatnonzero(panel)
    return at // width, x[at], x[at + 1]


def integrate_many(
    f: Callable, lo, hi, spec: QuadSpec | None = None, features=None
) -> tuple[np.ndarray, dict[int, QuadratureError]]:
    """Integrate one vectorized integrand over many intervals at once.

    Breadth-first adaptive Gauss-Kronrod: every unconverged panel of every
    interval at one refinement level goes to the integrand in one call.
    Level 0 is one panel per interval, or with ``features`` a partition
    graded geometrically toward each interval's feature points (see
    below).  Each level-0 panel gets a fraction of the interval's tolerance
    ``tol = max(abs_tol, rel_tol * |sum of its level-0 estimates|)``:
    half of its share of the interval's width plus half of its share of the
    level-0 estimates' absolute values (all of its width share when those
    are all zero), so the fractions sum to 1.  A panel is accepted when its
    Kronrod-Gauss difference is at most ``tol`` times its fraction, and is
    otherwise split in half, each half getting half the fraction.  With
    one level-0 panel this is a depth-first bisection's rule ``tol *
    2**-depth``.  The accepted panels and the result of an interval
    therefore do not depend on the other intervals of the batch.

    Args:
        f: ``f(x, owner)`` with ``x`` a (k, 15) array of abscissas and
            ``owner`` the (k,) interval index of each row, in ascending
            order; returns an array of shape (k, 15), or (k, 15, c) for c
            components integrated on shared panels (a panel is then
            accepted when every component meets its own tolerance).
        lo, hi: 1-d arrays of bounds, ``lo <= hi`` elementwise.
        spec: Tolerances; defaults to ``QuadSpec()``.
        features: Optional ``(cuts, scales)``, two arrays of shape (m, c):
            up to c points per interval near which the integrand changes on
            the length ``scale`` (a pole that far off the real axis, a kink,
            a step of that width), NaN marking an absent cut.  Level 0 then
            splits each interval at its cuts, at the midpoints between
            neighbouring cuts and at ``cut +- scale * 2**k / 2`` for k = 0,
            1, ... out to the cut's cell (see ``_level0``), whatever the
            number of panels that takes, instead of starting from one
            panel.  An interval whose level 0 alone holds more than
            MAX_ACTIVE_PANELS panels fails.

    Returns:
        ``(values, errors)``: the m integrals (shape (m,) or (m, c)), and a
        dict from interval index to the ``QuadratureError`` that failed it.
        Failed entries of ``values`` are NaN; the others are unaffected.  An
        interval fails when the integrand is not finite on one of its
        panels (at once, naming that panel), when a panel at MAX_DEPTH is
        unconverged (naming the leftmost), or when its next level would
        hold more than MAX_ACTIVE_PANELS panels.

    Raises:
        ValueError: if some lo > hi, a bound is not finite, the bounds are
            not 1-d arrays of one shape, or ``features`` is malformed.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"integrate needs 1-d bounds of one shape, got {lo.shape} and {hi.shape}")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("integrate requires finite bounds")
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        raise ValueError(f"integrate requires lo <= hi, got [{float(lo[i])!r}, {float(hi[i])!r}]")
    if features is not None:
        features = tuple(np.asarray(v, dtype=float) for v in features)
        cuts, scales = features
        if cuts.ndim != 2 or cuts.shape != scales.shape or cuts.shape[0] != lo.size:
            raise ValueError(
                f"features need cuts and scales of one shape ({lo.size}, c), "
                f"got {cuts.shape} and {scales.shape}"
            )
        if np.any(np.isinf(cuts) | (~np.isnan(cuts) & ~(scales > 0))):
            raise ValueError("features need finite cuts (NaN if absent) and scales > 0")
    return _integrate_many(f, lo, hi, spec, features)


def _integrate_many(f: Callable, lo: np.ndarray, hi: np.ndarray, spec: QuadSpec | None,
                    features) -> tuple[np.ndarray, dict[int, QuadratureError]]:
    """:func:`integrate_many` without its argument checks.

    For callers that build the bounds and features from checked states:
    ``lo`` and ``hi`` are 1-d float arrays of one shape with finite
    ``lo <= hi``, and ``features`` is None or a pair of (m, c) float arrays,
    scales > 0 and cuts finite or NaN where absent (an infinite cut counts
    as absent, see ``_level0``).
    """
    if spec is None:
        spec = DEFAULT_QUAD
    errors: dict[int, QuadratureError] = {}
    total = tol = None
    components: tuple[int, ...] = ()

    def refine(owner, a, b, share, depth):
        # The panels [a, b] of the intervals ``owner`` (sorted), at ``depth``,
        # with their fractions ``share`` of the tolerance (None at level 0).
        nonlocal total, tol, components
        while owner.size:
            if owner.size > MAX_ACTIVE_PANELS:
                # Several intervals (each holds at most the cap): refine two
                # groups of them one after the other.
                cut = int(np.searchsorted(owner, owner[owner.size // 2]))
                if cut == 0:
                    cut = int(np.searchsorted(owner, owner[0], side="right"))
                if cut == owner.size:
                    # One interval's graded level 0 (deeper levels never
                    # hold more than the cap for one interval).
                    errors[int(owner[0])] = QuadratureError(
                        f"{owner.size} level-0 panels on [{float(lo[owner[0]])!r}, "
                        f"{float(hi[owner[0]])!r}] exceed MAX_ACTIVE_PANELS",
                        panel_lo=float(a[0]), panel_hi=float(b[-1]), panel_err=math.nan,
                    )
                    return
                for part in (slice(None, cut), slice(cut, None)):
                    refine(owner[part], a[part], b[part],
                           None if share is None else share[part], depth)
                return
            est, err, components = _gk15_many(f, a, b, owner)
            if total is None:
                total = np.zeros((lo.size, est.shape[1]))
                tol = np.zeros_like(total)
            if share is None:
                tol[owner], share = _level0_budget(est, owner, a, b, lo, hi, spec)
            # A non-finite integrand value makes its panel's error bound non-finite.
            if not np.isfinite(err).all():
                for i in np.flatnonzero(~np.isfinite(err).all(axis=1)):
                    errors.setdefault(int(owner[i]), QuadratureError(
                        f"integrand not finite on [{float(a[i])!r}, {float(b[i])!r}] at depth {depth}",
                        panel_lo=float(a[i]), panel_hi=float(b[i]), panel_err=math.nan,
                    ))
            bound = tol[owner] * share
            ok = (err <= bound).all(axis=1)
            split = ~ok
            if errors:
                live = ~np.isin(owner, list(errors))
                ok &= live
                split &= live
            np.add.at(total, owner[ok], est[ok])
            if not split.any():
                return
            if depth >= MAX_DEPTH:
                for i in np.flatnonzero(split):
                    errors.setdefault(int(owner[i]), QuadratureError(
                        f"quadrature did not converge on [{float(a[i])!r}, {float(b[i])!r}] "
                        f"(panel error {err[i].max():.3e} > "
                        f"{bound[i].min():.3e} at depth {depth})",
                        panel_lo=float(a[i]), panel_hi=float(b[i]), panel_err=float(err[i].max()),
                    ))
                return
            owner, a, b, share = owner[split], a[split], b[split], share[split]
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
                owner, a, b, share = owner[keep], a[keep], b[keep], share[keep]
            mid = 0.5 * (a + b)
            owner = np.repeat(owner, 2)
            a = np.repeat(a, 2)
            a[1::2] = mid
            b = np.repeat(b, 2)
            b[0::2] = mid
            share = np.repeat(0.5 * share, 2, axis=0)
            depth += 1

    refine(*_level0(lo, hi, features), None, 0)
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
    ))[0])


def find_root_decreasing_many(
    g: Callable, lo, hi, spec: RootSpec | None = None
) -> list[RootResult | NumericsError]:
    """Find the roots of many decreasing functions, stepping them in lockstep.

    ``g(x, idx)`` evaluates the functions ``idx`` (an index array) at the
    points ``x`` and returns ``(values, errors)``, with ``errors`` a dict from
    position in ``idx`` to the ``NumericsError`` that failed it.  Each
    function takes exactly the iterates :func:`find_root_decreasing` takes
    for it alone: both endpoints first (in one call of ``g``), then a
    false-position step, then Chandrupatla's steps.  Each of those is an
    inverse quadratic interpolation through the bracket ends and the point
    last replaced when it is monotone on the bracket, else a bisection; a
    bracket that has not halved over the last two steps is bisected.  Each
    function's stop width is ``max(x_tol * (hi - lo), spacing(hi - lo))``,
    relative to its own starting bracket; every step lands at least half of
    it inside the bracket, and nothing is evaluated outside [lo, hi].

    Returns:
        One entry per function: a ``RootResult`` with ``|residual| <=
        f_tol`` or a final bracket no wider than its stop width, or the
        error that ended it: ``RootBelowBracket`` if ``g(lo) <= f_tol``,
        ``BracketError`` if ``g(hi) > f_tol``, ``NumericsError`` if MAX_ITER
        is exhausted or g is NaN at an iterate (naming it), or an error
        returned by ``g``.  The outcome at lo comes first: g(lo) <= f_tol
        gives ``RootBelowBracket`` even where g(hi) fails, and where both
        ends fail the error at lo is the one returned.

    Raises:
        ValueError: unless hi > lo for every function.
    """
    if spec is None:
        spec = DEFAULT_ROOT
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    lo, hi = lo.ravel(), hi.ravel()
    if not np.all(hi > lo):
        i = int(np.argmin(hi > lo))
        raise ValueError(
            f"find_root_decreasing requires hi > lo, got [{float(lo[i])!r}, {float(hi[i])!r}]"
        )
    out: list = [None] * lo.size

    def evaluate(idx, x):
        # g at x, and the error of each failed position (g's own error
        # before a NaN value).
        if not idx.size:
            return x, {}
        values, errors = g(x, idx)
        values = np.asarray(values, dtype=float)
        errors = dict(errors)
        for j in np.flatnonzero(np.isnan(values)):
            errors.setdefault(int(j), NumericsError(f"g is NaN at x = {float(x[j])!r}"))
        return values, errors

    # Both endpoints in one call; lo's outcome comes first.
    n = lo.size
    idx = np.arange(n)
    values, errors = evaluate(np.concatenate([idx, idx]), np.concatenate([lo, hi]))
    g_lo, g_hi = values[:n], values[n:]
    failed = np.zeros(2 * n, dtype=bool)
    failed[list(errors)] = True
    for j in sorted(errors, reverse=True):  # lo's error last, so it stands
        out[j % n] = errors[j]
    below = ~failed[:n] & (g_lo <= spec.f_tol)
    for i in np.flatnonzero(below):
        out[i] = RootBelowBracket(float(lo[i]), float(g_lo[i]))
    live = ~(failed[:n] | failed[n:] | below)
    for i in np.flatnonzero(live & (g_hi > spec.f_tol)):
        out[i] = BracketError(
            f"no root in bracket: g({float(hi[i])!r}) = {float(g_hi[i])!r} > 0 "
            "for a decreasing function"
        )
    for i in np.flatnonzero(live & (g_hi > 0.0) & (g_hi <= spec.f_tol)):
        out[i] = RootResult(float(hi[i]), float(g_hi[i]), 0)
    live &= ~(g_hi > 0.0)
    idx, x1, f1, x2, f2 = idx[live], lo[live], g_lo[live], hi[live], g_hi[live]
    # d = x2 - x1.  The stop width, relative to each bracket; the floor keeps
    # it positive where x_tol * (hi - lo) underflows.
    d = width = x2 - x1
    tol = np.maximum(spec.x_tol * width, np.spacing(width))
    half_tol = 0.5 * tol
    # Chandrupatla's state: x1 is the newest point, x2 the bracket end of the
    # opposite sign and x3 the point x1 replaced.  The first step is false
    # position.
    with np.errstate(all="ignore"):
        t = f1 / (f1 - f2)
    # The width one step back.
    past1 = np.full(idx.size, np.inf)
    for it in range(1, MAX_ITER + 1):
        if not idx.size:
            break
        # Every step lands at least tol / 2 inside the bracket, so a point
        # that converges from one side closes the bracket around the root.
        tlim = half_tol / width
        x = x1 + np.minimum(np.maximum(t, tlim), 1.0 - tlim) * d
        inside = (np.minimum(x1, x2) < x) & (x < np.maximum(x1, x2))
        x = np.where(inside, x, 0.5 * (x1 + x2))
        fx, errors = evaluate(idx, x)
        same = (fx > 0.0) == (f1 > 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
        d = x2 - x1
        past1, past2 = width, past1
        width = np.abs(d)
        # The state arrays shrink only on a step where some function ends,
        # before the next step is formed.
        stop = (np.abs(fx) <= spec.f_tol) | (width <= tol)
        if errors or stop.any():
            for i in np.flatnonzero(stop):
                out[idx[i]] = RootResult(float(x[i]), float(fx[i]), it)
            for j, exc in errors.items():
                out[idx[j]] = exc
                stop[j] = True
            keep = ~stop
            idx = idx[keep]
            if not idx.size:
                break
            x1, f1, x2, f2, x3, f3, d, width, past1, past2, tol, half_tol = (
                v[keep] for v in (x1, f1, x2, f2, x3, f3, d, width, past1, past2, tol, half_tol))
        # Inverse quadratic interpolation where Chandrupatla's test finds it
        # monotone on the bracket, else bisection.  A bracket that has not
        # halved over the last two steps is bisected, so it halves at least
        # once in every three.  The step is
        #   f1 / (f2 - f1) * f3 / (f2 - f3)
        #   + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2),
        # with its first term taken over f1 - f2 and f3 - f2: the two sign
        # changes cancel exactly, since f1 != f2 across the bracket, and
        # where f3 = f2 phi is not finite and the step is not taken.
        with np.errstate(all="ignore"):
            df12, df32 = f1 - f2, f3 - f2
            xi = (x1 - x2) / (x3 - x2)
            phi = df12 / df32
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = f1 / df12 * f3 / df32 + (x3 - x1) / d * f1 / (f3 - f1) * f2 / df32
        t = np.where(iqi & (width <= 0.5 * past2), t, 0.5)
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
    endpoints are evaluated up front, lo first; nothing is assumed.  An
    exception raised by g is re-raised where it decides the outcome, so
    ``g(lo) <= f_tol`` signals ``RootBelowBracket`` even if g(hi) raises.  The bracket
    always retains a sign change, and g is never evaluated outside [lo, hi].
    Iteration takes a false-position step, then inverse quadratic steps
    where Chandrupatla's test allows them and bisections elsewhere; the
    bracket halves at least once in every three iterations.

    Returns:
        RootResult with ``|residual| <= f_tol`` or a final bracket width
        ``<= max(x_tol * (hi - lo), spacing(hi - lo))``.

    Raises:
        RootBelowBracket: if ``g(lo) <= f_tol`` -- the root sits at or below
            the lower endpoint (within tolerance).  Callers map this to their
            boundary cases.
        BracketError: if ``g(hi) > f_tol`` -- no root in the bracket.
        NumericsError: if MAX_ITER is exhausted (should not happen for a
            bracketed method with sane tolerances), or if g is NaN at an
            iterate, naming it.
    """
    def g_many(x, idx):
        # An exception of g is held as that point's error, so that it is
        # raised only where it decides the outcome: a g(hi) that raises
        # after g(lo) <= f_tol still gives RootBelowBracket.
        values, errors = [], {}
        for j, v in enumerate(x.tolist()):
            try:
                values.append(g(v))
            except Exception as exc:  # re-raised by unwrap below
                values.append(math.nan)
                errors[j] = exc
        return values, errors

    return unwrap(find_root_decreasing_many(g_many, lo, hi, spec)[0])

