"""Grand potentials over spin-split windows, their difference, and the entropy gap.

The grand potential is half the sum of two integrals over the
spin-shifted windows

    I_up = [-w - s - h, w - s - h],      I_dn = [-w - s + h, w - s + h],

with w the Debye energy, s = a H + b H^2 the orbital shift and h = mu_B H
the Zeeman energy.  Both are taken as one integral over [-w, w] in
eps = xi + s + spin h, each node adding both spins.  The gap entering the
brackets is the xi-independent constant solved on the symmetric window;
the windows themselves keep their physical shifts.  That window mismatch
is exactly what makes the entropy gap nonzero for a non-constant density
of states, and with it the phase transition first order.

``psi_many`` solves the gaps of a batch of states and integrates psi =
omega_S - omega_N and omega_N of all of them in one breadth-first
quadrature of two components on shared panels; psi is integrated node by
node as the difference of the two brackets, in a form without
cancellation, and omega_S is omega_N + psi.  ``psi`` and
``grand_potential_S`` are its batch-of-one cases, and
``grand_potential_N`` is the same quadrature at a zero gap.
``entropy_gap_many`` and ``entropy_gap_fd_many`` evaluate the entropy gap
of a batch of temperatures the same way, and
``entropy_gap`` and ``entropy_gap_fd`` are their batch-of-one cases.  The
closed form's two edge slivers, of width 2h centred at -+w - s, are one
integral per temperature in the offset t from their centres,

    int_{-h}^{h} [ D(mu - s - w + t) / (w - t) - D(mu - s + w + t) / (w + t) ] dt,

so that interval is exactly 2h wide: no rounding of -+w - s narrows it.
The entropy gap is taken on the critical curve H = H_c(T), where the gap is zero
(Y = 0) and the two potentials are equal (psi = 0); both functions use these
two facts instead of solving for them.  They solve H_c(T) themselves and
take no field, so the field is always the critical one.  The package's own
callers that already hold H_c (the entropy table of a sweep, the CLI's
``entropy`` and ``check``) pass it to the private ``_entropy_gap_many``
and ``_entropy_gap_fd_many`` instead of solving it again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernel import _TINY, _energy, _log1p_exp_neg, fermi, zeeman_edges
# ``integrate`` stays importable here: bench/spans.py patches thermo.integrate
# by name.
from .numerics import (  # noqa: F401
    NumericsError,
    QuadratureError,
    QuadSpec,
    RootSpec,
    _integrate_many,
    first,
    integrate,
    unwrap,
)
from .params import DomainBox, MaterialParams, check_arg
from .solvers import (
    DomainWarning,
    GapSolution,
    implicit_partials_at,
    solve_gap_squared_many,
    solve_hc_many,
)

__all__ = [
    "DosModel",
    "ThermoPoint",
    "dos_constant",
    "dos_linear",
    "dos_sqrt",
    "dos_tabulated",
    "load_dos_table",
    "dos_eval",
    "grand_potential_S",
    "grand_potential_N",
    "psi",
    "psi_many",
    "entropy_gap",
    "entropy_gap_many",
    "entropy_gap_fd",
    "entropy_gap_fd_many",
]

DOS_KINDS = ("constant", "linear", "sqrt", "tabulated")


@dataclass(frozen=True, eq=False)
class DosModel:
    """Density of states D(eps).

    kind: one of ``constant``, ``linear``, ``sqrt``, ``tabulated``.
    D0: overall scale (value at eps = mu for the analytic kinds), finite
        and > 0.
    slope_param: relative slope per Debye energy (linear kind only), finite.
    table: (eps, D) columns of one length, at least 2 rows, every entry
        finite, eps strictly increasing and D nonnegative (tabulated kind
        only, and required by it); :func:`dos_tabulated` builds it with D0
        the largest D.

    A strictly increasing DOS is what produces a negative entropy gap.

    Raises:
        ValueError: for an unknown kind, a non-finite or non-positive D0,
            a non-finite slope_param, or a missing or malformed table.
    """

    kind: str
    D0: float = 1.0
    slope_param: float = 0.0
    table: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in DOS_KINDS:
            raise ValueError(f"unknown DOS kind {self.kind!r}; expected one of {DOS_KINDS}")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("a tabulated DOS needs a table (use dos_tabulated)")
            eps, dens = (np.asarray(column, dtype=float) for column in self.table)
            if eps.ndim != 1 or eps.shape != dens.shape or eps.size < 2:
                raise ValueError("tabulated DOS needs two equal-length 1-d columns (>= 2 rows)")
            if not (np.isfinite(eps).all() and np.isfinite(dens).all()):
                raise ValueError("tabulated DOS entries must be finite")
            if not np.all(np.diff(eps) > 0):
                raise ValueError("tabulated DOS abscissas must be strictly increasing")
            if np.any(dens < 0):
                raise ValueError("tabulated DOS must be nonnegative")
        check_arg("D0", self.D0, positive=True)
        if not math.isfinite(self.slope_param):
            raise ValueError(f"slope_param must be finite, got {self.slope_param!r}")


def dos_constant(D0: float = 1.0) -> DosModel:
    """Flat density of states (entropy gap vanishes identically)."""
    return DosModel(kind="constant", D0=D0)


def dos_linear(D0: float = 1.0, slope_param: float = 0.5) -> DosModel:
    """D(eps) = D0 (1 + slope_param (eps - mu) / hbar_omega_D)."""
    return DosModel(kind="linear", D0=D0, slope_param=slope_param)


def dos_sqrt(D0: float = 1.0) -> DosModel:
    """Free-electron D(eps) = D0 sqrt(eps / mu); requires eps > 0."""
    return DosModel(kind="sqrt", D0=D0)


def dos_tabulated(eps: np.ndarray, dens: np.ndarray) -> DosModel:
    """Tabulated DOS with linear interpolation, checked as :class:`DosModel` says."""
    eps = np.asarray(eps, dtype=float)
    dens = np.asarray(dens, dtype=float)
    # initial=0 lets an empty column reach DosModel's own table check.
    return DosModel(kind="tabulated", D0=float(dens.max(initial=0.0)), table=(eps, dens))


def load_dos_table(path: str | Path) -> DosModel:
    """Load a two-column whitespace-separated (eps, D) text file."""
    data = np.loadtxt(path, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two whitespace-separated columns")
    return dos_tabulated(data[:, 0], data[:, 1])


def dos_eval(dos: DosModel, eps, p: MaterialParams):
    """Evaluate D(eps); raises outside the model's support."""
    eps = np.asarray(eps, dtype=float)
    if dos.kind == "constant":
        out = np.full_like(eps, dos.D0)
    elif dos.kind == "linear":
        out = dos.D0 * (1.0 + dos.slope_param * (eps - p.mu) / p.hbar_omega_D)
        if np.any(out < 0):
            raise ValueError("linear DOS went negative on the requested range")
    elif dos.kind == "sqrt":
        if np.any(eps <= 0):
            raise ValueError("sqrt DOS requires eps > 0")
        out = dos.D0 * np.sqrt(eps / p.mu)
    else:
        tab_eps, tab_d = dos.table
        if np.any(eps < tab_eps[0]) or np.any(eps > tab_eps[-1]):
            raise ValueError(
                f"tabulated DOS queried outside its range "
                f"[{tab_eps[0]!r}, {tab_eps[-1]!r}]"
            )
        out = np.interp(eps, tab_eps, tab_d)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ThermoPoint:
    """Grand potentials and their difference at one (T, H) point."""

    T: float
    H: float
    omega_S: float
    omega_N: float
    psi: float
    gap: GapSolution | None = field(repr=False, compare=False, default=None)


def _brackets(eta, Y, inv_T, two_T, spin_h, down):
    """Grand-potential brackets of one spin at the nodes ``eta = xi + s``.

    Returns ``(bracket_S - bracket_N, bracket_N)`` for the spin of
    ``spin_h = spin h`` and ``down = (1 - spin) / 2`` (spin +1 up, -1
    down), with ``inv_T = 1/T`` and ``two_T = 2T``; each argument after
    ``eta`` may be an array that broadcasts against it.  E is the kernel's
    hypot(eta, sqrt(Y)) raised to the smallest normal double, which changes
    no node at Y > 0 and keeps 0/0 out of the node eta = 0 at Y = 0.  With
    d = E - |eta| = Y / (E + |eta|), u = (|eta| + spin h) / T and
    x = u + d / T:

        bracket_N = eta - |eta| - 2T ln(1 + e^(-u)),
        bracket_S - bracket_N = |eta| d / E - (Y/E) ((1 - spin)/2 + f(x))
                                - 2T log1p(f(u) expm1(-d/T)),

    the last term being ln(1 + e^(-x)) - ln(1 + e^(-u)) without its
    cancellation.  f(u), f(x) and both logs share t = e^(-|u|) and
    1 + f(u) expm1(-d/T), so a node costs three exponentials and two
    logs.  Where that sum is below 1/2 (spin down with |eta| < h and
    d > T ln 2, which no state of the working box reaches at its solved
    gap) it has lost its digits, and those nodes take the equal form -|eta| d/E + (Y/E) f(-x)
    - 2T (ln(1 + e^x) - ln(1 + e^u)).  At Y = 0 the difference is +0.0 on
    every node.
    """
    a = np.abs(eta)
    E = np.maximum(_energy(eta, Y), _TINY)
    d = Y / (E + a)
    u = inv_T * (a + spin_h)
    t = np.exp(-np.abs(u))
    # f(u) = t / (1 + t) for u >= 0 and 1 / (1 + t) below; np.maximum
    # takes the numerator from the comparison, far faster than np.where.
    f_u = np.maximum(t, u < 0.0) / (1.0 + t)
    z = -inv_T * d
    with np.errstate(divide="ignore", invalid="ignore"):
        g = f_u * np.expm1(z)
        f_x = f_u * np.exp(z) / (1.0 + g)
        gap = (a * d - Y * (down + f_x)) / E - two_T * np.log1p(g)
    normal = (eta - a) - two_T * (np.log1p(t) - np.minimum(u, 0.0))
    low = g < -0.5
    if low.any():
        a, d, E, t, x, Y, two_T = (np.broadcast_to(v, gap.shape)[low]
                                   for v in (a, d, E, t, u - z, Y, two_T))
        gap[low] = -a * d / E + (Y / E) * fermi(-x) - two_T * (_log1p_exp_neg(-x) - np.log1p(t))
    return gap, normal


# Spin up and spin down along the first axis of the integrand's nodes: the
# spin-down flag (1 - spin)/2 of each.
_DOWN = np.array([0.0, 1.0])[:, None, None]


def _omega_many(T, H, Y, p: MaterialParams, dos: DosModel,
                quad: QuadSpec | None) -> tuple[np.ndarray, dict[int, QuadratureError]]:
    """psi and omega_N at a batch of states: ``(values, errors)``.

    ``values`` is (m, 2): column 0 is psi = omega_S - omega_N at squared
    gap Y, integrated node by node as bracket_S - bracket_N (see
    :func:`_brackets`), and column 1 is omega_N; both come from one
    two-component quadrature on shared panels, and omega_S is their sum.
    Each state is one interval in eps = eta + spin h, which maps both spin
    windows [-w - s - spin h, w - s - spin h] onto [-w, w]; a node adds
    both spins, (1/2) sum_spin D(eps - s - spin h + mu) bracket(eta = eps
    - spin h).  Level 0 is graded toward each spin's kink or sharp peak at
    eta = 0, eps = +-h (width min(sqrt(Y), pi T), or pi T at Y = 0), and
    toward the spin-down Zeeman edges eps = -h -+ sqrt(h^2 - Y) (width
    pi T); spin up has none, its u >= h/T > 0.
    """
    T, H, Y = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (T, H, Y))))
    s = p.a * H + p.b * H * H
    h = p.mu_B * H
    w = np.full(T.size, p.hbar_omega_D)
    pi_T = np.pi * T
    peak = np.where(Y > 0, np.minimum(np.sqrt(Y), pi_T), pi_T)
    cuts = np.array([h, -h, *zeeman_edges(h, h, Y)]).T
    scales = np.array([peak, peak, pi_T, pi_T]).T
    per_state = np.array([p.mu - s, h, Y, 1.0 / T, 2.0 * T]).T

    def f(eps, k):
        mu_s, h_k, *args = per_state[k].T[..., None]
        spin_h = np.array([h_k, -h_k])
        eta = eps - spin_h
        dens = 0.5 * dos_eval(dos, eta + mu_s, p)
        out = np.empty(eps.shape + (2,))
        for c, bracket in enumerate(_brackets(eta, *args, spin_h, _DOWN)):
            # Each component alone: np.stack along the last axis is slow.
            terms = dens * bracket
            np.add(terms[0], terms[1], out=out[..., c])
        return out

    return _integrate_many(f, -w, w, quad, (cuts, scales))


def grand_potential_S(
    T: float,
    H: float,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> float:
    """Superconducting grand potential at (T, H): omega_N + psi at the solved gap.

    The gap is solved here, so it is always the one of (T, H); this is
    ``psi(...).omega_S``, the batch-of-one case of :func:`psi_many`.
    Beyond H_c the gap is zero, psi is +0.0, and the result equals
    :func:`grand_potential_N` exactly.

    Raises:
        ValueError: naming T or H, for a non-finite or non-positive
            temperature or a non-finite or negative field.
    """
    return psi(T, H, p, dos, dbox, spec, quad).omega_S


def grand_potential_N(
    T: float,
    H: float,
    p: MaterialParams,
    dos: DosModel,
    quad: QuadSpec | None = None,
) -> float:
    """Normal-state grand potential: the same quadrature with the gap forced to 0.

    Raises:
        ValueError: naming T or H, for a non-finite or non-positive
            temperature or a non-finite or negative field.
    """
    check_arg("T", T, positive=True)
    check_arg("H", H)
    return float(first(*_omega_many(T, H, 0.0, p, dos, quad))[0][1])


def psi_many(
    T,
    H,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> list[ThermoPoint | NumericsError]:
    """:func:`psi` at a batch of states (T and H broadcast to one length).

    One batched gap solve, then one quadrature that integrates psi and
    omega_N of every state on shared panels; omega_S = omega_N + psi.
    Returns one entry per state: its ``ThermoPoint``, or the
    ``NumericsError`` of its gap solve or of its quadrature.
    """
    gaps = solve_gap_squared_many(T, H, p, dbox, spec, quad)
    solved = [i for i, g in enumerate(gaps) if isinstance(g, GapSolution)]
    values, errors = _omega_many([gaps[i].T for i in solved], [gaps[i].H for i in solved],
                                 [gaps[i].Y for i in solved], p, dos, quad)
    out: list[ThermoPoint | NumericsError] = list(gaps)
    for k, i in enumerate(solved):
        if k in errors:
            out[i] = errors[k]
            continue
        value, o_n = values[k].tolist()
        out[i] = ThermoPoint(T=gaps[i].T, H=gaps[i].H, omega_S=o_n + value, omega_N=o_n,
                             psi=value, gap=gaps[i])
    return out


def psi(
    T: float,
    H: float,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> ThermoPoint:
    """Solve the gap at (T, H) and return both potentials and their difference.

    The difference vanishes on the critical curve (the gap is zero there and
    both potentials evaluate through the same path) and is negative inside
    the superconducting region.
    """
    return unwrap(psi_many(T, H, p, dos, dbox, spec, quad)[0])


def entropy_gap_many(
    T,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> list[float | NumericsError]:
    """:func:`entropy_gap` at a batch of temperatures.

    One batched H_c solve, one ``F_partials_many`` at (T, H_c, 0), then the
    brace of every row as one interval [-h, h] of one quadrature, in the
    offset t from the sliver centres (see :func:`entropy_gap`).  Returns
    one entry per temperature: its dS, or the ``NumericsError`` of its H_c,
    its partials or its brace.  A row whose mu_B H_c reaches hbar_omega_D
    fails without integrating: its slivers then hold the non-integrable
    pole at xi = -s.

    Raises:
        ValueError: naming T, for a non-finite or non-positive temperature,
            or from the DOS when a sliver leaves its support.
    """
    T = check_arg("T", T, positive=True).ravel()
    return _entropy_gap_many(T, solve_hc_many(T, p, dbox, spec, quad), p, dos, quad)


def _entropy_gap_many(T, hcs, p: MaterialParams, dos: DosModel,
                      quad: QuadSpec | None) -> list[float | NumericsError]:
    """:func:`entropy_gap_many` at critical fields already solved.

    For callers that share one H_c solve: ``T`` is a 1-d float array of
    checked temperatures, ``hcs`` is what :func:`solve_hc_many` returns for
    them, and a ``NumericsError`` entry stays that row's error.
    """
    out: list = list(hcs)
    w = p.hbar_omega_D
    H = np.array([math.nan if isinstance(x, NumericsError) else x for x in hcs])
    h = p.mu_B * H
    for i, h_i in enumerate(h.tolist()):
        # Once h >= w each sliver holds the pole of 1/|xi + s| at xi = -s.
        if h_i >= w:
            out[i] = NumericsError(f"entropy slivers hold the pole at xi = -s: "
                                   f"mu_B H_c = {h_i!r} >= hbar_omega_D = {w!r}")
    ok = [i for i, r in enumerate(out) if not isinstance(r, NumericsError)]
    # On the critical curve Y = 0, so df/dT needs no gap solve.
    for i, r in zip(ok, implicit_partials_at(T[ok].tolist(), H[ok].tolist(),
                                             [0.0] * len(ok), p, quad)):
        out[i] = r
    rows = [i for i in ok if not isinstance(out[i], NumericsError)]
    mu_s = p.mu - (p.a * H[rows] + p.b * H[rows] * H[rows])

    def brace(t, k):
        m = mu_s[k, None]
        return dos_eval(dos, m - w + t, p) / (w - t) - dos_eval(dos, m + w + t, p) / (w + t)

    braces, errors = _integrate_many(brace, -h[rows], h[rows], quad, None)
    for j, i in enumerate(rows):
        out[i] = errors[j] if j in errors else -0.25 * out[i][0] * float(braces[j])
    return out


def entropy_gap(
    T: float,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
) -> float:
    """Entropy jump across the transition at (T, H_c(T)), closed form.

        dS = -(1/4) df/dT (T, H_c) * [ int_{I1} D(xi+mu)/|xi+s| dxi
                                     - int_{I2} D(xi+mu)/|xi+s| dxi ],

    where I1 and I2 are the width-2h slivers at the lower and upper edges of
    the spin-split windows (centers -w - s and +w - s, half-width h = mu_B
    H_c).  With xi = -+w - s + t both slivers take the offset t from
    their centres, so the brace is one integral over exactly 2h,

        brace = int_{-h}^{h} [ D(mu - s - w + t) / (w - t)
                             - D(mu - s + w + t) / (w + t) ] dt,

    whose width no rounding of -+w can take.  df/dT = -F_T/F_Y is taken
    at (T, H_c, 0): the gap is zero on the critical curve, so no gap is
    solved.  For a constant DOS the integrand is odd in t and the brace
    cancels; for an increasing DOS the brace is negative and so is dS,
    making the transition first order.  At T = tau1 the slivers are empty
    and dS = 0.  H_c(T) is solved here, so the field is always the critical
    one.  The batch-of-one case of :func:`entropy_gap_many`.
    """
    return unwrap(entropy_gap_many(T, p, dos, dbox, spec, quad)[0])


# Step of the finite difference, relative to T.  psi is integrated
# without cancellation, so what is left of the error of dS_fd is the
# O(step^2) Richardson truncation: at U1 = 0.05 over 0.8-0.97 tau1 it is
# at most 0.085% (linear DOS) and 0.85% (sqrt DOS) with this step, against
# 5.5% and 55% with 2e-3 T.
FD_STEP = 2.5e-4


def entropy_gap_fd_many(
    T,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
) -> list[float | NumericsError]:
    """:func:`entropy_gap_fd` at a batch of temperatures.

    One batched H_c solve, then the two potential gaps of every row, at
    T - d and T - d/2 with d = ``FD_STEP * T``, as one ``psi_many``.
    Returns one entry per temperature: its dS, or the ``NumericsError`` of
    its H_c or of one of its two potential gaps.

    Raises:
        ValueError: naming T, for a non-finite or non-positive T, or a T
            whose step ``FD_STEP * T`` underflows to 0 (below about
            2e-320); both before any H_c is solved.
    """
    T = check_arg("T", T, positive=True).ravel()
    _fd_steps(T)
    return _entropy_gap_fd_many(T, solve_hc_many(T, p, dbox, spec), p, dos, dbox, spec)


def _fd_steps(T: np.ndarray) -> np.ndarray:
    """The finite-difference step ``FD_STEP * T`` of each temperature.

    Raises:
        ValueError: naming T, where a step is not in (0, T).
    """
    steps = FD_STEP * T
    bad = ~((0 < steps) & (steps < T))
    if bad.any():
        raise ValueError(f"T must have its step FD_STEP * T in (0, T), got {float(T[bad][0])!r}")
    return steps


def _entropy_gap_fd_many(T, hcs, p: MaterialParams, dos: DosModel, dbox: DomainBox,
                         spec: RootSpec | None) -> list[float | NumericsError]:
    """:func:`entropy_gap_fd_many` at critical fields already solved.

    For callers that share one H_c solve: ``T`` is a 1-d float array of
    checked temperatures, ``hcs`` is what :func:`solve_hc_many` returns for
    them, and a ``NumericsError`` entry stays that row's error.  Raises the
    ``ValueError`` of :func:`_fd_steps`.
    """
    steps = _fd_steps(T)
    out: list[float | NumericsError] = list(hcs)
    ok = [i for i, h in enumerate(out) if not isinstance(h, NumericsError)]
    steps_ok = steps[ok].tolist()
    # psi(T, H_c) = 0 on the critical curve: only the two probes below T.
    probes = [x for t, d in zip(T[ok].tolist(), steps_ok) for x in (t - d, t - 0.5 * d)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        points = psi_many(probes, np.repeat([out[i] for i in ok], 2), p, dos, dbox, spec)
    for k, (i, d) in enumerate(zip(ok, steps_ok)):
        row = points[2 * k:2 * k + 2]
        failed = [tp for tp in row if isinstance(tp, NumericsError)]
        if failed:
            out[i] = failed[0]
            continue
        psi_1, psi_2 = (tp.psi for tp in row)
        fd_full = psi_1 / d
        fd_half = psi_2 / (0.5 * d)
        out[i] = 2.0 * fd_half - fd_full
    return out


def entropy_gap_fd(
    T: float,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
) -> float:
    """Entropy jump as a one-sided finite difference of the potential gap.

    Approaches (T, H_c(T)) from inside the superconducting region along
    fixed H = H_c(T): dS = -dPsi/dT estimated from steps d and d/2 with
    Richardson extrapolation.  Psi(T, H_c) = 0 on the critical curve, so
    only the two probes below T are solved.  The step is
    d = ``FD_STEP * T`` (2.5e-4 T), and every quadrature runs at
    the default ``QuadSpec``: psi is integrated without cancellation, so
    it keeps its digits at the probes even at weak coupling, where it is
    about 1e-16.  Independent cross-check of :func:`entropy_gap`; the two
    must agree when the closed form is right.

    When T sits at the box lower bound the probe dips just below T0; that
    is deliberate, so the below-T0 warning is suppressed for the probes.
    H_c(T) is solved here, so Psi = 0 holds at T.  The two potential gaps
    are solved as one batch.  The batch-of-one case of
    :func:`entropy_gap_fd_many`.
    """
    return unwrap(entropy_gap_fd_many(T, p, dos, dbox, spec)[0])
