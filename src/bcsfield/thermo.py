"""Grand potentials over spin-split windows, their difference, and the entropy gap.

The grand potential is evaluated as two integrals over the spin-shifted
windows

    I_up = [-w - s - h, w - s - h],      I_dn = [-w - s + h, w - s + h],

with w the Debye energy, s = a H + b H^2 the orbital shift and h = mu_B H
the Zeeman energy.  The gap entering the brackets is the xi-independent
constant solved on the symmetric window; the windows themselves keep their
physical shifts.  That window mismatch is exactly what makes the entropy
gap nonzero for a non-constant density of states, and with it the phase
transition first order.

``psi_many`` solves the gaps of a batch of states and integrates all of
their windows, superconducting and normal, in one breadth-first quadrature;
``psi``, ``grand_potential_S`` and ``grand_potential_N`` are batch-of-one
cases of the same code.  ``entropy_gap_many`` and ``entropy_gap_fd_many``
evaluate the entropy gap of a batch of temperatures the same way, and
``entropy_gap`` and ``entropy_gap_fd`` are their batch-of-one cases.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernel import fermi, log1p_exp_neg, zeeman_edges
# ``integrate`` stays importable here: bench/spans.py patches thermo.integrate
# by name.
from .numerics import (  # noqa: F401
    NumericsError,
    QuadratureError,
    QuadSpec,
    RootSpec,
    first,
    integrate,
    integrate_many,
    unwrap,
)
from .params import DomainBox, MaterialParams, check_arg
from .solvers import (
    DomainWarning,
    GapSolution,
    implicit_partials_many,
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
    table: (eps, D) arrays, strictly increasing eps (tabulated kind only,
        and required by it); build it with :func:`dos_tabulated`.

    A strictly increasing DOS is what produces a negative entropy gap.
    """

    kind: str
    D0: float = 1.0
    slope_param: float = 0.0
    table: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in DOS_KINDS:
            raise ValueError(f"unknown DOS kind {self.kind!r}; expected one of {DOS_KINDS}")
        check_arg("D0", self.D0, positive=True)
        if not math.isfinite(self.slope_param):
            raise ValueError(f"slope_param must be finite, got {self.slope_param!r}")
        if self.kind == "tabulated" and self.table is None:
            raise ValueError("a tabulated DOS needs a table (use dos_tabulated)")


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
    """Tabulated DOS with linear interpolation; eps strictly increasing."""
    eps = np.asarray(eps, dtype=float)
    dens = np.asarray(dens, dtype=float)
    if eps.ndim != 1 or eps.shape != dens.shape or eps.size < 2:
        raise ValueError("tabulated DOS needs two equal-length 1-d columns (>= 2 rows)")
    if not np.all(np.diff(eps) > 0):
        raise ValueError("tabulated DOS abscissas must be strictly increasing")
    if np.any(dens < 0):
        raise ValueError("tabulated DOS must be nonnegative")
    return DosModel(kind="tabulated", D0=float(dens.max()), table=(eps, dens))


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


def _bracket(xi, T, Y, s, h, spin):
    """Grand-potential bracket of one spin (+1 up, -1 down) at squared gap Y.

    Up:   eta - eta^2/E - (Y/E) f(beta(E + h)) - 2T ln(1 + e^(-beta(E + h)));
    down: eta - (eta^2 + 2Y)/E + (Y/E) f(-beta(E - h)) - 2T ln(1 + e^(-beta(E - h))).
    The spin sign folds the two into one expression that rounds exactly as
    either form; at Y = 0 both reduce to eta - |eta| plus the same log term.
    Every argument after ``xi`` may be an array that broadcasts against it.
    """
    eta = np.asarray(xi, dtype=float) + s
    beta = 1.0 / T
    normal = Y == 0.0
    E = np.where(normal, np.abs(eta), np.sqrt(eta * eta + Y))
    E_safe = np.where(normal, 1.0, E)
    gapped = (eta - (eta * eta + (1.0 - spin) * Y) / E_safe
              - spin * (Y / E_safe) * fermi(spin * (beta * (E + spin * h))))
    core = np.where(normal, eta - E, gapped)
    return core - 2.0 * T * log1p_exp_neg(beta * (E + spin * h))


def _omega_many(T, H, Y, p: MaterialParams, dos: DosModel,
                quad: QuadSpec | None) -> tuple[np.ndarray, dict[int, QuadratureError]]:
    """Grand potentials at a batch of states: ``(values, errors)``.

    Each spin window [-w - s - spin h, w - s - spin h] is split at the
    bracket's kink (Y = 0) or sharp peak (Y > 0) at xi = -s, which keeps
    every panel analytic; a split point outside the window leaves one
    empty piece.  All 4m pieces go to one quadrature, each graded toward
    xi = -s (width min(sqrt(Y), pi T), or pi T at Y = 0) and toward the
    Zeeman edges (width pi T).
    """
    T, H, Y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (T, H, Y))
    m = T.size
    s = p.a * H + p.b * H * H
    h = p.mu_B * H
    w = p.hbar_omega_D
    # piece k = 4 i + j: state i, spin up (j = 0, 1) or down (j = 2, 3).
    spin = np.tile([1.0, 1.0, -1.0, -1.0], m)
    state = np.repeat(np.arange(m), 4)
    lo = -w - s[state] - spin * h[state]
    hi = w - s[state] - spin * h[state]
    split = np.clip(-s[state], lo, hi)
    left = np.tile([True, False, True, False], m)
    lo, hi = np.where(left, lo, split), np.where(left, split, hi)

    pi_T = np.pi * T
    cuts = np.array([-s, *zeeman_edges(s, h, Y)]).T[state]
    scales = np.array([np.where(Y > 0, np.minimum(np.sqrt(Y), pi_T), pi_T), pi_T, pi_T]).T[state]

    def f(xi, k):
        i = state[k, None]
        return dos_eval(dos, xi + p.mu, p) * _bracket(xi, T[i], Y[i], s[i], h[i], spin[k, None])

    pieces, piece_errors = integrate_many(f, lo, hi, quad, (cuts, scales))
    pieces = pieces.reshape(m, 4)
    values = 0.5 * ((pieces[:, 0] + pieces[:, 1]) + (pieces[:, 2] + pieces[:, 3]))
    errors: dict[int, QuadratureError] = {}
    for k in sorted(piece_errors):
        errors.setdefault(k // 4, piece_errors[k])
    return values, errors


def grand_potential_S(
    T: float,
    H: float,
    p: MaterialParams,
    dos: DosModel,
    gap: GapSolution,
    quad: QuadSpec | None = None,
) -> float:
    """Superconducting grand potential at a solved gap.

    With a zero gap this is the identical code path as
    :func:`grand_potential_N`, so the two agree exactly there.
    """
    return float(first(*_omega_many(T, H, gap.Y, p, dos, quad))[0])


def grand_potential_N(
    T: float,
    H: float,
    p: MaterialParams,
    dos: DosModel,
    quad: QuadSpec | None = None,
) -> float:
    """Normal-state grand potential: the same expression with the gap forced to 0."""
    return float(first(*_omega_many(T, H, 0.0, p, dos, quad))[0])


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

    One batched gap solve, then one quadrature over the superconducting and
    normal windows of every state.  Returns one entry per state: its
    ``ThermoPoint``, or the ``NumericsError`` of its gap solve or of one of
    its grand potentials.
    """
    gaps = solve_gap_squared_many(T, H, p, dbox, spec, quad)
    solved = [i for i, g in enumerate(gaps) if isinstance(g, GapSolution)]
    paired = [i for i in solved if gaps[i].Y != 0.0]
    # omega_S of every solved state, then omega_N of those with an open gap.
    rows = solved + paired
    values, errors = _omega_many([gaps[i].T for i in rows], [gaps[i].H for i in rows],
                                 [gaps[i].Y for i in solved] + [0.0] * len(paired),
                                 p, dos, quad)
    normal_row = dict(zip(paired, range(len(solved), len(rows))))
    out: list[ThermoPoint | NumericsError] = list(gaps)
    for k_s, i in enumerate(solved):
        k_n = normal_row.get(i, k_s)
        if k_s in errors or k_n in errors:
            out[i] = errors.get(k_s, errors.get(k_n))
            continue
        o_s, o_n = float(values[k_s]), float(values[k_n])
        out[i] = ThermoPoint(T=gaps[i].T, H=gaps[i].H, omega_S=o_s, omega_N=o_n,
                             psi=o_s - o_n, gap=gaps[i])
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


def _hc_column(T: np.ndarray, hc, p, dbox, spec, quad) -> list[float | NumericsError]:
    """H_c at each temperature: the given ``hc`` broadcast to T, or solved."""
    if hc is None:
        return solve_hc_many(T, p, dbox, spec, quad)
    return np.broadcast_to(np.asarray(hc, dtype=float), T.shape).tolist()


def entropy_gap_many(
    T,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
    hc=None,
) -> list[float | NumericsError]:
    """:func:`entropy_gap` at a batch of temperatures.

    One batched H_c solve (skipped when ``hc`` passes H_c, a value or one
    per temperature), one ``implicit_partials_many`` at (T, H_c), then the
    two edge slivers of every row in one quadrature.  Returns one entry per
    temperature: its dS, or the ``NumericsError`` of its H_c, its gap, its
    partials or one of its slivers.

    Raises:
        ValueError: naming T for a non-finite or non-positive temperature,
            or from the DOS when a sliver leaves its support.
    """
    T = check_arg("T", T, positive=True).ravel()
    out: list[float | NumericsError] = _hc_column(T, hc, p, dbox, spec, quad)
    ok = [i for i, h in enumerate(out) if not isinstance(h, NumericsError)]
    hcs = np.array([out[i] for i in ok])
    partials = implicit_partials_many(T[ok], hcs, p, dbox, spec, quad)
    rows = [k for k, r in enumerate(partials) if not isinstance(r, NumericsError)]
    s = p.a * hcs[rows] + p.b * hcs[rows] * hcs[rows]
    h = p.mu_B * hcs[rows]
    w = p.hbar_omega_D
    # Sliver 2 j is row j's lower edge I1, sliver 2 j + 1 its upper edge I2.
    lo = np.column_stack([-w - s - h, w - s - h]).ravel()
    hi = np.column_stack([-w - s + h, w - s + h]).ravel()
    s_of = np.repeat(s, 2)

    def edge_weight(xi, k):
        return dos_eval(dos, xi + p.mu, p) / np.abs(xi + s_of[k, None])

    slivers, errors = integrate_many(edge_weight, lo, hi, quad)
    for k, r in enumerate(partials):
        out[ok[k]] = r  # a failed row's error; the others get their dS below
    for j, k in enumerate(rows):
        if 2 * j in errors or 2 * j + 1 in errors:
            out[ok[k]] = errors.get(2 * j, errors.get(2 * j + 1))
        else:
            brace = float(slivers[2 * j]) - float(slivers[2 * j + 1])
            out[ok[k]] = -0.25 * partials[k][0] * brace
    return out


def entropy_gap(
    T: float,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
    hc: float | None = None,
) -> float:
    """Entropy jump across the transition at (T, H_c(T)), closed form.

        dS = -(1/4) df/dT (T, H_c) * [ int_{I1} D(xi+mu)/|xi+s| dxi
                                     - int_{I2} D(xi+mu)/|xi+s| dxi ],

    where I1 and I2 are the width-2h slivers at the lower and upper edges of
    the spin-split windows (centers -w - s and +w - s, half-width h = mu_B
    H_c).  For a constant DOS the two integrals cancel exactly; for an
    increasing DOS the brace is negative and so is dS, making the transition
    first order.  At T = tau1 the slivers are empty and dS = 0.  ``hc`` may
    pass H_c(T), already solved, to skip that root solve.  The batch-of-one
    case of :func:`entropy_gap_many`.
    """
    return unwrap(entropy_gap_many(T, p, dos, dbox, spec, quad, hc)[0])


_FD_QUAD = QuadSpec(1e-13, 1e-13)


def entropy_gap_fd_many(
    T,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
    delta_T=None,
    hc=None,
) -> list[float | NumericsError]:
    """:func:`entropy_gap_fd` at a batch of temperatures.

    ``delta_T`` and ``hc`` are a value or one per temperature; without
    ``hc`` the critical fields are one batched solve.  The three potential
    gaps of every row are one ``psi_many``.  Returns one entry per
    temperature: its dS, or the ``NumericsError`` of its H_c or of one of
    its three potential gaps.

    Raises:
        ValueError: naming the argument, for a non-finite or non-positive T
            or a delta_T outside (0, T).
    """
    T = check_arg("T", T, positive=True).ravel()
    steps = 2e-3 * T if delta_T is None else np.broadcast_to(
        np.asarray(delta_T, dtype=float), T.shape)
    bad = ~((0 < steps) & (steps < T))
    if bad.any():
        raise ValueError(f"delta_T must be in (0, T), got {float(steps[bad][0])!r}")
    if quad is None:
        quad = _FD_QUAD
    out: list[float | NumericsError] = _hc_column(T, hc, p, dbox, spec, quad)
    ok = [i for i, h in enumerate(out) if not isinstance(h, NumericsError)]
    steps_ok = steps[ok].tolist()
    probes = [x for t, d in zip(T[ok].tolist(), steps_ok) for x in (t, t - d, t - 0.5 * d)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        points = psi_many(probes, np.repeat([out[i] for i in ok], 3), p, dos, dbox, spec, quad)
    for k, (i, d) in enumerate(zip(ok, steps_ok)):
        row = points[3 * k:3 * k + 3]
        failed = [tp for tp in row if isinstance(tp, NumericsError)]
        if failed:
            out[i] = failed[0]
            continue
        psi_0, psi_1, psi_2 = (tp.psi for tp in row)
        fd_full = (psi_1 - psi_0) / d
        fd_half = (psi_2 - psi_0) / (0.5 * d)
        out[i] = 2.0 * fd_half - fd_full
    return out


def entropy_gap_fd(
    T: float,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    spec: RootSpec | None = None,
    quad: QuadSpec | None = None,
    delta_T: float | None = None,
    hc: float | None = None,
) -> float:
    """Entropy jump as a one-sided finite difference of the potential gap.

    Approaches (T, H_c(T)) from inside the superconducting region along
    fixed H = H_c(T): dS = -dPsi/dT estimated from steps delta_T and
    delta_T/2 with Richardson extrapolation.  Independent cross-check of
    :func:`entropy_gap`; the two must agree when the closed form is right.

    When T sits at the box lower bound the probe dips just below T0; that
    is deliberate, so the below-T0 warning is suppressed for the probes.
    ``hc`` may pass H_c(T), already solved, to skip that root solve; the
    three potential gaps are solved as one batch.  The batch-of-one case
    of :func:`entropy_gap_fd_many`.
    """
    return unwrap(entropy_gap_fd_many(T, p, dos, dbox, spec, quad, delta_T, hc)[0])
