"""Batch evaluation over (T, H) grids and CSV serialization.

A sweep is three batched solves: the critical fields of every temperature
in one lockstep root iteration, then the gaps of every (T, H) point in
another, then the grand potentials of every point in one breadth-first
quadrature.  The entropy curve is two more batched calls over all of its
rows, ``entropy_gap_many`` and ``entropy_gap_fd_many``.  Each point's result
does not depend on the rest of the batch, so a sweep is deterministic: the
same spec and parameters always produce byte-identical CSV.  A point whose
solve fails fails on its own: it is recorded as a row marker, with its
reason in ``SweepResult.failed``, and the sweep continues; more than 10%
failed points aborts the sweep.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import NumericsError, QuadSpec, RootSpec, unwrap
from .params import DomainBox, MaterialParams, check_arg
from .solvers import DomainWarning, solve_gap_squared_many, solve_hc_many
from .thermo import DosModel, entropy_gap_fd_many, entropy_gap_many, psi_many

__all__ = ["SweepSpec", "SweepResult", "SweepError", "run_sweep", "write_csv"]

# Each output table's CSV file suffix and header, in the order they are written.
_TABLES = {
    "hc_curve": ("hc", ("T", "H_c")),
    "gap_surface": ("gap", ("T", "H", "Y", "delta", "state")),
    "psi_surface": ("psi", ("T", "H", "omega_S", "omega_N", "psi")),
    "entropy_curve": ("entropy", ("T", "H_c", "dS_formula", "dS_fd")),
}
OUTPUT_KINDS = tuple(_TABLES)

_FAILURE_BUDGET = 0.10


class SweepError(NumericsError):
    """Too many per-point failures for the sweep to be meaningful.

    The message ends with the first failed point's T (and H, for gap and
    psi points) and the error that failed it.
    """


@dataclass(frozen=True)
class SweepSpec:
    """What to evaluate: T grid, H grid (or 'auto'), and output selection.

    ``H_grid = "auto"`` spans 0 to H_c(T) separately for every temperature
    column, in as many points as the T grid has.  Grids are (min, max, n)
    with n >= 2 and min < max.
    """

    T_grid: tuple[float, float, int]
    H_grid: tuple[float, float, int] | str = "auto"
    outputs: frozenset[str] = frozenset({"hc_curve", "gap_surface"})

    def __post_init__(self) -> None:
        _check_grid("T_grid", self.T_grid)
        if isinstance(self.H_grid, str):
            if self.H_grid != "auto":
                raise ValueError(f"H_grid must be (min, max, n) or 'auto', got {self.H_grid!r}")
        else:
            _check_grid("H_grid", self.H_grid)
        unknown = set(self.outputs) - set(OUTPUT_KINDS)
        if unknown:
            raise ValueError(f"unknown outputs {sorted(unknown)}; expected subset of {OUTPUT_KINDS}")
        if not self.outputs:
            raise ValueError("outputs must not be empty")


def _check_grid(name: str, grid) -> None:
    if len(grid) != 3:
        raise ValueError(f"{name} must be (min, max, n)")
    lo, hi, n = grid
    check_arg(f"{name} min", lo)
    check_arg(f"{name} max", hi)
    if n < 2:
        raise ValueError(f"{name}: need n >= 2, got {n!r}")
    if not lo < hi:
        raise ValueError(f"{name}: need min < max, got ({lo!r}, {hi!r})")


@dataclass
class SweepResult:
    """Row-oriented sweep output, one list per requested table.

    ``failed`` holds one ``(T, H, error text)`` per failed point, in the
    order the tables are built; H is None for the per-temperature tables
    (``hc_curve``, ``entropy_curve``).
    """

    hc_curve: list[tuple] | None = None
    gap_surface: list[tuple] | None = None
    psi_surface: list[tuple] | None = None
    entropy_curve: list[tuple] | None = None
    failed: list[tuple[float, float | None, str]] = field(default_factory=list)
    points: int = 0

    @property
    def failures(self) -> int:
        """Number of failed points."""
        return len(self.failed)


def run_sweep(
    spec: SweepSpec,
    p: MaterialParams,
    dos: DosModel,
    dbox: DomainBox,
    quad: QuadSpec | None = None,
    root: RootSpec | None = None,
) -> SweepResult:
    """Evaluate the requested tables over the grids.

    Rows are emitted in grid order (T outer, H inner), independent of how
    the points are computed.  A failed point becomes a marker row (state
    ``ERR`` / NaN values) and counts toward the failure budget.
    """
    t_lo, t_hi, t_n = spec.T_grid
    if not 0 < t_lo:
        raise ValueError(f"T grid must be positive, got min {t_lo!r}")
    needs_hc = spec.outputs & {"hc_curve", "entropy_curve"} or spec.H_grid == "auto"
    if needs_hc and t_hi > dbox.tau1 * (1 + 1e-12):
        raise ValueError(
            f"T grid max {t_hi!r} exceeds tau1 = {dbox.tau1!r}; the critical "
            "field is only defined up to the transition temperature"
        )
    t_values = [float(t) for t in np.linspace(t_lo, t_hi, t_n)]
    result = SweepResult()
    failed: list[tuple[float, float | None, NumericsError]] = []  # (T, H, error)
    points = 0
    hcs = solve_hc_many(t_values, p, dbox, root, quad) if needs_hc else []

    if "hc_curve" in spec.outputs:
        rows = []
        for T, hc in zip(t_values, hcs):
            points += 1
            if isinstance(hc, NumericsError):
                failed.append((T, None, hc))
                hc = math.nan
            rows.append((T, hc))
        result.hc_curve = rows

    if "entropy_curve" in spec.outputs:
        # Each stage solves the rows the stages before it left standing.
        solved = [k for k, hc in enumerate(hcs) if not isinstance(hc, NumericsError)]
        ds = dict(zip(solved, entropy_gap_many(
            [t_values[k] for k in solved], p, dos, dbox, root, quad, hc=[hcs[k] for k in solved])))
        solved = [k for k in solved if not isinstance(ds[k], NumericsError)]
        ds_fd = dict(zip(solved, entropy_gap_fd_many(
            [t_values[k] for k in solved], p, dos, dbox, root, hc=[hcs[k] for k in solved])))
        rows = []
        for k, T in enumerate(t_values):
            points += 1
            row = (T, hcs[k], ds.get(k), ds_fd.get(k))
            exc = next((v for v in row if isinstance(v, NumericsError)), None)
            if exc is not None:
                failed.append((T, None, exc))
                row = (T, math.nan, math.nan, math.nan)
            rows.append(row)
        result.entropy_curve = rows

    wants_gap = "gap_surface" in spec.outputs
    wants_psi = "psi_surface" in spec.outputs
    if wants_gap or wants_psi:
        states: list[tuple[float, float]] = []
        for k, T in enumerate(t_values):
            if spec.H_grid == "auto":
                # A failed H_c leaves no field range: the sweep stops here.
                h_values = np.linspace(0.0, unwrap(hcs[k]), t_n)
            else:
                h_values = np.linspace(*spec.H_grid)
            states.extend((T, float(H)) for H in h_values)
        T_all = [T for T, _ in states]
        H_all = [H for _, H in states]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainWarning)
            if wants_psi:
                solved = psi_many(T_all, H_all, p, dos, dbox, root, quad)
            else:
                solved = solve_gap_squared_many(T_all, H_all, p, dbox, root, quad)
        gap_rows: list[tuple] = []
        psi_rows: list[tuple] = []
        for (T, H), r in zip(states, solved):
            points += 1
            if isinstance(r, NumericsError):
                failed.append((T, H, r))
                gap_rows.append((T, H, math.nan, math.nan, "ERR"))
                psi_rows.append((T, H, math.nan, math.nan, math.nan))
                continue
            gap = r.gap if wants_psi else r
            gap_rows.append((T, H, gap.Y, gap.delta, "N" if gap.boundary else "S"))
            if wants_psi:
                psi_rows.append((T, H, r.omega_S, r.omega_N, r.psi))
        if wants_gap:
            result.gap_surface = gap_rows
        if wants_psi:
            result.psi_surface = psi_rows

    result.failed = [(T, H, str(exc)) for T, H, exc in failed]
    result.points = points
    if points and len(failed) > _FAILURE_BUDGET * points:
        T, H, exc = failed[0]
        where = f"T = {T:.6g}" if H is None else f"T = {T:.6g}, H = {H:.6g}"
        raise SweepError(
            f"{len(failed)}/{points} grid points failed (> {_FAILURE_BUDGET:.0%} budget); "
            f"first at {where}: {exc}"
        )
    return result


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def write_csv(result: SweepResult, prefix: str | Path) -> list[Path]:
    """Write each present table to ``<prefix>_{hc,gap,psi,entropy}.csv``.

    RFC-4180-style CSV with '.' decimal separator and 17 significant digits,
    which round-trips doubles exactly.  Returns the written paths.
    """
    prefix = Path(prefix)
    if prefix.parent != Path("") and not prefix.parent.exists():
        raise FileNotFoundError(f"output directory {prefix.parent} does not exist")
    written: list[Path] = []
    for table, (short, header) in _TABLES.items():
        rows = getattr(result, table)
        if rows is None:
            continue
        path = prefix.parent / f"{prefix.name}_{short}.csv"
        try:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(v) for v in row])
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc
        written.append(path)
    return written
