"""Command-line front end.

Subcommands mirror the solver layers: ``tc`` (transition temperature),
``gap`` (one state point), ``hc`` (critical-field curve to CSV),
``entropy`` (entropy gap at one temperature), ``sweep`` (grid evaluation to
CSV), and ``check`` (self-check suite).

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 self-check failure.  Output is ``key = value`` lines, or one JSON object
per command with the same field names under ``--json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernel import F_eval_many, F_partials_many, fermi, thermal_weight
from .numerics import NumericsError, QuadSpec, RootSpec, first, unwrap
from .params import Z_CAP, DomainBox, MaterialParams, domain_from, load_params
from .phase_diagram import OUTPUT_KINDS, SweepError, SweepResult, SweepSpec, run_sweep, write_csv
from .solvers import (
    hc_slope_at_tc,
    solve_gap_squared,
    solve_hc,
    solve_hc_many,
    solve_tau1,
)
from .thermo import (
    dos_constant,
    dos_linear,
    dos_sqrt,
    entropy_gap,
    entropy_gap_fd,
    load_dos_table,
    psi_many,
)

__all__ = ["main", "CliConfig"]

# Reference coefficient of the weak-coupling transition-temperature
# asymptote tau1 ~ 1.134 * hbar_omega_D * exp(-1/(2 U1)): `tc` reports its
# deviation from this rounded 2 e^gamma / pi (solvers.TAU1_WEAK_COUPLING).
WEAK_COUPLING_COEFF = 1.134


@dataclass(frozen=True)
class CliConfig:
    """Resolved global options shared by every subcommand."""

    params: MaterialParams
    quad: QuadSpec
    root: RootSpec
    t0_spec: str
    output: str
    as_json: bool


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # numerical failures and uses 1 for usage/config problems.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls, and
    # building costs about 15 times as much as parsing.
    parser = _Parser(prog="bcsfield", description=__doc__.split("\n\n")[0])
    parser.add_argument("--params", metavar="FILE", help="key = value parameter file")
    parser.add_argument(
        "--set", metavar="KEY=VALUE", action="append", default=[], dest="overrides",
        help="override a parameter (repeatable; wins over --params)",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object instead of key = value lines")
    parser.add_argument("--abs-tol", type=float, default=1e-10, help="quadrature absolute tolerance")
    parser.add_argument("--rel-tol", type=float, default=1e-10, help="quadrature relative tolerance")
    parser.add_argument("--x-tol", type=float, default=1e-12, help="root bracket tolerance")
    parser.add_argument("--f-tol", type=float, default=1e-10, help="root residual tolerance")
    parser.add_argument("--T0", default="0.8tau1", help="box lower temperature (number or fraction like 0.8tau1)")
    parser.add_argument("-o", "--output", default="bcsfield", help="output file prefix for CSV-writing commands")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("tc", help="transition temperature at zero field")

    gap = sub.add_parser("gap", help="gap at one (T, H) state point")
    gap.add_argument("--T", required=True, help="temperature (number or fraction like 0.5tau1)")
    gap.add_argument("--H", required=True, type=float, help="external field")

    hc = sub.add_parser("hc", help="critical-field curve to CSV")
    hc.add_argument("-n", type=int, default=50, help="number of temperature samples")

    entropy = sub.add_parser("entropy", help="entropy gap across the transition at T")
    entropy.add_argument("--T", required=True, help="temperature (number or fraction like 0.8tau1)")
    entropy.add_argument("--dos", default="linear:0.5", help="DOS spec: constant[:D0], linear[:slope], sqrt, table:PATH")
    entropy.add_argument("--delta-T", type=float, default=None, help="finite-difference step for the cross-check")

    sweep = sub.add_parser("sweep", help="grid evaluation to CSV files")
    sweep.add_argument("--T-grid", required=True, metavar="MIN:MAX:N", help="temperature grid (values or fractions like 0.8tau1:1tau1:20)")
    sweep.add_argument("--H-grid", default="auto", metavar="MIN:MAX:N|auto", help="field grid, or auto for 0..H_c(T)")
    sweep.add_argument("--outputs", default="hc_curve,gap_surface", help=f"comma list from {OUTPUT_KINDS}")
    sweep.add_argument("--dos", default="linear:0.5", help="DOS spec for psi/entropy outputs")

    check = sub.add_parser("check", help="run the self-check suite")
    check.add_argument("--samples", type=int, default=40, help="sample count per randomized check")
    check.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            overrides[key.strip()] = float(value)
        except ValueError:
            raise ValueError(f"--set {key.strip()}: non-numeric value {value!r}") from None
    return overrides


def _parse_temperature(text: str, tau1: float) -> float:
    text = text.strip()
    if text.endswith("tau1"):
        head = text[: -len("tau1")]
        return (float(head) if head else 1.0) * tau1
    return float(text)


def _parse_dos(spec: str):
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "constant":
        return dos_constant(float(arg) if arg else 1.0)
    if kind == "linear":
        return dos_linear(1.0, float(arg) if arg else 0.5)
    if kind == "sqrt":
        return dos_sqrt(float(arg) if arg else 1.0)
    if kind in ("table", "tabulated"):
        if not arg:
            raise ValueError("table DOS needs a path: table:PATH")
        return load_dos_table(arg)
    raise ValueError(f"unknown DOS spec {spec!r}")


def _emit(config: CliConfig, fields: dict) -> None:
    if config.as_json:
        print(json.dumps(fields))
    else:
        for key, value in fields.items():
            print(f"{key} = {value}")


def _setup(config: CliConfig) -> tuple[float, DomainBox]:
    """tau1 and the working box whose lower temperature ``--T0`` gives."""
    tau1 = solve_tau1(config.params, config.root, config.quad)
    return tau1, domain_from(config.params, _parse_temperature(config.t0_spec, tau1), tau1)


def _cmd_tc(config: CliConfig, args) -> int:
    p = config.params
    tau1 = solve_tau1(p, config.root, config.quad)
    ref = WEAK_COUPLING_COEFF * p.hbar_omega_D * math.exp(-0.5 / p.U1)
    _emit(config, {
        "tau1": tau1,
        "weak_coupling_ref": ref,
        "deviation_pct": 100.0 * (tau1 - ref) / ref,
    })
    return 0


def _cmd_gap(config: CliConfig, args) -> int:
    p = config.params
    tau1, dbox = _setup(config)
    T = _parse_temperature(args.T, tau1)
    # DomainWarning from the solver surfaces on stderr (outside-guarantee-zone
    # points are computed anyway).
    gap = solve_gap_squared(T, args.H, p, dbox, config.root, config.quad)
    _emit(config, {
        "T": gap.T,
        "H": gap.H,
        "delta": gap.delta,
        "Y": gap.Y,
        "state": "N" if gap.boundary else "S",
        "boundary": gap.boundary,
        "residual": gap.residual,
        "iterations": gap.iterations,
    })
    return 0


def _cmd_hc(config: CliConfig, args) -> int:
    if args.n < 2:
        raise ValueError(f"need n >= 2 grid points, got {args.n!r}")
    p = config.params
    tau1, dbox = _setup(config)
    grid = np.linspace(dbox.T0, tau1, args.n).tolist()
    hcs = [unwrap(hc) for hc in solve_hc_many(grid, p, dbox, config.root, config.quad)]
    paths = write_csv(SweepResult(hc_curve=list(zip(grid, hcs))), config.output)
    _emit(config, {
        "file": str(paths[0]),
        "n": len(hcs),
        "tau1": tau1,
        "slope_at_tau1": hc_slope_at_tc(p, config.root, config.quad, tau1=tau1),
        "hc_at_T0": hcs[0],
    })
    return 0


def _cmd_entropy(config: CliConfig, args) -> int:
    p = config.params
    tau1, dbox = _setup(config)
    dos = _parse_dos(args.dos)
    T = _parse_temperature(args.T, tau1)
    hc = solve_hc(T, p, dbox, config.root, config.quad)
    ds = entropy_gap(T, p, dos, dbox, config.root, config.quad, hc=hc)
    ds_fd = entropy_gap_fd(T, p, dos, dbox, config.root, delta_T=args.delta_T, hc=hc)
    _emit(config, {
        "T": T,
        "H_c": hc,
        "dS_formula": ds,
        "dS_fd": ds_fd,
        "dos": args.dos,
    })
    return 0


def _parse_grid(text: str, tau1: float, name: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must be MIN:MAX:N, got {text!r}")
    lo = _parse_temperature(parts[0], tau1)
    hi = _parse_temperature(parts[1], tau1)
    return (lo, hi, int(parts[2]))


def _cmd_sweep(config: CliConfig, args) -> int:
    p = config.params
    tau1, dbox = _setup(config)
    dos = _parse_dos(args.dos)
    outputs = frozenset(s.strip() for s in args.outputs.split(",") if s.strip())
    t_grid = _parse_grid(args.T_grid, tau1, "--T-grid")
    h_grid = "auto" if args.H_grid.strip() == "auto" else _parse_grid(args.H_grid, tau1, "--H-grid")
    spec = SweepSpec(T_grid=t_grid, H_grid=h_grid, outputs=outputs)
    result = run_sweep(spec, p, dos, dbox, config.quad, config.root)
    paths = write_csv(result, config.output)
    _emit(config, {
        "files": [str(path) for path in paths],
        "points": result.points,
        "failures": result.failures,
        "failed": [{"T": T, "H": H, "error": error} for T, H, error in result.failed],
    })
    return 0


def _check_suite(config: CliConfig, args) -> list[tuple[str, str, bool, bool, str]]:
    """Run the invariant suite; returns (name, property, hard, passed, detail)."""
    p = config.params
    quad, root = config.quad, config.root
    if args.samples < 0:
        raise ValueError(f"need --samples >= 0, got {args.samples!r}")
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, str, bool, bool, str]] = []

    def add(name: str, prop: str, hard: bool, passed: bool, detail: str = "") -> None:
        checks.append((name, prop, hard, bool(passed), detail))

    tau1, dbox = _setup(config)
    mid_T = 0.5 * (dbox.T0 + tau1)

    add("domain-cap-inequality", "z sinh z < 2 at z = 1.24", True,
        Z_CAP * math.sinh(Z_CAP) < 2.0, f"value {Z_CAP * math.sinh(Z_CAP):.6f}")
    add("box-ratio", "H_max mu_B / T0 = 1.24 exactly", True,
        abs(dbox.H_max * p.mu_B / dbox.T0 - Z_CAP) <= 4 * np.finfo(float).eps * Z_CAP)

    # F at tau1, then at ten temperatures below it.
    T = [tau1, *np.linspace(dbox.T0, tau1 * (1 - 1e-6), 10)]
    F = first(*F_eval_many(T, 0.0, 0.0, p, quad))
    res = abs(F[0])
    add("tau1-residual", "F(tau1, 0, 0) = 0 within f_tol", True, res <= root.f_tol, f"residual {res:.2e}")

    z = rng.uniform(1e-3, 600, 200)
    z1, T = rng.uniform([0.0, 0.01], [40.0, 1.0], (200, 2)).T
    w1 = thermal_weight(T, z * T, z1 * T / p.mu_B, p)
    w2 = 1.0 - fermi(z + z1) - fermi(z - z1)
    add("weight-identity", "sinh/cosh weight equals two-Fermi-function form", True,
        not np.any(np.abs(w1 - w2) > 1e-12))

    add("subcritical-positivity", "F(T, 0, 0) > 0 below tau1", True, np.all(F[1:] > 0))

    states = rng.uniform([dbox.T0, 1e-6, 0.0], [tau1, dbox.H_max, dbox.Y0], (args.samples, 3))
    ok_t, ok_h, ok_y = np.all(first(*F_partials_many(*states.T, p, quad)) < 0, axis=0)
    add("monotone-in-Y", "dF/dY < 0 on the box", True, ok_y)
    add("monotone-in-H", "dF/dH < 0 on the box", True, ok_h)
    add("monotone-in-T", "dF/dT < 0 on the box", True, ok_t)

    z1 = np.linspace(0.0, Z_CAP, 7)[:, None]
    z = np.linspace(0.0, 50.0, 201)
    c1 = np.cosh(z1)
    lhs = c1 * (np.sinh(z) - z * np.cosh(z)) + np.cosh(z) * np.sinh(z) - z
    add("weight-decreasing-inequality",
        "cosh(z1)(sinh z - z cosh z) + cosh z sinh z - z >= 0 for z1 <= 1.24", True,
        not np.any(lhs < -1e-12 * np.maximum(1.0, np.abs(c1 * z * np.cosh(z)))))

    sinhc = np.divide(np.sinh(z), z, out=np.ones_like(z), where=z != 0)
    add("temperature-decreasing-inequality",
        "1 + cosh z cosh z1 - z1 sinh z1 sinh(z)/z > 0 for z1 <= 1.24", True,
        np.all(1.0 + np.cosh(z) * np.cosh(z1) - z1 * np.sinh(z1) * sinhc > 0))

    # H_c on the curve's grid and at mid_T, shared with the entropy checks.
    *hcs, hc_mid = solve_hc_many([*np.linspace(dbox.T0, tau1, 10), mid_T], p, dbox, root, quad)
    # psi in the paired state (mid_T, 0) and, once H_c(mid_T) is solved, on
    # the critical curve: their gaps serve the gap checks.
    dos = dos_linear(1.0, 0.5)
    critical = [] if isinstance(hc_mid, NumericsError) else [hc_mid]
    paired, *at_hc = psi_many(mid_T, [0.0, *critical], p, dos, dbox, root, quad)
    try:
        hcs = np.array([unwrap(hc) for hc in hcs])
        add("hc-curve", "H_c nonincreasing, H_c(tau1) = 0", True,
            np.all(hcs[1:] <= hcs[:-1] + root.x_tol) and hcs[-1] == 0.0,
            f"H_c(T0) = {hcs[0]:.6g}")
        unwrap(hc_mid)  # raises the error of H_c(mid_T), if it failed
        gap_at_hc = unwrap(at_hc[0]).gap
        add("gap-hc-consistency", "gap vanishes on the critical curve", True,
            gap_at_hc.boundary and gap_at_hc.Y == 0.0)
        slope = hc_slope_at_tc(p, root, quad, tau1=tau1)
        add("hc-slope-sign", "closed-form slope at tau1 is negative", True, slope < 0,
            f"slope {slope:.4f}")
        sol = unwrap(paired).gap
        add("gap-bracket", "squared gap solves inside (0, Y0]", True,
            (not sol.boundary) and 0 < sol.Y <= dbox.Y0,
            f"Y = {sol.Y:.6g}, residual {sol.residual:.2e}")
    except NumericsError as exc:
        add("solver-suite", "gap/critical-field solves succeed on the box", True, False, str(exc))

    # Soft checks: physically expected, not proven; reported but non-fatal.
    try:
        tp = unwrap(paired)
        add("psi-negative", "grand-potential difference < 0 in the paired state", False,
            tp.psi < 0, f"psi = {tp.psi:.3e}")
        hc_mid = unwrap(hc_mid)
        ds = entropy_gap(mid_T, p, dos, dbox, root, quad, hc=hc_mid)
        ds_fd = entropy_gap_fd(mid_T, p, dos, dbox, root, hc=hc_mid)
        agree = ds < 0 and ds_fd < 0 and abs(ds_fd / ds - 1.0) <= 0.05
        add("entropy-gap-cross-check", "closed form matches -dPsi/dT within 5%", False,
            agree, f"formula {ds:.4e}, fd {ds_fd:.4e}")
    except NumericsError as exc:
        add("thermo-suite", "thermodynamic evaluations succeed", False, False, str(exc))

    return checks


def _cmd_check(config: CliConfig, args) -> int:
    checks = _check_suite(config, args)
    hard_failures = sum(1 for _, _, hard, passed, _ in checks if hard and not passed)
    soft_failures = sum(1 for _, _, hard, passed, _ in checks if not hard and not passed)
    if config.as_json:
        print(json.dumps({
            "checks": [
                {"name": name, "property": prop, "hard": hard, "passed": passed, "detail": detail}
                for name, prop, hard, passed, detail in checks
            ],
            "hard_failures": hard_failures,
            "soft_failures": soft_failures,
        }))
    else:
        for name, prop, hard, passed, detail in checks:
            status = "PASS" if passed else ("FAIL" if hard else "soft-fail")
            line = f"[{status:9s}] {name}: {prop}"
            if detail:
                line += f" ({detail})"
            print(line)
        print(f"hard failures: {hard_failures}, soft failures: {soft_failures}")
    return 3 if hard_failures else 0


_COMMANDS = {
    "tc": _cmd_tc,
    "gap": _cmd_gap,
    "hc": _cmd_hc,
    "entropy": _cmd_entropy,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = load_params(args.params, _parse_overrides(args.overrides))
        quad = QuadSpec(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
        root = RootSpec(x_tol=args.x_tol, f_tol=args.f_tol)
        config = CliConfig(
            params=params, quad=quad, root=root, t0_spec=args.T0,
            output=args.output, as_json=args.json,
        )
    except (OSError, ValueError) as exc:
        print(f"bcsfield: config error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](config, args)
    except (OSError, ValueError) as exc:
        print(f"bcsfield: config error: {exc}", file=sys.stderr)
        return 1
    except SweepError as exc:
        print(f"bcsfield: sweep failed: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"bcsfield: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
