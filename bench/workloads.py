"""The benchmark's workloads: inputs made from a seed, and checks of every output.

Each workload is a sequence of rounds; a round is a fixed list of
``bcsfield`` command lines (operations), so every run attempts whole rounds
and any fixed share of failing operations is the same in every run.  Inputs
inside a round are spread by stratified sampling (one draw per stratum), which
keeps the cost of a round nearly the same from round to round and from seed
to seed.

Checks never compare with stored output.  They use the independent reference
in :mod:`reference` or properties the method must have.  They run after the
timed part.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import Dos, Material, F_ref, omega_ref, tau1_ref

# |F_ref| allowed at a solved root.  The library stops at |F| <= 1e-10 with a
# quadrature error of at most 1e-10 * |integral| (integral = 1/U1 <= 10 here),
# so a correct root reads below ~1.1e-9; a squared gap off by a relative 1e-6
# reads above 1e-8 at every cold state.
TOL_F = 3e-9
# Relative agreement of the entropy formula with the finite difference.
TOL_DS = 1e-2
# A constant density of states has no entropy gap: the formula cancels to
# rounding, the finite difference to its O(delta_T^2) truncation.
TOL_DS_FLAT_FORMULA = 1e-12
TOL_DS_FLAT_FD = 1e-6
# The squared gap never exceeds Delta0^2 = (w / sinh(1/(2 U1)))^2, its value at
# T = H = 0; near there dF/dY * Y ~ -1, so TOL_F allows a relative excess ~TOL_F.
Y_MAX_SLACK = 1e-8
# Cold zero-field gap against w / sinh(1/(2 U1)).
TOL_COLD_GAP = 1e-3
# Reference rows are evaluated in chunks of this many states.
CHUNK = 64

GOLDEN = 0.6180339887498949


@dataclass
class Op:
    """One ``bcsfield`` invocation: global options and command arguments.

    ``writes`` ops get ``-o PREFIX`` from the harness.  ``fault`` names a
    known fault of the program that makes this op fail today; such an op is
    counted in ``failed`` without making the run incorrect.
    """

    args: list[str]
    kind: str
    points: int
    info: dict = field(default_factory=dict)
    writes: bool = False
    fault: str | None = None


@dataclass
class Outcome:
    """What one invocation returned."""

    rc: int
    seconds: float
    stdout: str
    stderr: str
    prefix: Path | None = None
    started: float = 0.0

    def json(self) -> dict:
        return json.loads(self.stdout)

    def table(self, short: str) -> list[list[str]]:
        path = self.prefix.parent / f"{self.prefix.name}_{short}.csv"
        rows = list(csv.reader(io.StringIO(path.read_text())))
        return rows[1:]

    def csv_bytes(self) -> dict[str, bytes]:
        return {p.name[len(self.prefix.name):]: p.read_bytes()
                for p in sorted(self.prefix.parent.glob(f"{self.prefix.name}_*.csv"))}


class Checks:
    """Shared state of the checks: reference values reused across ops, and accuracy records."""

    def __init__(self):
        self.max_ref_residual = 0.0
        self.max_omega_dev = 0.0
        self.entropy_rel_dev = 0.0
        self._tau1: dict[Material, float] = {}

    def tau1(self, m: Material) -> float:
        if m not in self._tau1:
            self._tau1[m] = tau1_ref(m)
        return self._tau1[m]

    def residuals(self, states) -> np.ndarray:
        """F_ref at (T, H, Y, Material) states, in chunks."""
        out = [F_ref(states[i:i + CHUNK]) for i in range(0, len(states), CHUNK)]
        return np.concatenate(out) if out else np.zeros(0)

    def root_misses(self, states, what: str) -> list[str | None]:
        """Per state: None if it is a root of F_ref within TOL_F, else the problem."""
        res = self.residuals(states)
        if res.size:
            self.max_ref_residual = max(self.max_ref_residual, float(np.max(np.abs(res))))
        return [None if abs(r) <= TOL_F else f"{what} at {st[:3]} is no root: F_ref = {r:.3e}"
                for st, r in zip(states, res)]

    def normal_misses(self, states, what: str) -> list[str | None]:
        """Per state: None if it is normal (F_ref(T, H, 0) <= TOL_F), else the problem."""
        res = self.residuals(states)
        return [None if r <= TOL_F else f"{what} at {st[:2]} marked normal but F_ref = {r:.3e}"
                for st, r in zip(states, res)]

    def roots(self, states, what: str) -> list[str]:
        return [m for m in self.root_misses(states, what) if m]

    def normal(self, states, what: str) -> list[str]:
        return [m for m in self.normal_misses(states, what) if m]


def _floats(row) -> list[float]:
    return [float(v) for v in row]


def _strata(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _num(x) -> str:
    """Shortest decimal that round-trips x."""
    return repr(float(x))


def _frac(x: float) -> str:
    return f"{_num(x)}tau1"


def _check_t_grid(T: np.ndarray, lo: float, hi: float, tau1: float) -> list[str]:
    want = np.linspace(lo * tau1, hi * tau1, T.size)
    if np.max(np.abs(T - want)) > 1e-9 * tau1:
        return [f"T grid {T.tolist()} differs from {lo}..{hi} tau1_ref"]
    return []


def _check_hc(rows: np.ndarray, hi: float, m: Material, ck: Checks) -> list[str]:
    """Critical-field column: a root of F_ref, non-increasing, zero at tau1."""
    T, Hc = rows[:, 0], rows[:, 1]
    bad = []
    if np.any(np.diff(Hc) > 0):
        bad.append(f"H_c increases with T: {Hc.tolist()}")
    if hi == 1.0:
        if Hc[-1] != 0.0:
            bad.append(f"H_c(tau1) = {Hc[-1]!r}, not 0")
        bad += ck.roots([(T[-1], 0.0, 0.0, m)], "tau1")
    bad += ck.roots([(t, h, 0.0, m) for t, h in zip(T, Hc) if h > 0], "H_c")
    return bad


class Workload:
    """A seeded sequence of rounds; subclasses make rounds and check outcomes."""

    name = ""
    index = 0
    ROUND_S = 0.5  # nominal duration of one round, in calibrated seconds

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, self.index])
        self.workdir = workdir
        self._rounds: list[list[Op]] = []

    def round(self, k: int) -> list[Op]:
        while len(self._rounds) <= k:
            self._rounds.append(self.make_round(len(self._rounds)))
        return self._rounds[k]

    def make_round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], outs: list[Outcome], ck: Checks) -> list[list[str]]:
        """Problems found for each op (an empty list when it passed)."""
        return [self.check_one(op, out, ck) for op, out in zip(ops, outs)]

    def check_one(self, op: Op, out: Outcome, ck: Checks) -> list[str]:
        raise NotImplementedError


def _sweep_status(op: Op, out: Outcome) -> list[str]:
    if out.rc != 0:
        return [f"exit {out.rc}: {out.stderr.strip()[-300:]}"]
    summary = out.json()
    if summary["failures"] != 0 or summary["points"] != op.info["points_reported"]:
        return [f"sweep summary {summary}"]
    return []


class PhaseSweep(Workload):
    """``bcsfield sweep`` over T x auto-H grids with hc, gap and psi outputs."""

    name = "phase_sweep"
    index = 1
    N = 6  # T grid points; the auto H grid has as many per column
    OUTPUTS = "hc_curve,gap_surface,psi_surface"
    SLOPE = 0.5  # linear DOS slope for the psi surface

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.u0 = self.rng.random()

    def make_round(self, k):
        # Two sweeps per round, both ending at tau1 (so H_c(tau1) = 0 is checked
        # every time and the sweeps cost alike); the low ends follow a
        # golden-ratio sequence, half a period apart.
        u = (self.u0 + k * GOLDEN) % 1.0
        ops = []
        for lo in (0.80 + 0.10 * u, 0.80 + 0.10 * ((u + 0.5) % 1.0)):
            lo = float(lo)
            grid = f"{_frac(lo)}:{_frac(1.0)}:{self.N}"
            ops.append(Op(
                args=["--json", "sweep", "--T-grid", grid, "--H-grid", "auto",
                      "--dos", f"linear:{self.SLOPE}", "--outputs", self.OUTPUTS],
                kind="sweep", points=self.N * self.N, writes=True,
                info={"lo": lo, "hi": 1.0, "points_reported": self.N + self.N * self.N},
            ))
        return ops

    def check_one(self, op, out, ck):
        bad = _sweep_status(op, out)
        if bad:
            return bad
        m, dos = Material(), Dos("linear", slope=self.SLOPE)
        n = self.N
        tau1 = ck.tau1(m)
        hc = np.array([_floats(r) for r in out.table("hc")])
        gap_rows = out.table("gap")
        psi = np.array([_floats(r) for r in out.table("psi")])
        if hc.shape != (n, 2) or len(gap_rows) != n * n or psi.shape != (n * n, 5):
            return [f"table shapes {hc.shape}, {len(gap_rows)}, {psi.shape}"]
        gap = np.array([_floats(r[:4]) for r in gap_rows])
        state = np.array([r[4] for r in gap_rows])
        bad += _check_t_grid(hc[:, 0], op.info["lo"], op.info["hi"], tau1)
        bad += _check_hc(hc, op.info["hi"], m, ck)

        T, H, Y, delta = gap.T
        y_max = m.zero_T_gap() ** 2
        for i in range(n):
            col = slice(i * n, (i + 1) * n)
            if np.any(T[col] != hc[i, 0]) or H[col][0] != 0.0 or H[col][-1] != hc[i, 1]:
                bad.append(f"column {i} does not span H = 0..H_c(T)")
            if np.any(np.diff(Y[col]) > 0):
                bad.append(f"Y increases with H at T = {hc[i, 0]!r}: {Y[col].tolist()}")
        sup = state == "S"
        if not np.all((state == "S") | (state == "N")):
            bad.append(f"unknown states {sorted(set(state))}")
        if np.any(Y[~sup] != 0.0) or np.any(delta[~sup] != 0.0):
            bad.append("normal rows with a nonzero gap")
        if np.any(Y[sup] <= 0.0) or np.any(Y[sup] > y_max * (1 + Y_MAX_SLACK)):
            bad.append(f"superconducting Y outside (0, Delta0^2 = {y_max!r}]")
        if np.any(np.abs(delta[sup] - np.sqrt(Y[sup])) > 4e-16 * delta[sup]):
            bad.append("delta != sqrt(Y)")
        bad += ck.roots([(t, h, y, m) for t, h, y in zip(T[sup], H[sup], Y[sup])], "gap")
        bad += ck.normal([(t, h, 0.0, m) for t, h in zip(T[~sup], H[~sup])], "gap")

        pT, pH, omega_s, omega_n, pval = psi.T
        if np.any(pT != T) or np.any(pH != H):
            bad.append("psi rows do not match gap rows")
        if np.any(pval > 0.0):
            bad.append(f"psi > 0 at {int(np.sum(pval > 0))} rows")
        if np.any(pval[~sup] != 0.0) or np.any(omega_s[~sup] != omega_n[~sup]):
            bad.append("psi != 0 on normal rows")
        # Recorded, not enforced: the library's adaptive rule now and then
        # accepts a grand potential 3e-7 off at its 1e-10 tolerance (see
        # README.md, Faults), on a seed-dependent handful of rows.
        ref_s = omega_ref(list(zip(T, H, Y)), m, dos)
        ref_n = ref_s.copy()
        ref_n[sup] = omega_ref(list(zip(T[sup], H[sup], np.zeros(sup.sum()))), m, dos)
        for got, want in ((omega_s, ref_s), (omega_n, ref_n), (pval, ref_s - ref_n)):
            ck.max_omega_dev = max(ck.max_omega_dev, float(np.max(np.abs(got - want))))
        return bad


class EntropyCurve(Workload):
    """``bcsfield sweep --outputs entropy_curve`` below tau1, cycling the DOS kinds."""

    name = "entropy_curve"
    index = 2
    N = 3
    # A tabulated DOS is left out: see the entropy_curve notes in README.md.
    KINDS = ("linear", "sqrt", "constant")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.u0, self.v0 = self.rng.random(2)

    def make_round(self, k):
        ops = []
        n = len(self.KINDS)
        lows = (self.u0 + k * GOLDEN + np.arange(n) / n) % 1.0
        for j, kind in enumerate(self.KINDS):
            lo = float(0.80 + 0.10 * lows[j])
            hi = float(0.92 + 0.06 * ((self.v0 + k * GOLDEN + j / n) % 1.0))
            if kind == "linear":
                # D stays positive over the window for slopes below ~0.95.
                slope = float(self.rng.uniform(0.2, 0.8))
                spec, dos = f"linear:{_num(slope)}", Dos("linear", slope=slope)
            else:
                spec, dos = kind, Dos(kind)
            ops.append(Op(
                args=["--json", "sweep", "--T-grid", f"{_frac(lo)}:{_frac(hi)}:{self.N}",
                      "--outputs", "entropy_curve", "--dos", spec],
                kind="entropy", points=self.N, writes=True,
                info={"lo": lo, "hi": hi, "dos": dos, "points_reported": self.N},
            ))
        return ops

    def check_one(self, op, out, ck):
        bad = _sweep_status(op, out)
        if bad:
            return bad
        m = Material()
        rows = np.array([_floats(r) for r in out.table("entropy")])
        if rows.shape != (self.N, 4):
            return [f"entropy table shape {rows.shape}"]
        bad += _check_t_grid(rows[:, 0], op.info["lo"], op.info["hi"], ck.tau1(m))
        bad += _check_hc(rows[:, :2], op.info["hi"], m, ck)
        ds, ds_fd = rows[:, 2], rows[:, 3]
        if op.info["dos"].kind == "constant":
            if np.any(np.abs(ds) > TOL_DS_FLAT_FORMULA) or np.any(np.abs(ds_fd) > TOL_DS_FLAT_FD):
                bad.append(f"flat DOS entropy gap not zero: {ds.tolist()} / {ds_fd.tolist()}")
            return bad
        if np.any(ds >= 0) or np.any(ds_fd >= 0):
            bad.append(f"entropy gap not negative for an increasing DOS: {ds.tolist()}")
        dev = np.abs(ds - ds_fd) / np.abs(ds_fd)
        ck.entropy_rel_dev = max(ck.entropy_rel_dev, float(np.max(dev)))
        if np.any(dev > TOL_DS):
            bad.append(f"formula vs finite difference differ by {dev.max():.3e}")
        return bad


class PointQueries(Workload):
    """Independent ``bcsfield --json --set U1=... gap|tc`` queries, plus malformed ones."""

    name = "point_queries"
    index = 3
    SIZE = 40
    TC_SLOTS = (0, 10, 20, 30)
    COLD_SLOTS = (5, 15, 25, 35)
    # Malformed queries: fixed inputs, and the argument the error must name.
    MALFORMED = {
        13: (["gap", "--T", "0.03", "--H", "nan"], "H",
             "NaN field passes StatePoint and solve_gap_squared (exit 2, QuadratureError)"),
        26: (["gap", "--T", "inf", "--H", "0.01"], "T",
             "infinite temperature is accepted and reported as a normal state (exit 0)"),
        39: (["gap", "--T", "nan", "--H", "0.01"], "T", None),  # control: rejected today
    }
    U1_RANGE = (0.13, 0.25)
    T_MIN = 1e-4
    H_SPAN = 2.0  # H up to H_SPAN * Delta0 / mu_B: well beyond H_c at every T

    def make_round(self, k):
        rng = self.rng
        general = [j for j in range(self.SIZE)
                   if j not in self.TC_SLOTS + self.COLD_SLOTS and j not in self.MALFORMED]
        u1 = self.U1_RANGE[0] + (self.U1_RANGE[1] - self.U1_RANGE[0]) * _strata(rng, self.SIZE)
        t_u = _strata(rng, len(general))
        h_u = _strata(rng, len(general))
        cold_u = _strata(rng, len(self.COLD_SLOTS))
        ops = []
        g = c = 0
        for j in range(self.SIZE):
            if j in self.MALFORMED:
                args, arg_name, fault = self.MALFORMED[j]
                ops.append(Op(args=["--json", *args], kind="malformed", points=1,
                              info={"names": arg_name}, fault=fault))
                continue
            U1 = float(u1[j])
            m = Material(U1=U1)
            opts = ["--json", "--set", f"U1={_num(U1)}"]
            delta0 = m.zero_T_gap()
            if j in self.TC_SLOTS:
                ops.append(Op(args=[*opts, "tc"], kind="tc", points=1, info={"m": m}))
                continue
            if j in self.COLD_SLOTS:
                # Cold enough that the gap equals Delta0 to ~1e-9.
                T = self.T_MIN * (delta0 / 20 / self.T_MIN) ** float(cold_u[c])
                H = 0.0
                c += 1
            else:
                tau1_guess = 1.134 * m.hbar_omega_D * math.exp(-0.5 / U1)
                T = self.T_MIN * (tau1_guess / self.T_MIN) ** float(t_u[g])
                H = float(h_u[g]) * self.H_SPAN * delta0 / m.mu_B
                g += 1
            T, H = float(T), float(H)
            ops.append(Op(args=[*opts, "gap", "--T", _num(T), "--H", _num(H)], kind="gap",
                          points=1, info={"m": m, "T": T, "H": H, "cold": H == 0.0 and
                                          T <= delta0 / 20}))
        return ops

    def check(self, ops, outs, ck):
        problems: list[list[str]] = [[] for _ in ops]
        roots, normals = [], []  # (op index, state)
        for i, (op, out) in enumerate(zip(ops, outs)):
            bad = problems[i]
            if op.kind == "malformed":
                if out.rc != 1 or out.stdout:
                    bad.append(f"exit {out.rc} for {op.args[1:]}; want 1 naming {op.info['names']}")
                elif not re.search(rf"\b{op.info['names']}\b", out.stderr):
                    bad.append(f"error does not name {op.info['names']}: {out.stderr.strip()!r}")
                continue
            if out.rc != 0:
                bad.append(f"exit {out.rc}: {out.stderr.strip()[-300:]}")
                continue
            res = out.json()
            m = op.info["m"]
            if op.kind == "tc":
                ref = 1.134 * m.hbar_omega_D * math.exp(-0.5 / m.U1)
                if abs(res["weak_coupling_ref"] - ref) > 1e-15 * ref:
                    bad.append(f"weak-coupling reference {res['weak_coupling_ref']!r} != {ref!r}")
                roots.append((i, (res["tau1"], 0.0, 0.0, m)))
                continue
            T, H, Y, delta = res["T"], res["H"], res["Y"], res["delta"]
            if T != op.info["T"] or H != op.info["H"]:
                bad.append(f"echoed (T, H) = ({T!r}, {H!r}) differ from the input")
            if res["state"] == "N":
                if Y != 0.0 or delta != 0.0 or not res["boundary"]:
                    bad.append(f"normal state with Y = {Y!r}, delta = {delta!r}")
                normals.append((i, (T, H, 0.0, m)))
                continue
            if res["state"] != "S" or res["boundary"]:
                bad.append(f"state {res['state']!r}, boundary {res['boundary']!r}")
            if not 0.0 < Y <= m.zero_T_gap() ** 2 * (1 + Y_MAX_SLACK):
                bad.append(f"Y = {Y!r} outside (0, Delta0^2]")
            if abs(delta - math.sqrt(Y)) > 4e-16 * delta:
                bad.append(f"delta = {delta!r} != sqrt(Y)")
            if op.info["cold"] and abs(delta / m.zero_T_gap() - 1.0) > TOL_COLD_GAP:
                bad.append(f"cold gap {delta!r} vs w/sinh(1/(2 U1)) = {m.zero_T_gap()!r}")
            roots.append((i, (T, H, Y, m)))
        for items, misses, what in ((roots, ck.root_misses, "root"),
                                    (normals, ck.normal_misses, "normal state")):
            for (i, _), msg in zip(items, misses([st for _, st in items], what)):
                if msg:
                    problems[i].append(msg)
        return problems


WORKLOADS = {w.name: w for w in (PhaseSweep, EntropyCurve, PointQueries)}
