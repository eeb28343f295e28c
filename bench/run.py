"""bcsfield benchmark: closed-loop workloads through ``bcsfield.cli.main``, in process.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload phase_sweep --seed 1 --seconds 30 --trace 0

One caller sends each command line only after the previous one returned.
The package is imported from the checkout's ``src/``; the run stops with
exit code 2 if that tree is missing.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed number
of rounds (about half the time at nominal speed) untraced, then the same
rounds again with spans recorded at the package's module boundaries (see
``spans.py``), and prints the per-layer metrics together with the tracing
overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
``--workload all`` runs every workload, each in its own process, and prints
one such line each.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, Checks, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Calibration: a fixed slice of small-array numpy work, run between operations
# so that slices take CAL_DUTY of the run.  The machines this runs on change
# speed by +-25% and more within seconds (other tenants share the cores), and
# every duration is scaled by CAL_NOMINAL_S / (median time of the slices taken
# within CAL_SPAN_S, or one operation's length, before and after it), i.e.
# reported at the speed at which one slice takes CAL_NOMINAL_S.  The slice
# never calls bcsfield.
CAL_ITERS = 600
CAL_NOMINAL_S = 4.5e-3
CAL_DUTY = 0.2
CAL_SPAN_S = 0.1

# setup_s is measured in fresh interpreters, each paired with a reference
# interpreter run right after it: import numpy and a fixed slice of numpy
# work, about what bcsfield's own import and tau1 solve add.  numpy's import
# dominates both and slows alike when the machine is busy, which the
# calibration slices do not follow.  setup_s is the median ratio times
# SETUP_REF_NOMINAL_S, the reference's time at nominal speed.
SETUP_REPEATS = 9
SETUP_REF_NOMINAL_S = 0.1
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import bcsfield as bf
p = bf.MaterialParams()
tau1 = bf.solve_tau1(p)
bf.domain_from(p, 0.8 * tau1, tau1)
print(repr(time.perf_counter() - t0))
"""
SETUP_REF_CODE = """
import time
t0 = time.perf_counter()
import numpy as np
x = np.linspace(-1.0, 1.0, 15)
acc = 0.0
for i in range(1200):
    z = np.sqrt(x * x + 1e-3 * i) / 0.03
    acc += float(np.tanh(np.minimum(z, 30.0)) @ x)
print(repr(time.perf_counter() - t0))
"""


class Calibration:
    """Calibration slices taken during a run, and the speed scale they give at any moment."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._x = np.linspace(-1.0, 1.0, 15)
        self._begin = time.perf_counter()
        self._spent = 0.0

    def slice(self) -> None:
        x = self._x
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(CAL_ITERS):
            z = np.sqrt(x * x + 1e-3 * i) / 0.03
            zc = np.minimum(z, 30.0)
            w = np.where(z < 30.0, np.sinh(zc) / (np.cosh(zc) + 1.0), 1.0 - np.exp(-z))
            acc += float(w @ x)
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)
        self._spent += self.took[-1]

    def maybe(self) -> None:
        """Take slices until they have used CAL_DUTY of the time since the first one."""
        while self._spent < CAL_DUTY * (time.perf_counter() - self._begin):
            self.slice()

    def finish(self) -> None:
        """Slices after the last operation, as many as the duty cycle asks for."""
        self.maybe()
        self.slice()

    def scale(self, t0: float, t1: float) -> float:
        """CAL_NOMINAL_S over the median of the slices next to the interval [t0, t1]."""
        span = max(CAL_SPAN_S, t1 - t0)
        lo = bisect.bisect_left(self.at, t0 - span)
        hi = bisect.bisect_right(self.at, t1 + span)
        if hi - lo < 2:  # at least the slices just before and just after
            lo, hi = max(0, bisect.bisect_left(self.at, t0) - 1), bisect.bisect_right(self.at, t1) + 1
        return CAL_NOMINAL_S / statistics.median(self.took[lo:hi])


def _child_seconds(code: str) -> float:
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup() -> tuple[float, float]:
    """Import bcsfield, solve tau1 and build the box in fresh interpreters, paired.

    Returns setup_s and the unscaled median of the set-up interpreters' own seconds.
    """
    code = SETUP_CODE.format(src=str(SRC))
    pairs = [(_child_seconds(code), _child_seconds(SETUP_REF_CODE)) for _ in range(SETUP_REPEATS)]
    return (SETUP_REF_NOMINAL_S * statistics.median(own / ref for own, ref in pairs),
            statistics.median(own for own, _ in pairs))


def invoke(main, argv: list[str]):
    """Run one CLI invocation, capturing its output; returns (rc, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(argv)
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def run_rounds(workload, main, tag: str, workdir: Path, cal: Calibration,
               seconds: float | None = None, rounds: int | None = None):
    """Closed loop over whole rounds: until `seconds` have passed, or for `rounds` rounds."""
    ops, outs = [], []
    deadline = time.perf_counter() + (seconds or 0.0)
    k = 0
    while (k < rounds) if rounds is not None else (time.perf_counter() < deadline):
        for j, op in enumerate(workload.round(k)):
            prefix = workdir / f"{tag}{k}-{j}" if op.writes else None
            argv = (["-o", str(prefix)] if prefix else []) + op.args
            cal.maybe()
            started = time.perf_counter()
            rc, dt, stdout, stderr = invoke(main, argv)
            ops.append(op)
            outs.append(Outcome(rc, dt, stdout, stderr, prefix, started))
        k += 1
    cal.finish()
    return ops, outs, k


def scaled_seconds(outs, cal: Calibration) -> list[float]:
    return [o.seconds * cal.scale(o.started, o.started + o.seconds) for o in outs]


def points_per_s(ops, outs, cal: Calibration) -> float:
    return sum(op.points for op in ops) / sum(scaled_seconds(outs, cal))


def raw_figures(ops, outs) -> tuple[float, float]:
    """points_per_s and call_p50_ms in the machine's own seconds, not calibrated."""
    return (sum(op.points for op in ops) / sum(o.seconds for o in outs),
            1e3 * statistics.median(o.seconds for o in outs))


def score(workload, ops, outs, ck):
    """Check every outcome; returns (attempted, failed, correct, problems)."""
    problems = workload.check(ops, outs, ck)
    failed = 0
    correct = True
    report = []
    for op, bad in zip(ops, problems):
        if bad:
            failed += 1
            if op.fault is None:
                correct = False
                report.append(f"{op.args}: {bad[:3]}")
    return len(ops), failed, correct, report


def determinism(main, first_op, first_out, workdir: Path) -> list[str]:
    """Rerun the first op with the same inputs; its CSV must be byte-identical."""
    if not first_op.writes:
        return []
    before = first_out.csv_bytes()
    prefix = workdir / "rerun"
    rc, dt, stdout, stderr = invoke(main, ["-o", str(prefix)] + first_op.args)
    after = Outcome(rc, dt, stdout, stderr, prefix).csv_bytes()
    if rc != 0 or after != before:
        return [f"rerun of {first_op.args} is not byte-identical"]
    return []


def same_results(outs_a, outs_b) -> list[str]:
    """Traced and untraced runs of the same rounds must give the same results."""
    def key(o):
        res = json.loads(o.stdout) if o.stdout else None
        if isinstance(res, dict):
            res.pop("files", None)
        return (o.rc, res, o.csv_bytes() if o.prefix else None)

    diff = sum(key(a) != key(b) for a, b in zip(outs_a, outs_b))
    return [f"{diff} traced results differ from untraced"] if diff else []


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, raw_setup_s = measure_setup()
    from bcsfield import cli

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](seed, workdir)
        ck = Checks()
        cal = Calibration()
        if not trace:
            ops, outs, _ = run_rounds(workload, cli.main, "r", workdir, cal, seconds=seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted, failed, correct, report = score(workload, ops, outs, ck)
            report += determinism(cli.main, ops[0], outs[0], workdir)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "points_per_s": metric(points_per_s(ops, outs, cal), "1/s"),
                "call_p50_ms": metric(1e3 * statistics.median(scaled_seconds(outs, cal)), "ms"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }
            raw_pps, raw_p50 = raw_figures(ops, outs)
            print(f"{name}: unscaled points_per_s {raw_pps:.6g}, call_p50_ms {raw_p50:.6g}, "
                  f"setup {raw_setup_s:.6g} s; "
                  f"calibration slice median {1e3 * statistics.median(cal.took):.4g} ms")
        else:
            # A fixed number of rounds (about seconds / 2 at nominal speed), so
            # that per-layer counts repeat exactly for a given seed.
            k = max(1, round(seconds / 2 / workload.ROUND_S))
            ops, outs, _ = run_rounds(workload, cli.main, "u", workdir, cal, rounds=k)
            with Tracer() as tracer:
                main = tracer.wrap("cli.main", cli.main)
                t_ops, t_outs, _ = run_rounds(workload, main, "t", workdir, cal, rounds=k)
            tracer.save(OUT / f"trace-{name}-seed{seed}.npz")
            # The traced rounds are checked by equality with the untraced ones.
            attempted, failed, correct, report = score(workload, ops, outs, ck)
            attempted, failed = 2 * attempted, 2 * failed
            report += same_results(outs, t_outs)
            report += determinism(cli.main, ops[0], outs[0], workdir)
            metrics = layer_metrics(tracer, t_ops, t_outs, cal, ck)
            untraced, traced = points_per_s(ops, outs, cal), points_per_s(t_ops, t_outs, cal)
            metrics["trace.untraced_points_per_s"] = metric(untraced, "1/s")
            metrics["trace.traced_points_per_s"] = metric(traced, "1/s")
            metrics["trace.overhead_pct"] = metric(100.0 * (1.0 - traced / untraced), "%")
            # The untraced rounds and the set-up in the machine's own seconds,
            # to check a calibrated gain against.
            raw_pps, raw_p50 = raw_figures(ops, outs)
            metrics["raw.points_per_s"] = metric(raw_pps, "1/s")
            metrics["raw.call_p50_ms"] = metric(raw_p50, "ms")
            metrics["raw.setup_s"] = metric(raw_setup_s, "s")
        if report:
            correct = False
            for line in report[:20]:
                print(f"{name}: {line}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(tracer, ops, outs, cal: Calibration, ck) -> dict:
    # Each span is scaled like the invocation it belongs to.
    starts = np.array([o.started for o in outs])
    factors = np.array(scaled_seconds(outs, cal)) / np.array([o.seconds for o in outs])
    layers = tracer.layers(
        lambda start_ns: factors[np.maximum(np.searchsorted(starts, start_ns * 1e-9, "right") - 1, 0)])
    counters = tracer.counters
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations_s": [0.0]}

    def get(span):
        return layers.get(span, empty)

    points = sum(op.points for op in ops)
    integrand_spans = [s for s in layers if s.endswith(".integrand")]
    panels = sum(layers[s]["calls"] for s in integrand_spans)
    nodes = sum(v for c, v in counters.items() if c.endswith(".integrand.nodes"))
    find_root = get("numerics.find_root")
    kernel_nodes = counters["kernel.integrand.nodes"]
    m = {
        "numerics.integrate.calls": metric(get("numerics.integrate")["calls"], "count"),
        "numerics.integrate.panels": metric(panels, "count"),
        "numerics.integrate.nodes": metric(nodes, "count"),
        "numerics.integrate.self_s": metric(get("numerics.integrate")["self_s"], "s"),
        "numerics.find_root.calls": metric(find_root["calls"], "count"),
        "numerics.find_root.g_evals_per_root": metric(
            counters["numerics.find_root.g_evals"] / max(1, find_root["calls"]), "evals/root"),
        "numerics.find_root.self_s": metric(find_root["self_s"], "s"),
        "kernel.F_eval.calls": metric(get("kernel.F_eval")["calls"], "count"),
        "kernel.F_eval.busy_s": metric(get("kernel.F_eval")["busy_s"], "s"),
        "kernel.F_partials.calls": metric(get("kernel.F_partials")["calls"], "count"),
        "kernel.F_partials.busy_s": metric(get("kernel.F_partials")["busy_s"], "s"),
        "kernel.integrand.busy_s": metric(get("kernel.integrand")["busy_s"], "s"),
        "kernel.integrand.ns_per_node": metric(
            1e9 * get("kernel.integrand")["busy_s"] / max(1, kernel_nodes), "ns"),
        "params.domain_from.calls": metric(get("params.domain_from")["calls"], "count"),
        "params.domain_from.busy_s": metric(get("params.domain_from")["busy_s"], "s"),
        "solvers.solve_tau1.calls": metric(get("solvers.solve_tau1")["calls"], "count"),
        "solvers.solve_tau1.busy_s": metric(get("solvers.solve_tau1")["busy_s"], "s"),
        "solvers.solve_hc.calls": metric(get("solvers.solve_hc")["calls"], "count"),
        "solvers.solve_hc.busy_s": metric(get("solvers.solve_hc")["busy_s"], "s"),
        "solvers.solve_hc.calls_per_point": metric(
            get("solvers.solve_hc")["calls"] / points, "calls/point"),
        "solvers.solve_gap_squared.calls": metric(get("solvers.solve_gap_squared")["calls"], "count"),
        "solvers.solve_gap_squared.busy_s": metric(get("solvers.solve_gap_squared")["busy_s"], "s"),
        "solvers.solve_gap_squared.boundary_exits": metric(
            counters["solvers.solve_gap_squared.boundary_exits"], "count"),
        "solvers.implicit_partials.calls": metric(get("solvers.implicit_partials")["calls"], "count"),
        "solvers.implicit_partials.busy_s": metric(get("solvers.implicit_partials")["busy_s"], "s"),
        "solvers.max_ref_residual": metric(ck.max_ref_residual, "1"),
        "thermo.grand_potential.calls": metric(get("thermo.grand_potential")["calls"], "count"),
        "thermo.grand_potential.busy_s": metric(get("thermo.grand_potential")["busy_s"], "s"),
        "thermo.integrand.busy_s": metric(get("thermo.integrand")["busy_s"], "s"),
        "thermo.max_omega_dev": metric(ck.max_omega_dev, "1"),
        "thermo.psi.calls": metric(get("thermo.psi")["calls"], "count"),
        "thermo.psi.busy_s": metric(get("thermo.psi")["busy_s"], "s"),
        "thermo.entropy_gap.busy_s": metric(get("thermo.entropy_gap")["busy_s"], "s"),
        "thermo.entropy_gap_fd.busy_s": metric(get("thermo.entropy_gap_fd")["busy_s"], "s"),
        "thermo.entropy_rel_dev": metric(ck.entropy_rel_dev, "1"),
        "phase_diagram.run_sweep.self_s": metric(get("phase_diagram.run_sweep")["self_s"], "s"),
        "phase_diagram.write_csv.busy_s": metric(get("phase_diagram.write_csv")["busy_s"], "s"),
        "phase_diagram.write_csv.bytes": metric(counters["phase_diagram.write_csv.bytes"], "bytes"),
        "cli.main.calls": metric(get("cli.main")["calls"], "count"),
        "cli.main.self_s": metric(get("cli.main")["self_s"], "s"),
        "cli.main.p90_ms": metric(1e3 * float(np.percentile(get("cli.main")["durations_s"], 90)), "ms"),
    }
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bcsfield" / "__init__.py").is_file():
        print(f"bench: no bcsfield sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own, so that each peak_rss_mb is its own."""
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if done.returncode != 0:
            return done.returncode
        *lines, result = done.stdout.strip().splitlines()
        for line in lines:
            print(line)
        print(json.dumps({"workload": name, **json.loads(result)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
