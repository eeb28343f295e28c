"""Smoke tests of the benchmark itself: ``python3 -m pytest bench -q`` from the repo root.

Each workload runs one small round and must pass its checks; each check must
reject a deliberately corrupted result; the reference must match closed forms
and converge; the tracer must record spans and leave the package as it found it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from reference import Dos, Material, F_ref, omega_ref, tau1_ref  # noqa: E402
from spans import Tracer  # noqa: E402

from bcsfield import cli  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")  # DomainWarning of cold queries


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(W.PhaseSweep, "N", 3)
    monkeypatch.setattr(W.EntropyCurve, "N", 2)


def one_round(name, tmp_path, seed=7):
    workload = W.WORKLOADS[name](seed, tmp_path)
    ops, outs, _ = run.run_rounds(workload, cli.main, "r", tmp_path, run.Calibration(), rounds=1)
    return workload, ops, outs


def problems(workload, ops, outs):
    return workload.check(ops, outs, W.Checks())


def rewrite(out, short, edit):
    """Apply edit(rows) to one CSV table of an outcome, keeping the 17-digit format."""
    path = out.prefix.parent / f"{out.prefix.name}_{short}.csv"
    rows = list(csv.reader(io.StringIO(path.read_text())))
    body = edit(rows[1:])
    buf = io.StringIO()
    csv.writer(buf).writerows([rows[0], *body])
    path.write_text(buf.getvalue())


def fmt(x):
    return format(x, ".17g")


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_one_round_passes(name, tmp_path, small):
    workload, ops, outs = one_round(name, tmp_path)
    found = problems(workload, ops, outs)
    for op, bad in zip(ops, found):
        assert bool(bad) == (op.fault is not None), (op.args, bad)
    assert run.determinism(cli.main, ops[0], outs[0], tmp_path) == []


def test_known_faults_are_the_malformed_queries(tmp_path):
    workload, ops, outs = one_round("point_queries", tmp_path)
    failed = [op.args[1:] for op, bad in zip(ops, problems(workload, ops, outs)) if bad]
    assert failed == [["gap", "--T", "0.03", "--H", "nan"], ["gap", "--T", "inf", "--H", "0.01"]]


def test_rounds_depend_only_on_seed(tmp_path):
    for name, cls in W.WORKLOADS.items():
        a, b, c = cls(3, tmp_path), cls(3, tmp_path), cls(4, tmp_path)
        assert [op.args for op in a.round(2)] == [op.args for op in b.round(2)]
        assert [op.args for op in a.round(0)] != [op.args for op in c.round(0)]


def test_gap_scaled_by_one_ppm_is_rejected(tmp_path, small):
    workload, ops, outs = one_round("phase_sweep", tmp_path)

    def scale(rows):
        for r in rows:
            if r[4] == "S":
                y = float(r[2]) * (1 + 1e-6)
                r[2], r[3] = fmt(y), fmt(math.sqrt(y))
        return rows

    rewrite(outs[0], "gap", scale)
    found = problems(workload, ops, outs)
    assert any("is no root" in msg for msg in found[0]), found[0]
    assert found[1] == []


def test_point_query_gap_scaled_by_one_ppm_is_rejected(tmp_path):
    workload, ops, outs = one_round("point_queries", tmp_path)
    i = next(i for i, op in enumerate(ops) if op.info.get("cold"))
    res = outs[i].json()
    res["Y"] *= 1 + 1e-6
    res["delta"] = math.sqrt(res["Y"])
    outs[i].stdout = json.dumps(res)
    assert any("is no root" in msg for msg in problems(workload, ops, outs)[i])


def test_flipped_psi_sign_is_rejected(tmp_path, small):
    workload, ops, outs = one_round("phase_sweep", tmp_path)

    def flip(rows):
        for r in rows:
            r[4] = fmt(-float(r[4]))
        return rows

    rewrite(outs[0], "psi", flip)
    assert any("psi > 0" in msg for msg in problems(workload, ops, outs)[0])


def test_non_monotone_critical_field_is_rejected(tmp_path, small):
    workload, ops, outs = one_round("entropy_curve", tmp_path)

    def swap(rows):
        rows[0][1], rows[1][1] = rows[1][1], rows[0][1]
        return rows

    rewrite(outs[0], "entropy", swap)
    assert any("H_c increases" in msg for msg in problems(workload, ops, outs)[0])


def test_changed_csv_byte_is_rejected(tmp_path, small):
    workload, ops, outs = one_round("phase_sweep", tmp_path)
    path = outs[0].prefix.parent / f"{outs[0].prefix.name}_gap.csv"
    data = bytearray(path.read_bytes())
    i = data.rindex(b",") - 1  # last digit of the last row's delta
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    assert run.determinism(cli.main, ops[0], outs[0], tmp_path)


def test_entropy_sign_is_checked(tmp_path, small):
    workload, ops, outs = one_round("entropy_curve", tmp_path)
    i = next(i for i, op in enumerate(ops) if op.info["dos"].kind == "linear")

    def flip(rows):
        for r in rows:
            r[2], r[3] = fmt(-float(r[2])), fmt(-float(r[3]))
        return rows

    rewrite(outs[i], "entropy", flip)
    assert any("not negative" in msg for msg in problems(workload, ops, outs)[i])


def test_reference_matches_zero_temperature_closed_forms():
    m = Material()
    for Y in (1e-4, 5e-3, 0.04):
        # T -> 0, H = 0: F = 2 asinh(w / sqrt(Y)) - 1/U1 and, for D = 1,
        # Omega_S = -w sqrt(w^2 + Y), Omega_N = -w^2 - pi^2 T^2 / 3.
        F = F_ref([(1e-5, 0.0, Y, m)])[0]
        assert F == pytest.approx(2 * math.asinh(1 / math.sqrt(Y)) - 1 / m.U1, abs=1e-12)
        om = omega_ref([(1e-5, 0.0, Y), (1e-5, 0.0, 0.0)], m, Dos("constant"))
        assert om[0] == pytest.approx(-math.sqrt(1 + Y), abs=1e-12)
        assert om[1] == pytest.approx(-1.0 - math.pi**2 * 1e-10 / 3, abs=1e-14)


def test_reference_gap_at_zero_temperature():
    m = Material(U1=0.2)
    y0 = m.zero_T_gap() ** 2
    assert abs(F_ref([(1e-5, 0.0, y0, m)])[0]) < 1e-12
    tau1 = tau1_ref(m)
    assert abs(F_ref([(tau1, 0.0, 0.0, m)])[0]) < 1e-12


def test_reference_refuses_a_mesh_that_does_not_converge(monkeypatch):
    import reference

    monkeypatch.setattr(reference, "_BASE", (reference._BASE[0], 0.5, 1e4))  # no grading
    with pytest.raises(reference.ReferenceError):
        F_ref([(1e-4, 0.05, 0.0, Material())])


def test_tracer_records_layers_and_restores_the_package(tmp_path, small):
    from bcsfield import kernel, solvers, thermo

    before = (solvers.F_eval, thermo.psi, kernel.F_eval, thermo.integrate)
    workload = W.WORKLOADS["entropy_curve"](7, tmp_path)
    with Tracer() as tracer:
        main = tracer.wrap("cli.main", cli.main)
        run.run_rounds(workload, main, "t", tmp_path, run.Calibration(), rounds=1)
    assert (solvers.F_eval, thermo.psi, kernel.F_eval, thermo.integrate) == before
    layers = tracer.layers()
    assert layers["cli.main"]["calls"] == len(W.EntropyCurve.KINDS)
    assert layers["solvers.solve_hc"]["calls"] == 3 * W.EntropyCurve.N * len(W.EntropyCurve.KINDS)
    for span in ("kernel.F_partials", "thermo.psi", "thermo.entropy_gap_fd", "params.domain_from"):
        assert layers[span]["calls"] > 0, span
    assert tracer.counters["kernel.integrand.nodes"] == 15 * layers["kernel.integrand"]["calls"]
    main_span = layers["cli.main"]
    assert 0 < main_span["self_s"] < main_span["busy_s"]
    tracer.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert saved["name"].size == sum(v["calls"] for v in layers.values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "phase_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
