import csv
import json
import math

import pytest

from bcsfield import kernel
from bcsfield.cli import main
from bcsfield.solvers import TAU1_WEAK_COUPLING, DomainWarning


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    fields = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        fields[key] = value
    return fields


# -------------------------------------------------------------------- tc


def test_tc_with_params_file(capsys, tmp_path):
    cfg = tmp_path / "mat.toml"
    cfg.write_text("hbar_omega_D = 1.0\nU1 = 0.15\n")
    code, out, _ = run(capsys, "--params", str(cfg), "tc")
    assert code == 0
    fields = parse_kv(out)
    assert float(fields["tau1"]) == pytest.approx(0.0405, rel=0.02)
    assert abs(float(fields["deviation_pct"])) < 2.0


def test_coupling_outside_double_range_exits_1(capsys):
    code, out, err = run(capsys, "--set", "U1=5e-4", "tc")
    assert code == 1 and out == ""
    assert "U1" in err and "T must be > 0" not in err


@pytest.mark.parametrize("U1", ["0.002", "0.005", "0.01", "0.015", "0.0185"])
def test_tc_at_weak_coupling_is_the_seed(capsys, U1):
    # tau1 from 3e-109 to 2e-12 hbar_omega_D: F at the weak-coupling seed is
    # resolved down to the scale pi tau1, and the seed is the root.
    code, out, _ = run(capsys, "--json", "--set", f"U1={U1}", "tc")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau1"] == TAU1_WEAK_COUPLING * math.exp(-0.5 / float(U1))
    assert payload["deviation_pct"] == pytest.approx(-0.01182, abs=1e-5)


@pytest.mark.parametrize("U1", ["7.06e-4", "7.5e-4", "0.001", "0.00135", "0.0015"])
def test_tc_at_the_weakest_couplings_is_the_seed(capsys, U1):
    # tau1 from 3e-308 to 2e-145 hbar_omega_D, down to the MaterialParams
    # floor: near xi = -s the square of eta underflows, and J must still
    # see E = |eta| rather than 0.
    code, out, _ = run(capsys, "--json", "--set", f"U1={U1}", "tc")
    assert code == 0
    assert json.loads(out)["tau1"] == TAU1_WEAK_COUPLING * math.exp(-0.5 / float(U1))


def test_tc_json_mode(capsys):
    code, out, _ = run(capsys, "--json", "tc")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"tau1", "weak_coupling_ref", "deviation_pct"}


def test_tc_override_respected(capsys):
    _, out_base, _ = run(capsys, "tc")
    _, out_set, _ = run(capsys, "--set", "U1=0.2", "tc")
    assert float(parse_kv(out_set)["tau1"]) > float(parse_kv(out_base)["tau1"])


def test_missing_params_file_exits_1(capsys):
    code, _, err = run(capsys, "--params", "/nonexistent/mat.toml", "tc")
    assert code == 1
    assert "usage" in err


def test_unknown_override_exits_1(capsys):
    code, _, err = run(capsys, "--set", "lambda=3", "tc")
    assert code == 1
    assert "unknown parameter" in err


def test_tolerance_below_double_precision_exits_1(capsys):
    code, out, err = run(capsys, "--abs-tol", "1e-20", "--rel-tol", "1e-20", "tc")
    assert code == 1 and out == ""
    assert "config error" in err and "rel_tol" in err


@pytest.mark.parametrize("flag, value, field", [
    ("--abs-tol", "nan", "abs_tol"),
    ("--rel-tol", "inf", "rel_tol"),
    ("--x-tol", "inf", "x_tol"),
    ("--f-tol", "nan", "f_tol"),
])
def test_non_finite_tolerance_exits_1(capsys, flag, value, field):
    code, out, err = run(capsys, flag, value, "tc")
    assert code == 1 and out == ""
    assert "config error" in err and f"{field} must be finite" in err


def test_bad_usage_exits_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


# ------------------------------------------------ one parser per process


def test_set_does_not_carry_over_to_the_next_call(capsys):
    _, base, _ = run(capsys, "--json", "tc")
    _, stronger, _ = run(capsys, "--json", "--set", "U1=0.2", "tc")
    code, again, _ = run(capsys, "--json", "tc")
    assert code == 0 and again == base != stronger


def test_usage_error_leaves_the_parser_usable(capsys):
    code, _, err = run(capsys, "gap", "--T", "0.9tau1")
    assert code == 1 and "--H" in err
    code, out, _ = run(capsys, "gap", "--T", "0.9tau1", "--H", "0.01")
    assert code == 0 and parse_kv(out)["state"] == "S"


def test_repeated_help_is_the_same(capsys):
    first_help = run(capsys, "--help")
    assert first_help[0] == 0 and "usage: bcsfield" in first_help[1]
    assert run(capsys, "--help") == first_help


def test_repeated_json_gap_is_byte_identical(capsys):
    first_gap = run(capsys, "--json", "gap", "--T", "0.9tau1", "--H", "0.01")
    assert first_gap[0] == 0
    assert run(capsys, "--json", "gap", "--T", "0.9tau1", "--H", "0.01") == first_gap


# ------------------------------------------------------------------- gap


def test_gap_at_transition_is_normal_boundary(capsys):
    code, out, _ = run(capsys, "gap", "--T", "1.0tau1", "--H", "0")
    assert code == 0
    fields = parse_kv(out)
    assert float(fields["delta"]) == 0.0
    assert fields["state"] == "N"
    assert fields["boundary"] == "True"


def test_gap_midway_is_superconducting(capsys):
    code, out, _ = run(capsys, "--T0", "0.5tau1", "gap", "--T", "0.85tau1", "--H", "0")
    assert code == 0
    fields = parse_kv(out)
    assert fields["state"] == "S"
    assert float(fields["delta"]) > 0.0


def test_gap_above_critical_field_is_normal(capsys):
    code, out, _ = run(capsys, "gap", "--T", "0.9tau1", "--H", "0.039")
    assert code == 0
    assert parse_kv(out)["state"] == "N"


@pytest.mark.parametrize("T", ["1e-200", "1e-160"])
def test_gap_far_below_the_box_is_the_zero_temperature_gap(capsys, T):
    # (pi T)^2 underflows here, and Y0 / (pi T)^2 overflows: the root
    # variable's scale is clamped to Y0 2^-60.
    with pytest.warns(DomainWarning, match="T0"):
        code, out, _ = run(capsys, "--json", "gap", "--T", T, "--H", "0")
    assert code == 0
    res = json.loads(out)
    assert res["state"] == "S" and not res["boundary"]
    assert res["Y"] == pytest.approx(1.0 / math.sinh(0.5 / 0.15) ** 2, rel=1e-9)


def test_gap_far_above_tau1_is_normal(capsys):
    # (pi T)^2 overflows here: the root variable's scale is clamped to Y0 2^60.
    code, out, _ = run(capsys, "--json", "gap", "--T", "1e200", "--H", "0")
    assert code == 0
    res = json.loads(out)
    assert res["state"] == "N" and res["boundary"] and res["Y"] == 0.0


@pytest.fixture()
def quadratures(monkeypatch):
    """The number of batched quadratures of F the kernel runs."""
    count = [0]
    integrate = kernel._integrate_many

    def counted(*args):
        count[0] += 1
        return integrate(*args)

    monkeypatch.setattr(kernel, "_integrate_many", counted)
    return count


@pytest.mark.parametrize("argv, expected", [
    # tau1 from its closed-form seed, confirmed by one F.
    (["tc"], 1),
    (["--set", "U1=0.25", "tc"], 1),
    # tau1, then both ends of the gap bracket in one F: a normal state.
    (["gap", "--T", "0.9tau1", "--H", "0.039"], 2),
    # Cold zero-field roots: 6 and 8 F, where a root taken in Y took 10.
    (["--set", "U1=0.19", "gap", "--T", "1e-4", "--H", "0"], 6),
    (["--set", "U1=0.13", "gap", "--T", "0.001", "--H", "0"], 8),
])
@pytest.mark.filterwarnings("ignore::bcsfield.solvers.DomainWarning")
def test_point_query_quadratures(capsys, quadratures, argv, expected):
    assert run(capsys, "--json", *argv)[0] == 0
    assert quadratures[0] == expected


def test_gap_warns_outside_guarantee_zone(capsys):
    # mu_B H / T = 0.046 / (0.82 * 0.04045) ~ 1.39 > 1.24
    with pytest.warns(Warning, match="guarantee"):
        code, out, _ = run(capsys, "gap", "--T", "0.82tau1", "--H", "0.046")
    assert code == 0


# -------------------------------------------------------------------- hc


def test_hc_numerical_failure_exits_2(capsys, tmp_path):
    # At T0 = 0.5 tau1 the critical field exceeds the domain cap for the
    # default constants, a genuine numerical failure: exit code 2.
    code, _, err = run(
        capsys, "-o", str(tmp_path / "x"), "--T0", "0.5tau1", "hc", "-n", "3",
    )
    assert code == 2
    assert "raise T0" in err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_hc_two_points_are_the_box_endpoints(capsys, tmp_path):
    code, out, _ = run(capsys, "-o", str(tmp_path / "run"), "hc", "-n", "2")
    assert code == 0
    tau1 = float(parse_kv(out)["tau1"])
    rows = read_csv(tmp_path / "run_hc.csv")[1:]
    assert [float(t) for t, _ in rows] == [0.8 * tau1, tau1]


def test_hc_curve_is_nonincreasing_and_vanishes_at_tau1(capsys, tmp_path):
    code, out, _ = run(capsys, "-o", str(tmp_path / "run"), "hc", "-n", "12")
    assert code == 0
    rows = read_csv(tmp_path / "run_hc.csv")[1:]
    temps = [float(t) for t, _ in rows]
    fields = [float(h) for _, h in rows]
    assert temps == sorted(temps) and len(set(temps)) == len(temps)
    assert fields[-1] == 0.0
    assert all(b <= a for a, b in zip(fields, fields[1:]))
    assert float(parse_kv(out)["hc_at_T0"]) == fields[0]
    assert float(parse_kv(out)["slope_at_tau1"]) < 0


def test_hc_needs_two_points(capsys, tmp_path):
    code, _, err = run(capsys, "-o", str(tmp_path / "run"), "hc", "-n", "1")
    assert code == 1
    assert "n >= 2" in err


@pytest.mark.parametrize("n", [2, 50])
def test_hc_csv_equals_hc_curve_sweep(capsys, tmp_path, n):
    code, _, _ = run(capsys, "-o", str(tmp_path / "hc"), "hc", "-n", str(n))
    assert code == 0
    code, _, _ = run(capsys, "-o", str(tmp_path / "sweep"), "sweep",
                     "--T-grid", f"0.8tau1:1tau1:{n}", "--outputs", "hc_curve")
    assert code == 0
    assert (tmp_path / "hc_hc.csv").read_bytes() == (tmp_path / "sweep_hc.csv").read_bytes()


def test_hc_writes_csv(capsys, tmp_path):
    prefix = tmp_path / "run"
    code, out, _ = run(capsys, "-o", str(prefix), "hc", "-n", "50")
    assert code == 0
    fields = parse_kv(out)
    assert float(fields["slope_at_tau1"]) < 0
    with open(tmp_path / "run_hc.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "H_c"]
    assert len(rows) == 51
    assert float(rows[-1][1]) == 0.0  # H_c(tau1)


# --------------------------------------------------------------- entropy


def test_entropy_linear_negative_both_methods(capsys):
    code, out, _ = run(capsys, "entropy", "--T", "0.8tau1", "--dos", "linear:0.5")
    assert code == 0
    fields = parse_kv(out)
    assert float(fields["dS_formula"]) < 0.0
    assert float(fields["dS_fd"]) < 0.0


def test_entropy_fd_keeps_its_sign_at_weak_coupling(capsys):
    # psi at the probes is about 1e-16 here; taken as a difference of two
    # grand potentials of size 0.67 it once gave dS_fd = +4.79e-9.
    code, out, _ = run(capsys, "--json", "--set", "U1=0.05", "entropy", "--T", "0.9tau1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dS_formula"] < 0.0 and payload["dS_fd"] < 0.0
    assert payload["dS_fd"] == pytest.approx(payload["dS_formula"], rel=0.05)


def test_entropy_fails_where_rounding_takes_the_sliver_width(capsys):
    # At U1 = 0.01, 2 mu_B H_c = 2.8e-22 is below the spacing of the doubles
    # near -+hbar_omega_D = -+1: the rounded sliver bounds had width 0, and
    # dS_formula read exactly 0.0.
    code, _, err = run(capsys, "--set", "U1=0.01", "entropy", "--T", "0.9tau1")
    assert code == 2
    assert "2 mu_B H_c = 2.836" in err and "hbar_omega_D = 1.0" in err


def test_entropy_at_tau1_at_weak_coupling(capsys):
    # F_H(tau1, 0, 0) is exactly 0, which no tolerance relative to it could
    # certify: this exited 2 after 42404 panels at depth 33.
    code, out, _ = run(capsys, "--json", "--set", "U1=0.04", "entropy", "--T", "1tau1")
    assert code == 0
    assert json.loads(out)["H_c"] == 0.0


def test_entropy_constant_dos_vanishes(capsys):
    code, out, _ = run(capsys, "entropy", "--T", "0.9tau1", "--dos", "constant")
    assert code == 0
    fields = parse_kv(out)
    assert abs(float(fields["dS_formula"])) <= 1e-12
    assert abs(float(fields["dS_fd"])) <= 1e-5


def test_entropy_table_dos(capsys, tmp_path):
    table = tmp_path / "dos.txt"
    table.write_text("8.0 0.8\n12.0 1.2\n")
    code, out, _ = run(capsys, "entropy", "--T", "0.85tau1", "--dos", f"table:{table}")
    assert code == 0
    assert float(parse_kv(out)["dS_formula"]) < 0.0


def test_entropy_sqrt_dos(capsys):
    code, out, _ = run(capsys, "entropy", "--T", "0.9tau1", "--dos", "sqrt")
    assert code == 0
    assert float(parse_kv(out)["dS_formula"]) < 0.0


def test_entropy_bad_dos_spec(capsys):
    code, _, err = run(capsys, "entropy", "--T", "0.9tau1", "--dos", "gaussian")
    assert code == 1
    assert "unknown DOS" in err


# ----------------------------------------------------------------- sweep


def test_sweep_writes_files_and_is_deterministic(capsys, tmp_path):
    args = (
        "sweep", "--T-grid", "0.85tau1:1tau1:3", "--H-grid", "auto",
        "--outputs", "hc_curve,gap_surface",
    )
    code1, out1, _ = run(capsys, "-o", str(tmp_path / "s1"), *args)
    code2, out2, _ = run(capsys, "-o", str(tmp_path / "s2"), *args)
    assert code1 == code2 == 0
    for name in ("hc", "gap"):
        a = (tmp_path / f"s1_{name}.csv").read_bytes()
        b = (tmp_path / f"s2_{name}.csv").read_bytes()
        assert a == b


def test_failed_sweep_reports_the_first_failure(capsys, tmp_path):
    code, _, err = run(
        capsys, "-o", str(tmp_path / "x"), "--T0", "0.5tau1",
        "sweep", "--T-grid", "0.5tau1:1tau1:3", "--outputs", "hc_curve",
    )
    assert code == 2
    assert "2/3 grid points failed" in err
    assert "raise T0" in err


def test_sweep_bad_grid_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "-o", str(tmp_path / "x"), "sweep", "--T-grid", "0.9tau1:0.8tau1:3",
    )
    assert code == 1


# ----------------------------------------------------------------- check


def test_check_passes_with_defaults(capsys):
    code, out, _ = run(capsys, "check", "--samples", "8")
    assert code == 0
    assert "hard failures: 0" in out
    assert "[PASS" in out


def test_check_reports_property_strings(capsys):
    code, out, _ = run(capsys, "check", "--samples", "4")
    assert code == 0
    assert "dF/dY < 0" in out
    assert "H_c nonincreasing" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "--json", "check", "--samples", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["hard_failures"] == 0
    assert all({"name", "property", "hard", "passed"} <= set(c) for c in payload["checks"])


def test_check_low_T0_surfaces_bracket_failure(capsys):
    code, out, _ = run(capsys, "--T0", "0.5tau1", "check", "--samples", "4")
    assert code == 3
    assert "FAIL" in out and "raise T0" in out


def test_check_solves_the_mid_critical_field_once(capsys, monkeypatch):
    # The entropy checks reuse the H_c(mid_T) of gap-hc-consistency.
    import bcsfield.thermo

    def no_solve(*args, **kwargs):
        raise AssertionError("thermo solved H_c again")

    monkeypatch.setattr(bcsfield.thermo, "solve_hc_many", no_solve)
    code, out, _ = run(capsys, "--json", "check", "--samples", "4")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["entropy-gap-cross-check"]["passed"]


def test_check_work_does_not_grow_with_samples(capsys, integrand_calls):
    # Each check is one batched call, so the box states share its levels;
    # one psi_many serves the gap checks and psi-negative.
    def calls(samples):
        integrand_calls[0] = 0
        assert run(capsys, "--json", "check", "--samples", str(samples))[0] == 0
        return integrand_calls[0]

    few, many = calls(4), calls(40)
    assert few == many <= 37


def test_check_rejects_negative_samples(capsys):
    code, out, err = run(capsys, "check", "--samples", "-1")
    assert code == 1 and out == ""
    assert "--samples" in err


@pytest.mark.parametrize("T, H, name", [("0.03", "nan", "H"), ("inf", "0.01", "T")])
def test_gap_non_finite_input_exits_1(capsys, T, H, name):
    code, out, err = run(capsys, "gap", "--T", T, "--H", H)
    assert code == 1 and out == ""
    assert f"{name} must be finite" in err


def test_sweep_entropy_matches_entropy_command(capsys, tmp_path):
    # The sweep reuses its H_c row and computes dS_fd at the finite
    # difference's own tolerance, exactly as `bcsfield entropy` does.
    table = tmp_path / "dos.txt"
    eps = [8.0 + 4.0 * k / 6 for k in range(7)]
    table.write_text("".join(f"{e!r} {0.6 + 0.1 * k!r}\n" for k, e in enumerate(eps)))
    dos = f"table:{table}"
    code, out, _ = run(capsys, "entropy", "--T", "0.85tau1", "--dos", dos)
    assert code == 0
    single = parse_kv(out)
    prefix = tmp_path / "s"
    code, _, _ = run(capsys, "-o", str(prefix), "sweep", "--T-grid", "0.85tau1:0.9tau1:2",
                     "--outputs", "entropy_curve", "--dos", dos)
    assert code == 0
    with open(tmp_path / "s_entropy.csv", newline="") as fh:
        row = list(csv.reader(fh))[1]
    assert float(row[0]) == float(single["T"])
    assert float(row[1]) == float(single["H_c"])
    assert float(row[2]) == float(single["dS_formula"])
    assert float(row[3]) == float(single["dS_fd"])


@pytest.mark.filterwarnings("ignore::bcsfield.solvers.DomainWarning")
def test_sweep_json_lists_each_failed_point(capsys, tmp_path):
    # H_c(0.69 tau1) exceeds the box cap of T0 = 0.8 tau1: that temperature
    # fails in both tables (2 of 20 points, inside the 10% budget).  The
    # other rows lie below T0 too, which warns.
    code, out, _ = run(capsys, "--json", "-o", str(tmp_path / "s"), "sweep",
                       "--T-grid", "0.69tau1:0.96tau1:10", "--outputs", "hc_curve,entropy_curve")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == len(payload["failed"]) == 2
    for point in payload["failed"]:
        assert point["H"] is None and "raise T0" in point["error"]
    with open(tmp_path / "s_entropy.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert float(rows[0][0]) == payload["failed"][0]["T"] and rows[0][1:] == ["nan"] * 3
    assert all(row[1] != "nan" for row in rows[1:])
