import csv
import math
import warnings

import numpy as np
import pytest

from bcsfield import (
    DomainBox,
    SweepError,
    SweepResult,
    SweepSpec,
    DomainWarning,
    dos_linear,
    entropy_gap,
    entropy_gap_fd,
    entropy_gap_fd_many,
    psi,
    run_sweep,
    solve_gap_squared,
    solve_gap_squared_many,
    solve_hc,
    solve_hc_many,
    write_csv,
)


@pytest.fixture(scope="module")
def small_sweep(p, dbox):
    spec = SweepSpec(
        T_grid=(dbox.T0, dbox.tau1, 4),
        H_grid="auto",
        outputs=frozenset({"hc_curve", "gap_surface", "psi_surface"}),
    )
    return spec, run_sweep(spec, p, dos_linear(1.0, 0.5), dbox)


# ---------------------------------------------------------------- validation


def test_spec_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        SweepSpec(T_grid=(0.1, 0.2, 1))
    with pytest.raises(ValueError, match="min < max"):
        SweepSpec(T_grid=(0.2, 0.1, 5))
    with pytest.raises(ValueError, match="unknown outputs"):
        SweepSpec(T_grid=(0.1, 0.2, 3), outputs=frozenset({"spectrum"}))
    with pytest.raises(ValueError, match="auto"):
        SweepSpec(T_grid=(0.1, 0.2, 3), H_grid="all")
    with pytest.raises(ValueError, match="empty"):
        SweepSpec(T_grid=(0.1, 0.2, 3), outputs=frozenset())


def test_grid_beyond_transition_rejected(p, dbox):
    spec = SweepSpec(T_grid=(dbox.T0, 2 * dbox.tau1, 3), outputs=frozenset({"hc_curve"}))
    with pytest.raises(ValueError, match="tau1"):
        run_sweep(spec, p, dos_linear(), dbox)


# ------------------------------------------------------------------- content


def test_hc_curve_ends_at_zero(small_sweep):
    _, result = small_sweep
    assert result.hc_curve[-1][1] == 0.0
    fields = [h for _, h in result.hc_curve]
    assert all(b <= a for a, b in zip(fields, fields[1:]))


def test_gap_surface_contract(small_sweep):
    _, result = small_sweep
    hc_by_T = dict(result.hc_curve)
    for T, H, Y, delta, state in result.gap_surface:
        assert state in {"S", "N"}
        assert Y >= 0.0
        assert (state == "N") == (Y == 0.0)
        # normal marker exactly where the field reaches the critical curve
        assert (state == "N") == (H >= hc_by_T[T] - 1e-9)
        assert delta == pytest.approx(Y**0.5)
    assert result.failures == 0


def test_gap_surface_monotone_along_auto_columns(small_sweep):
    _, result = small_sweep
    by_T: dict = {}
    for T, H, Y, delta, state in result.gap_surface:
        by_T.setdefault(T, []).append(delta)
    for deltas in by_T.values():
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_psi_surface_nonpositive(small_sweep):
    _, result = small_sweep
    for T, H, omega_s, omega_n, value in result.psi_surface:
        assert value <= 1e-12
        assert value == omega_s - omega_n


def test_fixed_h_grid_rows(p, dbox):
    spec = SweepSpec(
        T_grid=(dbox.T0, dbox.tau1, 3),
        H_grid=(0.0, dbox.H_max, 4),
        outputs=frozenset({"gap_surface"}),
    )
    result = run_sweep(spec, p, dos_linear(), dbox)
    assert len(result.gap_surface) == 12
    # fixed-T rows: delta nonincreasing in H; fixed-H columns: in T
    grid = np.array([row[3] for row in result.gap_surface]).reshape(3, 4)
    assert (np.diff(grid, axis=1) <= 1e-12).all()
    assert (np.diff(grid, axis=0) <= 1e-12).all()


def test_entropy_curve_values(p, dbox):
    spec = SweepSpec(
        T_grid=(dbox.T0, 0.9 * dbox.tau1, 2),
        outputs=frozenset({"entropy_curve"}),
    )
    result = run_sweep(spec, p, dos_linear(1.0, 0.5), dbox)
    for T, hc, ds, ds_fd in result.entropy_curve:
        assert ds <= 0.0 and ds_fd <= 0.0
        assert hc > 0.0


def test_failure_budget(p, dbox):
    # A corrupt bracket makes every gap point fail, tripping the 10% budget.
    bad = DomainBox(T0=dbox.T0, tau1=dbox.tau1, H_max=dbox.H_max, Y0=1e-9)
    spec = SweepSpec(
        T_grid=(dbox.T0, 0.9 * dbox.tau1, 3),
        H_grid=(0.0, 0.5 * dbox.H_max, 3),
        outputs=frozenset({"gap_surface"}),
    )
    with pytest.raises(SweepError, match="budget"):
        run_sweep(spec, p, dos_linear(), bad)


def test_failed_sweep_keeps_the_first_reason(p, dbox):
    # The first failed point's state and error end the SweepError message.
    bad = DomainBox(T0=dbox.T0, tau1=dbox.tau1, H_max=dbox.H_max, Y0=1e-9)
    spec = SweepSpec(
        T_grid=(dbox.T0, 0.9 * dbox.tau1, 2),
        H_grid=(0.0, 0.5 * dbox.H_max, 2),
        outputs=frozenset({"gap_surface"}),
    )
    with pytest.raises(SweepError) as info:
        run_sweep(spec, p, dos_linear(), bad)
    message = str(info.value)
    assert message.startswith("4/4 grid points failed")
    assert f"first at T = {dbox.T0:.6g}, H = 0: " in message
    assert message.endswith(str(solve_gap_squared_many(dbox.T0, 0.0, p, bad)[0]))


# --------------------------------------------------------------------- CSV


def test_csv_headers_and_roundtrip(small_sweep, tmp_path):
    _, result = small_sweep
    paths = write_csv(result, tmp_path / "phase")
    names = {path.name for path in paths}
    assert names == {"phase_hc.csv", "phase_gap.csv", "phase_psi.csv"}
    with open(tmp_path / "phase_hc.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "H_c"]
    for (T, H), row in zip(result.hc_curve, rows[1:]):
        assert float(row[0]) == T  # 17 significant digits round-trip exactly
        assert float(row[1]) == H
    with open(tmp_path / "phase_gap.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "H", "Y", "delta", "state"]
    assert {row[4] for row in rows[1:]} <= {"S", "N"}


def test_csv_deterministic_bytes(p, dbox, tmp_path):
    spec = SweepSpec(T_grid=(dbox.T0, dbox.tau1, 3), outputs=frozenset({"hc_curve"}))
    first = run_sweep(spec, p, dos_linear(), dbox)
    second = run_sweep(spec, p, dos_linear(), dbox)
    path_a = write_csv(first, tmp_path / "a")[0]
    path_b = write_csv(second, tmp_path / "b")[0]
    assert path_a.read_bytes() == path_b.read_bytes()


def test_csv_empty_dataset_header_only(tmp_path):
    result = SweepResult(hc_curve=[])
    (path,) = write_csv(result, tmp_path / "empty")
    assert path.read_bytes() == b"T,H_c\r\n"


def test_csv_missing_directory(small_sweep, tmp_path):
    _, result = small_sweep
    with pytest.raises(FileNotFoundError):
        write_csv(result, tmp_path / "nope" / "prefix")


def test_spec_rejects_non_finite_grids():
    with pytest.raises(ValueError, match="T_grid max must be finite"):
        SweepSpec(T_grid=(0.1, math.inf, 3))
    with pytest.raises(ValueError, match="H_grid min must be finite"):
        SweepSpec(T_grid=(0.1, 0.2, 3), H_grid=(math.nan, 0.1, 3))


def test_failed_point_leaves_the_other_rows_unchanged(p, dbox):
    # Y0 just below the largest squared gap of the grid fails that one point
    # (1 of 12, inside the 10% budget) with a BracketError.
    spec = SweepSpec(
        T_grid=(dbox.T0, dbox.tau1, 3),
        H_grid=(0.0, dbox.H_max, 4),
        outputs=frozenset({"gap_surface", "psi_surface"}),
    )
    gaps = sorted(solve_gap_squared(dbox.T0, h, p, dbox).Y for h in (0.0, dbox.H_max / 3))
    cut = DomainBox(T0=dbox.T0, tau1=dbox.tau1, H_max=dbox.H_max, Y0=0.5 * sum(gaps))
    dos = dos_linear(1.0, 0.5)
    result = run_sweep(spec, p, dos, cut)
    assert result.failures == 1
    assert result.gap_surface[0][4] == "ERR" and math.isnan(result.psi_surface[0][4])
    for (T, H, Y, delta, state), (_, _, omega_s, omega_n, value) in zip(
            result.gap_surface[1:], result.psi_surface[1:]):
        tp = psi(T, H, p, dos, cut)
        assert (Y, delta, state) == (tp.gap.Y, tp.gap.delta, "N" if tp.gap.boundary else "S")
        assert (omega_s, omega_n, value) == (tp.omega_S, tp.omega_N, tp.psi)


def test_failed_entropy_row_leaves_the_other_rows_unchanged(p, dbox):
    # Y0 just below the largest squared gap of the finite-difference probes
    # (T - delta_T, H_c(T)) fails that row's dS_fd alone (1 of 10 rows).
    spec = SweepSpec(T_grid=(dbox.T0, 0.95 * dbox.tau1, 10), outputs=frozenset({"entropy_curve"}))
    T = np.linspace(*spec.T_grid).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        probes = [solve_gap_squared(t - 2e-3 * t, hc, p, dbox).Y
                  for t, hc in zip(T, solve_hc_many(T, p, dbox))]
    worst = int(np.argmax(probes))
    second = max(y for k, y in enumerate(probes) if k != worst)
    cut = DomainBox(T0=dbox.T0, tau1=dbox.tau1, H_max=dbox.H_max, Y0=0.5 * (probes[worst] + second))
    dos = dos_linear(1.0, 0.5)
    result = run_sweep(spec, p, dos, cut)
    hc_worst = solve_hc(T[worst], p, cut)
    reason = str(entropy_gap_fd_many(T[worst], p, dos, cut, hc=hc_worst)[0])
    assert result.failed == [(T[worst], None, reason)] and "no root in bracket" in reason
    assert all(math.isnan(v) for v in result.entropy_curve[worst][1:])
    for k, (t, hc, ds, ds_fd) in enumerate(result.entropy_curve):
        if k != worst:
            assert hc == solve_hc(t, p, cut)
            assert (ds, ds_fd) == (entropy_gap(t, p, dos, cut, hc=hc),
                                   entropy_gap_fd(t, p, dos, cut, hc=hc))
    # The probe gap grows with T, so the sweep fails its last row; a batch
    # may hold the failed row between two others.
    order = [0, worst, 1]
    out = entropy_gap_fd_many([T[k] for k in order], p, dos, cut,
                              hc=[solve_hc(T[k], p, cut) for k in order])
    assert str(out[1]) == reason
    assert [out[0], out[2]] == [result.entropy_curve[0][3], result.entropy_curve[1][3]]


def test_entropy_sweep_work_does_not_grow_with_rows(p, dbox, integrand_calls):
    # All rows share each batched quadrature level, so the integrand calls
    # stay near those of one row while the panels grow with the row count.
    def calls(n):
        integrand_calls[0] = 0
        spec = SweepSpec(T_grid=(dbox.T0, 0.95 * dbox.tau1, n), outputs=frozenset({"entropy_curve"}))
        run_sweep(spec, p, dos_linear(1.0, 0.5), dbox)
        return integrand_calls[0]

    three, ten = calls(3), calls(10)
    assert three <= 150
    assert ten <= 200 and ten <= 1.2 * three


def test_phase_sweep_work(p, dbox, integrand_calls):
    # A 10 x 10 hc + gap + psi sweep: three batched solves, each a few
    # root iterations of a few quadrature levels (154 calls under Illinois
    # false position).
    spec = SweepSpec(T_grid=(dbox.T0, dbox.tau1, 10), H_grid="auto",
                     outputs=frozenset({"hc_curve", "gap_surface", "psi_surface"}))
    run_sweep(spec, p, dos_linear(1.0, 0.5), dbox)
    assert integrand_calls[0] <= 120
