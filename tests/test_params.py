import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsfield import (
    MaterialParams,
    Z_CAP,
    domain_from,
    load_params,
    solve_tau1,
    validate,
)
from bcsfield.kernel import F_eval, StatePoint
from bcsfield.numerics import QuadSpec, RootSpec
from bcsfield.params import DomainBox, check_arg
from bcsfield.thermo import DosModel


def test_validate_accepts_positive_constants():
    p = MaterialParams(hbar_omega_D=1, mu=10, U1=0.3, a=0.5, b=0.1, mu_B=1)
    assert validate(p) is p


def test_validate_rejects_zero_a():
    with pytest.raises(ValueError, match="a must be > 0"):
        validate(MaterialParams(a=0.0))


def test_validate_rejects_negative_coupling():
    with pytest.raises(ValueError, match="U1"):
        validate(MaterialParams(U1=-0.1))


@pytest.mark.parametrize("field", ["hbar_omega_D", "U1", "a", "b", "mu_B"])
def test_validate_names_the_offending_field(field):
    with pytest.raises(ValueError, match=field):
        validate(replace(MaterialParams(), **{field: 0.0}))


def test_defaults():
    p = MaterialParams()
    assert p.hbar_omega_D == 1.0
    assert p.mu == 10.0 * p.hbar_omega_D
    assert p.mu_B > 0 and p.a > 0 and p.b > 0


# ------------------------------------------------------ constructor contract

# Valid values for the fields a case does not vary.
_BASE = {
    MaterialParams: {},
    QuadSpec: {},
    RootSpec: {},
    DomainBox: {"T0": 0.03, "tau1": 0.04, "H_max": 0.0372, "Y0": 0.02},
    DosModel: {"kind": "linear"},
}
_FIELDS = [
    *((MaterialParams, f) for f in ("hbar_omega_D", "mu", "U1", "a", "b", "mu_B")),
    (QuadSpec, "abs_tol"), (QuadSpec, "rel_tol"),
    (RootSpec, "x_tol"), (RootSpec, "f_tol"),
    *((DomainBox, f) for f in ("T0", "tau1", "H_max", "Y0")),
    (DosModel, "D0"), (DosModel, "slope_param"),
]


@pytest.mark.parametrize("cls, field", _FIELDS, ids=[f"{c.__name__}.{f}" for c, f in _FIELDS])
@settings(max_examples=60, deadline=None)
@given(value=st.floats(allow_nan=True, allow_infinity=True))
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0.0)
def test_constructor_holds_the_value_or_names_the_field(cls, field, value):
    try:
        obj = cls(**{**_BASE[cls], field: value})
    except ValueError as exc:
        assert re.search(rf"\b{field}\b", str(exc)), str(exc)
    else:
        assert getattr(obj, field) == value


@pytest.mark.parametrize("hbar_omega_D, U1", [(1.0, 5e-4), (1.0, 7e-4), (1e300, 0.5 / 710.6)])
def test_coupling_whose_gap_scales_leave_double_range_is_rejected(hbar_omega_D, U1):
    # hbar_omega_D e^(-1/(2 U1)) below the smallest normal double, or (last
    # case, where that scale is about 1e-9) sinh(1/(2 U1)) past the largest.
    with pytest.raises(ValueError, match=r"\bU1\b"):
        MaterialParams(hbar_omega_D=hbar_omega_D, U1=U1)


def test_coupling_just_inside_double_range_is_kept():
    # e^(-1/(2 U1)) = e^-704.2, about 5e-306.
    assert MaterialParams(U1=7.1e-4).U1 == 7.1e-4


# ------------------------------------------------------------------- box


def test_h_max_arithmetic():
    p = MaterialParams(mu_B=1.0)
    box = domain_from(p, 0.02, 0.04)
    assert box.H_max == pytest.approx(0.0248, rel=1e-12)
    # exact up to the rounding of one multiply/divide
    assert abs(box.H_max * p.mu_B / box.T0 - Z_CAP) <= 4 * np.finfo(float).eps * Z_CAP


def test_ordering_violation_rejected():
    with pytest.raises(ValueError, match="T0"):
        domain_from(MaterialParams(), 0.05, 0.04)


def test_cap_inequality_backing_the_box():
    assert Z_CAP * math.sinh(Z_CAP) < 2.0


def test_y0_closed_form_and_corner_check(tau1):
    p = MaterialParams(U1=0.15)
    box = domain_from(p, 0.02, tau1)
    expected = 4.0 * (1.0 / math.sinh(1.0 / (2.0 * 0.15))) ** 2
    assert box.Y0 == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.0204, rel=2e-2)
    # the bracket corner where F is largest over the box must be negative
    assert F_eval(StatePoint(box.T0, 0.0, box.Y0), p) < 0.0
    # Over couplings: the closed-form bound that makes Y0 a bracket holds
    # wherever Y0 is a positive double, and F(T0, 0, Y0) < 0 there, also
    # where Y0 is subnormal (near U1 = 1.36e-3).
    checked = 0
    for U1 in [*np.geomspace(7.06e-4, 1e3, 400).tolist(), 1.36e-3]:
        q = MaterialParams(U1=U1)
        Y0 = 4.0 * (q.hbar_omega_D / math.sinh(0.5 / U1)) ** 2
        if Y0 == 0.0:
            with pytest.raises(ValueError, match="^Y0 must be > 0"):
                domain_from(q, 0.5, 1.0)
            continue
        t1 = solve_tau1(q)
        box = domain_from(q, 0.8 * t1, t1)
        assert box.Y0 == Y0
        assert U1 * (2.0 * math.asinh(q.hbar_omega_D / math.sqrt(Y0)) - 1.0 / U1) <= -1.3e-3
        assert F_eval(StatePoint(box.T0, 0.0, Y0), q) < 0.0
        checked += 1
    assert checked >= 370


# ---------------------------------------------------------------- config IO


def test_load_params_roundtrip(tmp_path):
    cfg = tmp_path / "mat.toml"
    cfg.write_text(
        """
        # material constants
        hbar_omega_D = 1.0
        U1 = 0.15     # coupling
        a = 0.5
        b = 0.1
        mu_B = 1.0
        mu = 10.0
        """
    )
    p = load_params(cfg)
    assert p == MaterialParams(hbar_omega_D=1.0, mu=10.0, U1=0.15, a=0.5, b=0.1, mu_B=1.0)


def test_load_params_partial_file_keeps_defaults(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("U1 = 0.2\n")
    p = load_params(cfg)
    assert p.U1 == 0.2
    assert p.hbar_omega_D == MaterialParams().hbar_omega_D


def test_load_params_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("coupling = 0.2\n")
    with pytest.raises(ValueError, match="unknown parameter 'coupling'"):
        load_params(cfg)


def test_load_params_malformed_line(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("U1 0.2\n")
    with pytest.raises(ValueError, match="key = value"):
        load_params(cfg)


def test_load_params_non_numeric(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("U1 = strong\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_params(cfg)


def test_load_params_overrides_win(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("U1 = 0.15\n")
    p = load_params(cfg, overrides={"U1": 0.2})
    assert p.U1 == 0.2


def test_load_params_override_replaces_an_invalid_file_value(tmp_path):
    # File values and overrides are merged before the one validation.
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("U1 = -1.0\na = 0.7\n")
    p = load_params(cfg, overrides={"U1": 0.2})
    assert p == MaterialParams(U1=0.2, a=0.7)
    with pytest.raises(ValueError, match="U1 must be > 0"):
        load_params(cfg, overrides={"a": 0.3})


def test_load_params_unknown_override(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("U1 = 0.15\n")
    with pytest.raises(ValueError, match="override"):
        load_params(cfg, overrides={"lambda": 1.0})


def test_load_params_without_file():
    assert load_params() == MaterialParams()
    assert load_params(None, {"U1": 0.2}) == replace(MaterialParams(), U1=0.2)
    with pytest.raises(ValueError, match="unknown parameter override"):
        load_params(None, {"lambda": 1.0})
    with pytest.raises(ValueError, match="U1 must be > 0"):
        load_params(None, {"U1": -1.0})


def test_load_params_validates(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("a = -1.0\n")
    with pytest.raises(ValueError, match="a must be > 0"):
        load_params(cfg)


_SCALARS = [0.5, 1e-300, 3, True, False, np.float64(2.0), np.float32(0.25), np.int64(4),
            np.array(1.5), -0.0, 0.0, 0, np.float64(-0.0), -1e-300, -2, math.nan, math.inf,
            -math.inf, np.float64(math.nan), np.array(-math.inf)]


@pytest.mark.parametrize("positive", [False, True])
@pytest.mark.parametrize("value", _SCALARS, ids=repr)
def test_check_arg_decides_a_scalar_as_the_array_path_does(value, positive):
    # A 0-d value is decided with math.isfinite and one comparison; the
    # array path, taken here by a one-element list, is the reference.
    try:
        check_arg("x", [value], positive)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            check_arg("x", value, positive)
        assert str(got.value) == str(exc)
    else:
        got = check_arg("x", value, positive)
        want = np.asarray(value, dtype=float)
        assert type(got) is np.ndarray and got.dtype == want.dtype and got.shape == ()
        assert got.tobytes() == want.tobytes()  # -0.0 keeps its sign
