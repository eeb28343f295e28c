import math
from dataclasses import replace

import numpy as np
import pytest

from bcsfield import (
    MaterialParams,
    Z_CAP,
    default_params,
    domain_from,
    load_params,
    validate,
)
from bcsfield.kernel import F_eval, StatePoint


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
    p = default_params()
    assert p.hbar_omega_D == 1.0
    assert p.mu == 10.0 * p.hbar_omega_D
    assert p.mu_B > 0 and p.a > 0 and p.b > 0


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


def test_y0_hint_doubles_until_bracket_holds(tau1):
    p = MaterialParams()
    tiny = 1e-9
    box = domain_from(p, 0.02, tau1, Y0_hint=tiny)
    assert box.Y0 > tiny
    assert F_eval(StatePoint(box.T0, 0.0, box.Y0), p) < 0.0
    # the doubling chain is exact powers of two from the hint
    assert box.Y0 / tiny == 2.0 ** round(math.log2(box.Y0 / tiny))


def test_y0_hint_must_be_positive(tau1):
    with pytest.raises(ValueError, match="Y0_hint"):
        domain_from(MaterialParams(), 0.02, tau1, Y0_hint=0.0)


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
    assert p.hbar_omega_D == default_params().hbar_omega_D


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


def test_load_params_unknown_override(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("U1 = 0.15\n")
    with pytest.raises(ValueError, match="override"):
        load_params(cfg, overrides={"lambda": 1.0})


def test_load_params_without_file():
    assert load_params() == default_params()
    assert load_params(None, {"U1": 0.2}) == replace(default_params(), U1=0.2)
    with pytest.raises(ValueError, match="unknown parameter override"):
        load_params(None, {"lambda": 1.0})
    with pytest.raises(ValueError, match="U1 must be > 0"):
        load_params(None, {"U1": -1.0})


def test_load_params_validates(tmp_path):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text("a = -1.0\n")
    with pytest.raises(ValueError, match="a must be > 0"):
        load_params(cfg)
