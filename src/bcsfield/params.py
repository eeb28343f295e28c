"""Physical constants, unit conventions, and the validated working domain.

Units: the Boltzmann constant is 1, so temperatures are energies.  The Debye
energy ``hbar_omega_D`` sets the energy scale (default 1), and ``mu_B`` is
expressed as energy per unit field so that ``mu_B * H`` is an energy.  No
unit conversions are performed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

__all__ = [
    "Z_CAP",
    "MaterialParams",
    "DomainBox",
    "validate",
    "check_arg",
    "default_params",
    "load_params",
    "domain_from",
]

# Field cap coefficient: on the box H <= Z_CAP * T0 / mu_B the thermal-weight
# kernel is strictly decreasing in H, T and Y.  The value is the largest
# round z for which z * sinh(z) < 2, which is what those sign arguments need.
Z_CAP = 1.24


@dataclass(frozen=True)
class MaterialParams:
    """Constants of the model.

    hbar_omega_D: Debye energy; half-width of the pairing window (> 0).
    mu: chemical potential; enters only through the density-of-states
        argument ``xi + mu`` in the thermodynamic integrals.
    U1: dimensionless pairing coupling (> 0).
    a: linear orbital coupling, energy per unit field (> 0).
    b: quadratic orbital coupling, energy per unit field squared (> 0).
    mu_B: Bohr magneton, energy per unit field (> 0).
    """

    hbar_omega_D: float = 1.0
    mu: float = 10.0
    U1: float = 0.15
    a: float = 0.5
    b: float = 0.1
    mu_B: float = 1.0


def validate(params: MaterialParams) -> MaterialParams:
    """Check the sign invariants and return the parameters unchanged.

    Raises:
        ValueError: naming the offending field, for any non-positive
            required constant.
    """
    for name in ("hbar_omega_D", "U1", "a", "b", "mu_B"):
        if not getattr(params, name) > 0:
            raise ValueError(f"{name} must be > 0, got {getattr(params, name)!r}")
    for name in ("hbar_omega_D", "mu", "U1", "a", "b", "mu_B"):
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite, got {getattr(params, name)!r}")
    return params


def check_arg(name: str, value, positive: bool = False) -> np.ndarray:
    """Return ``value`` as a float array after checking every entry.

    Raises:
        ValueError: naming the argument, for a non-finite entry, a negative
            one, or with ``positive`` a zero one.
    """
    arr = np.asarray(value, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"{name} must be finite, got {float(arr[bad][0])!r}")
    bad = arr <= 0 if positive else arr < 0
    if bad.any():
        raise ValueError(f"{name} must be {'> 0' if positive else '>= 0'}, got {float(arr[bad][0])!r}")
    return arr


def default_params() -> MaterialParams:
    """Weak-coupling defaults with the Debye energy as the unit of energy."""
    return MaterialParams()


def load_params(path: str | Path, overrides: dict[str, float] | None = None) -> MaterialParams:
    """Load parameters from a plain-text config file.

    Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
    ignored.  Keys must be among the :class:`MaterialParams` field names;
    unknown keys are errors.  Keys absent from the file keep their defaults.
    ``overrides`` (e.g. from a command line) are applied after the file and
    win over it.
    """
    known = {f.name for f in fields(MaterialParams)}
    values: dict[str, float] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} has non-numeric value {value.strip()!r}") from None
    params = replace(MaterialParams(), **values)
    if overrides:
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown parameter override(s): {sorted(unknown)}")
        params = replace(params, **overrides)
    return validate(params)


@dataclass(frozen=True)
class DomainBox:
    """The rectangle [T0, tau1] x [0, H_max] x [0, Y0] the solvers work on.

    On this box the kernel F is strictly decreasing in H, T and squared gap,
    which is what makes every root in this package unique.  ``H_max`` is
    exactly ``Z_CAP * T0 / mu_B`` and ``Y0`` is a verified upper bracket for
    the squared gap (F(T0, 0, Y0) < 0).
    """

    T0: float
    tau1: float
    H_max: float
    Y0: float


def domain_from(
    params: MaterialParams,
    T0: float,
    tau1: float,
    Y0_hint: float | None = None,
) -> DomainBox:
    """Build the working box for given temperature bounds.

    ``Y0`` defaults to four times the squared zero-temperature gap,
    ``4 * (hbar_omega_D / sinh(1/(2 U1)))**2``: the zero-temperature gap is
    the global maximum of the squared gap, so a factor-4 margin guarantees
    the bracket.  The corner (T0, 0), where F is largest over the box, is
    checked to satisfy F(T0, 0, Y0) < 0; if not (possible only with a
    user-supplied ``Y0_hint``), Y0 is doubled, at most 60 times.

    Raises:
        ValueError: unless 0 < T0 < tau1, or if the bracket check fails
            after 60 doublings.
    """
    from .kernel import F_eval, StatePoint  # deferred: kernel depends on this module

    validate(params)
    if not 0 < T0 < tau1:
        raise ValueError(f"need 0 < T0 < tau1, got T0={T0!r}, tau1={tau1!r}")
    H_max = Z_CAP * T0 / params.mu_B
    if Y0_hint is not None:
        if Y0_hint <= 0:
            raise ValueError(f"Y0_hint must be > 0, got {Y0_hint!r}")
        Y0 = Y0_hint
    else:
        Y0 = 4.0 * (params.hbar_omega_D / math.sinh(0.5 / params.U1)) ** 2
    for _ in range(61):
        if F_eval(StatePoint(T0, 0.0, Y0), params) < 0.0:
            return DomainBox(T0=T0, tau1=tau1, H_max=H_max, Y0=Y0)
        Y0 *= 2.0
    raise ValueError("could not establish F(T0, 0, Y0) < 0 after 60 doublings of Y0")
