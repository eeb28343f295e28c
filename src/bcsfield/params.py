"""Physical constants, unit conventions, and the validated working domain.

Units: the Boltzmann constant is 1, so temperatures are energies.  The Debye
energy ``hbar_omega_D`` sets the energy scale (default 1), and ``mu_B`` is
expressed as energy per unit field so that ``mu_B * H`` is an energy.  No
unit conversions are performed anywhere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "Z_CAP",
    "MaterialParams",
    "DomainBox",
    "validate",
    "check_arg",
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

    Every field must be finite; construction (and ``replace``) raises a
    ``ValueError`` naming the first field that breaks its bound.
    """

    hbar_omega_D: float = 1.0
    mu: float = 10.0
    U1: float = 0.15
    a: float = 0.5
    b: float = 0.1
    mu_B: float = 1.0

    def __post_init__(self) -> None:
        validate(self)


def validate(params: MaterialParams) -> MaterialParams:
    """Check the sign invariants and return the parameters unchanged.

    Raises:
        ValueError: naming the offending field, for a non-finite constant
            or a non-positive required one; naming U1 and hbar_omega_D when
            the gap scales fall outside double range, i.e. the weak-coupling
            scale hbar_omega_D e^(-1/(2 U1)) is below the smallest normal
            double or sinh(1/(2 U1)) overflows.
    """
    for name in ("hbar_omega_D", "U1", "a", "b", "mu_B"):
        check_arg(name, getattr(params, name), positive=True)
    if not math.isfinite(params.mu):
        raise ValueError(f"mu must be finite, got {params.mu!r}")
    x = 0.5 / params.U1
    try:
        math.sinh(x)  # domain_from divides by it; raises OverflowError past double range
        in_range = params.hbar_omega_D * math.exp(-x) >= sys.float_info.min
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError(
            f"U1 = {params.U1!r} with hbar_omega_D = {params.hbar_omega_D!r} puts the gap "
            "scale hbar_omega_D e^(-1/(2 U1)) outside double range"
        )
    return params


def check_arg(name: str, value, positive: bool = False) -> np.ndarray:
    """Return ``value`` as a float array after checking every entry.

    A 0-d value that passes is decided by ``math.isfinite`` and one
    comparison, about a tenth of the array path's cost; one that fails
    takes the array path, which words every error.

    Raises:
        ValueError: naming the argument, for a non-finite entry, a negative
            one, or with ``positive`` a zero one.
    """
    arr = np.asarray(value, dtype=float)
    if not arr.ndim:
        v = float(arr)
        if math.isfinite(v) and (v > 0.0 if positive else v >= 0.0):
            return arr
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"{name} must be finite, got {float(arr[bad][0])!r}")
    bad = arr <= 0 if positive else arr < 0
    if bad.any():
        raise ValueError(f"{name} must be {'> 0' if positive else '>= 0'}, got {float(arr[bad][0])!r}")
    return arr


def load_params(
    path: str | Path | None = None, overrides: dict[str, float] | None = None
) -> MaterialParams:
    """Load parameters from a plain-text config file, or the defaults.

    Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
    ignored.  Keys must be among the :class:`MaterialParams` field names;
    unknown keys are errors.  Keys absent from the file keep their defaults;
    ``path=None`` reads no file.  ``overrides`` (e.g. from a command line)
    win over the file, key by key, and unknown override keys are errors
    too.  The merged values are validated once, so an override replaces an
    invalid file value of its key before any check sees it.
    """
    known = {f.name for f in fields(MaterialParams)}
    values: dict[str, float] = {}
    text = "" if path is None else Path(path).read_text()
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
    overrides = overrides or {}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown parameter override(s): {sorted(unknown)}")
    return MaterialParams(**{**values, **overrides})


@dataclass(frozen=True)
class DomainBox:
    """The rectangle [T0, tau1] x [0, H_max] x [0, Y0] the solvers work on.

    On this box the kernel F is strictly decreasing in H, T and squared gap,
    which is what makes every root in this package unique.  ``H_max`` is
    exactly ``Z_CAP * T0 / mu_B`` and ``Y0`` is an upper bracket for the
    squared gap (F(T0, 0, Y0) < 0) when the box comes from
    :func:`domain_from`.  Construction raises a ``ValueError`` naming the
    field unless every field is finite and > 0 and T0 < tau1.
    """

    T0: float
    tau1: float
    H_max: float
    Y0: float

    def __post_init__(self) -> None:
        for name in ("T0", "tau1", "H_max", "Y0"):
            check_arg(name, getattr(self, name), positive=True)
        if not self.T0 < self.tau1:
            raise ValueError(f"need 0 < T0 < tau1, got T0={self.T0!r}, tau1={self.tau1!r}")


def domain_from(params: MaterialParams, T0: float, tau1: float) -> DomainBox:
    """Build the working box for given temperature bounds, in closed form.

    ``Y0`` is four times the squared zero-temperature gap,
    ``4 * (hbar_omega_D / sinh(1/(2 U1)))**2``.  It is always a bracket,
    so no quadrature checks it: at H = 0 the weight tanh(E/2T) falls as T
    rises, so F(T0, 0, Y) is below its T -> 0 limit
    2 asinh(hbar_omega_D / sqrt(Y)) - 1/U1, which is negative at
    Y = 4 Delta_0^2 (U1 times it is at most -1.3e-3 wherever Y0 is a
    positive double, up to U1 = 1e3 at least).  A box whose Y0 is not a bracket, built by hand,
    surfaces as a ``BracketError`` of the gap solve.

    Raises:
        ValueError: unless 0 < T0 < tau1.
    """
    Y0 = 4.0 * (params.hbar_omega_D / math.sinh(0.5 / params.U1)) ** 2
    return DomainBox(T0=T0, tau1=tau1, H_max=Z_CAP * T0 / params.mu_B, Y0=Y0)
