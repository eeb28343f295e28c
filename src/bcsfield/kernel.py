"""Gap-equation kernel: quasiparticle energy, thermal weight, F and its partials.

The central object is

    F(T, H, Y) = integral over [-hbar_omega_D, hbar_omega_D] of
                 J(T, H, Y, xi) d(xi)  -  1/U1,

    J = w(E) / E,   E = sqrt((xi + a H + b H^2)^2 + Y),

    w(E) = sinh(E/T) / (cosh(E/T) + cosh(mu_B H / T)).

The squared gap at a state point (T, H) is the root of F in Y; the critical
field at T is the root in H at Y = 0; the zero-field transition temperature
is the root in T at H = Y = 0.

Every function here is pure, accepts numpy arrays for the energy-like
argument (and arrays of states that broadcast against it), and is
overflow-safe for arbitrarily small temperatures: the thermal weight is
written with no positive exponent that can overflow, the derivatives in
Fermi-function forms, and E is one ``hypot`` that neither underflows nor
cancels.  ``F_eval_many`` and ``F_partials_many``
integrate a whole batch of states in one breadth-first quadrature; the
scalar ``F_eval`` and ``F_partials`` are their batch-of-one cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``integrate`` stays importable here: bench/spans.py patches kernel.integrate
# by name.
from .numerics import QuadratureError, QuadSpec, _integrate_many, first, integrate  # noqa: F401
from .params import MaterialParams, check_arg

__all__ = [
    "StatePoint",
    "fermi",
    "fermi_delta",
    "log1p_exp_neg",
    "quasiparticle_energy",
    "thermal_weight",
    "integrand_J",
    "F_eval",
    "F_eval_many",
    "F_partials",
    "F_partials_many",
]

# The smallest normal double.  J raises E/T to it, where its weight is
# exactly the E -> 0 limit; thermo raises E to it to keep 0/0 out of its brackets.
_TINY = np.finfo(float).tiny

# E/T below which the Y-derivative of J switches to its cancellation-free
# series, and below which the T- and Zeeman-derivatives switch to their
# exact E -> 0 limits.
_Z_SERIES = 0.1
_Z_LIMIT = 1e-5


@dataclass(frozen=True)
class StatePoint:
    """One (temperature, field, squared gap) point."""

    T: float
    H: float
    Y: float

    def __post_init__(self) -> None:
        check_arg("T", self.T, positive=True)
        check_arg("H", self.H)
        check_arg("Y", self.Y)


def fermi(x):
    """Fermi function 1 / (e^x + 1), overflow-safe for any real x."""
    x = np.asarray(x, dtype=float)
    t = np.exp(-np.abs(x))
    out = np.where(x >= 0, t / (1.0 + t), 1.0 / (1.0 + t))
    return float(out) if out.ndim == 0 else out


def fermi_delta(x):
    """Negative derivative of the Fermi function: 1 / (2 (cosh x + 1))."""
    x = np.asarray(x, dtype=float)
    t = np.exp(-np.abs(x))
    out = t / (1.0 + t) ** 2
    return float(out) if out.ndim == 0 else out


def log1p_exp_neg(x):
    """ln(1 + e^(-x)), overflow-safe for any real x."""
    x = np.asarray(x, dtype=float)
    out = np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def _shift(H: float, p: MaterialParams) -> float:
    """Orbital energy shift a H + b H^2."""
    return p.a * H + p.b * H * H


def _energy(eta, Y):
    """E = sqrt(eta^2 + Y) as hypot(eta, sqrt(Y)), for eta = xi + a H + b H^2.

    No square is formed, so nothing underflows where eta^2 or Y is below
    the normal range, and E is exactly |eta| at Y = 0.
    """
    return np.hypot(eta, np.sqrt(Y))


def quasiparticle_energy(xi, H: float, Y: float, p: MaterialParams):
    """E = sqrt((xi + a H + b H^2)^2 + Y), taken as one ``hypot``.

    Accurate wherever E is a double, including where the square of
    xi + a H + b H^2 or Y itself is subnormal; exactly |xi + a H + b H^2|
    at Y = 0.
    """
    out = _energy(np.asarray(xi, dtype=float) + _shift(H, p), Y)
    return float(out) if out.ndim == 0 else out


def _weight(z, z1: float):
    """sinh(z) / (cosh(z) + cosh(z1)) for z = E/T, z1 = mu_B H / T >= 0.

    Numerator and denominator are divided by e^z:

        (1 - e^(-2z)) / (1 + e^(-2z) + e^(z1 - z) (1 + e^(-2 z1))),

    with 1 - e^(-2z) taken from expm1.  No term can overflow, nothing
    cancels, and the exponentially small weight of the deep Zeeman tail
    z << z1 keeps its relative accuracy.  The exponent z1 - z is capped at
    700, where the weight is below 1e-304 anyway.
    """
    z = np.asarray(z, dtype=float)
    c = np.expm1(-2.0 * z)
    return -c / (2.0 + c + np.exp(np.minimum(z1 - z, 700.0)) * (1.0 + np.exp(-2.0 * z1)))


def thermal_weight(T: float, E, H: float, p: MaterialParams):
    """Thermal pair-breaking weight sinh(E/T) / (cosh(E/T) + cosh(mu_B H/T)).

    Evaluated in one exponent-safe form (see ``_weight``) that is finite
    and accurate for any E >= 0, H >= 0 and T > 0.  The value lies in
    [0, 1); it rounds to 1.0 where 1 - w is below double resolution.

    Raises:
        ValueError: naming ``T`` or ``H``, for a non-finite or negative
            entry or a zero temperature.
    """
    T = check_arg("T", T, positive=True)
    H = check_arg("H", H)
    E = np.asarray(E, dtype=float)
    out = _weight(E / T, p.mu_B * H / T)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def integrand_J(T: float, H: float, Y: float, xi, p: MaterialParams):
    """J = thermal_weight(E) / E = w(z) / (z T), z = E/T, with no branch.

    z is raised to the smallest normal double, where expm1(-2z) is exactly
    -2z: there J is its E -> 0 limit ``1 / (T (1 + cosh(mu_B H / T)))``
    instead of 0/0, and any z above it keeps the full expression.
    """
    z = np.maximum(quasiparticle_energy(xi, H, Y, p) / T, _TINY)
    out = np.asarray(_weight(z, p.mu_B * H / T) / (z * T))
    return float(out) if out.ndim == 0 else out


def _states(T, H, Y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked 1-d arrays of one length for a batch of states."""
    return tuple(a.ravel() for a in np.broadcast_arrays(
        check_arg("T", T, positive=True), check_arg("H", H), check_arg("Y", Y)))


def zeeman_edges(s, h, Y):
    """xi of the Zeeman edges E = h, at -s -+ sqrt(h^2 - Y); NaN where h^2 <= Y.

    Returns the (lower, upper) pair, each shaped like the broadcast inputs.
    """
    excess = h * h - Y
    r = np.where(excess > 0, np.sqrt(np.abs(excess)), np.nan)
    return -s - r, -s + r


def _integrate_states(pointwise, T, H, Y, p: MaterialParams, quad: QuadSpec | None):
    """Integrate ``pointwise(T, H, Y, xi, p)`` over the pairing window for every state.

    T, H and Y are checked 1-d arrays of one length.  The quadrature starts
    graded toward xi = -s, where J's poles nearest the real axis sit
    hypot(pi T, sqrt(Y)) off it, and toward the Zeeman edges (width pi T).
    """
    w = p.hbar_omega_D
    s = _shift(H, p)
    cuts = np.array([-s, *zeeman_edges(s, p.mu_B * H, Y)]).T
    pi_T = np.pi * T
    scales = np.array([np.hypot(pi_T, np.sqrt(Y)), pi_T, pi_T]).T

    def f(xi, i):
        return pointwise(T[i, None], H[i, None], Y[i, None], xi, p)

    return _integrate_many(f, np.full(T.size, -w), np.full(T.size, w), quad, (cuts, scales))


def F_eval_many(
    T, H, Y, p: MaterialParams, quad: QuadSpec | None = None
) -> tuple[np.ndarray, dict[int, QuadratureError]]:
    """F at a batch of states (arrays that broadcast to one length).

    Returns ``(values, errors)`` as :func:`numerics.integrate_many` does: a
    state whose quadrature fails is NaN in ``values`` and has its error in
    ``errors``; the other states are exactly what :func:`F_eval` returns
    for them one at a time.
    """
    return _F_many(*_states(T, H, Y), p, quad)


def _F_many(T, H, Y, p: MaterialParams, quad: QuadSpec | None):
    """:func:`F_eval_many` without the argument checks.

    For callers that have checked T, H and Y once and evaluate F at many
    iterates of them; the three broadcast to one 1-d shape.
    """
    T, H, Y = np.broadcast_arrays(T, H, Y)
    values, errors = _integrate_states(integrand_J, T, H, Y, p, quad)
    return values - 1.0 / p.U1, errors


def F_eval(s: StatePoint, p: MaterialParams, quad: QuadSpec | None = None) -> float:
    """F(T, H, Y): the gap-equation excess over the pairing window.

    Integrates J over [-hbar_omega_D, hbar_omega_D] and subtracts 1/U1.
    Positive F means the state supports a larger gap; F = 0 is the
    gap equation itself.
    """
    return float(first(*F_eval_many(s.T, s.H, s.Y, p, quad))[0])


def _r_r_cosh(z, z1: float):
    """r(z + z1) * r(z - z1) * cosh(z1), factored to avoid overflow in cosh.

    The exponentials combine to exp(z1) * exp(-(z+z1)) * exp(-|z-z1|)
    = exp(-(z + |z - z1|)), which never exceeds 1.
    """
    z = np.asarray(z, dtype=float)
    ea = np.exp(-(z + z1))
    eb = np.exp(-np.abs(z - z1))
    e0 = np.exp(-(z + np.abs(z - z1)))
    return 2.0 * e0 * (1.0 + np.exp(-2.0 * z1)) / ((1.0 + ea) ** 2 * (1.0 + eb) ** 2)


def _dJ_all(T, H, Y, xi, p: MaterialParams):
    """Pointwise (dJ/dT, dJ/dH, dJ/dY) on one trailing axis.

    With z = E/T, z1 = mu_B H / T and r(u) = 1/(1 + cosh u) = 2 fermi_delta(u),
    which stays bounded for any argument:

    * dJ/dT is the exact rewriting of
      -(1 + cosh z cosh z1 - z1 sinh z1 sinh(z)/z) / (T^2 (cosh z + cosh z1)^2)
      in r(z + z1), r(z - z1), with its E -> 0 limit below z = _Z_LIMIT.
    * dJ/dY = (r(z+z1) + r(z-z1)) / (4 T E^2) - w / (2 E^3).  The two terms
      cancel to O(E^3) as E -> 0, so below z = _Z_SERIES the equivalent
      series form -(A(z) r(z+z1) r(z-z1) - B(z) r r cosh(z1)) / (2 T^3) is
      used, whose coefficients come from the Taylor expansion of
      cosh(z1)(sinh z - z cosh z) + sinh z cosh z - z over z^3.
    * dJ/dH at fixed (T, Y) is the orbital shift channel
      2 eta (a + 2 b H) dJ/dY plus the Zeeman channel
      mu_B dJ/d(mu_B H) = mu_B (r(z+z1) - r(z-z1)) / (2 T E), and 0 at
      H = 0, where it integrates to exactly 0.
    """
    eta = np.asarray(xi, dtype=float) + _shift(H, p)
    E = _energy(eta, Y)
    z = E / T
    z1 = p.mu_B * H / T
    rp = 2.0 * fermi_delta(z + z1)
    rm = 2.0 * fermi_delta(z - z1)
    r1 = 2.0 * fermi_delta(z1)
    above_limit = z > _Z_LIMIT

    z_safe = np.where(above_limit, z, 1.0)
    bracket = (
        rp * rm
        + 0.5 * ((1.0 - rp) * rm + (1.0 - rm) * rp)
        - (z1 / z_safe) * 0.5 * (rm - rp)
    )
    limit = r1 * (1.0 - z1 * np.tanh(0.5 * z1))
    dT = -np.where(above_limit, bracket, limit) / (T * T)

    big = z >= _Z_SERIES
    E_safe = np.where(big, E, 1.0)
    w = _weight(np.where(big, z, 1.0), z1)
    direct = (rp + rm) / (4.0 * T * E_safe * E_safe) - w / (2.0 * E_safe**3)
    z2 = z * z
    series_a = 2.0 / 3.0 + z2 * (2.0 / 15.0 + z2 * (4.0 / 315.0 + z2 * (2.0 / 2835.0)))
    series_b = 1.0 / 3.0 + z2 * (1.0 / 30.0 + z2 * (1.0 / 840.0 + z2 * (1.0 / 45360.0)))
    series = -(series_a * rp * rm - series_b * _r_r_cosh(z, z1)) / (2.0 * T**3)
    dY = np.where(big, direct, series)

    E_safe = np.where(above_limit, E, 1.0)
    dh = np.where(above_limit, (rp - rm) / (2.0 * T * E_safe), -np.tanh(0.5 * z1) * r1 / (T * T))
    # At H = 0 the Zeeman channel is 0 and the orbital one, 2 xi a dJ/dY, is
    # odd on the symmetric window: F_H is exactly 0, which no tolerance
    # relative to it could certify.
    dH = np.where(H == 0, 0.0, 2.0 * eta * (p.a + 2.0 * p.b * H) * dY + p.mu_B * dh)
    return np.stack([dT, dH, dY], axis=-1)


def F_partials_many(
    T, H, Y, p: MaterialParams, quad: QuadSpec | None = None
) -> tuple[np.ndarray, dict[int, QuadratureError]]:
    """(F_T, F_H, F_Y) at a batch of states: ``(values of shape (m, 3), errors)``."""
    values, errors = _integrate_states(_dJ_all, *_states(T, H, Y), p, quad)
    return values.reshape(-1, 3), errors


def F_partials(
    s: StatePoint, p: MaterialParams, quad: QuadSpec | None = None
) -> tuple[float, float, float]:
    """Analytic partial derivatives (F_T, F_H, F_Y).

    Each integrand is differentiated under the integral sign; the three are
    integrated on shared panels, each to the tolerance F itself gets.  At
    Y = 0 the returned Y-derivative is the one-sided limit (J is analytic in
    Y, so it equals the interior value).  At H = 0, F_H is exactly 0: its
    integrand is odd on the window there and is not integrated.  On the
    working box away from H = 0 all three are negative, which is what makes
    the implicit functions unique and monotone.
    """
    f_T, f_H, f_Y = (float(v) for v in first(*F_partials_many(s.T, s.H, s.Y, p, quad))[0])
    return f_T, f_H, f_Y
