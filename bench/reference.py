"""Independent numpy-only reference for the gap kernel and the grand potentials.

Nothing here imports ``bcsfield``: the benchmark checks the library's outputs
against these values, so they must not share its quadrature or its
overflow-safe special functions.

Both integrals are taken in the shifted variable eta = xi + a H + b H^2 with
composite Gauss-Legendre on panels graded geometrically towards every point
where the integrand changes on a small scale: eta = 0 (width of order T or
sqrt(Y)) and the Zeeman edges E = mu_B H (width of order T).  Each evaluation is done twice, on
the base mesh and on a denser one (finer grading, more nodes per panel), and
the denser value is returned only when the two agree; otherwise the
reference itself has not converged and :class:`ReferenceError` is raised.

Thermal factors use the tanh forms

    sinh(z) / (cosh(z) + cosh(z1)) = (tanh((z + z1)/2) + tanh((z - z1)/2)) / 2,
    1 / (e^x + 1) = (1 - tanh(x/2)) / 2,      ln(1 + e^-x) = logaddexp(0, -x),

which are overflow-free for any argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# (nodes per panel, grading ratio, innermost width as a share of the local scale)
_BASE = (10, 0.5, 1.0 / 8.0)
_DENSE = (16, 0.5, 1.0 / 64.0)
_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (_BASE[0], _DENSE[0])}

# Agreement the base and dense meshes must reach, relative to max(1, |value|).
CONVERGED = 1e-12


class ReferenceError(RuntimeError):
    """The base and dense reference meshes disagree: the reference is not converged."""


@dataclass(frozen=True)
class Material:
    """The model constants the reference needs (same meaning as the library's)."""

    hbar_omega_D: float = 1.0
    mu: float = 10.0
    U1: float = 0.15
    a: float = 0.5
    b: float = 0.1
    mu_B: float = 1.0

    def shift(self, H):
        return self.a * H + self.b * H * H

    def zero_T_gap(self) -> float:
        """Zero-temperature zero-field gap w / sinh(1/(2 U1)) (exact for this kernel)."""
        return self.hbar_omega_D / math.sinh(0.5 / self.U1)


def _graded_edges(lo: float, hi: float, cuts, finest: float, ratio: float) -> np.ndarray:
    """Panel edges on [lo, hi]: split at the cuts, grade towards both ends of each piece."""
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    edges = [lo]
    for a, b in zip(pts[:-1], pts[1:]):
        half = 0.5 * (b - a)
        k = max(0, int(np.ceil(np.log(half / finest) / np.log(1.0 / ratio)))) if half > finest else 0
        steps = half * ratio ** np.arange(k, -1, -1)  # finest ... half
        left = a + steps
        right = b - steps[::-1][1:]
        edges.extend(left.tolist())
        edges.extend(right.tolist())
        edges.append(b)
    e = np.unique(np.asarray(edges))
    return e


def _nodes(lo, hi, cuts, scale, rule):
    n, ratio, share = rule
    edges = _graded_edges(lo, hi, cuts, share * scale, ratio)
    x, wt = _RULES[n]
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * wt).ravel()


def _zeeman_edges(h: float, Y: float):
    """eta where E = sqrt(eta^2 + Y) equals h, and eta = 0."""
    pts = [0.0]
    if h * h > Y:
        r = np.sqrt(h * h - Y)
        pts += [-r, r]
    return pts


def _scale(T: float, Y: float) -> float:
    return min(T, np.sqrt(Y)) if Y > 0 else T


def _batch(states, build, integrand, rule):
    """Sum integrand over each state's nodes in one vectorised pass."""
    xs, ws, idx, cols = [], [], [], []
    for i, st in enumerate(states):
        for x, w, extra in build(st, rule):
            xs.append(x)
            ws.append(w)
            idx.append(np.full(x.size, i))
            cols.append(np.broadcast_to(np.asarray(extra, dtype=float), (x.size, len(extra))))
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    idx = np.concatenate(idx)
    cols = np.concatenate(cols)
    return np.bincount(idx, weights=w * integrand(x, cols), minlength=len(states))


def _converged(states, build, integrand) -> np.ndarray:
    base = _batch(states, build, integrand, _BASE)
    dense = _batch(states, build, integrand, _DENSE)
    dev = np.abs(dense - base) / np.maximum(1.0, np.abs(dense))
    worst = int(np.argmax(dev)) if dev.size else 0
    if dev.size and dev[worst] > CONVERGED:
        raise ReferenceError(
            f"reference mesh not converged at state {states[worst]!r}: "
            f"base {base[worst]!r} vs dense {dense[worst]!r}"
        )
    return dense


# -- F(T, H, Y) ----------------------------------------------------------------


def _f_build(st, rule):
    T, H, Y, m = st
    s, h, w = m.shift(H), m.mu_B * H, m.hbar_omega_D
    x, wt = _nodes(-w + s, w + s, _zeeman_edges(h, Y), _scale(T, Y), rule)
    yield x, wt, (T, h, Y)


def _f_integrand(eta, cols):
    T, h, Y = cols.T
    E = np.sqrt(eta * eta + Y)
    weight = 0.5 * (np.tanh(0.5 * (E + h) / T) + np.tanh(0.5 * (E - h) / T))
    return weight / E


def F_ref(states) -> np.ndarray:
    """F(T, H, Y) for a list of (T, H, Y, Material) states."""
    states = list(states)
    if not states:
        return np.zeros(0)
    integral = _converged(states, _f_build, _f_integrand)
    return integral - np.array([1.0 / st[3].U1 for st in states])


# -- grand potentials ----------------------------------------------------------


@dataclass(frozen=True)
class Dos:
    """Density of states D(eps): kind 'constant', 'linear' or 'sqrt'."""

    kind: str
    slope: float = 0.0

    def __call__(self, eps, m: Material):
        if self.kind == "constant":
            return np.ones_like(eps)
        if self.kind == "linear":
            return 1.0 + self.slope * (eps - m.mu) / m.hbar_omega_D
        if self.kind == "sqrt":
            return np.sqrt(eps / m.mu)
        raise ValueError(f"unknown DOS kind {self.kind!r}")


def _fermi(x):
    return 0.5 * (1.0 - np.tanh(0.5 * x))


def _omega_parts(m: Material, dos: Dos):
    def build(st, rule):
        T, H, Y = st
        s, h, w = m.shift(H), m.mu_B * H, m.hbar_omega_D
        cuts = _zeeman_edges(h, Y)
        for spin, lo, hi in ((+1.0, -w - h, w - h), (-1.0, -w + h, w + h)):
            x, wt = _nodes(lo, hi, cuts, _scale(T, Y), rule)
            yield x, 0.5 * wt, (T, h, Y, s, spin)

    def integrand(eta, cols):
        T, h, Y, s, spin = cols.T
        E = np.sqrt(eta * eta + Y)
        E_safe = np.where(E > 0, E, 1.0)
        e_spin = E + spin * h
        # spin up: eta - eta^2/E - (Y/E) f((E+h)/T)
        # spin dn: eta - (eta^2 + 2Y)/E + (Y/E) f(-(E-h)/T)
        core = np.where(
            spin > 0,
            eta - eta * eta / E_safe - (Y / E_safe) * _fermi(e_spin / T),
            eta - (eta * eta + 2.0 * Y) / E_safe + (Y / E_safe) * _fermi(-e_spin / T),
        )
        core = np.where(E > 0, core, eta)
        bracket = core - 2.0 * T * np.logaddexp(0.0, -e_spin / T)
        return dos(eta - s + m.mu, m) * bracket

    return build, integrand


def omega_ref(states, m: Material, dos: Dos) -> np.ndarray:
    """Grand potential at a list of (T, H, Y) states; Y = 0 gives the normal state."""
    states = list(states)
    if not states:
        return np.zeros(0)
    return _converged(states, *_omega_parts(m, dos))


# -- roots -----------------------------------------------------------------------


def tau1_ref(m: Material, rel_tol: float = 1e-14) -> float:
    """Zero-field transition temperature: bisection on F_ref(T, 0, 0)."""
    lo = hi = m.hbar_omega_D * np.exp(-0.5 / m.U1)
    while F_ref([(hi, 0.0, 0.0, m)])[0] > 0:
        hi *= 2.0
    while F_ref([(lo, 0.0, 0.0, m)])[0] < 0:
        lo *= 0.5
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if F_ref([(mid, 0.0, 0.0, m)])[0] > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
