"""Spans at the module boundaries of ``bcsfield``, recorded from outside the package.

:class:`Tracer` replaces public functions of the package's modules with
wrappers that record one span (name, start, end, parent) per call.  A
function is replaced in its defining module and in every package module that
imported it, so a call is seen wherever it crosses from one module into
another (and, for the few functions a module also calls itself, such as
``thermo.psi`` from ``entropy_gap_fd``, there as well).  Integrands handed to
``numerics.integrate`` are wrapped too, so the time spent inside them is
attributed to the module that supplied them (``kernel.integrand``,
``thermo.integrand``) and the time left in
``integrate`` is quadrature bookkeeping.

The elementwise helpers (``fermi``, ``log1p_exp_neg`` and so on) are not
wrapped: every call to them happens inside an integrand span, and one span per
helper call would cost more than the helpers.

Spans are kept in flat arrays in memory; :meth:`Tracer.save` writes them out
and :meth:`Tracer.layers` derives per-layer counts, busy time (outermost spans
of a name) and self time (duration minus direct children).
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from importlib import import_module

import numpy as np

MODULES = ("kernel", "numerics", "params", "solvers", "thermo", "phase_diagram", "cli")

# (defining module, function, span name)
WRAPPED = (
    ("kernel", "F_eval", "kernel.F_eval"),
    ("kernel", "F_partials", "kernel.F_partials"),
    ("params", "domain_from", "params.domain_from"),
    ("solvers", "solve_tau1", "solvers.solve_tau1"),
    ("solvers", "solve_hc", "solvers.solve_hc"),
    ("solvers", "solve_gap_squared", "solvers.solve_gap_squared"),
    ("solvers", "implicit_partials", "solvers.implicit_partials"),
    ("thermo", "grand_potential_S", "thermo.grand_potential"),
    ("thermo", "grand_potential_N", "thermo.grand_potential"),
    ("thermo", "psi", "thermo.psi"),
    ("thermo", "entropy_gap", "thermo.entropy_gap"),
    ("thermo", "entropy_gap_fd", "thermo.entropy_gap_fd"),
    ("phase_diagram", "run_sweep", "phase_diagram.run_sweep"),
    ("phase_diagram", "write_csv", "phase_diagram.write_csv"),
)

# Modules that pass integrands to numerics.integrate on the workloads' paths.
INTEGRAND_OWNERS = ("kernel", "thermo")


class Tracer:
    """In-memory span recorder; :meth:`install` patches the package, :meth:`remove` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, span: str, fn):
        """Return fn wrapped so that each call records one span named ``span``."""
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _integrate_for(self, owner: str, integrate):
        counters = self.counters
        key = f"{owner}.integrand.nodes"
        span_integrand = f"{owner}.integrand"
        traced_integrate = self.wrap("numerics.integrate", integrate)

        def integrate_with_counted_integrand(f, lo, hi, spec=None):
            def counted(x):
                counters[key] += np.size(x)
                return f(x)

            return traced_integrate(self.wrap(span_integrand, counted), lo, hi, spec)

        return integrate_with_counted_integrand

    def _find_root(self, find_root):
        counters = self.counters
        traced = self.wrap("numerics.find_root", find_root)

        def find_root_with_counted_g(g, lo, hi, spec=None):
            def counted(x):
                counters["numerics.find_root.g_evals"] += 1
                return g(x)

            return traced(counted, lo, hi, spec)

        return find_root_with_counted_g

    def _solve_gap(self, solve):
        counters = self.counters
        traced = self.wrap("solvers.solve_gap_squared", solve)

        def solve_with_exit_count(*args, **kwargs):
            sol = traced(*args, **kwargs)
            counters["solvers.solve_gap_squared.boundary_exits"] += bool(sol.boundary)
            return sol

        return solve_with_exit_count

    def _write_csv(self, write):
        counters = self.counters
        traced = self.wrap("phase_diagram.write_csv", write)

        def write_with_bytes(*args, **kwargs):
            paths = traced(*args, **kwargs)
            counters["phase_diagram.write_csv.bytes"] += sum(os.path.getsize(p) for p in paths)
            return paths

        return write_with_bytes

    # -- patching ----------------------------------------------------------------

    def _set(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        mods = {m: import_module(f"bcsfield.{m}") for m in MODULES}
        for owner in INTEGRAND_OWNERS:
            self._set(mods[owner], "integrate", self._integrate_for(owner, mods["numerics"].integrate))
        self._set(mods["solvers"], "find_root_decreasing",
                  self._find_root(mods["numerics"].find_root_decreasing))
        special = {"solve_gap_squared": self._solve_gap, "write_csv": self._write_csv}
        for home, fn_name, span in WRAPPED:
            original = getattr(mods[home], fn_name)
            wrapper = special[fn_name](original) if fn_name in special else self.wrap(span, original)
            for mod in mods.values():
                if getattr(mod, fn_name, None) is original:
                    self._set(mod, fn_name, wrapper)

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output ----------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)

    def layers(self, scale=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans only), self_s, and call durations.

        ``scale(start_ns)``, if given, returns a factor for each span's duration.
        """
        name, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        if scale is not None:
            dur *= scale(start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        outermost = np.ones(dur.size, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            same = np.zeros(dur.size, dtype=bool)
            same[live] = name[anc[live]] == name[live]
            outermost &= ~same
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)
        out = {}
        for nid, span in enumerate(self.names):
            sel = name == nid
            out[span] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[sel & outermost].sum()) * 1e-9,
                "self_s": float(own[sel].sum()) * 1e-9,
                "durations_s": dur[sel] * 1e-9,
            }
        return out
