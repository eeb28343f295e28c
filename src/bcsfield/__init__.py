"""Solvers for the superconducting gap equation with an external magnetic field.

The package computes, for a constant pairing coupling over a Debye window:

* the zero-field transition temperature;
* the critical magnetic field curve H_c(T) and its closed-form slope at the
  transition temperature;
* the gap function delta(T, H) and its implicit derivatives;
* grand potentials over the spin-split windows, their difference, and the
  entropy gap across the first-order transition.

Everything is pure-function numerics on top of one kernel F(T, H, Y) that is
strictly decreasing in each argument on a validated working box, so every
solved quantity is a unique bracketed root.
"""

from .kernel import (
    F_eval,
    F_eval_many,
    F_partials,
    F_partials_many,
    StatePoint,
    fermi,
    thermal_weight,
)
from .numerics import (
    BracketError,
    NumericsError,
    QuadratureError,
    QuadSpec,
    RootBelowBracket,
    RootResult,
    RootSpec,
    find_root_decreasing,
    find_root_decreasing_many,
    integrate,
    integrate_many,
)
from .params import (
    Z_CAP,
    DomainBox,
    MaterialParams,
    domain_from,
    load_params,
    validate,
)
from .phase_diagram import SweepError, SweepResult, SweepSpec, run_sweep, write_csv
from .solvers import (
    DomainWarning,
    GapSolution,
    SingularDerivativeError,
    hc_slope_at_tc,
    implicit_partials,
    implicit_partials_many,
    solve_gap_squared,
    solve_gap_squared_many,
    solve_hc,
    solve_hc_many,
    solve_tau1,
)
from .thermo import (
    DosModel,
    ThermoPoint,
    dos_constant,
    dos_eval,
    dos_linear,
    dos_sqrt,
    dos_tabulated,
    entropy_gap,
    entropy_gap_fd,
    entropy_gap_fd_many,
    entropy_gap_many,
    grand_potential_N,
    grand_potential_S,
    load_dos_table,
    psi,
    psi_many,
)

__version__ = "0.1.0"
