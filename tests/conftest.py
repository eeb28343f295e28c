import numpy as np
import pytest

from bcsfield import MaterialParams, domain_from, numerics, solve_tau1


def trapezoid(y, x):
    """Composite trapezoid on a uniform grid; brute-force test oracle."""
    dx = x[1] - x[0]
    return dx * (0.5 * y[0] + y[1:-1].sum() + 0.5 * y[-1])


def central_diff(f, x, h):
    """Second-order central difference (f(x+h) - f(x-h)) / (2h); test oracle."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture(scope="session")
def p():
    return MaterialParams()  # hbar_omega_D=1, mu=10, U1=0.15, a=0.5, b=0.1, mu_B=1


@pytest.fixture(scope="session")
def tau1(p):
    return solve_tau1(p)


@pytest.fixture(scope="session")
def dbox(p, tau1):
    # T0 = 0.8 tau1 keeps H_c(T0) below the domain cap for these constants.
    return domain_from(p, 0.8 * tau1, tau1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def integrand_calls(monkeypatch):
    """``[integrand calls, panels]`` the quadrature evaluates."""
    calls = [0, 0]
    gk15_many = numerics._gk15_many

    def counted_gk15_many(f, a, b, owner):
        def counted(*args):
            calls[0] += 1
            calls[1] += args[1].size
            return f(*args)

        return gk15_many(counted, a, b, owner)

    monkeypatch.setattr(numerics, "_gk15_many", counted_gk15_many)
    return calls
