import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import eval_genlaguerre

from blowuplab import meshsim, params, profile, spectral

#: parameter points exercised throughout the suite
POINTS = [(7.0, 1), (8.0, 1), (9.0, 1), (12.0, 2)]


def c_origin_by_quadrature(consts, n):
    """c_n = L_n^(omega/2)(0) / sqrt(<y^-gamma L_n(y^2/4), same>_rho), the
    norm by adaptive quadrature: independent of the closed-form N_n and of
    the Gauss-Laguerre rule that build_basis uses.  y^(d-1-2 gamma) is
    y^-2gamma y^(d-1) in one power."""
    d, alpha = consts.params.d, consts.omega / 2.0

    def integrand(y):
        return (y ** (d - 1.0 - 2.0 * consts.gamma)
                * eval_genlaguerre(n, alpha, 0.25 * y * y) ** 2
                * math.exp(-0.25 * y * y))

    norm2 = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]
    return eval_genlaguerre(n, alpha, 0.0) / math.sqrt(norm2)


@pytest.fixture
def kink_config():
    """d=8 data with a concave kink between the first two nodes of the first
    chunk: u = 10 r up to their geometric mean rk, then flat to r = 1.  On
    the whole grid sup |u_r| is 10; on the first chunk's nodes the origin
    gradient through the kink is 14.5, whose _first_node lies 3 nodes
    lower.  The tables are lists, so that a config file can take them."""
    cfg = meshsim.SimConfig(params=params.ModelParams(d=8.0, k=1), M=161,
                            rtol=1e-6, max_gradient=1e6)
    first = meshsim._first_node(cfg, 10.0)
    r = meshsim._chunk(cfg, first, 0.0).r
    rk = float(math.sqrt(r[1] * r[2]))
    assert first == 68 and rk == pytest.approx(1.0163598813e-05, rel=1e-10)
    cfg.initial_data = [[0.0, rk, 1.0, 2.0], [0.0, 10 * rk, 10 * rk, 2.0]]
    return cfg


def eps_by_dop853(rc, eps0, s):
    """eps on the nodes s (from s[0] = 0) of the eps ODE integrated by DOP853
    at rtol 1e-12 in l = log eps, gamma l' = -lambda_N - b e^{delta l}, so
    that the tolerance on l bounds the relative error of eps: independent of
    the exact solution that rates evaluates."""
    def rhs(_, ell):
        return (-rc.lam - rc.b * np.exp(rc.delta * ell)) / rc.gamma

    sol = solve_ivp(rhs, (s[0], s[-1]), [math.log(eps0)], method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=s)
    assert sol.success, sol.message
    return np.exp(sol.y[0])


@pytest.fixture(scope="session")
def consts_at():
    cache = {}

    def get(d, k):
        if (d, k) not in cache:
            cache[(d, k)] = params.derive(params.ModelParams(d=d, k=k))
        return cache[(d, k)]

    return get


@pytest.fixture(scope="session")
def profile_at(consts_at):
    cache = {}

    def get(d, k):
        if (d, k) not in cache:
            cache[(d, k)] = profile.solve_profile(consts_at(d, k))
        return cache[(d, k)]

    return get


@pytest.fixture(scope="session")
def basis_at(consts_at):
    cache = {}

    def get(d, k, max_n=8):
        if (d, k, max_n) not in cache:
            cache[(d, k, max_n)] = spectral.build_basis(
                consts_at(d, k), max_n=max_n)
        return cache[(d, k, max_n)]

    return get
