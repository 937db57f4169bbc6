import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

from blowuplab import params, profile, spectral

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
