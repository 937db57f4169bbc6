"""Nonlinear coupling constants D_n.

The projection of the cubic nonlinearity onto the eigenbasis scales as
D_n eps^{gamma+delta} with delta = min(omega, 2*gamma), and D_n is set by
whichever region dominates:

    omega < 2*gamma (inner):  D_n = c_n int_0^inf g(xi) xi^{d-3-gamma} dxi
    omega > 2*gamma (outer):  D_n = 2k(d+k-2)h^3/(3 c_N^3)
                                    * int_0^inf phi_N^3 phi_n y^{d-3} e^{-y^2/4} dy

with the profile-dependent g(xi) = k(d+k-2)/2 * (sin(v) - v), v = 2U* - pi.
The outer prefactor uses the general k(d+k-2) factor that follows from the
cubic Taylor term (it reduces to 2(d-1) only at k=1).

At omega = 2*gamma both integrals diverge logarithmically; that regime is
rejected upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, roots_genlaguerre

from .errors import DegenerateRegime, RegimeMismatch
from .params import Regime
from .profile import eval_u


@dataclass
class CouplingConstants:
    regime: Regime
    N: int
    D: np.ndarray        # D[n] for n <= max_n
    delta: float
    diagnostics: dict = field(default_factory=dict)


def g_function(profile, xi):
    """g(xi) = k(d+k-2)/2 * (sin(v) - v) >= 0, with the xi^{-3 gamma} tail
    formula used beyond the orbit's switch point."""
    consts = profile.consts
    d, k = consts.params.d, consts.params.k
    pref = 0.5 * k * (d + k - 2.0)
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    out = np.empty_like(xi)
    xi_hi = math.exp(profile.x_switch)
    far = xi > xi_hi
    near = ~far
    if near.any():
        v = 2.0 * eval_u(profile, xi[near]) - math.pi
        # sin(v) - v cancels catastrophically for small |v|; switch to the
        # Taylor series well before that happens
        small = np.abs(v) < 1e-2
        direct = np.sin(v) - v
        v2 = v * v
        series = -(v * v2 / 6.0) * (1.0 - v2 / 20.0 * (1.0 - v2 / 42.0))
        out[near] = pref * np.where(small, series, direct)
    if far.any():
        out[far] = g_tail_coefficient(profile) * xi[far] ** (-3.0 * consts.gamma)
    return out[0] if scalar else out


def g_tail_coefficient(profile):
    """lim xi^{3 gamma} g(xi) = 2k(d+k-2)h^3/3."""
    d, k = profile.consts.params.d, profile.consts.params.k
    return (2.0 / 3.0) * k * (d + k - 2.0) * profile.h**3


def inner_integral(profile, upper=None):
    """int_0^upper g(xi) xi^{d-3-gamma} dxi; upper=None integrates to
    infinity with the closed-form tail (requires omega < 2*gamma).

    Evaluated in x = log(xi), where the integrand g(e^x) e^{(d-2-gamma) x}
    decays exponentially in both directions; the piece below the stored
    orbit uses g ~ g(0) and the piece above x_switch the xi^{-3 gamma}
    tail, both in closed form."""
    consts = profile.consts
    d = consts.params.d
    gam, om = consts.gamma, consts.omega
    p = d - 2.0 - gam  # == gamma + omega > 0
    x_lo = float(profile.x[0])
    x_sw = profile.x_switch

    def integrand(x):
        xi = math.exp(x)
        return float(g_function(profile, xi)) * xi**p

    g0 = 0.5 * consts.params.k * (d + consts.params.k - 2.0) * math.pi
    x_up = x_sw if upper is None else min(x_sw, math.log(upper))
    val = 0.0
    if x_up > x_lo:
        v, _ = quad(integrand, x_lo, x_up, limit=400)
        val += v
    # origin piece: g -> g(0), integral g(0) xi^p / p
    val += g0 * math.exp(p * min(x_lo, x_up)) / p
    A = g_tail_coefficient(profile)
    # tail integrand ~ A xi^{omega - 2 gamma - 1}
    if upper is None:
        if om >= 2.0 * gam:
            raise RegimeMismatch("inner integral diverges for omega >= 2*gamma")
        val += A * math.exp((om - 2.0 * gam) * x_sw) / (2.0 * gam - om)
    elif upper > math.exp(x_sw):
        val += A * (upper ** (om - 2.0 * gam) - math.exp((om - 2.0 * gam) * x_sw)) \
            / (om - 2.0 * gam)
    return val


def inner_constant(profile, basis, n):
    """D_n in the inner-dominated regime: c_n times the profile integral."""
    consts = profile.consts
    if consts.regime is not Regime.INNER_DOMINATED:
        raise RegimeMismatch("inner_constant requires omega < 2*gamma")
    return basis.c_origin[n] * inner_integral(profile)


def outer_integral(basis, N, n):
    """int_0^inf phi_N^3 phi_n y^{d-3} e^{-y^2/4} dy via a Gauss-Laguerre
    rule matched to the y^{omega-2gamma-1} origin behavior (exact for the
    Laguerre polynomial part)."""
    consts = basis.consts
    d = consts.params.d
    gam, om = consts.gamma, consts.omega
    if om <= 2.0 * gam:
        raise RegimeMismatch("outer integral diverges for omega <= 2*gamma")
    alpha = 0.5 * (om - 2.0 * gam) - 1.0
    z, w = roots_genlaguerre(2 * (3 * N + n) + 32, alpha)
    a = basis._alpha
    LN = eval_genlaguerre(N, a, z)
    Ln = eval_genlaguerre(n, a, z)
    pref = basis.norm[N] ** 3 * basis.norm[n] * 2.0 ** (d - 3.0 - 4.0 * gam)
    return pref * float(np.sum(w * LN**3 * Ln))


def _outer_prefactor(profile, basis, N):
    """2k(d+k-2)h^3 / (3 c_N^3), the factor of the outer integral in D_n."""
    d, k = basis.consts.params.d, basis.consts.params.k
    return 2.0 * k * (d + k - 2.0) * profile.h**3 / (3.0 * basis.c_origin[N] ** 3)


def outer_constant(profile, basis, N, n):
    """D_n in the outer-dominated regime (the paper's T_n)."""
    if basis.consts.regime is not Regime.OUTER_DOMINATED:
        raise RegimeMismatch("outer_constant requires omega > 2*gamma")
    return _outer_prefactor(profile, basis, N) * outer_integral(basis, N, n)


def outer_integral_truncated(basis, N, n, y_lo):
    """Adaptive evaluation of the outer integral on [y_lo, inf)."""
    d = basis.consts.params.d

    def integrand(y):
        return float(basis.phi(N, y)) ** 3 * float(basis.phi(n, y)) \
            * y ** (d - 3.0) * math.exp(-0.25 * y * y)

    y_hi = float(basis.nodes_y[-1])
    val, _ = quad(integrand, y_lo, y_hi, limit=400)
    return val


def dominance_diagnostic(profile, basis, N, eps, K=None):
    """Truncated I_inn(K, eps) and I_out(K, eps) for n = N, used to confirm
    which contribution dominates as eps -> 0 (default crossover K = sqrt(eps))."""
    consts = profile.consts
    gam = consts.gamma
    if K is None:
        K = math.sqrt(eps)
    I_inn = basis.c_origin[N] * eps ** (consts.params.d - 2.0 - gam) \
        * inner_integral(profile, upper=K / eps)
    I_out = _outer_prefactor(profile, basis, N) * eps ** (3.0 * gam) \
        * outer_integral_truncated(basis, N, N, K)
    return I_inn, I_out


def coupling_constants(profile, basis, N, max_n=None):
    """Dispatch D_n for n <= max_n to the regime's integral and attach the
    raw-integral diagnostics."""
    consts = profile.consts
    if abs(consts.omega - 2.0 * consts.gamma) < 1e-12:
        raise DegenerateRegime("omega == 2*gamma: both integrals diverge")
    if max_n is None:
        max_n = basis.max_n
    if consts.regime is Regime.INNER_DOMINATED:
        base = inner_integral(profile)
        D = np.array([basis.c_origin[n] * base for n in range(max_n + 1)])
        diagnostics = {"inner_integral": base}
    else:
        D = np.array([outer_constant(profile, basis, N, n) for n in range(max_n + 1)])
        diagnostics = {"outer_integral_N": outer_integral(basis, N, N)}
    return CouplingConstants(
        regime=consts.regime,
        N=N,
        D=D,
        delta=consts.delta,
        diagnostics=diagnostics,
    )
