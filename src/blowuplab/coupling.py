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

The outer integral is z^alpha e^{-z} times a polynomial in z = y^2/4, so
a generalized Gauss-Laguerre rule of its exact size, (3N + max_n)//2 + 1
nodes, gives it to rounding.  The integrals that no closed rule covers, the
inner one and the truncated outer one, take a GAUSS_NODES-point
Gauss-Legendre rule per panel (Golub & Welsch, Math. Comp. 23, 1969) with
every node evaluated in one array call.
The inner integral's panels are the Taylor steps of the profile orbit: on
each step v is one polynomial, so the integrand is analytic there and the
rule converges geometrically.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import FloatRangeExceeded, RegimeMismatch
from .params import Regime
from .profile import eval_u
from .spectral import gauss_laguerre, laguerre

#: nodes of the Gauss-Legendre rule on every panel of the inner and the
#: truncated outer integral
GAUSS_NODES = 12

#: equal panels in log y of the truncated outer integral
OUTER_PANELS = 32


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
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    out = np.empty_like(xi)
    xi_hi = math.exp(profile.x_switch)
    far = xi > xi_hi
    near = ~far
    if near.any():
        out[near] = _g_of_v(consts, 2.0 * eval_u(profile, xi[near]) - math.pi)
    if far.any():
        out[far] = g_tail_coefficient(profile) * xi[far] ** (-3.0 * consts.gamma)
    return out[0] if scalar else out


def _g_of_v(consts, v):
    """g = k(d+k-2)/2 * (sin(v) - v) at v = 2U* - pi, an array.  sin(v) - v
    cancels catastrophically for small |v|; the Taylor series takes over well
    before that happens."""
    pref = 0.5 * consts.params.kappa
    v2 = v * v
    series = -(v * v2 / 6.0) * (1.0 - v2 / 20.0 * (1.0 - v2 / 42.0))
    return pref * np.where(np.abs(v) < 1e-2, series, np.sin(v) - v)


def g_tail_coefficient(profile):
    """lim xi^{3 gamma} g(xi) = 2k(d+k-2)h^3/3."""
    return (2.0 / 3.0) * profile.consts.params.kappa * profile.h**3


@functools.lru_cache(maxsize=1)
def _legendre_rule():
    """Nodes and weights of the GAUSS_NODES-point Gauss-Legendre rule on
    [-1, 1], read-only."""
    t, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _panel_sum(f, edges):
    """int_{edges[0]}^{edges[-1]} f by the Gauss-Legendre rule on each panel
    [edges[i], edges[i+1]]; f takes the (panels, GAUSS_NODES) array of all
    nodes at once."""
    t, w = _legendre_rule()
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * t
    return float(np.sum(half * w * f(x)))


def inner_integral(profile, upper=None):
    """int_0^upper g(xi) xi^{d-3-gamma} dxi; upper=None integrates to
    infinity with the closed-form tail (requires omega < 2*gamma).

    Evaluated in x = log(xi), where the integrand g(e^x) e^{(d-2-gamma) x}
    decays exponentially in both directions.  On the stored orbit it is
    integrated by the Gauss-Legendre rule on each Taylor step of v(x),
    clipped to [x[0], min(x_switch, log upper)]: 12 nodes a step agree with
    an adaptive rule at epsrel 2e-14, split at the steps, to 1e-13 relative.
    The piece below the orbit uses g ~ g(0) and the piece above x_switch the
    xi^{-3 gamma} tail, both in closed form."""
    consts = profile.consts
    d = consts.params.d
    gam, om = consts.gamma, consts.omega
    p = d - 2.0 - gam  # == gamma + omega > 0
    x_lo = float(profile.x[0])
    x_sw = profile.x_switch

    def integrand(x):
        return _g_of_v(consts, profile.orbit(x)[0]) * np.exp(p * x)

    g0 = float(_g_of_v(consts, -math.pi))
    x_up = x_sw if upper is None else min(x_sw, math.log(upper))
    val = 0.0
    if x_up > x_lo:
        starts = profile.orbit.starts
        inside = starts[(starts > x_lo) & (starts < x_up)]
        val += _panel_sum(integrand, np.concatenate(([x_lo], inside, [x_up])))
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


def outer_integral(basis, N, n):
    """int_0^inf phi_N^3 phi_n y^{d-3} e^{-y^2/4} dy, for an int n or an array
    of them, via a Gauss-Laguerre rule in z = y^2/4 for the weight
    z^alpha e^{-z}, alpha = (omega - 2 gamma)/2 - 1, the y^{omega-2gamma-1}
    origin behavior.  What is left is the Laguerre polynomial part, of degree
    3N + n, so the rule of (3N + n_max)//2 + 1 nodes, n_max the larger of
    max(n) and basis.max_n, is exact for every n and serves them all in one
    pass.  At large N (from 84 at d = 12) L_N^3 overflows and the sum
    is inf or nan, which coupling_constants refuses."""
    consts = basis.consts
    d = consts.params.d
    gam, om = consts.gamma, consts.omega
    if om <= 2.0 * gam:
        raise RegimeMismatch("outer integral diverges for omega <= 2*gamma")
    alpha = 0.5 * (om - 2.0 * gam) - 1.0
    n_max = max(int(np.max(n)), basis.max_n)
    z, w = gauss_laguerre((3 * N + n_max) // 2 + 1, alpha)
    L = laguerre(n_max, basis._alpha, z)
    LN, Ln = L[N], L[n]
    pref = basis.norm[N] ** 3 * basis.norm[n] * 2.0 ** (d - 3.0 - 4.0 * gam)
    with np.errstate(over="ignore", invalid="ignore"):
        return pref * np.sum(w * LN**3 * Ln, axis=-1)


def _outer_prefactor(profile, basis, N):
    """2k(d+k-2)h^3 / (3 c_N^3), the factor of the outer integral in D_n.
    Raises FloatRangeExceeded once N_N^4, the scale of that integral at
    n = N, is below the normal floats, so that D_N would lose its digits
    (k = 1, N = 1: from d ~ 151.7 on).  c_N >= N_N keeps 1/c_N^3 finite."""
    params = basis.consts.params
    if not basis.norm[N] ** 4 >= sys.float_info.min:
        raise FloatRangeExceeded(
            f"N_N^4 = {basis.norm[N] ** 4:.3g} underflows at d = {params.d:g}: "
            "D_N would lose its digits")
    return 2.0 * params.kappa * profile.h**3 / (3.0 * basis.c_origin[N] ** 3)


def outer_integral_truncated(basis, N, n, y_lo):
    """The outer integral on [y_lo, inf), cut at the largest node of the
    basis's quadrature rule, by the Gauss-Legendre rule on OUTER_PANELS
    equal panels in log y: within 1e-15 of an adaptive rule at epsrel 1e-13
    for d = 8-12 and y_lo = 1e-4 to 0.1."""
    d = basis.consts.params.d

    def integrand(s):       # in s = log y: y^{d-3} dy = y^{d-2} ds
        y = np.exp(s)
        return basis.phi(N, y) ** 3 * basis.phi(n, y) \
            * y ** (d - 2.0) * np.exp(-0.25 * y * y)

    y_hi = float(basis.nodes_y[-1])
    return _panel_sum(integrand, np.linspace(math.log(y_lo), math.log(y_hi),
                                             OUTER_PANELS + 1))


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


def coupling_constants(profile, basis, N):
    """D_n for n <= basis.max_n from the regime's integral, with the raw
    integral (for n = N in the outer regime) as a diagnostic.  Raises
    FloatRangeExceeded if a D_n is not a finite float."""
    consts = profile.consts
    if consts.regime is Regime.INNER_DOMINATED:
        base = inner_integral(profile)
        D = basis.c_origin * base
        diagnostics = {"inner_integral": base}
    else:
        outer = outer_integral(basis, N, np.arange(basis.max_n + 1))
        D = _outer_prefactor(profile, basis, N) * outer
        diagnostics = {"outer_integral_N": float(outer[N])}
    if not np.all(np.isfinite(D)):
        raise FloatRangeExceeded(
            f"D_n is not a finite float at d = {consts.params.d:g}, "
            f"k = {consts.params.k}, N = {N}")
    return CouplingConstants(
        regime=consts.regime,
        N=N,
        D=D,
        delta=consts.delta,
        diagnostics=diagnostics,
    )
