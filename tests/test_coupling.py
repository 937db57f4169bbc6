import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import eval_genlaguerre, roots_genlaguerre

from blowuplab import coupling
from blowuplab.errors import FloatRangeExceeded, RegimeMismatch
from blowuplab.params import Regime
from blowuplab.coupling import (
    coupling_constants,
    dominance_diagnostic,
    g_function,
    g_tail_coefficient,
    inner_integral,
    outer_integral,
    outer_integral_truncated,
)

CASES = [(7.0, 1, 1), (8.0, 1, 1), (9.0, 1, 1), (12.0, 2, 2)]

# frozen D_N values (defaults everywhere); the (9,1) case is the only
# outer-dominated one
DN_ORACLE = {
    (7.0, 1, 1): 1.84380007,
    (8.0, 1, 1): 10.19283294,
    (9.0, 1, 1): 1.77469714,
    (12.0, 2, 2): 3.47149299,
}


@pytest.mark.parametrize("d,k,N", CASES)
def test_DN_positive_and_frozen(profile_at, basis_at, d, k, N):
    cc = coupling_constants(profile_at(d, k), basis_at(d, k), N)
    DN = cc.D[N]
    assert DN > 0
    assert DN == pytest.approx(DN_ORACLE[(d, k, N)], abs=5e-8)


@pytest.mark.parametrize("d,k,N", CASES)
def test_regime_dispatch(consts_at, profile_at, basis_at, d, k, N):
    c = consts_at(d, k)
    cc = coupling_constants(profile_at(d, k), basis_at(d, k), N)
    expected = (Regime.INNER_DOMINATED if c.omega < 2 * c.gamma
                else Regime.OUTER_DOMINATED)
    assert cc.regime is expected
    key = "inner_integral" if expected is Regime.INNER_DOMINATED \
        else "outer_integral_N"
    assert key in cc.diagnostics


def test_g_at_origin(profile_at):
    p = profile_at(8.0, 1)
    assert g_function(p, 0.0) == pytest.approx(0.5 * 7.0 * math.pi, rel=1e-10)


def test_g_rejects_nan_and_vanishes_at_inf(profile_at):
    # NaN goes to eval_u, which rejects it; g(inf) is the tail formula's 0
    p = profile_at(8.0, 1)
    for xi in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            g_function(p, xi)
    assert g_function(p, math.inf) == 0.0


def test_g_nonnegative(profile_at):
    p = profile_at(8.0, 1)
    xi = np.geomspace(1e-5, 1e6, 2000)
    assert np.all(g_function(p, xi) >= 0)


def test_g_tail_limit(profile_at):
    p = profile_at(7.0, 1)
    xi = math.exp(p.x_switch) * 0.98  # just inside the stored orbit
    lim = g_tail_coefficient(p)
    # the subdominant tail exponential contributes at the 1e-5 level here
    assert xi ** (3 * p.consts.gamma) * g_function(p, xi) == pytest.approx(
        lim, rel=1e-4)


@pytest.mark.parametrize("d,k", [(7.0, 1), (8.0, 1), (12.0, 2)])
def test_inner_integral_second_scheme(profile_at, d, k):
    """Gauss-Legendre per Taylor step vs. composite Simpson on a dense log grid."""
    p = profile_at(d, k)
    c = p.consts
    base = inner_integral(p)
    pw = d - 2.0 - c.gamma
    x = np.linspace(p.x[0], p.x_switch, 20001)
    xi = np.exp(x)
    val = simpson(g_function(p, xi) * xi**pw, x=x)
    val += 0.5 * k * (d + k - 2.0) * math.pi * math.exp(pw * p.x[0]) / pw
    val += g_tail_coefficient(p) * math.exp(
        (c.omega - 2 * c.gamma) * p.x_switch) / (2 * c.gamma - c.omega)
    assert val == pytest.approx(base, rel=1e-6)


def test_outer_integral_second_scheme(basis_at):
    """Gauss-Laguerre vs. panel Gauss-Legendre plus the analytic small-y piece."""
    basis = basis_at(9.0, 1)
    c = basis.consts
    gl = outer_integral(basis, 1, 1)
    y_lo = 1e-4
    tail = outer_integral_truncated(basis, 1, 1, y_lo)
    cn = basis.c_origin[1]
    small = cn**4 * y_lo ** (c.omega - 2 * c.gamma) / (c.omega - 2 * c.gamma)
    assert tail + small == pytest.approx(gl, rel=1e-6)


def test_inner_integral_diverges_in_outer_regime(profile_at):
    with pytest.raises(RegimeMismatch):
        inner_integral(profile_at(9.0, 1))


def test_outer_integral_diverges_in_inner_regime(basis_at):
    with pytest.raises(RegimeMismatch):
        outer_integral(basis_at(8.0, 1), 1, 1)


def test_outer_coupling_past_float_range_is_typed(profile_at, basis_at):
    # N_N^4 leaves the normal floats at d ~ 151.7 (k = 1, N = 1), and D_N
    # came out as 0.0 at d = 160; d = 150 still computes
    assert np.isfinite(coupling_constants(profile_at(150.0, 1),
                                          basis_at(150.0, 1), 1).D[1])
    with pytest.raises(FloatRangeExceeded, match="N_N"):
        coupling_constants(profile_at(160.0, 1), basis_at(160.0, 1), 1)


def test_outer_coupling_past_float_range_at_large_N_is_typed(profile_at,
                                                             basis_at):
    # L_N^3 on the outer rule overflows from N = 84 at d = 12: D_n would be
    # inf, and nan at d = 9, N = 100; no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeExceeded, match="D_n is not a finite"):
            coupling_constants(profile_at(12.0, 1),
                               basis_at(12.0, 1, max_n=90), 90)


@pytest.mark.parametrize("d,k,N,expect_inner", [(8.0, 1, 1, True),
                                                (9.0, 1, 1, False)])
def test_dominance_direction(profile_at, basis_at, d, k, N, expect_inner):
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        I_inn, I_out = dominance_diagnostic(
            profile_at(d, k), basis_at(d, k), N, eps)
        ratios.append(I_inn / I_out)
    if expect_inner:
        assert ratios[0] < ratios[1] < ratios[2]
    else:
        assert ratios[0] > ratios[1] > ratios[2]


def test_truncated_inner_integral_monotone(profile_at):
    p = profile_at(8.0, 1)
    vals = [inner_integral(p, upper=up) for up in (1.0, 10.0, 1e4)]
    assert vals[0] < vals[1] < vals[2] < inner_integral(p)


def _inner_integral_by_quad(p, upper, integrand, breaks=(), **quad_kw):
    """inner_integral with the orbit piece taken by `quad` of integrand(x),
    split at the points of `breaks` inside it, and the pieces below the
    orbit and above x_switch in closed form."""
    c = p.consts
    d, k = c.params.d, c.params.k
    gam, om = c.gamma, c.omega
    pw = d - 2.0 - gam
    x_lo, x_sw = float(p.x[0]), p.x_switch
    x_up = x_sw if upper is None else min(x_sw, math.log(upper))
    val = 0.0
    if x_up > x_lo:
        edges = [x_lo, *[b for b in breaks if x_lo < b < x_up], x_up]
        val = sum(quad(integrand, a, b, **quad_kw)[0]
                  for a, b in zip(edges[:-1], edges[1:]))
    val += 0.5 * k * (d + k - 2.0) * math.pi * math.exp(pw * min(x_lo, x_up)) / pw
    A = g_tail_coefficient(p)
    if upper is None:
        val += A * math.exp((om - 2.0 * gam) * x_sw) / (2.0 * gam - om)
    elif upper > math.exp(x_sw):
        val += A * (upper ** (om - 2.0 * gam) - math.exp((om - 2.0 * gam) * x_sw)) \
            / (om - 2.0 * gam)
    return val


def _inner_integral_via_g_function(p, upper=None):
    """inner_integral with the integrand taken through g_function(p, e^x),
    and so through eval_u: the reference for the integrand on the orbit."""
    pw = p.consts.params.d - 2.0 - p.consts.gamma

    def integrand(x):
        xi = math.exp(x)
        return float(g_function(p, xi)) * xi**pw

    return _inner_integral_by_quad(p, upper, integrand, limit=400)


@pytest.mark.parametrize("d,k", [(7.0, 1), (8.0, 1), (12.0, 2)])
@pytest.mark.parametrize("upper", [None, 1.0, 10.0, 1e4])
def test_inner_integral_on_orbit_matches_g_function(profile_at, d, k, upper):
    p = profile_at(d, k)
    assert inner_integral(p, upper=upper) == pytest.approx(
        _inner_integral_via_g_function(p, upper), rel=1e-9)


@pytest.mark.parametrize("d,k,N", [(9.0, 1, 1), (16.0, 2, 2)])
def test_outer_integral_one_rule_matches_rule_per_n(basis_at, d, k, N):
    """The shared rule of (3N + max_n)//2 + 1 nodes against scipy's rule of
    order 2(3N + n) + 32 for each n; both are exact for the polynomial
    part."""
    basis = basis_at(d, k)
    c = basis.consts
    alpha = 0.5 * (c.omega - 2.0 * c.gamma) - 1.0
    pref = 2.0 ** (d - 3.0 - 4.0 * c.gamma)
    for n in range(basis.max_n + 1):
        z, w = roots_genlaguerre(2 * (3 * N + n) + 32, alpha)
        ref = basis.norm[N] ** 3 * basis.norm[n] * pref * np.sum(
            w * eval_genlaguerre(N, basis._alpha, z) ** 3
            * eval_genlaguerre(n, basis._alpha, z))
        assert outer_integral(basis, N, n) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("d,k,N", [(9.0, 1, 1), (16.0, 2, 2)])
def test_outer_integral_on_every_n_in_one_pass(basis_at, d, k, N):
    basis = basis_at(d, k)
    every = outer_integral(basis, N, np.arange(basis.max_n + 1))
    assert every.tolist() == [outer_integral(basis, N, n)
                              for n in range(basis.max_n + 1)]


#: inner-regime points from near d* to the edge of the regime, at k = 1, 2, 3
INNER_POINTS = [(7.0, 1), (7.05, 1), (7.3, 1), (7.5, 1), (8.0, 1), (8.15, 1),
                (12.0, 2), (12.5, 2), (13.9672, 2), (13.9934, 2),
                (14.2595, 2), (20.0, 3)]


@pytest.mark.parametrize("d,k", INNER_POINTS)
def test_inner_integral_matches_tight_quad(profile_at, d, k):
    """The Gauss-Legendre rule per Taylor step against quad at epsrel 2e-14
    split at the same steps, with the same integrand on the orbit."""
    p = profile_at(d, k)
    c = p.consts
    pw = d - 2.0 - c.gamma

    def integrand(x):
        return float(coupling._g_of_v(c, p.orbit(x)[0])) * math.exp(pw * x)

    for upper in (None, 1.0, 10.0, 1e4):
        ref = _inner_integral_by_quad(p, upper, integrand, p.orbit.starts,
                                      epsabs=0.0, epsrel=2e-14)
        assert inner_integral(p, upper=upper) == pytest.approx(
            ref, rel=1e-12), upper


@pytest.mark.parametrize("d", [8.0, 9.0, 12.0])
def test_outer_integral_truncated_matches_tight_quad(basis_at, d):
    basis = basis_at(d, 1)

    def integrand(y):
        return float(basis.phi(1, y)) ** 4 * y ** (d - 3.0) \
            * math.exp(-0.25 * y * y)

    for y_lo in (1e-4, 1e-2, 0.0316, 0.1):
        ref = quad(integrand, y_lo, float(basis.nodes_y[-1]), epsabs=0.0,
                   epsrel=1e-13, limit=400)[0]
        assert outer_integral_truncated(basis, 1, 1, y_lo) == pytest.approx(
            ref, rel=1e-12), y_lo


#: outer-regime points from near the regime's edge to d = 100, k = 1, 2, 3
OUTER_POINTS = [(8.3, 1, 1), (8.5, 1, 1), (9.0, 1, 1), (9.0, 1, 2),
                (10.0, 1, 1), (12.0, 1, 1), (20.0, 1, 1), (50.0, 1, 1),
                (100.0, 1, 1), (14.5, 2, 2), (16.0, 2, 2), (25.0, 2, 2),
                (21.0, 3, 3), (30.0, 3, 3)]


@pytest.mark.parametrize("d,k,N", OUTER_POINTS)
def test_outer_integral_exact_rule_matches_the_oversized_one(basis_at, d, k,
                                                             N):
    """The integrand is z^alpha e^{-z} times a polynomial of degree
    3N + max_n, so (3N + max_n)//2 + 1 nodes are exact: every n within
    1e-13 of the integral at n = N (5.1e-14 measured) against scipy's rule
    of the former size 2(3N + max_n) + 32, which has 7 to 9 times the
    nodes."""
    basis = basis_at(d, k)
    c = basis.consts
    alpha = 0.5 * (c.omega - 2.0 * c.gamma) - 1.0
    ns = np.arange(basis.max_n + 1)
    z, w = roots_genlaguerre(2 * (3 * N + basis.max_n) + 32, alpha)
    L = eval_genlaguerre(ns[:, None], basis._alpha, z)
    ref = basis.norm[N] ** 3 * basis.norm * 2.0 ** (d - 3.0 - 4.0 * c.gamma) \
        * np.sum(w * L[N] ** 3 * L, axis=-1)
    got = outer_integral(basis, N, ns)
    assert np.max(np.abs(got - ref)) <= 1e-13 * abs(ref[N])
