import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from blowuplab import profile
from blowuplab.errors import (
    BlowupLabError,
    IntegrationFailed,
    TailFitIllConditioned,
)
from blowuplab.params import critical_dimension
from blowuplab.profile import check_trapping, eval_u, extract_tail, solve_profile

# frozen from runs at tolerance 1e-11 with tail-window/grid defaults;
# regenerate by printing profile.h / profile.Cs after any intended change
H_ORACLE = {
    (7.0, 1): 2.69308175,
    (8.0, 1): 1.35700028,
    (9.0, 1): 1.18682414,
    (12.0, 2): 2.69308175,
}
CS_ORACLE = {
    (7.0, 1): 1.0,
    (8.0, 1): 1.0,
    (9.0, 1): 1.0,
    (12.0, 2): 0.79956151,
}


@pytest.mark.parametrize("d,k", list(H_ORACLE))
def test_tail_amplitude_frozen(profile_at, d, k):
    p = profile_at(d, k)
    assert p.h == pytest.approx(H_ORACLE[(d, k)], abs=5e-8)
    assert p.h > 0


@pytest.mark.parametrize("d,k", list(CS_ORACLE))
def test_slope_normalization_frozen(profile_at, d, k):
    p = profile_at(d, k)
    assert p.Cs == pytest.approx(CS_ORACLE[(d, k)], abs=5e-8)


def _dop853_orbit(p):
    """The orbit on p's grid, integrated by DOP853 at rtol 1e-13, with dense
    output."""
    from scipy.integrate import solve_ivp
    c, x = p.consts, p.x
    u0, up0 = profile._origin_series(c, math.exp(c.params.k * x[0]))
    sol = solve_ivp(profile._pendulum_rhs(c), (x[0], x[-1]),
                    (2.0 * u0 - math.pi, 2.0 * up0), method="DOP853",
                    rtol=1e-13, atol=1e-13 * math.exp(-c.gamma * x[-1]),
                    t_eval=x, dense_output=True)
    assert sol.success
    return sol


def _dop853_reference(p):
    """h and C_s of the DOP853 orbit, refined for C_s on its dense output."""
    from scipy.optimize import minimize_scalar
    c, x = p.consts, p.x
    sol = _dop853_orbit(p)
    h = profile._fit_tail(c, x, sol.y[0], x_lo=p.x_switch).h
    j = int(np.argmax(sol.y[1] * np.exp(-x)))
    res = minimize_scalar(lambda xx: -0.5 * sol.sol(xx)[1] * math.exp(-xx),
                          bounds=(x[max(j - 1, 0)], x[j + 1]),
                          method="bounded", options={"xatol": 1e-12})
    slope_max = max(-res.fun, 1.0) if c.params.k == 1 else -res.fun
    return h, 1.0 / slope_max


@pytest.mark.parametrize("d,k", list(H_ORACLE))
def test_constants_match_dop853_reference(profile_at, d, k):
    p = profile_at(d, k)
    h, Cs = _dop853_reference(p)
    assert p.h == pytest.approx(h, rel=1e-8)
    assert p.Cs == pytest.approx(Cs, rel=1e-8)


@pytest.mark.parametrize("d,k", [(8.0, 1), (12.0, 2), (14.0, 2)])
def test_orbit_matches_dop853_reference(profile_at, d, k):
    # the stored orbit, node by node; LSODA at rtol 1e-12 was off by 4e-10
    # to 3e-9 on v at these points, the Taylor steps by 8e-12 to 5e-11
    p = profile_at(d, k)
    v_ref, vp_ref = _dop853_orbit(p).y
    assert np.max(np.abs(p.v / v_ref - 1.0)) <= 1e-10
    assert np.max(np.abs(p.v_prime / vp_ref - 1.0)) <= 3e-10


@pytest.mark.parametrize("d,k", [(8.0, 1), (12.0, 2), (14.0, 2)])
def test_orbit_between_nodes_matches_dop853_dense_output(profile_at, d, k):
    # every reader of v(x) evaluates the stored steps; between the grid
    # nodes they hold the grid's accuracy, where the monotone cubic through
    # the grid samples was off by 1e-9 to 7e-9 on v
    p = profile_at(d, k)
    xm = 0.5 * (p.x[1:] + p.x[:-1])
    v_ref, vp_ref = _dop853_orbit(p).sol(xm)
    v, vp = p.orbit(xm)
    assert np.max(np.abs(v / v_ref - 1.0)) <= 1e-10
    assert np.max(np.abs(vp / vp_ref - 1.0)) <= 3e-10
    # and eval_u reads the same steps between its series and tail branches
    xi = np.exp(xm[xm <= p.x_switch])
    assert np.array_equal(eval_u(p, xi), 0.5 * (p.orbit(np.log(xi))[0] + math.pi))


def _lsoda_from_node(p, i, x, rtol):
    """v, v' on x re-integrated by LSODA from the stored node i."""
    from scipy.integrate import odeint
    c = p.consts
    atol = rtol * math.exp(-c.gamma * p.x[-1])
    return odeint(profile._pendulum_rhs(c), [p.v[i], p.v_prime[i]], x,
                  rtol=rtol, atol=atol, tfirst=True).T


def _taylor(p, i, x):
    """v, v' on x from the Taylor polynomial about the stored node i."""
    P = np.polynomial.polynomial
    coef = profile._taylor_coefficients(p.consts, p.v[i], p.v_prime[i])
    return P.polyval(x - p.x[i], coef), P.polyval(x - p.x[i], P.polyder(coef))


@pytest.mark.parametrize("d,k", [(8.0, 1), (14.0, 2)])
def test_taylor_matches_lsoda_across_a_cell(profile_at, d, k):
    # from a node mid-orbit and, at k = 2, from the bracket node of the
    # slope maximum.  The reference limits the choice: at k = 1 that node
    # sits at the saddle (v' ~ 1e-5), and there and near the steepest node
    # LSODA at rtol 1e-13 errs by 1.1e-13 to 1.7e-13 against a 30-digit
    # integration, which the polynomial matches to rounding.  The k = 1
    # bracket node is checked in test_taylor_step_reproduces_stored_orbit
    p = profile_at(d, k)
    nodes = [p.x.size // 2]
    if k > 1:
        nodes.append(int(np.argmax(p.v_prime * np.exp(-p.x))) - 1)
    for i in nodes:
        x = np.linspace(p.x[i], p.x[i + 1], 9)
        v, vp = _taylor(p, i, x)
        v_ref, vp_ref = _lsoda_from_node(p, i, x, 1e-13)
        assert np.allclose(v, v_ref, rtol=1e-13, atol=0.0)
        assert np.allclose(vp, vp_ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d,k", list(CS_ORACLE))
def test_taylor_step_reproduces_stored_orbit(profile_at, d, k):
    # one cell from the slope bracket node lands on the next stored node to
    # the orbit's own rtol (tolerance / 10 = 1e-12)
    p = profile_at(d, k)
    i = max(int(np.argmax(p.v_prime * np.exp(-p.x))) - 1, 0)
    v, vp = _taylor(p, i, np.array([p.x[i + 1]]))
    assert v[0] == pytest.approx(p.v[i + 1], rel=1e-12)
    assert vp[0] == pytest.approx(p.v_prime[i + 1], rel=1e-12)


def _cs_by_lsoda_search(p):
    """C_s as the golden-section search over LSODA re-integrations from the
    left bracket node, at the rtol of the stored orbit."""
    from scipy.optimize import minimize_scalar
    x = p.x
    j = int(np.argmax(p.v_prime * np.exp(-x)))
    i = max(j - 1, 0)

    def neg_slope(xx):
        vp = _lsoda_from_node(p, i, [x[i], xx], 0.1 * p.tolerance)[1][1]
        return -0.5 * vp * math.exp(-xx)

    res = minimize_scalar(neg_slope, bounds=(x[i], x[min(j + 1, x.size - 1)]),
                          method="bounded", options={"xatol": 1e-12})
    slope_max = max(-res.fun, 1.0) if p.consts.params.k == 1 else -res.fun
    return 1.0 / slope_max


@pytest.mark.parametrize("d,k", list(CS_ORACLE))
def test_slope_normalization_matches_lsoda_search(profile_at, d, k):
    p = profile_at(d, k)
    assert p.Cs == pytest.approx(_cs_by_lsoda_search(p), rel=1e-11)


def test_slope_normalization_makes_no_ode_call(profile_at, monkeypatch):
    # nor a fresh series: the refinement reads the stored steps
    p = profile_at(12.0, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("ODE call or new series in _slope_normalization")

    monkeypatch.setattr(profile, "_taylor_coefficients", refuse)
    Cs = profile._slope_normalization(p.consts, p.orbit, p.x, p.v_prime)
    assert Cs == p.Cs


@pytest.mark.parametrize("d,k", [(12.0, 2), (14.0, 2), (17.0, 3), (25.0, 3)])
def test_newton_slope_maximum_matches_references(profile_at, d, k):
    # Newton on v'' - v' against golden-section searches on a DOP853 orbit
    # and on LSODA re-integrations from the bracket node
    p = profile_at(d, k)
    assert p.Cs == pytest.approx(_dop853_reference(p)[1], rel=1e-8)
    assert p.Cs == pytest.approx(_cs_by_lsoda_search(p), rel=1e-11)


def test_newton_leaving_the_bracket_is_typed(profile_at):
    # an orbit shifted by ten cells puts the root of v'' - v' ten cells
    # left of the grid argmax that Newton starts from
    p = profile_at(12.0, 2)
    shift = 10.0 * (p.x[1] - p.x[0])

    def shifted(x):
        return p.orbit(x + shift)

    with pytest.raises(IntegrationFailed, match="Newton at x = .* did not"):
        profile._slope_normalization(p.consts, shifted, p.x, p.v_prime)


@pytest.mark.parametrize("d", [6.9, 8.0, 20.0, 50.0, 100.0])
def test_k1_slope_maximum_is_at_the_origin(consts_at, d):
    # d/dx (v' e^{-x}) = (v'' - v') e^{-x}, and along the k = 1 orbit
    # v'' - v' is no larger than the orbit's own error, relative to v':
    # dU*/dxi has no interior maximum above dU*/dxi(0) = 1
    c = consts_at(d, 1)
    p = solve_profile(c)
    damping, torque = profile._pendulum_coefficients(c)
    vpp = -damping * p.v_prime - torque * np.sin(p.v)
    assert np.max((vpp - p.v_prime) / p.v_prime) <= 1e-7
    assert p.Cs == 1.0


@pytest.mark.parametrize("d,k", [(8.0, 1), (12.0, 2)])
def test_orbit_scalar_reads_match_array_reads(profile_at, d, k):
    # a float, an np.float64, a 0-d array and a 1-element array read the
    # same bits: at grid nodes, cell midpoints, step starts, below the first
    # start and beyond the last
    p = profile_at(d, k)
    starts = p.orbit.starts
    xs = np.concatenate([p.x[::499], 0.5 * (p.x[1::499] + p.x[:-1:499]),
                         starts, [starts[0] - 0.5, starts[-1] + 0.5]])
    for x in xs:
        v, vp = p.orbit(np.array([x]))
        for scalar in (float(x), np.float64(x), np.array(x)):
            assert p.orbit(scalar) == (v[0], vp[0])
    # every point in one call, an unsorted copy, a 2-D reshape and no point:
    # the table's columns are gathered in the shape and order of x
    v, vp = np.array([p.orbit(float(x)) for x in xs]).T
    order = np.random.default_rng(0).permutation(xs.size)
    even = xs.size - xs.size % 2
    for x, want in ((xs, (v, vp)), (xs[order], (v[order], vp[order])),
                    (xs[:even].reshape(2, -1),
                     (v[:even].reshape(2, -1), vp[:even].reshape(2, -1))),
                    (xs[:0], (v[:0], vp[:0]))):
        got = p.orbit(x)
        for a, b in zip(got, want):
            assert a.shape == x.shape
            assert np.array_equal(a, b)


def _assert_close(got, want, rel):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b) / np.abs(b)) <= rel


@pytest.mark.parametrize("d,k", [(8.0, 1), (9.0, 1), (13.0, 2), (16.535281, 3),
                                 (critical_dimension(1) + 2e-3, 1),
                                 (200.0, 1), (1000.0, 1)])
def test_grid_fill_matches_array_reads(consts_at, d, k):
    # the stored grid comes from on_grid's matrix products, the array read
    # from the Horner pass; d* + 2e-3 reaches x = 216, d = 1000 has 2,897
    # steps of a few nodes each
    p = solve_profile(consts_at(d, k))
    _assert_close((p.v, p.v_prime), p.orbit(p.x), 1e-13)


def _hand_built_orbit(starts):
    # steps of decaying positive coefficients, each its own polynomial, so
    # that a node read off the wrong step is off by O(1)
    rng = np.random.default_rng(7)
    table = ((1.0 + rng.random((len(starts), profile.TAYLOR_ORDER + 1)))
             * 0.5 ** np.arange(profile.TAYLOR_ORDER + 1.0)).T
    return profile.TaylorOrbit(np.array(starts), table)


def test_grid_fill_step_without_a_node():
    # the second step, from 0.33 to 0.36, lies between the nodes 0.3 and 0.4
    grid = np.linspace(0.0, 1.0, 11)
    orbit = _hand_built_orbit([0.0, 0.33, 0.36, 0.72])
    _assert_close(orbit.on_grid(grid), orbit(grid), 1e-13)


def test_grid_fill_step_starting_on_a_node():
    # the node under the third step's start is the third step's, as the
    # array read's searchsorted(side="right") has it
    grid = np.linspace(0.0, 1.0, 11)
    orbit = _hand_built_orbit([0.0, 0.33, grid[7], 0.75])
    v, vp = orbit.on_grid(grid)
    _assert_close((v, vp), orbit(grid), 1e-13)
    assert v[7] == pytest.approx(orbit.table[0, 2], rel=1e-13)
    assert vp[7] == pytest.approx(orbit.table[1, 2], rel=1e-13)


def test_orbit_arrays_are_read_only(profile_at):
    orbit = profile_at(8.0, 1).orbit
    assert orbit.table.shape == (profile.TAYLOR_ORDER + 1, orbit.starts.size)
    for array in (orbit.starts, orbit.table):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_profile_keeps_one_copy_of_the_orbit(consts_at):
    # the grid's x, v and v' (288 kB) and the 2,897-step table and starts
    # (510 kB) are all that a d = 1000 profile holds: no second copy of
    # the coefficients as Python floats
    c = consts_at(1000.0, 1)
    solve_profile(c)        # first-use allocations are not the profile's
    tracemalloc.start()
    try:
        p = solve_profile(c)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(p.orbit.starts) > 2000
    assert retained < 1.5e6


def test_k2_halved_x_reduction(profile_at):
    # v'' + 10 v' + 24 sin v = 0 maps onto v'' + 5 v' + 6 sin v = 0 under
    # x -> 2x, so the (12,2) tail amplitude equals the (7,1) one
    assert profile_at(12.0, 2).h == pytest.approx(profile_at(7.0, 1).h,
                                                  rel=1e-7)


@pytest.mark.parametrize("d,k", [(7.0, 1), (8.0, 1), (12.0, 2)])
def test_orbit_in_trapping_region(profile_at, d, k):
    p = profile_at(d, k)
    report = check_trapping(p)
    scale = float(np.max(p.v_prime))
    assert report.max_lower_violation <= 1e-7 * scale
    assert report.max_upper_violation <= 1e-7 * scale
    # inward flux positive on both boundary branches away from the corners
    for _, lower_flux, upper_flux in report.boundary_flux_samples:
        assert lower_flux > 0
        assert upper_flux > 0


def test_orbit_monotone(profile_at):
    p = profile_at(8.0, 1)
    assert np.all(np.diff(p.v) > 0)
    assert np.all(p.v > -math.pi)
    assert np.all(p.v < 0)


def test_d8_gamma_bracket(profile_at):
    # -sin v <= v' <= -(3 - sqrt(2)) sin v for the (8,1) orbit
    p = profile_at(8.0, 1)
    sv = np.sin(p.v)
    assert np.all(p.v_prime >= -sv - 1e-9)
    assert np.all(p.v_prime <= -(3.0 - math.sqrt(2.0)) * sv + 1e-9)


def test_d7_profile_increasing_below_equator(profile_at):
    p = profile_at(7.0, 1)
    xi = np.geomspace(1e-4, 1e6, 4000)
    u = eval_u(p, xi)
    assert np.all(np.diff(u) > 0)
    assert np.all(u < 0.5 * math.pi)
    assert u[-1] == pytest.approx(0.5 * math.pi, abs=1e-10)


def test_tail_decay_rate(profile_at):
    # local log-derivative of pi/2 - U* approaches -gamma in the far field
    p = profile_at(8.0, 1)
    gam = p.consts.gamma
    xi = np.geomspace(1e3, 1e5, 200)
    tail = 0.5 * math.pi - eval_u(p, xi)
    rate = np.diff(np.log(tail)) / np.diff(np.log(xi))
    assert np.max(np.abs(rate + gam)) < 1e-4


def test_self_convergence(consts_at):
    # within the loose run's own tolerance
    c = consts_at(8.0, 1)
    loose = solve_profile(c, tolerance=1e-9)
    tight = solve_profile(c, tolerance=1e-12)
    assert loose.h == pytest.approx(tight.h, rel=1e-9)
    assert loose.Cs == pytest.approx(tight.Cs, rel=1e-9)


def _gap_to_tightest(consts):
    """The largest relative difference of v and v' on the grid between the
    default tolerance and 2.3e-13, about the tightest the orbit takes."""
    loose = solve_profile(consts)
    tight = solve_profile(consts, tolerance=2.3e-13)
    return max(float(np.max(np.abs(a / b - 1.0)))
               for a, b in ((loose.v, tight.v), (loose.v_prime, tight.v_prime)))


@pytest.mark.parametrize("d", [70, 150])
def test_default_tolerance_holds_at_large_d(consts_at, d):
    # 200-430 steps, most of them as short as stiffness allows: an error
    # budget per step, not per unit x, left 5.0e-10 and 1.1e-9 here.  DOP853
    # at rtol 1e-13 is no reference at these d: it is 8e-9 off in v'
    assert _gap_to_tightest(consts_at(float(d), 1)) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_default_tolerance_holds_near_critical_dimension(consts_at, k):
    # x_max - x_min is 83-149: the budget per unit x not spread over it
    # (rel in place of rel / (x_max - x_min)) left 8e-10 to 1e-9 here
    d = critical_dimension(k) + 5e-3
    assert _gap_to_tightest(consts_at(d, k)) <= 1e-10


@pytest.mark.parametrize("d,k,ceiling", [(8.0, 1, 36), (12.0, 2, 54),
                                         (16.535281, 3, 142)])
def test_step_count_ceiling(profile_at, d, k, ceiling):
    # 34, 51 and 137 steps; a budget per step of 1e-4 tolerance / 10 relative
    # to max(|v|, |v'|) took 40, 60 and 153
    assert profile_at(d, k).orbit.starts.size <= ceiling


@pytest.mark.parametrize("k,underflowing", [(1, 4), (2, 7), (3, 9)])
def test_underflow_pattern_near_critical_dimension(consts_at, k, underflowing):
    # x_max = log(1e10) / omega grows like 1/omega as d nears d*: of the 14
    # offsets, the nearest underflow before it and every farther one solves
    solved = []
    for offset in np.geomspace(5e-4, 1e-2, 14):
        try:
            solve_profile(consts_at(critical_dimension(k) + offset, k))
        except IntegrationFailed as exc:
            assert "orbit underflows" in str(exc)
            solved.append(False)
        else:
            solved.append(True)
    assert solved == [False] * underflowing + [True] * (14 - underflowing)


def test_integration_failure_is_typed(consts_at):
    # tolerance 1e-13 asks for a relative accuracy of 1e-14, below 100
    # machine epsilons; that must arrive as a library error, not as a
    # warning and garbage rows
    assert issubclass(IntegrationFailed, BlowupLabError)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IntegrationFailed, match="profile"):
            solve_profile(consts_at(8.0, 1), tolerance=1e-13)
    assert caught == []


def test_runaway_work_is_typed(consts_at):
    # at d = 1e6 the orbit is so stiff that explicit steps would run for
    # minutes; the step cap ends it with a library error in under a second
    start = time.perf_counter()
    with pytest.raises(IntegrationFailed, match="profile.*steps reached"):
        solve_profile(consts_at(1e6, 1))
    assert time.perf_counter() - start < 5.0


def test_non_advancing_step_is_typed(consts_at):
    # at d = 1e20 the Taylor coefficients overflow and the first step length
    # is nan: the loop stops there instead of taking MAX_STEPS nan steps
    with pytest.raises(IntegrationFailed, match="step 0 does not advance"):
        solve_profile(consts_at(1e20, 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orbit_underflow_near_critical_dimension_is_typed(consts_at, k):
    # at d* + 1e-4 omega is 0.024-0.041 and x_max = log(1e10) / omega is
    # 970-560 (k = 1-3): the orbit underflows to 0 before it, where a
    # ZeroDivisionError ended the step loop
    d = critical_dimension(k) + 1e-4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationFailed,
                           match=r"orbit underflows .* only 0\.0001 above d\* ="):
            solve_profile(consts_at(d, k))


def test_tail_refit_stability(profile_at):
    p = profile_at(9.0, 1)
    refit = extract_tail(p, x_lo=p.x_switch + 1.0)
    assert refit.h == pytest.approx(p.h, rel=1e-6)


def test_tail_refit_on_too_few_samples(profile_at):
    # the last 5 grid nodes hold fewer than the 8 samples the fit asks for
    p = profile_at(9.0, 1)
    with pytest.raises(TailFitIllConditioned, match="too few samples"):
        extract_tail(p, x_lo=p.x[-5])


def test_origin_series_matches_orbit(profile_at):
    p = profile_at(8.0, 1)
    # just above the series/orbit seam the two representations agree
    xi = math.exp(p.x[0]) * 1.001
    series = xi - (8 + 1 - 2) / (3.0 * (8 + 4 - 2)) * xi**3
    assert eval_u(p, xi) == pytest.approx(series, rel=1e-8)


def test_eval_u_region_continuity(profile_at):
    p = profile_at(8.0, 1)
    for x_seam in (p.x[0], p.x_switch):
        lo = eval_u(p, math.exp(x_seam) * (1 - 1e-9))
        hi = eval_u(p, math.exp(x_seam) * (1 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-6)


def test_eval_u_rejects_negative(profile_at):
    with pytest.raises(ValueError):
        eval_u(profile_at(8.0, 1), -0.5)


def test_eval_u_rejects_nan_and_takes_inf(profile_at):
    # NaN falls in none of the near, mid and far masks, so it must not reach
    # them; U*(inf) = pi/2
    p = profile_at(8.0, 1)
    for xi in (math.nan, np.array([0.5, math.nan, 2.0])):
        with pytest.raises(ValueError):
            eval_u(p, xi)
    assert eval_u(p, math.inf) == 0.5 * math.pi
    assert np.array_equal(eval_u(p, np.array([1.0, math.inf])),
                          [eval_u(p, 1.0), 0.5 * math.pi])


def test_orbit_csv_roundtrip(tmp_path, profile_at):
    p = profile_at(7.0, 1)
    path = tmp_path / "orbit.csv"
    p.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data["x"].size == p.x.size
    assert np.allclose(data["v"], p.v)


def test_grid_size_constant():
    assert profile.GRID_SIZE >= 4000

