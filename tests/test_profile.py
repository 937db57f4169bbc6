import math
import warnings

import numpy as np
import pytest

from blowuplab import profile
from blowuplab.errors import BlowupLabError, IntegrationFailed
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


def _dop853_reference(p):
    """h and C_s of the orbit on p's grid, integrated by DOP853 at rtol 1e-13
    and refined for C_s on its dense output."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import minimize_scalar
    c, x = p.consts, p.x
    sol = solve_ivp(profile._pendulum_rhs(c), (x[0], x[-1]),
                    profile._origin_series(c, x[0]), method="DOP853",
                    rtol=1e-13, atol=1e-13 * math.exp(-c.gamma * x[-1]),
                    t_eval=x, dense_output=True)
    assert sol.success
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
    c = consts_at(8.0, 1)
    loose = solve_profile(c, tolerance=1e-9)
    tight = solve_profile(c, tolerance=1e-12)
    assert loose.h == pytest.approx(tight.h, rel=1e-6)
    assert loose.Cs == pytest.approx(tight.Cs, rel=1e-6)


def test_integration_failure_is_typed(consts_at):
    # LSODA rejects the rtol 1e-14 that tolerance 1e-13 asks for; that must
    # arrive as a library error, not as an ODEintWarning and garbage rows
    assert issubclass(IntegrationFailed, BlowupLabError)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IntegrationFailed, match="profile"):
            solve_profile(consts_at(8.0, 1), tolerance=1e-13)
    assert caught == []


def test_tail_refit_stability(profile_at):
    p = profile_at(9.0, 1)
    refit = extract_tail(p, x_lo=p.x_switch + 1.0)
    assert refit.h == pytest.approx(p.h, rel=1e-6)


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


def test_orbit_csv_roundtrip(tmp_path, profile_at):
    p = profile_at(7.0, 1)
    path = tmp_path / "orbit.csv"
    p.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data["x"].size == p.x.size
    assert np.allclose(data["v"], p.v)


def test_grid_size_constant():
    assert profile.GRID_SIZE >= 4000
