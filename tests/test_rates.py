import math
import warnings

import numpy as np
import pytest

from blowuplab import coupling, rates
from blowuplab.errors import IntegrationFailed, NegativeEigenvalue
from blowuplab.params import eigenvalue
from blowuplab.rates import (
    ReducedConstants,
    an_requirement,
    assemble_ansatz,
    codimension,
    coefficient_flow,
    matched_aN,
    predict_rate,
    solve_epsilon,
)


def reduced(consts_at, profile_at, basis_at, d, k, N):
    c = consts_at(d, k)
    p = profile_at(d, k)
    b = basis_at(d, k)
    cc = coupling.coupling_constants(p, b, N)
    return ReducedConstants(
        lam=eigenvalue(c, N).lam, gamma=c.gamma,
        DN=float(cc.D[N]), cN=float(b.c_origin[N]),
        h=p.h, delta=c.delta,
    ), c, p, b, cc


@pytest.mark.parametrize("d,k,N", [(8.0, 1, 1), (9.1, 1, 2)])
def test_epsilon_matches_closed_form_decaying(consts_at, profile_at, basis_at,
                                              d, k, N):
    # at (9.1, 1, 2) eps falls to ~1e-21 by s=50: relative accuracy must
    # survive eps far below any fixed absolute tolerance
    rc = reduced(consts_at, profile_at, basis_at, d, k, N)[0]
    traj = solve_epsilon(rc, eps0=0.05, s_max=50.0)
    mask = traj.s >= 5.0
    exact = traj.closed_form(traj.s[mask])
    assert np.max(np.abs(traj.eps[mask] / exact - 1.0)) < 1e-6


def test_epsilon_matches_closed_form_neutral(consts_at, profile_at, basis_at):
    rc = reduced(consts_at, profile_at, basis_at, 7.0, 1, 1)[0]
    assert rc.lam == 0.0
    traj = solve_epsilon(rc, eps0=0.05, s_max=50.0)
    mask = traj.s >= 5.0
    exact = traj.closed_form(traj.s[mask])
    assert np.max(np.abs(traj.eps[mask] / exact - 1.0)) < 1e-6
    assert traj.s0 is not None
    # late-time eps ~ CN / (s - s0)
    tail = rc.CN / (traj.s[-1] - traj.s0)
    assert traj.eps[-1] == pytest.approx(tail, rel=1e-3)


def test_epsilon_rejects_negative_eigenvalue():
    rc = ReducedConstants(lam=-1.0, gamma=2.0, DN=1.0, cN=0.5, h=2.0, delta=1.0)
    with pytest.raises(NegativeEigenvalue):
        solve_epsilon(rc, eps0=0.01)


def test_epsilon_integration_failure_is_typed():
    rc = ReducedConstants(lam=0.5, gamma=2.0, DN=1.0, cN=0.5, h=2.0, delta=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IntegrationFailed, match="eps"):
            solve_epsilon(rc, eps0=0.01, rtol=1e-14)  # illegal for LSODA
    assert caught == []


def test_epsilon_rejects_large_eps0(consts_at, profile_at, basis_at):
    rc = reduced(consts_at, profile_at, basis_at, 8.0, 1, 1)[0]
    with pytest.raises(ValueError):
        solve_epsilon(rc, eps0=0.5)


def test_CN_value_d7(consts_at, profile_at, basis_at):
    rc = reduced(consts_at, profile_at, basis_at, 7.0, 1, 1)[0]
    # CN = h * gamma / (cN * DN) at delta = 1
    assert rc.CN == pytest.approx(rc.h * rc.gamma / (rc.cN * rc.DN), rel=1e-12)
    assert rc.CN == pytest.approx(4.49078788, abs=5e-7)


def test_predict_rate_power(consts_at, profile_at, basis_at):
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, 8.0, 1, 1)
    law = predict_rate(c, 1, p, b, cc)
    assert law.kind == "power"
    assert law.exponent == pytest.approx(0.6306019, abs=5e-8)
    assert law.prefactor is None  # eps0 is data-dependent
    assert law.constants["betaN"] == pytest.approx(0.1306019, abs=5e-8)


def test_predict_rate_log(consts_at, profile_at, basis_at):
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, 7.0, 1, 1)
    law = predict_rate(c, 1, p, b, cc)
    assert law.kind == "logarithmic"
    assert law.exponent == pytest.approx(1.0)
    assert law.prefactor == pytest.approx(p.Cs * rc.CN, rel=1e-12)
    assert 1.0 / law.prefactor == pytest.approx(0.22268, abs=5e-5)


def test_predict_rate_rejects_unstable_index(consts_at, profile_at, basis_at):
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, 8.0, 1, 1)
    with pytest.raises(NegativeEigenvalue):
        predict_rate(c, 0, p, b, cc)


def test_matched_aN_sign_and_scale(consts_at, profile_at, basis_at):
    rc = reduced(consts_at, profile_at, basis_at, 8.0, 1, 1)[0]
    traj = solve_epsilon(rc, eps0=0.05)
    aN = matched_aN(traj)
    assert np.all(aN < 0)
    assert aN[0] == pytest.approx(-(rc.h / rc.cN) * 0.05 ** rc.gamma, rel=1e-12)


def test_coefficient_flow_dominance_above_N(consts_at, profile_at, basis_at):
    # decaying-eps regime: |a_n/a_N| ~ eps^delta falls exponentially in s
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, 8.0, 1, 1)
    traj = solve_epsilon(rc, eps0=0.05, s_max=60.0)
    aN = matched_aN(traj)
    for n in (2, 3):
        an = coefficient_flow(traj, eigenvalue(c, n).lam, float(cc.D[n]),
                              an0=1e-3)
        ratio = np.abs(an / aN)
        tail = ratio[traj.s > 10.0]
        assert tail[-1] < 1e-2 * tail[0]
        assert np.all(np.diff(tail) < 1e-12)  # eventually monotone decreasing


def test_coefficient_flow_dominance_neutral(consts_at, profile_at, basis_at):
    # neutral regime: the ratio only decays algebraically (~1/s), so assert
    # the trend rather than a large drop
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, 7.0, 1, 1)
    traj = solve_epsilon(rc, eps0=0.05, s_max=60.0)
    aN = matched_aN(traj)
    an = coefficient_flow(traj, eigenvalue(c, 2).lam, float(cc.D[2]), an0=1e-3)
    ratio = np.abs(an / aN)
    tail = ratio[traj.s > 10.0]
    assert tail[-1] < tail[0]
    assert np.all(np.diff(tail) < 1e-12)


def test_coefficient_flow_tuned_initial_data_below_N(consts_at, profile_at,
                                                     basis_at):
    # with the tuned a_0(0) the growing e^{s} mode cancels exactly, and a_0(s)
    # is -D_0 int_s^{s_max} eps^{gamma+delta} e^{lambda_0 (q-s)} dq: compare
    # a_0/a_N against an independent quadrature of that integral over the
    # closed-form eps
    from scipy.integrate import quad
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, 7.0, 1, 1)
    traj = solve_epsilon(rc, eps0=0.05, s_max=60.0)
    lam0 = eigenvalue(c, 0).lam
    D0 = float(cc.D[0])
    a0 = an_requirement(traj, lam0, D0)
    an = coefficient_flow(traj, lam0, D0, an0=a0)
    ratio = np.abs(an / matched_aN(traj))
    assert np.all(np.diff(ratio[traj.s <= 45.0]) < 1e-12)  # monotone decay

    def exact_ratio(s):
        def integrand(q):
            return (float(traj.closed_form(q)) ** (rc.gamma + rc.delta)
                    * math.exp(lam0 * (q - s)))
        tail = quad(integrand, s, traj.s[-1], epsabs=0.0, epsrel=1e-12)[0]
        aN = (rc.h / rc.cN) * float(traj.closed_form(s)) ** rc.gamma
        return abs(D0) * tail / aN

    j = int(np.searchsorted(traj.s, 30.0))
    assert traj.s[j] == pytest.approx(30.0)
    assert ratio[j] / ratio[0] == pytest.approx(
        exact_ratio(traj.s[j]) / exact_ratio(0.0), abs=1e-3)


def test_codimension():
    assert codimension(1) == {"constraints": 1, "effective_unstable": 0}
    assert codimension(3)["effective_unstable"] == 2


def test_ansatz_jump_small(consts_at, profile_at, basis_at):
    p = profile_at(8.0, 1)
    b = basis_at(8.0, 1)
    jumps = []
    for eps in (0.05, 0.01, 0.002):
        snap = assemble_ansatz(p, b, 1, eps)
        jumps.append(snap.jump)
        assert snap.K == pytest.approx(math.sqrt(eps))
    # matching error at the seam shrinks with eps
    assert jumps[2] < jumps[1] < jumps[0]


def test_ansatz_eps_validation(profile_at, basis_at):
    with pytest.raises(ValueError):
        assemble_ansatz(profile_at(8.0, 1), basis_at(8.0, 1), 1, eps=0.3)


def test_rate_law_json_roundtrip(consts_at, profile_at, basis_at):
    import json
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, 8.0, 1, 1)
    law = predict_rate(c, 1, p, b, cc)
    blob = json.loads(law.to_json())
    assert blob["kind"] == "power"
    assert blob["exponent"] == pytest.approx(law.exponent)
