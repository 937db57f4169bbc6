import math
import warnings

import numpy as np
import pytest

from blowuplab import coupling, rates
from blowuplab.errors import BlowupOfEpsilon, NegativeEigenvalue
from blowuplab.params import classify, eigenvalue
from blowuplab.rates import (
    ReducedConstants,
    an_requirement,
    assemble_ansatz,
    coefficient_flow,
    matched_aN,
    predict_rate,
    solve_epsilon,
)

from conftest import eps_by_dop853


def reduced(consts_at, profile_at, basis_at, d, k, N):
    c = consts_at(d, k)
    p = profile_at(d, k)
    b = basis_at(d, k, max_n=max(8, N))
    cc = coupling.coupling_constants(p, b, N)
    return ReducedConstants(
        lam=eigenvalue(c, N).lam, gamma=c.gamma,
        DN=float(cc.D[N]), cN=float(b.c_origin[N]),
        h=p.h, delta=c.delta,
    ), c, p, b, cc


@pytest.mark.parametrize("d,k,N", [(8.0, 1, 1), (9.1, 1, 2), (20.0, 1, 12)])
def test_epsilon_matches_closed_form_decaying(consts_at, profile_at, basis_at,
                                              d, k, N):
    # the samples and closed_form against an independent DOP853 integration
    # of the ODE.  At (9.1, 1, 2) eps falls to ~1e-21 by s=50, and at
    # (20, 1, 12) to 2.7e-268 by s=60, where e^{r s} overflows: relative
    # accuracy must survive eps far below any fixed absolute tolerance
    rc = reduced(consts_at, profile_at, basis_at, d, k, N)[0]
    traj = solve_epsilon(rc, eps0=0.05, s_max=60.0)
    ref = eps_by_dop853(rc, 0.05, traj.s)
    for eps in (traj.eps, traj.closed_form(traj.s)):
        assert np.max(np.abs(eps / ref - 1.0)) < 1e-6


def test_epsilon_matches_closed_form_neutral(consts_at, profile_at, basis_at):
    rc = reduced(consts_at, profile_at, basis_at, 7.0, 1, 1)[0]
    assert rc.lam == 0.0
    traj = solve_epsilon(rc, eps0=0.05, s_max=50.0)
    ref = eps_by_dop853(rc, 0.05, traj.s)
    assert np.max(np.abs(traj.eps / ref - 1.0)) < 1e-6
    # the neutral law eps = CN / (s - s0) at delta = 1
    assert np.max(np.abs(rc.CN / (traj.s - traj.s0) / ref - 1.0)) < 1e-6


def test_epsilon_near_neutral_is_continuous():
    # expm1(-r s) / lambda_N tends to -delta s / gamma: no cancellation as
    # lambda_N -> 0
    base = dict(gamma=2.0, DN=1.0, cN=0.5, h=2.0, delta=1.0)
    neutral = solve_epsilon(ReducedConstants(lam=0.0, **base), eps0=0.05)
    for lam in (1e-300, 1e-12):
        near = solve_epsilon(ReducedConstants(lam=lam, **base), eps0=0.05)
        assert np.allclose(near.eps, neutral.eps, rtol=1e-9, atol=0.0)


def test_epsilon_rejects_negative_eigenvalue():
    rc = ReducedConstants(lam=-1.0, gamma=2.0, DN=1.0, cN=0.5, h=2.0, delta=1.0)
    with pytest.raises(NegativeEigenvalue):
        solve_epsilon(rc, eps0=0.01)


@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_epsilon_sign_error_is_typed(lam):
    # D_N < 0 with eps0 = 0.05: eps blows up at finite s, near s = 2.04 at
    # lambda_N = 0.5 (the log's argument reaches 0) and at s = 1.6 at
    # lambda_N = 0 (u reaches 0)
    rc = ReducedConstants(lam=lam, gamma=2.0, DN=-100.0, cN=0.5, h=2.0,
                          delta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupOfEpsilon):
            solve_epsilon(rc, eps0=0.05)


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


def _flow_per_call(traj, lam_n, Dn, an0):
    """coefficient_flow and the backward sums of an_requirement, with
    eps^{gamma+delta} and the sample widths made afresh, as each call once
    made them."""
    c = traj.constants
    src, ds = traj.eps ** (c.gamma + c.delta), np.diff(traj.s)
    tail = rates._discounted_sums(ds[::-1], src[::-1], -lam_n)[::-1]
    if lam_n >= 0:
        flow = an0 * np.exp(-lam_n * traj.s) + Dn * rates._discounted_sums(
            ds, src, lam_n)
    else:
        flow = (an0 + Dn * tail[0]) * np.exp(-lam_n * traj.s) - Dn * tail
    return flow, tail


@pytest.mark.parametrize("d,N", [(8.0, 1), (7.0, 1)])
def test_flow_source_matches_per_call_formula(consts_at, profile_at,
                                                basis_at, d, N):
    # a power-law and a neutral point: coefficient_flow for n <= 3 and
    # an_requirement, in either order on a fresh trajectory, equal the
    # per-call formula bit for bit and leave eps and s as they were
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, d, 1, N)
    modes = [(eigenvalue(c, n).lam, float(cc.D[n])) for n in range(4)]
    ref = solve_epsilon(rc, eps0=0.05, s_max=50.0)
    want_flows = [_flow_per_call(ref, lam, Dn, 1e-3)[0] for lam, Dn in modes]
    lam0, D0 = modes[0]
    want_a0 = -D0 * float(_flow_per_call(ref, lam0, D0, 0.0)[1][0])
    for flows_first in (True, False):
        traj = solve_epsilon(rc, eps0=0.05, s_max=50.0)
        eps, s = traj.eps.copy(), traj.s.copy()
        if not flows_first:
            assert an_requirement(traj, lam0, D0) == want_a0
        for n in (range(4) if flows_first else reversed(range(4))):
            assert np.array_equal(
                coefficient_flow(traj, *modes[n], 1e-3), want_flows[n])
        assert an_requirement(traj, lam0, D0) == want_a0
        assert np.array_equal(traj.eps, eps) and np.array_equal(traj.s, s)


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


@pytest.mark.parametrize("d,k,N,offset", [(7.0, 1, 1, 1e-13),
                                          (12.0, 2, 2, 5e-13),
                                          (17.0, 3, 3, 1e-13)])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_near_neutral_d_has_one_neutral_index(consts_at, profile_at, basis_at,
                                              d, k, N, offset, sign):
    # d a rounding error away from a neutral d: classify, eigenvalue and
    # predict_rate all take N as neutral and the law as logarithmic
    d = d + sign * offset
    rc, c, p, b, cc = reduced(consts_at, profile_at, basis_at, d, k, N)
    assert classify(c).neutral_index == N
    assert eigenvalue(c, N).lam == 0.0 and rc.lam == 0.0
    assert predict_rate(c, N, p, b, cc).kind == "logarithmic"
    assert solve_epsilon(rc, eps0=0.05).s0 is not None
