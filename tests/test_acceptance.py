"""End-to-end acceptance gate.

One test per criterion; each emits a single [PASS]/[FAIL] line (visible
with -s or in failure output) in addition to the pytest verdict.  The
PDE criteria share module-scoped simulation fixtures; the whole module
runs in a few minutes.
"""

import math

import numpy as np
import pytest

from blowuplab import coupling, meshsim, params, profile, rates, spectral
from blowuplab.params import ModelParams, classify, derive, eigenvalue

from conftest import c_origin_by_quadrature, eps_by_dop853

BETA1_D8 = 0.1306019
BETA1_D9 = 0.195194
C_D7_PAPER_SCALE = 0.2250


def report(num, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}  {detail}")
    assert ok, f"criterion {num}: {desc}  {detail}"


# ----------------------------------------------------------------------------
# shared expensive fixtures

@pytest.fixture(scope="module")
def asym():
    """Asymptotics pipeline outputs at the parameter points under test."""
    out = {}
    for d, k, N in ((7.0, 1, 1), (8.0, 1, 1), (9.0, 1, 1), (12.0, 2, 2)):
        c = derive(ModelParams(d=d, k=k))
        p = profile.solve_profile(c)
        b = spectral.build_basis(c)
        cc = coupling.coupling_constants(p, b, N)
        out[(d, k)] = (c, p, b, cc, N)
    return out


def _power_run(d, M):
    cfg = meshsim.SimConfig(params=ModelParams(d=d, k=1), M=M, rtol=1e-6,
                            max_gradient=1e8)
    return meshsim.run(cfg)


@pytest.fixture(scope="module")
def d8_coarse():
    return _power_run(8.0, 481)


@pytest.fixture(scope="module")
def d8_fine():
    trace = _power_run(8.0, 961)
    # the fitted T lies after the last row, so criterion 9 and compare's
    # overlay read every snapshot
    assert meshsim.fit_power(trace).tau > 0
    return trace


@pytest.fixture(scope="module")
def d9_run():
    return _power_run(9.0, 481)


def _neutral_run(initial_data):
    cfg = meshsim.SimConfig(params=ModelParams(d=7.0, k=1), L=math.pi, M=961,
                            rtol=1e-6, max_gradient=1e6,
                            initial_data=initial_data)
    return meshsim.run(cfg)


@pytest.fixture(scope="module")
def d7_runs():
    return {init: _neutral_run(init) for init in ("r", "r-sin(r)")}


# ----------------------------------------------------------------------------

def test_criterion_1_closed_form_constants():
    c7 = derive(ModelParams(d=7, k=1))
    ok = (
        abs(c7.omega - 1.0) < 1e-14 and abs(c7.gamma - 2.0) < 1e-14
        and abs(c7.delta - 1.0) < 1e-14
        and abs(eigenvalue(c7, 0).lam + 1.0) < 1e-14
        and abs(eigenvalue(c7, 1).lam) < 1e-14
        and abs(eigenvalue(c7, 1).beta) < 1e-14
    )
    c12 = derive(ModelParams(d=12, k=2))
    ok = ok and abs(c12.omega - 2.0) < 1e-14 and abs(c12.gamma - 4.0) < 1e-14
    ok = ok and classify(c12).neutral_index == 2

    worst = 0.0
    count = 0
    for k in (1, 2, 3, 4):
        d0 = params.critical_dimension(k)
        for j in range(25):
            d = d0 + 0.37 + 0.61 * j
            c = derive(ModelParams(d=d, k=k))
            worst = max(worst, abs((d - 2 - c.gamma) - (c.gamma + c.omega)) / d)
            count += 1
    ok = ok and worst <= 1e-14 and count == 100
    report(1, "closed-form constants and the gamma+omega identity", ok,
           f"identity residual {worst:.2e} over {count} points")


def test_criterion_2_spectral_suite(asym):
    worst_gram = worst_eig = worst_cn = 0.0
    for (d, k), (c, p, b, cc, N) in asym.items():
        G = b.gram_matrix()
        worst_gram = max(worst_gram, float(np.max(np.abs(G - np.eye(b.max_n + 1)))))
        y = np.geomspace(0.3, 6.0, 300)
        for n in range(5):
            resid = b.apply_operator(n, y) - b.lam(n) * b.phi(n, y)
            scale = max(float(np.max(np.abs(b.phi(n, y)))), 1.0)
            worst_eig = max(worst_eig, float(np.max(np.abs(resid))) / scale)
        for n in range(b.max_n + 1):
            # against the norm by quadrature, not the closed form
            worst_cn = max(worst_cn, abs(
                b.c_origin[n] / c_origin_by_quadrature(c, n) - 1.0))
    ok = worst_gram <= 1e-8 and worst_eig <= 1e-6 and worst_cn <= 1e-7
    report(2, "eigenbasis orthonormality / eigen-residual / c_n closed form",
           ok, f"gram {worst_gram:.1e} eig {worst_eig:.1e} cn {worst_cn:.1e}")


def test_criterion_3_profile_suite(asym):
    ok = True
    details = []
    for d, k in ((7.0, 1), (8.0, 1), (12.0, 2)):
        c, p = asym[(d, k)][:2]
        rep = profile.check_trapping(p)
        scale = float(np.max(p.v_prime))
        ok = ok and rep.max_lower_violation <= 1e-7 * scale
        ok = ok and rep.max_upper_violation <= 1e-7 * scale
        ok = ok and p.h > 0
    c8, p8 = asym[(8.0, 1)][:2]
    loose = profile.solve_profile(c8, tolerance=1e-9)
    tight = profile.solve_profile(c8, tolerance=1e-12)
    conv_h = abs(loose.h / tight.h - 1.0)
    # Cs is 1 exactly at k = 1, so its self-convergence is taken at k = 2
    c12 = asym[(12.0, 2)][0]
    conv_cs = abs(profile.solve_profile(c12, tolerance=1e-9).Cs
                  / profile.solve_profile(c12, tolerance=1e-12).Cs - 1.0)
    # within the loose run's own tolerance
    ok = ok and conv_h < 1e-9 and conv_cs < 1e-9
    xi = np.geomspace(1e3, 1e5, 200)
    tail = 0.5 * math.pi - profile.eval_u(p8, xi)
    rate = np.diff(np.log(tail)) / np.diff(np.log(xi))
    decay_err = float(np.max(np.abs(rate + c8.gamma)))
    ok = ok and decay_err < 1e-4
    report(3, "profile trapping / h,Cs self-convergence / tail decay", ok,
           f"dh {conv_h:.1e} dCs {conv_cs:.1e} tail-gamma {decay_err:.1e}")


def test_criterion_4_coupling_suite(asym):
    from scipy.integrate import simpson
    ok = True
    for (d, k), (c, p, b, cc, N) in asym.items():
        ok = ok and cc.D[N] > 0
        expected = (params.Regime.INNER_DOMINATED if c.omega < 2 * c.gamma
                    else params.Regime.OUTER_DOMINATED)
        ok = ok and cc.regime is expected
    # second quadrature scheme, inner (8,1)
    c, p, b, cc, N = asym[(8.0, 1)]
    pw = 8.0 - 2.0 - c.gamma
    x = np.linspace(p.x[0], p.x_switch, 20001)
    xi = np.exp(x)
    val = simpson(coupling.g_function(p, xi) * xi**pw, x=x)
    val += 0.5 * 7.0 * math.pi * math.exp(pw * p.x[0]) / pw
    val += coupling.g_tail_coefficient(p) * math.exp(
        (c.omega - 2 * c.gamma) * p.x_switch) / (2 * c.gamma - c.omega)
    inner_agree = abs(val * b.c_origin[N] / cc.D[N] - 1.0)
    ok = ok and inner_agree < 1e-6
    # second scheme, outer (9,1)
    c, p, b, cc, N = asym[(9.0, 1)]
    y_lo = 1e-4
    tail = coupling.outer_integral_truncated(b, N, N, y_lo)
    small = b.c_origin[N]**4 * y_lo ** (c.omega - 2 * c.gamma) \
        / (c.omega - 2 * c.gamma)
    gl = coupling.outer_integral(b, N, N)
    outer_agree = abs((tail + small) / gl - 1.0)
    ok = ok and outer_agree < 1e-6
    # dominance direction on the eps ladder
    for (d, k), inner_wins in (((8.0, 1), True), ((9.0, 1), False)):
        c, p, b, cc, N = asym[(d, k)]
        ratios = [np.divide(*coupling.dominance_diagnostic(p, b, N, eps))
                  for eps in (1e-2, 1e-3, 1e-4)]
        trend = ratios[0] < ratios[1] < ratios[2]
        ok = ok and (trend if inner_wins else not trend)
    report(4, "coupling D_N > 0 / regime dispatch / quadrature cross-check",
           ok, f"inner {inner_agree:.1e} outer {outer_agree:.1e}")


def test_criterion_5_reduced_dynamics(asym):
    ok = True
    worst = 0.0
    for d, k in ((8.0, 1), (7.0, 1)):
        c, p, b, cc, N = asym[(d, k)]
        rc = rates.ReducedConstants(
            lam=eigenvalue(c, N).lam, gamma=c.gamma, DN=float(cc.D[N]),
            cN=float(b.c_origin[N]), h=p.h, delta=c.delta)
        traj = rates.solve_epsilon(rc, eps0=0.05, s_max=50.0)
        err = float(np.max(np.abs(
            traj.eps / eps_by_dop853(rc, 0.05, traj.s) - 1.0)))
        worst = max(worst, err)
        ok = ok and err < 1e-6
    # coefficient dominance above and below N (d=8 exponential regime)
    c, p, b, cc, N = asym[(8.0, 1)]
    rc = rates.ReducedConstants(lam=eigenvalue(c, N).lam, gamma=c.gamma,
                                DN=float(cc.D[N]), cN=float(b.c_origin[N]),
                                h=p.h, delta=c.delta)
    traj = rates.solve_epsilon(rc, eps0=0.05, s_max=50.0)
    aN = rates.matched_aN(traj)
    for n in (2, 3):
        ratio = np.abs(rates.coefficient_flow(
            traj, eigenvalue(c, n).lam, float(cc.D[n]), an0=1e-3) / aN)
        tail = ratio[traj.s > 10.0]
        ok = ok and tail[-1] < 1e-2 * tail[0]
    c, p, b, cc, N = asym[(7.0, 1)]
    rc = rates.ReducedConstants(lam=0.0, gamma=c.gamma, DN=float(cc.D[N]),
                                cN=float(b.c_origin[N]), h=p.h, delta=c.delta)
    traj = rates.solve_epsilon(rc, eps0=0.05, s_max=50.0)
    lam0 = eigenvalue(c, 0).lam
    a0 = rates.an_requirement(traj, lam0, float(cc.D[0]))
    ratio = np.abs(rates.coefficient_flow(traj, lam0, float(cc.D[0]), an0=a0)
                   / rates.matched_aN(traj))
    r = ratio[traj.s <= 30.0]
    ok = ok and r[-1] < r[0] and bool(np.all(np.diff(r) < 1e-12))
    report(5, "eps trajectories match a DOP853 integration; mode hierarchy",
           ok, f"mismatch {worst:.1e}")


@pytest.mark.slow
def test_criterion_6_power_regime(d8_coarse, d8_fine, d9_run):
    fit_c = meshsim.fit_power(d8_coarse)
    fit_f = meshsim.fit_power(d8_fine)
    fit_9 = meshsim.fit_power(d9_run)
    err8 = abs(fit_f.beta - BETA1_D8) / BETA1_D8
    err9 = abs(fit_9.beta - BETA1_D9) / BETA1_D9
    dbeta = abs(fit_f.beta - fit_c.beta)
    stable = dbeta <= max(fit_c.uncertainty, fit_f.uncertainty)
    ok = err8 < 0.05 and err9 < 0.05 and stable
    for trace in (d8_coarse, d8_fine, d9_run):
        dE = np.diff(trace.energy)
        ok = ok and float(np.max(dE)) <= 1e-10 * abs(trace.energy[0])
        ok = ok and bool(np.all(trace.sup_grad_loc == 0.0))
        ok = ok and int(np.min(trace.nodes_in_layer)) >= 20
    report(6, "d=8/d=9 fitted beta within 5%; doubling-stable; invariants",
           ok, f"beta8 {fit_f.beta:.5f} ({err8:.1%}), beta9 {fit_9.beta:.5f} "
               f"({err9:.1%}), doubling {dbeta:.4f} vs unc "
               f"{max(fit_c.uncertainty, fit_f.uncertainty):.4f}")


@pytest.mark.slow
def test_criterion_7_neutral_regime(d7_runs):
    fits = {init: meshsim.fit_log(tr) for init, tr in d7_runs.items()}
    r2_min = min(f.r_squared for f in fits.values())
    Cs = [f.C for f in fits.values()]
    agree = abs(Cs[0] - Cs[1]) / min(Cs)
    scale_err = max(abs(f.C - C_D7_PAPER_SCALE) / C_D7_PAPER_SCALE
                    for f in fits.values())
    span = min(f.window[1] for f in fits.values())
    ok = r2_min >= 0.999 and agree < 0.01 and scale_err < 0.05 and span >= 8.0
    report(7, "d=7 log law linear; C universal across data; C scale", ok,
           f"R2 {r2_min:.6f}, C {Cs[0]:.5f}/{Cs[1]:.5f} (agree {agree:.2%}, "
           f"scale err {scale_err:.2%}), -log(T-t) span {span:.1f}")


@pytest.mark.slow
def test_criterion_8_prediction_closure(asym, d7_runs):
    c, p, b, cc, N = asym[(7.0, 1)]
    law = rates.predict_rate(c, N, p, b, cc)
    # the trace records 1/R, so the observable slope is the reciprocal of
    # the rate-law prefactor Cs*CN
    C_pred = 1.0 / law.prefactor
    fit = meshsim.fit_log(d7_runs["r"])
    ratio = fit.C / C_pred
    ok = abs(ratio - 1.0) < 0.15
    report(8, "asymptotics-predicted C vs fitted C within 15%", ok,
           f"predicted {C_pred:.5f}, fitted {fit.C:.5f}, ratio {ratio:.4f}")


@pytest.mark.slow
def test_criterion_9_ansatz_overlay(asym, d8_fine):
    c, p, b, cc, N = asym[(8.0, 1)]
    tau = meshsim.fit_power(d8_fine).tau
    sups = []
    for snap in d8_fine.snapshots:
        if snap.t_left + tau <= 0:
            continue
        ss = meshsim.to_self_similar(snap, tau, p.Cs)
        if not 0.0 < ss.eps <= rates.EPS_MAX:
            continue
        mask = (ss.y >= 2 * ss.eps) & (ss.y <= 1.0)
        if int(mask.sum()) < 10:
            continue
        ansatz = rates.assemble_ansatz(p, b, N, ss.eps, y_grid=ss.y[mask])
        sups.append((ss.s, float(np.max(np.abs(ss.f[mask] - ansatz.f)))))
    ok = len(sups) >= 3 and all(b2 < a2 for (_, a2), (_, b2)
                                in zip(sups, sups[1:]))
    report(9, "snapshot-vs-ansatz sup distance shrinks with s", ok,
           " -> ".join(f"{sup:.2e}" for _, sup in sups))
