import math

import numpy as np
import pytest
from scipy.integrate._ivp.common import num_jac

from blowuplab import meshsim
from blowuplab.errors import BadInitialData, NoBlowup, WindowTooShort
from blowuplab.meshsim import (
    MeshState,
    RunTrace,
    SimConfig,
    TRACKING_MARGIN,
    fit_log,
    fit_power,
    initialize,
    run,
    step,
    to_self_similar,
    trace_from_csv,
)
from blowuplab.params import ModelParams


def config(d=8.0, k=1, **kw):
    return SimConfig(params=ModelParams(d=d, k=k), **kw)


@pytest.fixture(scope="module")
def quick_trace():
    """A short but genuine d=8 blow-up run shared by several tests."""
    cfg = config(M=201, rtol=1e-6, max_gradient=1e6)
    return run(cfg)


# ----------------------------------------------------------------------------
# config and initialization

def test_config_validation():
    with pytest.raises(ValueError):
        config(L=-1.0)
    with pytest.raises(ValueError):
        config(M=32)
    with pytest.raises(ValueError):
        config(max_gradient=1e5)
    for bad in ({"rtol": 0.0}, {"rtol": -1e-6}, {"tau": 0.0},
                {"t_max": -1.0}, {"t_max": 0.0}, {"uniform_fraction": -0.5},
                {"snapshot_decades": 0.0}, {"tau": math.nan},
                {"atol_u": 0.0}, {"atol_r_rel": -1e-4}, {"L": math.nan}, {"L": math.inf},
                {"max_gradient": math.nan}, {"monitor_alpha": -1.0},
                {"monitor_alpha": math.nan}, {"monitor_scale_weight": -1.0},
                {"monitor_smooth_passes": -1}, {"monitor_smooth_passes": -2},
                {"monitor_smooth_passes": 2.5}):
        with pytest.raises(ValueError):
            config(**bad)
    config(uniform_fraction=0.0, monitor_alpha=0.0, monitor_scale_weight=0.0,
           monitor_smooth_passes=0)


def test_initialize_identity_family():
    state = initialize(config(M=201))
    assert state.r[0] == 0.0 and state.r[-1] == 2.0
    assert np.all(np.diff(state.r) > 0)
    assert np.allclose(state.u, state.r)


def test_initialize_r_plus_sin():
    state = initialize(config(initial_data="r+sin(r)"))
    assert np.allclose(state.u[1:], state.r[1:] + np.sin(state.r[1:]))


def test_initialize_rejects_bad_tabulated():
    with pytest.raises(BadInitialData):
        initialize(config(initial_data=([0.0, 1.0, 2.0], [0.1, 1.0, 2.0])))
    r = [0.0, 1.0, 2.0]
    for bad in (5, ([0.0, 1.0, 2.0], [0.0, 1.0]), (r, r, r), (r,),
                ([[0.0, 2.0]], [[0.0, 2.0]]), ([0.0], [0.0]), ([], []),
                (r, ["a", "b", "c"]), (r, [0.0, math.nan, 1.0]),
                ([0.0, 1.0, math.inf], r), ([0.0, 2.0, 1.0], r),
                ([0.1, 1.0, 2.0], r), ([0.0, 1.0, 1.5], r),
                ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0])):
        with pytest.raises(BadInitialData):
            initialize(config(initial_data=bad))


def test_initialize_rejects_unknown_family():
    with pytest.raises(BadInitialData):
        initialize(config(initial_data="exp(r)"))


def test_initialize_tabulated_interpolates():
    r_tab = np.linspace(0.0, 2.0, 401)
    state = initialize(config(initial_data=(r_tab, np.tanh(r_tab) * r_tab)))
    assert state.u[0] == 0.0
    assert np.allclose(state.u, np.tanh(state.r) * state.r, atol=1e-4)


# ----------------------------------------------------------------------------
# stepping

def test_zero_solution_is_fixed_point():
    r_tab = np.linspace(0.0, 2.0, 101)
    cfg = config(M=101, initial_data=(r_tab, np.zeros_like(r_tab)))
    state = initialize(cfg)
    out = step(cfg, state, dt_max=1e-3)
    assert out.t > state.t
    assert np.max(np.abs(out.u)) < 1e-10


def test_near_equator_interior_evolves():
    # u = pi/2 in the interior with a regular ramp at both ends is not
    # stationary on the truncated domain; it must evolve without blowing
    # assertions (sanity check of the sine-term handling near u = pi/2)
    r_tab = np.linspace(0.0, 2.0, 401)
    u_tab = np.minimum(0.5 * math.pi * r_tab / 0.2, 0.5 * math.pi)
    cfg = config(M=101, initial_data=(r_tab, u_tab))
    state = initialize(cfg)
    out = state
    for _ in range(3):
        out = step(cfg, out, dt_max=1e-4)
    assert np.isfinite(out.u).all()
    assert np.max(np.abs(out.u - np.interp(out.r, r_tab, u_tab))) > 1e-8


def test_energy_decreases_across_steps():
    cfg = config(M=121, rtol=1e-7)
    state = initialize(cfg)
    energies = [meshsim._energy(cfg, state.r, state.u)]
    for _ in range(5):
        state = step(cfg, state, dt_max=1e-3)
        energies.append(meshsim._energy(cfg, state.r, state.u))
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_mesh_velocity_vanishes_at_equidistribution():
    # constant monitor on a uniform mesh: no node should move
    cfg = config(M=101, monitor_scale_weight=0.0)
    r = np.linspace(0.0, 2.0, 101)
    u = np.zeros(101)
    rdot = meshsim._mesh_rhs(cfg, r, u, gain=1.0)
    assert np.max(np.abs(rdot)) < 1e-12


def test_rhs_batched_matches_single_columns():
    cfg = config(M=121)
    state = initialize(cfg)
    y = meshsim._pack(state)
    rhs = meshsim._make_rhs(cfg, state.u[-1], gain=0.5)
    rng = np.random.default_rng(0)
    Y = y[:, None] * (1.0 + 1e-3 * rng.standard_normal((y.size, 5)))
    F = rhs(0.0, Y)
    assert F.shape == Y.shape
    for j in range(Y.shape[1]):
        f = rhs(0.0, Y[:, j])
        assert f.shape == y.shape
        assert np.max(np.abs(F[:, j] - f)) <= 1e-12 * np.max(np.abs(f))


def _jac_error(cfg, state, gain):
    """Max-norm distance of the structured Jacobian from scipy's dense
    finite-difference one, relative to the latter's max norm, taken per
    (u, r) block so the mesh rows are not hidden by the stiffer PDE rows."""
    y = meshsim._pack(state)
    solver = meshsim._new_solver(cfg, state, gain, t_bound=state.t + 1.0)
    J = meshsim._make_jac(cfg, state.u[-1], gain, solver.atol)(state.t, y)
    assert np.array_equal(solver.J, J)  # the Jacobian BDF was given
    rhs = meshsim._make_rhs(cfg, state.u[-1], gain)
    J_ref, _ = num_jac(rhs, state.t, y, rhs(state.t, y), solver.atol, None)
    n = cfg.M - 2
    halves = (slice(None, n), slice(n, None))
    return max(np.max(np.abs(J[a, b] - J_ref[a, b])) / np.max(np.abs(J_ref[a, b]))
               for a in halves for b in halves)


@pytest.mark.parametrize("kw", [
    {}, {"monitor_smooth_passes": 0}, {"monitor_scale_weight": 0.0},
    {"uniform_fraction": 0.0}, {"initial_data": "r+sin(r)", "M": 97},
])
def test_jacobian_matches_num_jac(kw):
    cfg = config(**kw)
    assert _jac_error(cfg, initialize(cfg), gain=0.5) <= 1e-5


def test_jacobian_matches_num_jac_sharpened_layer(quick_trace):
    # the last snapshot of a run to sup|u_r| = 1e6: a boundary layer many
    # orders of magnitude thinner than the outer mesh spacing
    state = quick_trace.snapshots[-1]
    t, g = quick_trace.t, quick_trace.sup_grad
    qhat = math.log(g[-1] / g[-20]) / (t[-1] - t[-20])
    gain = TRACKING_MARGIN * qhat / (1.0 + g[-1])   # as run() sets it
    assert _jac_error(quick_trace.config, state, gain) <= 1e-5


def test_monitor_positive_and_massive():
    cfg = config(M=201)
    state = initialize(cfg)
    m = meshsim._monitor(cfg, state.r, state.u)
    assert np.all(m > 0)
    assert m.size == state.r.size - 1


# ----------------------------------------------------------------------------
# runs and traces

def test_quick_run_reaches_blowup(quick_trace):
    assert quick_trace.stopped == "blowup"
    assert np.abs(quick_trace.dr_u0[-1]) >= 1e6
    assert not quick_trace.no_blowup


def test_quick_run_solver_counters(quick_trace):
    counters = quick_trace.solver
    assert set(counters) == {"chunks", "rejected_chunks", "nfev", "njev", "nlu"}
    assert counters["njev"] >= counters["chunks"] >= 1
    assert 0 <= counters["rejected_chunks"] < counters["chunks"]
    assert counters["nfev"] >= quick_trace.t.size - 1


def test_quick_run_energy_monotone(quick_trace):
    dE = np.diff(quick_trace.energy)
    assert np.max(dE) <= 1e-10 * abs(quick_trace.energy[0])


def test_quick_run_layer_resolved(quick_trace):
    assert np.min(quick_trace.nodes_in_layer) >= 20


def test_quick_run_sup_at_origin(quick_trace):
    assert np.all(quick_trace.sup_grad_loc == 0.0)


def test_quick_run_fit(quick_trace):
    fit = fit_power(quick_trace)
    assert fit.kind == "power"
    assert 0.05 < fit.beta < 0.25
    # the fitted T extrapolates the trace end; at sup_grad ~ 1e6 the two
    # agree to ~(1/sup_grad)^2
    assert abs(fit.T - quick_trace.t[-1]) < 1e-6


def test_tiny_tmax_flags_no_blowup():
    trace = run(config(M=101, t_max=1e-3))
    assert trace.stopped == "tmax"
    assert trace.no_blowup
    with pytest.raises(NoBlowup):
        fit_power(trace)


def test_trace_csv_roundtrip(tmp_path, quick_trace):
    path = tmp_path / "trace.csv"
    quick_trace.to_csv(path)
    back = trace_from_csv(path, config=quick_trace.config)
    assert back.t.size == quick_trace.t.size
    f1, f2 = fit_power(quick_trace), fit_power(back)
    assert f2.beta == pytest.approx(f1.beta, rel=1e-12)
    assert f2.T == pytest.approx(f1.T, rel=1e-12)


def test_snapshot_csv_roundtrip(tmp_path, quick_trace):
    snap = quick_trace.snapshots[-1]
    path = tmp_path / "snap.csv"
    snap.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.allclose(data["r"], snap.r)
    assert np.allclose(data["u"], snap.u)


# ----------------------------------------------------------------------------
# fits on synthetic traces (the fitters must recover their own generators)

def synthetic_trace(T, gfun, tau_hi=1e-1, tau_lo=1e-9, per_decade=300):
    n = int(per_decade * math.log10(tau_hi / tau_lo))
    tau = np.geomspace(tau_hi, tau_lo, n)
    t = T - tau
    g = gfun(tau)
    return RunTrace(
        config=config(), t=t, dr_u0=g, sup_grad=g,
        sup_grad_loc=np.zeros_like(t), energy=np.linspace(1.0, 0.5, n),
        min_dx=1.0 / g, nodes_in_layer=np.full(n, 50),
        snapshots=[], stopped="blowup",
    )


def test_fit_power_recovers_generator():
    trace = synthetic_trace(0.25, lambda tau: tau ** -0.6306)
    fit = fit_power(trace)
    assert abs(fit.beta - 0.1306) < 1e-3
    assert abs(fit.T - 0.25) < 1e-6


def test_fit_log_recovers_generator():
    C, s0, T = 0.225, -0.436, 0.229
    trace = synthetic_trace(T, lambda tau: C * (-np.log(tau) - s0) / np.sqrt(tau))
    fit = fit_log(trace)
    assert abs(fit.C - C) < 1e-3
    assert abs(fit.s0 - s0) < 1e-3
    assert abs(fit.T - T) < 1e-6
    assert fit.r_squared > 0.999999


def test_fit_window_guard():
    trace = synthetic_trace(0.25, lambda tau: tau ** -0.6306)
    trace.nodes_in_layer[:] = 5  # starved mesh everywhere
    with pytest.raises(WindowTooShort):
        fit_power(trace)


# ----------------------------------------------------------------------------
# self-similar rescaling

def test_to_self_similar_s_value():
    state = MeshState(t=0.25 - math.exp(-13.0), r=np.linspace(0, 2, 11),
                      u=np.linspace(0, 2, 11))
    snap = to_self_similar(state, T=0.25)
    assert snap.s == pytest.approx(13.0)
    assert snap.y[0] == 0.0
    assert np.allclose(snap.f, state.u)


def test_to_self_similar_rejects_late_time():
    state = MeshState(t=0.3, r=np.linspace(0, 2, 11), u=np.linspace(0, 2, 11))
    with pytest.raises(ValueError):
        to_self_similar(state, T=0.25)
