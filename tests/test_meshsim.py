import math

import numpy as np
import pytest
import scipy.integrate._ivp.bdf
import scipy.linalg
from scipy.integrate._ivp.common import num_jac

from blowuplab import meshsim
from blowuplab.errors import (
    BadInitialData,
    NoBlowup,
    StepSizeUnderflow,
    WindowTooShort,
)
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
    rdot = meshsim._mesh_rhs(cfg, r, u, *meshsim._differences(r, u), gain=1.0)
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


@pytest.mark.parametrize("n", [7, 159])
def test_inverse_laplacian_matches_solveh_banded(n):
    # the cached pttrf factor and pttrs solve take the same LAPACK path as
    # solveh_banded (ptsv), so the results agree bit for bit
    ab = np.empty((2, n))
    ab[0], ab[1] = -1.0, 2.0
    rng = np.random.default_rng(n)
    for shape in ((n,), (n, 5)):
        b = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        x = meshsim._inverse_laplacian(b)
        assert x.shape == shape
        assert np.array_equal(x, scipy.linalg.solveh_banded(ab, b))


def _reference_rhs(cfg, y, uL, gain):
    """The moving-mesh RHS written out on its own: nodal differences by
    np.diff, the 3-point stencil from its node weights, the smoothing passes
    with explicit end rows and a banded solve for the mesh velocity.  Also
    returns the size of the larger of the two terms phys and r' u_r that
    make up the u rows."""
    n = cfg.M - 2
    r = np.concatenate([[0.0], y[n:], [cfg.L]])
    u = np.concatenate([[0.0], y[:n], [uL]])
    dr = np.diff(r)
    m = np.sqrt(cfg.monitor_alpha + (np.diff(u) / dr) ** 2)
    m = m + cfg.monitor_scale_weight * np.abs(0.5 * (u[:-1] + u[1:])) \
        / (0.5 * (r[:-1] + r[1:]))
    for _ in range(cfg.monitor_smooth_passes):
        sm = np.empty_like(m)
        sm[1:-1] = 0.25 * m[:-2] + 0.5 * m[1:-1] + 0.25 * m[2:]
        sm[0] = 0.75 * m[0] + 0.25 * m[1]
        sm[-1] = 0.75 * m[-1] + 0.25 * m[-2]
        m = sm
    m = m + cfg.uniform_fraction * np.sum(m * dr) / cfg.L
    ab = np.empty((2, n))
    ab[0], ab[1] = -1.0, 2.0
    rdot = scipy.linalg.solveh_banded(ab, gain * np.diff(m * dr))

    d, k = cfg.params.d, cfg.params.k
    hm, hp = r[1:-1] - r[:-2], r[2:] - r[1:-1]
    um, uc, up = u[:-2], u[1:-1], u[2:]
    ur = (-hp / (hm * (hm + hp))) * um + ((hp - hm) / (hm * hp)) * uc \
        + (hm / (hp * (hm + hp))) * up
    urr = 2.0 * (um / (hm * (hm + hp)) - uc / (hm * hp) + up / (hp * (hm + hp)))
    rc = r[1:-1]
    phys = urr + (d - 1.0) / rc * ur \
        - k * (d + k - 2.0) / (2.0 * rc * rc) * np.sin(2.0 * uc)
    advection = rdot * ur
    scale = max(np.max(np.abs(phys)), np.max(np.abs(advection)))
    return np.concatenate([phys + advection, rdot]), scale


def _rhs_states(trace):
    """(state, gain) at the start, the middle and the end of a run to
    sup|u_r| = 1e6, the last with the sharpened layer."""
    snaps = trace.snapshots
    return [(snaps[0], 0.5), (snaps[len(snaps) // 2], 0.5),
            _sharpened_layer(trace)]


def test_rhs_matches_reference(quick_trace):
    # the stencil of _make_rhs works on the midpoint gradients, the
    # reference on node weights: the two round differently.  At a sharpened
    # layer phys and r' u_r nearly cancel (max|u'| is a sixth of max|phys|
    # at the last state here), so the u rows are compared at the scale of
    # those terms
    cfg = quick_trace.config
    n = cfg.M - 2
    for state, gain in _rhs_states(quick_trace):
        y = meshsim._pack(state)
        f = meshsim._make_rhs(cfg, state.u[-1], gain)(state.t, y)
        f_ref, scale = _reference_rhs(cfg, y, state.u[-1], gain)
        u_err = np.max(np.abs(f[:n] - f_ref[:n])) / scale
        r_err = np.max(np.abs(f[n:] - f_ref[n:])) / np.max(np.abs(f_ref[n:]))
        assert u_err <= 1e-10 and r_err <= 1e-12, (state.t, u_err, r_err)


def test_rhs_returns_fresh_arrays():
    # scipy keeps the value of one call across the next (select_initial_step
    # holds f0), so no call may hand back memory that a later one reuses
    cfg = config(M=101)
    state = initialize(cfg)
    y = meshsim._pack(state)
    rhs = meshsim._make_rhs(cfg, state.u[-1], gain=0.5)
    f1 = rhs(0.0, y)
    f1_copy = f1.copy()
    y[: cfg.M - 2] *= 1.001
    f2 = rhs(0.0, y)
    assert not np.shares_memory(f1, f2)
    assert np.array_equal(f1, f1_copy)


def _dense_jacobian(J):
    """The dense 2n x 2n matrix of a structured meshsim Jacobian,
    L + P A^-1 (G + g s^T), assembled from its parts."""
    n = J.ur.size

    def from_diagonals(vals):
        # centred diagonal storage: [blk, i, j] is column i + j - (K-1)/2
        # of block blk
        out = np.zeros((vals.shape[1], 2 * n))
        K = vals.shape[2]
        for i in range(vals.shape[1]):
            for j in range(K):
                col = i + j - (K - 1) // 2
                if 0 <= col < n:
                    out[i, [col, n + col]] = vals[:, i, j]
        return out

    L = np.zeros((2 * n, 2 * n))
    L[:n] = from_diagonals(J.stencil)
    G = from_diagonals(J.mesh) + np.outer(J.g, J.s.ravel())
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    P = np.vstack([np.diag(J.ur), np.eye(n)])
    return J.a * np.eye(2 * n) + J.b * (L + P @ np.linalg.solve(A, G))


def _block_error(X, X_ref, n):
    """Max-norm distance of X from X_ref relative to the latter's max norm,
    taken per (u, r) block so the mesh part is not hidden by the stiffer
    PDE part; X is a state vector or a matrix on the state."""
    def block_max(Z):
        return np.abs(Z).reshape((2, n) * Z.ndim).max(axis=(1, 3)[:Z.ndim])

    return float(np.max(block_max(X - X_ref) / block_max(X_ref)))


def _jac_error(cfg, state, gain):
    """Distance of the Jacobian BDF was given from scipy's dense
    finite-difference one (see _block_error)."""
    y = meshsim._pack(state)
    solver = meshsim._new_solver(cfg, state, gain, t_bound=state.t + 1.0)
    J = _dense_jacobian(solver.J)
    rhs = meshsim._make_rhs(cfg, state.u[-1], gain)
    J_ref, _ = num_jac(rhs, state.t, y, rhs(state.t, y), solver.atol, None)
    return _block_error(J, J_ref, cfg.M - 2)


def _newton_error(cfg, state, gain, extra_c=()):
    """Largest distance (see _block_error) of the banded Newton solve of
    (I - c J) x = b from a dense solve, for c from 1/100 to 100 times the
    first step BDF selects and for each of extra_c."""
    solver = meshsim._new_solver(cfg, state, gain, t_bound=state.t + 1.0)
    n = cfg.M - 2
    J = _dense_jacobian(solver.J)
    b = np.random.default_rng(0).standard_normal(2 * n)
    errors = []
    for c in [*(solver.h_abs * np.array([1e-2, 1.0, 1e2])), *extra_c]:
        x = solver.solve_lu(solver.lu(solver.I - c * solver.J), b)
        errors.append(_block_error(x, scipy.linalg.solve(np.eye(2 * n) - c * J, b), n))
    return max(errors)


JACOBIAN_CASES = [
    {}, {"monitor_smooth_passes": 0}, {"monitor_scale_weight": 0.0},
    {"uniform_fraction": 0.0}, {"initial_data": "r+sin(r)", "M": 97},
]


def _sharpened_layer(trace):
    """The last snapshot of a run to sup|u_r| = 1e6 (a boundary layer many
    orders of magnitude thinner than the outer mesh spacing) and the gain
    run() sets there."""
    t, g = trace.t, trace.sup_grad
    qhat = math.log(g[-1] / g[-20]) / (t[-1] - t[-20])
    return trace.snapshots[-1], TRACKING_MARGIN * qhat / (1.0 + g[-1])


@pytest.mark.parametrize("kw", JACOBIAN_CASES)
def test_jacobian_matches_num_jac(kw):
    cfg = config(**kw)
    assert _jac_error(cfg, initialize(cfg), gain=0.5) <= 1e-5


def test_jacobian_matches_num_jac_sharpened_layer(quick_trace):
    state, gain = _sharpened_layer(quick_trace)
    assert _jac_error(quick_trace.config, state, gain) <= 1e-5


@pytest.mark.parametrize("kw", JACOBIAN_CASES + [
    # smoothing wider than the mesh: the band is clipped to 3n - 1
    {"M": 64, "monitor_smooth_passes": 100},
])
def test_newton_solve_matches_dense(kw):
    cfg = config(**kw)
    # c = 1 is far beyond BDF's steps here, where the rank-one term shows
    assert _newton_error(cfg, initialize(cfg), gain=0.5, extra_c=(1.0,)) <= 1e-10


def test_newton_solve_matches_dense_sharpened_layer(quick_trace):
    state, gain = _sharpened_layer(quick_trace)
    assert _newton_error(quick_trace.config, state, gain) <= 1e-10


def test_newton_band_clipped_to_matrix():
    n = 62
    pattern = meshsim._jac_pattern(n, 100)
    assert pattern.kl == 3 * n - 1 and pattern.ku < 3 * n
    assert meshsim._jac_pattern(199, 4).kl < 3 * (4 + 2)


def test_no_dense_lu(monkeypatch):
    # the Newton matrix is factored banded; scipy's dense LU must not run
    def dense_lu(*args, **kwargs):
        raise AssertionError("dense LU called")

    monkeypatch.setattr(scipy.integrate._ivp.bdf, "lu_factor", dense_lu)
    monkeypatch.setattr(scipy.integrate._ivp.bdf, "lu_solve", dense_lu)
    cfg = config(M=101)
    state = initialize(cfg)
    for _ in range(3):
        state = step(cfg, state, dt_max=1e-3)
    trace = run(config(M=101, t_max=1e-3))
    assert trace.solver["nlu"] >= 1 and trace.t.size > 1


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
    assert set(counters) == {"chunks", "nfev", "njev", "nlu", "rhs_s",
                             "jac_s", "lu_s"}
    assert counters["njev"] >= counters["chunks"] >= 1
    assert counters["rhs_s"] > 0 and counters["jac_s"] > 0 and counters["lu_s"] > 0
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


def test_roundoff_stop_keeps_accepted_steps():
    # far past the gradients the time floor allows: the run stops at the
    # first failed step and keeps every step accepted before it
    trace = run(config(M=64, max_gradient=1e12))
    assert trace.stopped == "roundoff"
    assert not trace.no_blowup
    assert 1e6 < trace.sup_grad[-1] < 1e12
    fit_power(trace)
    last = trace.snapshots[-1]
    assert last.t == trace.t[-1]
    assert meshsim._sup_gradient(last.r, last.u) == trace.sup_grad[-1]


def test_failed_step_not_retried(monkeypatch):
    # a failed step away from blow-up ends the run: no retry, no new solver
    new_solver, solvers = meshsim._new_solver, []

    def counting_solver(*args, **kwargs):
        solvers.append(new_solver(*args, **kwargs))
        return solvers[-1]

    monkeypatch.setattr(meshsim, "_new_solver", counting_solver)
    monkeypatch.setattr(meshsim._BandedBDF, "_step_impl",
                        lambda self: (False, "forced"))
    with pytest.raises(StepSizeUnderflow):
        run(config(M=64))
    assert len(solvers) == 1


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
