import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate._ivp.bdf
import scipy.linalg
from scipy.integrate._ivp.common import num_jac
from scipy.linalg.lapack import dgbtrf

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
    for bad in ({"rtol": 0.0}, {"rtol": -1e-6}, {"rtol": math.nan},
                {"t_max": -1.0}, {"t_max": 0.0}, {"L": math.nan},
                {"L": math.inf}, {"max_gradient": math.nan}):
        with pytest.raises(ValueError):
            config(**bad)
    # the mesh policy is fixed: its constants are no config fields
    for key in ("monitor_scale_weight", "monitor_smooth_passes",
                "uniform_fraction", "tau"):
        with pytest.raises(TypeError):
            config(**{key: 0.1})


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
    # constant monitor on a uniform mesh: no node should move (u = 0, so
    # the |u|/r term vanishes too)
    cfg = config(M=101)
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
    m = np.sqrt(meshsim.MONITOR_ALPHA + (np.diff(u) / dr) ** 2)
    m = m + meshsim.MONITOR_SCALE_WEIGHT * np.abs(0.5 * (u[:-1] + u[1:])) \
        / (0.5 * (r[:-1] + r[1:]))
    for _ in range(meshsim.SMOOTH_PASSES):
        sm = np.empty_like(m)
        sm[1:-1] = 0.25 * m[:-2] + 0.5 * m[1:-1] + 0.25 * m[2:]
        sm[0] = 0.75 * m[0] + 0.25 * m[1]
        sm[-1] = 0.75 * m[-1] + 0.25 * m[-2]
        m = sm
    m = m + meshsim.UNIFORM_FRACTION * np.sum(m * dr) / cfg.L
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
    solver = meshsim._new_solver(cfg, state, gain, t_bound=1.0)
    J = _dense_jacobian(solver.J)
    rhs = meshsim._make_rhs(cfg, state.u[-1], gain)
    J_ref, _ = num_jac(rhs, state.t, y, rhs(state.t, y), solver.atol, None)
    return _block_error(J, J_ref, cfg.M - 2)


def _newton_error(cfg, state, gain, extra_c=()):
    """Largest distance (see _block_error) of the banded Newton solve of
    (I - c J) x = b from a dense solve, for c from 1/100 to 100 times the
    first step BDF selects and for each of extra_c."""
    solver = meshsim._new_solver(cfg, state, gain, t_bound=1.0)
    n = cfg.M - 2
    J = _dense_jacobian(solver.J)
    b = np.random.default_rng(0).standard_normal(2 * n)
    errors = []
    for c in [*(solver.h_abs * np.array([1e-2, 1.0, 1e2])), *extra_c]:
        x = solver.solve_lu(solver.lu(solver.I - c * solver.J), b)
        errors.append(_block_error(x, scipy.linalg.solve(np.eye(2 * n) - c * J, b), n))
    return max(errors)


JACOBIAN_CASES = [
    {}, {"d": 9.0, "M": 121}, {"d": 7.0, "L": math.pi, "M": 241},
    {"d": 14.0, "k": 2}, {"initial_data": "r+sin(r)", "M": 97},
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
    # the smallest mesh, where the smoothing spans the most of it
    {"M": 64},
])
def test_newton_solve_matches_dense(kw):
    cfg = config(**kw)
    # c = 1 is far beyond BDF's steps here, where the rank-one term shows
    assert _newton_error(cfg, initialize(cfg), gain=0.5, extra_c=(1.0,)) <= 1e-10


def test_newton_solve_matches_dense_sharpened_layer(quick_trace):
    state, gain = _sharpened_layer(quick_trace)
    assert _newton_error(quick_trace.config, state, gain) <= 1e-10


def _mask_assembled_lu(J):
    """The band and pivots of _BandedBDF.lu with the stencil and mesh
    entries gathered by boolean in-range masks: the reference for its
    integer gathers."""
    pat, n = J.pattern, J.ur.size

    def in_range(width):
        cols = np.arange(n)[:, None] + np.arange(width) - width // 2
        return (cols >= 0) & (cols < n)

    band = np.zeros((3 * n, 2 * pat.kl + pat.ku + 1))
    flat, at = band.reshape(-1), pat.at
    flat[at["stencil"]] = J.b * J.stencil[:, in_range(3)]
    flat[at["diagonal"]] += J.a
    flat[at["ur"]] = J.ur
    flat[at["one"]] = 1.0
    flat[at["mesh"]] = -J.b * J.mesh[:, in_range(J.mesh.shape[2])]
    flat[at["two"]] = 2.0
    flat[at["minus_one"]] = -1.0
    band, piv, _ = dgbtrf(band.T, pat.kl, pat.ku, overwrite_ab=True)
    return band, piv


@pytest.mark.parametrize("kw", JACOBIAN_CASES)
def test_newton_band_gather_matches_masks(kw):
    cfg = config(**kw)
    state = initialize(cfg)
    solver = meshsim._new_solver(cfg, state, 0.5, t_bound=1.0)
    A = solver.I - solver.h_abs * solver.J
    band, piv = solver.lu(A)[:2]
    ref_band, ref_piv = _mask_assembled_lu(A)
    assert np.array_equal(band, ref_band) and np.array_equal(piv, ref_piv)


def test_newton_bandwidths():
    # the mesh rows reach SMOOTH_PASSES + 1 nodes to either side, at any n
    p = meshsim.SMOOTH_PASSES
    for n in (62, 199):
        pattern = meshsim._jac_pattern(n)
        assert (pattern.kl, pattern.ku) == (3 * p + 5, 3 * p + 2)
        assert pattern.width == 2 * p + 2


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


def test_chunk_solver_memory_linear():
    # a chunk solver holds no 2n x 2n dense array: scipy's dense identity
    # alone is 118 MB at M = 1921, the whole solver after one step ~7 MB
    cfg = config(M=1921)
    state = initialize(cfg)
    gain = meshsim._gain(meshsim._steepest(state.r, state.u)[0])
    tracemalloc.start()
    try:
        solver = meshsim._new_solver(cfg, state, gain, t_bound=1.0)
        solver.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solver.status == "running" and solver.njev == 1
    assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"


def test_monitor_positive_and_massive():
    cfg = config(M=201)
    state = initialize(cfg)
    m = meshsim._monitor(cfg, state.r, state.u,
                         *meshsim._differences(state.r, state.u))
    assert np.all(m > 0)
    assert m.size == state.r.size - 1


def _smoothing_passes(m, passes):
    """(1/4, 1/2, 1/4) passes with the end cells repeated, one at a time:
    the reference for the one-filter form of _smoothed_monitor."""
    p = np.empty((m.shape[0] + 2,) + m.shape[1:])
    p[1:-1] = m
    for _ in range(passes):
        p[0], p[-1] = p[1], p[-2]
        p[1:-1] = 0.25 * (p[:-2] + p[2:]) + 0.5 * p[1:-1]
    return p[1:-1]


@pytest.mark.parametrize("M", [64, 161])
@pytest.mark.parametrize("passes", [meshsim.SMOOTH_PASSES])
def test_smoothing_filter_matches_passes(M, passes):
    state = initialize(config(M=M))
    rng = np.random.default_rng(M + passes)
    # a sharp layer, and a block of perturbed states as _make_jac passes
    u = state.u + np.arctan(state.r / 1e-3)
    blocks = ((state.r, u), (np.repeat(state.r[:, None], 21, axis=1),
              u[:, None] * (1.0 + 1e-3 * rng.standard_normal((M, 21)))))
    for r, u in blocks:
        gmid = meshsim._differences(r, u)[1]
        m = meshsim._smoothed_monitor(r, u, gmid)
        raw = np.sqrt(meshsim.MONITOR_ALPHA + gmid * gmid) \
            + meshsim.MONITOR_SCALE_WEIGHT * np.abs(u[:-1] + u[1:]) / (r[:-1] + r[1:])
        ref = _smoothing_passes(raw, passes)
        assert m.shape == ref.shape == gmid.shape
        assert np.max(np.abs(m - ref) / ref) <= 2e-15, (M, r.ndim)


# ----------------------------------------------------------------------------
# runs and traces

def test_quick_run_reaches_blowup(quick_trace):
    assert quick_trace.stopped == "blowup"
    assert quick_trace.sup_grad[-1] >= 1e6
    assert not quick_trace.no_blowup


def test_quick_run_solver_counters(quick_trace):
    counters = quick_trace.solver
    assert set(counters) == {"chunks", "nfev", "njev", "nlu", "rhs_s",
                             "jac_s", "lu_s"}
    assert counters["njev"] >= counters["chunks"] >= 1
    assert counters["rhs_s"] > 0 and counters["jac_s"] > 0 and counters["lu_s"] > 0
    assert counters["nfev"] >= quick_trace.t.size - 1
    # one chunk_log record per chunk solver, and they add up to the totals
    log = quick_trace.chunk_log
    assert len(log) == counters["chunks"]
    for key in ("nfev", "njev", "nlu", "rhs_s", "jac_s", "lu_s"):
        assert sum(line[key] for line in log) == counters[key], key
    assert sum(line["steps"] for line in log) == quick_trace.t.size - 1
    assert [line["end"] for line in log] == ["growth"] * (len(log) - 1) + ["blowup"]
    for prev, line in zip(log, log[1:]):
        assert (line["t0"], line["sup_grad0"]) == (prev["t1"], prev["sup_grad1"])
        assert line["sup_grad1"] >= meshsim.CHUNK_GROWTH * line["sup_grad0"] \
            or line["end"] != "growth"


def _observe_one(cfg, t, r, u):
    """The trace row of one state as run() took it at every step before the
    rows were taken per chunk: the reference for _trace_rows."""
    d, k = cfg.params.d, cfg.params.k
    dr = r[1:] - r[:-1]
    gmid = (u[1:] - u[:-1]) / dr
    g0 = meshsim._origin_gradient(r, u)
    a = np.abs(gmid)
    j = int(np.argmax(a))
    gmax = max(float(a[j]), abs(g0))
    rmid = 0.5 * (r[:-1] + r[1:])
    umid = 0.5 * (u[:-1] + u[1:])
    dens = gmid * gmid + k * (d + k - 2.0) * np.sin(umid) ** 2 / (rmid * rmid)
    energy = 0.5 * float(np.sum(dens * rmid ** (d - 1.0) * dr))
    return (t, gmax, energy, float(np.min(dr)),
            0.0 if abs(g0) >= gmax else 0.5 * (r[j] + r[j + 1]),
            int(np.sum(r <= 5.0 / gmax)))


def test_trace_rows_match_per_state(quick_trace):
    # the snapshots have their steepest gradient at the origin; r - sin(r)
    # has it at r = L
    cfg = quick_trace.config
    snaps = quick_trace.snapshots + [
        initialize(replace(cfg, initial_data="r-sin(r)"))]
    steepest = [meshsim._steepest(s.r, s.u) for s in snaps]
    got = meshsim._trace_rows(
        cfg, np.array([s.t for s in snaps]), np.array([s.r for s in snaps]),
        np.array([s.u for s in snaps]), *map(np.array, zip(*steepest)))
    ref = np.array([_observe_one(cfg, s.t, s.r, s.u) for s in snaps]).T
    # t_left needs the whole run (see run), the other columns one state each
    assert len(got) == len(meshsim.TRACE_COLUMNS) - 1
    for name, col, ref_col in zip(meshsim.TRACE_COLUMNS, got, ref):
        assert np.array_equal(col, ref_col), name
    assert np.count_nonzero(got[4]) == 1


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
    assert trace.chunk_log[-1]["end"] == "tmax"
    assert trace.chunk_log[-1]["t1"] == trace.t[-1] == 1e-3
    with pytest.raises(NoBlowup):
        fit_power(trace)


def test_deep_run_reaches_max_gradient():
    # far past sup|u_r| ~ 1e8, where the absolute times of the last rows
    # coincide: each chunk solver's own clock keeps stepping to the stop
    trace = run(config(M=64, max_gradient=1e12))
    assert trace.stopped == "blowup"
    assert trace.sup_grad[-1] >= 1e12
    assert trace.t[-1] == trace.t[-2]
    # t_left is exact where t is not: positive, strictly decreasing, 0 last
    t_left = trace.t_left
    assert np.all(t_left[:-1] > 0) and t_left[-1] == 0.0
    assert np.all(np.diff(t_left) < 0)
    assert t_left[0] == pytest.approx(sum(line["dt"] for line in trace.chunk_log),
                                      rel=1e-12)
    # the snapshots carry the t_left of their rows
    rows = {t: j for j, t in enumerate(trace.t_left)}
    for snap in trace.snapshots:
        j = rows[snap.t_left]
        assert snap.t == trace.t[j]
        assert meshsim._steepest(snap.r, snap.u)[0] == trace.sup_grad[j]
    assert trace.snapshots[-1].t_left == 0.0
    # the rows of every chunk are kept
    assert trace.chunk_log[-1]["end"] == "blowup"
    assert sum(line["steps"] for line in trace.chunk_log) == trace.t.size - 1


def test_snapshots_distinct(quick_trace):
    # the quick run stops on a snapshot rung (sup|u_r| = 1e6), the t_max run
    # between two; either way the last row closes the snapshots once
    for trace in (quick_trace, run(config(M=101, t_max=1e-3))):
        t_left = [snap.t_left for snap in trace.snapshots]
        assert np.all(np.diff(t_left) < 0) and t_left[-1] == 0.0, t_left
    assert quick_trace.sup_grad[-2] < 1e6 <= quick_trace.sup_grad[-1]


def test_log_fit_stable_under_roundoff(monkeypatch):
    # the sim-neutral-d7 benchmark config: a change of ATOL_U by parts in 1e9
    # changes the rounding of every step; the fitted C must not move beyond
    # that level (it moved 1e-3 while the fits used absolute times)
    cfg = config(d=7.0, L=math.pi, M=241, rtol=1e-6, max_gradient=1e6,
                 initial_data="r-sin(r)")
    Cs = []
    for k in range(3):
        monkeypatch.setattr(meshsim, "ATOL_U", 1e-9 * (1.0 + k * 1e-9))
        Cs.append(fit_log(run(cfg)).C)
    assert (max(Cs) - min(Cs)) / min(Cs) <= 1e-6, Cs


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
    """Rows at T - t = tau from tau_hi down to tau_lo; t_left is exact, t is
    T - tau in double precision."""
    n = int(per_decade * math.log10(tau_hi / tau_lo))
    tau = np.geomspace(tau_hi, tau_lo, n)
    t = T - tau
    g = gfun(tau)
    return RunTrace(
        config=config(), t=t, sup_grad=g,
        sup_grad_loc=np.zeros_like(t), energy=np.linspace(1.0, 0.5, n),
        min_dx=1.0 / g, nodes_in_layer=np.full(n, 50),
        t_left=tau - tau[-1], snapshots=[], stopped="blowup",
    )


def power_generator(tau):
    return tau ** -0.6306


def log_generator(C=0.225, s0=-0.436):
    return lambda tau: C * (-np.log(tau) - s0) / np.sqrt(tau)


def check_power_fit(trace, T):
    fit = fit_power(trace)
    assert abs(fit.beta - 0.1306) < 1e-3
    assert abs(fit.T - T) < 1e-6
    return fit


def check_log_fit(trace, T, C=0.225, s0=-0.436):
    fit = fit_log(trace)
    assert abs(fit.C - C) < 1e-3
    assert abs(fit.s0 - s0) < 1e-3
    assert abs(fit.T - T) < 1e-6
    assert fit.r_squared > 0.999999
    return fit


def test_fit_power_recovers_generator():
    check_power_fit(synthetic_trace(0.25, power_generator), 0.25)


def test_fit_log_recovers_generator():
    check_log_fit(synthetic_trace(0.229, log_generator()), 0.229)


def test_fits_recover_generators_on_quantized_time():
    # T - t down to 1e-20, far below the spacing of doubles near T = 0.25
    # (2.8e-17): the last rows share one t, and only t_left tells them apart
    for check, gen in ((check_power_fit, power_generator),
                       (check_log_fit, log_generator())):
        trace = synthetic_trace(0.25, gen, tau_lo=1e-20)
        assert np.sum(trace.t == 0.25) > 100
        fit = check(trace, 0.25)
        assert fit.tau == pytest.approx(1e-20, rel=1e-2)


def test_fit_window_guard():
    trace = synthetic_trace(0.25, lambda tau: tau ** -0.6306)
    trace.nodes_in_layer[:] = 5  # starved mesh everywhere
    with pytest.raises(WindowTooShort):
        fit_power(trace)


def _longest_run_loop(ok):
    """(start, length) of the first longest run of True in ok, by the
    run-length loop that _resolved_window replaced: its reference."""
    best, run, start, best_start = 0, 0, 0, 0
    for j, flag in enumerate(ok):
        if flag:
            if run == 0:
                start = j
            run += 1
            if run > best:
                best, best_start = run, start
        else:
            run = 0
    return best_start, best


def test_resolved_window_matches_loop():
    # resolved stretches of random lengths, and equal ones of 4 to 40
    # samples: too short, ties, and resolved throughout
    trace = synthetic_trace(0.25, lambda tau: tau ** -0.6306)
    idx = meshsim._subsample_log(trace.sup_grad)
    rng = np.random.default_rng(7)
    for case in range(40):
        ok = rng.random(idx.size) < 0.97 if case % 2 else \
            np.tile(np.arange(40) < 4 + case, idx.size // 40 + 1)[:idx.size]
        trace.nodes_in_layer[idx] = np.where(ok, 50, 5)
        start, length = _longest_run_loop(ok)
        if length < 12:
            with pytest.raises(WindowTooShort):
                meshsim._resolved_window(trace)
            continue
        rows, g = meshsim._resolved_window(trace)
        kept = idx[start:start + length]
        assert np.array_equal(rows, kept)
        assert np.array_equal(g, trace.sup_grad[kept])


# ----------------------------------------------------------------------------
# self-similar rescaling

def test_to_self_similar_s_value():
    # T - t = t_left + tau = e^-13
    state = MeshState(t=0.25, r=np.linspace(0, 2, 11), u=np.linspace(0, 2, 11),
                      t_left=0.75 * math.exp(-13.0))
    snap = to_self_similar(state, tau=0.25 * math.exp(-13.0), Cs=0.5)
    assert snap.s == pytest.approx(13.0)
    assert snap.y[0] == 0.0
    assert np.allclose(snap.f, state.u)
    # sup |u_r| = 1, so eps = 1/(Cs sqrt(T-t))
    assert snap.eps == pytest.approx(2.0 * math.exp(6.5), rel=1e-12)
    flat = replace(state, u=np.zeros(11))
    assert to_self_similar(flat, tau=0.25 * math.exp(-13.0), Cs=0.5).eps == math.inf
    # u = r^2 has u_r(0) = 0, as a k >= 2 layer does; the scale is still
    # R = 1/sup |u_r|, here the gradient 3.8 of the last cell
    bowl = replace(state, u=state.r ** 2)
    assert meshsim._origin_gradient(bowl.r, bowl.u) == 0.0
    eps = to_self_similar(bowl, tau=0.25 * math.exp(-13.0), Cs=0.5).eps
    assert eps == pytest.approx(2.0 * math.exp(6.5) / 3.8, rel=1e-12)


def test_to_self_similar_rejects_late_time():
    # T - t <= 0, and a state that is no snapshot of a run (t_left unset)
    r = np.linspace(0, 2, 11)
    for t_left, tau in ((1e-3, -2e-3), (0.0, 0.0), (math.nan, 1.0)):
        state = MeshState(t=0.3, r=r, u=r, t_left=t_left)
        with pytest.raises(ValueError):
            to_self_similar(state, tau=tau, Cs=0.5)
