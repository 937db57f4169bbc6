import copy
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import BDF
from scipy.integrate._ivp import bdf as scipy_bdf
from scipy.integrate._ivp.common import num_jac

from blowuplab import meshsim
from blowuplab.errors import (
    BadInitialData,
    DegenerateFit,
    NoBlowup,
    StepSizeUnderflow,
    WindowTooShort,
)
from blowuplab.meshsim import (
    MeshState,
    RunTrace,
    SimConfig,
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
                {"L": math.inf}, {"max_gradient": math.nan},
                # e^{-2x} at r_min = 1e-3/max_gradient overflows; L below r_min
                {"max_gradient": 1e200}, {"max_gradient": math.inf},
                {"L": 1e-12}, {"max_gradient": 1e150, "M": 6000},
                # a grid whose arrays could not be allocated
                {"M": 100_001}, {"M": 10 ** 12}):
        with pytest.raises(ValueError):
            config(**bad)
    config(max_gradient=1e150)
    config(M=100_000)
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


def test_initialize_rejects_data_whose_rhs_overflows():
    # finite tables whose RHS on the first chunk's nodes is not, with no
    # warning: the band product overflows past about 1e290 here; at 1e308
    # ten times sup|u_r| overflows too, and in the last table a difference
    # of the data, so that sup|u_r| is infinite
    for table in (([0.0, 2.0], [0.0, 1e300]), ([0.0, 2.0], [0.0, 1e308]),
                  ([0.0, 1.0, 2.0], [0.0, 1e308, -1e308])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadInitialData, match="right-hand side on"):
                initialize(config(M=64, initial_data=table))
    assert initialize(config(M=64, initial_data=([0.0, 2.0], [0.0, 1e150])))


@pytest.mark.parametrize("kw, what", [
    # a finite RHS, but the squared gradient of the energy overflows (the
    # run reported blowup with an infinite energy)
    ({"initial_data": ([0.0, 2.0], [0.0, 1e200])}, "energy"),
    ({"initial_data": ([0.0, 2.0], [0.0, 1e280])}, "energy"),
    # a kink of slope 1e70: the RHS is finite, its RMS norm in the scale of
    # the tolerances is not (the run ended in StepSizeUnderflow)
    ({"max_gradient": 1e100,
      "initial_data": ([0.0, 1e-70, 2.0], [0.0, 1.0, 1.0])},
     "right-hand side's scaled RMS norm"),
], ids=["energy", "energy-1e280", "scaled-rhs-norm"])
def test_initialize_rejects_data_that_overflow_later(kw, what):
    # data the first step or the trace's first row would overflow on, with
    # no warning, by run's own initialize call too
    for call in (initialize, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadInitialData, match=f"its {what} on"):
                call(config(M=64, **kw))


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


def test_solver_at_its_bound_finishes_without_a_step():
    # t_bound = 0: no initial step is divided by the empty interval, and the
    # first step() finishes at t = 0 without a Newton solve, as in scipy
    cfg = config(M=101)
    state = initialize(cfg)
    solver = _solver(cfg, state, 0.0)
    assert solver.h_abs == 0.0
    solver.step()
    assert (solver.status, solver.t, solver.nlu) == ("finished", 0.0, 0)


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


def _chunk(cfg, state):
    """The chunk on the grid nodes of `state`, with its u(L)."""
    return meshsim._chunk(cfg, cfg.M - state.r.size, state.u[-1])


def _rhs(cfg, state):
    """The RHS of the unknowns of `state` and their values."""
    return _chunk(cfg, state).rhs, state.u[1:-1]


def _solver(cfg, state, t_bound):
    """The first-chunk solver from `state` toward t_bound."""
    return meshsim._new_solver(cfg, _chunk(cfg, state), state.u[1:-1], t_bound)


def _columns(rhs):
    """rhs of each column of a block, stacked as columns: the vectorized
    form that num_jac evaluates."""
    return lambda t, Y: np.stack([rhs(t, y) for y in Y.T], axis=1)


def _reference_rhs(cfg, r, u):
    """The grid RHS written out node by node: x = log r, the 3-point stencil
    at the first two nodes (through the ghost node u_{-1} = u_1 - 2hk u_0)
    and at the node next to L, the 5-point one elsewhere."""
    d, k = cfg.params.d, cfg.params.k
    x = np.log(r[1:])
    h = (x[-1] - x[0]) / (x.size - 1)
    v = u[1:]
    n = v.size - 1
    f = np.empty(n)
    for j in range(n):
        if j in (0, 1, n - 1):
            vm = v[1] - 2.0 * h * k * v[0] if j == 0 else v[j - 1]
            ux = (v[j + 1] - vm) / (2.0 * h)
            uxx = (vm - 2.0 * v[j] + v[j + 1]) / h ** 2
        else:
            a, b, c, e, g = v[j - 2:j + 3]
            ux = (a - 8.0 * b + 8.0 * e - g) / (12.0 * h)
            uxx = (-a + 16.0 * b - 30.0 * c + 16.0 * e - g) / (12.0 * h ** 2)
        f[j] = math.exp(-2.0 * x[j]) * (
            uxx + (d - 2.0) * ux - 0.5 * k * (d + k - 2.0) * math.sin(2.0 * v[j]))
    return f


def test_rhs_matches_reference(quick_trace):
    # the first, a middle and the last snapshot of a run to sup|u_r| = 1e6
    # (the last with the sharpened layer), and k = 2 data; the banded
    # operator and the reference sum the stencil in different orders, so
    # each row is compared at the scale of its terms
    snaps = quick_trace.snapshots
    k2 = config(d=14.0, k=2)
    cases = [(quick_trace.config, snap)
             for snap in (snaps[0], snaps[len(snaps) // 2], snaps[-1])]
    for cfg, state in cases + [(k2, initialize(k2))]:
        rhs, y = _rhs(cfg, state)
        f_ref = _reference_rhs(cfg, state.r, state.u)
        scale = np.abs(y) / state.r[1:-1] ** 2
        err = np.max(np.abs(rhs(state.t, y) - f_ref) / (scale + np.abs(f_ref)))
        assert err <= 1e-12, (state.t, err)


def test_rhs_fourth_order():
    # u = 2 arctan(r) against the PDE in r: the 5-point nodes converge at
    # fourth order in the grid spacing, the 3-point ones at second, and the
    # first node, whose ghost u_{-1} = u_1 - 2h u_0 is first order in u_xx,
    # at first
    d = 8.0

    def errors(M):
        cfg = config(d=d, M=M, max_gradient=1e6)
        state = initialize(cfg)
        r = state.r
        u = 2.0 * np.arctan(r)
        rhs = meshsim._chunk(cfg, cfg.M - r.size, u[-1]).rhs
        ur, urr = 2.0 / (1.0 + r * r), -4.0 * r / (1.0 + r * r) ** 2
        exact = urr[1:-1] + (d - 1.0) / r[1:-1] * ur[1:-1] \
            - (d - 1.0) / (2.0 * r[1:-1] ** 2) * np.sin(2.0 * u[1:-1])
        # relative to the size of the terms, r^-2 u at each node
        return np.abs(rhs(0.0, u[1:-1]) - exact) * r[1:-1] ** 2 / u[1:-1]

    coarse, fine = errors(201), errors(401)
    ratios = [np.max(coarse[nodes]) / np.max(fine[nodes])
              for nodes in (slice(2, -1), [1, -1], [0])]
    assert ratios[0] >= 12.0 and ratios[1] >= 3.0 and ratios[2] >= 1.8, ratios


def test_rhs_returns_fresh_arrays():
    # the stepper keeps the value of one call across the next (its initial
    # step holds f0), so no call may hand back memory that a later one reuses
    cfg = config(M=101)
    rhs, y = _rhs(cfg, initialize(cfg))
    f1 = rhs(0.0, y)
    f1_copy = f1.copy()
    y *= 1.001
    f2 = rhs(0.0, y)
    assert not np.shares_memory(f1, f2)
    assert np.array_equal(f1, f1_copy)


def _row_error(J, J_ref):
    """Largest distance of a row of J from that row of J_ref, relative to
    the row's largest entry: the rows near r_min are e^{2 log(L/r_min)}
    times the rows near L."""
    return float(np.max(np.max(np.abs(J - J_ref), axis=1)
                        / np.max(np.abs(J_ref), axis=1)))


def _sparse(ab):
    """The matrix of a LAPACK band storage with two diagonals on each side,
    A[i, j] = ab[2 + i - j, j]: scipy's DIA format with offsets 2 .. -2."""
    n = ab.shape[1]
    return scipy.sparse.dia_array((ab, [2, 1, 0, -1, -2]), shape=(n, n))


def _dense(ab):
    return _sparse(ab).toarray()


def _jac_error(cfg, state):
    """Distance (see _row_error) of the Jacobian the stepper was given from
    scipy's dense finite-difference one."""
    solver = _solver(cfg, state, 1.0)
    rhs, y = _rhs(cfg, state)[0], solver.y
    J_ref, _ = num_jac(_columns(rhs), state.t, y, rhs(state.t, y),
                       solver.atol, None)
    return _row_error(_dense(solver.jac(solver.t, y)), J_ref)


def _newton_error(cfg, state, extra_c=()):
    """Largest distance of the stepper's band Newton solve of (I - c J) x = b
    from a dense solve, relative to the largest entry of x, for c from 1/100
    to 100 times the first step the stepper selects and for each of
    extra_c."""
    solver = _solver(cfg, state, 1.0)
    J_band = solver.jac(solver.t, solver.y)
    J = _dense(J_band)
    n = J.shape[0]
    b = np.random.default_rng(0).standard_normal(n)
    errors = []
    for c in [*(solver.h_abs * np.array([1e-2, 1.0, 1e2])), *extra_c]:
        x = solver.solve_lu(solver.lu(c, J_band), b)
        x_ref = scipy.linalg.solve(np.eye(n) - c * J, b)
        errors.append(np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref)))
    return max(errors)


JACOBIAN_CASES = [
    {}, {"d": 9.0, "M": 121}, {"d": 7.0, "L": math.pi, "M": 241},
    {"d": 14.0, "k": 2}, {"initial_data": "r+sin(r)", "M": 97},
]


@pytest.mark.parametrize("kw", JACOBIAN_CASES)
def test_jacobian_matches_num_jac(kw):
    cfg = config(**kw)
    assert _jac_error(cfg, initialize(cfg)) <= 1e-5


def test_jacobian_matches_num_jac_sharpened_layer(quick_trace):
    assert _jac_error(quick_trace.config, quick_trace.snapshots[-1]) <= 1e-5


@pytest.mark.parametrize("kw", [
    {"initial_data": "r"}, {"initial_data": "r+sin(r)"},
    # u ~ r^3/6 near the origin, where forward differences lose their digits
    {"initial_data": "r-sin(r)"},
    {"d": 14.0, "k": 2},
])
def test_jacobian_matches_central_differences(kw):
    # d = 8 for the three families; the rows near r_min are compared at
    # their own scale (see _row_error)
    cfg = config(**{"d": 8.0, **kw})
    state = initialize(cfg)
    chunk, y = _chunk(cfg, state), state.u[1:-1]
    rhs = _columns(chunk.rhs)
    step = 1e-4 * np.maximum(np.abs(y), meshsim.ATOL_U * state.r[1:-1])
    Y = y[:, None] + np.diag(step)
    J_ref = (rhs(0.0, Y) - rhs(0.0, y[:, None] - np.diag(step))) / (2.0 * step)
    J = _dense(chunk.jac(0.0, y))
    assert _row_error(J, J_ref) <= 1e-8


@pytest.mark.parametrize("kw", JACOBIAN_CASES + [{"M": 64}])
def test_newton_solve_matches_dense(kw):
    cfg = config(**kw)
    # c = 1 is far beyond the stepper's steps here
    assert _newton_error(cfg, initialize(cfg), extra_c=(1.0,)) <= 1e-10


def test_newton_solve_matches_dense_sharpened_layer(quick_trace):
    assert _newton_error(quick_trace.config, quick_trace.snapshots[-1]) <= 1e-10


@pytest.mark.parametrize("kw", JACOBIAN_CASES)
def test_newton_band_gather_matches_masks(kw):
    # the Jacobian the stepper gets adds the nonlinear diagonal to the middle
    # row of A's band storage; the reference adds it to the entries of the
    # dense A that a boolean mask of A's coordinate form picks out
    cfg = config(**kw)
    state = initialize(cfg)
    chunk = _chunk(cfg, state)
    solver = meshsim._new_solver(cfg, chunk, state.u[1:-1], 1.0)
    y = solver.y
    coo = _sparse(chunk.ab).tocoo()
    on_diag = coo.row == coo.col
    data = coo.data.copy()
    rows = coo.row[on_diag]
    data[on_diag] -= 2.0 * chunk.w[rows] * np.cos(2.0 * y[rows])
    ref = scipy.sparse.coo_array((data, (coo.row, coo.col)),
                                 shape=coo.shape).toarray()
    assert np.array_equal(_dense(chunk.jac(0.0, y)), ref)
    assert np.array_equal(_dense(solver.jac(solver.t, y)), ref)


def test_newton_bandwidths():
    # the Jacobian, and so the Newton matrix, is pentadiagonal at any n, its
    # band storage holds no entry outside the matrix, and the diagonal is
    # stored whole for the nonlinear term; u(L) reaches the last two
    # unknowns alone, through the two boundary entries
    for M in (64, 201):
        chunk = meshsim._chunk(config(M=M), 0, 1.0)
        n = M - 2
        assert chunk.ab.shape == (5, n)
        rows, cols = np.nonzero(_dense(chunk.ab))
        assert (np.max(rows - cols), np.max(cols - rows)) == (2, 2)
        assert np.all(chunk.ab[2] != 0.0)
        outside = [chunk.ab[0, :2], chunk.ab[1, :1], chunk.ab[3, n - 1:],
                   chunk.ab[4, n - 2:]]
        assert not np.any(np.concatenate(outside))
        assert chunk.boundary.shape == (2,) and np.all(chunk.boundary != 0.0)
        f = chunk.rhs(0.0, np.zeros(n))
        assert np.count_nonzero(f) == 2
        assert np.array_equal(f[-2:], chunk.boundary)


def test_no_dense_lu(monkeypatch):
    # the Newton matrix is factored in band storage: no dense LU or solve
    # runs or is imported, the stepper holds (5, n) and (7, n) bands, and
    # meshsim holds nothing of scipy.sparse, scipy.integrate or
    # scipy.optimize
    dense = {scipy.linalg.lu_factor, scipy.linalg.lu_solve, scipy.linalg.lu,
             scipy.linalg.solve, np.linalg.solve}

    def dense_lu(*args, **kwargs):
        raise AssertionError("dense LU called")

    for name in ("lu_factor", "lu_solve", "lu", "solve"):
        monkeypatch.setattr(scipy.linalg, name, dense_lu)
    monkeypatch.setattr(np.linalg, "solve", dense_lu)
    cfg = config(M=101)
    state = initialize(cfg)
    for _ in range(3):
        state = step(cfg, state, dt_max=1e-3)
    trace = run(config(M=101, t_max=1e-3))
    assert trace.solver["nlu"] >= 1 and trace.t.size > 1
    solver = _solver(cfg, state, 1e-3)
    solver.step()
    n = state.r.size - 2
    J = solver.jac(solver.t, solver.y)
    assert J.shape == (5, n)
    assert solver.lu(solver.h_abs, J)[0].shape == (7, n)
    for value in vars(meshsim).values():
        module = getattr(value, "__module__", None) \
            or getattr(value, "__name__", "")
        assert not str(module).startswith(
            ("scipy.sparse", "scipy.integrate", "scipy.optimize"))
        assert not any(value is f for f in dense), value


def test_chunk_solver_memory_linear():
    # a chunk solver holds no n x n dense array: on the whole grid at
    # M = 1921 a dense identity alone would be 29 MB
    cfg = config(M=1921)
    r = meshsim._chunk(cfg, 0, 0.0).r
    state = MeshState(0.0, r, meshsim.initial_profile(cfg)(r))
    tracemalloc.start()
    try:
        solver = _solver(cfg, state, 1.0)
        solver.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solver.status == "running" and solver.njev == 1
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


#: the configs on which _BandBDF is held to scipy's BDF
BDF_CASES = [
    {"M": 161, "rtol": 1e-6, "max_gradient": 1e6},
    {"d": 7.0, "L": math.pi, "M": 241, "rtol": 1e-6, "max_gradient": 1e6,
     "initial_data": "r-sin(r)"},
    {"d": 14.0, "k": 2},
]


def _bdf_pair(kw):
    """_BandBDF and scipy's BDF, given the sparse form of the same Jacobian,
    on the linear part (w = 0) of kw's first chunk from its settled start."""
    cfg = config(**kw)
    state = initialize(cfg)
    chunk = _chunk(cfg, state)
    y0 = meshsim._new_solver(cfg, chunk, state.u[1:-1], cfg.t_max).y
    lin = replace(chunk, w=0.0)
    solver = meshsim._BandBDF(lin.rhs, lin.jac, y0.copy(), cfg.t_max,
                              cfg.rtol, lin.atol)
    ref = BDF(lin.rhs, 0.0, y0.copy(), cfg.t_max, rtol=cfg.rtol,
              atol=solver.atol,
              jac=lambda t, y: _sparse(lin.jac(t, y)).tocsc())
    return solver, ref


#: the steps of the first 150 at which _BandBDF, on the linear part of each
#: of BDF_CASES, cuts h within scipy's hold (see _step_pair)
BDF_CUTS = [[], [58], [17, 30, 108]]


def _step_pair(solver, ref):
    """One step of _BandBDF and of scipy's BDF.  Where the port then cuts h
    within the hold of order + 1 steps at one h (scipy holds h there; the
    port's one departure from scipy's step control, its predictive cut),
    scipy's solver takes the same cut: its differences and h rescaled by the
    factor that the port's error norm gives, and the hold restarted.  Returns
    whether the port cut h, after checking that the cut followed an error
    norm that grew to e_n^2 > e_{n-1} and shrinks h."""
    last, held = solver.error_norm, solver.n_equal_steps + 1 < solver.order + 1
    solver.step()
    ref.step()
    if not (held and solver.n_equal_steps == 0):
        return False
    error_norm, order = solver.error_norm, solver.order
    factor = max(meshsim._MIN_FACTOR,
                 meshsim._SAFETY * error_norm ** (-1 / (order + 1)))
    assert error_norm ** 2 > last and factor < 1
    assert ref.n_equal_steps > 0 and ref.order == order
    scipy_bdf.change_D(ref.D, order, factor)
    ref.h_abs *= factor
    ref.n_equal_steps = 0
    return True


@pytest.mark.parametrize("shared_lu", [True, False])
@pytest.mark.parametrize("kw", BDF_CASES)
def test_band_bdf_matches_scipy_bdf(kw, shared_lu, monkeypatch):
    # _BandBDF against scipy's BDF for 150 steps, on the linear part of the
    # operator (w = 0), where every J is the same.  scipy's Newton iteration
    # on a kept LU is replaced by the port's corrector, one Newton step from
    # the predictor on a fresh sparse LU of I - cJ, J at the predictor (see
    # test_one_newton_step_keeps_scipy_steps for scipy as it is); the initial
    # step, error test, step and order control and differences are scipy's,
    # and where the port cuts h within scipy's hold scipy is given the same
    # cut (_step_pair).  The cut does fire here too, on two of the three
    # cases (BDF_CUTS), the first time at step 58 (d = 7) and 17 (d = 14).
    # Factoring with scipy's sparse LU too, the port takes scipy's steps bit
    # for bit.  With its band LU it takes the same orders, counts and cuts
    # at every step; the two LUs round differently, and the step control
    # carries that to at most 1.7e-8 of t and 5.3e-11 of y over the 150 steps
    solver, ref = _bdf_pair(kw)

    def sparse_lu(c, J):
        return scipy.sparse.linalg.splu(ref.I - c * J)

    def one_newton_step(fun, t_new, y_predict, c, psi, LU, solve_lu, scale,
                        tol):
        LU = sparse_lu(c, ref.jac(t_new, y_predict))
        d = LU.solve(c * fun(t_new, y_predict) - psi)
        # two iterations: scipy's safety factor is then the port's
        return bool(np.isfinite(d).all()), 2, y_predict + d, d

    monkeypatch.setattr(scipy_bdf, "solve_bdf_system", one_newton_step)
    if shared_lu:
        def counted_lu(c, J):
            solver.nlu += 1
            return sparse_lu(c, _sparse(J).tocsc())

        solver.lu = counted_lu
        solver.solve_lu = lambda LU, b: LU.solve(b)
    t_tol, y_tol = (0.0, 0.0) if shared_lu else (1e-6, 1e-7)
    cuts = []
    for step in range(1, 151):
        if _step_pair(solver, ref):
            cuts.append(step)
        assert solver.status == ref.status == "running"
        assert solver.order == ref.order
        assert solver.nfev == ref.nfev
        assert abs(solver.t - ref.t) <= t_tol * ref.t
        assert np.max(np.abs(solver.y - ref.y)) <= y_tol
    assert cuts == BDF_CUTS[BDF_CASES.index(kw)]
    # one J, LU and RHS a step attempt, and two RHS of the initial step
    assert solver.njev == solver.nlu == solver.nfev - 2 >= 150


@pytest.mark.parametrize("kw", BDF_CASES[:2])
def test_one_newton_step_keeps_scipy_steps(kw):
    # _BandBDF against scipy's BDF as it is, whose Newton iteration runs to
    # convergence on a kept LU, on the linear part of the operator, for 150
    # steps or up to the port's first cut of h within scipy's hold (none at
    # d = 8, step 58 at d = 7; BDF_CUTS).  There one Newton step from the
    # predictor solves the corrector and scipy's second iteration only
    # confirms it: scipy takes two RHS evaluations a step, the port one, and
    # the port takes scipy's orders at every step, within 2.5e-10 of t and
    # 7.4e-13 of y.  Past the cut, given to scipy too (_step_pair), the two
    # still step alike up to the end of the next hold at d = 7 (step 63);
    # there the order rises, and the choice of h reads the difference of the
    # last two corrections, which scipy's iteration and the one Newton step
    # round apart: h parts by 1e-3.  At d = 14, k = 2 (the third of
    # BDF_CASES, held to scipy's step control in
    # test_band_bdf_matches_scipy_bdf) scipy keeps its LU through the error
    # test that fails at the eighth step, an inexact Newton matrix: t parts
    # there and the orders at step 21
    solver, ref = _bdf_pair(kw)
    last = (BDF_CUTS[BDF_CASES.index(kw)] + [150])[0]
    for _ in range(last):
        _step_pair(solver, ref)
        assert solver.status == ref.status == "running"
        assert solver.order == ref.order
        assert abs(solver.t - ref.t) <= 1e-8 * ref.t
        assert np.max(np.abs(solver.y - ref.y)) <= 1e-10
    assert (solver.nfev, ref.nfev) == (last + 2, 2 * last + 2)


@pytest.mark.parametrize("kw", BDF_CASES)
def test_each_lu_follows_one_jacobian(kw):
    # on the nonlinear operator every factorisation of I - cJ takes the J
    # evaluated just before it, once, at that step's t_new and predictor
    # y_predict (the sum of the differences D up to the order), and the
    # stepper keeps no J of its own
    cfg = config(**kw)
    state = initialize(cfg)
    solver = _solver(cfg, state, cfg.t_max)
    jac, lu, calls = solver.jac, solver.lu, []

    def traced_jac(t, y):
        y_predict = np.add.reduce(solver.D[:solver.order + 1])
        J = jac(t, y)
        calls.append(("jac", J, t > solver.t and np.array_equal(y, y_predict)))
        return J

    def traced_lu(c, J):
        calls.append(("lu", J))
        return lu(c, J)

    solver.jac, solver.lu = traced_jac, traced_lu
    for _ in range(150):
        solver.step()
        assert solver.status == "running"
    assert not hasattr(solver, "J")
    assert solver.njev == solver.nlu >= 1 and len(calls) == 2 * solver.nlu
    for (kind, J, at_predict), (kind_lu, J_lu) in zip(calls[::2], calls[1::2]):
        assert (kind, kind_lu, at_predict) == ("jac", "lu", True)
        assert J_lu is J


def test_chunks_evaluate_one_jacobian_per_lu():
    # each step attempt takes one J, one LU and one RHS; the first chunk
    # also holds the two RHS of the initial step
    trace = run(config(M=161, rtol=1e-6, max_gradient=1e6))
    assert trace.stopped == "blowup"
    for line in trace.chunk_log:
        assert line["njev"] == line["nlu"] >= 1, line
    assert [line["nfev"] - line["nlu"] for line in trace.chunk_log] \
        == [2] + [0] * (len(trace.chunk_log) - 1)
    assert trace.solver["njev"] == trace.solver["nlu"] \
        == trace.solver["nfev"] - 2


@pytest.mark.parametrize("kw", BDF_CASES[:2])
def test_few_step_attempts_fail(kw):
    # near the blow-up h must shrink 6-7% a step.  scipy's step control
    # holds h for order + 1 steps after each change, so that at order 5
    # every fourth or fifth step failed its error test once: 1.21 LUs a step
    # on both runs.  Cutting h within the hold where the error norm grows on
    # past 1 leaves 1.01 (d = 8) and 1.02 (d = 7)
    trace = run(config(**kw))
    assert trace.stopped == "blowup"
    assert trace.solver["nlu"] <= 1.05 * (trace.t.size - 1)


def _first_chunk_solver(cfg, steps):
    """The solver of a run's first chunk after `steps` steps, and the state
    it reached."""
    state = initialize(cfg)
    solver = _solver(cfg, state, cfg.t_max)
    for _ in range(steps):
        state = MeshState(solver.t, state.r,
                          meshsim._advance(solver, state.u[-1]))
    return solver, state


def test_non_finite_correction_halves_the_step():
    # a Newton correction that is not finite fails the attempt: the step is
    # tried again from the same t at half the step, on a fresh J and LU at
    # the new t_new, and the half step is the one accepted
    cfg = config(M=161, rtol=1e-6, max_gradient=1e6)
    solver, _ = _first_chunk_solver(cfg, 20)
    jac, solve_lu, attempts = solver.jac, solver.solve_lu, []

    def traced_jac(t_new, y):
        attempts.append(t_new)
        return jac(t_new, y)

    def scripted(LU, b):
        d = solve_lu(LU, b)
        if len(attempts) == 1:
            d[3] = math.nan
        return d

    solver.jac, solver.solve_lu = traced_jac, scripted
    t, counts = solver.t, solver.counters()
    solver.step()
    assert solver.status == "running" and np.isfinite(solver.y).all()
    assert len(attempts) == 2 and attempts[0] > t
    assert attempts[1] == t + 0.5 * (attempts[0] - t) == solver.t
    assert solver.h_abs < attempts[0] - t
    for key in ("nfev", "njev", "nlu"):
        assert getattr(solver, key) - counts[key] == 2, key


def test_clock_rebase_reproduces_the_next_steps():
    # a carry without new nodes only restarts the clock.  From the same step
    # history the next steps take the same orders and attempts, but t_new - t
    # rounds at theta as it does not at t0, and the step control reads that
    # through the error norm, a difference known to about eps / rtol (2e-10)
    # of itself: after the fourth step cuts h within the hold by a factor
    # of its error norm, h differs by 1.3e-10, and after the failed error
    # test of the eighth by 6e-11.  The clocks then drift apart by that
    # share of each step, and the states differ by the motion over that
    # time shift, f dt, and otherwise by rounding
    cfg = config(M=161, rtol=1e-6, max_gradient=1e6)
    solver, state = _first_chunk_solver(cfg, 60)
    assert solver.order == meshsim._MAX_ORDER
    t0 = solver.t
    twin = copy.deepcopy(solver)
    chunk = _chunk(cfg, state)
    meshsim._carry(cfg, twin, chunk, cfg.t_max - t0)
    assert (twin.t, twin.t_bound) == (0.0, cfg.t_max - t0)
    rel, tried, cut = 1e-9, [], []
    for _ in range(8):
        nlu, held = solver.nlu, solver.n_equal_steps + 1 < solver.order + 1
        solver.step()
        twin.step()
        tried.append(solver.nlu - nlu)
        cut.append(held and solver.n_equal_steps == 0)
        assert twin.order == solver.order and twin.nlu == solver.nlu
        assert twin.n_equal_steps == solver.n_equal_steps
        assert twin.h_abs == pytest.approx(solver.h_abs, rel=rel, abs=0)
        shift = twin.t + t0 - solver.t
        assert abs(shift) <= rel * solver.t
        scale = solver.atol + cfg.rtol * np.abs(solver.y)
        moved = chunk.rhs(0.0, solver.y) * shift
        assert np.max(np.abs(twin.y - solver.y - moved) / scale) <= 1e-6
    # the fourth step cut h within the hold, the eighth failed one error test
    assert cut == [False, False, False, True, False, False, False, False]
    assert tried == [1, 1, 1, 1, 1, 1, 1, 2]


def _carry_settled(cfg, steps, new):
    """Carry the solver of a run's first chunk, after `steps` steps, into
    the chunk with `new` more nodes; check that the new nodes took every
    row of the history on the regular solution and that then, near the new
    first node, f(D[0]) = 0 and J D[j] = 0 for every higher row, J at D[0]:
    each to rounding against the size of its terms.  Returns the solver
    and the m unknowns that _settle put on the quasi-steady state."""
    solver, state = _first_chunk_solver(cfg, steps)
    chunk = meshsim._chunk(cfg, cfg.M - state.r.size - new, state.u[-1])
    meshsim._carry(cfg, solver, chunk, 1.0)
    D, order = solver.D, solver.order
    assert D.shape[1] == chunk.r.size - 2
    assert np.array_equal(solver.y, D[0])
    m = int(np.sum(chunk.w > chunk.w[0] / meshsim.SETTLE_SPAN ** 2))
    A = _dense(chunk.ab)
    f = chunk.rhs(0.0, D[0])
    size = np.abs(A) @ np.abs(D[0]) + chunk.w * np.abs(np.sin(2.0 * D[0]))
    assert np.max(np.abs(f[:m]) / size[:m]) <= 1e-14
    J = _dense(chunk.jac(0.0, D[0]))
    for j in range(1, order + 2):
        JD = (J @ D[j])[:m] / (np.abs(J) @ np.abs(D[j]))[:m]
        assert np.max(np.abs(JD)) <= 1e-14, j
    return solver, m


def test_carry_puts_the_history_on_the_quasi_steady_state():
    cfg = config(M=161, rtol=1e-6, max_gradient=1e6)
    solver, _ = _carry_settled(cfg, 60, 12)
    assert solver.order == meshsim._MAX_ORDER


def test_carry_settles_a_coarse_grid():
    # at 2.66 nodes per decade only m = 4 unknowns lie within SETTLE_SPAN of
    # the new first node, fewer than the band's width: the tangent solve
    # takes its rows of the whole band product (dgbmv refuses fewer rows
    # than kl + ku + 1 = 5, and the run ended in a traceback)
    cfg = config(M=64, max_gradient=1e20)
    assert cfg.M - initialize(cfg).r.size == 50
    _, m = _carry_settled(cfg, 5, 2)
    assert m == 4


def test_carried_chunks_keep_the_order(monkeypatch):
    # one solver steps the whole run: a fresh solver would start each chunk
    # at order 1, and a history left off the settled state's tangent drops
    # to order 4 at each carry; carried, later chunks step at order 5 only
    orders, advance = [], meshsim._advance

    def recording(solver, *args):
        orders.append(solver.order)   # the order this step is taken at
        return advance(solver, *args)

    monkeypatch.setattr(meshsim, "_advance", recording)
    trace = run(config(M=161, rtol=1e-6, max_gradient=1e6))
    steps = [line["steps"] for line in trace.chunk_log]
    assert len(steps) >= 5 and sum(steps) == len(orders)
    assert 1 in orders[:steps[0]]
    assert set(orders[steps[0]:]) == {meshsim._MAX_ORDER}


def test_chunk_counters_add_up_to_the_run(monkeypatch):
    # the carried solver's counters restart at each carry: each chunk_log
    # record is that chunk's share, its solver seconds within its wall
    # time, and the records add up to the calls of the whole run
    calls = dict.fromkeys(("nfev", "njev", "nlu"), 0)
    for key, name in (("nfev", "fun"), ("njev", "jac"), ("nlu", "lu")):
        def counted(self, *args, _method=getattr(meshsim._BandBDF, name),
                    _key=key):
            calls[_key] += 1
            return _method(self, *args)

        monkeypatch.setattr(meshsim._BandBDF, name, counted)
    trace = run(config(M=161, rtol=1e-6, max_gradient=1e6))
    log = trace.chunk_log
    assert len(log) == trace.solver["chunks"] >= 5
    for key, count in calls.items():
        assert sum(line[key] for line in log) == trace.solver[key] == count
    for line in log:
        assert line["rhs_s"] + line["jac_s"] + line["lu_s"] <= line["wall_s"]


def test_rebase_restarts_the_chunk_counters():
    # a carry restarts the chunk's counters and not the run's; the run's are
    # the manifest's totals, so records that did not restart would add up
    # to more than them
    cfg = config(M=161, rtol=1e-6, max_gradient=1e6)
    solver, state = _first_chunk_solver(cfg, 20)
    first = solver.counters()
    assert solver.chunk_counters() == first and first["nlu"] >= 1
    meshsim._carry(cfg, solver, _chunk(cfg, state), cfg.t_max - solver.t)
    assert solver.counters() == first
    assert set(solver.chunk_counters().values()) == {0}
    for _ in range(10):
        solver.step()
    now = solver.counters()
    assert now["nfev"] > first["nfev"]
    assert solver.chunk_counters() == {key: now[key] - first[key]
                                       for key in now}


def test_rhs_norm_overflow_is_a_failed_step():
    # an RHS whose RMS norm overflows gives a zero initial step (scipy's
    # select_initial_step divides d0 by an infinite d1); the stepper must
    # come up, and its first step end in StepSizeUnderflow
    n = 10

    def fun(t, y):
        return np.full(n, 1e200)

    def jac(t, y):
        J = np.zeros((5, n))
        J[2] = -1.0
        return J

    with np.errstate(over="ignore"):
        solver = meshsim._BandBDF(fun, jac, np.ones(n), 1.0, 1e-6,
                                  np.full(n, 1e-9))
        assert solver.h_abs == 0.0
        with pytest.raises(StepSizeUnderflow):
            meshsim._advance(solver, 1.0)
    assert solver.status == "failed" and solver.nlu == 0
    # a step size that later turns infinite or NaN fails the same way
    for h_abs in (math.inf, math.nan):
        solver = meshsim._BandBDF(lambda t, y: -y, jac, np.ones(n), 1.0,
                                  1e-6, np.full(n, 1e-9))
        solver.h_abs = h_abs
        solver.step()
        assert solver.status == "failed"


def _settle_banded(chunk, y):
    """The reference settle: _settle's three Newton solves by
    scipy.linalg.solve_banded (LAPACK's gbsv)."""
    m = int(np.sum(chunk.w > chunk.w[0] / meshsim.SETTLE_SPAN ** 2))
    for _ in range(3):
        y[:m] -= scipy.linalg.solve_banded((2, 2), chunk.jac(0.0, y)[:, :m],
                                           chunk.rhs(0.0, y)[:m])


@pytest.mark.parametrize("kw", BDF_CASES)
def test_settle_matches_solve_banded(kw):
    # the settle solves go through the stepper's dgbtrf/dgbtrs; they are
    # LAPACK's gbsv split in two, so the settled state is bit for bit what
    # solve_banded gave.  A non-finite solve is a typed error
    cfg = config(**kw)
    state = initialize(cfg)
    chunk = _chunk(cfg, state)
    y, y_ref = state.u[1:-1].copy(), state.u[1:-1].copy()
    meshsim._settle(chunk, y)
    _settle_banded(chunk, y_ref)
    assert np.array_equal(y, y_ref)
    assert not np.array_equal(y, state.u[1:-1])
    y[0] = math.nan
    with pytest.raises(StepSizeUnderflow):
        meshsim._settle(chunk, y)


def test_change_D_matches_uncached():
    # _change_D takes _compute_R(order, 1) from a table; the product it
    # applies must be scipy's change_D bit for bit
    rng = np.random.default_rng(5)
    for order in range(1, meshsim._MAX_ORDER + 1):
        for factor in (0.2, 0.5, 0.9137, 1.0, 2.5, 10.0):
            D = rng.standard_normal((meshsim._MAX_ORDER + 3, 7))
            ref = D.copy()
            RU = meshsim._compute_R(order, factor).dot(
                meshsim._compute_R(order, 1))
            ref[:order + 1] = np.dot(RU.T, ref[:order + 1])
            meshsim._change_D(D, order, factor)
            assert np.array_equal(D, ref), (order, factor)


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
    assert counters["rhs_s"] > 0 and counters["jac_s"] > 0
    assert counters["lu_s"] > 0
    assert counters["nfev"] >= quick_trace.t.size - 1
    # one chunk_log record per chunk, and they add up to the totals, which
    # the solver counted over the run: the counts exactly, the seconds to
    # the rounding of differences of one float sum
    log = quick_trace.chunk_log
    assert len(log) == counters["chunks"]
    for key in ("nfev", "njev", "nlu"):
        assert sum(line[key] for line in log) == counters[key], key
    for key in ("rhs_s", "jac_s", "lu_s"):
        assert sum(line[key] for line in log) == pytest.approx(
            counters[key], rel=1e-12, abs=0), key
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
    # a chunk's states share its one node array; stacked here as run() does
    locs = []
    for size in {s.r.size for s in snaps}:
        group = [s for s in snaps if s.r.size == size]
        assert all(np.array_equal(s.r, group[0].r) for s in group)
        steepest = [meshsim._steepest(s.r, s.u) for s in group]
        got = meshsim._trace_rows(
            cfg, np.array([s.t for s in group]), group[0].r,
            np.array([s.u for s in group]), *map(np.array, zip(*steepest)))
        ref = np.array([_observe_one(cfg, s.t, s.r, s.u) for s in group]).T
        # t_left needs the whole run (see run), the other columns one state each
        assert len(got) == len(meshsim.TRACE_COLUMNS) - 1
        for name, col, ref_col in zip(meshsim.TRACE_COLUMNS, got, ref):
            assert np.array_equal(col, ref_col), name
        locs.extend(got[4])
    assert np.count_nonzero(locs) == 1


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


def _window(trace, hi, lo=0.0):
    """The rows of a run from the first with sup|u_r| >= lo to the first
    with sup|u_r| >= hi, as a trace that ends there."""
    g = trace.sup_grad
    first, last = int(np.argmax(g >= lo)), int(np.argmax(g >= hi))
    rows = {name: getattr(trace, name)[first:last + 1]
            for name in meshsim.TRACE_COLUMNS}
    rows["t_left"] = rows["t_left"] - trace.t_left[last]
    return replace(trace, **rows)


@pytest.mark.parametrize("kw, fit", [
    ({"M": 161}, fit_power),
    ({"d": 7.0, "L": math.pi, "M": 241, "initial_data": "r-sin(r)"}, fit_log),
])
def test_time_error_within_rtol(kw, fit):
    # the benchmark's d = 8 `r` and d = 7 `r-sin(r)` runs at rtol 1e-6
    # against the same stepper at rtol 1e-10: the fitted blow-up time agrees
    # to rtol of itself (1.7e-8 and 2.7e-8 of T), beta to 3e-4 (1.3e-4) and
    # the log-law C to 1e-5 (6.0e-6).  A single step that loses the
    # method's accuracy shows in T: one step accepted at an error norm of
    # about 1,200 in place of 1 moves T by 90 (d = 8) and 210 (d = 7) times
    # the bound
    loose, tight = (fit(run(config(rtol=rtol, max_gradient=1e6, **kw)))
                    for rtol in (1e-6, 1e-10))
    assert abs(loose.T - tight.T) <= 1e-6 * tight.T
    if fit is fit_power:
        assert abs(loose.beta - tight.beta) <= 3e-4
    else:
        assert abs(loose.C - tight.C) <= 1e-5


@pytest.mark.slow
def test_refinement_ladder():
    # doubling M at d = 8 moves beta by time-integration noise only
    betas = [fit_power(run(config(M=M, rtol=1e-6, max_gradient=1e6))).beta
             for M in (241, 481, 961)]
    steps = np.abs(np.diff(betas))
    assert np.all(steps <= 2e-4), (betas, steps)


@pytest.mark.slow
def test_rates_do_not_drift_with_depth():
    # the grid resolves the layer alike at every depth: at d = 8 the
    # one-decade beta of windows ending at 1e6 .. 1e11 spreads by at most
    # 0.008, and at d = 7 every log-law C of windows ending there lies
    # within 3% of the prediction 0.22268
    trace = run(config(M=961, rtol=1e-7, max_gradient=1e12))
    betas = [fit_power(_window(trace, 10.0 ** e, 10.0 ** (e - 1))).beta
             for e in range(6, 12)]
    assert max(betas) - min(betas) <= 0.008, betas
    trace = run(config(d=7.0, L=math.pi, M=961, rtol=1e-7, max_gradient=1e12))
    Cs = [fit_log(_window(trace, 10.0 ** e)).C for e in range(6, 12)]
    assert max(abs(C / 0.22268 - 1.0) for C in Cs) <= 0.03, Cs


def test_tiny_tmax_flags_no_blowup():
    trace = run(config(M=101, t_max=1e-3))
    assert trace.stopped == "tmax"
    assert trace.no_blowup
    assert trace.chunk_log[-1]["end"] == "tmax"
    assert trace.chunk_log[-1]["t1"] == trace.t[-1] == 1e-3
    with pytest.raises(NoBlowup):
        fit_power(trace)


@pytest.fixture(scope="module")
def deep_trace():
    """A run on the coarsest grid, M = 64, to sup|u_r| = 1e12."""
    return run(config(M=64, max_gradient=1e12))


def test_deep_run_reaches_max_gradient(deep_trace):
    # far past sup|u_r| ~ 1e8, where the absolute times of the last rows
    # coincide: each chunk solver's own clock keeps stepping to the stop
    trace = deep_trace
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


def test_coarse_run_has_no_fit(deep_trace):
    # on this grid the layer falls below MIN_LAYER_NODES nodes: the fits
    # refuse the run rather than fit a piece of it
    assert deep_trace.nodes_in_layer.min() == 16
    for fit in (fit_power, fit_log):
        with pytest.raises(WindowTooShort, match="16 < 20 nodes; raise M"):
            fit(deep_trace)


def test_progress_reports_every_accepted_step():
    # progress(t, sup|u_r|) is called once per accepted step with that row's
    # own values (the benchmark's tracer stamps the steps by it)
    calls = []
    trace = run(config(M=161, rtol=1e-6, max_gradient=1e6),
                progress=lambda t, g: calls.append((t, g)))
    t, g = map(np.array, zip(*calls))
    assert len(calls) == trace.t.size - 1 == 380
    assert np.array_equal(t, trace.t[1:])
    assert np.array_equal(g, trace.sup_grad[1:])


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


def test_first_chunk_starts_on_initialize_nodes(kink_config):
    # the first chunk steps on initialize's nodes even where the origin
    # gradient on them asks for a lower first node: its rows then share one
    # node array (stacking rows of two lengths raised a ValueError)
    cfg = kink_config
    state = initialize(cfg)
    g = meshsim._steepest(state.r, state.u)[0]
    assert g == pytest.approx(14.517, rel=1e-4)
    assert meshsim._first_node(cfg, g) == cfg.M - state.r.size - 3
    trace = run(cfg)
    assert trace.stopped == "blowup"
    assert np.array_equal(trace.snapshots[0].r, state.r)
    assert trace.min_dx[0] == np.diff(state.r).min()
    assert trace.nodes_in_layer[0] <= state.r.size
    # the nodes were chosen for sup|u_r| = 10: the chunk ends where its
    # first node reaches R_MIN_SCALE of the layer (at 106.8), before the
    # 10-fold growth of its 14.5 (147.3, 1.4 R_MIN_SCALE)
    end = trace.chunk_log[0]["sup_grad1"]
    assert state.r[1] * end <= 1.1 * meshsim.R_MIN_SCALE


def test_zero_data_is_one_chunk():
    # u = 0 is a fixed point with sup |u_r| = 0: no layer, so every node is
    # in it, no divide by 0, and the chunk never ends by growth (a limit of
    # 10 x 0 opened a chunk after every step)
    cfg = config(M=64, t_max=1e-2, initial_data=([0.0, 2.0], [0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(cfg)
    assert trace.stopped == "tmax" and len(trace.chunk_log) == 1
    assert trace.chunk_log[0]["end"] == "tmax"
    assert trace.chunk_log[0]["steps"] == trace.t.size - 1 >= 2
    assert np.all(trace.sup_grad == 0.0)
    assert np.all(trace.nodes_in_layer == initialize(cfg).r.size)


def test_failed_step_not_retried(monkeypatch):
    # a failed step away from blow-up ends the run: no retry, no new solver
    new_solver, solvers = meshsim._new_solver, []

    def failing_solver(*args, **kwargs):
        solver = new_solver(*args, **kwargs)
        solvers.append(solver)

        def fail():
            solver.status = "failed"

        solver.step = fail
        return solver

    monkeypatch.setattr(meshsim, "_new_solver", failing_solver)
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


def test_fits_do_not_depend_on_row_placement():
    # the same solution sampled at different steps, every tenth of 600
    # rows a decade moved by up to 4 rows at random: the fits read it on
    # fixed rungs of sup|u_r|, so they move by interpolation error only
    # (fits on the rows themselves move beta by 9e-5, tau by 4e-10 and C by
    # 3e-5 here)
    drift = 1.0 + 0.05 * np.geomspace(1e-1, 1e-9, 4800) ** 0.2
    fits = []
    for fit, gen in ((fit_power, power_generator), (fit_log, log_generator())):
        dense = synthetic_trace(0.25, lambda tau: gen(tau) * drift,
                                per_decade=600)
        out = []
        for seed in range(4):
            steps = np.arange(10, 4790, 10)
            steps += np.random.default_rng(seed).integers(-4, 5, steps.size)
            rows = np.concatenate(([0], steps, [4799]))
            out.append(fit(replace(dense, **{
                name: getattr(dense, name)[rows] for name in
                ("t", "sup_grad", "energy", "min_dx", "sup_grad_loc",
                 "nodes_in_layer", "t_left")})))
        fits.append(out)
    betas = [f.beta for f in fits[0]]
    Cs = [f.C for f in fits[1]]
    assert max(betas) - min(betas) <= 2e-6, betas
    assert max(Cs) / min(Cs) - 1.0 <= 2e-6, Cs
    taus = [f.tau for f in fits[0]]
    assert max(taus) - min(taus) <= 2e-11, taus


def test_fit_window_guard():
    trace = synthetic_trace(0.25, lambda tau: tau ** -0.6306)
    trace.nodes_in_layer[:] = 5  # starved mesh everywhere
    with pytest.raises(WindowTooShort):
        fit_power(trace)


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_line_fit_matches_polyfit(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 5.0, 200)
    z = 3.0 - 0.5 * x + rng.normal(0.0, 0.1, x.size)
    a, b, rss, sxx = meshsim._line_fit(x, z)
    (b_ref, a_ref), cov = np.polyfit(x, z, 1, cov=True)
    rss_ref = np.polyfit(x, z, 1, full=True)[1][0]
    assert (a, b, rss, rss / (x.size - 2) / sxx) == pytest.approx(
        (a_ref, b_ref, rss_ref, cov[0, 0]), rel=1e-10)


def _exact_line(x, z):
    """(a, b, rss, rss / (n - 2) / sxx) of the least-squares line through
    the floats (x, z), in rational arithmetic, each rounded once."""
    from fractions import Fraction
    xs, zs = list(map(Fraction, x)), list(map(Fraction, z))
    n = len(xs)
    xm, zm = sum(xs) / n, sum(zs) / n
    sxx = sum((v - xm) ** 2 for v in xs)
    b = sum((v - xm) * (w - zm) for v, w in zip(xs, zs)) / sxx
    a = zm - b * xm
    rss = sum((a + b * v - w) ** 2 for v, w in zip(xs, zs))
    return tuple(map(float, (a, b, rss, rss / (n - 2) / sxx)))


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_line_fit_far_from_origin(seed):
    # x at 1e8 +- 1: centring z as well as x loses no digits to the rounding
    # of the means (centring x alone put a and b 8e-9 to 1.3e-7 off here).
    # np.polyfit's a and b are 1.4e-9 to 2.4e-9 off and its cov[0, 0] 98%
    # to 107%, so the reference is the line in rational arithmetic
    rng = np.random.default_rng(seed)
    x = 1e8 + rng.uniform(-1.0, 1.0, 200)
    z = 3.0 + 0.5 * (x - 1e8) + rng.normal(0.0, 0.1, x.size)
    a, b, rss, sxx = meshsim._line_fit(x, z)
    assert (a, b, rss, rss / (x.size - 2) / sxx) == pytest.approx(
        _exact_line(x, z), rel=1e-10)


def _fit_power_by_polyfit(trace):
    """beta, tau and uncertainty of fit_power with its line fits taken by
    np.polyfit, cov=True for the main one."""
    t_left, g = meshsim._samples(trace)
    mask = g >= g[-1] / 1e3
    t = -t_left[mask]
    tm = 0.5 * (t[1:] + t[:-1])
    q = np.diff(np.log(g[mask])) / np.diff(t)
    tm, invq = tm[q > 0], 1.0 / q[q > 0]
    (b, a), cov = np.polyfit(tm, invq, 1, cov=True)
    dbeta = math.sqrt(cov[0, 0]) / b ** 2
    half = tm.size // 2
    bh = (np.polyfit(tm[:half], invq[:half], 1)[0],
          np.polyfit(tm[half:], invq[half:], 1)[0])
    if max(bh) < 0:
        dbeta = max(dbeta, 0.5 * abs(1.0 / bh[1] - 1.0 / bh[0]))
    return -1.0 / b - 0.5, -a / b, dbeta


@pytest.mark.parametrize("kw", [
    {"initial_data": "r"}, {"initial_data": "r+sin(r)"},
    {"d": 7.0, "L": math.pi, "M": 241, "initial_data": "r"},
    {"d": 7.0, "L": math.pi, "M": 241, "initial_data": "r-sin(r)"},
])
def test_fit_power_matches_polyfit_on_benchmark_runs(kw):
    # the four family runs of sim-power-d8 and sim-neutral-d7
    trace = run(config(**{"M": 161, "rtol": 1e-6, "max_gradient": 1e6, **kw}))
    fit = fit_power(trace)
    assert (fit.beta, fit.tau, fit.uncertainty) == pytest.approx(
        _fit_power_by_polyfit(trace), rel=1e-11)


def _bounded_searches(f, lo, hi):
    """(x, f(x), converged, evaluations) of _minimize_bounded and of scipy's
    minimize_scalar(method="bounded") on f over [lo, hi] at xatol 1e-12, as
    reprs, so that NaN compares equal to NaN."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    port = (*meshsim._minimize_bounded(counted, lo, hi, xatol=1e-12),
            len(calls))
    res = scipy.optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                         options={"xatol": 1e-12})
    ref = (float(res.x), float(res.fun), bool(res.success), res.nfev)
    return list(map(repr, port)), list(map(repr, ref))


@pytest.mark.parametrize("f,lo,hi,converged,nfev", [
    (lambda x: (x - 0.3) ** 2, -2.0, 5.0, True, None),   # a parabola
    (lambda x: x, -1.0, 3.0, True, None),       # minimum at the lower bound
    (lambda x: -math.exp(x), -1.0, 3.0, True, None),     # and at the upper
    (lambda x: math.cos(3.0 * x) + 0.1 * x, 0.0, 10.0, True, None),
    (lambda x: math.nan, 0.0, 1.0, False, None),  # NaN never converges
    (lambda x: x, 0.0, 1e100, False, 500),        # out of evaluations
])
def test_bounded_search_matches_scipy(f, lo, hi, converged, nfev):
    port, ref = _bounded_searches(f, lo, hi)
    assert port == ref
    assert port[2] == repr(converged)
    assert nfev is None or port[3] == repr(nfev)


@pytest.mark.parametrize("family", ["r", "r-sin(r)"])
def test_bounded_search_matches_scipy_on_log_fit(monkeypatch, family):
    # the misfit of fit_log on the sim-neutral-d7 benchmark runs: the port
    # takes scipy's points, so the fit is the one scipy's search gave
    searches = []
    search = meshsim._minimize_bounded

    def recorded(f, lo, hi, xatol):
        searches.append((f, lo, hi, xatol))
        return search(f, lo, hi, xatol)

    monkeypatch.setattr(meshsim, "_minimize_bounded", recorded)
    fit_log(run(config(d=7.0, L=math.pi, M=241, rtol=1e-6, max_gradient=1e6,
                       initial_data=family)))
    (f, lo, hi, xatol), = searches
    assert xatol == 1e-12
    port, ref = _bounded_searches(f, lo, hi)
    assert port == ref and port[2] == "True"


def test_fit_log_nan_misfit_is_degenerate(monkeypatch):
    # a NaN misfit everywhere leaves the search unconverged: here every
    # z = sqrt(T - t) sup|u_r| of the line fit is NaN, and so its line
    trace = synthetic_trace(0.229, log_generator())
    monkeypatch.setattr(meshsim.np, "sqrt",
                        lambda a: np.full_like(a, math.nan))
    with pytest.raises(DegenerateFit, match="outer search"):
        fit_log(trace)


def test_fit_log_degenerate_window_does_not_warn():
    # where tau dwarfs every t_left, T - t rounds to tau on every row: the
    # window holds one x and no line, and the search finds no fit, with no
    # warning (np.polyfit warned that the fit was poorly conditioned)
    trace = synthetic_trace(0.229, lambda tau: 1e-20 * log_generator()(tau))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFit, match="outer search"):
            fit_log(trace)


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
