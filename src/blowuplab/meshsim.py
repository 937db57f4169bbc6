"""Direct simulation of the radial flow on a fixed logarithmic grid.

The PDE

    u_t = u_rr + (d-1)/r u_r - k(d+k-2)/(2 r^2) sin(2u),   u(0,t) = 0

reads, in x = log r,

    u_t = e^{-2x} (u_xx + (d-2) u_x - (k(d+k-2)/2) sin 2u),

and is discretized on a grid uniform in x from r_min = R_MIN_SCALE /
max_gradient to L, with u(L) held fixed.  The grid is invariant under
r -> lambda r, so a layer that collapses self-similarly keeps the same
number of nodes per decade at every depth (Budd, Huang & Russell, SIAM J.
Sci. Comput. 17, 1996; Berger & Kohn, CPAM 41, 1988): at the stop
criterion the layer R = 1/sup|u_r| is still 1/R_MIN_SCALE times r_min.

Interior nodes take 5-point fourth-order central differences.  The node
next to L and the first two nodes of the grid take the 3-point
second-order stencil; at the first, the regularity condition u ~ r^k, that
is u_x = k u, enters through the ghost node u_{-1} = u_1 - 2hk u_0.  A
chunk's system (_Chunk, built by _chunk) holds its nodes and its linear
part, a constant pentadiagonal matrix kept in LAPACK band storage, so the
RHS is one BLAS band product (dgbmv) plus the boundary and sine terms, and
the Jacobian is that matrix plus diag(-k(d+k-2) e^{-2x} cos 2u); no
differencing is needed.  The stepper (_BandBDF) is the variable-order NDF
of scipy's BDF with a band LU; each step attempt takes one Newton step from
the predictor on a fresh J and LU, where scipy iterates Newton, and cuts h
in scipy's hold of h where the error norm's trend says the next test fails.

A new chunk starts each time sup |u_r| has grown by CHUNK_GROWTH, or its
first node has reached R_MIN_SCALE of the layer R if that comes first, on a
clock of its own, so that times near the blow-up stay distinct.  It
integrates from the node at or below R_MIN_SCALE / (CHUNK_GROWTH sup|u_r|)
(_first_node); below it u is r^k to within (r/R)^2.  So each chunk's
stiffness is a fixed multiple of the layer's: the first steps of the run
are set by the rounding of its stiffest nodes, which at r_min would make
them shorter than the spacing of doubles near the blow-up time.  One
solver steps the whole run.  The first chunk starts on initialize's nodes.
At each later start the solver keeps its order and step size, and every
row of its NDF history takes the nodes below its first on the r^k profile
through it; near the new first node the state goes on its quasi-steady
state and the higher differences on that state's tangent (_carry,
_settle), so a chunk goes on at the order the last one reached.  A chunk's
steps share its one node array; a stored state is the origin (r = 0,
u = 0) and its chunk's nodes; M counts the origin, the grid and L.

Blow-up observables (sup |u_r| = 1/R, the layer scale for every k, and its
location, the energy, the grid resolution) are recorded at every accepted
step; the stepping loop takes only sup |u_r| itself, and the rest of each
row is computed once per chunk for all of its steps (_trace_rows).
Rate fitting recovers the exponent 1/2 + beta or the log law from R, on
samples of the whole run at fixed values of sup |u_r| (_samples); it
refuses a run whose layer ever held fewer than MIN_LAYER_NODES nodes.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import (
    BadInitialData,
    DegenerateFit,
    NoBlowup,
    StepSizeUnderflow,
    WindowTooShort,
)
from .params import ModelParams
from .tables import read_table, write_table

#: sup-gradient growth factor per chunk
CHUNK_GROWTH = 10.0

#: the counters of the solver that a run records per chunk and in total
#: (see _BandBDF): RHS and Jacobian evaluations and LU factorisations, and
#: the wall seconds in the RHS, the Jacobian, and the band factorisations and
#: solves
_SOLVER_COUNTERS = ("nfev", "njev", "nlu", "rhs_s", "jac_s", "lu_s")

#: the grid starts at r_min = R_MIN_SCALE / max_gradient; a chunk that
#: starts at sup|u_r| = g integrates from the grid node at or below
#: R_MIN_SCALE / (CHUNK_GROWTH g) on (_first_node), so that at its end, as
#: at the stop criterion, the layer is 1/R_MIN_SCALE times its first node
R_MIN_SCALE = 1e-3
#: a chunk puts the nodes within this factor of its first node on their
#: quasi-steady state before its first step (_settle)
SETTLE_SPAN = 30.0
#: absolute tolerance of u at a grid node, relative to its r
ATOL_U = 1e-9
#: a snapshot is taken every this many decades of sup|u_r|
SNAPSHOT_DECADES = 0.5

INITIAL_DATA_FAMILIES = {
    "r": lambda r: r,
    "r+sin(r)": lambda r: r + np.sin(r),
    "r-sin(r)": lambda r: r - np.sin(r),
}


@dataclass
class SimConfig:
    params: ModelParams
    L: float = 2.0
    M: int = 201                      # nodes, the origin and L included
    initial_data: str | tuple = "r"   # family name or (r, u) tables
    rtol: float = 1e-7
    max_gradient: float = 1e8         # stop criterion on sup |u_r|
    t_max: float = 10.0

    def __post_init__(self):
        # 100,000 is far above any grid in use (6,000 nodes) and allocatable
        if not 64 <= self.M <= 100_000:
            raise ValueError(f"M must be in [64, 100000], got {self.M}")
        # each check is written as "not <condition>" so that NaN fails it
        if not self.max_gradient >= 1e6:
            raise ValueError("max_gradient must be >= 1e6")
        r_min = R_MIN_SCALE / self.max_gradient
        if not 0 < r_min < self.L < math.inf:
            raise ValueError("max_gradient and L must be finite, and L above "
                             f"r_min = {R_MIN_SCALE:g}/max_gradient")
        # the grid's largest weight, about 4 e^{-2x} / h^2 at r_min, must be
        # a finite float
        h = math.log(self.L / r_min) / (self.M - 2)
        if not (r_min * h) ** 2 >= 4.0 * sys.float_info.min:
            raise ValueError(f"max_gradient {self.max_gradient:g} is too "
                             f"large: e^(-2x) at r_min = {r_min:g} overflows")
        for name in ("rtol", "t_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def to_dict(self):
        """The config as written to config.json and hashed into the run
        directory name: d, k and every other field, with tabulated initial
        data replaced by its digest so that different tables hash apart."""
        out = {"d": self.params.d, "k": self.params.k}
        for f in fields(self):
            if f.name != "params":
                out[f.name] = getattr(self, f.name)
        if not isinstance(self.initial_data, str):
            digest = hashlib.sha256()
            for a in self.initial_data:
                a = np.ascontiguousarray(a, dtype=float)
                digest.update(repr(a.shape).encode() + a.tobytes())
            out["initial_data"] = f"tabulated:{digest.hexdigest()[:16]}"
        return out


#: the per-step observables of a run, in trace.csv column order; the first
#: four are the stable contract, the next two let the rate fits check the
#: layer's resolution after a reload, and t_left gives every T - t
TRACE_COLUMNS = ("t", "sup_grad", "energy", "min_dx",
                 "sup_grad_loc", "nodes_in_layer", "t_left")


@dataclass
class MeshState:
    t: float
    r: np.ndarray   # strictly increasing, r[0]=0, r[-1]=L
    u: np.ndarray   # u[0]=0, u[-1] fixed
    t_left: float = math.nan   # time to the last trace row, on a run's snapshots

    def to_csv(self, path):
        write_table(path, ("r", "u"), (self.r, self.u))


@dataclass
class RunTrace:
    config: SimConfig
    t: np.ndarray
    sup_grad: np.ndarray     # max over mesh of |du/dr|, 1/R
    energy: np.ndarray
    min_dx: np.ndarray
    sup_grad_loc: np.ndarray  # location of the max gradient
    nodes_in_layer: np.ndarray  # nodes with r <= 5 / sup_grad
    t_left: np.ndarray       # time to the last row, > 0 and decreasing to 0
    snapshots: list = field(default_factory=list)
    stopped: str = "blowup"      # "blowup" | "tmax"
    # the _SOLVER_COUNTERS nfev/njev/nlu and the wall seconds in RHS
    # evaluations (rhs_s), Jacobian evaluations (jac_s) and band LU
    # factorisations and solves (lu_s) of the whole run, as the solver
    # counted them (not summed from chunk_log), and the number of chunks;
    # empty for a trace read back from csv
    solver: dict = field(default_factory=dict)
    # one record per chunk, the lines of solver.jsonl: its start and
    # end (t0, t1, sup_grad0, sup_grad1), its exact duration dt, its
    # accepted steps, its share of the counters above, its wall seconds and
    # why it ended ("growth" at its growth limit, see run, else the run's
    # stop reason); empty for a trace read back from csv
    chunk_log: list = field(default_factory=list)

    def __post_init__(self):
        self.nodes_in_layer = np.asarray(self.nodes_in_layer).astype(int)

    @property
    def no_blowup(self):
        return self.stopped != "blowup"

    def to_csv(self, path):
        write_table(path, TRACE_COLUMNS,
                    [getattr(self, name) for name in TRACE_COLUMNS])


def trace_from_csv(path, config=None, stopped="blowup"):
    """Rebuild a fit-capable RunTrace from a persisted trace table (no
    snapshots; those live in their own files)."""
    columns = read_table(path, TRACE_COLUMNS)
    return RunTrace(config=config, stopped=stopped,
                    **dict(zip(TRACE_COLUMNS, columns)))


@dataclass
class FitResult:
    kind: str                  # "power" | "log"
    T: float                   # t at the last trace row + tau
    tau: float                 # T - t at the last trace row
    beta: float | None = None
    C: float | None = None
    s0: float | None = None
    residual: float = 0.0
    uncertainty: float = 0.0
    r_squared: float = 0.0
    window: tuple = (0.0, 0.0)  # ends: t (power), -log(T-t) (log)

    def to_json(self):
        return json.dumps({k: v for k, v in self.__dict__.items()}, indent=2)


# ----------------------------------------------------------------------------
# observables
#
# The helpers below take nodal arrays, the origin first, or states stacked
# as rows.

def _origin_gradient(r, u):
    """The one-sided origin gradient (2nd order, through u(0) = 0), from the
    secants u/r of the first two nodes, so that it is exact for u = c r."""
    r1, r2 = r[1], r[2]
    s1, s2 = u[1] / r1, u[2] / r2
    return (s1 * r2 - s2 * r1) / (r2 - r1)


def _steepest(r, u, dr=None):
    """sup |u_r| over the mesh (the largest midpoint or origin gradient) and
    where it lies: 0 at the origin, else the midpoint of its cell.  A caller
    that holds the cell widths r[1:] - r[:-1] passes them as dr."""
    if dr is None:
        dr = r[1:] - r[:-1]
    g0 = abs(_origin_gradient(r, u))
    a = np.abs((u[1:] - u[:-1]) / dr)
    j = int(a.argmax())
    return (g0, 0.0) if g0 >= a[j] else (float(a[j]), 0.5 * (r[j] + r[j + 1]))


def _energy(config, r, u):
    """Dirichlet energy by the midpoint rule, of one state or, along the
    last axis, of states on the nodes r stacked as the rows of u."""
    d, kappa = config.params.d, config.params.kappa
    dr = r[1:] - r[:-1]
    gmid = (u[..., 1:] - u[..., :-1]) / dr
    rmid = 0.5 * (r[:-1] + r[1:])
    umid = 0.5 * (u[..., :-1] + u[..., 1:])
    dens = gmid * gmid + kappa * np.sin(umid) ** 2 / (rmid * rmid)
    return 0.5 * np.sum(dens * rmid ** (d - 1.0) * dr, axis=-1)


def _trace_rows(config, t, r, u, gmax, loc):
    """The TRACE_COLUMNS but t_left of states on the nodes r stacked as the
    rows of u, shape (states, r.size), given their sup |u_r| gmax and its
    locations loc (see _steepest).  Every reduction runs along a row on its
    own, so each row is bit for bit what its state gives alone.  min_dx is
    the narrowest cell of r; nodes_in_layer counts the nodes with r <=
    5 / gmax, every node where gmax = 0 (no layer)."""
    with np.errstate(divide="ignore"):
        layer = 5.0 / gmax
    return (t, gmax, _energy(config, r, u), np.full(t.size, np.diff(r).min()),
            loc, np.searchsorted(r, layer, side="right"))


# ----------------------------------------------------------------------------
# the grid and its operator

def _log_grid(config):
    """x = log r at the M - 1 grid nodes, from r_min to L, and their
    spacing h."""
    x0 = math.log(R_MIN_SCALE / config.max_gradient)
    h = (math.log(config.L) - x0) / (config.M - 2)
    return x0 + h * np.arange(config.M - 1), h


def _first_node(config, g):
    """The grid index of the first node of a chunk that starts at sup |u_r|
    = g: the node at or below R_MIN_SCALE / (CHUNK_GROWTH g), r_min at the
    latest, and with the layer no wider than L; 8 nodes at least remain."""
    x = _log_grid(config)[0]
    # capped so that CHUNK_GROWTH g stays finite: steeper data start at r_min
    g = min(max(g, 1.0 / config.L), 1e300)
    edge = math.log(R_MIN_SCALE / (CHUNK_GROWTH * g))
    first = int(np.searchsorted(x, edge, side="right")) - 1
    return min(max(first, 0), x.size - 8)


#: weights of u_{j-2} .. u_{j+2} in h^2 u_xx and h u_x: 5-point fourth
#: order, and 3-point second order
_D2_5 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D1_5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_3 = np.array([0.0, 1.0, -2.0, 1.0, 0.0])
_D1_3 = np.array([0.0, -0.5, 0.0, 0.5, 0.0])


@dataclass(frozen=True)
class _Chunk:
    """The system of one chunk, u' = A u + boundary - w sin 2u on the
    unknowns u_0 .. u_{n-1}, every grid node of the chunk but L; A is
    pentadiagonal and fixed for the chunk."""
    r: np.ndarray          # the origin, the chunk's grid nodes and L
    ab: np.ndarray         # A in LAPACK band storage, Fortran-ordered for
                           # BLAS: A[i, j] = ab[2 + i - j, j]
    boundary: np.ndarray   # u(L) times A's column at L: its last two
                           # entries, the others are 0
    w: np.ndarray          # k(d+k-2)/2 e^{-2x}

    @property
    def atol(self):
        """The absolute tolerance of each unknown."""
        return ATOL_U * self.r[1:-1]

    def rhs(self, t, y):
        """The RHS of one state: the band product A y, the two boundary
        entries, and -w sin 2y."""
        f = dgbmv(y.size, y.size, 2, 2, 1.0, self.ab, y)
        f[-2:] += self.boundary
        f -= self.w * np.sin(2.0 * y)
        return f

    def jac(self, t, y):
        """The Jacobian of rhs, A + diag(-2 w cos 2y), in the band storage
        of ab."""
        J = self.ab.copy()
        J[2] -= 2.0 * self.w * np.cos(2.0 * y)
        return J


def _chunk(config, first, uL):
    """The _Chunk of a config's grid from node index `first` on, with u(L)
    = uL and the ghost node below that node (see the module docstring)."""
    x, h = _log_grid(config)
    x = x[first:]
    d, k = config.params.d, config.params.k
    n = x.size - 1
    weights = np.tile(_D2_5 / h**2 + (d - 2.0) * _D1_5 / h, (n, 1))
    weights[[0, 1, n - 1]] = _D2_3 / h**2 + (d - 2.0) * _D1_3 / h
    # the ghost node u_{-1} = u_1 - 2hk u_0 of node 0
    ghost = weights[0, 1]
    weights[0, 1:4] += (-ghost, -2.0 * h * k * ghost, ghost)
    weights *= np.exp(-2.0 * x[:n, None])
    # weights[j, 2 + o], of u_{j+o}, goes to band[2 - o, 2 + j + o]: columns
    # 2 .. n+1 of band are A's, column n + 2 is node L's, the rest (ghost
    # columns, whose weights are 0 after the substitution above) is dropped
    band = np.zeros((5, n + 4))
    for o in range(-2, 3):
        band[2 - o, 2 + o:n + 2 + o] = weights[:, 2 + o]
    r = np.concatenate([[0.0], np.exp(x)])
    r[-1] = config.L
    return _Chunk(r, np.asfortranarray(band[:, 2:n + 2]), band[:2, n + 2] * uL,
                  0.5 * config.params.kappa * np.exp(-2.0 * x[:n]))


# ----------------------------------------------------------------------------
# initialization

def initial_profile(config):
    """The initial data of a config as a function of r; BadInitialData
    if the family is unknown or the tables are malformed."""
    if isinstance(config.initial_data, str):
        try:
            fam = INITIAL_DATA_FAMILIES[config.initial_data]
        except KeyError:
            raise BadInitialData(
                f"unknown initial data family {config.initial_data!r}"
            ) from None
        return fam
    try:
        r_tab, u_tab = (np.asarray(a, dtype=float) for a in config.initial_data)
    except (TypeError, ValueError):
        raise BadInitialData(
            "tabulated initial data must be a pair of tables (r, u)"
        ) from None
    if r_tab.ndim != 1 or r_tab.shape != u_tab.shape or r_tab.size < 2:
        raise BadInitialData(
            "tabulated initial data must be two 1-D tables of equal length >= 2"
        )
    if not (np.all(np.isfinite(r_tab)) and np.all(np.isfinite(u_tab))):
        raise BadInitialData("tabulated initial data must be finite")
    if abs(r_tab[0]) > 1e-14 or np.any(np.diff(r_tab) <= 0) \
            or r_tab[-1] < config.L:
        raise BadInitialData(
            "tabulated r must increase strictly from 0 and reach L"
        )
    if abs(u_tab[0]) > 1e-14:
        raise BadInitialData("tabulated initial data must have u(0) = 0")

    def fam(r):
        return np.interp(r, r_tab, u_tab)

    return fam


def initialize(config):
    """Sample the initial data on the origin and the grid nodes of the first
    chunk (_first_node of its sup |u_r| on the whole grid); BadInitialData
    if the first chunk's RHS on them, its RMS norm in the tolerances' scale
    (the first step's, _BandBDF._initial_step) or the energy is not finite."""
    fam = initial_profile(config)
    r = _chunk(config, 0, 0.0).r
    u = np.array(fam(r), dtype=float)
    if abs(u[0]) > 1e-14:
        raise BadInitialData("initial data must satisfy u(0) = 0")
    u[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        first = _first_node(config, _steepest(r, u)[0])
        chunk, y = _chunk(config, first, u[-1]), u[first + 1:-1]
        f = chunk.rhs(0.0, y)
        checks = (("right-hand side", f), ("right-hand side's scaled RMS norm",
                   _rms(f / (chunk.atol + config.rtol * np.abs(y)))),
                  ("energy", _energy(config, r, u)))
    for what, value in checks:
        if not np.isfinite(value).all():
            raise BadInitialData(f"its {what} on the grid is not finite")
    return MeshState(t=0.0, r=np.concatenate([[0.0], r[first + 1:]]),
                     u=np.concatenate([[0.0], u[first + 1:]]))


def _settle(chunk, y, tangents=()):
    """Put the unknowns y within SETTLE_SPAN of the first node on their
    quasi-steady state, the RHS 0 there with the others held, in place.
    Their relaxation time is SETTLE_SPAN^2 times the first node's at most,
    far below the layer's time scale, while what a chunk's start leaves
    there (the ghost closure below sampled or extended data, rounding)
    would set its first steps.  The rows of `tangents` (a carried step
    history, see _carry) go on that state's tangent in place, (J v)[:m] = 0,
    by the J and the m x m band LU of the last Newton solve.  (J v)[:m] is
    the first m entries of the whole band product: dgbmv takes no fewer
    rows than the band's width, five, and m is below that on a grid coarser
    than ln SETTLE_SPAN / 4 in x."""
    n, m = y.size, int(np.sum(chunk.w > chunk.w[0] / SETTLE_SPAN ** 2))
    for _ in range(3):
        J = chunk.jac(0.0, y)
        lu, piv, info = _band_lu(J[:, :m])
        y[:m] -= dgbtrs(lu, 2, 2, chunk.rhs(0.0, y)[:m], piv)[0]
        if info or not np.isfinite(y[:m]).all():
            raise StepSizeUnderflow("singular or non-finite settle solve")
    for v in tangents:
        v[:m] -= dgbtrs(lu, 2, 2, dgbmv(n, n, 2, 2, 1.0, J, v)[:m], piv)[0]


def _band_lu(ab):
    """dgbtrf's (lu, piv, info) of a (5, n) band storage like _Chunk.ab."""
    lu = np.empty((7, ab.shape[1]), order="F")
    lu[2:] = ab
    return dgbtrf(lu, 2, 2, overwrite_ab=1)


# ----------------------------------------------------------------------------
# time stepping
#
# _BandBDF is scipy.integrate.BDF, the variable-order NDF of Shampine &
# Reichelt (SIAM J. Sci. Comput. 18, 1997): the same constants, initial
# step, error test and step and order control.  It leaves out what a run
# does not use (dense output, complex y, max_step, backward time,
# finite-difference Jacobians) and factors the Newton matrix I - cJ,
# pentadiagonal here, with LAPACK's band LU.  Where scipy iterates Newton
# on a J kept until Newton fails, every attempt here evaluates J at
# (t_new, y_predict), factors, and takes one Newton step from the
# predictor: an exact Newton step, whose residual is quadratic in the
# predictor's error (a linearly implicit step; Hairer & Wanner, Solving
# ODEs II).  A non-finite correction halves the step, as a Newton failure
# does in scipy.  The step control keeps scipy's safety factor at its value
# for two Newton iterations, the count on a linear problem, where the
# second only confirms the first.  One departure: scipy holds h for order
# + 1 steps after each change, and where h must shrink steadily (6-7% a step
# near the blow-up) every fourth or fifth step failed its error test.  Here
# a step in the hold whose error norm, growing on as it did, would pass 1 at
# the next (e_n^2 / e_{n-1} > 1) cuts h at once by the factor a failed test
# at e_n gives, if below 1, and restarts the hold (predictive step control;
# Gustafsson, ACM TOMS 20, 1994).  One stepper serves a whole run: at each
# chunk start rebase restarts its clock on the chunk's system and keeps the
# step history (see _carry).

_MAX_ORDER = 5
#: scipy's safety factor 0.9 (2 n_max + 1) / (2 n_max + n_iter), n_max = 4
#: Newton iterations at most, frozen at n_iter = 2 and rounded as scipy does
_SAFETY = 0.9 * 9 / 10
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EPS = np.finfo(float).eps
_KAPPA = np.array([0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1 / np.arange(1, _MAX_ORDER + 2)


def _rms(x):
    """The RMS norm, as np.linalg.norm(x) / sqrt(x.size) computes it."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _compute_R(order, factor):
    """The matrix that changes the differences array for a step factor."""
    I = np.arange(1, order + 1)[:, None]
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.cumprod(M, axis=0)


#: _compute_R(order, 1), which depends on the order alone, by order
_R_UNIT = [_compute_R(order, 1) for order in range(_MAX_ORDER + 1)]


def _change_D(D, order, factor):
    """Rescale the differences array in place to a step `factor` times the
    last."""
    RU = _compute_R(order, factor).dot(_R_UNIT[order])
    D[:order + 1] = np.dot(RU.T, D[:order + 1])


class _BandBDF:
    """The NDF stepper on y' = fun(t, y) from t = 0 to t_bound > 0, with
    jac(t, y) in the (5, n) band storage of _Chunk.ab.  It counts nfev,
    njev and nlu (one J per LU), and the wall seconds in fun (rhs_s), in jac
    (jac_s) and in band factorisations and solves (lu_s), since its start;
    chunk_counters() gives their growth since the last rebase."""

    def __init__(self, fun, jac, y0, t_bound, rtol, atol):
        self.rtol = max(rtol, 100 * _EPS)
        self.order, self.n_equal_steps, self.error_norm = 1, 0, math.inf
        self.nfev = self.njev = self.nlu = 0
        self.rhs_s = self.jac_s = self.lu_s = 0.0
        # zeros, as in scipy: a carry maps every row, read or not (_carry)
        D = np.zeros((_MAX_ORDER + 3, y0.size))
        D[0] = y0
        self.rebase(fun, jac, D, t_bound, atol)
        f = self.fun(self.t, self.y)
        self.h_abs = self._initial_step(f)
        D[1] = f * self.h_abs

    def rebase(self, fun, jac, D, t_bound, atol):
        """Go on from the step history D, its row 0 the state, as the
        stepper of y' = fun(t, y) with the absolute tolerance atol, on a
        clock restarted at 0 toward t_bound.  The order, the step size and
        n_equal_steps carry over (no LU does: each attempt factors its own);
        chunk_counters() starts afresh, the run's counters go on."""
        self._fun, self._jac, self.D, self.atol = fun, jac, D, atol
        self.t, self.y, self.t_bound = 0.0, D[0].copy(), t_bound
        self.status = "running"
        self._chunk_start = self.counters()

    def counters(self):
        """The _SOLVER_COUNTERS since the solver's start."""
        return {key: getattr(self, key) for key in _SOLVER_COUNTERS}

    def chunk_counters(self):
        """The _SOLVER_COUNTERS since the last rebase."""
        return {key: getattr(self, key) - start
                for key, start in self._chunk_start.items()}

    def fun(self, t, y):
        start = time.perf_counter()
        f = self._fun(t, y)
        self.rhs_s += time.perf_counter() - start
        self.nfev += 1
        return f

    def jac(self, t, y):
        start = time.perf_counter()
        J = self._jac(t, y)
        self.jac_s += time.perf_counter() - start
        self.njev += 1
        return J

    def lu(self, c, J):
        """The band LU of I - c J."""
        start = time.perf_counter()
        ab = -c * J
        ab[2] += 1.0
        lu, piv = _band_lu(ab)[:2]
        self.lu_s += time.perf_counter() - start
        self.nlu += 1
        return lu, piv

    def solve_lu(self, LU, b):
        start = time.perf_counter()
        x = dgbtrs(LU[0], 2, 2, b, LU[1])[0]
        self.lu_s += time.perf_counter() - start
        return x

    def _initial_step(self, f0):
        """scipy's select_initial_step (Hairer, Norsett & Wanner, Sec. II.4)
        at error order 1.  It runs once per run: later chunks carry the step
        size over (rebase)."""
        interval_length = self.t_bound - self.t
        scale = self.atol + np.abs(self.y) * self.rtol
        d0, d1 = _rms(self.y / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        if not h0 > 0:   # an empty interval, or d1 overflowed
            return h0
        f1 = self.fun(self.t + h0, self.y + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 2)
        return min(100 * h0, h1, interval_length)

    def step(self):
        """Take one step; status becomes "finished" at t_bound and "failed"
        when the step is not finite or would fall below 10 roundings of t."""
        if self.t == self.t_bound:
            self.status = "finished"
        elif not (0 < self.h_abs < math.inf and self._step_impl()):
            self.status = "failed"
        elif self.t >= self.t_bound:
            self.status = "finished"

    def _step_impl(self):
        t, D, order = self.t, self.D, self.order
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            _change_D(D, order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs

        while True:
            if h_abs < min_step:
                return False
            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
                _change_D(D, order, (t_new - t) / h_abs)
                self.n_equal_steps = 0
            h = h_abs = t_new - t

            y_predict = np.add.reduce(D[:order + 1])
            psi = np.dot(D[1:order + 1].T, _GAMMA[1:order + 1]) / _ALPHA[order]
            c = h / _ALPHA[order]
            # one Newton step from the predictor, on the J there
            LU = self.lu(c, self.jac(t_new, y_predict))
            d = self.solve_lu(LU, c * self.fun(t_new, y_predict) - psi)
            if not np.isfinite(d).all():
                factor = 0.5
            else:
                y_new = y_predict + d
                scale = self.atol + self.rtol * np.abs(y_new)
                error_norm = _rms(_ERROR_CONST[order] * d / scale)
                if error_norm <= 1:
                    break
                factor = max(_MIN_FACTOR,
                             _SAFETY * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            _change_D(D, order, factor)
            self.n_equal_steps = 0

        self.n_equal_steps += 1
        self.t, self.y, self.h_abs = t_new, y_new, h_abs

        # D^{j+1} y_n = D^j y_n - D^j y_{n-1}, and d = D^{order+1} y_n
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        last, self.error_norm = self.error_norm, error_norm
        if self.n_equal_steps < order + 1:
            # the predictive cut (see above); the factor is below 1 where
            # e_n > _SAFETY^(order + 1)
            if (self.n_equal_steps < 2 or error_norm * error_norm <= last
                    or error_norm <= _SAFETY ** (order + 1)):
                return True
            factor = max(_MIN_FACTOR,
                         _SAFETY * error_norm ** (-1 / (order + 1)))
        else:
            error_m_norm = (_rms(_ERROR_CONST[order - 1] * D[order] / scale)
                            if order > 1 else np.inf)
            error_p_norm = (
                _rms(_ERROR_CONST[order + 1] * D[order + 2] / scale)
                if order < _MAX_ORDER else np.inf)
            error_norms = np.array([error_m_norm, error_norm, error_p_norm])
            with np.errstate(divide="ignore"):
                factors = error_norms ** (-1 / np.arange(order, order + 3))
            order += np.argmax(factors) - 1
            self.order = order
            factor = min(_MAX_FACTOR, _SAFETY * np.max(factors))

        self.h_abs *= factor
        _change_D(D, order, factor)
        self.n_equal_steps = 0
        return True


def _advance(solver, uL):
    """Take one step of `solver` and return the accepted u on its nodes,
    the origin's 0 first and uL last; StepSizeUnderflow if the step
    failed."""
    solver.step()
    if solver.status == "failed":
        raise StepSizeUnderflow("implicit step failed; increase M or tolerances")
    u = np.empty(solver.y.size + 2)
    u[0], u[1:-1], u[-1] = 0.0, solver.y, uL
    return u


def step(config, state, dt_max=np.inf):
    """Advance one accepted implicit step from a state on grid nodes of
    `config` (initialize's, or a snapshot's); mostly a testing convenience,
    run() takes its steps through the same _new_solver and _advance."""
    chunk = _chunk(config, config.M - state.r.size, state.u[-1])
    solver = _new_solver(config, chunk, state.u[1:-1], dt_max)
    u = _advance(solver, state.u[-1])
    return MeshState(t=state.t + solver.t, r=state.r, u=u)


def _new_solver(config, chunk, y0, t_bound):
    """A _BandBDF solver of `chunk` from the unknowns y0, settled, on its
    own clock from 0 (the RHS is autonomous): the first chunk's, later
    chunks carry it (_carry)."""
    y0 = y0.copy()
    _settle(chunk, y0)
    return _BandBDF(chunk.rhs, chunk.jac, y0, t_bound, config.rtol,
                    chunk.atol)


def _carry(config, solver, chunk, t_bound):
    """Carry `solver` into `chunk` on a clock restarted at 0 toward t_bound.
    The nodes below the solver's first node take every row of its step
    history D on the regular solution u ~ r^k through that node (D is
    linear in u); then _settle puts D[0] near the new first node on its
    quasi-steady state and the higher rows on its tangent.  Without new
    nodes D is kept as it is: the nodes it has stepped are settled."""
    D, r = solver.D, chunk.r
    new = r.size - 2 - D.shape[1]
    if new:
        below = (r[1:new + 1] / r[new + 1]) ** config.params.k
        D = np.concatenate([D[:, :1] * below, D], axis=1)
        _settle(chunk, D[0], D[1:])
    solver.rebase(chunk.rhs, chunk.jac, D, t_bound, chunk.atol)


def run(config, progress=None):
    """Step until sup|u_r| >= max_gradient or t >= t_max, recording
    observables at every accepted step and snapshots on a gradient ladder.

    The first chunk starts on initialize's nodes and each later one on its
    _first_node's, through _carry alone; a chunk never drops nodes, and one
    that starts at sup|u_r| = 0 has no layer to follow and never ends by
    growth.  A chunk ends at a CHUNK_GROWTH-fold growth of sup|u_r|, or
    when its first node reaches R_MIN_SCALE of the layer, whichever comes
    first.  Each step only takes what the loop needs (_steepest); a chunk
    holds its steps as (theta, u, sup|u_r|, its location) on its one node
    array until it ends, and then turns them into trace rows at once
    (_trace_rows, with t = the chunk's start + theta), so the buffer never
    outgrows a chunk.  One solver steps the whole run (_new_solver, then
    _carry at each chunk start); it counts each chunk's time theta from 0,
    which gives t_left.  Each chunk also leaves one record in
    RunTrace.chunk_log, with the solver's counters of that chunk;
    RunTrace.solver takes the run's counters from the solver, so the
    records adding up to them is a check."""
    state = initialize(config)
    r, u, uL = state.r, state.u, state.u[-1]
    first = config.M - r.size

    columns = []   # the _trace_rows of each chunk
    thetas = []    # the chunk-local times of the rows of each chunk
    gmax, loc = _steepest(r, u)
    held = [(0.0, u, gmax, loc)]   # (theta, u, gmax, loc) not yet in columns
    rows = 0       # the trace row of the last step
    chunk_log = []
    snapshots, snap_rows = [state], [0]   # and the trace row of each
    next_snap = 10.0 ** SNAPSHOT_DECADES
    stopped = "tmax"
    t_chunk, solver = state.t, None
    while True:
        started = time.perf_counter()
        g_chunk, row0 = gmax, rows
        t_bound = config.t_max - t_chunk
        if solver is None:
            chunk = _chunk(config, first, uL)
            solver = _new_solver(config, chunk, u[1:-1], t_bound)
        else:
            first = min(first, _first_node(config, gmax))
            chunk = _chunk(config, first, uL)
            _carry(config, solver, chunk, t_bound)
        r = chunk.r
        # later chunks' nodes are chosen for the growth, so the node limit
        # binds only on a first chunk whose sup|u_r| exceeds the whole grid's
        chunk_limit = min(CHUNK_GROWTH * gmax if gmax > 0 else math.inf,
                          R_MIN_SCALE / r[1])
        # the chunk's nodes, and so their cell widths, are fixed
        dr = r[1:] - r[:-1]
        while solver.status == "running":
            u = _advance(solver, uL)
            rows += 1
            gmax, loc = _steepest(r, u, dr)
            held.append((solver.t, u, gmax, loc))
            if gmax >= next_snap:
                snapshots.append(MeshState(t_chunk + solver.t, r, u))
                snap_rows.append(rows)
                next_snap = 10.0 ** (
                    math.floor(math.log10(gmax) / SNAPSHOT_DECADES + 1)
                    * SNAPSHOT_DECADES
                )
            if progress is not None:
                progress(t_chunk + solver.t, gmax)
            if gmax >= config.max_gradient:
                stopped = "blowup"
                break
            if gmax >= chunk_limit:
                break
        theta, us, gs, locs = map(np.array, zip(*held))
        columns.append(_trace_rows(config, t_chunk + theta, r, us, gs, locs))
        thetas.append(theta)
        held.clear()
        t_end = t_chunk + solver.t
        done = stopped != "tmax" or solver.status == "finished"
        chunk_log.append({
            "t0": t_chunk, "t1": t_end, "dt": solver.t, "sup_grad0": g_chunk,
            "sup_grad1": gmax, "steps": rows - row0,
            **solver.chunk_counters(),
            "wall_s": time.perf_counter() - started,
            "end": stopped if done else "growth",
        })
        if done:
            break
        t_chunk = t_end

    # a chunk's rows lie theta[-1] - theta before its end, plus the later
    # chunks' exact durations: no absolute times, which stop being distinct
    # near the blow-up, are subtracted
    parts, after = [], 0.0
    for theta in reversed(thetas):
        parts.append(after + (theta[-1] - theta))
        after += theta[-1]
    t_left = np.concatenate(parts[::-1])
    for snap, row in zip(snapshots, snap_rows):
        snap.t_left = float(t_left[row])
    # the last row closes the snapshots, unless it already is a rung's
    if snap_rows[-1] != rows:
        snapshots.append(MeshState(t_end, r, u, 0.0))
    return RunTrace(config=config, snapshots=snapshots, stopped=stopped,
                    solver={"chunks": len(chunk_log), **solver.counters()},
                    chunk_log=chunk_log, t_left=t_left,
                    **dict(zip(TRACE_COLUMNS, map(np.concatenate, zip(*columns)))))


# ----------------------------------------------------------------------------
# rate fitting

#: samples per decade of sup |u_r| that the fits take
SAMPLES_PER_DECADE = 120


def _subsample_log(g):
    """Indices that thin the rows with g > 0 to about SAMPLES_PER_DECADE
    per decade, evenly in log(g), to suppress step-to-step noise before
    differencing."""
    keep, last = [], -math.inf
    for j in np.flatnonzero(g):
        lg = math.log10(g[j])
        if lg - last >= 1.0 / SAMPLES_PER_DECADE:
            keep.append(j)
            last = lg
    return np.array(keep, dtype=int)


#: the layer counts as resolved while at least this many nodes sit inside it
MIN_LAYER_NODES = 20


def _samples(trace):
    """The samples of every rate fit: t_left and sup |u_r| on the rungs
    sup |u_r| = 10^(j / SAMPLES_PER_DECADE) of the whole run; NoBlowup if
    it did not blow up.  The grid holds the same nodes per decade at every
    depth, and a chunk ends at a CHUNK_GROWTH-fold growth of sup |u_r| or
    when its first node reaches R_MIN_SCALE of the layer, whichever comes
    first: the layer's node count repeats chunk by chunk.  So the fits take
    the whole run, and WindowTooShort refuses it if the layer ever held
    fewer than MIN_LAYER_NODES nodes, where sup |u_r| is not trustworthy.

    t_left is interpolated, by 4 points in log sup |u_r|, between the run's
    kept rows (_subsample_log) after the last row at which sup |u_r| lay a
    rung or more below its maximum so far; the run's last row takes the
    place of the last kept one.  The rungs do not depend on where the steps
    fell, so each difference spans the same fraction of T - t at every
    depth, and a change of the step sequence moves a fit only as far as it
    moves the solution."""
    if trace.no_blowup:
        raise NoBlowup("trace ended before the stop criterion")
    least = int(trace.nodes_in_layer.min())
    if least < MIN_LAYER_NODES:
        raise WindowTooShort(
            f"the layer held {least} < {MIN_LAYER_NODES} nodes; raise M")
    g, n = trace.sup_grad, SAMPLES_PER_DECADE
    idx = _subsample_log(g)
    if idx.size < 12:
        raise WindowTooShort("fewer than 12 samples in the trace")
    end = g.size - 1
    if g[end] > g[idx[-1]]:
        idx = np.append(idx[:-1] if g[end] < g[idx[-1]] * 10.0 ** (0.5 / n)
                        else idx, end)
    window = g[idx[0]:idx[-1] + 1]
    low = np.flatnonzero(
        window < np.maximum.accumulate(window) * 10.0 ** (-1.0 / n))
    rows = idx[idx > idx[0] + low[-1]] if low.size else idx
    lg = np.log10(g[rows])
    rungs = np.arange(math.ceil(lg[0] * n),
                      math.floor(lg[-1] * n + 1e-9) + 1) / n
    if rungs.size < 12 or rows.size < 4:
        raise WindowTooShort("fewer than 12 samples where sup|u_r| grows")
    cols = np.clip(np.searchsorted(lg, rungs) - 2, 0, lg.size - 4)[:, None] \
        + np.arange(4)
    x = lg[cols]
    weights = np.ones_like(x)
    for a in range(4):
        for b in range(4):
            if a != b:
                weights[:, a] *= (rungs - x[:, b]) / (x[:, a] - x[:, b])
    # a rung at the last row lies there up to rounding: t_left is 0, not
    # the rounding's sign
    t_left = np.sum(weights * trace.t_left[rows][cols], axis=1)
    return np.maximum(t_left, 0.0), 10.0 ** rungs


def _line_fit(x, z):
    """The least-squares line z ~ a + b x by its centred normal equations, x
    and z both centred so that no digits are lost where x lies far from 0:
    (a, b, the residual sum of squares rss, sxx = sum (x - mean x)^2).  The
    slope's variance is rss / (n - 2) / sxx, np.polyfit's cov[0, 0]."""
    xc, zc = x - x.mean(), z - z.mean()
    sxx = xc.dot(xc)
    b = xc.dot(zc) / sxx
    rss = np.sum((zc - b * xc) ** 2)
    return float(z.mean() - b * x.mean()), float(b), float(rss), float(sxx)


def fit_power(trace):
    """Power-law fit from the log-derivative of sup |u_r| = 1/R.

    q(t) = d log(sup_grad)/dt equals (1/2+beta)/(T-t) for a pure power law,
    so 1/q is linear in t with root T; a line fit over the last three
    decades of the run gives beta and tau = T - t at the last row.  Time
    is -t_left, which is exact however close the rows are to T."""
    t_left, g = _samples(trace)
    mask = g >= g[-1] / 1e3
    t_left, g = t_left[mask], g[mask]
    if g.size < 12:
        raise WindowTooShort("fewer than 12 samples in the power-fit window")
    t = -t_left
    tm = 0.5 * (t[1:] + t[:-1])
    q = np.diff(np.log(g)) / np.diff(t)
    tm, q = tm[q > 0], q[q > 0]
    if tm.size < 10:
        raise WindowTooShort("fewer than 10 positive-growth samples")
    invq = 1.0 / q
    a, b, rss, sxx = _line_fit(tm, invq)
    if b >= 0:
        raise DegenerateFit("1/q does not decrease toward blow-up")
    # 1/q = (tau - t)/(1/2+beta): slope -1/(1/2+beta), root at t = tau; the
    # slope's standard error carries to beta as itself / b^2
    tau = -a / b
    dbeta = math.sqrt(rss / (tm.size - 2) / sxx) / (b * b)
    # the statistical error bar is far too optimistic when the local
    # exponent still drifts across the window; report the half-window
    # sensitivity when it dominates
    half = tm.size // 2
    bh = (_line_fit(tm[:half], invq[:half])[1],
          _line_fit(tm[half:], invq[half:])[1])
    if max(bh) < 0:
        dbeta = max(dbeta, 0.5 * abs(1.0 / bh[1] - 1.0 / bh[0]))
    return FitResult(kind="power", T=float(trace.t[-1]) + tau, tau=tau,
                     beta=-1.0 / b - 0.5, residual=math.sqrt(rss / tm.size),
                     uncertainty=dbeta, window=(float(trace.t[-1] + t[0]),
                                                float(trace.t[-1] + t[-1])))


def _minimize_bounded(f, lo, hi, xatol):
    """Minimum of f on [lo, hi] by Brent's golden-section search with
    parabolic steps (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5): a step-for-step port of scipy's
    minimize_scalar(method="bounded"), which takes the same points.  Returns
    (x, f(x), converged); not converged after 500 evaluations of f, scipy's
    default limit, or where x or f is NaN."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = f(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:       # try a parabola through the last three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        move = max(abs(rat), tol1)
        x = xf + (move if rat >= 0 else -move)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            return xf, fx, False
    return xf, fx, not any(map(math.isnan, (xf, fx, fu)))


def fit_log(trace, delta=1.0):
    """Logarithmic-law fit: sqrt(T-t) sup_grad = C (-log(T-t) - s0)^{1/delta}
    over the last six e-folds of T - t in the run.

    With T - t = t_left + tau and tau fixed the model is linear in
    -log(T-t) after raising to the delta power, so an inner linear solve
    sits under a 1-D search over log tau, tau the T - t of the last row: the
    bounded Brent search of _minimize_bounded.  Like scipy's, it stops at
    about 1.5e-8 |log tau| + xatol / 3 in log tau, so its relative part
    binds and xatol = 1e-12 does not (3.6e-7 at log tau = -24)."""
    t_left, g = _samples(trace)
    # parabolic scaling puts tau near 1/sup|u_r|^2 at the last row
    tau_guess = trace.sup_grad[-1] ** -2.0

    def window(tau):
        """x = -log(T-t) and z = (sqrt(T-t) g)^delta over the window; None
        if it holds fewer than 20 samples or, at rounding, one x."""
        x = -np.log(t_left + tau)
        mask = x >= x[-1] - 6.0
        if np.sum(mask) < 20 or x[mask].min() == x[-1]:
            return None
        return x[mask], (np.sqrt(t_left[mask] + tau) * g[mask]) ** delta

    def misfit(log_tau):
        xz = window(math.exp(log_tau))
        # the model slope is C^delta > 0; negative-slope minima are
        # spurious branches of the tau search
        if xz is None or (fit := _line_fit(*xz))[1] <= 0:
            return 1e30
        return fit[2] / xz[0].size

    log_tau, fun, converged = _minimize_bounded(
        misfit, math.log(tau_guess * 1e-3), math.log(tau_guess * 1e5),
        xatol=1e-12)
    if not converged or fun >= 1e29:
        raise DegenerateFit("outer search over T failed")
    # misfit(log_tau) is finite, so the window at tau is full and its slope
    # positive
    tau = math.exp(log_tau)
    x, z = window(tau)
    a, b, rss, _ = _line_fit(x, z)
    return FitResult(kind="log", T=float(trace.t[-1]) + tau, tau=tau,
                     C=b ** (1.0 / delta), s0=-a / b,
                     residual=math.sqrt(rss / x.size),
                     r_squared=1.0 - rss / float(np.sum((z - z.mean()) ** 2)),
                     window=(float(x[0]), float(x[-1])))


@dataclass
class SelfSimilarSnapshot:
    s: float
    y: np.ndarray
    f: np.ndarray
    eps: float   # the inner-layer scale


def to_self_similar(state, tau, Cs):
    """Rescale a snapshot to (y, s, f) variables for spectral projection and
    comparison with the matched ansatz, at T - t = t_left + tau (FitResult).
    The layer u ~ U*(y/eps) has sup |u_r| = 1/R, R = Cs sqrt(T-t) eps,
    since Cs = 1/sup |U*'| (the profile's); eps is inf where u = 0."""
    left = state.t_left + tau
    if not left > 0:
        raise ValueError("snapshot time must precede the blow-up time")
    g = _steepest(state.r, state.u)[0]
    return SelfSimilarSnapshot(
        s=-math.log(left),
        y=state.r / math.sqrt(left),
        f=state.u.copy(),
        eps=1.0 / (Cs * math.sqrt(left) * g) if g > 0 else math.inf,
    )
