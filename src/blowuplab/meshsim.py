"""Direct simulation of the radial flow on a moving mesh.

The PDE

    u_t = u_rr + (d-1)/r u_r - k(d+k-2)/(2 r^2) sin(2u),   u(0,t) = 0

is discretized with 3-point finite differences on a nonuniform mesh whose
nodes move by equidistribution of the arclength-type monitor
M(r) = sqrt(alpha + u_r^2) (spatially smoothed, with a fraction of the
monitor mass spread uniformly to guard the outer region).  The mesh
velocity solves the elliptic moving-mesh equation
(dr/dt)_xixi = -gain (M r_xi)_xi, so node redistribution acts at the same
rate on all wavelengths.  Node motion adds the advective correction
r'_i u_r to the nodal time derivative.  The coupled (u, r) system is
integrated with an implicit stiff method (BDF) with error control; the
mesh response rate is held at a fixed multiple of the measured gradient
growth rate d log(sup u_r)/dt, so the mesh keeps up with the collapse
without making the system needlessly stiff.

An RHS evaluation takes the cell widths and midpoint gradients in one
difference pass (_differences) and shares them between the monitor, the
reservation mass and the 3-point stencil, which is written on the midpoint
gradients.  The matrix of the mesh-velocity solve, tridiag(-1, 2, -1),
depends only on the node count: LAPACK's pttrf factors it once per size
(cached), and each evaluation only back-substitutes with pttrs.  The
monitor's smoothing passes, (1/4, 1/2, 1/4) with the end cells repeated,
are applied as one filter: p passes are one convolution of the cell
monitor, mirrored at both ends, with the binomial taps C(2p, j)/4^p (see
_smoothing_filter), equal to the passes up to rounding.

BDF gets the Jacobian in structured form (see _make_jac): every block is
banded except the mesh velocity, which is the inverse Laplacian of a
banded term plus a rank-one term from the total monitor mass.  The banded
parts come from grouped differences (Curtis, Powell & Reid 1974).  No
dense Jacobian is formed: with the mesh velocity carried as an extra
unknown per node, the Newton matrix is a banded bordered system, which
_BandedBDF factors with LAPACK's banded LU and corrects for the rank-one
term by Sherman-Morrison (Hairer & Wanner, Solving ODEs II, ch. VI), so a
Newton step costs O(M).

Blow-up observables (sup |u_r| = 1/R, the layer scale for every k, and its
location, the energy, the mesh resolution) are recorded at every accepted
step; the stepping loop takes only sup |u_r| itself, and the rest of each
row is computed once per solver chunk for all of its steps (_trace_rows).
Rate fitting recovers the exponent 1/2 + beta or the log law from R.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import BDF
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs
from scipy.optimize import minimize_scalar
from scipy.sparse import csc_array

from .errors import (
    BadInitialData,
    DegenerateFit,
    MeshTangling,
    NoBlowup,
    StepSizeUnderflow,
    WindowTooShort,
)
from .params import ModelParams
from .tables import write_table

#: node-relaxation rate as a multiple of the observed collapse rate
TRACKING_MARGIN = 25.0

#: sup-gradient growth factor per solver chunk; the collapse rate estimate
#: is frozen within a chunk and stales by ~ this factor^(1/(1/2+beta))
CHUNK_GROWTH = math.sqrt(2.0)

#: the counters of a chunk solver (_BandedBDF) that a run records
_SOLVER_COUNTERS = ("nfev", "njev", "nlu", "rhs_s", "jac_s", "lu_s")

#: relative forward-difference step of the banded Jacobian parts
_FD_STEP = np.finfo(float).eps ** 0.5

#: the fixed mesh policy: alpha of the arclength monitor sqrt(alpha + u_r^2),
#: the weight of its |u|/r term and its smoothing passes (_smoothed_monitor),
#: its mass share kept for the outer region (_reservation), and the
#: node-relaxation time at unit gradient (_gain)
MONITOR_ALPHA = 1.0
MONITOR_SCALE_WEIGHT = 1.0
SMOOTH_PASSES = 4
UNIFORM_FRACTION = 0.1
RELAXATION_TIME = 0.1
#: absolute tolerance of u, and of each node relative to its local spacing
ATOL_U = 1e-9
ATOL_R_REL = 1e-4
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
    M: int = 201                      # mesh nodes including both boundaries
    initial_data: str | tuple = "r"   # family name or (r, u) tables
    rtol: float = 1e-7
    max_gradient: float = 1e8         # stop criterion on sup |u_r|
    t_max: float = 10.0

    def __post_init__(self):
        if self.M < 64:
            raise ValueError("M must be >= 64")
        # each check is written as "not <condition>" so that NaN fails it
        if not self.max_gradient >= 1e6:
            raise ValueError("max_gradient must be >= 1e6")
        if not 0 < self.L < math.inf:
            raise ValueError("L must be positive and finite")
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
#: four are the stable contract, the next two let the rate fits recover
#: their resolved window after a reload, and t_left gives every T - t
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
    # BDF counters nfev/njev/nlu and the wall seconds in RHS evaluations
    # (rhs_s), in Jacobian builds (jac_s) and in factorisations and solves
    # (lu_s), summed over the chunk solvers, and the number of chunks; empty
    # for a trace read back from csv
    solver: dict = field(default_factory=dict)
    # one record per chunk solver, the lines of solver.jsonl: its start and
    # end (t0, t1, sup_grad0, sup_grad1), its exact duration dt, the
    # collapse rate qhat that set its gain, its accepted steps, its share of
    # the counters above, its wall seconds and why it ended ("growth" when the sup gradient grew by
    # CHUNK_GROWTH, else the run's stop reason); empty for a trace read
    # back from csv
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
    data = np.genfromtxt(path, delimiter=",", names=True)
    return RunTrace(config=config, stopped=stopped,
                    **{name: np.atleast_1d(data[name]) for name in TRACE_COLUMNS})


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
    window: tuple = (0.0, 0.0)

    def to_json(self):
        return json.dumps({k: v for k, v in self.__dict__.items()}, indent=2)


# ----------------------------------------------------------------------------
# spatial discretization helpers
#
# The helpers below take nodal arrays of shape (M,) or a block of states
# (M, m), one state per column, and work along axis 0.

def _differences(r, u):
    """Cell widths and midpoint gradients, taken once per evaluation and
    shared by the monitor, the reservation mass and the stencil."""
    dr = r[1:] - r[:-1]
    return dr, (u[1:] - u[:-1]) / dr


def _origin_gradient(r, u):
    """The one-sided origin gradient (2nd order, through u(0) = 0)."""
    r1, r2 = r[1], r[2]
    u1, u2 = u[1], u[2]
    return (u1 * r2 * r2 - u2 * r1 * r1) / (r1 * r2 * (r2 - r1))


def _steepest(r, u):
    """sup |u_r| over the mesh (the largest midpoint or origin gradient) and
    where it lies: 0 at the origin, else the midpoint of its cell."""
    g0 = abs(_origin_gradient(r, u))
    a = np.abs(_differences(r, u)[1])
    j = int(np.argmax(a))
    return (g0, 0.0) if g0 >= a[j] else (float(a[j]), 0.5 * (r[j] + r[j + 1]))


def _gain(gmax, qhat=0.0):
    """Mesh gain at sup |u_r| = gmax.  The node-relaxation rate is
    gain * monitor ~ gain * gmax; it is tied to the observed collapse rate
    qhat with a fixed margin, so the mesh tracks the layer without making
    the system orders of magnitude stiffer than the physics (which starves
    BDF of step size), and never drops below 1/RELAXATION_TIME."""
    return max(TRACKING_MARGIN * qhat, 1.0 / RELAXATION_TIME) / (1.0 + gmax)


def _smoothed_monitor(r, u, gmid):
    """Spatially smoothed midpoint monitor, before the uniform reservation.

    The arclength part sqrt(alpha + u_r^2) concentrates nodes in the
    boundary layer, but leaves the self-similar transition region between
    the layer scale and O(sqrt(T-t)) -- where u is near its plateau and
    u_r is small -- with almost no mass, and that region carries the slow
    dynamics that set the blow-up rate.  The |u|/r term equidistributes
    log-uniformly in r between those scales (its mass per decade of r is
    constant once u plateaus), the moving-mesh analogue of a geometrically
    graded fixed mesh.

    The sum is smoothed by SMOOTH_PASSES passes of (1/4, 1/2, 1/4) with the
    end cells repeated, applied as one filter.  A pass with the end cells
    repeated is a pass over the half-sample-symmetric
    extension m[-1-i] = m[i], m[N+i] = m[N-1-i] of the N cell values: the
    filter is symmetric, so the extension stays symmetric and its values
    beyond the ends are the repeated end cells.  p passes are then one
    convolution of that extension with the binomial taps C(2p, j)/4^p, the
    coefficients of ((1 + z)/2)^(2p); it equals the passes in exact
    arithmetic and differs by rounding only, about 1e-15 relative.  After
    one pass the ends weigh (3/4, 1/4), as before."""
    m = np.sqrt(MONITOR_ALPHA + gmid * gmid)
    # |u|/r at the cell midpoint; the halves of both means cancel
    m += MONITOR_SCALE_WEIGHT * np.abs(u[:-1] + u[1:]) / (r[:-1] + r[1:])
    index, taps = _smoothing_filter(m.shape[0])
    pad = m.take(index, axis=0)
    if m.ndim == 1:
        return np.convolve(pad, taps, "valid")
    return sliding_window_view(pad, taps.size, axis=0) @ taps


@functools.lru_cache(maxsize=8)
def _smoothing_filter(cells):
    """The reflect index and the binomial taps of the SMOOTH_PASSES
    smoothing passes over `cells` cells as one filter (see
    _smoothed_monitor).  The index gathers the half-sample-symmetric
    extension, SMOOTH_PASSES cells beyond each end (M >= 64 gives more
    cells than that)."""
    index = np.pad(np.arange(cells), SMOOTH_PASSES, mode="symmetric")
    taps = np.array([math.comb(2 * SMOOTH_PASSES, j) / 4 ** SMOOTH_PASSES
                     for j in range(2 * SMOOTH_PASSES + 1)])
    index.setflags(write=False)
    taps.setflags(write=False)
    return index, taps


def _reservation(config, m, dr):
    """Monitor level that spreads UNIFORM_FRACTION of the monitor mass
    sum(m dr) evenly over [0, L]."""
    mass = (m * dr).sum(axis=0)
    return UNIFORM_FRACTION * mass / config.L


def _monitor(config, r, u, dr, gmid):
    """Smoothed midpoint monitor with the uniform reservation added."""
    m = _smoothed_monitor(r, u, gmid)
    return m + _reservation(config, m, dr)


def _pde_stencil(config, r, u, dr, gmid):
    """The 3-point stencil terms at interior nodes: the physics and u_r, so
    that du/dt = phys + r' u_r.  With h-, h+ the widths and g-, g+ the
    midpoint gradients of the cells left and right of a node,

        u_r = (h+ g- + h- g+) / (h- + h+),   u_rr = 2 (g+ - g-) / (h- + h+).

    The advective term r'_i u_r uses the same centered 3-point stencil as
    the physics: one-sided differencing adds an O(|r'| dr) artificial
    diffusion (or anti-diffusion) that measurably shifts the collapse rate
    at the resolutions used here."""
    d, k = config.params.d, config.params.k
    torque = k * (d + k - 2.0)
    hm, hp = dr[:-1], dr[1:]
    gm, gp = gmid[:-1], gmid[1:]
    h = hm + hp
    ur = (hp * gm + hm * gp) / h
    urr = 2.0 * (gp - gm) / h
    rc = r[1:-1]
    phys = urr + (d - 1.0) / rc * ur - torque / (2.0 * rc * rc) * np.sin(2.0 * u[1:-1])
    return phys, ur


@functools.lru_cache(maxsize=8)
def _laplacian_factor(n):
    """LAPACK's L D L^T factor (pttrf) of the n x n tridiag(-1, 2, -1), the
    same for every evaluation at that n."""
    d, e, _ = dpttrf(np.full(n, 2.0), np.full(n - 1, -1.0))
    d.setflags(write=False)
    e.setflags(write=False)
    return d, e


def _inverse_laplacian(rhs):
    """Solve tridiag(-1, 2, -1) x = rhs for rhs of shape (n,) or (n, m)."""
    return dpttrs(*_laplacian_factor(rhs.shape[0]), rhs)[0]


def _mesh_velocity(c, gain):
    """The mesh velocity A^-1 (gain * diff(c)) from the per-cell monitor
    masses c, with A = tridiag(-1, 2, -1)."""
    return _inverse_laplacian(gain * (c[1:] - c[:-1]))


def _mesh_rhs(config, r, u, dr, gmid, gain):
    """Equidistribution velocity for interior nodes from the elliptic form

        (dr/dt)_xixi = -gain * (M r_xi)_xi,   dr/dt = 0 at both ends,

    a tridiagonal solve with the cached factor.  Defining the velocity
    through the inverse Laplacian (rather than pointwise relaxation) makes
    the node-redistribution rate uniform across wavelengths; a pointwise
    relaxation moves mass between distant mesh regions slower by the square
    of the node count and starves a collapsing layer of nodes."""
    return _mesh_velocity(_monitor(config, r, u, dr, gmid) * dr, gain)


def _energy(config, r, u):
    """Dirichlet energy by the midpoint rule, of one state or, along the
    last axis, of states stacked as the rows of r and u."""
    d, k = config.params.d, config.params.k
    dr = r[..., 1:] - r[..., :-1]
    gmid = (u[..., 1:] - u[..., :-1]) / dr
    rmid = 0.5 * (r[..., :-1] + r[..., 1:])
    umid = 0.5 * (u[..., :-1] + u[..., 1:])
    dens = gmid * gmid + k * (d + k - 2.0) * np.sin(umid) ** 2 / (rmid * rmid)
    return 0.5 * np.sum(dens * rmid ** (d - 1.0) * dr, axis=-1)


def _trace_rows(config, t, r, u, gmax, loc):
    """The TRACE_COLUMNS but t_left of states stacked as the rows of r and
    u, shape (states, M), given their sup |u_r| gmax and its locations loc
    (see _steepest).  Every reduction runs along a row on its own, so each
    row is bit for bit what its state gives alone."""
    dr = r[:, 1:] - r[:, :-1]
    return (t, gmax, _energy(config, r, u), dr.min(axis=1), loc,
            np.sum(r <= (5.0 / gmax)[:, None], axis=1))


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
    """Sample the initial data on a mesh pre-equidistributed against its own
    monitor (a few de Boor sweeps)."""
    fam = initial_profile(config)
    r = np.linspace(0.0, config.L, config.M)
    u = fam(r)
    if abs(u[0]) > 1e-14:
        raise BadInitialData("initial data must satisfy u(0) = 0")
    for _ in range(6):
        dr, gmid = _differences(r, u)
        m = _monitor(config, r, u, dr, gmid)
        cum = np.concatenate([[0.0], np.cumsum(m * dr)])
        levels = np.linspace(0.0, cum[-1], config.M)
        r = np.interp(levels, cum, r)
        r[0], r[-1] = 0.0, config.L
        u = fam(r)
    u[0] = 0.0
    return MeshState(t=0.0, r=r, u=u)


# ----------------------------------------------------------------------------
# time stepping

def _pack(state):
    return np.concatenate([state.u[1:-1], state.r[1:-1]])


def _unpack(config, y, uL):
    """Nodal (r, u) from a packed state (2n,) or a block of states (2n, m)."""
    n = config.M - 2
    r = np.empty((n + 2,) + y.shape[1:])
    u = np.empty_like(r)
    u[0], u[1:-1], u[-1] = 0.0, y[:n], uL
    r[0], r[1:-1], r[-1] = 0.0, y[n:], config.L
    return r, u


def _make_rhs(config, uL, gain):
    def rhs(t, y):
        r, u = _unpack(config, y, uL)
        dr, gmid = _differences(r, u)
        rdot = _mesh_rhs(config, r, u, dr, gmid, gain)
        phys, ur = _pde_stencil(config, r, u, dr, gmid)
        return np.concatenate([phys + rdot * ur, rdot])

    return rhs


@dataclass(frozen=True)
class _JacPattern:
    """Column groups of the grouped differences and the layout of the
    banded Newton matrix, for n interior nodes (see _jac_pattern)."""
    width: int            # columns of one block perturbed in turn
    group: np.ndarray     # differencing column of each state index
    cells: tuple          # (columns, in range) of the cell masses
    nodes: tuple          # (columns, in range) of the PDE stencil
    kl: int               # sub- and superdiagonals of the Newton matrix
    ku: int
    at: dict              # band-storage positions of each kind of entry
    take: dict            # flat positions of the stencil and mesh entries


@functools.lru_cache(maxsize=8)
def _jac_pattern(n):
    """The _JacPattern for n interior nodes.

    With p = SMOOTH_PASSES, the smoothed monitor mass of cell j (between
    interior nodes j-1 and j) depends on interior nodes j-p-1 .. j+p, the
    mesh equation of node i (the difference of the masses of cells i+1 and
    i) on i-p-1 .. i+p+1, and the stencil at node i on i-1 .. i+1.
    Each is kept in diagonal storage: entry [i, j] belongs to column
    cols[i, j] (clipped into range; `ok` marks the real ones), in each of
    the u and r blocks.  Within a block, columns equal modulo `width` never
    share a dependent, so each such group is perturbed at once, in one
    column of the differencing block (column 0 is the unperturbed state).

    The Newton matrix orders its unknowns per node as (u_i, r_i, w_i), at
    3i, 3i+1, 3i+2, with w the mesh-velocity unknown of _BandedBDF.  Its
    bandwidths kl and ku are read off the entries; `at` holds the
    flat positions of the entries in LAPACK band storage (transposed, so
    that each column of the band is contiguous), and `take` the flat
    positions in _Jacobian.stencil and .mesh of the in-range entries, in
    the same order."""
    p = SMOOTH_PASSES
    width = 2 * p + 2
    k = np.arange(n)
    group = np.concatenate([1 + k % width, 1 + width + k % width])

    def diagonals(n_rows, lo, hi):
        cols = np.arange(n_rows)[:, None] + np.arange(lo, hi + 1)
        ok = (cols >= 0) & (cols < n)
        return np.clip(cols, 0, n - 1), ok

    cells = diagonals(n + 1, -p - 1, p)
    nodes = diagonals(n, -1, 1)
    mesh = diagonals(n, -p - 1, p + 1)

    def gather(ok):
        # flat positions of the ok entries of a (2,) + ok.shape array
        pos = np.flatnonzero(ok)
        return np.stack([pos, pos + ok.size])

    def blocks(row, cols, ok):
        # entries of row 3i + row at the u and r unknowns of cols[i][ok[i]]
        rows = np.broadcast_to(3 * k[:, None] + row, cols.shape)[ok]
        return np.stack([rows, rows]), np.stack([3 * cols[ok], 3 * cols[ok] + 1])

    w = 3 * k + 2
    entries = {
        "stencil": blocks(0, *nodes),            # b L
        "mesh": blocks(2, *mesh),                # -G
        "diagonal": (np.concatenate([3 * k, 3 * k + 1]),) * 2,   # a I
        "ur": (3 * k, w),                        # b diag(u_r) of b P
        "one": (3 * k + 1, w),                   # b I of b P
        "two": (w, w),                           # A = tridiag(-1, 2, -1)
        "minus_one": (np.concatenate([w[1:], w[:-1]]),
                      np.concatenate([w[:-1], w[1:]])),
    }
    kl = max(int(np.max(r - c)) for r, c in entries.values())
    ku = max(int(np.max(c - r)) for r, c in entries.values())
    ldab = 2 * kl + ku + 1
    at = {key: c * ldab + kl + ku + r - c for key, (r, c) in entries.items()}
    take = {"stencil": gather(nodes[1]), "mesh": gather(mesh[1])}
    return _JacPattern(width, group, cells, nodes, kl, ku, at, take)


@dataclass
class _Jacobian:
    """a I + b J, with J the Jacobian of _make_rhs in structured form

        J = L + P A^-1 (G + g s^T),   P = [diag(u_r); I],

    where L is the 3-point stencil part of the u rows (`stencil`), A =
    tridiag(-1, 2, -1), G the banded part of the mesh equations (`mesh`)
    and g s^T the rank-one reservation term.  `stencil` and `mesh` hold
    the banded rows per u/r block in centred diagonal storage: entry
    [blk, i, j] is the derivative by node i + j - (K-1)/2 of block blk,
    with K the number of diagonals, and zero where that node is outside
    the mesh.  `s` holds the u and r halves of s.  No dense form is ever
    built: numpy defers to the operators below, so BDF's I - c * J stays
    structured, and _BandedBDF factors it."""
    pattern: _JacPattern
    stencil: np.ndarray   # (2, n, 3)
    ur: np.ndarray        # (n,)
    mesh: np.ndarray      # (2, n, 2 * SMOOTH_PASSES + 3)
    g: np.ndarray         # (n,)
    s: np.ndarray         # (2, n)
    a: float = 0.0
    b: float = 1.0

    __array_ufunc__ = None

    def __rmul__(self, k):
        return replace(self, a=k * self.a, b=k * self.b)

    def __rsub__(self, k):
        # k I - (a I + b J) for a scalar k; _BandedBDF's identity is 1.0
        if not np.isscalar(k):
            return NotImplemented
        return replace(self, a=k - self.a, b=-self.b)


def _make_jac(config, uL, gain, atol):
    """Jacobian of _make_rhs(config, uL, gain) as a _Jacobian.

    With c the per-cell monitor mass, F = gain * diff(c) and
    A = tridiag(-1, 2, -1), the RHS is r' = A^-1 F and u' = phys + r' u_r,
    so

        dr'/dy = A^-1 dF,
        du'/dy = d(phys) + diag(r') d(u_r) + diag(u_r) dr'/dy.

    dc is banded but for the reservation, which moves with the total
    monitor mass and so adds the rank-one term g s^T to dF, with
    s = colsum(dc) (the column sums of the held-reservation part of dc are
    d(mass), as sum(dr) = L for every state) and g = gain * share *
    diff(dr).  d(phys) and d(u_r) are 3-point.  The banded parts come from
    grouped forward differences with scipy's num_jac step,
    sqrt(eps) * max(|y|, atol)."""
    n = config.M - 2
    pat = _jac_pattern(n)
    share = UNIFORM_FRACTION / config.L
    diag = np.arange(2 * n)

    def quotients(f, h, cols, ok):
        # (f[i, group[col]] - f[i, 0]) / h[col] per block, in diagonal storage
        i = np.arange(f.shape[0])[:, None]
        q = np.stack([(f[i, pat.group[cols + off]] - f[:, :1]) / h[cols + off]
                      for off in (0, n)])
        return np.where(ok, q, 0.0)

    def jac(t, y):
        Y = np.repeat(y[:, None], 2 * pat.width + 1, axis=1)
        Y[diag, pat.group] += _FD_STEP * np.maximum(np.abs(y), atol)
        h = Y[diag, pat.group] - y
        r, u = _unpack(config, Y, uL)
        dr, gmid = _differences(r, u)
        m = _smoothed_monitor(r, u, gmid)
        # the reservation held at its value at y
        c = (m + _reservation(config, m[:, 0], dr[:, 0])) * dr
        dc = quotients(c, h, *pat.cells)
        cols = pat.cells[0].ravel()
        s = np.stack([np.bincount(cols, dc_b.ravel(), minlength=n) for dc_b in dc])
        # the mesh equation of node i is the mass of cell i+1 less that of
        # cell i; the diagonals of dc start one column later in row i+1
        mesh = np.zeros((2, n, dc.shape[2] + 1))
        mesh[:, :, 1:] = dc[:, 1:]
        mesh[:, :, :-1] -= dc[:, :-1]
        mesh *= gain
        g = gain * share * np.diff(dr[:, 0])

        phys, ur = _pde_stencil(config, r, u, dr, gmid)
        # du/dt with r' held at its value at y
        f = phys + _mesh_velocity(c[:, :1], gain) * ur
        return _Jacobian(pat, quotients(f, h, *pat.nodes), ur[:, 0].copy(),
                         mesh, g, s)

    return jac


class _BandedBDF(BDF):
    """scipy's BDF, with the Newton matrix a I + b J (a _Jacobian) solved
    as the banded bordered system

        [[a I + b L, P], [-b G, A]] [x; w] = [rhs; 0] + [0; b g] s^T x

    in the unknowns (u_i, r_i, w_i) of each node, with w = b A^-1 (G + g s^T) x
    the mesh-velocity part: LAPACK gbtrf/gbtrs for the banded matrix K on
    the left and Sherman-Morrison for the rank-one term.  Carrying b in w
    keeps the mesh rows on the scale of the PDE rows (b G against b L),
    which at a sharpened layer makes the solve some 1e4 times more
    accurate than with w itself.  Step size, order and Newton iteration
    are scipy's.  rhs_s, jac_s and lu_s count the wall seconds spent in RHS
    evaluations, in Jacobian builds and in factorisations and solves.
    scipy's constructor gets an empty sparse Jacobian, so that it makes no
    dense 2n x 2n identity (118 MB at M = 1921); the first is built after."""

    def __init__(self, fun, *args, **kwargs):
        self.rhs_s = self.jac_s = self.lu_s = 0.0

        def timed(t, y):
            start = time.perf_counter()
            f = fun(t, y)
            self.rhs_s += time.perf_counter() - start
            return f

        # wrapped before scipy's constructor, whose evaluations count too
        super().__init__(timed, *args, **kwargs)
        # scipy binds an lu, solve_lu and identity to each instance
        del self.lu, self.solve_lu
        self.I = 1.0
        self.J = self.jac(self.t, self.y)

    def _validate_jac(self, jac, sparsity):
        def timed(t, y):
            start = time.perf_counter()
            J = jac(t, y)
            self.jac_s += time.perf_counter() - start
            self.njev += 1
            return J

        return timed, csc_array((self.n, self.n))

    def lu(self, J):
        start = time.perf_counter()
        self.nlu += 1
        pat, n = J.pattern, J.ur.size
        band = np.zeros((3 * n, 2 * pat.kl + pat.ku + 1))
        flat, at = band.reshape(-1), pat.at
        flat[at["stencil"]] = J.b * J.stencil.take(pat.take["stencil"])
        flat[at["diagonal"]] += J.a
        flat[at["ur"]] = J.ur
        flat[at["one"]] = 1.0
        flat[at["mesh"]] = -J.b * J.mesh.take(pat.take["mesh"])
        flat[at["two"]] = 2.0
        flat[at["minus_one"]] = -1.0
        band, piv, _ = dgbtrf(band.T, pat.kl, pat.ku, overwrite_ab=True)
        # K^-1 [0; b g] and s^T of the Sherman-Morrison update
        z = np.zeros(3 * n)
        z[2::3] = J.b * J.g
        z = dgbtrs(band, pat.kl, pat.ku, z, piv, overwrite_b=True)[0]
        s = np.zeros(3 * n)
        s[0::3], s[1::3] = J.s
        factors = (band, piv, pat.kl, pat.ku, z, s, 1.0 - s @ z)
        self.lu_s += time.perf_counter() - start
        return factors

    def solve_lu(self, factors, rhs):
        start = time.perf_counter()
        band, piv, kl, ku, z, s, denom = factors
        n = rhs.size // 2
        x = np.zeros(3 * n)
        x[0::3], x[1::3] = rhs[:n], rhs[n:]
        x = dgbtrs(band, kl, ku, x, piv, overwrite_b=True)[0]
        x += z * ((s @ x) / denom)
        out = np.concatenate([x[0::3], x[1::3]])
        self.lu_s += time.perf_counter() - start
        return out


def _advance(config, solver, uL, t0):
    """Take one step of `solver`, whose clock starts at 0 at the absolute
    time t0, and return the accepted MeshState; StepSizeUnderflow if the
    step failed, MeshTangling if it left the nodes out of order."""
    solver.step()
    if solver.status == "failed":
        raise StepSizeUnderflow("implicit step failed; increase M or tolerances")
    r, u = _unpack(config, solver.y, uL)
    if np.any(r[1:] <= r[:-1]):
        raise MeshTangling("node ordering violated; increase M")
    return MeshState(t=t0 + solver.t, r=r, u=u)


def step(config, state, dt_max=np.inf):
    """Advance one accepted implicit step; mostly a testing convenience,
    run() takes its steps through the same _advance."""
    gain = _gain(_steepest(state.r, state.u)[0])
    solver = _new_solver(config, state, gain, t_bound=dt_max)
    return _advance(config, solver, state.u[-1], state.t)


def _new_solver(config, state, gain, t_bound):
    """A solver from `state` on its own clock, from 0 (the RHS is autonomous)."""
    n = config.M - 2
    atol = np.empty(2 * n)
    atol[:n] = ATOL_U
    spacing = np.diff(state.r)
    local = np.minimum(spacing[:-1], spacing[1:])
    atol[n:] = ATOL_R_REL * local
    # the inverse-Laplacian mesh velocity couples every node pair, but the
    # Newton matrix is banded once the velocity is an unknown of its own:
    # _make_jac gives the Jacobian in parts and _BandedBDF solves with them
    return _BandedBDF(
        _make_rhs(config, state.u[-1], gain),
        0.0,
        _pack(state),
        t_bound=t_bound,
        rtol=config.rtol,
        atol=atol,
        jac=_make_jac(config, state.u[-1], gain, atol),
    )


def run(config, progress=None):
    """Step until sup|u_r| >= max_gradient or t >= t_max, recording
    observables at every accepted step and snapshots on a gradient ladder.

    Each step only takes what the loop needs (_steepest); the accepted
    states of a chunk are held until the chunk ends and then turned into
    trace rows at once (_trace_rows), so the buffer never outgrows a chunk.
    Each chunk solver counts its own time from 0 (_new_solver), which gives
    t_left.  Each chunk also leaves one record in RunTrace.chunk_log."""
    state = initialize(config)
    uL = state.u[-1]

    columns = []   # the _trace_rows of each chunk
    thetas = []    # the chunk-local times of the rows of each chunk
    held = []      # (t, r, u, gmax, loc, theta) of states not yet in columns
    chunk_log = []
    snapshots = [MeshState(state.t, state.r.copy(), state.u.copy())]
    snap_rows = [0]   # the trace row of each snapshot
    next_snap = 10.0 ** SNAPSHOT_DECADES
    stopped = "tmax"

    def observe(state, theta):
        """Hold a state for its trace row; return sup |u_r|."""
        gmax, loc = _steepest(state.r, state.u)
        held.append((state.t, state.r, state.u, gmax, loc, theta))
        return gmax

    gmax = observe(state, 0.0)
    qhat = 0.0   # measured growth rate d log(sup u_r)/dt of the last chunk
    while True:
        started = time.perf_counter()
        gain = _gain(gmax, qhat)
        chunk_limit = CHUNK_GROWTH * gmax  # refresh the frozen gain as the layer sharpens
        t_chunk, g_chunk, steps = state.t, gmax, 0
        solver = _new_solver(config, state, gain, t_bound=config.t_max - t_chunk)
        while solver.status == "running":
            state = _advance(config, solver, uL, t_chunk)
            steps += 1
            gmax = observe(state, solver.t)
            if gmax >= next_snap:
                snapshots.append(MeshState(state.t, state.r.copy(), state.u.copy()))
                snap_rows.append(sum(map(len, thetas)) + len(held) - 1)
                next_snap = 10.0 ** (
                    math.floor(math.log10(gmax) / SNAPSHOT_DECADES + 1)
                    * SNAPSHOT_DECADES
                )
            if progress is not None:
                progress(state.t, gmax)
            if gmax >= config.max_gradient:
                stopped = "blowup"
                break
            if gmax >= chunk_limit:
                break
        *rows, theta = map(np.array, zip(*held))
        columns.append(_trace_rows(config, *rows))
        thetas.append(theta)
        held.clear()
        done = stopped != "tmax" or solver.status == "finished"
        chunk_log.append({
            "t0": t_chunk, "t1": state.t, "dt": solver.t, "sup_grad0": g_chunk,
            "sup_grad1": gmax, "qhat": qhat, "gain": gain, "steps": steps,
            **{key: getattr(solver, key) for key in _SOLVER_COUNTERS},
            "wall_s": time.perf_counter() - started,
            "end": stopped if done else "growth",
        })
        if gmax > g_chunk:
            qhat = math.log(gmax / g_chunk) / solver.t
        if done:
            break

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
    if snap_rows[-1] != t_left.size - 1:
        snapshots.append(MeshState(state.t, state.r.copy(), state.u.copy(), 0.0))
    totals = {"chunks": len(chunk_log)}
    for key in _SOLVER_COUNTERS:
        totals[key] = sum(line[key] for line in chunk_log)
    return RunTrace(config=config, snapshots=snapshots, stopped=stopped,
                    solver=totals, chunk_log=chunk_log, t_left=t_left,
                    **dict(zip(TRACE_COLUMNS, map(np.concatenate, zip(*columns)))))


# ----------------------------------------------------------------------------
# rate fitting

def _subsample_log(g):
    """Indices that thin the rows with g > 0 to about 120 per decade, evenly
    in log(g), to suppress step-to-step noise before differencing."""
    keep, last = [], -math.inf
    for j in np.flatnonzero(g):
        lg = math.log10(g[j])
        if lg - last >= 1.0 / 120:
            keep.append(j)
            last = lg
    return np.array(keep, dtype=int)


#: a scale counts as resolved while at least this many nodes sit inside it
MIN_LAYER_NODES = 20


def _resolved_window(trace):
    """The samples of every rate fit, the rows and sup |u_r| at the kept rows
    of the first longest contiguous stretch with enough nodes inside the
    layer: the recorded gradient is not trustworthy outside it.  NoBlowup if
    the run did not blow up."""
    if trace.no_blowup:
        raise NoBlowup("trace ended before the stop criterion")
    idx = _subsample_log(trace.sup_grad)
    ok = trace.nodes_in_layer[idx] >= MIN_LAYER_NODES
    # (start, end) of each run of resolved samples
    runs = np.flatnonzero(np.diff(np.concatenate(([False], ok, [False]))))
    runs = runs.reshape(-1, 2)
    lengths = runs[:, 1] - runs[:, 0]
    if not np.any(lengths >= 12):
        raise WindowTooShort("no resolved stretch of 12+ samples in the trace")
    start, end = runs[np.argmax(lengths)]
    idx = idx[start:end]
    return idx, trace.sup_grad[idx]


def fit_power(trace):
    """Power-law fit from the log-derivative of sup |u_r| = 1/R.

    q(t) = d log(sup_grad)/dt equals (1/2+beta)/(T-t) for a pure power law,
    so 1/q is linear in t with root T; a line fit over the last three
    decades of the resolved window gives beta and tau = T - t at the last
    row.  Time is -t_left, which is exact however close the rows are to T."""
    idx, g = _resolved_window(trace)
    mask = g >= g[-1] / 1e3
    idx, g = idx[mask], g[mask]
    if idx.size < 12:
        raise WindowTooShort("fewer than 12 samples in the power-fit window")
    t = -trace.t_left[idx]
    tm = 0.5 * (t[1:] + t[:-1])
    q = np.diff(np.log(g)) / np.diff(t)
    good = q > 0
    tm, q = tm[good], q[good]
    if tm.size < 10:
        raise WindowTooShort("fewer than 10 positive-growth samples")
    invq = 1.0 / q
    (b, a), cov = np.polyfit(tm, invq, 1, cov=True)
    if b >= 0:
        raise DegenerateFit("1/q does not decrease toward blow-up")
    # 1/q = (tau - t)/(1/2+beta): slope -1/(1/2+beta), root at t = tau
    expo = -1.0 / b
    beta = expo - 0.5
    tau = -a / b
    resid = float(np.sqrt(np.mean((a + b * tm - invq) ** 2)))
    dbeta = math.sqrt(max(float(cov[0, 0]), 0.0)) / (b * b)
    # the statistical error bar is far too optimistic when the local
    # exponent still drifts across the window; report the half-window
    # sensitivity when it dominates
    half = tm.size // 2
    betas = []
    for sl in (slice(None, half), slice(half, None)):
        if tm[sl].size >= 5:
            bh = np.polyfit(tm[sl], invq[sl], 1)[0]
            if bh < 0:
                betas.append(-1.0 / bh - 0.5)
    if len(betas) == 2:
        dbeta = max(dbeta, 0.5 * abs(betas[0] - betas[1]))
    return FitResult(kind="power", T=float(trace.t[-1]) + tau, tau=tau,
                     beta=beta, residual=resid, uncertainty=dbeta,
                     window=(float(trace.t[idx[0]]), float(trace.t[idx[-1]])))


def fit_log(trace, delta=1.0):
    """Logarithmic-law fit: sqrt(T-t) sup_grad = C (-log(T-t) - s0)^{1/delta}
    over the last six e-folds of T - t in the resolved window.

    With T - t = t_left + tau and tau fixed the model is linear in
    -log(T-t) after raising to the delta power, so an inner linear solve
    sits under a 1-D search over tau, the T - t of the last row."""
    idx, g = _resolved_window(trace)
    t_left = trace.t_left[idx]
    # parabolic scaling puts tau near 1/sup|u_r|^2 at the last row
    tau_guess = trace.sup_grad[-1] ** -2.0

    def line_fit(tau):
        """x = -log(T-t) and z = (sqrt(T-t) g)^delta over the window, and the
        line z ~ a + b x; None if the window holds fewer than 20 samples."""
        x = -np.log(t_left + tau)
        mask = x >= x[-1] - 6.0
        if np.sum(mask) < 20:
            return None
        x, z = x[mask], (np.sqrt(t_left[mask] + tau) * g[mask]) ** delta
        b, a = np.polyfit(x, z, 1)
        return x, z, a, b

    def misfit(log_tau):
        fit = line_fit(math.exp(log_tau))
        # the model slope is C^delta > 0; negative-slope minima are
        # spurious branches of the tau search
        if fit is None or fit[3] <= 0:
            return 1e30
        x, z, a, b = fit
        return float(np.mean((a + b * x - z) ** 2))

    res = minimize_scalar(
        misfit,
        bounds=(math.log(tau_guess * 1e-3), math.log(tau_guess * 1e5)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    if not res.success or res.fun >= 1e29:
        raise DegenerateFit("outer search over T failed")
    # misfit(res.x) is finite, so the window at tau is full and its slope positive
    tau = math.exp(res.x)
    x, z, a, b = line_fit(tau)
    C = b ** (1.0 / delta)
    s0 = -a / b
    ss_res = float(np.sum((z - (a + b * x)) ** 2))
    ss_tot = float(np.sum((z - np.mean(z)) ** 2))
    return FitResult(kind="log", T=float(trace.t[-1]) + tau, tau=tau, C=C,
                     s0=s0, residual=math.sqrt(ss_res / x.size),
                     r_squared=1.0 - ss_res / ss_tot,
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
