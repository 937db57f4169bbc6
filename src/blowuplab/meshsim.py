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
(cached), and each evaluation only back-substitutes with pttrs.

BDF gets the Jacobian in structured form (see _make_jac): every block is
banded except the mesh velocity, which is the inverse Laplacian of a
banded term plus a rank-one term from the total monitor mass.  The banded
parts come from grouped differences (Curtis, Powell & Reid 1974).  No
dense Jacobian is formed: with the mesh velocity carried as an extra
unknown per node, the Newton matrix is a banded bordered system, which
_BandedBDF factors with LAPACK's banded LU and corrects for the rank-one
term by Sherman-Morrison (Hairer & Wanner, Solving ODEs II, ch. VI), so a
Newton step costs O(M).

Blow-up observables (the origin gradient, the global max gradient, the
energy, the mesh resolution) are recorded at every accepted step; rate
fitting recovers the power-law exponent 1/2 + beta or the logarithmic
law from the trace.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.integrate import BDF
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs
from scipy.optimize import minimize_scalar

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

#: relative forward-difference step of the banded Jacobian parts
_FD_STEP = np.finfo(float).eps ** 0.5

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
    monitor_alpha: float = 1.0
    monitor_scale_weight: float = 1.0  # |u|/r term weight (see _smoothed_monitor)
    monitor_smooth_passes: int = 4
    uniform_fraction: float = 0.1     # monitor mass reserved for the outer region
    tau: float = 0.1                  # mesh relaxation time at unit gradient
    rtol: float = 1e-7
    atol_u: float = 1e-9
    atol_r_rel: float = 1e-4          # node atol relative to the local spacing scale
    max_gradient: float = 1e8         # stop criterion on sup |u_r|
    t_max: float = 10.0
    snapshot_decades: float = 0.5     # snapshot every this many decades of sup|u_r|

    def __post_init__(self):
        if self.M < 64:
            raise ValueError("M must be >= 64")
        # each check is written as "not <condition>" so that NaN fails it
        if not self.max_gradient >= 1e6:
            raise ValueError("max_gradient must be >= 1e6")
        if not 0 < self.L < math.inf:
            raise ValueError("L must be positive and finite")
        for name in ("tau", "rtol", "atol_u", "atol_r_rel", "t_max",
                     "snapshot_decades"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("uniform_fraction", "monitor_alpha",
                     "monitor_scale_weight"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        passes = self.monitor_smooth_passes
        if not (isinstance(passes, (int, np.integer)) and passes >= 0):
            raise ValueError("monitor_smooth_passes must be a non-negative integer")

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
#: five are the stable contract, the trailing two let the rate fits recover
#: their resolved window after a reload
TRACE_COLUMNS = ("t", "dr_u0", "sup_grad", "energy", "min_dx",
                 "sup_grad_loc", "nodes_in_layer")


@dataclass
class MeshState:
    t: float
    r: np.ndarray   # strictly increasing, r[0]=0, r[-1]=L
    u: np.ndarray   # u[0]=0, u[-1] fixed

    def to_csv(self, path):
        write_table(path, ("r", "u"), (self.r, self.u))


@dataclass
class RunTrace:
    config: SimConfig
    t: np.ndarray
    dr_u0: np.ndarray        # du/dr at r=0 (one-sided, 2nd order)
    sup_grad: np.ndarray     # max over mesh of |du/dr|
    energy: np.ndarray
    min_dx: np.ndarray
    sup_grad_loc: np.ndarray  # location of the max gradient
    nodes_in_layer: np.ndarray  # nodes with r <= 5 / sup_grad
    snapshots: list = field(default_factory=list)
    stopped: str = "blowup"      # "blowup" | "roundoff" | "tmax"
    # BDF counters nfev/njev/nlu and the wall seconds in RHS evaluations
    # (rhs_s), in Jacobian builds (jac_s) and in factorisations and solves
    # (lu_s), summed over the chunk solvers, and the number of chunks; empty
    # for a trace read back from csv
    solver: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes_in_layer = np.asarray(self.nodes_in_layer).astype(int)

    @property
    def no_blowup(self):
        # "roundoff" means the time increments ahead of the singularity fell
        # below the resolution of double-precision t -- which only happens
        # well inside a blow-up, so the trace is still fittable
        return self.stopped not in ("blowup", "roundoff")

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
    T: float
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


def _steepest(gmid, g0):
    """sup |u_r| over the mesh (the largest midpoint or origin gradient) and
    the cell of the largest midpoint gradient."""
    a = np.abs(gmid)
    j = int(np.argmax(a))
    return max(float(a[j]), abs(g0)), j


def _sup_gradient(r, u):
    """sup |u_r| over the mesh."""
    return _steepest(_differences(r, u)[1], _origin_gradient(r, u))[0]


def _gain(config, gmax, qhat=0.0):
    """Mesh gain at sup |u_r| = gmax.  The node-relaxation rate is
    gain * monitor ~ gain * gmax; it is tied to the observed collapse rate
    qhat with a fixed margin, so the mesh tracks the layer without making
    the system orders of magnitude stiffer than the physics (which starves
    BDF of step size), and never drops below 1/tau."""
    return max(TRACKING_MARGIN * qhat, 1.0 / config.tau) / (1.0 + gmax)


def _smoothed_monitor(config, r, u, gmid):
    """Spatially smoothed midpoint monitor, before the uniform reservation.

    The arclength part sqrt(alpha + u_r^2) concentrates nodes in the
    boundary layer, but leaves the self-similar transition region between
    the layer scale and O(sqrt(T-t)) -- where u is near its plateau and
    u_r is small -- with almost no mass, and that region carries the slow
    dynamics that set the blow-up rate.  The |u|/r term equidistributes
    log-uniformly in r between those scales (its mass per decade of r is
    constant once u plateaus), the moving-mesh analogue of a geometrically
    graded fixed mesh."""
    m = np.sqrt(config.monitor_alpha + gmid * gmid)
    if config.monitor_scale_weight > 0.0:
        # |u|/r at the cell midpoint; the halves of both means cancel
        m += config.monitor_scale_weight * np.abs(u[:-1] + u[1:]) / (r[:-1] + r[1:])
    # (1/4, 1/2, 1/4) passes; the padding repeats the end cells, so the end
    # rows weigh (3/4, 1/4)
    p = np.empty((m.shape[0] + 2,) + m.shape[1:])
    p[1:-1] = m
    for _ in range(config.monitor_smooth_passes):
        p[0], p[-1] = p[1], p[-2]
        p[1:-1] = 0.25 * (p[:-2] + p[2:]) + 0.5 * p[1:-1]
    return p[1:-1]


def _reservation(config, m, dr):
    """Monitor level that spreads `uniform_fraction` of the monitor mass
    sum(m dr) evenly over [0, L]."""
    mass = (m * dr).sum(axis=0)
    return config.uniform_fraction * mass / config.L


def _monitor(config, r, u):
    """Smoothed midpoint monitor with the uniform reservation added."""
    dr, gmid = _differences(r, u)
    m = _smoothed_monitor(config, r, u, gmid)
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
    m = _smoothed_monitor(config, r, u, gmid)
    return _mesh_velocity((m + _reservation(config, m, dr)) * dr, gain)


def _energy(config, r, u):
    """Dirichlet energy by the midpoint rule."""
    d, k = config.params.d, config.params.k
    dr, gmid = _differences(r, u)
    rmid = 0.5 * (r[:-1] + r[1:])
    umid = 0.5 * (u[:-1] + u[1:])
    dens = gmid * gmid + k * (d + k - 2.0) * np.sin(umid) ** 2 / (rmid * rmid)
    return 0.5 * float(np.sum(dens * rmid ** (d - 1.0) * dr))


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
        m = _monitor(config, r, u)
        cum = np.concatenate([[0.0], np.cumsum(m * np.diff(r))])
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
    banded Newton matrix, for n interior nodes and `passes` monitor
    smoothing passes (see _jac_pattern)."""
    width: int            # columns of one block perturbed in turn
    group: np.ndarray     # differencing column of each state index
    cells: tuple          # (columns, in range) of the cell masses
    nodes: tuple          # (columns, in range) of the PDE stencil
    mesh: tuple           # (columns, in range) of the mesh equations
    kl: int               # sub- and superdiagonals of the Newton matrix
    ku: int
    at: dict              # band-storage positions of each kind of entry


@functools.lru_cache(maxsize=8)
def _jac_pattern(n, passes):
    """The _JacPattern for n interior nodes and `passes` smoothing passes.

    The smoothed monitor mass of cell j (between interior nodes j-1 and j)
    depends on interior nodes j-passes-1 .. j+passes, the mesh equation of
    node i (the difference of the masses of cells i+1 and i) on
    i-passes-1 .. i+passes+1, and the stencil at node i on i-1 .. i+1.
    Each is kept in diagonal storage: entry [i, j] belongs to column
    cols[i, j] (clipped into range; `ok` marks the real ones), in each of
    the u and r blocks.  Within a block, columns equal modulo `width` never
    share a dependent, so each such group is perturbed at once, in one
    column of the differencing block (column 0 is the unperturbed state).

    The Newton matrix orders its unknowns per node as (u_i, r_i, w_i), at
    3i, 3i+1, 3i+2, with w the mesh-velocity unknown of _BandedBDF.  Its
    bandwidths kl and ku are read off the entries, so they stay within
    3n-1 when the smoothing reaches across the whole mesh; `at` holds the
    flat positions of the entries in LAPACK band storage (transposed, so
    that each column of the band is contiguous)."""
    width = min(max(2 * passes + 2, 3), n)
    k = np.arange(n)
    group = np.concatenate([1 + k % width, 1 + width + k % width])

    def diagonals(n_rows, lo, hi):
        cols = np.arange(n_rows)[:, None] + np.arange(lo, hi + 1)
        ok = (cols >= 0) & (cols < n)
        return np.clip(cols, 0, n - 1), ok

    cells = diagonals(n + 1, -passes - 1, passes)
    nodes = diagonals(n, -1, 1)
    mesh = diagonals(n, -passes - 1, passes + 1)

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
    return _JacPattern(width, group, cells, nodes, mesh, kl, ku, at)


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
    mesh: np.ndarray      # (2, n, 2 * passes + 3)
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
    pat = _jac_pattern(n, config.monitor_smooth_passes)
    share = config.uniform_fraction / config.L
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
        m = _smoothed_monitor(config, r, u, gmid)
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
    evaluations, in Jacobian builds and in factorisations and solves."""

    def __init__(self, fun, *args, **kwargs):
        self.rhs_s = self.jac_s = self.lu_s = 0.0

        def timed(t, y):
            start = time.perf_counter()
            f = fun(t, y)
            self.rhs_s += time.perf_counter() - start
            return f

        # wrapped before scipy's constructor, whose evaluations count too
        super().__init__(timed, *args, **kwargs)
        # scipy binds a dense lu, solve_lu and identity to each instance
        del self.lu, self.solve_lu
        self.I = 1.0

    def _validate_jac(self, jac, sparsity):
        def timed(t, y):
            start = time.perf_counter()
            J = jac(t, y)
            self.jac_s += time.perf_counter() - start
            self.njev += 1
            return J

        return timed, timed(self.t, self.y)

    def lu(self, J):
        start = time.perf_counter()
        self.nlu += 1
        pat, n = J.pattern, J.ur.size
        band = np.zeros((3 * n, 2 * pat.kl + pat.ku + 1))
        flat, at = band.reshape(-1), pat.at
        flat[at["stencil"]] = J.b * J.stencil[:, pat.nodes[1]]
        flat[at["diagonal"]] += J.a
        flat[at["ur"]] = J.ur
        flat[at["one"]] = 1.0
        flat[at["mesh"]] = -J.b * J.mesh[:, pat.mesh[1]]
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


def _advance(config, solver, uL):
    """Take one step of `solver` and return the accepted MeshState;
    StepSizeUnderflow if the step failed, MeshTangling if it left the nodes
    out of order."""
    solver.step()
    if solver.status == "failed":
        raise StepSizeUnderflow("implicit step failed; increase M or tolerances")
    r, u = _unpack(config, solver.y, uL)
    if np.any(r[1:] <= r[:-1]):
        raise MeshTangling("node ordering violated; increase M")
    return MeshState(t=solver.t, r=r, u=u)


def step(config, state, dt_max=np.inf):
    """Advance one accepted implicit step; mostly a testing convenience,
    run() takes its steps through the same _advance."""
    gain = _gain(config, _sup_gradient(state.r, state.u))
    solver = _new_solver(config, state, gain, t_bound=state.t + dt_max)
    return _advance(config, solver, state.u[-1])


def _new_solver(config, state, gain, t_bound):
    n = config.M - 2
    atol = np.empty(2 * n)
    atol[:n] = config.atol_u
    spacing = np.diff(state.r)
    local = np.minimum(spacing[:-1], spacing[1:])
    atol[n:] = config.atol_r_rel * local
    # the inverse-Laplacian mesh velocity couples every node pair, but the
    # Newton matrix is banded once the velocity is an unknown of its own:
    # _make_jac gives the Jacobian in parts and _BandedBDF solves with them
    return _BandedBDF(
        _make_rhs(config, state.u[-1], gain),
        state.t,
        _pack(state),
        t_bound=t_bound,
        rtol=config.rtol,
        atol=atol,
        jac=_make_jac(config, state.u[-1], gain, atol),
    )


def run(config, progress=None):
    """Step until sup|u_r| >= max_gradient or t >= t_max, recording
    observables at every accepted step and snapshots on a gradient ladder."""
    state = initialize(config)
    uL = state.u[-1]

    rows = []
    snapshots = [MeshState(state.t, state.r.copy(), state.u.copy())]
    next_snap = 10.0 ** config.snapshot_decades
    stopped = "tmax"

    def observe(t, r, u):
        """Append the TRACE_COLUMNS of one state to rows; return sup |u_r|."""
        dr, gmid = _differences(r, u)
        g0 = _origin_gradient(r, u)
        gmax, j = _steepest(gmid, g0)
        rows.append((
            t, g0, gmax, _energy(config, r, u), float(np.min(dr)),
            0.0 if abs(g0) >= gmax else 0.5 * (r[j] + r[j + 1]),
            int(np.sum(r <= 5.0 / gmax)),
        ))
        return gmax

    gmax = observe(state.t, state.r, state.u)
    counters = dict.fromkeys(("chunks", "nfev", "njev", "nlu"), 0)
    counters.update(rhs_s=0.0, jac_s=0.0, lu_s=0.0)
    qhat = 0.0   # measured growth rate d log(sup u_r)/dt of the last chunk
    while True:
        gain = _gain(config, gmax, qhat)
        chunk_limit = CHUNK_GROWTH * gmax  # refresh the frozen gain as the layer sharpens
        t_chunk, g_chunk = state.t, gmax
        solver = _new_solver(config, state, gain, t_bound=config.t_max)
        while solver.status == "running":
            try:
                state = _advance(config, solver, uL)
            except StepSizeUnderflow:
                # deep in the collapse T - t can shrink below the spacing of
                # representable times near t; the integrator then has no
                # step left to take, whatever its tolerance, and the run is over
                if gmax < 1e3:
                    raise
                stopped = "roundoff"
                break
            gmax = observe(state.t, state.r, state.u)
            if gmax >= next_snap:
                snapshots.append(MeshState(state.t, state.r.copy(), state.u.copy()))
                next_snap = 10.0 ** (
                    math.floor(math.log10(gmax) / config.snapshot_decades + 1)
                    * config.snapshot_decades
                )
            if progress is not None:
                progress(state.t, gmax)
            if gmax >= config.max_gradient:
                stopped = "blowup"
                break
            if gmax >= chunk_limit:
                break
        counters["chunks"] += 1
        for key in ("nfev", "njev", "nlu", "rhs_s", "jac_s", "lu_s"):
            counters[key] += getattr(solver, key)
        if state.t > t_chunk and gmax > g_chunk:
            qhat = math.log(gmax / g_chunk) / (state.t - t_chunk)
        if stopped != "tmax" or solver.status == "finished":
            break

    snapshots.append(MeshState(state.t, state.r.copy(), state.u.copy()))
    return RunTrace(config=config, snapshots=snapshots, stopped=stopped,
                    solver=counters,
                    **dict(zip(TRACE_COLUMNS, np.array(rows).T)))


# ----------------------------------------------------------------------------
# rate fitting

def _subsample_log(t, g, per_decade=120):
    """Thin the trace to roughly uniform spacing in log(g) before
    differencing, to suppress step-to-step noise.  Returns kept indices."""
    keep = [0]
    last = math.log10(g[0])
    for j in range(1, t.size):
        lg = math.log10(g[j])
        if lg - last >= 1.0 / per_decade:
            keep.append(j)
            last = lg
    return np.array(keep)


#: a scale counts as resolved while at least this many nodes sit inside it
MIN_LAYER_NODES = 20


def _resolved_window(trace):
    """Kept (subsampled) indices of the resolved part of the trace: the
    longest contiguous stretch with enough nodes inside the layer.  The
    recorded gradient is not trustworthy outside it."""
    idx = _subsample_log(trace.t, np.abs(trace.dr_u0))
    ok = trace.nodes_in_layer[idx] >= MIN_LAYER_NODES
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
    if best < 12:
        raise WindowTooShort("no resolved stretch of 12+ samples in the trace")
    return idx[best_start:best_start + best]


def fit_power(trace, window_decades=3.0):
    """Power-law fit from the log-derivative of the origin gradient.

    q(t) = d log(dr_u0)/dt equals (1/2+beta)/(T-t) for a pure power law,
    so 1/q is linear in t with root T; a line fit over the late resolved
    window gives T and beta.  The fit is done in time centered on the
    window start -- the raw times agree to many digits near blow-up and
    would cancel catastrophically in the normal equations."""
    if trace.no_blowup:
        raise NoBlowup("trace ended before the stop criterion")
    idx = _resolved_window(trace)
    t = trace.t[idx]
    g = np.abs(trace.dr_u0[idx])
    mask = g >= g[-1] / 10.0**window_decades
    t, g = t[mask], g[mask]
    if t.size < 12:
        raise WindowTooShort("fewer than 12 samples in the power-fit window")
    t0 = t[0]
    tm = 0.5 * (t[1:] + t[:-1]) - t0
    q = np.diff(np.log(g)) / np.diff(t)
    good = q > 0
    tm, q = tm[good], q[good]
    if tm.size < 10:
        raise WindowTooShort("fewer than 10 positive-growth samples")
    invq = 1.0 / q
    (b, a), cov = np.polyfit(tm, invq, 1, cov=True)
    if b >= 0:
        raise DegenerateFit("1/q does not decrease toward blow-up")
    # 1/q = (T - t)/(1/2+beta): slope -1/(1/2+beta), root at t = T
    expo = -1.0 / b
    beta = expo - 0.5
    T = t0 - a / b
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
    return FitResult(kind="power", T=T, beta=beta, residual=resid,
                     uncertainty=dbeta,
                     window=(float(t[0]), float(t[-1])))


def fit_log(trace, delta=1.0, window_efolds=6.0):
    """Logarithmic-law fit: sqrt(T-t) dr_u0 = C (-log(T-t) - s0)^{1/delta}.

    With T fixed the model is linear in -log(T-t) after raising to the
    delta power, so an inner linear solve sits under a 1-D search over T."""
    if trace.no_blowup:
        raise NoBlowup("trace ended before the stop criterion")
    idx = _resolved_window(trace)
    t = trace.t[idx]
    g = np.abs(trace.dr_u0[idx])
    t_end = t[-1]
    # parabolic scaling puts T - t_end near 1/sup_grad^2 scale
    dt_guess = (1.0 / g[-1]) ** 2

    def line_fit(T):
        """x = -log(T-t) and z = (sqrt(T-t) g)^delta over the window, and the
        line z ~ a + b x; None if the window holds fewer than 20 samples."""
        x = -np.log(T - t)
        mask = x >= x[-1] - window_efolds
        if np.sum(mask) < 20:
            return None
        x, z = x[mask], (np.sqrt(T - t[mask]) * g[mask]) ** delta
        b, a = np.polyfit(x, z, 1)
        return x, z, a, b

    def misfit(log_dt):
        fit = line_fit(t_end + math.exp(log_dt))
        # the model slope is C^delta > 0; negative-slope minima are
        # spurious branches of the T search
        if fit is None or fit[3] <= 0:
            return 1e30
        x, z, a, b = fit
        return float(np.mean((a + b * x - z) ** 2))

    res = minimize_scalar(
        misfit,
        bounds=(math.log(dt_guess * 1e-3), math.log(dt_guess * 1e5)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    if not res.success or res.fun >= 1e29:
        raise DegenerateFit("outer search over T failed")
    # misfit(res.x) is finite, so the window at T is full and its slope positive
    T = t_end + math.exp(res.x)
    x, z, a, b = line_fit(T)
    C = b ** (1.0 / delta)
    s0 = -a / b
    ss_res = float(np.sum((z - (a + b * x)) ** 2))
    ss_tot = float(np.sum((z - np.mean(z)) ** 2))
    return FitResult(kind="log", T=T, C=C, s0=s0,
                     residual=math.sqrt(ss_res / x.size),
                     r_squared=1.0 - ss_res / ss_tot,
                     window=(float(x[0]), float(x[-1])))


@dataclass
class SelfSimilarSnapshot:
    s: float
    y: np.ndarray
    f: np.ndarray


def to_self_similar(state, T):
    """Rescale a snapshot to (y, s, f) variables for spectral projection and
    comparison with the matched ansatz."""
    if state.t >= T:
        raise ValueError("snapshot time must precede the blow-up time")
    tau = T - state.t
    return SelfSimilarSnapshot(
        s=-math.log(tau),
        y=state.r / math.sqrt(tau),
        f=state.u.copy(),
    )
