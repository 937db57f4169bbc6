"""Harmonic-map boundary-layer profile U*(xi).

The profile equation

    U*'' + (d-1)/xi U*' - k(d+k-2)/(2 xi^2) sin(2 U*) = 0,   U*(xi) = xi^k + O(xi^{3k})

becomes autonomous in x = log(xi), v(x) = 2 U*(e^x) - pi:

    v'' + (d-2) v' + k(d+k-2) sin(v) = 0

whose relevant solution is the heteroclinic orbit leaving the saddle
(-pi, 0) and decaying into the node (0, 0) like 2 h_+ e^{-gamma x}.
The orbit is unique up to x-translation and the origin series fixes the
translation, so there is no shooting parameter.  The orbit stays inside
the trapping region S = { -k sin v <= v' <= -gamma sin v }.

The orbit is integrated by its own Taylor series.  The recurrences of v,
sin v and cos v give the coefficients of order TAYLOR_ORDER about each step
start and the last two of them fix the step length.  The steps are kept as
one table of their coefficients, and every reader of v(x) evaluates it: the
uniform stored grid by matrix products with the powers of the node offsets,
any other point, a float or an array, by one Horner pass.  The steps are
explicit, so where the orbit is stiff their length is bounded by stability:
the step count grows about linearly in d, from 40-60 at d <= 14 to ~200 at
d = 70 (19 ms on a 2-vCPU Xeon host, where LSODA took 10 ms) and ~2,800 at
d = 1000.

From the orbit we extract the tail amplitude h = -h_+ > 0 and the slope
normalization C_s = 1 / sup_xi |dU*/dxi|.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailed, TailFitIllConditioned, TrappingViolation
from .params import DerivedConstants, critical_dimension
from .tables import write_table

#: number of stored orbit samples (tail fit, trapping check, slope argmax, CSV)
GRID_SIZE = 12000

#: tail-fit window is the last this-fraction of [0, x_max]
TAIL_WINDOW_FRACTION = 0.3

#: order of the Taylor polynomial of every integration step of the orbit
TAYLOR_ORDER = 20

#: C(m, n) at [n, m], m, n <= TAYLOR_ORDER: shifts a step's polynomial
_BINOMIAL = np.array([[math.comb(m, n) for m in range(TAYLOR_ORDER + 1)]
                      for n in range(TAYLOR_ORDER + 1)], dtype=float)

#: the orbit integration gives up after this many steps, as an excess-work
#: exit: at k = 1 the orbit takes about 2.8 d steps (2,836 at d = 1000)
MAX_STEPS = 5000


@dataclass
class TailFit:
    h: float             # -h_+ > 0
    h_minus: float       # subdominant amplitude at the window start x_lo


@dataclass
class TrappingReport:
    max_lower_violation: float            # max over grid of (-k sin v - v')_+
    max_upper_violation: float            # max over grid of (v' + gamma sin v)_+
    boundary_flux_samples: list = field(default_factory=list)


@dataclass(frozen=True)
class TaylorOrbit:
    """The Taylor steps as two read-only arrays: the step starts and the
    (TAYLOR_ORDER + 1, steps) table of their coefficients, lowest order
    first, v(starts[i] + t) = sum_m table[m, i] t^m.  Called on x >= starts[0],
    a float or an array: (v, v') by the Horner pass of the step loop on each
    point's step.  on_grid reads a uniform grid by matrix products instead."""
    starts: np.ndarray
    table: np.ndarray

    def __call__(self, x):
        step = np.searchsorted(self.starts[1:], x, side="right")
        return _value_and_slope(self.table[::-1, step], x - self.starts[step])

    def on_grid(self, grid):
        """self(grid) to 1e-13 relative, for a uniform grid from starts[0]
        past the last start.  Each step's polynomial is shifted to its first
        node, or one spacing before, tau >= spacing / 2 from its start so
        that tau^m can be divided out; one product with the powers of the
        node offsets then reads every step at every offset."""
        starts, table = self.starts, self.table
        spacing = (grid[-1] - grid[0]) / (grid.size - 1)    # np.linspace's
        first = np.searchsorted(grid, starts)
        owned = np.diff(first, append=grid.size)
        tau = grid[first] - starts
        back = tau < 0.5 * spacing
        tau[back] -= spacing
        powers = _powers(tau)     # shifted[n] = sum C(m, n) a_m tau^(m - n)
        shifted = _BINOMIAL @ (table * powers)
        shifted /= powers
        offsets = np.arange(owned.max() + 1)
        nodes = _powers(spacing * offsets)
        own = (offsets >= back[:, None]) & (offsets < (back + owned)[:, None])
        slopes = nodes[:-1] * np.arange(1.0, TAYLOR_ORDER + 1)[:, None]
        return (shifted.T @ nodes)[own], (shifted[1:].T @ slopes)[own]


def _powers(t):
    """The (TAYLOR_ORDER + 1, t.size) table of t^m, m = 0 .. TAYLOR_ORDER."""
    powers = np.empty((TAYLOR_ORDER + 1, t.size))
    powers[0] = 1.0
    for m in range(1, TAYLOR_ORDER + 1):
        np.multiply(powers[m - 1], t, out=powers[m])
    return powers


@dataclass
class ProfileSolution:
    consts: DerivedConstants
    x: np.ndarray        # strictly increasing, x = log(xi)
    v: np.ndarray        # v(x) = 2 U*(e^x) - pi, in (-pi, 0)
    v_prime: np.ndarray  # v'(x) > 0
    orbit: TaylorOrbit   # orbit(x) = (v(x), v'(x)) off the stored steps
    h: float             # tail amplitude, -h_+ > 0
    h_minus: float       # subdominant amplitude at x_switch (diagnostic)
    Cs: float            # 1 / sup |dU*/dxi|
    x_switch: float      # beyond e^{x_switch} evalU uses the tail formula
    tolerance: float

    def to_csv(self, path):
        """Orbit export for the phase-portrait figure (columns x, v, vPrime)."""
        write_table(path, ("x", "v", "vPrime"), (self.x, self.v, self.v_prime))


def _origin_series(consts, s):
    """U* and dU*/dx = xi dU*/dxi by the series from the origin in
    s = xi^k = e^{kx}, U* = s - c s^3 + O(s^5), for a float or an array s."""
    d, k = consts.params.d, consts.params.k
    c = (d + k - 2.0) / (3.0 * (d + 4.0 * k - 2.0))
    s3 = s**3
    return s - c * s3, k * s - 3.0 * k * c * s3


def _pendulum_coefficients(consts):
    """(damping, torque) of v'' = -damping v' - torque sin v."""
    return consts.params.d - 2.0, consts.params.kappa


def _pendulum_rhs(consts):
    damping, torque = _pendulum_coefficients(consts)

    def rhs(x, state):
        v, vp = state.tolist()   # Python floats: faster than numpy scalars
        return (vp, -damping * vp - torque * math.sin(v))

    return rhs


def solve_profile(consts, tolerance=1e-11):
    """Integrate the heteroclinic orbit and package it with tail and slope
    constants.  `tolerance` sets the relative accuracy of the orbit, asked
    of it as tolerance / 10; at the default its relative error on the grid is
    below 1e-10 (against DOP853 at rtol 1e-13).  Raises TrappingViolation if
    the computed orbit exits the trapping region by more than the
    integration error allows, and IntegrationFailed for tolerance below about
    2.2e-13 (tolerance / 10 below 100 machine epsilons), for a step that does
    not advance x (the Taylor coefficients overflow, as at d = 1e20), for
    MAX_STEPS steps short of x_max (at k = 1 above d ~ 1,700) and for an
    orbit that underflows short of x_max (up to d* + 1e-3 at k = 1, d* + 3e-3
    at k = 3: x_max grows like 1/omega as d nears d*)."""
    # the origin series errs by O(e^{5 k x_min}); e^{-omega x_max} < 1e-10
    # relative to the leading tail term keeps the tail fit well conditioned
    x_min = -12.0 / consts.params.k
    x_max = max(12.0, math.log(1e10) / consts.omega)
    u0, up0 = _origin_series(consts, math.exp(consts.params.k * x_min))
    v0, vp0 = 2.0 * u0 - math.pi, 2.0 * up0

    grid = np.linspace(x_min, x_max, GRID_SIZE)
    orbit = _taylor_orbit(consts, x_min, v0, vp0, x_max, tolerance)
    v, vp = orbit.on_grid(grid)

    scale = np.maximum(np.abs(vp), 1e-280)
    rel_viol = max(float(np.max(excursion / scale))
                   for excursion in _trapping_excursions(consts, v, vp))
    if rel_viol > 1e4 * tolerance + 1e-9:
        raise TrappingViolation(
            f"orbit left trapping region by relative margin {rel_viol:.3e}"
        )

    x_switch = x_min + (1.0 - TAIL_WINDOW_FRACTION) * (x_max - x_min)
    tail = _fit_tail(consts, grid, v, x_lo=x_switch)
    Cs = _slope_normalization(consts, orbit, grid, vp)

    profile = ProfileSolution(
        consts=consts,
        x=grid,
        v=v,
        v_prime=vp,
        orbit=orbit,
        h=tail.h,
        h_minus=tail.h_minus,
        Cs=Cs,
        x_switch=x_switch,
        tolerance=tolerance,
    )
    return profile


def _fit_tail(consts, x, v, x_lo):
    """Linear least squares in the two tail exponentials on [x_lo, x_max]:
    v ~ 2 h_+ e^{-gamma x} + 2 h_- e^{-(gamma+omega) (x - x_lo)}.  h_- is
    taken at the window start because e^{(gamma+omega) x_lo} overflows once
    d is above about 150."""
    gamma, omega = consts.gamma, consts.omega
    mask = x >= x_lo
    xs, vs = x[mask], v[mask]
    if xs.size < 8:
        raise TailFitIllConditioned("tail window contains too few samples")
    # columns scaled to O(1) at the window start; rows weighted by 1/|v|
    # so the fit minimizes relative residual
    col1 = np.exp(-gamma * (xs - x_lo))
    col2 = np.exp(-(gamma + omega) * (xs - x_lo))
    w = 1.0 / np.abs(vs)
    A = np.column_stack([col1 * w, col2 * w])
    b = vs * w
    coef, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    if rank < 2 or sv[0] / max(sv[-1], 1e-300) > 1e12:
        raise TailFitIllConditioned(
            "tail exponentials numerically collinear; enlarge window or x_max"
        )
    h_plus = 0.5 * coef[0] * math.exp(gamma * x_lo)
    return TailFit(h=-h_plus, h_minus=0.5 * coef[1])


def extract_tail(profile, x_lo=None):
    """Re-fit the tail amplitudes on [x_lo, x_max] (defaults to the stored
    window).  Returns a TailFit with h = -h_+ > 0."""
    if x_lo is None:
        x_lo = profile.x_switch
    return _fit_tail(profile.consts, profile.x, profile.v, x_lo)


def _taylor_coefficients(consts, v0, vp0):
    """Taylor coefficients v_0 .. v_TAYLOR_ORDER of the orbit through (v0, vp0):
    v(x0 + t) = sum v_m t^m.  They follow from v'' = -(d-2) v' - k(d+k-2)
    sin v and the series of sin v and cos v, whose derivatives are
    cos v v' and -sin v v', kept from the highest order down."""
    damping, torque = _pendulum_coefficients(consts)
    v0, vp0 = float(v0), float(vp0)     # Python floats: faster than numpy's
    sin_v = [math.sin(v0)]
    cos_v = [math.cos(v0)]
    v = [v0, vp0, (-damping * vp0 - torque * sin_v[0]) / 2]
    dv = [vp0, 2 * v[2]]                # dv[j - 1] = j v_j
    for m in range(1, TAYLOR_ORDER - 1):
        # m s_m = sum_j j v_j c_{m-j},  m c_m = -sum_j j v_j s_{m-j}
        s_m = sum(map(operator.mul, dv, cos_v)) / m
        cos_v.insert(0, -sum(map(operator.mul, dv, sin_v)) / m)
        sin_v.insert(0, s_m)
        v.append((-damping * dv[m] - torque * s_m) / ((m + 1) * (m + 2)))
        dv.append((m + 2) * v[-1])
    return v


def _value_and_slope(descending, t):
    """p(t) and p'(t) by one Horner pass over the coefficients of p, given
    from the highest order down: floats, or rows of arrays of t's shape."""
    descending = iter(descending)
    p, dp = next(descending), 0.0
    for c in descending:
        dp = dp * t + p
        p = p * t + c
    return p, dp


def _taylor_orbit(consts, x0, v0, vp0, x_end, tolerance):
    """The orbit from (v0, vp0) at x0 to x_end as a TaylorOrbit of order
    TAYLOR_ORDER, asked for a relative accuracy of tolerance / 10.  Each
    step is as long as the last two coefficients allow (Jorba and Zou,
    Exp. Math. 14, 2005) for a truncation estimate below 1e-4 of that,
    relative to max(|v|, |v'|): the estimate understates the truncation, and
    held at tolerance / 10 itself it leaves a global error of ~2.5e-8 at
    tolerance 1e-11."""
    rel = 0.1 * tolerance
    if rel < 100.0 * np.finfo(float).eps:
        raise IntegrationFailed(
            f"profile integration failed: tolerance {tolerance:.3g} asks for "
            "a relative accuracy below 100 machine epsilons")
    p = TAYLOR_ORDER
    bound = 1e-4 * rel
    x, v, vp = x0, v0, vp0
    starts, coefs = [], []
    while True:
        if len(starts) == MAX_STEPS:
            raise IntegrationFailed(
                f"profile integration failed: {MAX_STEPS} steps reached "
                f"x = {x:.6g} of {x_end:.6g}; the orbit is stiff at large d")
        coef = _taylor_coefficients(consts, v, vp)
        scale = bound * max(abs(v), abs(vp))
        if scale < sys.float_info.min:
            d, d_star = consts.params.d, critical_dimension(consts.params.k)
            raise IntegrationFailed(
                f"profile integration failed: the orbit underflows at x = "
                f"{x:.6g} of x_max = {x_end:.6g}; d = {d:.9g} is only "
                f"{d - d_star:.3g} above d* = {d_star:.9g}")
        h = 1.0 / max((abs(coef[p - 1]) / scale) ** (1.0 / (p - 1)),
                      (abs(coef[p]) / scale) ** (1.0 / p))
        if not x + h > x:
            raise IntegrationFailed(
                f"profile integration failed: step {len(starts)} does not "
                f"advance x = {x:.6g}; the Taylor coefficients overflow")
        starts.append(x)
        coefs += coef
        if x + h >= x_end:
            # np.fromiter on one flat list beats np.array on a list per step
            table = np.fromiter(coefs, float, len(coefs)).reshape(len(starts), -1)
            starts, table = np.array(starts), np.ascontiguousarray(table.T)
            starts.flags.writeable = table.flags.writeable = False
            return TaylorOrbit(starts, table)
        v, vp = _value_and_slope(coef[::-1], h)
        x += h


def _slope_normalization(consts, orbit, x, vp):
    """C_s = 1 / max_xi |dU*/dxi| with dU*/dxi = v'(x) e^{-x} / 2.  At k = 1
    that is dU*/dxi(0) = 1: v'' - v' stays within the orbit's error of 0.  At
    k >= 2, Newton on v'' - v' from the grid argmax, with v'' and v''' from
    the pendulum equation at (v, v') off the stored steps.  IntegrationFailed
    if it leaves the argmax's neighbour cells or takes 8 iterations."""
    if consts.params.k == 1:
        return 1.0
    damping, torque = _pendulum_coefficients(consts)
    j = int(np.argmax(vp * np.exp(-x)))
    lo, hi, xx = x[max(j - 1, 0)], x[min(j + 1, x.size - 1)], float(x[j])
    for _ in range(8):
        v, dv = orbit(xx)
        d2v = -damping * dv - torque * math.sin(v)
        step = (d2v - dv) / (-damping * d2v - torque * math.cos(v) * dv - d2v)
        if abs(step) <= 1e-12:
            return 1.0 / (0.5 * dv * math.exp(-xx))
        xx -= step
        if not lo <= xx <= hi:
            break
    raise IntegrationFailed(f"profile slope maximum: Newton at x = {xx:.6g} "
                            f"did not converge inside [{lo:.6g}, {hi:.6g}]")


def eval_u(profile, xi):
    """U*(xi) on [0, pi/2): origin series below e^{x_min}, the stored orbit
    in between, tail formula beyond e^{x_switch}.  Vectorized in xi; a
    negative or NaN xi raises ValueError."""
    consts = profile.consts
    k = consts.params.k
    gamma, omega = consts.gamma, consts.omega
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if not np.all(xi >= 0):     # NaN too: it falls in none of the masks
        raise ValueError("xi must be >= 0")
    out = np.empty_like(xi)

    xi_lo = math.exp(profile.x[0])
    xi_hi = math.exp(profile.x_switch)

    near = xi < xi_lo
    mid = (xi >= xi_lo) & (xi <= xi_hi)
    far = xi > xi_hi

    if near.any():
        out[near] = _origin_series(consts, xi[near] ** k)[0]
    if mid.any():
        out[mid] = 0.5 * (profile.orbit(np.log(xi[mid]))[0] + math.pi)
    if far.any():
        # pi/2 - U* = -v/2, the subdominant term taken from x_switch on
        out[far] = 0.5 * math.pi - (
            profile.h * xi[far] ** (-gamma)
            - profile.h_minus * (xi[far] / xi_hi) ** (-(gamma + omega))
        )
    return out[0] if scalar else out


def _trapping_excursions(consts, v, vp):
    """The pointwise excursions below and above S, (-k sin v - v')_+ and
    (v' + gamma sin v)_+, as two arrays."""
    sin_v = np.sin(v)
    return (np.maximum(-consts.params.k * sin_v - vp, 0.0),
            np.maximum(vp + consts.gamma * sin_v, 0.0))


def check_trapping_arrays(consts, v, vp):
    """Worst excursion from S and inward-flux samples along its boundary."""
    k, gamma = consts.params.k, consts.gamma
    lower, upper = (float(np.max(excursion))
                    for excursion in _trapping_excursions(consts, v, vp))
    vv = np.linspace(-math.pi, 0.0, 41)[1:-1]
    flux = [
        (float(a), float(-k * k * math.sin(a) * (1 - math.cos(a))),
         float(-gamma * gamma * math.sin(a) * (1 - math.cos(a))))
        for a in vv
    ]
    return TrappingReport(
        max_lower_violation=lower,
        max_upper_violation=upper,
        boundary_flux_samples=flux,
    )


def check_trapping(profile):
    return check_trapping_arrays(profile.consts, profile.v, profile.v_prime)
