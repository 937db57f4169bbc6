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

From the orbit we extract the tail amplitude h = -h_+ > 0 and the slope
normalization C_s = 1 / sup_xi |dU*/dxi|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import ODEintWarning, odeint
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from .errors import IntegrationFailed, TailFitIllConditioned, TrappingViolation
from .params import DerivedConstants
from .tables import write_table

#: number of stored orbit samples (interpolation grid)
GRID_SIZE = 12000

#: tail-fit window is the last this-fraction of [0, x_max]
TAIL_WINDOW_FRACTION = 0.3


def default_x_min(k):
    # truncation error of the 2-term origin series is O(e^{5 k x_min})
    return -12.0 / k


def default_x_max(consts):
    # e^{-omega x_max} < 1e-10 relative to the leading tail term keeps the
    # two-exponential fit well conditioned
    return max(12.0, math.log(1e10) / consts.omega)


@dataclass
class TailFit:
    h: float
    h_minus: float
    fit_residual: float


@dataclass
class TrappingReport:
    max_lower_violation: float            # max over grid of (-k sin v - v')_+
    max_upper_violation: float            # max over grid of (v' + gamma sin v)_+
    boundary_flux_samples: list = field(default_factory=list)


@dataclass
class ProfileSolution:
    consts: DerivedConstants
    x: np.ndarray        # strictly increasing, x = log(xi)
    v: np.ndarray        # v(x) = 2 U*(e^x) - pi, in (-pi, 0)
    v_prime: np.ndarray  # v'(x) > 0
    h: float             # tail amplitude, -h_+ > 0
    h_minus: float       # subdominant amplitude (diagnostic)
    Cs: float            # 1 / sup |dU*/dxi|
    x_switch: float      # beyond e^{x_switch} evalU uses the tail formula
    tolerance: float
    tail_residual: float
    _v_interp: PchipInterpolator = field(repr=False, default=None)

    def to_csv(self, path):
        """Orbit export for the phase-portrait figure (columns x, v, vPrime)."""
        write_table(path, ("x", "v", "vPrime"), (self.x, self.v, self.v_prime))


def _origin_series(consts, x):
    """Taylor departure from the saddle: v, v' at large negative x."""
    d, k = consts.params.d, consts.params.k
    c3 = 2.0 * (d + k - 2.0) / (3.0 * (d + 4.0 * k - 2.0))
    e1 = np.exp(k * x)
    e3 = np.exp(3.0 * k * x)
    v = -math.pi + 2.0 * e1 - c3 * e3
    vp = 2.0 * k * e1 - 3.0 * k * c3 * e3
    return v, vp


def _pendulum_rhs(consts):
    d, k = consts.params.d, consts.params.k
    damping = d - 2.0
    torque = k * (d + k - 2.0)

    def rhs(x, state):
        v, vp = state.tolist()   # Python floats: faster than numpy scalars
        return (vp, -damping * vp - torque * math.sin(v))

    return rhs


def lsoda(rhs, y0, t, rtol, atol, what):
    """Solution of y' = rhs(t, y) on the nodes t (y0 at t[0]) by LSODA, whose
    step loop runs in compiled code.  A failed integration raises
    IntegrationFailed naming `what`, never an ODEintWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ODEintWarning)
        try:
            return odeint(rhs, y0, t, rtol=rtol, atol=atol, tfirst=True)
        except ODEintWarning as exc:
            raise IntegrationFailed(f"{what} integration failed: {exc}") from None


def solve_profile(consts, x_min=None, x_max=None, tolerance=1e-11):
    """Integrate the heteroclinic orbit and package it with tail and slope
    constants.  Raises TrappingViolation if the computed orbit exits the
    trapping region by more than the integration error allows, and
    IntegrationFailed if LSODA fails, as it does for tolerance below about
    2.2e-13 (it runs at tolerance/10 and rejects rtol below 100 machine
    epsilons)."""
    if x_min is None:
        x_min = default_x_min(consts.params.k)
    if x_max is None:
        x_max = default_x_max(consts)
    v0, vp0 = _origin_series(consts, x_min)

    # the orbit amplitude decays like e^{-gamma x}; absolute tolerance must
    # track it so the tail window stays accurate in relative terms.  LSODA
    # runs at a tenth of `tolerance`: at `tolerance` itself its global error
    # moves D_1 at (d, k) = (8, 1) by 6e-8, more than the 5e-8 to which the
    # frozen constants are checked.
    atol = max(tolerance * math.exp(-consts.gamma * x_max), 1e-280)
    rhs = _pendulum_rhs(consts)

    def orbit(x, state0):
        return lsoda(rhs, state0, x, 0.1 * tolerance, 0.1 * atol, "profile")

    grid = np.linspace(x_min, x_max, GRID_SIZE)
    v, vp = orbit(grid, [v0, vp0]).T

    scale = np.maximum(np.abs(vp), 1e-280)
    rel_viol = max(
        float(np.max(np.maximum(-consts.params.k * np.sin(v) - vp, 0.0) / scale)),
        float(np.max(np.maximum(vp + consts.gamma * np.sin(v), 0.0) / scale)),
    )
    if rel_viol > 1e4 * tolerance + 1e-9:
        raise TrappingViolation(
            f"orbit left trapping region by relative margin {rel_viol:.3e}"
        )

    x_switch = x_min + (1.0 - TAIL_WINDOW_FRACTION) * (x_max - x_min)
    tail = _fit_tail(consts, grid, v, x_lo=x_switch)
    Cs = _slope_normalization(consts, grid, v, vp, orbit)

    profile = ProfileSolution(
        consts=consts,
        x=grid,
        v=v,
        v_prime=vp,
        h=tail.h,
        h_minus=tail.h_minus,
        Cs=Cs,
        x_switch=x_switch,
        tolerance=tolerance,
        tail_residual=tail.fit_residual,
        _v_interp=PchipInterpolator(grid, v),
    )
    return profile


def _fit_tail(consts, x, v, x_lo):
    """Linear least squares in the two tail exponentials on [x_lo, x_max]:
    v ~ 2 h_+ e^{-gamma x} + 2 h_- e^{-(gamma+omega) x}."""
    gamma, omega = consts.gamma, consts.omega
    mask = x >= x_lo
    xs, vs = x[mask], v[mask]
    if xs.size < 8:
        raise TailFitIllConditioned("tail window contains too few samples")
    x0 = xs[0]
    # columns scaled to O(1) at the window start; rows weighted by 1/|v|
    # so the fit minimizes relative residual
    col1 = np.exp(-gamma * (xs - x0))
    col2 = np.exp(-(gamma + omega) * (xs - x0))
    w = 1.0 / np.abs(vs)
    A = np.column_stack([col1 * w, col2 * w])
    b = vs * w
    coef, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    if rank < 2 or sv[0] / max(sv[-1], 1e-300) > 1e12:
        raise TailFitIllConditioned(
            "tail exponentials numerically collinear; enlarge window or x_max"
        )
    h_plus = 0.5 * coef[0] * math.exp(gamma * x0)
    h_minus = 0.5 * coef[1] * math.exp((gamma + omega) * x0)
    resid = float(np.sqrt(np.mean((A @ coef - b) ** 2)))
    return TailFit(h=-h_plus, h_minus=h_minus, fit_residual=resid)


def extract_tail(profile, x_lo=None):
    """Re-fit the tail amplitudes on [x_lo, x_max] (defaults to the stored
    window).  Returns a TailFit with h = -h_+ > 0."""
    if x_lo is None:
        x_lo = profile.x_switch
    return _fit_tail(profile.consts, profile.x, profile.v, x_lo)


def _slope_normalization(consts, x, v, vp, orbit):
    """C_s = 1 / max_xi |dU*/dxi| with dU*/dxi = v'(x) e^{-x} / 2, maximum
    refined by golden-section around the discrete argmax.  Off the grid, v'
    comes from `orbit` re-integrating from the left bracket node."""
    slope = 0.5 * vp * np.exp(-x)
    j = int(np.argmax(slope))
    i = max(j - 1, 0)
    lo = x[i]
    hi = x[min(j + 1, x.size - 1)]

    def neg_slope(xx):
        return -0.5 * orbit([lo, xx], [v[i], vp[i]])[1, 1] * math.exp(-xx)

    res = minimize_scalar(neg_slope, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    best = -res.fun
    if consts.params.k == 1:
        # dU*/dxi(0) = 1 exactly; the grid starts at e^{x_min} > 0
        best = max(best, 1.0)
    return 1.0 / best


def eval_u(profile, xi):
    """U*(xi) on [0, pi/2): origin series below e^{x_min}, interpolated orbit
    in between, tail formula beyond e^{x_switch}.  Vectorized in xi."""
    consts = profile.consts
    d, k = consts.params.d, consts.params.k
    gamma, omega = consts.gamma, consts.omega
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if np.any(xi < 0):
        raise ValueError("xi must be >= 0")
    out = np.empty_like(xi)

    xi_lo = math.exp(profile.x[0])
    xi_hi = math.exp(profile.x_switch)

    near = xi < xi_lo
    mid = (xi >= xi_lo) & (xi <= xi_hi)
    far = xi > xi_hi

    if near.any():
        c = (d + k - 2.0) / (3.0 * (d + 4.0 * k - 2.0))
        out[near] = xi[near] ** k - c * xi[near] ** (3 * k)
    if mid.any():
        out[mid] = 0.5 * (profile._v_interp(np.log(xi[mid])) + math.pi)
    if far.any():
        t = profile.h * xi[far] ** (-gamma) * (
            1.0 + (profile.h_minus / profile.h) * xi[far] ** (-omega)
        )
        out[far] = 0.5 * math.pi - t
    return out[0] if scalar else out


def check_trapping_arrays(consts, v, vp):
    """Worst excursion from S and inward-flux samples along its boundary."""
    k, gamma = consts.params.k, consts.gamma
    lower = float(np.max(np.maximum(-k * np.sin(v) - vp, 0.0)))
    upper = float(np.max(np.maximum(vp + gamma * np.sin(v), 0.0)))
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
