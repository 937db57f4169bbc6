"""Reduced dynamics for eps(s) and a_n(s), and the predicted rate laws.

The layer width obeys

    gamma deps/ds = -lambda_N eps - (D_N c_N / h) eps^{1+delta}

which for lambda_N > 0 decays like eps_0 e^{-lambda_N s / gamma} and for
lambda_N = 0 like C_N (s - s_0)^{-1/delta} with
C_N = (h gamma / (c_N D_N delta))^{1/delta}.  Through
R(t) = C_s sqrt(T-t) eps(-log(T-t)) these become the power law
(T-t)^{1/2+beta_N} and the logarithmic law respectively.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import BlowupOfEpsilon, NegativeEigenvalue
from .params import eigenvalue
from .profile import lsoda


@dataclass(frozen=True)
class ReducedConstants:
    """Constant inputs of the eps ODE, gathered from upstream modules."""
    lam: float      # lambda_N
    gamma: float
    DN: float
    cN: float
    h: float
    delta: float

    @property
    def b(self):
        """Nonlinear coefficient D_N c_N / h."""
        return self.DN * self.cN / self.h

    @property
    def CN(self):
        """Neutral-mode amplitude (h gamma / (c_N D_N delta))^{1/delta}."""
        return (self.h * self.gamma / (self.cN * self.DN * self.delta)) ** (1.0 / self.delta)


@dataclass
class EpsilonTrajectory:
    constants: ReducedConstants
    s: np.ndarray
    eps: np.ndarray
    eps0: float
    s0: float | None = None   # fitted shift, neutral case only

    def closed_form(self, s):
        """Exact Bernoulli solution of the eps ODE (oracle for the numerics)."""
        c = self.constants
        s = np.asarray(s, dtype=float)
        u0 = self.eps0 ** (-c.delta)
        rate = c.delta * c.lam / c.gamma
        if c.lam > 0:
            u = (u0 + c.b / c.lam) * np.exp(rate * s) - c.b / c.lam
        else:
            u = u0 + (c.delta * c.b / c.gamma) * s
        return u ** (-1.0 / c.delta)


def solve_epsilon(constants, eps0, s_max=60.0, rtol=1e-10, n_samples=2001):
    """Integrate the eps ODE in l = log eps,

        gamma dl/ds = -lambda_N - b e^{delta l},

    so that atol = rtol on l bounds the relative error of eps however small
    it gets.  lambda_N < 0 is rejected (the layer would not shrink); growth
    of eps signals a sign error in the constants.  A failed integration
    raises IntegrationFailed; LSODA rejects rtol below 100 machine
    epsilons (about 2.2e-14)."""
    if constants.lam < 0:
        raise NegativeEigenvalue(
            f"lambda_N = {constants.lam} < 0: boundary layer does not shrink"
        )
    if not 0.0 < eps0 <= 0.1:
        raise ValueError(f"eps0 must be in (0, 0.1], got {eps0}")
    c = constants
    lam, b, delta, gamma = c.lam, c.b, c.delta, c.gamma

    def rhs(s, ell):
        return ((-lam - b * math.exp(delta * ell.item())) / gamma,)

    s_grid = np.linspace(0.0, s_max, n_samples)
    ell = lsoda(rhs, [math.log(eps0)], s_grid, rtol, rtol, "eps")
    eps = np.exp(ell[:, 0])
    if np.any(eps > 1.5 * eps0) or eps[-1] > eps[0]:
        raise BlowupOfEpsilon("eps(s) grew; check signs of D_N, c_N, h")
    traj = EpsilonTrajectory(constants=c, s=s_grid, eps=eps, eps0=eps0)
    if c.lam == 0:
        traj.s0 = fit_neutral_shift(traj)
    return traj


def fit_neutral_shift(traj):
    """s_0 from a linear fit of eps^{-delta} vs s over the last half of the
    trajectory (transients decay algebraically, so use the late window)."""
    c = traj.constants
    half = traj.s.size // 2
    s, e = traj.s[half:], traj.eps[half:]
    slope, intercept = np.polyfit(s, e ** (-c.delta), 1)
    return -intercept / slope


@dataclass
class RateLaw:
    kind: str                  # "power" | "logarithmic"
    N: int
    exponent: float            # 1/2 + beta_N, or 1/delta
    prefactor: float | None    # C_s * eps0 (eps0 data-dependent -> None) or C_s * C_N
    constants: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({
            "kind": self.kind,
            "N": self.N,
            "exponent": self.exponent,
            "prefactor": self.prefactor,
            "constants": self.constants,
        }, indent=2)


def predict_rate(consts, N, profile, basis, coupling):
    """Assemble the blow-up rate law R_N(t) from the upstream constants."""
    spec = eigenvalue(consts, N)
    if spec.lam < 0:
        raise NegativeEigenvalue(f"lambda_{N} = {spec.lam} < 0")
    cN = float(basis.c_origin[N])
    DN = float(coupling.D[N])
    common = {
        "h": profile.h,
        "Cs": profile.Cs,
        "cN": cN,
        "DN": DN,
        "delta": consts.delta,
        "gamma": consts.gamma,
        "omega": consts.omega,
        "lambdaN": spec.lam,
        "betaN": spec.beta,
    }
    if spec.lam > 0:
        # prefactor C_s * eps0 has the data-dependent factor eps0 left free
        return RateLaw(kind="power", N=N, exponent=0.5 + spec.beta,
                       prefactor=None, constants=common)
    rc = ReducedConstants(lam=0.0, gamma=consts.gamma, DN=DN, cN=cN,
                          h=profile.h, delta=consts.delta)
    common["CN"] = rc.CN
    return RateLaw(kind="logarithmic", N=N, exponent=1.0 / consts.delta,
                   prefactor=profile.Cs * rc.CN, constants=common)


def matched_aN(traj):
    """a_N(s) = -(h/c_N) eps(s)^gamma, the matching condition."""
    c = traj.constants
    return -(c.h / c.cN) * traj.eps ** c.gamma


def _discounted_sums(ds, src, rate):
    """y_0 = 0, y_j = y_{j-1} e^{-rate ds_j} + ds_j (src_{j-1} e^{-rate ds_j}
    + src_j) / 2: the trapezoid sums of int src(q) e^{-rate (s_j - q)} dq
    from the first sample, as one lower-bidiagonal solve.  Stable for
    rate >= 0, where every factor e^{-rate ds_j} is at most 1."""
    decay = np.exp(-rate * ds)
    rhs = np.zeros(src.size)
    rhs[1:] = 0.5 * ds * (src[:-1] * decay + src[1:])
    band = np.ones((2, src.size))
    band[1, :-1] = -decay
    y, _ = dtbtrs(band, rhs[:, None], uplo="L", diag="U")  # never singular
    return y[:, 0]


def _tail_sums(traj, lam_n):
    """B(s) = int_s^{s_max} eps^{gamma+delta}(q) e^{lambda_n (q-s)} dq on the
    trajectory grid, summed backward from s_max (stable for lambda_n <= 0)."""
    c = traj.constants
    src = traj.eps ** (c.gamma + c.delta)
    return _discounted_sums(np.diff(traj.s)[::-1], src[::-1], -lam_n)[::-1]


def coefficient_flow(traj, lam_n, Dn, an0):
    """a_n(s) = a_n(0) e^{-lambda_n s} + D_n int_0^s eps^{gamma+delta}
    e^{-lambda_n (s-q)} dq evaluated along the trajectory.  For
    lambda_n >= 0 the convolution is summed forward.  For lambda_n < 0 it is
    written as B(0) e^{-lambda_n s} - B(s) with the backward sums B of
    _tail_sums: the growing mode then carries a_n(0) + D_n B(0), which is
    exactly 0 for the tuned a_n(0) = an_requirement(...), and no cancellation
    against e^{|lambda_n| s} is left to roundoff."""
    s = traj.s
    if lam_n >= 0:
        c = traj.constants
        src = traj.eps ** (c.gamma + c.delta)
        return an0 * np.exp(-lam_n * s) + Dn * _discounted_sums(
            np.diff(s), src, lam_n)
    tail = _tail_sums(traj, lam_n)
    return (an0 + Dn * tail[0]) * np.exp(-lam_n * s) - Dn * tail


def an_requirement(traj, lam_n, Dn):
    """Initial value -D_n int_0^{s_max} eps^{gamma+delta} e^{lambda_n q} dq
    that cancels the growing mode for n < N (converges for lambda_n < 0 in
    the neutral case).  The integral is the same backward sum that
    coefficient_flow uses, so tuned data cancel exactly."""
    return -Dn * float(_tail_sums(traj, lam_n)[0])


def codimension(N):
    """N matching constraints, one removed by the blow-up-time gauge."""
    return {"constraints": N, "effective_unstable": N - 1}


@dataclass
class AnsatzSnapshot:
    s: float | None
    eps: float
    K: float
    y: np.ndarray
    f: np.ndarray
    jump: float          # |f_inn(K) - f_out(K)|


def assemble_ansatz(profile, basis, N, eps, y_grid=None, s=None):
    """Global approximate solution: rescaled profile below K = sqrt(eps),
    equatorial map minus the matched eigenmode above it."""
    from .profile import eval_u
    if not 0.0 < eps <= 0.1:
        raise ValueError(f"eps must be in (0, 0.1], got {eps}")
    consts = profile.consts
    K = math.sqrt(eps)
    if y_grid is None:
        y_grid = np.geomspace(eps * 1e-3, 10.0, 600)
    y_grid = np.asarray(y_grid, dtype=float)
    f = np.empty_like(y_grid)
    amp = (profile.h / basis.c_origin[N]) * eps ** consts.gamma
    inner = y_grid <= K
    f[inner] = eval_u(profile, y_grid[inner] / eps)
    f[~inner] = 0.5 * math.pi - amp * basis.phi(N, y_grid[~inner])
    f_inn_K = float(eval_u(profile, K / eps))
    f_out_K = 0.5 * math.pi - amp * float(basis.phi(N, K))
    return AnsatzSnapshot(s=s, eps=eps, K=K, y=y_grid, f=f,
                          jump=abs(f_inn_K - f_out_K))
