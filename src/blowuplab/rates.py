"""Reduced dynamics for eps(s) and a_n(s), and the predicted rate laws.

The layer width obeys the Bernoulli equation

    gamma deps/ds = -lambda_N eps - b eps^{1+delta},   b = D_N c_N / h,

which u = eps^{-delta} turns linear, u' = r u + delta b / gamma with
r = delta lambda_N / gamma.  Its exact solution is the only formula for
eps(s) here:

    log u = r s + log(u_0 - b expm1(-r s) / lambda_N)   (lambda_N > 0),
    u = u_0 + (delta b / gamma) s                        (lambda_N = 0).

For lambda_N > 0 eps decays like eps_0 e^{-lambda_N s / gamma} and for
lambda_N = 0 like C_N (s - s_0)^{-1/delta} with
C_N = (h gamma / (c_N D_N delta))^{1/delta}.  Through
R(t) = C_s sqrt(T-t) eps(-log(T-t)) these become the power law
(T-t)^{1/2+beta_N} and the logarithmic law respectively.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import BlowupOfEpsilon, NegativeEigenvalue
from .params import eigenvalue
from .profile import eval_u

#: largest eps the matched construction takes: eps0 of solve_epsilon, eps of
#: assemble_ansatz and of compare's overlay snapshot
EPS_MAX = 0.1


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


def _bernoulli(c, eps0, s):
    """eps(s) from eps(0) = eps0 by the exact solution in log u: no overflow
    at large r s (the growth is a sum in the exponent), no cancellation as
    lambda_N -> 0 (expm1(-r s) / lambda_N tends to -delta s / gamma)."""
    u0 = eps0 ** -c.delta
    if c.lam == 0:
        log_u = np.log(u0 + (c.delta * c.b / c.gamma) * s)
    else:
        r = c.delta * c.lam / c.gamma
        log_u = r * s + np.log(u0 - c.b * (np.expm1(-r * s) / c.lam))
    return np.exp(-log_u / c.delta)


@dataclass
class EpsilonTrajectory:
    constants: ReducedConstants
    s: np.ndarray
    eps: np.ndarray
    eps0: float

    def closed_form(self, s):
        """eps at any s, by the formula that gave the samples."""
        return _bernoulli(self.constants, self.eps0, np.asarray(s, dtype=float))

    @property
    def s0(self):
        """Shift of the neutral law eps = C_N (s - s_0)^{-1/delta},
        -gamma eps0^{-delta} / (delta b); None for lambda_N > 0."""
        c = self.constants
        if c.lam > 0:
            return None
        return -c.gamma * self.eps0 ** -c.delta / (c.delta * c.b)

    @functools.cached_property
    def _flow_source(self):
        """eps^{gamma+delta} on the samples and the sample widths, the inputs
        of every coefficient flow, as read-only arrays."""
        c = self.constants
        src, ds = self.eps ** (c.gamma + c.delta), np.diff(self.s)
        src.flags.writeable = ds.flags.writeable = False
        return src, ds


#: samples of an eps trajectory on [0, s_max]
EPS_SAMPLES = 2001


def solve_epsilon(constants, eps0, s_max=60.0):
    """eps(s) on EPS_SAMPLES points of [0, s_max], from eps(0) = eps0 in
    (0, EPS_MAX], by the exact solution of the eps ODE.  lambda_N < 0 raises
    NegativeEigenvalue (the layer would not shrink).  eps must decay, which
    is lambda_N u_0 + b > 0: otherwise BlowupOfEpsilon, as the constants have
    a sign error (for b < -lambda_N u_0 the log's argument reaches 0 and eps
    blows up at finite s)."""
    c = constants
    if c.lam < 0:
        raise NegativeEigenvalue(
            f"lambda_N = {c.lam} < 0: boundary layer does not shrink"
        )
    if not 0.0 < eps0 <= EPS_MAX:
        raise ValueError(f"eps0 must be in (0, {EPS_MAX}], got {eps0}")
    if c.lam * eps0 ** -c.delta + c.b <= 0:
        raise BlowupOfEpsilon("eps(s) does not decay; check signs of D_N, c_N, h")
    s = np.linspace(0.0, s_max, EPS_SAMPLES)
    return EpsilonTrajectory(constants=c, s=s, eps=_bernoulli(c, eps0, s),
                             eps0=eps0)


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
    src, ds = traj._flow_source
    return _discounted_sums(ds[::-1], src[::-1], -lam_n)[::-1]


def coefficient_flow(traj, lam_n, Dn, an0):
    """a_n(s) = a_n(0) e^{-lambda_n s} + D_n int_0^s eps^{gamma+delta}
    e^{-lambda_n (s-q)} dq evaluated along the trajectory.  For
    lambda_n >= 0 the convolution is summed forward.  For lambda_n < 0 it is
    written as B(0) e^{-lambda_n s} - B(s) with the backward sums B of
    _tail_sums: the growing mode then carries a_n(0) + D_n B(0), which is
    exactly 0 for the tuned a_n(0) = an_requirement(...), and no cancellation
    against e^{|lambda_n| s} is left to rounding error."""
    s = traj.s
    if lam_n >= 0:
        src, ds = traj._flow_source
        return an0 * np.exp(-lam_n * s) + Dn * _discounted_sums(ds, src, lam_n)
    tail = _tail_sums(traj, lam_n)
    return (an0 + Dn * tail[0]) * np.exp(-lam_n * s) - Dn * tail


def an_requirement(traj, lam_n, Dn):
    """Initial value -D_n int_0^{s_max} eps^{gamma+delta} e^{lambda_n q} dq
    that cancels the growing mode for n < N (converges for lambda_n < 0 in
    the neutral case).  The integral is the same backward sum that
    coefficient_flow uses, so tuned data cancel exactly."""
    return -Dn * float(_tail_sums(traj, lam_n)[0])


@dataclass
class AnsatzSnapshot:
    eps: float
    K: float
    y: np.ndarray
    f: np.ndarray
    jump: float          # |f_inn(K) - f_out(K)|


def assemble_ansatz(profile, basis, N, eps, y_grid=None):
    """Global approximate solution: rescaled profile below K = sqrt(eps),
    equatorial map minus the matched eigenmode above it."""
    if not 0.0 < eps <= EPS_MAX:
        raise ValueError(f"eps must be in (0, {EPS_MAX}], got {eps}")
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
    return AnsatzSnapshot(eps=eps, K=K, y=y_grid, f=f,
                          jump=abs(f_inn_K - f_out_K))
