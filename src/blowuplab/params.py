"""Parameter space (d, k, N) and every closed-form derived constant.

All other modules consume the quantities computed here:

    omega = sqrt((d - 2(k+1))^2 - 8 k^2)
    gamma = (d - 2 - omega) / 2
    delta = min(omega, 2*gamma)
    lambda_n = -gamma/2 + n
    beta_n   = -1/2 + 2 n / (d - 2 - omega) = lambda_n / gamma

The construction requires supercriticality d > d* = 2 + k(2 + 2*sqrt(2));
below d* the profile tail oscillates and none of this applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateRegime, SubcriticalDimension

#: eigenvalue takes |lambda_n| <= NEUTRAL_TOL as 0: the one neutrality test
NEUTRAL_TOL = 1e-12

#: tolerance for rejecting the degenerate regime omega == 2*gamma
DEGENERATE_TOL = 1e-12


class Regime(Enum):
    INNER_DOMINATED = "inner"  # omega < 2*gamma
    OUTER_DOMINATED = "outer"  # omega > 2*gamma


def critical_dimension(k):
    """d* below which the tail of the harmonic map profile oscillates."""
    return 2.0 + k * (2.0 + 2.0 * math.sqrt(2.0))


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: dimension d (real, >= 3), corotational degree k,
    and an optional eigen-index N selecting which construction is meant."""

    d: float
    k: int = 1
    N: int | None = None

    def __post_init__(self):
        if self.k < 1 or self.k != int(self.k):
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if self.N is not None and (self.N < 0 or self.N != int(self.N)):
            raise ValueError(f"N must be a non-negative integer, got {self.N}")
        if not (math.isfinite(self.d) and self.d >= 3):
            raise ValueError(f"d must be finite and >= 3, got {self.d}")
        gap = self.d - 2 * (self.k + 1)
        if not math.isfinite(gap * gap):
            raise ValueError(f"d = {self.d} is too large: (d - 2(k+1))^2, "
                             "whose root is omega, overflows")

    @property
    def kappa(self):
        """k(d+k-2): the flow's term is -kappa/(2 r^2) sin(2u), and the
        energy density's kappa sin(u)^2 / r^2."""
        return self.k * (self.d + self.k - 2.0)


@dataclass(frozen=True)
class DerivedConstants:
    """Everything derivable in closed form from (d, k)."""

    params: ModelParams
    omega: float
    gamma: float
    delta: float
    regime: Regime


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    lam: float   # lambda_n = -gamma/2 + n, exactly 0 within NEUTRAL_TOL
    beta: float  # beta_n = lambda_n / gamma


@dataclass(frozen=True)
class Classification:
    neutral_index: int | None     # min_admissible_N if its lambda_N is 0
    min_admissible_N: int         # smallest N with lambda_N >= 0, >= 1
    stability_bound: float        # (d-2-omega)/4, always > k/2


def derive(params: ModelParams) -> DerivedConstants:
    """Compute all derived constants, rejecting subcritical and degenerate
    parameter choices."""
    d, k = params.d, params.k
    d_star = critical_dimension(k)
    if d <= d_star:
        raise SubcriticalDimension(
            f"d={d} <= d*={d_star:.6f} for k={k}: profile tail oscillates"
        )
    omega = math.sqrt((d - 2 * (k + 1)) ** 2 - 8 * k * k)
    gamma = 0.5 * (d - 2.0 - omega)
    # identity d - 2 - gamma = gamma + omega must hold to machine precision
    lhs, rhs = d - 2.0 - gamma, gamma + omega
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs)), (lhs, rhs)
    if abs(omega - 2.0 * gamma) <= DEGENERATE_TOL * max(1.0, omega):
        raise DegenerateRegime(
            f"omega == 2*gamma at d={d}, k={k}: coupling integrals diverge"
        )
    regime = Regime.INNER_DOMINATED if omega < 2 * gamma else Regime.OUTER_DOMINATED
    delta = min(omega, 2.0 * gamma)
    return DerivedConstants(
        params=params,
        omega=omega,
        gamma=gamma,
        delta=delta,
        regime=regime,
    )


def eigenvalue(consts: DerivedConstants, n: int) -> SpectrumEntry:
    """n-th eigenvalue of the linearization around the equatorial map and
    the blow-up exponent it induces; lambda_n within NEUTRAL_TOL of 0 is 0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    lam = -0.5 * consts.gamma + n
    if abs(lam) <= NEUTRAL_TOL:
        lam = 0.0
    beta = lam / consts.gamma
    return SpectrumEntry(n=n, lam=lam, beta=beta)


def classify(consts: DerivedConstants) -> Classification:
    """Smallest admissible N, by the sign of eigenvalue, and N if neutral."""
    n0 = 0.25 * (consts.params.d - 2.0 - consts.omega)  # == gamma / 2
    N = math.floor(n0)   # lambda_n = n - n0: < 0 below N, > 0 above N + 1
    if eigenvalue(consts, N).lam < 0:
        N += 1
    return Classification(
        neutral_index=N if eigenvalue(consts, N).lam == 0 else None,
        min_admissible_N=N,
        stability_bound=n0,
    )
