"""Eigenbasis of the linearization around the equatorial map.

The operator

    A phi = -phi'' - ((d-1)/y - y/2) phi' - k(d+k-2)/y^2 phi

is self-adjoint in L^2(R_+, rho dy) with rho(y) = y^{d-1} e^{-y^2/4} and
has the explicit spectrum

    phi_n(y) = N_n y^{-gamma} L_n^{(omega/2)}(y^2/4),   lambda_n = -gamma/2 + n,

orthonormal under rho for N_n = 2^{-(1+omega)/2} sqrt(n!/Gamma(n+1+omega/2))
(the Laguerre orthogonality relation), which is sqrt(2) closed_form_norm.
The origin coefficients are c_n = N_n L_n^{(omega/2)}(0).

Inner products are evaluated with generalized Gauss-Laguerre rules in
z = y^2/4: with y^{d-1} dy = 2^{d-1} z^{gamma + omega/2} dz the weight
becomes e^{-z} z^{omega/2} after factoring the y^{-2gamma} behavior of a
pair of eigenfunctions.  Every Gram entry is then a polynomial of degree
at most 2 max_n in z, so build_basis checks the closed-form N_n on the
smallest rule exact for it, with max_n + 1 nodes.  Projections of other
functions use the QUAD_NODES-point rule, built on first use.

The Laguerre polynomials come from their three-term recurrence (laguerre)
and the rules from the Golub-Welsch eigenvalues of the Jacobi matrix
(gauss_laguerre, Math. Comp. 23, 1969), as scipy.special builds them, so the
package does not load scipy.special.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsterf

from .errors import FloatRangeExceeded, QuadratureNotConverged
from .params import DerivedConstants, eigenvalue
from .tables import write_table

ORTHO_TARGET = 1e-8
QUAD_NODES = 200

#: build_basis refuses max_n from this on, before it builds any table: its
#: (max_n + 1)-node rule overflows there at every (d, k) measured (k = 1-3,
#: d from d* + 0.05 to 269: the largest max_n that builds is 190-320, and 400,
#: 600 and 1000 fail everywhere), and the rule's Laguerre table holds
#: (max_n + 2) (max_n + 1) doubles, 3.2 GB at max_n = 20,000
MAX_N_BOUND = 400


def laguerre(n, alpha, z):
    """L_0^{(alpha)}(z) .. L_n^{(alpha)}(z), n >= 0, as the rows of an
    (n + 1, *z.shape) array, in one pass of the three-term recurrence
    (k + 1) L_{k+1} = (2k + 1 + alpha - z) L_k - (k + alpha) L_{k-1}.
    It runs, as in scipy.special, on p_k = L_k / L_k(0) and its differences
    d_k = p_k - p_{k-1}, d_{k+1} = (k d_k - z p_k) / (k + 1 + alpha): the
    plain form loses digits near z = 0 (6e-11 of L_199^{(1/2)} at its
    first root), and this one does not."""
    minus_z = -np.asarray(z, dtype=float)
    p = np.empty((n + 1,) + minus_z.shape)
    p[0] = 1.0
    if n >= 1:
        d = minus_z / (alpha + 1.0)
        p[1] = 1.0 + d
    for k in range(1, n):
        c = k + 1 + alpha
        d = minus_z / c * p[k] + (k / c) * d
        p[k + 1] = p[k] + d
    p *= _at_zero(n, alpha).reshape((-1,) + (1,) * minus_z.ndim)
    return p


def _at_zero(n, alpha):
    """L_0^{(alpha)}(0) .. L_n^{(alpha)}(0), L_k(0) = binom(k + alpha, k), as
    a product of k ratios: within 1.4e-15 for n <= 12 and alpha <= 198,
    where the form in lgamma is off by up to 2.5e-13."""
    return np.cumprod([1.0] + [(k + alpha) / k for k in range(1, n + 1)])


def laguerre_at_zero(n, alpha):
    """L_n^{(alpha)}(0) = Gamma(n+1+alpha) / (Gamma(n+1) Gamma(1+alpha))."""
    return float(_at_zero(n, alpha)[n])


@functools.lru_cache(maxsize=8)
def gauss_laguerre(order, alpha):
    """Nodes and weights of the `order`-point generalized Gauss-Laguerre
    rule for the weight z^alpha e^{-z}, read-only: the eigenvalues of the
    Jacobi matrix, one Newton step on L_order, and the weights from the
    derivative formula scaled to sum to Gamma(alpha + 1), all as in scipy's
    roots_genlaguerre.  The weights are inf where Gamma(alpha + 1)
    overflows (alpha > 171.6), as scipy's are."""
    try:
        mu0 = math.gamma(alpha + 1.0)
    except OverflowError:
        mu0 = math.inf
    if order == 1:
        z, w = np.array([alpha + 1.0]), np.array([mu0])
    else:
        k = np.arange(1.0, order)
        z = dsterf(2.0 * np.arange(order) + alpha + 1.0,
                   -np.sqrt(k * (k + alpha)))[0]
        L = laguerre(order, alpha, z)
        dL = (order * L[-1] - (order + alpha) * L[-2]) / z
        z -= L[-1] / dL
        fm = laguerre(order - 1, alpha, z)[-1]
        # L_{order-1} and the derivative span many decades: scale each by
        # the geometric middle of its range before taking the product
        for v in (fm, dL):
            log_v = np.log(np.abs(v))
            v /= np.exp(0.5 * (log_v.max() + log_v.min()))
        w = 1.0 / (fm * dL)
        w *= mu0 / w.sum()
    z.flags.writeable = w.flags.writeable = False
    return z, w


def closed_form_norm(n, omega):
    """2^{-1-omega/2} sqrt(n!/Gamma(n+1+omega/2)), which normalizes
    <phi_n, phi_n> to 1/2 under rho."""
    return 2.0 ** (-1.0 - omega / 2.0) * math.exp(
        0.5 * (math.lgamma(n + 1) - math.lgamma(n + 1 + omega / 2.0))
    )


@dataclass
class EigenBasis:
    consts: DerivedConstants
    max_n: int
    norm: np.ndarray       # N_n = sqrt(2) closed_form_norm(n, omega)
    c_origin: np.ndarray   # c_n = N_n L_n^{(omega/2)}(0) > 0

    @property
    def _alpha(self):
        """alpha = omega/2 of the Laguerre polynomials L_n^{(alpha)}."""
        return self.consts.omega / 2.0

    @functools.cached_property
    def _quad_rule(self):
        """The QUAD_NODES-point rule, built on first use: the asymptotics
        chain never projects."""
        return _rule_in_y(self.consts, QUAD_NODES)

    @property
    def nodes_y(self):
        """Quadrature nodes in y."""
        return self._quad_rule[0]

    @property
    def weights(self):
        """Weights including rho(y), for sum w_i f(y_i) g(y_i)."""
        return self._quad_rule[1]

    def lam(self, n):
        return eigenvalue(self.consts, n).lam

    def _laguerre(self, n, y, shift=0):
        """L_n^{(alpha + shift)}(y^2/4), alpha = omega/2; zero for n < 0."""
        y = np.asarray(y, dtype=float)
        if n < 0:
            return np.zeros_like(y)
        return laguerre(n, self._alpha + shift, 0.25 * y * y)[n]

    def phi(self, n, y):
        """phi_n(y), vectorized."""
        y = np.asarray(y, dtype=float)
        return self.norm[n] * y ** (-self.consts.gamma) * self._laguerre(n, y)

    def phi_table(self, y):
        """phi_0 .. phi_max_n at the points y, as a (max_n+1, len(y)) array."""
        y = np.asarray(y, dtype=float)
        L = laguerre(self.max_n, self._alpha, 0.25 * y * y)
        return self.norm[:, None] * y ** (-self.consts.gamma) * L

    def phi_prime(self, n, y):
        """d phi_n / dy via dL_n^{(a)}/dz = -L_{n-1}^{(a+1)}."""
        y = np.asarray(y, dtype=float)
        g = self.consts.gamma
        w = self._laguerre(n, y)
        wp = -self._laguerre(n - 1, y, 1)
        return self.norm[n] * y ** (-g) * (-g * w / y + 0.5 * y * wp)

    def phi_second(self, n, y):
        y = np.asarray(y, dtype=float)
        g = self.consts.gamma
        w = self._laguerre(n, y)
        wp = -self._laguerre(n - 1, y, 1)
        wpp = self._laguerre(n - 2, y, 2)
        return self.norm[n] * y ** (-g) * (
            g * (g + 1.0) * w / (y * y)
            + 0.5 * (1.0 - 2.0 * g) * wp
            + 0.25 * y * y * wpp
        )

    def apply_operator(self, n, y):
        """A phi_n evaluated from the analytic derivatives (equals
        lambda_n phi_n up to rounding error)."""
        d, kappa = self.consts.params.d, self.consts.params.kappa
        y = np.asarray(y, dtype=float)
        return (
            -self.phi_second(n, y)
            - ((d - 1.0) / y - 0.5 * y) * self.phi_prime(n, y)
            - kappa / (y * y) * self.phi(n, y)
        )

    def project(self, psi, y_max=None):
        """Coefficients a_n = <psi, phi_n> truncated to nodes y <= y_max."""
        if y_max is None:
            mask = slice(None)
        else:
            mask = self.nodes_y <= y_max
        ys = self.nodes_y[mask]
        py = np.asarray(psi(ys), dtype=float)
        return self.phi_table(ys) @ (self.weights[mask] * py)

    def gram_matrix(self):
        return self._gram(self.nodes_y, self.weights)

    def _gram(self, y, w):
        P = self.phi_table(y)
        return (P * w) @ P.T

    def to_csv(self, path, y_grid=None):
        """Basis table export on a diagnostic grid."""
        if y_grid is None:
            y_grid = np.linspace(0.05, 8.0, 160)
        write_table(path, ["y"] + [f"phi{n}" for n in range(self.max_n + 1)],
                    [y_grid, *self.phi_table(y_grid)])


def _rule_in_y(consts, nodes):
    """The `nodes`-point generalized Gauss-Laguerre rule in z = y^2/4, as
    nodes in y and weights including rho(y).  Raises FloatRangeExceeded if a
    weight overflows, as at k = 1 from d ~ 269.6 on, or is NaN, as where
    the Laguerre recurrence of the rule overflows (381 nodes at d = 8)."""
    d = consts.params.d
    with np.errstate(over="ignore", invalid="ignore"):
        # the Laguerre recurrence of a large rule overflows, to inf and then
        # inf - inf; a numpy scalar power gives inf where 2.0 ** 1024 raises
        z, wz = gauss_laguerre(nodes, consts.omega / 2.0)
        w = np.float64(2.0) ** (d - 1.0) * wz * z**consts.gamma
    if not np.all(np.isfinite(w)):
        raise FloatRangeExceeded(
            f"the {nodes}-node Gauss-Laguerre weights overflow at d = {d:g}")
    return 2.0 * np.sqrt(z), w


def build_basis(consts, max_n=8):
    """Construct the eigenbasis with the closed-form N_n and check it on
    the (max_n + 1)-node rule, the smallest that is exact for every Gram
    entry (to degree 2 max_n + 1 in z).  A Gram residual there that is not
    within ORTHO_TARGET, NaN included, means N_n is wrong, and raises
    QuadratureNotConverged.  The QUAD_NODES-point rule for projections is
    not built here.  FloatRangeExceeded where a weight of the check rule is
    not finite, and for max_n >= MAX_N_BOUND before any table is built."""
    if max_n >= MAX_N_BOUND:
        raise FloatRangeExceeded(
            f"max_n = {max_n}: the Gauss-Laguerre rules of {MAX_N_BOUND + 1} "
            f"nodes and more overflow at every (d, k) tried")
    ns = range(max_n + 1)
    norm = math.sqrt(2.0) * np.array([closed_form_norm(n, consts.omega) for n in ns])
    basis = EigenBasis(
        consts=consts,
        max_n=max_n,
        norm=norm,
        c_origin=norm * _at_zero(max_n, consts.omega / 2.0),
    )
    gram = basis._gram(*_rule_in_y(consts, max_n + 1))
    resid = float(np.max(np.abs(gram - np.eye(max_n + 1))))
    if not resid <= ORTHO_TARGET:
        raise QuadratureNotConverged(
            f"orthonormality residual {resid:.3e} on the {max_n + 1}-node "
            f"Gauss-Laguerre rule"
        )
    return basis
